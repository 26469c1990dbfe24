//! What only the end-to-end benchmark under `benchmark/` reads, kept at
//! the paths it imports while it stays frozen. ROADMAP item 1(a) moves
//! it onto the system's own calls and deletes this module whole; no
//! other module of the crate calls into it.
//!
//! | name | re-exported at | read by `benchmark/src/` |
//! |---|---|---|
//! | [`CombinedTable`] | `fbs_ip::CombinedTable` | `replay.rs:16`, `:215` |
//! | [`build_secure_host`] | `fbs_ip::build_secure_host` | `driver.rs:18`, `:137`, `:147` |
//! | [`FbsIpHooks::drain`] | (a method) | `run.rs:44` |
//! | [`FbsIpHooks::shed_counts`] | (a method) | `run.rs:57`, `:306` |
//! | [`FbsIpHooks::ring_stalls`] | (a method) | `run.rs:303` |
//!
//! One more pin stays in the system, whose callers read it too:
//! [`FbsIpHooks::combined_stats`]'s always-`Some` `Option`, which
//! `run.rs:161` unwraps; 1(a) drops the `Option`.

use crate::combined::{insert_key, CombinedFst};
use crate::host::{secure_hooks, with_hooks};
use crate::{FbsIpHooks, FiveTuple, FiveTuplePolicy, IpMappingConfig};
use fbs_cert::{CertificateAuthority, Directory};
use fbs_core::{Fst, ManualClock, RuntimeError, SealedFlowKey, SflAllocator};
use fbs_crypto::dh::DhGroup;
use fbs_net::{ip::Ipv4Addr, Host};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// [`CombinedFst`] as the benchmark builds and fills it: by THRESHOLD,
/// with an `Arc` key per insert.
pub struct CombinedTable(CombinedFst);

impl CombinedTable {
    /// A table of `size` slots under the Fig. 7 policy with THRESHOLD
    /// `threshold_secs`.
    pub fn new(size: usize, threshold_secs: u64, alloc: SflAllocator) -> Self {
        CombinedTable(Fst::new(size, FiveTuplePolicy::new(threshold_secs), alloc))
    }

    /// [`insert_key`] a flow whose key is moved out of its `Arc` (cloned
    /// when someone else still holds it), and lend the key back.
    pub fn insert(
        &mut self,
        tuple: FiveTuple,
        sfl: u64,
        key: Arc<SealedFlowKey>,
        now_secs: u64,
    ) -> &SealedFlowKey {
        insert_key(&mut self.0, tuple, sfl, Arc::unwrap_or_clone(key), now_secs)
    }
}

impl Deref for CombinedTable {
    type Target = CombinedFst;
    fn deref(&self) -> &CombinedFst {
        &self.0
    }
}

impl DerefMut for CombinedTable {
    fn deref_mut(&mut self) -> &mut CombinedFst {
        &mut self.0
    }
}

/// One secure host built from its parts, as
/// [`World::secure_host`](crate::World::secure_host) builds it but on a
/// link of `mtu`: the host (hooks installed) and a hooks handle.
#[allow(clippy::too_many_arguments)]
pub fn build_secure_host(
    addr: Ipv4Addr,
    mtu: usize,
    cfg: IpMappingConfig,
    clock: ManualClock,
    group: &DhGroup,
    ca: &CertificateAuthority,
    directory: &Arc<Directory>,
    seed: u64,
) -> (Host, FbsIpHooks) {
    let hooks = secure_hooks(addr, cfg, clock, group, ca, directory, seed);
    with_hooks(Host::new(addr, mtu), hooks)
}

/// Constant answers about a threaded runtime the hooks no longer have:
/// each batch runs to completion on its caller's thread.
impl FbsIpHooks {
    /// Always `Ok`: nothing is ever buffered inside the hooks.
    pub fn drain(&self) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// Always `(0, 0)`: nothing is ever shed.
    pub fn shed_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Always 0: there is no ring to stall on.
    pub fn ring_stalls(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_core::{EncAlgorithm, FlowKey};
    use fbs_crypto::{CipherSuite, MacAlgorithm};

    fn tuple(sport: u16) -> FiveTuple {
        FiveTuple {
            proto: 17,
            saddr: [10, 0, 0, 1],
            sport,
            daddr: [10, 0, 0, 2],
            dport: 53,
        }
    }

    fn sealed(sfl: u64) -> SealedFlowKey {
        SealedFlowKey::seal_for(
            FlowKey::new(&sfl.to_be_bytes().repeat(2)),
            CipherSuite::AeadChaPoly,
            MacAlgorithm::Poly1305,
            EncAlgorithm::ChaCha20,
        )
    }

    #[test]
    fn an_arc_insert_installs_the_key_insert_key_would() {
        let mut t = CombinedTable::new(64, 600, SflAllocator::new(1));
        let shared = Arc::new(sealed(7));
        let held = Arc::clone(&shared);
        let sfl = t.reserve_sfl();
        t.insert(tuple(9), sfl, shared, 0);
        let (got, key) = t.probe(&tuple(9), 10).expect("resident");
        assert_eq!(got, sfl);
        assert_eq!(key.chacha_key(), held.chacha_key());
        // Alone in its `Arc`, the key moves out of it.
        let sfl = t.reserve_sfl();
        t.insert(tuple(10), sfl, Arc::new(sealed(8)), 0);
        let (_, key) = t.probe(&tuple(10), 10).expect("resident");
        assert_eq!(key.chacha_key(), sealed(8).chacha_key());
    }
}
