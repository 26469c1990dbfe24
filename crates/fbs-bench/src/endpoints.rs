//! Shared endpoint construction for measurement code.

use fbs_core::{FbsConfig, FbsEndpoint, ManualClock, MasterKeyDaemon, PinnedDirectory, Principal};
use fbs_crypto::dh::{DhGroup, PrivateValue};
use std::sync::Arc;

/// A connected sender/receiver pair over the given DH group, sharing a
/// manual clock (returned for freshness control).
pub fn endpoint_pair(cfg: FbsConfig, group: DhGroup) -> (FbsEndpoint, FbsEndpoint, ManualClock) {
    let clock = ManualClock::starting_at(100_000);
    let s_priv = PrivateValue::from_entropy(group.clone(), b"bench-sender-entropy!!");
    let d_priv = PrivateValue::from_entropy(group, b"bench-receiver-entropy");
    let s = Principal::named("bench-src");
    let d = Principal::named("bench-dst");
    let mut dir_s = PinnedDirectory::new();
    dir_s.pin(d.clone(), d_priv.public_value());
    let mut dir_d = PinnedDirectory::new();
    dir_d.pin(s.clone(), s_priv.public_value());
    let tx = FbsEndpoint::new(
        s,
        cfg.clone(),
        Arc::new(clock.clone()),
        0xBE9C4,
        MasterKeyDaemon::new(s_priv, Box::new(dir_s)),
    );
    let rx = FbsEndpoint::new(
        d,
        cfg,
        Arc::new(clock.clone()),
        0xBE9C5,
        MasterKeyDaemon::new(d_priv, Box::new(dir_d)),
    );
    (tx, rx, clock)
}

/// Source and destination principals used by [`endpoint_pair`].
pub fn principals() -> (Principal, Principal) {
    (Principal::named("bench-src"), Principal::named("bench-dst"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_core::Datagram;

    #[test]
    fn pair_interoperates() {
        let (mut tx, mut rx, _) = endpoint_pair(FbsConfig::default(), DhGroup::test_group());
        let (s, d) = principals();
        let pd = tx
            .send(1, Datagram::new(s, d, b"bench".to_vec()), true)
            .unwrap();
        assert_eq!(rx.receive(pd).unwrap().body, b"bench");
    }
}
