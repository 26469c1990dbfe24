//! What only the end-to-end benchmark under `benchmark/` reads, kept at
//! the paths it imports while it stays frozen. ROADMAP item 1(a) moves
//! it onto the system's own calls and deletes this module whole; no
//! other module of the crate calls into it.
//!
//! | name | re-exported at | read by `benchmark/src/` |
//! |---|---|---|
//! | [`SpscRing`] | `fbs_core::SpscRing` | `replay.rs:12`, `:289`, `:298` |
//! | [`BatchVerifier`] | `fbs_core::BatchVerifier` | `replay.rs:11`, `:325` |
//! | [`FlowKeyId`] | `fbs_core::protocol::FlowKeyId` | `replay.rs:9`, `:188`, `:195`, `:197` |
//! | [`flow_key_hash`] | `fbs_core::protocol::flow_key_hash` | `replay.rs:9`, `:196` |

pub mod batchauth;
pub mod ring;

pub use batchauth::BatchVerifier;
pub use ring::SpscRing;

use crate::principal::Principal;
use crate::protocol::flow_key_hash_parts;

/// A flow-key cache id: (sfl, remote principal, local principal).
pub type FlowKeyId = (u64, Principal, Principal);

/// [`flow_key_hash_parts`] of a whole [`FlowKeyId`].
pub fn flow_key_hash(id: &FlowKeyId) -> u32 {
    flow_key_hash_parts(id.0, id.1.as_bytes(), id.2.as_bytes())
}
