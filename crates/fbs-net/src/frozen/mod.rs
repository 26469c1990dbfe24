//! What only the end-to-end benchmark under `benchmark/` reads, kept at
//! the paths it imports while it stays frozen. ROADMAP item 1(a) moves
//! it onto the system's own calls and deletes this module whole; no
//! other module of the crate calls into it.
//!
//! | name | re-exported at | read by `benchmark/src/` |
//! |---|---|---|
//! | [`Packet::decode_pooled`] | (an associated function) | `replay.rs:266`, `:275` |
//!
//! The stack never decodes a frame into a [`Packet`]: its ingest copies
//! an unfragmented frame's bytes into a pool buffer, and a fragment's
//! into its datagram's reassembly buffer, straight from the frame.

use crate::error::Result;
use crate::ip::{parse_frame, Packet};
use fbs_core::BufferPool;

impl Packet {
    /// Parse a packet like [`Packet::decode`], but draw the payload
    /// buffer from `pool` instead of allocating a fresh one.
    pub fn decode_pooled(buf: &[u8], pool: &mut BufferPool) -> Result<Self> {
        let (header, bytes) = parse_frame(buf)?;
        let mut payload = pool.take();
        payload.extend_from_slice(bytes);
        Ok(Packet { header, payload })
    }
}
