//! Shard-aware pagination tokens.
//!
//! A [`ShardedContinuation`] wraps a single-shard
//! [`Continuation`] in an envelope stamped with the shard layout it
//! was minted under (shard count + partition-boundary fingerprint).
//! Resuming validates the stamp first, so a token minted against a
//! 4-shard deployment is rejected with a typed error by a 2-shard one
//! instead of silently resuming in the wrong shard's key space.

use bftree_access::Continuation;
use bftree_storage::codec::{DecodeError, Put, Reader};

use crate::plan::ShardPlan;
use crate::ShardError;

/// Envelope magic: `b"SC"`.
const MAGIC: [u8; 2] = *b"SC";
/// Envelope format version.
const VERSION: u8 = 1;

/// A pagination token that can resume a range scan anywhere in a
/// sharded deployment — including exactly on a shard boundary.
///
/// The inner [`Continuation`] frontier key identifies the shard to
/// resume in ([`ShardPlan::shard_of`]); the envelope's layout stamp
/// guarantees that the identification is made under the same plan the
/// token was minted under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedContinuation {
    shards: u16,
    fingerprint: u64,
    inner: Continuation,
}

impl ShardedContinuation {
    /// Wire size of [`ShardedContinuation::encode`]'s output.
    pub const ENCODED_LEN: usize = 16 + Continuation::ENCODED_LEN;

    /// Stamp `inner` with `plan`'s layout identity.
    pub fn new(plan: &ShardPlan, inner: Continuation) -> Self {
        Self {
            shards: plan.shards() as u16,
            fingerprint: plan.fingerprint(),
            inner,
        }
    }

    /// Shard count of the layout this token was minted under.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The wrapped single-shard continuation.
    pub fn inner(&self) -> &Continuation {
        &self.inner
    }

    /// Check the token against the serving layout. `Ok` means the
    /// inner frontier can be routed with `plan` exactly as it would
    /// have been at mint time.
    pub fn validate(&self, plan: &ShardPlan) -> Result<(), ShardError> {
        if usize::from(self.shards) != plan.shards() {
            return Err(ShardError::LayoutMismatch {
                expected_shards: plan.shards(),
                got_shards: usize::from(self.shards),
            });
        }
        if self.fingerprint != plan.fingerprint() {
            return Err(ShardError::BoundaryMismatch {
                expected: plan.fingerprint(),
                got: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Serialize: magic (2) ‖ version (1) ‖ reserved (1) ‖ shards
    /// u16 (2) ‖ reserved (2) ‖ fingerprint u64 (8) ‖ inner
    /// continuation (40), little-endian through the byte codec.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        let mut w = &mut out[..];
        w.put(&MAGIC);
        w.put(&[VERSION, 0]);
        w.put_u16(self.shards);
        w.put_u16(0);
        w.put_u64(self.fingerprint);
        w.put(&self.inner.encode());
        out
    }

    /// Parse an envelope. Rejects wrong length, bad magic, unknown
    /// version, a zero shard count, and inner tokens that fail
    /// [`Continuation::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        if bytes.len() != Self::ENCODED_LEN {
            return Err(r.err("wrong envelope length"));
        }
        if r.bytes(2)? != MAGIC {
            return Err(r.err("bad envelope magic"));
        }
        if r.u8()? != VERSION {
            return Err(r.err("unknown envelope version"));
        }
        r.u8()?;
        let shards = r.u16()?;
        if shards == 0 {
            return Err(r.err("zero shard count"));
        }
        r.u16()?;
        let fingerprint = r.u64()?;
        let inner = Continuation::decode(r.bytes(Continuation::ENCODED_LEN)?)
            .map_err(|_| r.err("inner continuation invalid"))?;
        Ok(Self {
            shards,
            fingerprint,
            inner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token() -> Continuation {
        Continuation::from_parts(10, 500, 123, 4, 2)
    }

    #[test]
    fn round_trips_through_bytes() {
        let plan = ShardPlan::uniform(1000, 4);
        let sc = ShardedContinuation::new(&plan, token());
        let decoded = ShardedContinuation::decode(&sc.encode()).unwrap();
        assert_eq!(decoded, sc);
        assert!(decoded.validate(&plan).is_ok());
    }

    #[test]
    fn wrong_shard_count_is_a_layout_mismatch() {
        let four = ShardPlan::uniform(1000, 4);
        let two = ShardPlan::uniform(1000, 2);
        let sc = ShardedContinuation::new(&four, token());
        match sc.validate(&two) {
            Err(ShardError::LayoutMismatch {
                expected_shards: 2,
                got_shards: 4,
            }) => {}
            other => panic!("expected LayoutMismatch, got {other:?}"),
        }
    }

    #[test]
    fn same_count_different_boundaries_is_a_boundary_mismatch() {
        let a = ShardPlan::uniform(1000, 4);
        let b = ShardPlan::from_bounds(vec![100, 200, 300]);
        let sc = ShardedContinuation::new(&a, token());
        assert!(matches!(
            sc.validate(&b),
            Err(ShardError::BoundaryMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_envelopes_are_bad_tokens() {
        let plan = ShardPlan::uniform(1000, 4);
        let good = ShardedContinuation::new(&plan, token()).encode();

        let mut short = good.to_vec();
        short.pop();
        assert_eq!(
            ShardedContinuation::decode(&short).map_err(|e| e.what),
            Err("wrong envelope length")
        );

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert_eq!(
            ShardedContinuation::decode(&bad_magic).map_err(|e| e.what),
            Err("bad envelope magic")
        );

        let mut bad_version = good;
        bad_version[2] = 99;
        assert_eq!(
            ShardedContinuation::decode(&bad_version).map_err(|e| e.what),
            Err("unknown envelope version")
        );

        // Corrupt the inner token: lo > hi fails Continuation::decode.
        let mut bad_inner = good;
        bad_inner[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            ShardedContinuation::decode(&bad_inner).map_err(|e| e.what),
            Err("inner continuation invalid")
        );
    }

    /// The 56-byte envelope as the parent of the shared byte codec
    /// encoded it.
    #[test]
    fn the_envelope_is_byte_identical_to_the_recorded_parent() {
        const PINNED: &str = "5343010004000000c651fe1f6f69bcdd0a00000000000000f4010000000000007b0000000000000004000000000000000200000000000000";
        let plan = ShardPlan::from_bounds(vec![100, 200, 300]);
        let sc = ShardedContinuation::new(&plan, token());
        let hex: String = sc.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED);
        assert_eq!(ShardedContinuation::decode(&sc.encode()).unwrap(), sc);
    }
}
