//! The request/response vocabulary and its binary form.
//!
//! Everything is little-endian, mirroring the WAL's record encoding.
//! Requests open with a one-byte opcode; responses open with a
//! one-byte status (0 = OK, else an error code from the typed
//! taxonomy in [`RemoteError`]). Pagination tokens travel as opaque
//! [`bftree_shard::ShardedContinuation`] envelope bytes — the server,
//! not the client, owns their meaning.

use bftree_shard::ShardError;

use crate::NetError;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Batched point probes (scatter-gathered server-side).
    ProbeBatch = 1,
    /// One page of a (possibly resumed) range scan.
    RangePage = 2,
    /// Append a tuple and index it.
    Insert = 3,
    /// Unindex a key.
    Delete = 4,
    /// Shard layout + per-shard metrics snapshot.
    Stats = 5,
}

impl OpCode {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => OpCode::ProbeBatch,
            2 => OpCode::RangePage,
            3 => OpCode::Insert,
            4 => OpCode::Delete,
            5 => OpCode::Stats,
            _ => return None,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Probe every key; the reply preserves input order.
    ProbeBatch {
        /// Keys to probe.
        keys: Vec<u64>,
    },
    /// One page (≤ `limit` matches) of the range `[lo, hi]`, resumed
    /// from `token` when present (then `lo`/`hi` are ignored — the
    /// token carries the range).
    RangePage {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
        /// Max matches in this page.
        limit: u64,
        /// Encoded [`bftree_shard::ShardedContinuation`] from the
        /// previous page.
        token: Option<Vec<u8>>,
    },
    /// Append a tuple with `key` on the indexed attribute and `attr`
    /// on the other, then index it.
    Insert {
        /// Indexed-attribute value.
        key: u64,
        /// The other conventional attribute.
        attr: u64,
    },
    /// Unindex every match of `key`.
    Delete {
        /// Key to remove.
        key: u64,
    },
    /// Layout + metrics snapshot.
    Stats,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Per-key match lists, in request order.
    ProbeBatch {
        /// `matches[i]` answers `keys[i]` as `(page, slot)` pairs.
        probes: Vec<Vec<(u64, u64)>>,
    },
    /// One page of a range scan.
    RangePage {
        /// Matches as `(page, slot)` pairs.
        matches: Vec<(u64, u64)>,
        /// Token for the remainder (`None` = scan complete).
        token: Option<Vec<u8>>,
    },
    /// Where the inserted tuple landed.
    Insert {
        /// Heap page of the new tuple.
        page: u64,
        /// Slot within the page.
        slot: u64,
    },
    /// How many matches were unindexed.
    Delete {
        /// Matches removed.
        removed: u64,
    },
    /// Layout and metrics.
    Stats(StatsReply),
    /// The request failed server-side.
    Error(RemoteError),
}

/// The `STATS` reply: enough for a client to reconstruct the routing
/// plan, plus a Prometheus text snapshot of the serving metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Number of shards.
    pub shards: u16,
    /// Partition split points (first key of each shard after the
    /// zeroth).
    pub bounds: Vec<u64>,
    /// Entries indexed fleet-wide.
    pub entries: u64,
    /// Prometheus text-format metrics snapshot.
    pub prometheus: String,
}

/// Server-side failures, mapped onto the repo's typed error taxonomy
/// (`ProbeError` / `ShardError`) so a client can react structurally
/// — retry with a fresh scan on `LayoutMismatch`, reject user input
/// on `InvertedRange` — instead of parsing message strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// `ProbeError::InvertedRange`.
    InvertedRange {
        /// Requested lower bound.
        lo: u64,
        /// Requested upper bound.
        hi: u64,
    },
    /// `ProbeError::Unsupported`.
    Unsupported {
        /// Which operation.
        what: String,
    },
    /// `ShardError::LayoutMismatch`: token minted under a different
    /// shard count.
    LayoutMismatch {
        /// Shards in the serving layout.
        expected_shards: u64,
        /// Shards the token was minted under.
        got_shards: u64,
    },
    /// `ShardError::BoundaryMismatch`: same count, different split
    /// points.
    BoundaryMismatch,
    /// `ShardError::BadToken`: malformed token bytes.
    BadToken {
        /// What was malformed.
        why: String,
    },
    /// Anything else (`AttrOutOfBounds`, heap append failure, …).
    Internal {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::InvertedRange { lo, hi } => {
                write!(f, "server rejected inverted range [{lo}, {hi}]")
            }
            RemoteError::Unsupported { what } => write!(f, "server cannot {what}"),
            RemoteError::LayoutMismatch {
                expected_shards,
                got_shards,
            } => write!(
                f,
                "token minted under {got_shards} shards, server has {expected_shards}"
            ),
            RemoteError::BoundaryMismatch => {
                write!(f, "token minted under different shard boundaries")
            }
            RemoteError::BadToken { why } => write!(f, "server rejected token: {why}"),
            RemoteError::Internal { detail } => write!(f, "server error: {detail}"),
        }
    }
}

impl From<ShardError> for RemoteError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::LayoutMismatch {
                expected_shards,
                got_shards,
            } => RemoteError::LayoutMismatch {
                expected_shards: expected_shards as u64,
                got_shards: got_shards as u64,
            },
            ShardError::BoundaryMismatch { .. } => RemoteError::BoundaryMismatch,
            ShardError::BadToken { why } => RemoteError::BadToken { why: why.into() },
            ShardError::Probe(p) => p.into(),
            _ => RemoteError::Internal {
                detail: e.to_string(),
            },
        }
    }
}

impl From<bftree_access::ProbeError> for RemoteError {
    fn from(e: bftree_access::ProbeError) -> Self {
        use bftree_access::ProbeError;
        match e {
            ProbeError::InvertedRange { lo, hi } => RemoteError::InvertedRange { lo, hi },
            ProbeError::Unsupported { what } => RemoteError::Unsupported { what: what.into() },
            other => RemoteError::Internal {
                detail: other.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------- codec

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or(NetError::Protocol {
            why: "message truncated",
        })?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), NetError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Protocol {
                why: "trailing bytes after message",
            })
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn take_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], NetError> {
    let len = r.u32()? as usize;
    r.take(len)
}

fn put_locs(buf: &mut Vec<u8>, locs: &[(u64, u64)]) {
    put_u32(buf, locs.len() as u32);
    for &(page, slot) in locs {
        put_u64(buf, page);
        put_u64(buf, slot);
    }
}

fn take_locs(r: &mut Reader<'_>) -> Result<Vec<(u64, u64)>, NetError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push((r.u64()?, r.u64()?));
    }
    Ok(out)
}

impl Request {
    /// The request's opcode.
    pub fn opcode(&self) -> OpCode {
        match self {
            Request::ProbeBatch { .. } => OpCode::ProbeBatch,
            Request::RangePage { .. } => OpCode::RangePage,
            Request::Insert { .. } => OpCode::Insert,
            Request::Delete { .. } => OpCode::Delete,
            Request::Stats => OpCode::Stats,
        }
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![self.opcode() as u8];
        match self {
            Request::ProbeBatch { keys } => {
                put_u32(&mut buf, keys.len() as u32);
                for &k in keys {
                    put_u64(&mut buf, k);
                }
            }
            Request::RangePage {
                lo,
                hi,
                limit,
                token,
            } => {
                buf.push(token.is_some() as u8);
                put_u64(&mut buf, *lo);
                put_u64(&mut buf, *hi);
                put_u64(&mut buf, *limit);
                if let Some(t) = token {
                    put_bytes(&mut buf, t);
                }
            }
            Request::Insert { key, attr } => {
                put_u64(&mut buf, *key);
                put_u64(&mut buf, *attr);
            }
            Request::Delete { key } => put_u64(&mut buf, *key),
            Request::Stats => {}
        }
        buf
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(payload);
        let op = OpCode::from_u8(r.u8()?).ok_or(NetError::Protocol {
            why: "unknown opcode",
        })?;
        let req = match op {
            OpCode::ProbeBatch => {
                let n = r.u32()? as usize;
                let mut keys = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    keys.push(r.u64()?);
                }
                Request::ProbeBatch { keys }
            }
            OpCode::RangePage => {
                let has_token = r.u8()? != 0;
                let (lo, hi, limit) = (r.u64()?, r.u64()?, r.u64()?);
                let token = if has_token {
                    Some(take_bytes(&mut r)?.to_vec())
                } else {
                    None
                };
                Request::RangePage {
                    lo,
                    hi,
                    limit,
                    token,
                }
            }
            OpCode::Insert => Request::Insert {
                key: r.u64()?,
                attr: r.u64()?,
            },
            OpCode::Delete => Request::Delete { key: r.u64()? },
            OpCode::Stats => Request::Stats,
        };
        r.finish()?;
        Ok(req)
    }
}

/// Response status codes (first payload byte).
mod status {
    pub const OK: u8 = 0;
    pub const INVERTED_RANGE: u8 = 1;
    pub const UNSUPPORTED: u8 = 2;
    pub const LAYOUT_MISMATCH: u8 = 3;
    pub const BOUNDARY_MISMATCH: u8 = 4;
    pub const BAD_TOKEN: u8 = 5;
    pub const INTERNAL: u8 = 6;
}

impl Response {
    /// Serialize to a frame payload. The OK-path opcode is re-stated
    /// after the status byte so a pipelining client can detect
    /// response/request misalignment.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::ProbeBatch { probes } => {
                buf.push(status::OK);
                buf.push(OpCode::ProbeBatch as u8);
                put_u32(&mut buf, probes.len() as u32);
                for locs in probes {
                    put_locs(&mut buf, locs);
                }
            }
            Response::RangePage { matches, token } => {
                buf.push(status::OK);
                buf.push(OpCode::RangePage as u8);
                put_locs(&mut buf, matches);
                buf.push(token.is_some() as u8);
                if let Some(t) = token {
                    put_bytes(&mut buf, t);
                }
            }
            Response::Insert { page, slot } => {
                buf.push(status::OK);
                buf.push(OpCode::Insert as u8);
                put_u64(&mut buf, *page);
                put_u64(&mut buf, *slot);
            }
            Response::Delete { removed } => {
                buf.push(status::OK);
                buf.push(OpCode::Delete as u8);
                put_u64(&mut buf, *removed);
            }
            Response::Stats(s) => {
                buf.push(status::OK);
                buf.push(OpCode::Stats as u8);
                put_u16(&mut buf, s.shards);
                put_u16(&mut buf, s.bounds.len() as u16);
                for &b in &s.bounds {
                    put_u64(&mut buf, b);
                }
                put_u64(&mut buf, s.entries);
                put_bytes(&mut buf, s.prometheus.as_bytes());
            }
            Response::Error(e) => match e {
                RemoteError::InvertedRange { lo, hi } => {
                    buf.push(status::INVERTED_RANGE);
                    put_u64(&mut buf, *lo);
                    put_u64(&mut buf, *hi);
                }
                RemoteError::Unsupported { what } => {
                    buf.push(status::UNSUPPORTED);
                    put_bytes(&mut buf, what.as_bytes());
                }
                RemoteError::LayoutMismatch {
                    expected_shards,
                    got_shards,
                } => {
                    buf.push(status::LAYOUT_MISMATCH);
                    put_u64(&mut buf, *expected_shards);
                    put_u64(&mut buf, *got_shards);
                }
                RemoteError::BoundaryMismatch => buf.push(status::BOUNDARY_MISMATCH),
                RemoteError::BadToken { why } => {
                    buf.push(status::BAD_TOKEN);
                    put_bytes(&mut buf, why.as_bytes());
                }
                RemoteError::Internal { detail } => {
                    buf.push(status::INTERNAL);
                    put_bytes(&mut buf, detail.as_bytes());
                }
            },
        }
        buf
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(payload);
        let code = r.u8()?;
        let resp =
            match code {
                status::OK => {
                    let op = OpCode::from_u8(r.u8()?).ok_or(NetError::Protocol {
                        why: "unknown response opcode",
                    })?;
                    match op {
                        OpCode::ProbeBatch => {
                            let n = r.u32()? as usize;
                            let mut probes = Vec::with_capacity(n.min(1 << 16));
                            for _ in 0..n {
                                probes.push(take_locs(&mut r)?);
                            }
                            Response::ProbeBatch { probes }
                        }
                        OpCode::RangePage => {
                            let matches = take_locs(&mut r)?;
                            let token = if r.u8()? != 0 {
                                Some(take_bytes(&mut r)?.to_vec())
                            } else {
                                None
                            };
                            Response::RangePage { matches, token }
                        }
                        OpCode::Insert => Response::Insert {
                            page: r.u64()?,
                            slot: r.u64()?,
                        },
                        OpCode::Delete => Response::Delete { removed: r.u64()? },
                        OpCode::Stats => {
                            let shards = r.u16()?;
                            let n_bounds = r.u16()? as usize;
                            let mut bounds = Vec::with_capacity(n_bounds);
                            for _ in 0..n_bounds {
                                bounds.push(r.u64()?);
                            }
                            let entries = r.u64()?;
                            let prometheus = String::from_utf8(take_bytes(&mut r)?.to_vec())
                                .map_err(|_| NetError::Protocol {
                                    why: "stats snapshot is not UTF-8",
                                })?;
                            Response::Stats(StatsReply {
                                shards,
                                bounds,
                                entries,
                                prometheus,
                            })
                        }
                    }
                }
                status::INVERTED_RANGE => Response::Error(RemoteError::InvertedRange {
                    lo: r.u64()?,
                    hi: r.u64()?,
                }),
                status::UNSUPPORTED => Response::Error(RemoteError::Unsupported {
                    what: String::from_utf8_lossy(take_bytes(&mut r)?).into_owned(),
                }),
                status::LAYOUT_MISMATCH => Response::Error(RemoteError::LayoutMismatch {
                    expected_shards: r.u64()?,
                    got_shards: r.u64()?,
                }),
                status::BOUNDARY_MISMATCH => Response::Error(RemoteError::BoundaryMismatch),
                status::BAD_TOKEN => Response::Error(RemoteError::BadToken {
                    why: String::from_utf8_lossy(take_bytes(&mut r)?).into_owned(),
                }),
                status::INTERNAL => Response::Error(RemoteError::Internal {
                    detail: String::from_utf8_lossy(take_bytes(&mut r)?).into_owned(),
                }),
                _ => {
                    return Err(NetError::Protocol {
                        why: "unknown status code",
                    })
                }
            };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::ProbeBatch {
                keys: vec![1, 99, u64::MAX],
            },
            Request::RangePage {
                lo: 5,
                hi: 500,
                limit: 64,
                token: None,
            },
            Request::RangePage {
                lo: 0,
                hi: 0,
                limit: 1,
                token: Some(vec![0xAB; 56]),
            },
            Request::Insert { key: 7, attr: 70 },
            Request::Delete { key: 9 },
            Request::Stats,
        ];
        for req in reqs {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::ProbeBatch {
                probes: vec![vec![(1, 2), (3, 4)], vec![], vec![(9, 0)]],
            },
            Response::RangePage {
                matches: vec![(10, 1)],
                token: Some(vec![1; 56]),
            },
            Response::RangePage {
                matches: vec![],
                token: None,
            },
            Response::Insert { page: 77, slot: 3 },
            Response::Delete { removed: 2 },
            Response::Stats(StatsReply {
                shards: 4,
                bounds: vec![100, 200, 300],
                entries: 12345,
                prometheus: "# HELP x\nx 1\n".into(),
            }),
            Response::Error(RemoteError::InvertedRange { lo: 9, hi: 3 }),
            Response::Error(RemoteError::LayoutMismatch {
                expected_shards: 2,
                got_shards: 4,
            }),
            Response::Error(RemoteError::BoundaryMismatch),
            Response::Error(RemoteError::BadToken {
                why: "bad magic".into(),
            }),
            Response::Error(RemoteError::Internal {
                detail: "oh no".into(),
            }),
        ];
        for resp in resps {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_protocol_errors() {
        let good = Request::ProbeBatch { keys: vec![1, 2] }.encode();
        assert!(matches!(
            Request::decode(&good[..good.len() - 3]),
            Err(NetError::Protocol { .. })
        ));
        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            Request::decode(&trailing),
            Err(NetError::Protocol { .. })
        ));
    }
}
