//! The request/response vocabulary and its binary form.
//!
//! Messages are read and written through the storage crate's byte
//! codec ([`bftree_storage::codec`]), little-endian. Requests open with a one-byte opcode; responses open with a
//! one-byte status (0 = OK, else an error code from the typed
//! taxonomy in [`RemoteError`]). Pagination tokens travel as opaque
//! [`bftree_shard::ShardedContinuation`] envelope bytes — the server,
//! not the client, owns their meaning.

use bftree_shard::ShardError;
use bftree_storage::codec::{DecodeError, Put, Reader};

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
    /// Malformed token bytes.
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

fn put_locs(buf: &mut Vec<u8>, locs: &[(u64, u64)]) {
    buf.put_u32(locs.len() as u32);
    for &(page, slot) in locs {
        buf.put_u64(page);
        buf.put_u64(slot);
    }
}

fn take_locs(r: &mut Reader<'_>) -> Result<Vec<(u64, u64)>, DecodeError> {
    let n = r.u32()? as usize;
    r.counted(n, 16, |r| Ok((r.u64()?, r.u64()?)))
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
                buf.put_u32(keys.len() as u32);
                for &k in keys {
                    buf.put_u64(k);
                }
            }
            Request::RangePage {
                lo,
                hi,
                limit,
                token,
            } => {
                buf.push(token.is_some() as u8);
                buf.put_u64(*lo);
                buf.put_u64(*hi);
                buf.put_u64(*limit);
                if let Some(t) = token {
                    buf.put_bytes(t);
                }
            }
            Request::Insert { key, attr } => {
                buf.put_u64(*key);
                buf.put_u64(*attr);
            }
            Request::Delete { key } => buf.put_u64(*key),
            Request::Stats => {}
        }
        buf
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let op = OpCode::from_u8(r.u8()?).ok_or(r.err("unknown opcode"))?;
        let req = match op {
            OpCode::ProbeBatch => {
                let n = r.u32()? as usize;
                Request::ProbeBatch {
                    keys: r.counted(n, 8, Reader::u64)?,
                }
            }
            OpCode::RangePage => {
                let present = r.u8()?;
                Request::RangePage {
                    lo: r.u64()?,
                    hi: r.u64()?,
                    limit: r.u64()?,
                    token: (present != 0)
                        .then(|| r.prefixed().map(<[u8]>::to_vec))
                        .transpose()?,
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
                buf.extend([status::OK, OpCode::ProbeBatch as u8]);
                buf.put_u32(probes.len() as u32);
                for locs in probes {
                    put_locs(&mut buf, locs);
                }
            }
            Response::RangePage { matches, token } => {
                buf.extend([status::OK, OpCode::RangePage as u8]);
                put_locs(&mut buf, matches);
                buf.push(token.is_some() as u8);
                if let Some(t) = token {
                    buf.put_bytes(t);
                }
            }
            Response::Insert { page, slot } => {
                buf.extend([status::OK, OpCode::Insert as u8]);
                buf.put_u64(*page);
                buf.put_u64(*slot);
            }
            Response::Delete { removed } => {
                buf.extend([status::OK, OpCode::Delete as u8]);
                buf.put_u64(*removed);
            }
            Response::Stats(s) => {
                buf.extend([status::OK, OpCode::Stats as u8]);
                buf.put_u16(s.shards);
                buf.put_u16(s.bounds.len() as u16);
                for &b in &s.bounds {
                    buf.put_u64(b);
                }
                buf.put_u64(s.entries);
                buf.put_bytes(s.prometheus.as_bytes());
            }
            Response::Error(e) => match e {
                RemoteError::InvertedRange { lo, hi } => {
                    buf.push(status::INVERTED_RANGE);
                    buf.put_u64(*lo);
                    buf.put_u64(*hi);
                }
                RemoteError::Unsupported { what } => {
                    buf.push(status::UNSUPPORTED);
                    buf.put_bytes(what.as_bytes());
                }
                RemoteError::LayoutMismatch {
                    expected_shards,
                    got_shards,
                } => {
                    buf.push(status::LAYOUT_MISMATCH);
                    buf.put_u64(*expected_shards);
                    buf.put_u64(*got_shards);
                }
                RemoteError::BoundaryMismatch => buf.push(status::BOUNDARY_MISMATCH),
                RemoteError::BadToken { why } => {
                    buf.push(status::BAD_TOKEN);
                    buf.put_bytes(why.as_bytes());
                }
                RemoteError::Internal { detail } => {
                    buf.push(status::INTERNAL);
                    buf.put_bytes(detail.as_bytes());
                }
            },
        }
        buf
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            status::OK => {
                let op = OpCode::from_u8(r.u8()?).ok_or(r.err("unknown response opcode"))?;
                match op {
                    OpCode::ProbeBatch => {
                        let n = r.u32()? as usize;
                        Response::ProbeBatch {
                            probes: r.counted(n, 4, take_locs)?,
                        }
                    }
                    OpCode::RangePage => {
                        let matches = take_locs(&mut r)?;
                        let present = r.u8()?;
                        Response::RangePage {
                            matches,
                            token: (present != 0)
                                .then(|| r.prefixed().map(<[u8]>::to_vec))
                                .transpose()?,
                        }
                    }
                    OpCode::Insert => Response::Insert {
                        page: r.u64()?,
                        slot: r.u64()?,
                    },
                    OpCode::Delete => Response::Delete { removed: r.u64()? },
                    OpCode::Stats => {
                        let shards = r.u16()?;
                        let n_bounds = r.u16()? as usize;
                        let bounds = r.counted(n_bounds, 8, Reader::u64)?;
                        let entries = r.u64()?;
                        let prometheus = String::from_utf8(r.prefixed()?.to_vec())
                            .map_err(|_| r.err("stats snapshot is not UTF-8"))?;
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
                what: String::from_utf8_lossy(r.prefixed()?).into_owned(),
            }),
            status::LAYOUT_MISMATCH => Response::Error(RemoteError::LayoutMismatch {
                expected_shards: r.u64()?,
                got_shards: r.u64()?,
            }),
            status::BOUNDARY_MISMATCH => Response::Error(RemoteError::BoundaryMismatch),
            status::BAD_TOKEN => Response::Error(RemoteError::BadToken {
                why: String::from_utf8_lossy(r.prefixed()?).into_owned(),
            }),
            status::INTERNAL => Response::Error(RemoteError::Internal {
                detail: String::from_utf8_lossy(r.prefixed()?).into_owned(),
            }),
            _ => return Err(r.err("unknown status code")),
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
        let short = Request::decode(&good[..good.len() - 3]).unwrap_err();
        assert_eq!(short.what, "count exceeds the remaining bytes");
        let mut trailing = good;
        trailing.push(0);
        let trailing = Request::decode(&trailing).unwrap_err();
        assert_eq!(trailing.what, "trailing bytes after message");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One request per opcode and one response per opcode and per
    /// error status, as the parent of the shared byte codec encoded
    /// them. Re-record only in a change that means to move the wire
    /// format.
    #[test]
    fn messages_are_byte_identical_to_the_recorded_parent() {
        let requests = [
            (
                Request::ProbeBatch {
                    keys: vec![1, u64::MAX],
                },
                "01020000000100000000000000ffffffffffffffff",
            ),
            (
                Request::RangePage {
                    lo: 5,
                    hi: 500,
                    limit: 64,
                    token: Some(vec![0xAB; 3]),
                },
                "02010500000000000000f401000000000000400000000000000003000000ababab",
            ),
            (
                Request::Insert { key: 7, attr: 70 },
                "0307000000000000004600000000000000",
            ),
            (Request::Delete { key: 9 }, "040900000000000000"),
            (Request::Stats, "05"),
        ];
        for (req, want) in requests {
            assert_eq!(hex(&req.encode()), want, "{req:?}");
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let responses = [
            (
                Response::ProbeBatch {
                    probes: vec![vec![(1, 2)], vec![]],
                },
                "000102000000010000000100000000000000020000000000000000000000",
            ),
            (
                Response::RangePage {
                    matches: vec![(10, 1)],
                    token: Some(vec![1, 2]),
                },
                "0002010000000a00000000000000010000000000000001020000000102",
            ),
            (
                Response::Insert { page: 77, slot: 3 },
                "00034d000000000000000300000000000000",
            ),
            (Response::Delete { removed: 2 }, "00040200000000000000"),
            (
                Response::Stats(StatsReply {
                    shards: 2,
                    bounds: vec![100],
                    entries: 5,
                    prometheus: "x 1\n".into(),
                }),
                "00050200010064000000000000000500000000000000040000007820310a",
            ),
            (
                Response::Error(RemoteError::InvertedRange { lo: 9, hi: 3 }),
                "0109000000000000000300000000000000",
            ),
            (
                Response::Error(RemoteError::Unsupported {
                    what: "scan".into(),
                }),
                "02040000007363616e",
            ),
            (
                Response::Error(RemoteError::LayoutMismatch {
                    expected_shards: 2,
                    got_shards: 4,
                }),
                "0302000000000000000400000000000000",
            ),
            (Response::Error(RemoteError::BoundaryMismatch), "04"),
            (
                Response::Error(RemoteError::BadToken { why: "bad".into() }),
                "0503000000626164",
            ),
            (
                Response::Error(RemoteError::Internal {
                    detail: "oh".into(),
                }),
                "06020000006f68",
            ),
        ];
        for (resp, want) in responses {
            assert_eq!(hex(&resp.encode()), want, "{resp:?}");
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }
}
