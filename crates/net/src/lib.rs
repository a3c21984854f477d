//! A wire-protocol front end for the sharded serving layer.
//!
//! This crate turns a [`bftree_shard::ShardedIndex`] into a network
//! service using nothing beyond `std::net`: a length-prefixed,
//! CRC-framed binary protocol ([`frame`]), a compact request/response
//! vocabulary ([`proto`]), a blocking acceptor + worker-per-connection
//! server ([`server`]), and a pipelining client ([`client`]).
//!
//! Design choices worth knowing:
//!
//! - **Frames reuse the WAL's CRC-32.** One checksum algorithm guards
//!   everything that crosses a trust boundary, on disk or on the wire.
//! - **Errors stay typed end to end.** Server-side failures map onto
//!   the existing `ProbeError`/`ShardError` taxonomy as
//!   [`proto::RemoteError`] status codes, so a client can distinguish
//!   "your token is from a different shard layout" from "your range is
//!   inverted" without string matching.
//! - **Pagination tokens are opaque.** [`bftree_shard::ShardedContinuation`]
//!   envelope bytes travel verbatim; only the server interprets them,
//!   and it re-validates the shard-layout fingerprint on every resume.
//! - **Replies carry content, not I/O counters.** Page-read counts
//!   depend on cache history and would make otherwise-identical
//!   answers compare unequal; clients that want cost telemetry ask
//!   `STATS` for the Prometheus snapshot instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::Client;
pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use proto::{OpCode, RemoteError, Request, Response, StatsReply};
pub use server::{ServeState, Server};

/// Everything that can go wrong between a client and a server.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed (connect, read, write, mid-frame EOF).
    Io(std::io::Error),
    /// A frame arrived structurally broken (bad length, bad CRC).
    Frame {
        /// What was broken.
        why: &'static str,
    },
    /// A frame's payload did not parse as a protocol message.
    Protocol {
        /// What was malformed.
        why: &'static str,
    },
    /// The server answered with a typed error.
    Remote(proto::RemoteError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame { why } => write!(f, "bad frame: {why}"),
            NetError::Protocol { why } => write!(f, "bad message: {why}"),
            NetError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
