//! A blocking client with explicit pipelining.
//!
//! [`Client::send`] and [`Client::recv`] are split so a caller can
//! queue a whole batch of requests before reading any reply — the
//! closed-loop benchmark's way of amortizing loopback round trips.
//! Responses come back in request order (the server answers one
//! connection's frames sequentially), so pairing them up is the
//! caller's index arithmetic, not a correlation-ID protocol.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{poll_readable, read_frame, write_frame};
use crate::proto::{Request, Response};
use crate::NetError;

/// A connection to a serving front end.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    in_flight: usize,
}

impl Client {
    /// Connect with `TCP_NODELAY` set (replies are latency-bound, not
    /// bandwidth-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
            in_flight: 0,
        })
    }

    /// Queue one request without waiting for its reply. Buffered —
    /// nothing may hit the wire until [`Client::recv`] (or an explicit
    /// [`Client::flush`]) forces it out.
    pub fn send(&mut self, req: &Request) -> Result<(), NetError> {
        write_frame(&mut self.writer, &req.encode())?;
        self.in_flight += 1;
        Ok(())
    }

    /// Push any buffered requests onto the wire.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Requests sent whose replies have not been received yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Receive the reply to the oldest unanswered request, polling the
    /// socket briefly before parking (see `frame::poll_readable`).
    pub fn recv(&mut self) -> Result<Response, NetError> {
        self.writer.flush()?;
        poll_readable(&self.reader)?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            NetError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Response::decode(&payload).map_err(NetError::Decode)
    }

    /// One synchronous round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.send(req)?;
        self.recv()
    }

    /// Probe a key batch; `result[i]` answers `keys[i]`.
    pub fn probe_batch(&mut self, keys: &[u64]) -> Result<Vec<Vec<(u64, u64)>>, NetError> {
        match self.call(&Request::ProbeBatch {
            keys: keys.to_vec(),
        })? {
            Response::ProbeBatch { probes } => Ok(probes),
            Response::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::Protocol {
                why: "response kind does not match PROBE_BATCH",
            }),
        }
    }

    /// Fetch one page of `[lo, hi]`, resuming from `token` if given.
    /// Returns the matches plus the next opaque token (`None` = done).
    #[allow(clippy::type_complexity)]
    pub fn range_page(
        &mut self,
        lo: u64,
        hi: u64,
        limit: u64,
        token: Option<&[u8]>,
    ) -> Result<(Vec<(u64, u64)>, Option<Vec<u8>>), NetError> {
        match self.call(&Request::RangePage {
            lo,
            hi,
            limit,
            token: token.map(<[u8]>::to_vec),
        })? {
            Response::RangePage { matches, token } => Ok((matches, token)),
            Response::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::Protocol {
                why: "response kind does not match RANGE_PAGE",
            }),
        }
    }

    /// Append and index a tuple; returns its `(page, slot)`.
    pub fn insert(&mut self, key: u64, attr: u64) -> Result<(u64, u64), NetError> {
        match self.call(&Request::Insert { key, attr })? {
            Response::Insert { page, slot } => Ok((page, slot)),
            Response::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::Protocol {
                why: "response kind does not match INSERT",
            }),
        }
    }

    /// Unindex a key; returns how many matches were removed.
    pub fn delete(&mut self, key: u64) -> Result<u64, NetError> {
        match self.call(&Request::Delete { key })? {
            Response::Delete { removed } => Ok(removed),
            Response::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::Protocol {
                why: "response kind does not match DELETE",
            }),
        }
    }

    /// Shard layout and Prometheus metrics snapshot.
    pub fn stats(&mut self) -> Result<crate::proto::StatsReply, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::Protocol {
                why: "response kind does not match STATS",
            }),
        }
    }
}
