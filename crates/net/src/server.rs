//! A blocking server: one acceptor thread, one worker per connection.
//!
//! Deliberately boring concurrency — `std::net` sockets, no async
//! runtime. The connection workers *are* the serving parallelism: a
//! request is decoded, routed through the sharded index and answered
//! on the thread that read it, with no hand-off in between, and
//! concurrent connections meet only on the per-shard locks. A worker
//! thread per connection is plenty for a benchmark fleet of tens of
//! clients, and keeps the request path readable: read frame, decode,
//! dispatch against the shared [`ServeState`], encode, write frame.
//! Between a reply and the next request a worker polls its socket for
//! a few microseconds before it parks (`frame::poll_readable` has the
//! reasoning); the client end does the same while it awaits a reply.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use bftree_access::AccessMethod;
use bftree_obs::{span, MetricsRegistry, SpanKind};
use bftree_shard::{ShardedContinuation, ShardedIndex};
use bftree_storage::{IoContext, Relation};

use crate::frame::{poll_readable, read_frame, write_frame, MAX_FRAME};
use crate::proto::{RemoteError, Request, Response, StatsReply};
use crate::NetError;

/// Everything a request needs: the sharded index, the relation it
/// indexes, and one [`IoContext`] per shard (all slicing one shared
/// buffer-manager budget).
///
/// Reads take the relation's read lock; `INSERT` takes the write lock
/// across both the heap append and the index update, so no probe can
/// observe a tuple that is in the heap but not yet indexed.
pub struct ServeState {
    /// The sharded index being served.
    pub index: ShardedIndex,
    /// The relation, behind a lock because `INSERT` appends to it.
    pub rel: RwLock<Relation>,
    /// One I/O context per shard, indexed by shard number.
    pub ios: Vec<IoContext>,
}

impl ServeState {
    /// Bundle an index, its relation, and the per-shard I/O fleet.
    ///
    /// # Panics
    /// If `ios.len()` does not match the index's shard count.
    pub fn new(index: ShardedIndex, rel: Relation, ios: Vec<IoContext>) -> Self {
        assert_eq!(ios.len(), index.shard_count(), "one IoContext per shard");
        Self {
            index,
            rel: RwLock::new(rel),
            ios,
        }
    }

    /// Answer one decoded request. Exposed so tests and benchmarks can
    /// drive the exact server dispatch path in-process, without a
    /// socket in the way.
    pub fn handle(&self, req: Request) -> Response {
        let mut rpc = span(SpanKind::Rpc);
        rpc.set_detail(req.opcode() as u64);
        match req {
            Request::ProbeBatch { keys } => {
                let rel = self.rel.read().unwrap_or_else(|e| e.into_inner());
                match self.index.probe_batch_sharded(&keys, &rel, &self.ios) {
                    Ok(probes) => Response::ProbeBatch {
                        probes: probes
                            .into_iter()
                            .map(|p| {
                                p.matches
                                    .into_iter()
                                    .map(|(pid, slot)| (pid, slot as u64))
                                    .collect()
                            })
                            .collect(),
                    },
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::RangePage {
                lo,
                hi,
                limit,
                token,
            } => {
                let token = match token {
                    Some(bytes) => match ShardedContinuation::decode(&bytes) {
                        Ok(t) => Some(t),
                        Err(e) => return Response::Error(e.into()),
                    },
                    None => None,
                };
                let rel = self.rel.read().unwrap_or_else(|e| e.into_inner());
                match self
                    .index
                    .range_page(lo, hi, limit, token.as_ref(), &rel, &self.ios)
                {
                    Ok((matches, next, _io)) => Response::RangePage {
                        matches: matches
                            .into_iter()
                            .map(|(pid, slot)| (pid, slot as u64))
                            .collect(),
                        token: next.map(|t| t.encode().to_vec()),
                    },
                    Err(e) => Response::Error(e.into()),
                }
            }
            Request::Insert { key, attr } => {
                // Write lock across append + index update: the tuple
                // becomes visible to probes only once it is indexed.
                let mut rel = self.rel.write().unwrap_or_else(|e| e.into_inner());
                let io = &self.ios[self.index.plan().shard_of(key)];
                let loc = rel.append_tuple(key, attr, io);
                match self.index.route_insert(key, loc, &rel) {
                    Ok(()) => Response::Insert {
                        page: loc.0,
                        slot: loc.1 as u64,
                    },
                    Err(e) => Response::Error(RemoteError::from(e)),
                }
            }
            Request::Delete { key } => {
                let rel = self.rel.read().unwrap_or_else(|e| e.into_inner());
                match self.index.route_delete(key, &rel) {
                    Ok(removed) => Response::Delete { removed },
                    Err(e) => Response::Error(RemoteError::from(e)),
                }
            }
            Request::Stats => {
                let mut reg = MetricsRegistry::new();
                reg.collect_from(&self.index);
                Response::Stats(StatsReply {
                    shards: self.index.shard_count() as u16,
                    bounds: self.index.plan().bounds().to_vec(),
                    entries: self.index.stats().entries,
                    prometheus: reg.render_prometheus(),
                })
            }
        }
    }
}

/// The live connections: a handle to each socket (so shutdown can
/// sever it) and its worker's join handle, keyed by accept order. A
/// worker removes its own entry when its connection ends, closing the
/// socket and detaching itself.
type Conns = Arc<Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>>;

/// A running server: acceptor thread plus one worker per connection,
/// bound to a kernel-assigned loopback port.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Conns,
}

impl Server {
    /// Bind `127.0.0.1:0` (kernel picks a free port — safe under
    /// parallel CI jobs) and start accepting. The chosen address is
    /// [`Server::addr`].
    pub fn spawn(state: ServeState) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::default();

        let acceptor = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("bftree-acceptor".into())
                .spawn(move || {
                    for (id, stream) in (0u64..).zip(listener.incoming()) {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let Ok(clone) = stream.try_clone() else {
                            continue;
                        };
                        let state = Arc::clone(&state);
                        let worker_conns = Arc::clone(&conns);
                        // Held across the spawn, so the worker finds
                        // its entry however fast its connection ends.
                        let mut tracked = conns.lock().unwrap_or_else(|e| e.into_inner());
                        let handle = std::thread::Builder::new()
                            .name("bftree-conn".into())
                            .spawn(move || {
                                let _ = serve_connection(&state, stream);
                                worker_conns
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .remove(&id);
                            })
                            .expect("spawn connection worker");
                        tracked.insert(id, (clone, handle));
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Self {
            addr,
            state,
            shutdown,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state — the benchmark's oracle hatch: drive
    /// [`ServeState::handle`] directly and compare against what came
    /// over the wire.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// How many accepted connections are still being served.
    pub fn connections(&self) -> usize {
        self.conns.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Stop accepting, sever every live connection, and join all
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Severing the connections unblocks workers mid-read. The
        // lock is released before joining: a finishing worker takes it
        // to drop its (already drained) entry.
        let live: Vec<_> = self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
            .collect();
        for (_, (conn, _)) in &live {
            let _ = conn.shutdown(Shutdown::Both);
        }
        for (_, (_, worker)) in live {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Encode `resp` as a frame payload. A reply too large to frame is
/// swapped for a typed error the client can read: `write_frame` would
/// refuse it, and failing the write severs the connection after the
/// server has already done all the work.
fn encode_reply(resp: &Response) -> Vec<u8> {
    let payload = resp.encode();
    if payload.len() <= MAX_FRAME {
        return payload;
    }
    Response::Error(RemoteError::Internal {
        detail: format!(
            "reply exceeds MAX_FRAME ({} > {MAX_FRAME} bytes); ask for less per request",
            payload.len()
        ),
    })
    .encode()
}

/// One connection's request loop: frames in, frames out, until the
/// peer hangs up or a frame fails to parse (on which the connection is
/// dropped — a framing error means we have lost byte sync and cannot
/// safely answer).
fn serve_connection(state: &ServeState, stream: TcpStream) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        poll_readable(&reader)?;
        let Some(payload) = read_frame(&mut reader)? else {
            break;
        };
        let resp = match Request::decode(&payload) {
            Ok(req) => state.handle(req),
            Err(NetError::Protocol { why }) => Response::Error(RemoteError::Internal {
                detail: format!("unparseable request: {why}"),
            }),
            Err(e) => return Err(e),
        };
        write_frame(&mut writer, &encode_reply(&resp))?;
        // Flush only when no further request is already buffered, so a
        // pipelined burst gets one coalesced reply write.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unframeable_reply_becomes_a_typed_error() {
        let small = Response::RangePage {
            matches: vec![(7, 3)],
            token: None,
        };
        assert_eq!(encode_reply(&small), small.encode());

        let huge = Response::RangePage {
            matches: vec![(0, 0); MAX_FRAME / 16 + 1],
            token: None,
        };
        assert!(huge.encode().len() > MAX_FRAME);
        let payload = encode_reply(&huge);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("the substitute reply frames");
        match Response::decode(&payload).expect("and decodes") {
            Response::Error(RemoteError::Internal { detail }) => {
                assert!(detail.contains("reply exceeds MAX_FRAME"), "{detail}")
            }
            other => panic!("expected an Internal error, got {other:?}"),
        }
    }
}
