//! `serve_wire`: `Server::spawn` on `127.0.0.1:0` in the benchmark's
//! process, a 4-shard `ShardedIndex` under one 256 MB buffer budget
//! (the 64 MB of data **fits**), two closed-loop `Client` connections.
//!
//! Why it exists: `net` (frame, CRC, codec, thread per connection) and
//! `shard` (split, executor hand-off, gather, the global
//! `ServeState.rel` lock on insert) do most of the work while the
//! index below is cache-resident, so a change to the serving path
//! shows here and a `bloom` / `core` change should not.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, RangeCursor, RangeCursorExt};
use bftree_net::server::ServeState;
use bftree_net::{read_frame, write_frame, Client, Request, Response, Server};
use bftree_shard::{ShardPlan, ShardedIndex, ShardedIo};
use bftree_storage::{Backend, DeviceKind, IoContext, PageDevice, PolicyKind, StorageConfig};
use bftree_wal::DurabilityMode;

use super::{Closure, RepOutcome, RunCfg, Timed, Workload, FPP, INSERT, PROBE, RANGE};
use crate::gen::{self, Fingerprint, WireOp, Zipfian, RANGE_SPAN, THETA, WIRE_RANGE_LIMIT};
use crate::ladder::{self, ProbePath};
use crate::oracle::{build_relation, Oracle, FULL_CHECK_EVERY};
use crate::report::{Check, Metrics};
use crate::stats::ratio;
use crate::trace::Recorder;

/// Base keys: 262 144 × 256 B = 64 MB.
const KEYS: u64 = 1 << 18;
const SHARDS: usize = 4;
/// Fleet-wide buffer budget: four times the data, so it fits.
const BUDGET_BYTES: u64 = 256 << 20;
/// Client connections (never more than `nproc`).
const LANES: u64 = 2;
/// Requests per connection per rep, frozen (≈ 1 s at the defining
/// commit).
const REP_REQUESTS: u64 = 5_500;
/// Requests the traced replay issues at most.
const TRACE_REQUESTS: usize = 4_000;
const DURABLE: DurableConfig = DurableConfig {
    flush_batch: 256,
    durability: DurabilityMode::GroupCommit {
        max_records: 16,
        max_bytes: 16 * 1024,
    },
};

pub struct ServeWire {
    seed: u64,
    rep_requests: usize,
    // Connections close before the server that serves them.
    clients: Vec<Client>,
    server: Server,
    zipf: Zipfian,
    /// Read-only view for checking base keys without a lock.
    base: Oracle,
    /// The insert lock: holds the next key in order and every acked
    /// insert's location. A connection inserts while holding it, so
    /// two connections cannot append out of key order.
    full: Mutex<Oracle>,
    fp: Fingerprint,
    build_s: f64,
}

fn range_request(first: u64) -> Request {
    Request::RangePage {
        lo: 2 * first,
        hi: 2 * (first + RANGE_SPAN - 1),
        limit: WIRE_RANGE_LIMIT,
        token: None,
    }
}

/// What answers a request: a connection, or the in-process dispatch.
trait Endpoint {
    fn call(&mut self, req: &Request) -> Result<Response, ()>;
}

impl Endpoint for &mut Client {
    fn call(&mut self, req: &Request) -> Result<Response, ()> {
        Client::call(self, req).map_err(|_| ())
    }
}

impl Endpoint for &ServeState {
    fn call(&mut self, req: &Request) -> Result<Response, ()> {
        Ok(self.handle(req.clone()))
    }
}

impl ServeWire {
    fn state(&self) -> &ServeState {
        self.server.state()
    }

    /// One lane's closed loop over `ops` against `endpoint`.
    fn issue(&self, mut endpoint: impl Endpoint, ops: &[WireOp], start: &Barrier) -> RepOutcome {
        let mut out = RepOutcome::default();
        out.lat_ns[PROBE].reserve(ops.len());
        start.wait();
        let window = Instant::now();
        for (r, op) in ops.iter().enumerate() {
            let full = (r as u64).is_multiple_of(FULL_CHECK_EVERY);
            match op {
                WireOp::ProbeBatch(keys) => {
                    let req = Request::ProbeBatch { keys: keys.clone() };
                    let t = Instant::now();
                    let answer = endpoint.call(&req);
                    out.lat_ns[PROBE].push(t.elapsed().as_nanos() as u64);
                    let n = keys.len() as u64;
                    out.check.attempted += n;
                    match answer {
                        Ok(Response::ProbeBatch { probes }) if probes.len() == keys.len() => {
                            out.ops += n;
                            for (key, matches) in keys.iter().zip(&probes) {
                                let ok = self.base.probe_ok(*key, matches, full);
                                out.check.failed += u64::from(!ok);
                            }
                        }
                        _ => {
                            out.errors += 1;
                            out.check.failed += n;
                        }
                    }
                }
                WireOp::RangePage(first) => {
                    let req = range_request(*first);
                    let pages = self.base.pages_spanned(*first, WIRE_RANGE_LIMIT);
                    let t = Instant::now();
                    let answer = endpoint.call(&req);
                    out.lat_ns[RANGE].push(t.elapsed().as_nanos() as u64);
                    out.check.attempted += pages;
                    match answer {
                        Ok(Response::RangePage { matches, token }) => {
                            out.ops += pages;
                            let ok = token.is_some()
                                && self.base.range_ok(*first, WIRE_RANGE_LIMIT, &matches, full);
                            out.check.failed += if ok { 0 } else { pages };
                        }
                        _ => {
                            out.errors += 1;
                            out.check.failed += pages;
                        }
                    }
                }
                WireOp::Insert => {
                    let mut oracle = self.full.lock().expect("insert lock");
                    let key = oracle.next_key();
                    let req = Request::Insert { key, attr: key };
                    let t = Instant::now();
                    let answer = endpoint.call(&req);
                    out.lat_ns[INSERT].push(t.elapsed().as_nanos() as u64);
                    out.check.attempted += 1;
                    match answer {
                        Ok(Response::Insert { page, slot }) => {
                            out.ops += 1;
                            let ok = oracle.record_append(key, (page, slot as usize));
                            out.check.failed += u64::from(!ok);
                        }
                        _ => {
                            // The server may or may not have appended;
                            // nothing after this can be trusted.
                            out.errors += 1;
                            out.check.failed += 1;
                        }
                    }
                }
            }
        }
        out.wall_ns = window.elapsed().as_nanos() as u64;
        bftree_obs::flush_thread();
        out
    }

    fn lanes(&mut self, rep: u64) -> Vec<Vec<WireOp>> {
        let n = self.base.n_base();
        (0..LANES)
            .map(|lane| {
                gen::wire_ops(
                    self.seed,
                    lane,
                    rep,
                    n,
                    self.rep_requests,
                    &self.zipf,
                    &mut self.fp,
                )
            })
            .collect()
    }

    /// The same two-lane stream through `ServeState::handle` from two
    /// threads: what the serving path costs without the wire.
    fn rep_in_process(&mut self, rep: u64) -> RepOutcome {
        let lanes = self.lanes(rep);
        let start = Barrier::new(lanes.len());
        let this = &*self;
        let mut merged = RepOutcome::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|ops| {
                    let start = &start;
                    s.spawn(move || this.issue(this.state(), ops, start))
                })
                .collect();
            for h in handles {
                merged.merge(h.join().expect("lane panicked"));
            }
        });
        merged
    }
}

impl Workload for ServeWire {
    const NAME: &'static str = "serve_wire";

    fn setup(cfg: &RunCfg) -> Self {
        let rel = build_relation(cfg.base_keys(KEYS, 8_192));
        let base = Oracle::new(&rel);
        let zipf = Zipfian::new(base.n_base(), THETA);
        let sample = gen::wire_key_sample(cfg.seed, 4_096, &zipf);
        let t = Instant::now();
        let mut index = ShardedIndex::new(
            ShardPlan::from_sample(&sample, SHARDS),
            &rel,
            DURABLE,
            |_| {
                Box::new(
                    BfTree::builder()
                        .fpp(FPP)
                        .empty(&rel)
                        .expect("valid config"),
                )
            },
            |_| PageDevice::cold(DeviceKind::Ssd),
        );
        AccessMethod::build(&mut index, &rel).expect("sharded build");
        let build_s = t.elapsed().as_secs_f64();
        let ios = ShardedIo::new(
            &Backend::Sim,
            StorageConfig::SsdSsd,
            BUDGET_BYTES,
            PolicyKind::Lru,
            index.shard_count(),
        )
        .expect("sim devices")
        .into_ios();
        let server = Server::spawn(ServeState::new(index, rel, ios)).expect("loopback server");
        let clients = (0..LANES)
            .map(|_| Client::connect(server.addr()).expect("loopback connection"))
            .collect();
        Self {
            seed: cfg.seed,
            rep_requests: cfg.scaled(REP_REQUESTS, 256) as usize,
            clients,
            server,
            zipf,
            full: Mutex::new(base.clone()),
            base,
            fp: Fingerprint::default(),
            build_s,
        }
    }

    fn rep(&mut self, rep: u64) -> RepOutcome {
        let lanes = self.lanes(rep);
        let start = Barrier::new(lanes.len());
        let mut clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let mut merged = RepOutcome::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&lanes)
                .map(|(client, ops)| {
                    let start = &start;
                    s.spawn(move || this.issue(client, ops, start))
                })
                .collect();
            for h in handles {
                merged.merge(h.join().expect("lane panicked"));
            }
        });
        self.clients = clients;
        merged
    }

    fn sim_ns(&self) -> u64 {
        let state = self.state();
        let devices: u64 = state.ios.iter().map(|io| io.snapshot_total().sim_ns).sum();
        let logs: u64 = (0..state.index.shard_count())
            .map(|s| {
                state
                    .index
                    .with_shard(s, |stack| stack.wal().device().snapshot().sim_ns)
            })
            .sum();
        devices + logs
    }

    fn index_bytes(&self) -> u64 {
        self.state().index.size_bytes()
    }

    fn live_keys(&self) -> u64 {
        self.full.lock().expect("insert lock").live_keys()
    }

    fn fingerprint(&self) -> u64 {
        self.fp.0
    }

    fn verify(&mut self, _layers: &mut Metrics) -> Check {
        let mut check = Check::default();
        let oracle = self.full.lock().expect("insert lock").clone();
        let Ok(mut client) = Client::connect(self.server.addr()) else {
            return Check {
                attempted: 1,
                failed: 1,
            };
        };
        // Every acked insert, the base sample and as many absent keys,
        // over the wire, full location equality.
        let mut keys: Vec<u64> = (0..oracle.appended().len())
            .map(|j| oracle.appended_key(j))
            .collect();
        let sample = oracle.verify_sample(self.seed);
        keys.extend(sample.iter().map(|k| k + 1));
        keys.extend(&sample);
        for batch in keys.chunks(256) {
            check.attempted += batch.len() as u64;
            match client.probe_batch(batch) {
                Ok(probes) if probes.len() == batch.len() => {
                    for (key, matches) in batch.iter().zip(&probes) {
                        check.failed += u64::from(!oracle.probe_ok(*key, matches, true));
                    }
                }
                _ => check.failed += batch.len() as u64,
            }
        }
        // One 256-key batch and one range page: the wire's reply
        // against in-process dispatch, byte for byte.
        let requests = [
            Request::ProbeBatch {
                keys: sample[..sample.len().min(256)].to_vec(),
            },
            range_request(oracle.n_base() / 2),
        ];
        for req in requests {
            check.attempted += 1;
            let direct = self.state().handle(req.clone()).encode();
            let same = client.call(&req).is_ok_and(|wire| wire.encode() == direct);
            check.failed += u64::from(!same);
        }
        check
    }

    fn trace(&mut self, rec: &mut Recorder, layers: &mut Metrics, timed: &Timed) -> Closure {
        // In-process reference for `net.wire_vs_inproc` (same stream,
        // two threads, no sockets).
        if timed.ops_per_s > 0.0 {
            let inproc = self.rep_in_process(u64::MAX - 1);
            layers.set(
                "net.wire_vs_inproc",
                ratio(
                    timed.ops_per_s,
                    ratio(inproc.ops as f64, inproc.wall_ns as f64 / 1e9),
                ),
            );
        }
        layers.set("net.probe_rtt_p50_us", timed.class_p50_us[PROBE]);
        layers.set("net.probe_rtt_p99_us", timed.class_p99_us[PROBE]);
        layers.set("net.range_rtt_p50_us", timed.class_p50_us[RANGE]);
        layers.set("net.range_rtt_p99_us", timed.class_p99_us[RANGE]);
        layers.set("net.insert_rtt_p50_us", timed.class_p50_us[INSERT]);
        layers.set("net.insert_rtt_p99_us", timed.class_p99_us[INSERT]);
        layers.set("net.errors", timed.errors as f64);

        let mut scratch_fp = Fingerprint::default();
        let count = (self.rep_requests / 5).clamp(64, TRACE_REQUESTS);
        let n_base = self.base.n_base();
        let ops = gen::wire_ops(self.seed, 0, 1, n_base, count, &self.zipf, &mut scratch_fp);
        let mut client = Client::connect(self.server.addr()).expect("loopback connection");
        let state = self.server.state().clone();
        let mut oracle = self.full.lock().expect("insert lock");
        // Each rung inserts its own next keys: an insert cannot be
        // replayed, only repeated one key further on.
        let request_of = |op: &WireOp, oracle: &Oracle| match op {
            WireOp::ProbeBatch(keys) => Request::ProbeBatch { keys: keys.clone() },
            WireOp::RangePage(first) => range_request(*first),
            WireOp::Insert => {
                let key = oracle.next_key();
                Request::Insert { key, attr: key }
            }
        };
        let note_insert = |resp: &Response, req: &Request, oracle: &mut Oracle| {
            if let (Response::Insert { page, slot }, Request::Insert { key, .. }) = (resp, req) {
                oracle.record_append(*key, (*page, *slot as usize));
            }
        };

        // Rung A (top): one connection's round trip.
        state.index.reset_shard_clocks();
        let mut pairs: Vec<(Request, Response)> = Vec::with_capacity(ops.len());
        let (mut rtt_ns, mut logical_ops) = (0u64, 0u64);
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            let req = request_of(op, &oracle);
            let (resp, ns) = rec.span("net.rtt", |_| client.call(&req).expect("round trip"));
            rtt_ns += ns;
            note_insert(&resp, &req, &mut oracle);
            logical_ops += match op {
                WireOp::ProbeBatch(keys) => keys.len() as u64,
                WireOp::RangePage(first) => oracle.pages_spanned(*first, WIRE_RANGE_LIMIT),
                WireOp::Insert => 1,
            };
            pairs.push((req, resp));
        }
        let n_req = ops.len() as f64;
        let (makespan, total_sim) = (state.index.makespan_sim_ns(), state.index.total_sim_ns());
        layers.set(
            "shard.imbalance",
            ratio(
                makespan as f64 * state.index.shard_count() as f64,
                total_sim as f64,
            ),
        );
        layers.set(
            "shard.makespan_sim_us_per_op",
            ratio(makespan as f64 / 1e3, logical_ops as f64),
        );
        layers.set("net.rtt_1client_ns_per_req", rtt_ns as f64 / n_req);

        // Rung: codec, on the very requests and replies of rung A.
        let mut codec_ns = 0u64;
        let mut frames: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(pairs.len());
        for (r, (req, resp)) in pairs.iter().enumerate() {
            rec.set_request(r as u64);
            let (bytes, ns) = rec.span("net.codec", |_| {
                let req_bytes = req.encode();
                std::hint::black_box(Request::decode(&req_bytes).expect("own encoding"));
                let resp_bytes = resp.encode();
                std::hint::black_box(Response::decode(&resp_bytes).expect("own encoding"));
                (req_bytes, resp_bytes)
            });
            codec_ns += ns;
            frames.push(bytes);
        }
        // Rung: framing (length prefix + CRC) on an in-memory buffer.
        let (mut frame_ns, mut wire_bytes) = (0u64, 0u64);
        let mut buf: Vec<u8> = Vec::new();
        for (r, (req_bytes, resp_bytes)) in frames.iter().enumerate() {
            rec.set_request(r as u64);
            for payload in [req_bytes, resp_bytes] {
                buf.clear();
                frame_ns += rec
                    .span("net.frame", |_| {
                        write_frame(&mut buf, payload).expect("write to memory");
                        std::hint::black_box(read_frame(&mut &buf[..]).expect("own frame"));
                    })
                    .1;
                wire_bytes += buf.len() as u64;
            }
        }
        layers.set("net.codec_ns_per_req", codec_ns as f64 / n_req);
        layers.set("net.frame_ns_per_req", frame_ns as f64 / n_req);
        layers.set("net.bytes_per_req", wire_bytes as f64 / n_req);

        // Rung B: in-process dispatch of the same requests.
        let mut handle_ns = 0u64;
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            let req = request_of(op, &oracle);
            let for_call = req.clone();
            let (resp, ns) = rec.span("net.handle", |_| state.handle(for_call));
            handle_ns += ns;
            note_insert(&resp, &req, &mut oracle);
        }

        // Rung C: the sharded calls `handle` makes, made directly.
        // Rung D: the per-shard calls those make, made directly.
        let plan = state.index.plan().clone();
        let (mut call_ns, mut shard_ns) = (0u64, 0u64);
        let (mut probe_call_ns, mut probe_shard_ns, mut probe_reqs) = (0u64, 0u64, 0u64);
        let (mut range_call_ns, mut range_shard_ns, mut range_reqs) = (0u64, 0u64, 0u64);
        let (mut insert_ns, mut insert_reqs, mut append_ns) = (0u64, 0u64, 0u64);
        let mut touched = 0u64;
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); plan.shards()];
        for (r, op) in ops.iter().enumerate() {
            rec.set_request(r as u64);
            match op {
                WireOp::ProbeBatch(keys) => {
                    let rel = state.rel.read().expect("relation lock");
                    let ns = rec
                        .span("shard.probe_batch_sharded", |_| {
                            std::hint::black_box(
                                state
                                    .index
                                    .probe_batch_sharded(keys, &rel, &state.ios)
                                    .expect("valid"),
                            )
                        })
                        .1;
                    by_shard.iter_mut().for_each(Vec::clear);
                    for &key in keys {
                        by_shard[plan.shard_of(key)].push(key);
                    }
                    touched += by_shard.iter().filter(|g| !g.is_empty()).count() as u64;
                    let below = rec
                        .span("shard.with_shard", |_| {
                            for (s, group) in by_shard.iter().enumerate() {
                                state.index.with_shard(s, |stack| {
                                    for &key in group {
                                        let _ = std::hint::black_box(
                                            stack.probe(key, &rel, &state.ios[s]).expect("valid"),
                                        );
                                    }
                                });
                            }
                        })
                        .1;
                    call_ns += ns;
                    shard_ns += below;
                    probe_call_ns += ns;
                    probe_shard_ns += below;
                    probe_reqs += 1;
                }
                WireOp::RangePage(first) => {
                    let rel = state.rel.read().expect("relation lock");
                    let (lo, hi) = (2 * first, 2 * (first + RANGE_SPAN - 1));
                    let ns = rec
                        .span("shard.range_page", |_| {
                            std::hint::black_box(
                                state
                                    .index
                                    .range_page(lo, hi, WIRE_RANGE_LIMIT, None, &rel, &state.ios)
                                    .expect("valid"),
                            )
                        })
                        .1;
                    // The owning shard's own cursor, capped the same way
                    // (a page that crosses a shard boundary is cut short
                    // here; with four shards that is rare).
                    let s = plan.shard_of(lo);
                    let below = rec
                        .span("shard.with_shard", |_| {
                            state.index.with_shard(s, |stack| {
                                let cursor = stack
                                    .range_cursor(lo, hi, &rel, &state.ios[s])
                                    .expect("valid");
                                let mut cursor = cursor.limit(WIRE_RANGE_LIMIT);
                                while let Some(page) = cursor.next_page_matches() {
                                    std::hint::black_box(page);
                                    cursor.advance();
                                }
                            });
                        })
                        .1;
                    call_ns += ns;
                    shard_ns += below;
                    range_call_ns += ns;
                    range_shard_ns += below;
                    range_reqs += 1;
                }
                WireOp::Insert => {
                    let key = oracle.next_key();
                    let mut rel = state.rel.write().expect("relation lock");
                    let io = &state.ios[plan.shard_of(key)];
                    let (loc, a_ns) =
                        rec.span("storage.append_tuple", |_| rel.append_tuple(key, key, io));
                    let ns = rec
                        .span("shard.route_insert", |_| {
                            state.index.route_insert(key, loc, &rel).expect("valid")
                        })
                        .1;
                    oracle.record_append(key, loc);
                    append_ns += a_ns;
                    insert_ns += ns;
                    insert_reqs += 1;
                    // An insert has no per-shard rung a shared reference
                    // can reach: all of it stays at the sharded call.
                    call_ns += a_ns + ns;
                    shard_ns += a_ns + ns;
                }
            }
        }
        drop(oracle);
        layers.set(
            "net.dispatch_self_ns_per_req",
            ((handle_ns as f64 - call_ns as f64) / n_req).max(0.0),
        );
        layers.set(
            "net.socket_self_ns_per_req",
            ((rtt_ns as f64 - codec_ns as f64 - frame_ns as f64 - handle_ns as f64) / n_req)
                .max(0.0),
        );
        layers.set(
            "shard.route_self_ns_per_req",
            ratio(
                probe_call_ns as f64 - probe_shard_ns as f64,
                probe_reqs as f64,
            )
            .max(0.0),
        );
        layers.set(
            "shard.range_page_self_ns",
            ratio(
                range_call_ns as f64 - range_shard_ns as f64,
                range_reqs as f64,
            )
            .max(0.0),
        );
        layers.set(
            "shard.insert_route_ns",
            ratio(insert_ns as f64, insert_reqs as f64),
        );
        layers.set(
            "shard.shards_touched_per_batch",
            ratio(touched as f64, probe_reqs as f64),
        );
        layers.set(
            "storage.append_tuple_ns",
            ratio(append_ns as f64, insert_reqs as f64),
        );

        // The probe path beneath the shards, on a BF-Tree over the same
        // relation and a stand-alone cache of the same budget.
        let rel = state.rel.read().expect("relation lock").clone();
        let tree = BfTree::builder()
            .fpp(FPP)
            .build(&rel)
            .expect("valid config");
        let keys: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                WireOp::ProbeBatch(keys) => Some(keys.iter().copied()),
                _ => None,
            })
            .flatten()
            .collect();
        let warm =
            IoContext::with_shared_budget(StorageConfig::SsdSsd, BUDGET_BYTES, PolicyKind::Lru);
        let present = |key: u64| key.is_multiple_of(2);
        let st = ladder::probe_stages(
            rec,
            layers,
            &tree,
            &rel,
            &keys,
            ProbePath::Scalar,
            present,
            &warm.index,
            &warm.data,
        );
        layers.set(
            "storage.charge_warm_ns_per_read",
            ratio(st.charge_ns as f64, st.charges as f64),
        );
        let counted =
            IoContext::with_shared_budget(StorageConfig::SsdSsd, BUDGET_BYTES, PolicyKind::Lru);
        let t = Instant::now();
        let mut false_reads = 0u64;
        for &key in &keys {
            false_reads += tree.probe(key, &rel, &counted).expect("valid").false_reads;
        }
        layers.set(
            "core.probe_scalar_ns_per_key",
            ratio(t.elapsed().as_nanos() as f64, keys.len() as f64),
        );
        ladder::reads_per_probe(
            layers,
            counted.index.snapshot(),
            counted.data.snapshot(),
            false_reads,
            keys.len() as u64,
        );
        let total = counted.snapshot_total();
        layers.set(
            "storage.dev_reads_per_op",
            ratio(total.device_reads() as f64, keys.len() as f64),
        );
        layers.set("storage.cache_hit_rate", total.cache_hit_rate());
        if let Some(pool) = counted.buffer_stats() {
            layers.set("bufferpool.hit_rate", pool.hit_rate());
            layers.set(
                "bufferpool.misses_per_op",
                ratio(pool.misses as f64, keys.len() as f64),
            );
            layers.set(
                "bufferpool.evictions_per_op",
                ratio(pool.evictions as f64, keys.len() as f64),
            );
        }
        layers.set(
            "bloom.filter_probes_per_key",
            ladder::filter_probes_per_key(&tree, &rel, &keys),
        );
        layers.set("core.build_s", self.build_s);
        layers.set("core.index_bytes", state.index.size_bytes() as f64);
        layers.set("core.leaf_fpp_after", ladder::mean_leaf_fpp(&tree));

        let mut closure = Closure {
            top_ns: rtt_ns,
            ..Closure::default()
        };
        closure.part(
            "net (socket + threads)",
            rtt_ns as i64 - codec_ns as i64 - frame_ns as i64 - handle_ns as i64,
        );
        closure.part("net (codec)", codec_ns as i64);
        closure.part("net (frame + crc)", frame_ns as i64);
        closure.part("net (dispatch self)", handle_ns as i64 - call_ns as i64);
        closure.part(
            "shard (route + gather self)",
            call_ns as i64 - shard_ns as i64,
        );
        closure.part("index below the shards", shard_ns as i64);
        closure
    }
}
