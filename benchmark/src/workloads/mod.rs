//! The four workloads and the run shape they share:
//!
//! [`SESSIONS`] sessions — each a fresh set-up (timed; their median is
//! `setup_s`), one untimed warm-up rep, then timed reps of a fixed op
//! count until the session's share of `--seconds` is measured — →
//! untimed verification → (traced runs only, which have one session)
//! one armed rep and the per-layer ladder.
//!
//! A rep's size is a count frozen per workload, not a duration, so
//! rep `r` issues the same requests on every commit. How many reps fit
//! a session does vary with the host, so the two deterministic metrics
//! (`sim_us_per_op`, `index_bytes_per_key`), `peak_rss_mb` and the
//! printed stream fingerprint cover each session's **first** timed
//! rep, which every run has.

pub mod ingest_file;
pub mod probe_cold;
pub mod scan_warm;
pub mod serve_wire;

use std::time::Instant;

use crate::report::{Check, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio};
use crate::trace::Recorder;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 4] = ["probe_cold", "scan_warm", "ingest_file", "serve_wire"];

/// Target false-positive probability of every BF-Tree in the benchmark.
pub const FPP: f64 = 1e-4;
/// Sessions (set-up, warm-up, timed reps) per end-to-end run;
/// `setup_s` is the median of their set-ups.
pub const SESSIONS: usize = 5;
/// Rep indices between one session's first rep and the next's.
const REP_STRIDE: u64 = 1 << 16;
/// Rep index of the traced run's armed rep.
const ARMED_REP: u64 = u64::MAX - 2;
/// Measured seconds a traced run spends on timed reps (it needs them
/// only for the per-class latencies and the drift guard).
const TRACED_TIMED_SECONDS: f64 = 4.0;
/// `--smoke` divides key counts and rep sizes by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Request classes, the index into [`RepOutcome::lat_ns`].
pub const PROBE: usize = 0;
pub const RANGE: usize = 1;
pub const INSERT: usize = 2;
pub const DELETE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: short timed reps, then the per-layer metrics.
    Traced,
    /// `--trace-only`: just the ladder (per-class latencies read 0).
    TraceOnly,
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub mode: Mode,
}

impl RunCfg {
    /// A full-size count, or its `--smoke` share (at least `floor`).
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(floor)
        } else {
            full
        }
    }

    /// A workload's base-key count: `full` (or its `--smoke` share)
    /// less a seed-derived jitter of under 1/256 of it. Every stream
    /// comes from the seed, the data size included, so that no number
    /// the benchmark reports is the same for every seed.
    pub fn base_keys(&self, full: u64, floor: u64) -> u64 {
        let n = self.scaled(full, floor);
        n - crate::gen::mix64(self.seed ^ 0x4B45_5953) % (n / 256)
    }
}

/// What one rep did.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Logical operations completed (one probed key, one returned
    /// range page, one insert, one delete).
    pub ops: u64,
    /// The rep's wall window: first request sent to last reply checked.
    pub wall_ns: u64,
    /// Raw request latencies by class, nanoseconds.
    pub lat_ns: [Vec<u64>; 4],
    pub check: Check,
    /// Typed errors (a subset of `check.failed`).
    pub errors: u64,
}

impl RepOutcome {
    /// Fold another lane's outcome in; the wall window is the longer.
    pub fn merge(&mut self, other: RepOutcome) {
        self.ops += other.ops;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.check.add(other.check);
        self.errors += other.errors;
    }
}

/// Per-rep figures kept after the raw latencies are dropped.
#[derive(Debug, Clone, Copy, Default)]
struct RepSummary {
    ops: u64,
    requests: u64,
    wall_s: f64,
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    class_p50_us: [f64; 4],
    class_p99_us: [f64; 4],
}

impl RepSummary {
    fn of(mut rep: RepOutcome) -> Self {
        let mut class_p50_us = [0.0; 4];
        let mut class_p99_us = [0.0; 4];
        let mut all: Vec<u64> = Vec::with_capacity(rep.lat_ns.iter().map(Vec::len).sum());
        for (c, lat) in rep.lat_ns.iter_mut().enumerate() {
            lat.sort_unstable();
            class_p50_us[c] = percentile(lat, 0.50) as f64 / 1e3;
            class_p99_us[c] = percentile(lat, 0.99) as f64 / 1e3;
            all.extend_from_slice(lat);
        }
        all.sort_unstable();
        let wall_s = rep.wall_ns as f64 / 1e9;
        Self {
            ops: rep.ops,
            requests: all.len() as u64,
            wall_s,
            ops_per_s: ratio(rep.ops as f64, wall_s),
            p50_us: percentile(&all, 0.50) as f64 / 1e3,
            p99_us: percentile(&all, 0.99) as f64 / 1e3,
            class_p50_us,
            class_p99_us,
        }
    }
}

/// What the timed reps measured, for the traced run's use.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Median `ops_per_s` over the reps (0 under `--trace-only`).
    pub ops_per_s: f64,
    /// Median per-class percentiles over the reps, microseconds.
    pub class_p50_us: [f64; 4],
    pub class_p99_us: [f64; 4],
    /// Typed errors over all timed reps.
    pub errors: u64,
}

/// One workload: owns its data, index, devices and clients.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Relation generation, index build, device / file / server
    /// bring-up and page materialisation — everything before warm-up.
    fn setup(cfg: &RunCfg) -> Self;

    /// Generate rep `rep`'s requests (untimed), then issue them closed
    /// loop and check every reply. Rep 0 is the warm-up.
    fn rep(&mut self, rep: u64) -> RepOutcome;

    /// Simulated nanoseconds charged so far to every device the
    /// workload owns (index + data + log, summed over shards).
    fn sim_ns(&self) -> u64;

    /// The index's `size_bytes()` (summed over shards).
    fn index_bytes(&self) -> u64;

    /// Keys currently live.
    fn live_keys(&self) -> u64;

    /// Fingerprint of every request generated so far. The run folds
    /// each session's value as of its first timed rep, so what it
    /// prints does not depend on how many reps the host fits in.
    fn fingerprint(&self) -> u64;

    /// The untimed verification pass. May set per-layer metrics it
    /// measures on the way (recovery figures).
    fn verify(&mut self, layers: &mut Metrics) -> Check;

    /// The per-layer ladder: replay the first tenth of a rep single
    /// threaded with `rec` on, set the per-layer metrics, and return
    /// the closure of the ladder.
    fn trace(&mut self, rec: &mut Recorder, layers: &mut Metrics, timed: &Timed) -> Closure;
}

/// Ladder closure of one workload: the top rung's time and the self
/// time attributed to each layer beneath it.
#[derive(Debug, Default)]
pub struct Closure {
    pub top_ns: u64,
    /// `(layer, self nanoseconds)`; negative differences between rungs
    /// are kept as measured and clamped only when summing.
    pub parts: Vec<(&'static str, i64)>,
}

impl Closure {
    pub fn part(&mut self, layer: &'static str, self_ns: i64) {
        self.parts.push((layer, self_ns));
    }

    /// `1 − Σ self times / top-rung time`. Negative when the rungs,
    /// run one after another, take longer than the real request — the
    /// batched probe pipeline overlaps its stages, the ladder cannot.
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: i64 = self.parts.iter().map(|&(_, ns)| ns.max(0)).sum();
        ratio(self.top_ns as f64 - attributed as f64, self.top_ns as f64)
    }

    fn print(&self, workload: &str) {
        println!("ladder {workload}: top rung {} ns", self.top_ns);
        for &(layer, ns) in &self.parts {
            println!(
                "ladder {workload}: {layer:<28} self {ns:>14} ns  share {:.4}",
                ratio(ns as f64, self.top_ns as f64)
            );
        }
        let u = self.unattributed_frac();
        println!(
            "ladder {workload}: unattributed {u:.4} ({})",
            if u.abs() <= 0.10 {
                "closed"
            } else {
                "NOT CLOSED: |unattributed| > 0.10"
            }
        );
    }
}

/// What a run produced.
pub struct RunOutput {
    pub check: Check,
    pub metrics: Metrics,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_spread(name: &str, unit: &str, values: &[f64]) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "spread {name}: median {:?} {unit}, min {min:?}, max {max:?}, {} values",
        median(values),
        values.len()
    );
}

/// Run workload `W` in the shape described in the module docs and
/// print every metric by name with its unit.
pub fn run<W: Workload>(cfg: &RunCfg) -> RunOutput {
    // End-to-end numbers are taken with the stack's own recorder off.
    bftree_obs::set_recording(false);
    println!("workload = {}", W::NAME);
    println!("seed = {}", cfg.seed);
    println!(
        "host = nproc {}, smoke {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cfg.smoke
    );

    let mut check = Check::default();
    let mut layers = Metrics::new(PER_LAYER);
    let mut timed = Timed::default();
    let mut e2e = Metrics::new(END_TO_END);

    // One session: a fresh set-up, a warm-up rep, timed reps. An
    // end-to-end run has several, so that what a single set-up happens
    // to draw — where the heap lands in memory, which vCPU a thread
    // wakes on — is averaged inside the run instead of showing up as
    // run-to-run spread.
    let (sessions, budget_s) = match cfg.mode {
        Mode::EndToEnd => (SESSIONS, cfg.seconds / SESSIONS as f64),
        Mode::Traced => (1, cfg.seconds.min(TRACED_TIMED_SECONDS)),
        Mode::TraceOnly => (1, 0.0),
    };
    let mut setup_s: Vec<f64> = Vec::with_capacity(sessions);
    let mut reps: Vec<RepSummary> = Vec::new();
    let mut drifts: Vec<f64> = Vec::new();
    let mut measured_s = 0.0;
    let (mut det_sim_ns, mut det_ops) = (0u64, 0u64);
    let (mut det_bytes_per_key, mut det_rss_mb) = (0.0, 0.0);
    let mut fingerprint = crate::gen::Fingerprint::default();
    let mut workload: Option<W> = None;
    for session in 0..sessions {
        drop(workload.take());
        let t = Instant::now();
        let w = workload.insert(W::setup(cfg));
        setup_s.push(t.elapsed().as_secs_f64());
        if cfg.mode == Mode::TraceOnly {
            break;
        }
        check.add(w.rep(0).check);

        let sim_before = w.sim_ns();
        let first = reps.len();
        let mut session_s = 0.0;
        loop {
            // Session `s` issues reps `1 + s·REP_STRIDE …`: which
            // requests a session's n-th rep makes never depends on how
            // many reps the sessions before it fitted in.
            let rep_index = 1 + session as u64 * REP_STRIDE + (reps.len() - first) as u64;
            let outcome = w.rep(rep_index);
            check.add(outcome.check);
            timed.errors += outcome.errors;
            let rep = RepSummary::of(outcome);
            session_s += rep.wall_s;
            reps.push(rep);
            if reps.len() == first + 1 {
                // The deterministic figures cover the first timed rep
                // of every session: the one rep every session has.
                det_sim_ns += w.sim_ns() - sim_before;
                det_ops += rep.ops;
                det_bytes_per_key = ratio(w.index_bytes() as f64, w.live_keys() as f64);
                det_rss_mb = peak_rss_mb();
                fingerprint.fold(0, w.fingerprint());
            }
            // Stop once another rep would overshoot the session's
            // budget by more than it undershoots now.
            if session_s + rep.wall_s / 2.0 >= budget_s {
                break;
            }
        }
        measured_s += session_s;
        // Stationarity inside the session: the last half of its reps
        // against the first half.
        let session: Vec<f64> = reps[first..].iter().map(|r| r.ops_per_s).collect();
        let half = session.len() / 2;
        if half > 0 {
            drifts.push(ratio(
                median(&session[session.len() - half..]) - median(&session[..half]),
                median(&session),
            ));
        }
    }
    let mut w = workload.expect("at least one session");

    if cfg.mode != Mode::TraceOnly {
        let col = |f: fn(&RepSummary) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        let ops_per_s = col(|r| r.ops_per_s);
        e2e.set("ops_per_s", median(&ops_per_s));
        e2e.set("lat_p50_us", median(&col(|r| r.p50_us)));
        e2e.set("lat_p99_us", median(&col(|r| r.p99_us)));
        e2e.set(
            "sim_us_per_op",
            ratio(det_sim_ns as f64 / 1e3, det_ops as f64),
        );
        e2e.set("index_bytes_per_key", det_bytes_per_key);
        e2e.set("peak_rss_mb", det_rss_mb);
        e2e.set("setup_s", median(&setup_s));

        timed.ops_per_s = e2e.get("ops_per_s");
        for c in 0..4 {
            timed.class_p50_us[c] =
                median(&reps.iter().map(|r| r.class_p50_us[c]).collect::<Vec<_>>());
            timed.class_p99_us[c] =
                median(&reps.iter().map(|r| r.class_p99_us[c]).collect::<Vec<_>>());
        }
        let drift = ratio(drifts.iter().sum::<f64>(), drifts.len() as f64);
        layers.set("bench.drift_frac", drift);

        println!(
            "reps = {} timed in {} sessions, {} requests and {} ops in the first, {:.3} s measured",
            reps.len(),
            sessions,
            reps[0].requests,
            reps[0].ops,
            measured_s
        );
        println!(
            "rep ops_per_s: {}",
            ops_per_s
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        print_spread("ops_per_s", "ops/s", &ops_per_s);
        print_spread("lat_p50_us", "us", &col(|r| r.p50_us));
        print_spread("lat_p99_us", "us", &col(|r| r.p99_us));
        print_spread("setup_s", "s", &setup_s);
        println!("bench.drift_frac = {drift:?} ratio");
        println!("stream_fingerprint = {:#018x}", fingerprint.0);

        check.add(w.verify(&mut layers));
    }

    if cfg.mode != Mode::EndToEnd {
        if cfg.mode == Mode::Traced {
            // One extra rep with the stack's own recorder armed: what
            // recording costs, end to end.
            bftree_obs::set_recording(true);
            let armed = w.rep(ARMED_REP);
            bftree_obs::set_recording(false);
            let spans = bftree_obs::drain_spans();
            let armed_ops_per_s = ratio(armed.ops as f64, armed.wall_ns as f64 / 1e9);
            check.add(armed.check);
            layers.set(
                "obs.armed_overhead_frac",
                ratio(timed.ops_per_s - armed_ops_per_s, timed.ops_per_s),
            );
            layers.set(
                "obs.spans_per_op",
                ratio(spans.len() as f64, armed.ops as f64),
            );
        }
        layers.set("bench.timer_overhead_ns", Recorder::timer_overhead_ns());
        let mut rec = Recorder::new();
        let closure = w.trace(&mut rec, &mut layers, &timed);
        layers.set("bench.unattributed_frac", closure.unattributed_frac());
        closure.print(W::NAME);
        for (name, st) in rec.self_times() {
            println!(
                "span {name}: {} spans, total {} ns, self {} ns",
                st.count, st.total_ns, st.self_ns
            );
        }
        let path = crate::out_dir().join(format!("{}.trace.json", W::NAME));
        match rec.write_chrome_json(&path) {
            Ok(()) => println!("trace = {} ({} spans)", path.display(), rec.spans().len()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    drop(w);

    println!("failed_frac = {:?} ratio", check.failed_frac());
    let metrics = if cfg.mode == Mode::EndToEnd {
        e2e
    } else {
        layers
    };
    metrics.print();
    RunOutput { check, metrics }
}

/// Run the workload called `name`.
pub fn run_named(name: &str, cfg: &RunCfg) -> Option<RunOutput> {
    Some(match name {
        "probe_cold" => run::<probe_cold::ProbeCold>(cfg),
        "scan_warm" => run::<scan_warm::ScanWarm>(cfg),
        "ingest_file" => run::<ingest_file::IngestFile>(cfg),
        "serve_wire" => run::<serve_wire::ServeWire>(cfg),
        _ => return None,
    })
}
