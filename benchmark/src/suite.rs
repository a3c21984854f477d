//! `--all` and `--check-repeat`: the whole suite, each workload run in
//! a fresh child process (this same binary with `--workload`), so no
//! workload inherits another's heap, threads or page cache state.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::ratio;
use crate::workloads::NAMES;
use crate::Args;

/// Regression bound of each end-to-end metric, as `BENCHMARK.json`
/// lists them: the share of the first median by which the second may
/// be worse. Each is about three times the widest run-to-run spread
/// (inter-quartile range over the median, ten seeds) any workload
/// showed on the defining 2-vCPU host — see README, "Bounds".
pub const BOUNDS: &[(&str, bool, f64)] = &[
    // (name, higher is better, bound)
    ("ops_per_s", true, 0.25),
    ("lat_p50_us", false, 0.25),
    ("lat_p99_us", false, 0.25),
    ("sim_us_per_op", false, 0.05),
    ("index_bytes_per_key", false, 0.03),
    ("peak_rss_mb", false, 0.1),
    ("setup_s", false, 0.25),
];
/// The stationarity guard of `--check-repeat` (throughput that
/// depends on run length is not a number): the two runs' mean
/// `bench.drift_frac` may not exceed this. Single reps scatter by ±8 %
/// on the defining host (`serve_wire`'s by more), so even averaged
/// over five sessions and two runs a drift cannot be resolved much
/// below this — 0.10 was tried and tripped on noise one time in three;
/// the traffic the guard exists for, scattered inserts into an ordered
/// heap, halves throughput within a run.
const MAX_DRIFT: f64 = 0.15;

/// What one child run printed: every `name = value unit` line.
struct ChildRun {
    values: BTreeMap<String, f64>,
    ok: bool,
}

fn run_child(args: &Args, workload: &str, trace: bool, echo: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn child run");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let context = ["ladder ", "spread ", "rep ", "stream_fingerprint "];
        if echo && context.iter().any(|p| line.starts_with(p)) {
            println!("  {line}");
        }
        let mut parts = line.split(' ');
        if let (Some(name), Some("="), Some(value)) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                values.insert(name.to_string(), v);
            }
        }
    }
    ChildRun {
        values,
        ok: out.status.success(),
    }
}

fn print_table(workload: &str, run: &ChildRun, defs: &[(&str, &str)]) {
    for (name, unit) in defs {
        let v = run.values.get(*name).copied().unwrap_or(0.0);
        println!("{workload:<12} {name:<36} {v:>20.6} {unit}");
    }
}

/// Run every workload once end to end and once traced, and print every
/// metric by name with its unit.
pub fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in NAMES {
        println!("== {workload}: end-to-end run (seed {}) ==", args.seed);
        let e2e = run_child(args, workload, false, true);
        print_table(workload, &e2e, END_TO_END);
        println!(
            "{workload:<12} {:<36} {:>20.6} ratio",
            "failed_frac",
            e2e.values.get("failed_frac").copied().unwrap_or(1.0)
        );
        println!("== {workload}: traced run ==");
        let traced = run_child(args, workload, true, true);
        print_table(workload, &traced, PER_LAYER);
        ok &= e2e.ok && traced.ok;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a workload failed or answered wrongly (failed_frac > 0)");
        ExitCode::FAILURE
    }
}

/// Run the end-to-end suite twice and compare: per metric × workload
/// both values, the relative difference (positive = second run worse)
/// and the bound. Fails when any pair is outside its bound, any
/// workload drifts, or any run answered wrongly.
pub fn check_repeat(args: &Args) -> ExitCode {
    let mut ok = true;
    println!("# Repeatability: two runs of the end-to-end suite at one commit");
    println!();
    println!(
        "seed {}, {} s measured per run{}. `worse` is the share by which the second run is worse",
        args.seed,
        args.seconds,
        if args.smoke {
            ", SMOKE SIZE (not a claim)"
        } else {
            ""
        }
    );
    println!("than the first (negative: better); it must stay within `bound`.");
    println!();
    println!("| workload | metric | first | second | worse | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut drifts: Vec<(String, f64, f64)> = Vec::new();
    for workload in NAMES {
        let first = run_child(args, workload, false, false);
        let second = run_child(args, workload, false, false);
        ok &= first.ok && second.ok;
        for &(name, higher_better, bound) in BOUNDS {
            let a = first.values.get(name).copied().unwrap_or(0.0);
            let b = second.values.get(name).copied().unwrap_or(0.0);
            let worse = if higher_better {
                ratio(a - b, a)
            } else {
                ratio(b - a, a)
            };
            let pass = worse <= bound && a > 0.0 && b > 0.0;
            ok &= pass;
            println!(
                "| {workload} | {name} | {a:.6} | {b:.6} | {worse:+.4} | {bound} | {} |",
                if pass { "ok" } else { "OUTSIDE" }
            );
        }
        let drift = |r: &ChildRun| r.values.get("bench.drift_frac").copied().unwrap_or(0.0);
        drifts.push((workload.to_string(), drift(&first), drift(&second)));
        let failed = |r: &ChildRun| r.values.get("failed_frac").copied().unwrap_or(1.0);
        if failed(&first) != 0.0 || failed(&second) != 0.0 {
            ok = false;
            println!(
                "| {workload} | failed_frac | {} | {} | | 0 | OUTSIDE |",
                failed(&first),
                failed(&second)
            );
        }
    }
    println!();
    println!("| workload | bench.drift_frac first | second | mean | limit | verdict |");
    println!("|---|---|---|---|---|---|");
    for (workload, a, b) in drifts {
        let mean = (a + b) / 2.0;
        let pass = mean.abs() <= MAX_DRIFT;
        ok &= pass;
        println!(
            "| {workload} | {a:+.4} | {b:+.4} | {mean:+.4} | {MAX_DRIFT} | {} |",
            if pass { "ok" } else { "DRIFTS" }
        );
    }
    println!();
    println!(
        "verdict: {}",
        if ok { "repeatable" } else { "NOT repeatable" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (at the repo root, outside this package) must
    /// list exactly the metrics, units, bounds and workloads the
    /// binary reports.
    #[test]
    fn benchmark_json_agrees_with_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entry =
            |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&entry(name, unit)),
                "{name} [{unit}] missing or changed"
            );
        }
        for workload in NAMES {
            assert!(text.contains(&format!("\"name\": \"{workload}\",\n      \"why\": ")));
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            NAMES.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a name the binary does not report"
        );
        assert_eq!(BOUNDS.len(), END_TO_END.len());
        for &(name, higher_better, bound) in BOUNDS {
            let at = text
                .find(&format!("\"name\": \"{name}\","))
                .expect("listed");
            let tail = &text[at..at + 160];
            let better = if higher_better { "higher" } else { "lower" };
            assert!(
                tail.contains(&format!("\"better\": \"{better}\"")),
                "{name}: {tail}"
            );
            assert!(
                tail.contains(&format!("\"bound\": {bound}\n")),
                "{name}: {tail}"
            );
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::RUN_SECONDS)));
    }
}
