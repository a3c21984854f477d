//! Drives the built `bfbench` end to end in `--smoke` mode (every
//! workload at 1/50 size; never a claim): the result line keeps the
//! driver's contract, every answer is right, and each workload's
//! request stream still has the fingerprint it had when the benchmark
//! was defined.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["probe_cold", "scan_warm", "ingest_file", "serve_wire"];

/// Stream fingerprints at `--smoke --seed 1` (each session's warm-up
/// and first timed rep, folded over the sessions). A change here means
/// the generators changed, and with them what every earlier number
/// measured.
const GOLDEN: [(&str, &str); 4] = [
    ("probe_cold", "0x378660960e35b901"),
    ("scan_warm", "0x5b781c29c9d121f1"),
    ("ingest_file", "0x5ee0446660285a84"),
    ("serve_wire", "0x8ab741feea1690d3"),
];

fn bfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bfbench"))
        .args(args)
        .output()
        .expect("run bfbench")
}

fn run(workload: &str, trace: &str, seed: &str) -> (String, String) {
    let out = bfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, last)
}

fn line_value<'a>(stdout: &'a str, name: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(" = "))
        .unwrap_or_else(|| panic!("no `{name} = …` line"))
}

/// `"name": {"value": <v>, …` → v.
fn metric(result: &str, name: &str) -> f64 {
    let at = result
        .find(&format!("\"{name}\": {{\"value\": "))
        .unwrap_or_else(|| panic!("{name} missing from {result}"));
    let rest = &result[at..];
    let rest = &rest[rest.find("\"value\": ").unwrap() + 9..];
    rest[..rest.find(',').unwrap()].parse().expect("a number")
}

#[test]
fn end_to_end_runs_keep_the_contract_and_the_golden_fingerprints() {
    for (workload, golden) in GOLDEN {
        let (stdout, result) = run(workload, "0", "1");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {result}"
        );
        assert!(
            result.contains("\"failed\": 0, \"metrics\": {"),
            "{workload}"
        );
        for name in [
            "ops_per_s",
            "lat_p50_us",
            "lat_p99_us",
            "sim_us_per_op",
            "index_bytes_per_key",
            "peak_rss_mb",
            "setup_s",
        ] {
            assert!(
                metric(&result, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        assert!(
            !result.contains("bloom."),
            "per-layer metrics stay out of --trace 0"
        );
        assert_eq!(
            line_value(&stdout, "failed_frac"),
            "0.0 ratio",
            "{workload}"
        );
        assert_eq!(
            line_value(&stdout, "stream_fingerprint"),
            golden,
            "{workload}: the request stream drifted"
        );
    }
}

#[test]
fn deterministic_metrics_repeat_exactly_on_the_one_client_workloads() {
    for workload in ["probe_cold", "ingest_file"] {
        let (_, a) = run(workload, "0", "5");
        let (_, b) = run(workload, "0", "5");
        for name in ["sim_us_per_op", "index_bytes_per_key"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{workload}: {name} must be bit-identical across runs"
            );
        }
        let (_, c) = run(workload, "0", "6");
        assert_ne!(
            metric(&a, "sim_us_per_op"),
            metric(&c, "sim_us_per_op"),
            "seeded"
        );
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_hold_the_structural_zeros() {
    for workload in WORKLOADS {
        let (stdout, result) = run(workload, "1", "1");
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload}: {result}"
        );
        assert!(
            !result.contains("\"ops_per_s\""),
            "end-to-end metrics stay out of --trace 1"
        );
        assert!(stdout.contains(&format!("ladder {workload}: top rung")));
        assert!(
            metric(&result, "bloom.sweep_ns_per_key") > 0.0,
            "{workload}"
        );
        assert!(
            metric(&result, "bench.timer_overhead_ns") > 0.0,
            "{workload}"
        );
        let zero = |name: &str| assert_eq!(metric(&result, name), 0.0, "{workload}: {name}");
        if workload == "probe_cold" {
            for name in [
                "bufferpool.hit_rate",
                "bufferpool.misses_per_op",
                "bufferpool.evictions_per_op",
            ] {
                zero(name);
            }
        }
        if workload == "probe_cold" || workload == "scan_warm" {
            for name in [
                "storage.file_read_ns_per_page",
                "storage.file_write_ns_per_page",
                "storage.file_sync_ns_per_barrier",
                "wal.append_ns_per_record",
                "wal.fsyncs_per_write",
                "wal.bytes_per_write",
            ] {
                zero(name);
            }
        }
        if workload == "ingest_file" {
            assert!(metric(&result, "wal.fsyncs_per_write") > 0.0);
            assert!(metric(&result, "storage.file_sync_ns_per_barrier") > 0.0);
            assert!(metric(&result, "access.recover_records_per_s") > 0.0);
        }
        if workload == "serve_wire" {
            assert!(metric(&result, "net.rtt_1client_ns_per_req") > 0.0);
            assert!(metric(&result, "shard.shards_touched_per_batch") >= 1.0);
        }
    }
}

#[test]
fn trace_only_skips_the_timed_reps() {
    let out = bfbench(&["--workload=probe_cold", "--trace-only", "--smoke"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("spread ops_per_s"));
    assert!(
        metric(
            stdout.lines().last().unwrap(),
            "core.probe_batch_ns_per_key"
        ) > 0.0
    );
}

#[test]
fn check_repeat_compares_two_suites_and_all_prints_every_metric() {
    let out = bfbench(&["--check-repeat", "--smoke", "--seconds", "0.2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // At smoke size the wall metrics may well miss their bounds; the
    // report's shape and the deterministic rows are what is checked.
    assert!(stdout.contains("| workload | metric | first | second | worse | bound | verdict |"));
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("| {workload} | ops_per_s |")));
    }
    for workload in ["probe_cold", "ingest_file"] {
        for name in ["sim_us_per_op", "index_bytes_per_key"] {
            let row = stdout
                .lines()
                .find(|l| l.starts_with(&format!("| {workload} | {name} |")))
                .expect("row");
            assert!(
                row.contains("| +0.0000 |") && row.ends_with("| ok |"),
                "{row}"
            );
        }
    }
    assert!(stdout.contains("verdict: "));

    let out = bfbench(&["--all", "--smoke", "--seconds", "0.2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("== {workload}: end-to-end run")));
        assert!(stdout.contains(&format!("== {workload}: traced run")));
    }
    assert!(stdout.matches("net.socket_self_ns_per_req").count() == 4);
}

#[test]
fn bad_arguments_exit_2_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "3"],
        &["--bogus"],
    ] {
        let out = bfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
