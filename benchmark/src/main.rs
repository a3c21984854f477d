//! `bfbench`: the repo's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! bfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                   one run; the last stdout line is the result
//! bfbench --workload <name> --trace-only [--seed <n>]   just the per-layer ladder
//! bfbench --all [--seed <n>] [--seconds <s>]   every workload, each run in a fresh child
//! bfbench --check-repeat [--seed <n>] [--seconds <s>]   the suite twice, compared
//! ```
//!
//! `--smoke` runs everything at 1/50 size (for the tests; never for a
//! claim). Flags take `--flag value` or `--flag=value`.

mod gen;
mod ladder;
mod oracle;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Mode, RunCfg};

/// Where the benchmark writes: traces, and the `TMPDIR` under which
/// `ScratchDir` puts the file backend's page stores. Inside the
/// benchmark's own directory, so a run never touches anything outside
/// its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_only: bool,
    pub smoke: bool,
    pub all: bool,
    pub check_repeat: bool,
}

/// The measured seconds `BENCHMARK.json` fixes for one run.
pub const RUN_SECONDS: f64 = 10.0;

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        trace_only: false,
        smoke: false,
        all: false,
        check_repeat: false,
    };
    let mut raw = raw.into_iter();
    while let Some(arg) = raw.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |what: &str| {
            inline
                .clone()
                .or_else(|| raw.next())
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--trace-only" => args.trace_only = true,
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = usize::from(args.all)
        + usize::from(args.check_repeat)
        + usize::from(args.workload.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --check-repeat".into());
    }
    if let Some(name) = &args.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}` (one of {})",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let tmp = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // Before any thread starts: `ScratchDir` (the file backend's home)
    // follows TMPDIR, and it must stay inside the checkout.
    std::env::set_var("TMPDIR", &tmp);

    if args.check_repeat {
        return suite::check_repeat(&args);
    }
    if args.all {
        return suite::all(&args);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        mode: match (args.trace_only, args.trace) {
            (true, _) => Mode::TraceOnly,
            (false, true) => Mode::Traced,
            (false, false) => Mode::EndToEnd,
        },
    };
    let name = args.workload.as_deref().expect("checked by parse_args");
    let out = workloads::run_named(name, &cfg).expect("checked by parse_args");
    println!("{}", report::result_line(out.check, &out.metrics));
    // A wrong answer is reported in the result line *and* the status.
    if out.check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_form_and_the_equals_form() {
        let a = parse(&[
            "--workload",
            "scan_warm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("scan_warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let b = parse(&["--workload=probe_cold", "--seed=9", "--trace=0", "--smoke"]).unwrap();
        assert_eq!(b.workload.as_deref(), Some("probe_cold"));
        assert_eq!((b.seed, b.trace, b.smoke), (9, false, true));
        assert_eq!(b.seconds, RUN_SECONDS);
    }

    #[test]
    fn rejects_nonsense_with_one_line() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--all", "--check-repeat"],
            &["--workload", "probe_cold", "--trace", "2"],
            &["--workload", "probe_cold", "--seconds", "0"],
            &["--workload"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
