//! `figures list | <id> | all` — regenerate the paper's tables and
//! figures (see [`bftree_bench::figures::FIGURES`]). The scale comes
//! from `BFTREE_SCALE_MB`, `BFTREE_PROBES`, `BFTREE_TPCH_SF` and
//! `BFTREE_SHD_TIMESTAMPS`, read once here.

use std::process::ExitCode;

use bftree_bench::figures::{Figure, FIGURES};
use bftree_bench::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [id] = args.as_slice() else {
        return usage("expected exactly one argument");
    };
    let scale = match Scale::from_env() {
        Ok(scale) => scale,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    match id.as_str() {
        "list" => print!("{}", list()),
        "all" => {
            for figure in &FIGURES {
                println!("### {}: {}\n", figure.id, figure.artifact);
                (figure.run)(&scale).iter().for_each(|r| r.print());
            }
        }
        id => match FIGURES.iter().find(|f| f.id == id) {
            Some(figure) => (figure.run)(&scale).iter().for_each(|r| r.print()),
            None => return usage(&format!("unknown figure `{id}`")),
        },
    }
    ExitCode::SUCCESS
}

/// One line per figure: its id and the artifact it regenerates.
fn list() -> String {
    let line = |f: &Figure| format!("{:<20} {}\n", f.id, f.artifact);
    FIGURES.iter().map(line).collect()
}

fn usage(problem: &str) -> ExitCode {
    eprint!(
        "error: {problem}\nusage: figures list | all | <id>, where <id> is one of:\n{}",
        list()
    );
    ExitCode::from(2)
}
