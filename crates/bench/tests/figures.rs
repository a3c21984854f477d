//! Every artifact of the `figures` table runs in process at a tiny
//! scale and prints exactly its committed golden, the two figure pairs
//! keep their grid shapes, and two of the paper's anchors hold at the
//! scale CI smokes.

use bftree_bench::figures::FIGURES;
use bftree_bench::{Report, Scale};

const TINY: Scale = Scale {
    relation_mb: 1,
    n_probes: 50,
    tpch_sf: 0.002,
    shd_timestamps: 300,
};

/// The smallest relation on which both of Table 3's columns move.
const SMOKE: Scale = Scale {
    relation_mb: 8,
    n_probes: 100,
    ..TINY
};

fn run(id: &str, scale: &Scale) -> Vec<Report> {
    let figure = FIGURES
        .iter()
        .find(|f| f.id == id)
        .expect("id in the table");
    (figure.run)(scale)
}

/// Column `name` of a report's CSV block, header excluded.
fn column(report: &Report, name: &str) -> Vec<String> {
    let csv = report.to_csv();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let at = header.iter().position(|c| *c == name).expect("column");
    lines
        .map(|l| l.split(',').nth(at).expect("cell").to_string())
        .collect()
}

/// `table2_sizes` prints the evaluation's one wall-clock quantity: the
/// last cell of every table and CSV row, and the closing note's two
/// build times. Both sides of the comparison pass through this, so a
/// golden regenerated with the raw command compares like a masked one.
fn mask_wall_clock(text: &str) -> String {
    let mask_line = |line: &str| -> String {
        let row = line.trim_start();
        if row.starts_with("B+-Tree build:") {
            "B+-Tree build: *".to_string()
        } else if row.starts_with("B+-Tree") || row.starts_with("BF-Tree") {
            let cut = line.rfind([',', ' ']).expect("a row has several cells") + 1;
            if line[..cut].ends_with(',') {
                format!("{}*", &line[..cut])
            } else {
                let kept = line[..cut].trim_end();
                format!("{kept}{:>w$}", "*", w = line.len() - kept.len())
            }
        } else {
            line.to_string()
        }
    };
    text.lines().map(|l| mask_line(l) + "\n").collect()
}

/// Every id's output at [`TINY`] is its committed golden,
/// `golden/<id>.csv`: the stdout of
/// `BFTREE_SCALE_MB=1 BFTREE_PROBES=50 BFTREE_TPCH_SF=0.002
/// BFTREE_SHD_TIMESTAMPS=300 cargo run -p bftree-bench --bin figures -- <id>`.
/// A change that moves a figure on purpose regenerates the file with
/// that command in the same commit.
#[test]
fn every_figure_runs_and_reports() {
    for figure in &FIGURES {
        let reports = (figure.run)(&TINY);
        assert!(!reports.is_empty(), "{}: no report", figure.id);
        for report in &reports {
            assert!(!report.is_empty(), "{}: an empty report", figure.id);
        }
        let path = format!("{}/golden/{}.csv", env!("CARGO_MANIFEST_DIR"), figure.id);
        let mut golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut printed: String = reports.iter().map(Report::to_string).collect();
        if figure.id == "table2_sizes" {
            (printed, golden) = (mask_wall_clock(&printed), mask_wall_clock(&golden));
        }
        assert!(
            printed == golden,
            "{}: output differs from {path}\n--- printed\n{printed}--- golden\n{golden}",
            figure.id
        );
    }
}

#[test]
fn ids_are_unique() {
    let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), FIGURES.len());
}

/// Break-even figures sweep 5 configurations × 8 fpps; warm-cache
/// figures have one row per device-resident-index configuration.
#[test]
fn figure_pairs_keep_their_grids() {
    for id in ["fig6_breakeven_pk", "fig9_breakeven_att1"] {
        assert_eq!(run(id, &TINY)[0].len(), 40, "{id}");
    }
    for id in ["fig7_warm_pk", "fig10_warm_att1"] {
        assert_eq!(run(id, &TINY)[0].len(), 3, "{id}");
    }
}

/// Table 3: a tighter fpp never reads more false pages per search,
/// and the sweep's ends are far apart.
#[test]
fn table3_false_reads_fall_with_fpp() {
    let table = &run("table3_false_reads", &SMOKE)[0];
    for name in ["false reads PK", "false reads ATT1"] {
        let reads: Vec<f64> = column(table, name)
            .iter()
            .map(|c| c.parse().expect("a number"))
            .collect();
        assert!(reads.windows(2).all(|w| w[1] <= w[0]), "{name}: {reads:?}");
        assert!(
            reads[0] > 10.0 * reads[reads.len() - 1],
            "{name}: {reads:?}"
        );
    }
}

/// Table 2: at fpp 0.2 the PK BF-Tree is at least 10× smaller than
/// the B+-Tree (paper: 35× at 1 GB; the gain grows with the relation).
#[test]
fn table2_bftree_is_an_order_of_magnitude_smaller() {
    let table = &run("table2_sizes", &SMOKE)[0];
    let (fpps, gains) = (column(table, "fpp"), column(table, "gain PK"));
    let at = fpps.iter().position(|f| f == "0.2").expect("fpp 0.2 row");
    let gain: f64 = gains[at].parse().expect("a number");
    assert!(gain >= 10.0, "gain {gain}");
}
