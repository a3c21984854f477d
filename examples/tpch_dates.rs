//! Data-warehouse scenario (paper §1.1, §6.4): the TPCH lineitem table
//! physically ordered on `shipdate`, indexed by a BF-Tree.
//!
//! Shows the implicit clustering of the three date columns, builds a
//! BF-Tree and a B+-Tree on shipdate through the same `AccessMethod`
//! interface, compares probe cost on a simulated SSD under different
//! hit rates, and serves a month of lineitems as a **paginated range
//! scan**: cursor + continuation token, 40 rows per request, each
//! request charging only the pages behind its rows.
//!
//! ```text
//! cargo run --release --example tpch_dates
//! ```

use bftree::{AccessMethod, BfTree};
use bftree_access::{Continuation, RangeCursor, RangeCursorExt};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_storage::{Duplicates, IoContext, Relation, StorageConfig};
use bftree_workloads::tpch::{self, TpchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TpchConfig::scaled(0.02); // 120k lineitems
    let rows = tpch::generate_lineitem_dates(&config);

    // Implicit clustering: the three dates of any lineitem are close.
    let spread: f64 = rows
        .iter()
        .map(|r| {
            let hi = r.shipdate.max(r.commitdate).max(r.receiptdate);
            let lo = r.shipdate.min(r.commitdate).min(r.receiptdate);
            (hi - lo) as f64
        })
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "{} lineitems; mean spread between ship/commit/receipt dates: {spread:.1} days",
        rows.len()
    );

    // Physical design: order the file on shipdate, index shipdate.
    // Duplicates (≈24 lineitems per date at this scale) are contiguous,
    // so the B+-Tree's build derives its one-entry-per-distinct-key
    // mode and the BF-Tree its first-page-only filter loading.
    let relation = Relation::new(
        tpch::build_heap_by_shipdate(&config),
        tpch::SHIPDATE,
        Duplicates::Contiguous,
    )?;
    let bf = BfTree::builder().fpp(1e-4).build(&relation)?;
    let mut bp = BPlusTree::new(BTreeConfig::paper_default());
    AccessMethod::build(&mut bp, &relation)?;
    println!(
        "index on shipdate: BF-Tree {} pages, B+-Tree {} pages ({:.1}x smaller)",
        bf.total_pages(),
        bp.total_pages(),
        bp.total_pages() as f64 / bf.total_pages() as f64
    );

    // Probe cost on a simulated SSD, existing vs absent dates.
    let domain = tpch::shipdate_domain(&rows);
    for (label, keys) in [
        (
            "existing dates (hit)",
            domain.iter().copied().step_by(97).collect::<Vec<_>>(),
        ),
        (
            "future dates (miss)",
            (0..50).map(|i| domain.last().unwrap() + 10 + i).collect(),
        ),
    ] {
        let io = IoContext::cold(StorageConfig::SsdSsd);
        let mut pages = 0u64;
        for &d in &keys {
            pages += AccessMethod::probe(&bf, d, &relation, &io)?.pages_read;
        }
        let us = io.sim_us() / keys.len() as f64;
        println!(
            "{label}: mean {us:.1} us/probe, {:.1} data pages/probe (avg cardinality {:.0})",
            pages as f64 / keys.len() as f64,
            rows.len() as f64 / domain.len() as f64,
        );
    }

    // A reporting query — "lineitems shipped this month" — served the
    // way an application pages through results: a cursor capped at 40
    // rows per request, with an opaque continuation token carrying the
    // frontier between requests. The file is ordered on shipdate, so
    // the first request finds the month's first page through the
    // BF-leaf's filters (paying their false positives, as a probe
    // does), and
    // every request after resumes at the exact page frontier: each
    // pays only for the pages behind its own rows, and the last one
    // stops at the first page past the month.
    let lo = domain[domain.len() / 3];
    let hi = lo + 30;
    let io_full = IoContext::cold(StorageConfig::SsdSsd);
    let full = AccessMethod::range_scan(&bf, lo, hi, &relation, &io_full)?;
    println!(
        "\npaginated scan of shipdate [{lo}, {hi}]: {} lineitems on {} pages",
        full.matches.len(),
        full.pages_read
    );

    let mut token: Option<Continuation> = None;
    let mut request = 0u32;
    let mut served = 0usize;
    loop {
        let io = IoContext::cold(StorageConfig::SsdSsd);
        let mut cursor = match &token {
            None => bf.range_cursor(lo, hi, &relation, &io)?,
            Some(t) => bf.resume_range_cursor(t, &relation, &io)?,
        }
        .limit(40);
        let mut rows_this_request = 0usize;
        while let Some(page) = cursor.next_page_matches() {
            rows_this_request += page.len();
            cursor.advance();
        }
        served += rows_this_request;
        request += 1;
        token = cursor.continuation();
        println!(
            "  request #{request}: {rows_this_request:>3} rows from {} data page(s){}",
            cursor.io().pages_read,
            if token.is_none() && rows_this_request < 40 {
                " (final drain: stops at the first page past the month)"
            } else {
                ""
            },
        );
        if request > 3 && token.is_some() {
            println!("  ... ({} rows remain behind the token)", {
                full.matches.len() - served
            });
            break;
        }
        if token.is_none() {
            assert_eq!(served, full.matches.len(), "pagination loses nothing");
            break;
        }
    }
    Ok(())
}
