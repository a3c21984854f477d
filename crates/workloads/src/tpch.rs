//! TPCH lineitem date columns (§1.1, §6.1, §6.4): a from-scratch
//! generator with dbgen's date semantics, standing in for the real
//! benchmark kit (see DESIGN.md §4, Substitutions).
//!
//! dbgen draws each order's `orderdate` uniformly from the ~7-year
//! window `[STARTDATE, ENDDATE - 151 days]` and derives per-lineitem
//! dates: `shipdate = orderdate + U[1, 121]`,
//! `commitdate = orderdate + U[30, 90]`,
//! `receiptdate = shipdate + U[1, 30]`. The three dates are therefore
//! close but not identically ordered — the paper's Figure 1(a)
//! "implicit clustering". At SF 1 the ~6 M lineitems spread over
//! ~2 500 distinct ship dates, i.e. "each date of the shipdate is
//! repeated 2400 times on average".

use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, TupleLayout};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `shipdate` attribute offset within a lineitem tuple (days since the
/// TPCH start date, stored as u64).
pub const SHIPDATE: AttrOffset = AttrOffset(0);
/// `commitdate` attribute offset.
pub const COMMITDATE: AttrOffset = AttrOffset(8);
/// `receiptdate` attribute offset.
pub const RECEIPTDATE: AttrOffset = AttrOffset(16);
/// `orderkey` attribute offset (creation order).
pub const ORDERKEY: AttrOffset = AttrOffset(24);

/// Days in the orderdate window: TPCH orders span
/// `1992-01-01 .. 1998-08-02` (`ENDDATE - 151 days`).
const ORDERDATE_SPAN: u64 = 2_406;

/// One generated lineitem's date columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineitemDates {
    /// Creation order of the parent order.
    pub orderkey: u64,
    /// Days since STARTDATE.
    pub shipdate: u64,
    /// Days since STARTDATE.
    pub commitdate: u64,
    /// Days since STARTDATE.
    pub receiptdate: u64,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Scale factor; SF 1 is ~6 M lineitems. Fractional SFs scale the
    /// row count linearly (dbgen does the same).
    pub scale: f64,
    /// Tuple size of the materialized lineitem rows; the paper uses
    /// 200 B.
    pub tuple_size: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl TpchConfig {
    /// The paper's §6.4 setup: SF 1, 200-byte tuples.
    pub fn paper_sf1() -> Self {
        Self {
            scale: 1.0,
            tuple_size: 200,
            seed: 0x79C4,
        }
    }

    /// Scaled-down variant keeping per-date cardinality ~proportional.
    pub fn scaled(scale: f64) -> Self {
        Self {
            scale,
            ..Self::paper_sf1()
        }
    }

    /// Number of lineitems at this scale.
    pub fn n_lineitems(&self) -> u64 {
        (6_000_000.0 * self.scale) as u64
    }
}

/// Generate the lineitem date columns in *creation order* (orderkey
/// order) — the layout of Figure 1(a).
pub fn generate_lineitem_dates(config: &TpchConfig) -> Vec<LineitemDates> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    if config.n_lineitems() == 0 {
        return Vec::new(); // degenerate scale: the loop below always pushes first
    }
    let n_orders = (config.n_lineitems() / 4).max(1); // ~4 lineitems/order
    let mut rows = Vec::with_capacity(config.n_lineitems() as usize);
    // Orders arrive roughly in date order (creation-time clustering):
    // walk the window and jitter each order's date a little. Per-order
    // line counts are random, so keep issuing orders (pinned to the
    // window's end once past it) until the target row count is hit.
    for orderkey in 0.. {
        let base = orderkey.min(n_orders - 1) * ORDERDATE_SPAN / n_orders;
        let orderdate = (base + rng.random_range(0u64..=30)).min(ORDERDATE_SPAN - 1);
        let lines = rng.random_range(1u64..=7); // dbgen: 1..7 lineitems
        for _ in 0..lines {
            let shipdate = orderdate + rng.random_range(1u64..=121);
            let commitdate = orderdate + rng.random_range(30u64..=90);
            let receiptdate = shipdate + rng.random_range(1u64..=30);
            rows.push(LineitemDates {
                orderkey,
                shipdate,
                commitdate,
                receiptdate,
            });
            if rows.len() as u64 == config.n_lineitems() {
                return rows;
            }
        }
    }
    unreachable!("the order loop only exits by reaching the target row count")
}

/// Materialize the lineitems into a heap file **ordered on shipdate**,
/// the §6.4 physical design ("the indexed attribute is shipdate on
/// which the tuples are ordered").
pub fn build_heap_by_shipdate(config: &TpchConfig) -> HeapFile {
    let mut rows = generate_lineitem_dates(config);
    rows.sort_by_key(|r| (r.shipdate, r.orderkey));
    build_heap(config, &rows)
}

fn build_heap(config: &TpchConfig, rows: &[LineitemDates]) -> HeapFile {
    let layout = TupleLayout::new(config.tuple_size);
    let mut heap = HeapFile::new(layout);
    let mut buf = vec![0u8; config.tuple_size];
    for r in rows {
        layout.write_attr(&mut buf, SHIPDATE, r.shipdate);
        layout.write_attr(&mut buf, COMMITDATE, r.commitdate);
        layout.write_attr(&mut buf, RECEIPTDATE, r.receiptdate);
        layout.write_attr(&mut buf, ORDERKEY, r.orderkey);
        heap.append(&buf);
    }
    heap
}

/// Distinct shipdates present, ascending (the probe universe of the
/// Figure-11 hit-rate experiment).
pub fn shipdate_domain(rows: &[LineitemDates]) -> Vec<u64> {
    let mut dates: Vec<u64> = rows.iter().map(|r| r.shipdate).collect();
    dates.sort_unstable();
    dates.dedup();
    dates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchConfig {
        TpchConfig::scaled(0.01) // 60k rows
    }

    #[test]
    fn row_count_scales() {
        let rows = generate_lineitem_dates(&small());
        assert_eq!(rows.len(), 60_000);
    }

    #[test]
    fn zero_scale_terminates_with_no_rows() {
        assert!(generate_lineitem_dates(&TpchConfig::scaled(0.0)).is_empty());
    }

    #[test]
    fn date_derivations_hold() {
        for r in generate_lineitem_dates(&small()) {
            assert!(r.shipdate > 0);
            assert!(r.receiptdate > r.shipdate);
            assert!(r.receiptdate - r.shipdate <= 30);
            // commitdate within [orderdate+30, orderdate+90] and
            // shipdate within [orderdate+1, orderdate+121]: so the two
            // never drift more than 120 days apart.
            assert!(r.commitdate.abs_diff(r.shipdate) <= 120);
        }
    }

    #[test]
    fn implicit_clustering_in_creation_order() {
        // Figure 1(a): in creation order the shipdate is *almost*
        // sorted — long-range trend dominates short-range jitter.
        let rows = generate_lineitem_dates(&small());
        let n = rows.len();
        let early_avg: f64 = rows[..n / 10]
            .iter()
            .map(|r| r.shipdate as f64)
            .sum::<f64>()
            / (n / 10) as f64;
        let late_avg: f64 = rows[n - n / 10..]
            .iter()
            .map(|r| r.shipdate as f64)
            .sum::<f64>()
            / (n / 10) as f64;
        assert!(
            late_avg > early_avg + 1000.0,
            "early {early_avg}, late {late_avg}"
        );
    }

    #[test]
    fn per_date_cardinality_at_sf1_scale() {
        // ~2400 per distinct date at SF1; at SF 0.01 expect ~24.
        let rows = generate_lineitem_dates(&small());
        let distinct = shipdate_domain(&rows).len() as f64;
        let card = rows.len() as f64 / distinct;
        assert!((15.0..=35.0).contains(&card), "card = {card}");
    }

    #[test]
    fn heap_by_shipdate_is_sorted() {
        let heap = build_heap_by_shipdate(&small());
        let mut prev = 0u64;
        for (_, _, d) in heap.iter_attr(SHIPDATE) {
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(heap.tuple_count(), 60_000);
        assert_eq!(heap.tuples_per_page(), 20); // 4096 / 200
    }

    #[test]
    fn deterministic() {
        let a = generate_lineitem_dates(&small());
        let b = generate_lineitem_dates(&small());
        assert_eq!(a, b);
    }
}
