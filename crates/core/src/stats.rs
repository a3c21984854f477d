//! Probe result and aggregate statistics (Table 3's "false reads per
//! search").

use bftree_storage::PageId;

/// Outcome of one BF-Tree probe (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct ProbeResult {
    /// Matching tuples as `(page id, slot)`.
    pub matches: Vec<(PageId, usize)>,
    /// Data pages fetched.
    pub pages_read: u64,
    /// Data pages fetched that contained no match (Table 3's metric).
    pub false_reads: u64,
    /// Bloom filters tested.
    pub bfs_probed: u64,
    /// Tuples examined while scanning fetched pages.
    pub tuples_scanned: u64,
    /// Leaves visited (≥ 1 unless the key misses the tree's key range).
    pub leaves_visited: u64,
}

impl ProbeResult {
    /// Whether any tuple matched.
    pub fn found(&self) -> bool {
        !self.matches.is_empty()
    }
}

/// Aggregate over many probes.
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    /// Number of probes aggregated.
    pub probes: u64,
    /// Probes with at least one match.
    pub hits: u64,
    /// Total data pages fetched.
    pub pages_read: u64,
    /// Total false reads.
    pub false_reads: u64,
    /// Total filters probed.
    pub bfs_probed: u64,
    /// Total tuples scanned.
    pub tuples_scanned: u64,
}

impl ProbeStats {
    /// Fold one probe into the aggregate.
    pub fn add(&mut self, r: &ProbeResult) {
        self.probes += 1;
        self.hits += u64::from(r.found());
        self.pages_read += r.pages_read;
        self.false_reads += r.false_reads;
        self.bfs_probed += r.bfs_probed;
        self.tuples_scanned += r.tuples_scanned;
    }

    /// Mean false reads per search — Table 3.
    pub fn false_reads_per_search(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.false_reads as f64 / self.probes as f64
    }

    /// Hit rate over the aggregated probes.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.hits as f64 / self.probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_math() {
        let mut s = ProbeStats::default();
        s.add(&ProbeResult {
            matches: vec![(0, 1)],
            pages_read: 3,
            false_reads: 2,
            bfs_probed: 10,
            tuples_scanned: 48,
            leaves_visited: 1,
        });
        s.add(&ProbeResult::default());
        assert_eq!(s.probes, 2);
        assert_eq!(s.hits, 1);
        assert!((s.false_reads_per_search() - 1.0).abs() < 1e-12);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ProbeStats::default();
        assert_eq!(s.false_reads_per_search(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }
}
