//! The outcome of one probe, with Table 3's false reads.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn found_means_at_least_one_match() {
        assert!(!ProbeResult::default().found());
        let hit = ProbeResult {
            matches: vec![(0, 1)],
            ..ProbeResult::default()
        };
        assert!(hit.found());
    }
}
