//! On-page materialization of a BF-leaf (§4.1: "For simplicity and
//! compatibility with the existing framework, the root, the internal
//! nodes and the leaf nodes have the same size (typically either 4 KB
//! or 8 KB)").
//!
//! [`BfLeaf::to_page_bytes`] lays a leaf out as one fixed-size page:
//! a header carrying the leaf's ranges, `#keys`, sibling pointer, and
//! tombstones, followed by the bit-packed filter block. The page-size
//! invariant is *checked*, not assumed — a leaf whose metadata plus
//! filters exceed the node size is a construction bug, and
//! round-tripping through the image is tested to preserve probe
//! behavior bit-for-bit.
//!
//! Nothing writes these images to a device yet (ROADMAP item 7 gives
//! them that caller). The module stays as the check that a leaf *with
//! its tombstones* fits its node. That holds for evenly divided leaves
//! (`BitAllocation::Uniform`, which every `bfbench` workload builds),
//! so the `size_bytes` behind `bfbench`'s `index_bytes_per_key` counts
//! nodes that really exist. It does not hold for proportionally
//! divided ones, which every paper figure builds: their image also
//! carries the group's `S + 1` member offsets, 8 bytes each, that the
//! leaf's bit budget never pays for: such a leaf needs up to 2.15
//! nodes where `stats().pages` counts one (ROADMAP 12(c)).
//!
//! Layout (little-endian):
//!
//! ```text
//! [magic u32][version u16][flags u16]
//! [min_key u64][max_key u64][min_pid u64][max_pid u64]
//! [n_keys u64][next u32][prev u32][pages_per_bf u64]
//! [n_deleted u32][deleted u64 × n][group_len u32][group bytes...]
//! [zero padding to page_size]
//! ```

use bftree_bloom::BloomGroup;

use crate::config::BfTreeConfig;
use crate::leaf::BfLeaf;

const MAGIC: u32 = 0xBF1E_AF01;
const VERSION: u16 = 1;
/// Sentinel for "no sibling".
const NO_SIBLING: u32 = u32::MAX;

/// Errors materializing or reading a leaf page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageImageError {
    /// Metadata + filters exceed the node size; the leaf cannot be
    /// stored at this page size (the §4.1 invariant would break).
    Overflow {
        /// Bytes the leaf needs.
        need: usize,
        /// Bytes one node provides.
        page_size: usize,
    },
    /// The bytes do not carry a valid leaf image.
    Corrupt(&'static str),
}

impl std::fmt::Display for PageImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageImageError::Overflow { need, page_size } => {
                write!(
                    f,
                    "leaf needs {need} bytes but the node size is {page_size}"
                )
            }
            PageImageError::Corrupt(what) => write!(f, "corrupt leaf image: {what}"),
        }
    }
}

impl std::error::Error for PageImageError {}

impl BfLeaf {
    /// Serialize into exactly `page_size` bytes.
    pub fn to_page_bytes(&self, page_size: usize) -> Result<Vec<u8>, PageImageError> {
        let group_bytes = self.group().to_bytes();
        let mut out = Vec::with_capacity(page_size);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.min_key.to_le_bytes());
        out.extend_from_slice(&self.max_key.to_le_bytes());
        out.extend_from_slice(&self.min_pid.to_le_bytes());
        out.extend_from_slice(&self.max_pid.to_le_bytes());
        out.extend_from_slice(&self.n_keys.to_le_bytes());
        out.extend_from_slice(&self.next.unwrap_or(NO_SIBLING).to_le_bytes());
        out.extend_from_slice(&self.prev.unwrap_or(NO_SIBLING).to_le_bytes());
        out.extend_from_slice(&self.pages_per_bf().to_le_bytes());
        out.extend_from_slice(&(self.deleted.len() as u32).to_le_bytes());
        for &d in &self.deleted {
            out.extend_from_slice(&d.to_le_bytes());
        }
        out.extend_from_slice(&(group_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&group_bytes);
        if out.len() > page_size {
            return Err(PageImageError::Overflow {
                need: out.len(),
                page_size,
            });
        }
        out.resize(page_size, 0);
        Ok(out)
    }

    /// Reconstruct a leaf from a page image written by
    /// [`Self::to_page_bytes`]. `config` supplies the geometry knobs
    /// the image does not carry (it must match the writing tree's).
    pub fn from_page_bytes(data: &[u8], config: &BfTreeConfig) -> Result<Self, PageImageError> {
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], PageImageError> {
            if data.len() < at + n {
                return Err(PageImageError::Corrupt("truncated"));
            }
            let s = &data[at..at + n];
            at += n;
            Ok(s)
        };
        let u32_of = |s: &[u8]| u32::from_le_bytes(s.try_into().expect("4 bytes"));
        let u64_of = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8 bytes"));

        if u32_of(take(4)?) != MAGIC {
            return Err(PageImageError::Corrupt("bad magic"));
        }
        let version = u16::from_le_bytes(take(2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(PageImageError::Corrupt("unknown version"));
        }
        take(2)?; // flags
        let min_key = u64_of(take(8)?);
        let max_key = u64_of(take(8)?);
        let min_pid = u64_of(take(8)?);
        let max_pid = u64_of(take(8)?);
        let n_keys = u64_of(take(8)?);
        let next = u32_of(take(4)?);
        let prev = u32_of(take(4)?);
        let pages_per_bf = u64_of(take(8)?);
        if pages_per_bf == 0 {
            return Err(PageImageError::Corrupt("pages_per_bf = 0"));
        }
        let n_deleted = u32_of(take(4)?) as usize;
        let mut deleted = Vec::with_capacity(n_deleted);
        for _ in 0..n_deleted {
            deleted.push(u64_of(take(8)?));
        }
        let group_len = u32_of(take(4)?) as usize;
        let group = BloomGroup::from_bytes(take(group_len)?)
            .ok_or(PageImageError::Corrupt("filter block"))?;

        let mut leaf = BfLeaf::from_parts(
            min_key,
            max_key,
            min_pid,
            max_pid,
            n_keys,
            group,
            pages_per_bf,
            config,
        );
        leaf.next = (next != NO_SIBLING).then_some(next);
        leaf.prev = (prev != NO_SIBLING).then_some(prev);
        leaf.deleted = deleted;
        Ok(leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::PageId;

    fn sample_leaf(fpp: f64) -> (BfLeaf, BfTreeConfig) {
        let config = BfTreeConfig {
            fpp,
            ..BfTreeConfig::paper_default()
        };
        let pages: Vec<(PageId, Vec<u64>)> = (0..40u64)
            .map(|p| (p + 10, (p * 8..p * 8 + 8).collect()))
            .collect();
        (BfLeaf::from_pages(&config, &pages, 320), config)
    }

    #[test]
    fn round_trip_preserves_probe_behavior() {
        let (mut leaf, config) = sample_leaf(1e-4);
        leaf.next = Some(7);
        leaf.deleted.push(42);
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        assert_eq!(bytes.len(), config.page_size);
        let back = BfLeaf::from_page_bytes(&bytes, &config).expect("valid");
        assert_eq!(back.min_key, leaf.min_key);
        assert_eq!(back.max_key, leaf.max_key);
        assert_eq!((back.min_pid, back.max_pid), (leaf.min_pid, leaf.max_pid));
        assert_eq!(back.n_keys, leaf.n_keys);
        assert_eq!(back.next, Some(7));
        assert!(back.is_deleted(42));
        // Bit-for-bit probe agreement.
        for key in 0..400u64 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            leaf.matching_pages(key, &mut a);
            back.matching_pages(key, &mut b);
            assert_eq!(a, b, "key {key}");
        }
    }

    /// The §4.1 invariant, end to end: every leaf a tree builds with
    /// evenly divided filters materializes within the node size.
    /// Proportionally divided leaves do not (ROADMAP 12(c)): their
    /// image also carries the group's `S + 1` member offsets, which
    /// the leaf's bit budget never pays for — and nothing else spills.
    #[test]
    fn every_leaf_of_a_bulk_tree_fits_one_page() {
        use crate::config::BitAllocation;
        use bftree_storage::{HeapFile, TupleLayout};
        let mut heap = HeapFile::new(TupleLayout::new(256));
        for pk in 0..60_000u64 {
            heap.append_record(pk, pk / 11);
        }
        for bit_allocation in [BitAllocation::Uniform, BitAllocation::Proportional] {
            for fpp in [0.2, 1e-3, 1e-9] {
                let config = BfTreeConfig {
                    fpp,
                    bit_allocation,
                    ..BfTreeConfig::ordered_default()
                };
                let tree =
                    crate::BfTree::bulk_build(config, &heap, bftree_storage::tuple::PK_OFFSET);
                let case = format!("{bit_allocation:?} at fpp {fpp}");
                let mut overflowing = 0;
                for idx in 0..tree.leaf_pages() as u32 {
                    let leaf = tree.leaf(idx);
                    match leaf.to_page_bytes(config.page_size) {
                        Ok(bytes) => assert_eq!(bytes.len(), config.page_size),
                        Err(PageImageError::Overflow { need, page_size })
                            if bit_allocation == BitAllocation::Proportional =>
                        {
                            let offsets = (leaf.group().len() + 1) * 8;
                            assert!(need - offsets <= page_size, "leaf {idx}, {case}");
                            overflowing += 1;
                        }
                        Err(e) => panic!("leaf {idx}, {case}: {e}"),
                    }
                }
                // Pinned: every proportional leaf overflows (the worst
                // image is 8 820 bytes, at fpp 0.2). The fix moves this.
                let expected = match bit_allocation {
                    BitAllocation::Uniform => 0,
                    BitAllocation::Proportional => tree.leaf_pages(),
                };
                assert_eq!(overflowing, expected, "{case}");
            }
        }
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let (leaf, config) = sample_leaf(1e-3);
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            BfLeaf::from_page_bytes(&bad, &config),
            Err(PageImageError::Corrupt(_))
        ));
        // Truncated.
        assert!(BfLeaf::from_page_bytes(&bytes[..40], &config).is_err());
        // Zeroed page.
        assert!(BfLeaf::from_page_bytes(&vec![0u8; config.page_size], &config).is_err());
    }

    #[test]
    fn overflow_is_detected_not_truncated() {
        let (mut leaf, _) = sample_leaf(1e-3);
        // A pathological tombstone list cannot silently spill.
        leaf.deleted = (0..600u64).collect();
        let err = leaf.to_page_bytes(512).expect_err("cannot fit");
        assert!(matches!(err, PageImageError::Overflow { .. }));
        assert!(err.to_string().contains("512"));
    }
}
