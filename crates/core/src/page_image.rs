//! On-page materialization of a BF-leaf (§4.1: "For simplicity and
//! compatibility with the existing framework, the root, the internal
//! nodes and the leaf nodes have the same size (typically either 4 KB
//! or 8 KB)").
//!
//! [`BfLeaf::to_page_bytes`] lays a leaf out as one fixed-size page:
//! a header carrying the leaf's ranges, `#keys`, sibling pointers and
//! delete count, followed by the bit-packed filter block. The page-size
//! invariant is *checked*, not assumed — a leaf whose metadata plus
//! filters exceed the node size is a construction bug, and
//! round-tripping through the image is tested to preserve probe
//! behavior bit-for-bit.
//!
//! Nothing writes these images to a device yet (ROADMAP item 7 gives
//! them that caller). The module stays as the check that a leaf fits
//! its node, however many deletes it absorbed: the deleted tuples are
//! dead in the heap, and the image keeps only their count, a fixed
//! `u32`. That holds for evenly divided leaves
//! (`BitAllocation::Uniform`, which every `bfbench` workload builds),
//! so the `size_bytes` behind `bfbench`'s `index_bytes_per_key` counts
//! nodes that really exist. It does not hold for proportionally
//! divided ones, which every paper figure builds: their image also
//! carries the group's `S + 1` member offsets, 8 bytes each, that the
//! leaf's bit budget never pays for: such a leaf needs up to 2.15
//! nodes where `stats().pages` counts one (ROADMAP 12(c)).
//!
//! Layout (little-endian, through the storage crate's byte codec):
//!
//! ```text
//! [magic u32][version u16][flags u16]
//! [min_key u64][max_key u64][min_pid u64][max_pid u64]
//! [n_keys u64][next u32][prev u32][pages_per_bf u64]
//! [deletes u32][group_len u32][group bytes...]
//! [zero padding to page_size]
//! ```

use bftree_bloom::BloomGroup;
use bftree_storage::codec::{DecodeError, Put, Reader};

use crate::config::BfTreeConfig;
use crate::leaf::BfLeaf;

const MAGIC: u32 = 0xBF1E_AF01;
const VERSION: u16 = 2;
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
    Corrupt(DecodeError),
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

impl From<DecodeError> for PageImageError {
    fn from(e: DecodeError) -> Self {
        PageImageError::Corrupt(e)
    }
}

impl BfLeaf {
    /// Serialize into exactly `page_size` bytes.
    pub fn to_page_bytes(&self, page_size: usize) -> Result<Vec<u8>, PageImageError> {
        let group_bytes = self.group().to_bytes();
        let mut out = Vec::with_capacity(page_size);
        out.put_u32(MAGIC);
        out.put_u16(VERSION);
        out.put_u16(0);
        out.put_u64(self.min_key);
        out.put_u64(self.max_key);
        out.put_u64(self.min_pid);
        out.put_u64(self.max_pid);
        out.put_u64(self.n_keys);
        out.put_u32(self.next.unwrap_or(NO_SIBLING));
        out.put_u32(self.prev.unwrap_or(NO_SIBLING));
        out.put_u64(self.pages_per_bf());
        out.put_u32(self.deletes);
        out.put_bytes(&group_bytes);
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
    /// the image does not carry (it must match the writing tree's; an
    /// image whose `pages_per_bf` differs is refused).
    pub fn from_page_bytes(data: &[u8], config: &BfTreeConfig) -> Result<Self, PageImageError> {
        config.validate();
        let mut r = Reader::new(data);
        if r.u32()? != MAGIC {
            return Err(r.err("bad magic").into());
        }
        if r.u16()? != VERSION {
            return Err(r.err("unknown version").into());
        }
        r.u16()?; // flags
        let (min_key, max_key, min_pid, max_pid) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let n_keys = r.u64()?;
        let sibling = |link: u32| (link != NO_SIBLING).then_some(link);
        let (next, prev) = (sibling(r.u32()?), sibling(r.u32()?));
        let pages_per_bf = config.pages_per_bf;
        if r.u64()? != pages_per_bf {
            return Err(r.err("pages_per_bf differs from the config").into());
        }
        let deletes = r.u32()?;
        let group = BloomGroup::from_bytes(r.prefixed()?).ok_or(r.err("filter block"))?;
        // One filter per `pages_per_bf` pages of `[min_pid, max_pid]`.
        let buckets = max_pid.checked_sub(min_pid).map(|d| d / pages_per_bf + 1);
        if buckets != Some(group.len() as u64) {
            return Err(r.err("page range does not match the filter count").into());
        }
        Ok(BfLeaf {
            min_key,
            max_key,
            min_pid,
            max_pid,
            n_keys,
            next,
            prev,
            deletes,
            group,
            pages_per_bf,
        })
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
        (sample_leaf_of(&config), config)
    }

    /// 320 keys over 40 pages.
    fn sample_leaf_of(config: &BfTreeConfig) -> BfLeaf {
        let pages: Vec<(PageId, Vec<u64>)> = (0..40u64)
            .map(|p| (p + 10, (p * 8..p * 8 + 8).collect()))
            .collect();
        BfLeaf::from_pages(config, &pages, 320)
    }

    #[test]
    fn round_trip_preserves_probe_behavior() {
        let (mut leaf, config) = sample_leaf(1e-4);
        leaf.next = Some(7);
        leaf.deletes = 42;
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        assert_eq!(bytes.len(), config.page_size);
        let back = BfLeaf::from_page_bytes(&bytes, &config).expect("valid");
        assert_eq!(back.min_key, leaf.min_key);
        assert_eq!(back.max_key, leaf.max_key);
        assert_eq!((back.min_pid, back.max_pid), (leaf.min_pid, leaf.max_pid));
        assert_eq!(back.n_keys, leaf.n_keys);
        assert_eq!(back.next, Some(7));
        assert_eq!(back.deletes, 42);
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
                let tree = crate::BfTree::bulk_build(
                    config,
                    &heap,
                    bftree_storage::tuple::PK_OFFSET,
                    0..=u64::MAX,
                );
                let case = format!("{bit_allocation:?} at fpp {fpp}");
                let mut overflowing = 0;
                for idx in 0..tree.leaf_pages() as u32 {
                    let leaf = tree.leaf(idx);
                    match leaf.to_page_bytes(config.page_size) {
                        Ok(bytes) => {
                            assert_eq!(bytes.len(), config.page_size);
                            BfLeaf::from_page_bytes(&bytes, &config).expect("its own image");
                        }
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

    /// Found by `tests/decoder_mutations.rs`: a page range its filters
    /// do not cover decoded, and `n_pages` then underflowed.
    #[test]
    fn a_page_range_the_filters_do_not_cover_is_a_typed_error() {
        let (leaf, config) = sample_leaf(1e-3);
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        let mut inverted = bytes.clone();
        inverted[32..40].copy_from_slice(&(leaf.min_pid - 1).to_le_bytes());
        let mut wider = bytes;
        wider[32..40].copy_from_slice(&(leaf.max_pid + 1).to_le_bytes());
        for image in [inverted, wider] {
            assert!(matches!(
                BfLeaf::from_page_bytes(&image, &config),
                Err(PageImageError::Corrupt(_))
            ));
        }
    }

    /// A proportionally divided leaf's image carries its filters'
    /// member offsets past the leaf's bit budget (ROADMAP 12(c)): the
    /// image that does not fit is refused, not cut.
    #[test]
    fn overflow_is_detected_not_truncated() {
        let config = BfTreeConfig {
            fpp: 1e-3,
            bit_allocation: crate::config::BitAllocation::Proportional,
            ..BfTreeConfig::paper_default()
        };
        let err = sample_leaf_of(&config)
            .to_page_bytes(config.page_size)
            .expect_err("cannot fit");
        assert!(matches!(err, PageImageError::Overflow { .. }));
        assert!(err.to_string().contains("4096"));
    }

    /// A leaf keeps its deletes as one fixed `u32`: 600 deletes in one
    /// leaf, whose keys took 4 800 bytes of its image while the leaf
    /// listed them, leave the image inside its node.
    #[test]
    fn a_leaf_image_fits_its_node_after_600_deletes() {
        use bftree_access::AccessMethod;
        use bftree_storage::tuple::PK_OFFSET;
        use bftree_storage::{Duplicates, HeapFile, Relation, TupleLayout};
        let mut heap = HeapFile::new(TupleLayout::new(256));
        for pk in 0..20_000u64 {
            heap.append_record(pk, pk);
        }
        let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
        let mut tree = crate::BfTree::builder()
            .fpp(1e-3)
            .bit_allocation(crate::config::BitAllocation::Uniform)
            .build(&rel)
            .unwrap();
        assert!(tree.leaf(0).n_keys > 600);
        for key in 0..600 {
            assert_eq!(AccessMethod::delete(&mut tree, key, &rel), Ok(1));
        }
        let (leaf, config) = (tree.leaf(0), tree.config());
        assert_eq!(leaf.deletes, 600);
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        let back = BfLeaf::from_page_bytes(&bytes, config).expect("its own image");
        assert_eq!(back.deletes, 600);
    }

    /// The CRC-32 of `sample_leaf(1e-3)`'s image, in the style of the
    /// heap's page pins: re-record only in a change that means to move
    /// the image. Last re-recorded when the image's list of deleted
    /// keys became one `u32` delete count (version 2): the header's
    /// version and that field moved, the filter block did not.
    #[test]
    fn the_leaf_image_is_byte_identical_to_the_recorded_parent() {
        let (mut leaf, config) = sample_leaf(1e-3);
        leaf.next = Some(7);
        leaf.deletes = 1;
        let bytes = leaf.to_page_bytes(config.page_size).expect("fits");
        assert_eq!(bytes.len(), config.page_size);
        assert_eq!(bftree_storage::codec::crc32(&bytes), 0x56DE_A384);
    }
}
