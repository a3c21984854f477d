//! Key-prefix compression size accounting (Bayer & Unterauer's prefix
//! B-trees, the paper's `[6, 20]`).
//!
//! The Figure 4 model compares BF-Tree sizes against a *compressed*
//! B+-Tree. Rather than hard-coding the paper's "about 10%" figure, we
//! compute the compressed leaf footprint honestly: within each leaf,
//! a key is stored as its distinguishing suffix relative to its
//! predecessor (front-coding), i.e. one length byte plus the bytes
//! after the shared prefix; the page's common prefix is stored once.

/// Number of leading bytes shared by `a` and `b` (big-endian byte
/// order, so shared numeric prefixes compress).
fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Compute the number of leaf pages a front-coded B+-Tree needs for
/// `keys` (sorted, possibly deduplicated), with `key_size`-byte keys,
/// `ptr_size`-byte pointers and `page_size`-byte pages.
///
/// Every entry costs `1 (length byte) + suffix + ptr_size`; the first
/// entry of each page stores a full key.
pub fn prefix_compressed_leaf_pages(
    keys: impl IntoIterator<Item = u64>,
    key_size: usize,
    ptr_size: usize,
    page_size: usize,
) -> u64 {
    let mut pages = 0u64;
    let mut used = 0usize;
    let mut prev: Option<[u8; 8]> = None;
    for key in keys {
        let be = key.to_be_bytes();
        let suffix = match prev {
            // A key wider than 8 bytes is its u64 payload left-padded
            // with zeros, so the padding is always shared; only the
            // differing tail of the 8 payload bytes is stored.
            Some(p) => 8 - shared_prefix_len(&p, &be),
            None => key_size,
        };
        let cost = 1 + suffix + ptr_size;
        if used + cost > page_size || used == 0 {
            pages += 1;
            used = 1 + key_size + ptr_size; // full key on a fresh page
        } else {
            used += cost;
        }
        prev = Some(be);
    }
    pages.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_keys_compress_hard() {
        // Sequential u64 keys share 7 leading bytes almost always.
        let plain_entry = 8 + 8;
        let n = 100_000u64;
        let plain_pages = (n * plain_entry as u64).div_ceil(4096);
        // Entry cost drops from 16 B to ~10 B (the 8 B pointer is
        // incompressible), so expect roughly a 10/16 ratio.
        let compressed = prefix_compressed_leaf_pages(0..n, 8, 8, 4096);
        let ratio = compressed as f64 / plain_pages as f64;
        assert!(ratio < 0.70, "ratio = {ratio}");
    }

    #[test]
    fn figure4_keys_reach_order_of_magnitude() {
        // Fig. 4: 32 B keys, 8 B ptrs; compressed tree ≈ 10 % of plain.
        // Clustered keys (consecutive integers in a 32-byte field) give
        // suffixes of ~1-2 bytes vs 40-byte plain entries.
        let n = 50_000u64;
        let plain_pages = (n * (32 + 8)).div_ceil(4096);
        let compressed = prefix_compressed_leaf_pages(0..n, 32, 8, 4096);
        let ratio = compressed as f64 / plain_pages as f64;
        assert!(ratio < 0.35, "ratio = {ratio}");
    }

    #[test]
    fn sparse_random_keys_compress_little() {
        // Spread keys share almost no prefix.
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let plain_pages = (sorted.len() as u64 * 16).div_ceil(4096);
        let compressed = prefix_compressed_leaf_pages(sorted.iter().copied(), 8, 8, 4096);
        assert!(compressed as f64 > plain_pages as f64 * 0.5);
    }

    #[test]
    fn empty_input_yields_one_page() {
        assert_eq!(
            prefix_compressed_leaf_pages(std::iter::empty(), 8, 8, 4096),
            1
        );
    }
}
