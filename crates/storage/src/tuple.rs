//! Fixed-size tuple layout.
//!
//! The paper's workloads use fixed-size tuples (256 B synthetic, 200 B
//! TPCH, §6.1) whose indexed attributes are fixed-width integers at
//! fixed offsets. [`TupleLayout`] captures that: a tuple size plus
//! named u64 attributes, and helpers to encode/decode them from raw
//! page bytes.

/// Layout of a fixed-size tuple with little-endian u64 attributes at
/// fixed byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleLayout {
    tuple_size: usize,
}

/// Offset of an u64 attribute within a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrOffset(pub usize);

/// Conventional offset of the primary key in all workloads.
pub const PK_OFFSET: AttrOffset = AttrOffset(0);
/// Conventional offset of the secondary attribute (ATT1 / shipdate /
/// timestamp) in all workloads.
pub const ATT1_OFFSET: AttrOffset = AttrOffset(8);

impl TupleLayout {
    /// A layout of `tuple_size` bytes. Must fit the two conventional
    /// attributes (≥ 16 bytes).
    pub fn new(tuple_size: usize) -> Self {
        assert!(tuple_size >= 16, "tuple must hold pk + att1 (16 bytes)");
        Self { tuple_size }
    }

    /// Tuple size in bytes.
    #[inline]
    pub fn tuple_size(&self) -> usize {
        self.tuple_size
    }

    /// How many tuples fit a page of `page_size` bytes.
    #[inline]
    pub fn tuples_per_page(&self, page_size: usize) -> usize {
        page_size / self.tuple_size
    }

    /// Read the u64 attribute at `attr` from `tuple`.
    #[inline]
    pub fn read_attr(&self, tuple: &[u8], attr: AttrOffset) -> u64 {
        debug_assert_eq!(tuple.len(), self.tuple_size);
        u64::from_le_bytes(
            tuple[attr.0..attr.0 + 8]
                .try_into()
                .expect("attribute within tuple"),
        )
    }

    /// Write the u64 attribute at `attr` into `tuple`.
    #[inline]
    pub fn write_attr(&self, tuple: &mut [u8], attr: AttrOffset, value: u64) {
        debug_assert_eq!(tuple.len(), self.tuple_size);
        tuple[attr.0..attr.0 + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Write a whole tuple into `tuple` in place: the conventional
    /// pk/att1 attributes and a deterministic payload fill. The one
    /// definition of a record's bytes — heap appends write it straight
    /// into their page slot, and [`Self::make_tuple`] into a fresh
    /// buffer.
    #[inline]
    pub(crate) fn write_record(&self, tuple: &mut [u8], pk: u64, att1: u64) {
        self.write_attr(tuple, PK_OFFSET, pk);
        self.write_attr(tuple, ATT1_OFFSET, att1);
        // Deterministic non-zero payload so page bytes are realistic.
        for (i, b) in tuple[16..].iter_mut().enumerate() {
            *b = (pk as u8).wrapping_add(i as u8);
        }
    }

    /// Build a tuple with the conventional pk/att1 attributes set and a
    /// deterministic payload fill (`write_record`'s bytes).
    pub fn make_tuple(&self, pk: u64, att1: u64) -> Vec<u8> {
        let mut t = vec![0u8; self.tuple_size];
        self.write_record(&mut t, pk, att1);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_roundtrip() {
        let layout = TupleLayout::new(256);
        let t = layout.make_tuple(0xDEAD_BEEF, 42);
        assert_eq!(layout.read_attr(&t, PK_OFFSET), 0xDEAD_BEEF);
        assert_eq!(layout.read_attr(&t, ATT1_OFFSET), 42);
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn tuples_per_page_matches_paper() {
        // 256 B tuples in 4 KB pages -> 16 tuples (the synthetic R).
        assert_eq!(TupleLayout::new(256).tuples_per_page(4096), 16);
        // 200 B TPCH tuples -> 20 per page.
        assert_eq!(TupleLayout::new(200).tuples_per_page(4096), 20);
    }

    #[test]
    #[should_panic(expected = "tuple must hold")]
    fn rejects_tiny_tuples() {
        TupleLayout::new(8);
    }
}
