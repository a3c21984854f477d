//! Log record format: checksummed, length-prefixed frames.
//!
//! Every record travels as `[len: u32][crc32: u32][payload: len
//! bytes]`, all little-endian. `len` covers the payload only; the CRC
//! covers the payload only (a corrupt length shows up as a CRC
//! mismatch over whatever bytes it delimits, or as a frame running
//! past the end of the log — both read as a torn tail). The payload is
//! a one-byte tag followed by fixed-width little-endian fields, so
//! records are self-describing and the reader never needs the index.

use bftree_storage::file::crc32;

/// Framing overhead per record: the `len` and `crc32` words.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a payload `len` the reader will believe. Real
/// records are tens of bytes; a length beyond this is garbage read
/// from a torn or overwritten tail, not a record.
pub const MAX_PAYLOAD: usize = 1 << 16;

/// One logical write-ahead-log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// A key became visible at heap location `(page, slot)`.
    Insert {
        /// Indexed attribute value of the new tuple.
        key: u64,
        /// Heap page holding it.
        page: u64,
        /// Slot within the page.
        slot: u64,
    },
    /// Every index entry for `key` was logically removed.
    Delete {
        /// The removed key.
        key: u64,
    },
    /// Recovery metadata. The **first** record of every log is a
    /// checkpoint recording the heap tuple count the base index was
    /// built over (the genesis checkpoint); later checkpoints mark
    /// memtable flushes for observability.
    Checkpoint {
        /// Heap tuples covered by the base index at this point.
        tuple_count: u64,
        /// Buffered operations the flush pushed into the base index
        /// (0 for the genesis checkpoint).
        flushed_ops: u64,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

impl WalRecord {
    /// Serialize the payload (tag + fields, no frame header).
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match *self {
            WalRecord::Insert { key, page, slot } => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&slot.to_le_bytes());
            }
            WalRecord::Delete { key } => {
                out.push(TAG_DELETE);
                out.extend_from_slice(&key.to_le_bytes());
            }
            WalRecord::Checkpoint {
                tuple_count,
                flushed_ops,
            } => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&tuple_count.to_le_bytes());
                out.extend_from_slice(&flushed_ops.to_le_bytes());
            }
        }
    }

    /// Parse a payload produced by [`WalRecord::encode_payload`].
    /// `None` for unknown tags or short fields (corruption that
    /// happened to pass the CRC cannot crash recovery).
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        let word = |i: usize| -> Option<u64> {
            rest.get(i * 8..(i + 1) * 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        };
        match tag {
            TAG_INSERT if rest.len() == 24 => Some(WalRecord::Insert {
                key: word(0)?,
                page: word(1)?,
                slot: word(2)?,
            }),
            TAG_DELETE if rest.len() == 8 => Some(WalRecord::Delete { key: word(0)? }),
            TAG_CHECKPOINT if rest.len() == 16 => Some(WalRecord::Checkpoint {
                tuple_count: word(0)?,
                flushed_ops: word(1)?,
            }),
            _ => None,
        }
    }

    /// Append the full frame (`len`, `crc`, payload) to `log`.
    pub fn encode_frame(&self, log: &mut Vec<u8>) {
        let start = log.len();
        log.extend_from_slice(&[0u8; FRAME_HEADER]);
        self.encode_payload(log);
        let len = (log.len() - start - FRAME_HEADER) as u32;
        let crc = crc32(&log[start + FRAME_HEADER..]);
        log[start..start + 4].copy_from_slice(&len.to_le_bytes());
        log[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip() {
        for rec in [
            WalRecord::Insert {
                key: 42,
                page: 7,
                slot: 3,
            },
            WalRecord::Delete { key: u64::MAX },
            WalRecord::Checkpoint {
                tuple_count: 10_000,
                flushed_ops: 256,
            },
        ] {
            let mut p = Vec::new();
            rec.encode_payload(&mut p);
            assert_eq!(WalRecord::decode_payload(&p), Some(rec));
        }
    }

    #[test]
    fn bad_tags_and_short_fields_decode_to_none() {
        assert!(WalRecord::decode_payload(&[]).is_none());
        assert!(WalRecord::decode_payload(&[9, 0, 0]).is_none());
        let mut p = Vec::new();
        WalRecord::Delete { key: 5 }.encode_payload(&mut p);
        p.pop(); // short field
        assert!(WalRecord::decode_payload(&p).is_none());
    }

    #[test]
    fn frames_carry_length_and_checksum() {
        let mut log = Vec::new();
        WalRecord::Delete { key: 1 }.encode_frame(&mut log);
        assert_eq!(log.len(), FRAME_HEADER + 9);
        let len = u32::from_le_bytes(log[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(log[4..8].try_into().unwrap());
        assert_eq!(len, 9);
        assert_eq!(crc, crc32(&log[8..]));
    }

    /// Recorded at the parent of the slicing-by-8 `crc32` (byte-loop
    /// checksum): the log format may not move with the checksum's
    /// implementation.
    #[test]
    fn record_frames_are_byte_identical_to_the_recorded_parent() {
        const INSERT_42_7_3: [u8; 33] = [
            0x19, 0x00, 0x00, 0x00, 0xDC, 0x6F, 0xD2, 0xCA, 0x01, 0x2A, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        const CHECKPOINT_10000_256: [u8; 25] = [
            0x11, 0x00, 0x00, 0x00, 0x97, 0xAE, 0xE1, 0xC9, 0x03, 0x10, 0x27, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let insert = WalRecord::Insert {
            key: 42,
            page: 7,
            slot: 3,
        };
        let checkpoint = WalRecord::Checkpoint {
            tuple_count: 10_000,
            flushed_ops: 256,
        };
        let mut log = Vec::new();
        insert.encode_frame(&mut log);
        assert_eq!(log, INSERT_42_7_3);
        checkpoint.encode_frame(&mut log);
        assert_eq!(log[INSERT_42_7_3.len()..], CHECKPOINT_10000_256);
        let (records, tail) = crate::WalReader::drain(&log);
        assert_eq!(records, [(33, insert), (58, checkpoint)]);
        assert_eq!(tail, crate::TailState::Clean);
    }
}
