//! The one checked byte codec. Leaf images, slot headers, the
//! superblock, log records, wire messages and pagination tokens come
//! from a disk or a peer: they are read through the bounds-checked
//! [`Reader`], whose decoders meet any bytes with a [`DecodeError`],
//! and written through [`Put`], little-endian. One frame, `len u32 ‖
//! crc32 u32 ‖ payload`, carries both log records and wire messages,
//! and one checksum, [`crc32`], guards frames and page slots.

/// Why a decoder refused its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset into the decoded bytes the reader had reached.
    pub at: usize,
    /// What was wrong. Wire replies carry this string to the peer.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes consumed so far.
    pub fn at(&self) -> usize {
        self.at
    }

    /// An error at the current offset.
    pub fn err(&self, what: &'static str) -> DecodeError {
        DecodeError { at: self.at, what }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.err("message truncated"))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length followed by that many bytes ([`Put::put_bytes`]).
    pub fn prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// `n` elements, each read by `read` and at least `min_size` bytes
    /// long. A count whose elements cannot fit in the remaining bytes
    /// is refused before anything is allocated for it.
    pub fn counted<T>(
        &mut self,
        n: usize,
        min_size: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let fits = n
            .checked_mul(min_size)
            .is_some_and(|need| need <= self.buf.len() - self.at);
        if !fits {
            return Err(self.err("count exceeds the remaining bytes"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// A frame header: the payload's length, at most `max_len` (a
    /// longer one is refused before anything is allocated for it), and
    /// its CRC for [`check_frame`].
    pub fn frame_header(&mut self, max_len: usize) -> Result<(usize, u32), DecodeError> {
        let (len, crc) = (self.u32()? as usize, self.u32()?);
        if len > max_len {
            return Err(self.err("frame length exceeds its limit"));
        }
        Ok((len, crc))
    }

    /// A whole frame — header, payload, checksum — from the slice.
    pub fn frame(&mut self, max_len: usize) -> Result<&'a [u8], DecodeError> {
        let (len, crc) = self.frame_header(max_len)?;
        let payload = self.bytes(len)?;
        check_frame(crc, payload)?;
        Ok(payload)
    }

    /// End of the message: every byte must have been read.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes after message"))
        }
    }
}

/// Little-endian writing: onto a `Vec<u8>`, or in place through a
/// `&mut [u8]` cursor into a fixed-size image, which panics past its
/// end (an encoder sizes its own image).
pub trait Put {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// A `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// A `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// A `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// A `u32` length, then the bytes ([`Reader::prefixed`]).
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put(bytes);
    }
}

impl Put for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Put for &mut [u8] {
    fn put(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        *self = tail;
    }
}

/// Bytes of a frame header: `len u32 ‖ crc32 u32`.
pub const FRAME_HEADER: usize = 8;

/// The header that frames `payload`: its length, then its CRC-32.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER] {
    let mut out = [0u8; FRAME_HEADER];
    let mut w = &mut out[..];
    w.put_u32(payload.len() as u32);
    w.put_u32(crc32(payload));
    out
}

/// Whether `payload` matches the `crc` its frame header carried; a
/// mismatch is reported at the payload's offset in its frame.
pub fn check_frame(crc: u32, payload: &[u8]) -> Result<(), DecodeError> {
    if crc32(payload) == crc {
        return Ok(());
    }
    Err(DecodeError {
        at: FRAME_HEADER,
        what: "frame checksum mismatch",
    })
}

/// Slicing-by-8 tables for CRC-32 (IEEE 802.3, reflected), built at
/// compile time so the crate stays dependency-free. `CRC_TABLES[0]` is
/// the classic byte table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes. One step of eight table lookups feeds
/// eight bytes ([`crc32_step8`]); the lane kernel runs four such
/// chains at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Bytes per lane of the lane kernel.
const CRC_LANE: usize = 256;
/// Independent slicing-by-8 chains per block. Four keep the load
/// ports busy; more measured no faster.
const CRC_LANES: usize = 4;
/// Bytes the lane kernel takes per block; a shorter tail runs as one
/// [`crc32_step8`] chain.
const CRC_BLOCK: usize = CRC_LANES * CRC_LANE;

/// "Advance by one lane of zero bytes": `CRC_SHIFT[k][b]` is the
/// register `b << 8k` after [`CRC_LANE`] zero bytes. Feeding zeros is
/// linear in the register, so four lookups advance any state. Built
/// like [`CRC_TABLES`], by eight-byte steps: over a zero word a step
/// is the four lookups `CRC_TABLES[4..8]` on the register alone.
const CRC_SHIFT: [[u32; 256]; 4] = {
    let t = &CRC_TABLES;
    let mut z = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let mut c = (i as u32) << (8 * k);
            let mut n = 0;
            while n < CRC_LANE / 8 {
                c = t[7][(c & 0xFF) as usize]
                    ^ t[6][(c >> 8 & 0xFF) as usize]
                    ^ t[5][(c >> 16 & 0xFF) as usize]
                    ^ t[4][(c >> 24) as usize];
                n += 1;
            }
            z[k][i] = c;
            i += 1;
        }
        k += 1;
    }
    z
};

/// Feed eight bytes into a running CRC-32 register: one slicing-by-8
/// step.
#[inline(always)]
fn crc32_step8(c: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][(lo >> 8 & 0xFF) as usize]
        ^ t[5][(lo >> 16 & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][(hi >> 8 & 0xFF) as usize]
        ^ t[1][(hi >> 16 & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Advance a register by [`CRC_LANE`] zero bytes.
#[inline(always)]
fn crc32_shift_lane(c: u32) -> u32 {
    let z = &CRC_SHIFT;
    z[0][(c & 0xFF) as usize]
        ^ z[1][(c >> 8 & 0xFF) as usize]
        ^ z[2][(c >> 16 & 0xFF) as usize]
        ^ z[3][(c >> 24) as usize]
}

/// Feed `bytes` into a running (pre-inverted) CRC-32 state. Start
/// from `!0`, invert the result: feeding a buffer in pieces gives the
/// value of feeding it whole.
///
/// Each [`CRC_BLOCK`] runs as [`CRC_LANES`] independent slicing-by-8
/// chains, lane 0 from the running state and the others from 0, so
/// no step waits on the one before it. The register is linear over
/// GF(2), so the block's CRC is the lanes' registers folded left to
/// right, each advanced past the next lane by [`crc32_shift_lane`]
/// before the next is XORed in. The tail under one block takes one
/// chain, eight bytes a step, then a byte at a time.
pub(crate) fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(CRC_BLOCK);
    for block in &mut blocks {
        let mut lanes = [0u32; CRC_LANES];
        lanes[0] = c;
        for i in (0..CRC_LANE).step_by(8) {
            for (l, s) in lanes.iter_mut().enumerate() {
                let at = l * CRC_LANE + i;
                *s = crc32_step8(*s, &block[at..at + 8]);
            }
        }
        c = lanes[1..]
            .iter()
            .fold(lanes[0], |acc, &s| crc32_shift_lane(acc) ^ s);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        c = crc32_step8(c, w);
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3, reflected): the workspace's one checksum
/// (frames here, page slots in [`crate::file`]). Table-driven and
/// portable: whole 1 KiB blocks through the four-lane kernel, the
/// tail through one slicing-by-8 chain; the values are the
/// byte-at-a-time loop's.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The byte-at-a-time loop `crc32` was until slicing-by-8: the
/// reference the lane kernel and its sliced tail are checked against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_bytes(n: usize) -> Vec<u8> {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC2C);
        (0..n).map(|_| rng.random_range(0..=u8::MAX)).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Short lengths take the tail loop alone; `k` blocks give or
    /// take 9 bytes cross every lane-kernel boundary with a tail of
    /// each length class on either side.
    #[test]
    fn sliced_crc32_equals_the_byte_loop_at_every_length_and_alignment() {
        let buf = seeded_bytes(65_539 + 8);
        let block_edges = (1..=3).flat_map(|k| k * CRC_BLOCK - 9..=k * CRC_BLOCK + 9);
        for start in 0..8 {
            for len in (0..=300)
                .chain(block_edges.clone())
                .chain([4_096, 4_116, 4_136, 65_539])
            {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_any_two_way_split_equals_the_one_shot_crc() {
        let buf = seeded_bytes(4_136);
        let whole = crc32(&buf);
        assert_eq!(whole, crc32_bytewise(&buf));
        for cut in 0..=buf.len() {
            let c = crc32_update(crc32_update(!0, &buf[..cut]), &buf[cut..]);
            assert_eq!(!c, whole, "cut at {cut}");
        }
    }

    #[test]
    fn reads_are_bounds_checked_and_finish_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        buf.push(7);
        buf.put_u16(0xBEEF);
        buf.put_u64(u64::MAX - 1);
        buf.put_bytes(b"abc");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.prefixed(), Ok(&b"abc"[..]));
        assert_eq!(r.clone().u8().unwrap_err().at, buf.len());
        r.finish().unwrap();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().map(|_| r.at()), Ok(4));
        assert_eq!(r.finish().unwrap_err().what, "trailing bytes after message");
        assert_eq!(
            Reader::new(&[0xFF; 7]).prefixed().unwrap_err().what,
            "message truncated"
        );
    }

    #[test]
    fn a_count_that_cannot_fit_is_refused_before_allocating() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.counted(2, 8, Reader::u64), Ok(vec![0, 0]));
        let mut r = Reader::new(&bytes);
        for n in [3, usize::MAX / 8 + 1, usize::MAX] {
            let err = r.counted(n, 8, Reader::u64).unwrap_err();
            assert_eq!(err.what, "count exceeds the remaining bytes");
        }
    }

    #[test]
    fn a_frame_round_trips_and_refuses_a_long_length_or_a_flipped_bit() {
        let mut wire = frame_header(b"hello").to_vec();
        wire.put(b"hello");
        assert_eq!(Reader::new(&wire).frame(5), Ok(&b"hello"[..]));
        let long = Reader::new(&wire).frame(4).unwrap_err();
        assert_eq!(long.what, "frame length exceeds its limit");
        wire[FRAME_HEADER] ^= 1;
        let flipped = Reader::new(&wire).frame(5).unwrap_err();
        assert_eq!((flipped.at, flipped.what), (8, "frame checksum mismatch"));
        assert_eq!(frame_header(b""), [0; FRAME_HEADER]);
    }

    #[test]
    fn a_slice_writer_fills_a_fixed_image_in_place() {
        let mut image = [0u8; 6];
        let mut w = &mut image[..];
        w.put_u16(0x0102);
        w.put_u32(0x0304_0506);
        assert!(w.is_empty());
        assert_eq!(image, [2, 1, 6, 5, 4, 3]);
    }
}
