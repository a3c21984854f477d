//! Length-prefixed, CRC-guarded frames over any byte stream.
//!
//! Layout: `len: u32 LE` ‖ `crc32: u32 LE` ‖ `payload: len bytes`,
//! with the same CRC-32 (ISO-HDLC) the WAL uses for its records — one
//! checksum algorithm for everything that crosses a trust boundary.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bftree_wal::crc32;

use crate::NetError;

/// Upper bound on a frame payload (16 MiB) — rejects garbage lengths
/// before they become allocations.
pub const MAX_FRAME: usize = 16 << 20;

/// How long [`poll_readable`] polls before it lets the caller park.
const POLL_BEFORE_PARK: Duration = Duration::from_micros(40);

/// Poll the socket for the peer's next frame, yielding the CPU between
/// polls, for up to [`POLL_BEFORE_PARK`]; then return and let the
/// caller's blocking [`read_frame`] park as before. Both ends call
/// this after handing the conversation over.
///
/// A request is served in a few microseconds on the thread that read
/// it; putting a core to sleep and waking it again costs more than
/// that (loopback round trip on a 2-vCPU guest: 7 us between threads
/// sharing a core, 38 us across two idle cores). A side that parks at
/// once makes every round trip depend on where the scheduler last left
/// the two threads, and throughput then differs by 2x from one second
/// to the next. Polling across the hand-off keeps the waiting core
/// awake for the common short wait. The poll is bounded and yields:
/// an idle connection costs nothing, a busy core is given away at the
/// first poll.
pub(crate) fn poll_readable(reader: &BufReader<TcpStream>) -> std::io::Result<()> {
    if !reader.buffer().is_empty() {
        return Ok(());
    }
    let sock = reader.get_ref();
    sock.set_nonblocking(true)?;
    let start = Instant::now();
    let mut probe = [0u8; 1];
    // Data, EOF and real errors all end the poll; `read_frame` then
    // meets them on the blocking socket.
    while matches!(sock.peek(&mut probe), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
        && start.elapsed() < POLL_BEFORE_PARK
    {
        std::thread::yield_now();
    }
    sock.set_nonblocking(false)
}

/// Write one frame (header + payload) to `w`. Flushing is the
/// caller's business — pipelined clients batch many frames per flush.
/// A payload over [`MAX_FRAME`] is refused with
/// [`ErrorKind::InvalidInput`](std::io::ErrorKind::InvalidInput) and
/// nothing is written: the peer's [`read_frame`] would reject it
/// anyway.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload from `r`, verifying length sanity and
/// checksum. `Ok(None)` on clean EOF at a frame boundary (the peer
/// hung up between requests); mid-frame EOF and checksum mismatches
/// are errors.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NetError> {
    let mut header = [0u8; 8];
    match r.read_exact(&mut header[..1]) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other.map_err(NetError::Io)?,
    }
    r.read_exact(&mut header[1..]).map_err(NetError::Io)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(NetError::Frame {
            why: "frame length exceeds MAX_FRAME",
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(NetError::Io)?;
    if crc32(&payload) != want_crc {
        return Err(NetError::Frame {
            why: "frame checksum mismatch",
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for payload in [&b""[..], b"x", &[0xAB; 1000]] {
            buf.clear();
            write_frame(&mut buf, payload).unwrap();
            let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(got, payload);
        }
    }

    /// Recorded at the parent of the slicing-by-8 `crc32` (byte-loop
    /// checksum): the wire format may not move with the checksum's
    /// implementation.
    #[test]
    fn a_frame_is_byte_identical_to_the_recorded_parent() {
        const HELLO_FRAME: [u8; 19] = [
            0x0B, 0x00, 0x00, 0x00, 0x0B, 0x3C, 0xC5, 0x82, 0x68, 0x65, 0x6C, 0x6C, 0x6F, 0x20,
            0x66, 0x72, 0x61, 0x6D, 0x65,
        ];
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        assert_eq!(buf, HELLO_FRAME);
        let got = read_frame(&mut &HELLO_FRAME[..]).unwrap().unwrap();
        assert_eq!(got, b"hello frame");
    }

    #[test]
    fn oversized_payload_is_refused_without_writing() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "no partial frame on the wire");
        write_frame(&mut buf, &vec![0u8; MAX_FRAME]).unwrap();
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }).unwrap().is_none());

        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let cut = &buf[..buf.len() - 2];
        assert!(matches!(read_frame(&mut { cut }), Err(NetError::Io(_))));
    }

    #[test]
    fn corruption_is_caught() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0x40;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(NetError::Frame { .. })
        ));

        // Absurd length field.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(NetError::Frame { .. })
        ));
    }
}
