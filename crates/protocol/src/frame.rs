//! Length-prefixed framing over any byte stream.
//!
//! A frame is `[len: u32 LE][payload: len bytes]`. `len` counts only the
//! payload. Zero-length frames are illegal (every message has at least a
//! kind byte); frames over [`crate::MAX_FRAME`] are rejected *before* the
//! payload is read, so a hostile length field cannot make the reader
//! allocate unboundedly.

use std::io::{self, IoSlice, Read, Write};
use std::time::Instant;

use crate::MAX_FRAME;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes clean EOF between frames,
    /// surfaced as `UnexpectedEof` mid-frame).
    Io(io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The length field exceeds [`MAX_FRAME`] or is zero.
    BadLength(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadLength(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame, then flushes. The length and the payload go out in
/// one vectored write, so on a `TCP_NODELAY` socket a small frame is one
/// syscall and one segment, and the peer wakes once per frame. A short
/// write is finished with `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
    let header = (payload.len() as u32).to_le_bytes();
    let written = loop {
        match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            r => break r?,
        }
    };
    if written < header.len() {
        w.write_all(&header[written..])?;
        w.write_all(payload)?;
    } else {
        w.write_all(&payload[written - header.len()..])?;
    }
    w.flush()
}

/// Reads one frame's payload. Distinguishes a clean close (EOF before any
/// length byte) from a truncated frame (EOF after some bytes), and rejects
/// an oversized or zero length without reading the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::BadLength(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// True for the error a read returns when the socket's read timeout
/// expires (`WouldBlock` on Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// [`read_frame`] for a socket whose read timeout is a short poll, called
/// once the frame has started arriving: a read that times out is retried
/// until `deadline` (with `None`, until the frame is complete or the
/// stream fails), so the poll cannot tear a frame.
pub fn read_frame_by(r: &mut impl Read, deadline: Option<Instant>) -> Result<Vec<u8>, FrameError> {
    read_frame(&mut Patient { inner: r, deadline })
}

/// Retries timed-out reads until a deadline.
struct Patient<'a, R> {
    inner: &'a mut R,
    deadline: Option<Instant>,
}

impl<R: Read> Read for Patient<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if is_timeout(&e) && self.deadline.is_none_or(|d| Instant::now() < d) => {}
                r => return r,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, &[0xff; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xff; 300]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    /// Counts write calls; each accepts at most `max` bytes.
    struct Counting {
        max: usize,
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.max - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_and_short_writes_still_frame() {
        for max in [1, 3, 4, 6, usize::MAX] {
            let mut w = Counting {
                max,
                writes: 0,
                bytes: Vec::new(),
            };
            write_frame(&mut w, b"hello").unwrap();
            if max == usize::MAX {
                assert_eq!(w.writes, 1);
            }
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap(), b"hello");
        }
    }

    /// Yields its bytes one chunk per read, timing out between chunks.
    struct Stalling(Vec<Vec<u8>>);

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.first_mut() {
                None => Ok(0),
                Some(chunk) if chunk.is_empty() => {
                    self.0.remove(0);
                    Err(io::ErrorKind::WouldBlock.into())
                }
                Some(chunk) => {
                    let n = buf.len().min(chunk.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn read_frame_by_retries_timeouts_until_the_deadline() {
        let chunks = || {
            Stalling(vec![
                vec![5, 0],
                vec![],
                vec![0, 0, b'h'],
                vec![],
                b"ello".to_vec(),
            ])
        };
        assert_eq!(read_frame_by(&mut chunks(), None).unwrap(), b"hello");
        let past = Some(Instant::now());
        assert!(matches!(
            read_frame_by(&mut chunks(), past),
            Err(FrameError::Io(e)) if is_timeout(&e)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadLength(_))
        ));
    }

    #[test]
    fn zero_length_is_rejected() {
        let buf = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadLength(0))
        ));
    }

    #[test]
    fn truncated_payload_is_an_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 promised bytes
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn truncated_length_is_an_io_error() {
        let buf = [5u8, 0];
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }
}
