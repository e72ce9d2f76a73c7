//! The framed-log primitive: one writer ([`append`]) and one reader
//! ([`Reader`]) for every append-only durable log — the replication
//! journal ([`crate::journal`]), the decision audit log
//! ([`crate::audit`]), the `csp-bar` trajectory, the `csp-obs` span-ring
//! dump and the `csp-harness` sweep checkpoint. Each keeps its own
//! header; after it come frames of one shape, with the head (described
//! per format by a [`Head`]) giving the body length:
//!
//! ```text
//! head[4 or 8] | body | crc u32-le        crc = CRC32c(head ‖ body)
//! ```
//!
//! # Torn tails versus corruption
//!
//! Writers append whole frames and flush, so kill -9 can only leave a
//! file *shorter*; it never rewrites written bytes. Hence one policy:
//!
//! * **Torn tail.** The file ends inside a frame (a short head, body or
//!   CRC): the reader returns every whole frame before it, sets
//!   [`Reader::torn`], and [`Reader::valid_len`] is where the valid data
//!   ends — where an appender truncates before writing more.
//! * **Corrupt.** A complete frame with a wrong CRC, or a head with an
//!   out-of-range length, is a [`Corrupt`] error at that frame's offset,
//!   wherever it sits. An in-range length that runs past the end of the
//!   file is a tear unless a whole frame ends exactly at the end of the
//!   file after it — a tear leaves nothing whole behind it. (Damage that
//!   only lengthens the *last* frame therefore reads as a tear of it,
//!   losing that one frame, as a tear would.)
//!
//! Tails left by power loss, where a filesystem may keep garbage past
//! the last flushed byte, are outside this policy. Each format maps
//! [`Corrupt`] to its own typed error, except the sweep checkpoint: a
//! recomputable cache, it truncates at the damaged frame and recomputes.

use crate::crc32c;
use std::fmt;
use std::io::{self, Read};

/// How one format's frame head gives the body length.
#[derive(Clone, Copy, Debug)]
pub struct Head {
    /// What a frame holds, for error messages ("journal segment").
    pub what: &'static str,
    /// Head size in bytes.
    pub len: usize,
    /// The body length a head of [`len`](Self::len) bytes declares, or
    /// `None` when it is out of range.
    pub body_len: fn(&[u8]) -> Option<usize>,
}

/// Appends one frame to `out`: `head`, the body `fill` appends, and the
/// CRC32c of both — one checksum pass over the bytes just written.
pub fn append(out: &mut Vec<u8>, head: &[u8], fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(head);
    fill(out);
    let crc = crc32c::checksum(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A damaged frame. [`Reader::next_frame`] reports it as the payload of
/// an [`io::ErrorKind::InvalidData`] error; [`Corrupt::of`] recovers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corrupt {
    /// What the frame holds ([`Head::what`]).
    pub what: &'static str,
    /// File offset of the damaged frame's first byte.
    pub offset: u64,
}

impl Corrupt {
    /// The damaged frame `e` reports, if it reports one.
    pub fn of(e: &io::Error) -> Option<&Corrupt> {
        e.get_ref()?.downcast_ref()
    }
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt {} at byte offset {}", self.what, self.offset)
    }
}

impl std::error::Error for Corrupt {}

/// One whole frame read back: its head and its body.
pub type Frame<'a> = (&'a [u8], &'a [u8]);

/// Reads the frames of one log under the [module policy](self).
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
    head: Head,
    /// The current frame: head, body and CRC.
    buf: Vec<u8>,
    valid_len: u64,
    torn: bool,
}

impl<R: Read> Reader<R> {
    /// Reads frames from `inner`, positioned at byte `offset` of the file
    /// (just past the format's header).
    pub fn new(inner: R, head: Head, offset: u64) -> Self {
        Reader {
            inner,
            head,
            buf: Vec::new(),
            valid_len: offset,
            torn: false,
        }
    }

    /// The next whole frame, or `None` at the end of the valid data (a
    /// clean end, or a torn tail — see [`torn`](Self::torn)).
    ///
    /// # Errors
    ///
    /// A [`Corrupt`] frame, or the transport's error.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame<'_>>> {
        let h = self.head.len;
        self.buf.clear();
        let got = (&mut self.inner)
            .take(h as u64)
            .read_to_end(&mut self.buf)?;
        if got < h {
            self.torn |= got > 0;
            return Ok(None);
        }
        let corrupt = Corrupt {
            what: self.head.what,
            offset: self.valid_len,
        };
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, corrupt);
        let Some(n) = (self.head.body_len)(&self.buf) else {
            return Err(corrupt);
        };
        // `take` keeps an in-range length from allocating more than the
        // file holds.
        let rest = n as u64 + 4;
        if (&mut self.inner).take(rest).read_to_end(&mut self.buf)? < rest as usize {
            if self.whole_frame_ends_the_file() {
                return Err(corrupt);
            }
            self.torn = true;
            return Ok(None);
        }
        let (frame, crc) = self.buf.split_at(h + n);
        if crc32c::checksum(frame).to_le_bytes() != crc {
            return Err(corrupt);
        }
        self.valid_len += h as u64 + rest;
        Ok(Some(frame.split_at(h)))
    }

    /// File offset where the valid data ends: past the last whole frame
    /// read so far.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Whether the read ended inside a frame (a torn tail).
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Whether a later whole frame ends exactly at the end of the file,
    /// inside `buf` — a frame that claimed to run past the end.
    fn whole_frame_ends_the_file(&self) -> bool {
        let (h, b) = (self.head.len, &self.buf);
        let Some(end) = b.len().checked_sub(4) else {
            return false;
        };
        (1..(end + 1).saturating_sub(h)).any(|at| {
            (self.head.body_len)(&b[at..at + h]) == Some(end - at - h)
                && crc32c::checksum(&b[at..end]).to_le_bytes() == b[end..]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: Head = Head {
        what: "test frame",
        len: 4,
        body_len: |h| {
            let n = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
            (n <= 64).then_some(n)
        },
    };

    fn log(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for body in bodies {
            append(&mut out, &(body.len() as u32).to_le_bytes(), |b| {
                b.extend_from_slice(body)
            });
        }
        out
    }

    fn bodies(bytes: &[u8]) -> io::Result<(Vec<Vec<u8>>, bool, u64)> {
        let mut r = Reader::new(bytes, HEAD, 0);
        let mut out = Vec::new();
        while let Some((_, body)) = r.next_frame()? {
            out.push(body.to_vec());
        }
        Ok((out, r.torn(), r.valid_len()))
    }

    #[test]
    fn a_tear_keeps_the_whole_frames_before_it() {
        let bytes = log(&[b"ab", b"cde"]);
        let (got, torn, valid) = bodies(&bytes[..bytes.len() - 2]).unwrap();
        assert_eq!((got, torn, valid), (vec![b"ab".to_vec()], true, 10));
        let (got, torn, _) = bodies(&bytes).unwrap();
        assert_eq!((got.len(), torn), (2, false));
    }

    #[test]
    fn damage_anywhere_is_corrupt_at_its_frame() {
        let mut bytes = log(&[b"ab", b"cde"]);
        bytes[15] ^= 1; // the last frame's body
        let err = bodies(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(Corrupt::of(&err).map(|c| c.offset), Some(10));
        assert_eq!(err.to_string(), "corrupt test frame at byte offset 10");
    }

    #[test]
    fn a_damaged_length_running_past_the_end_is_not_a_tear() {
        let mut bytes = log(&[b"ab", b"cde"]);
        bytes[0] = 40; // the first frame now claims to run past the end
        let err = bodies(&bytes).unwrap_err();
        assert_eq!(Corrupt::of(&err).map(|c| c.offset), Some(0));
    }
}
