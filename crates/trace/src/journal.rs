//! Durable journal segment framing: the append-only on-disk log format
//! replication builds on (`csp-serve`).
//!
//! A journal file is a header followed by CRC32c-framed *segments*, each
//! carrying an opaque batch of fixed- or variable-width records the
//! caller defines:
//!
//! ```text
//! file:
//!   magic "CSPJRNL2"
//!   header: fingerprint u32 | start_offset u64 | epoch u64 | crc u32
//!           (crc over the 20 header bytes)
//! segment (repeated):
//!   count u32 | len u32 | records[len] | crc u32           (crc over count, len and records)
//! ```
//!
//! The original `CSPJRNL1` layout (no `epoch` field — a 12-byte header)
//! is still read, reporting `epoch = 0`; new files are always written as
//! `CSPJRNL2`. The epoch is an opaque caller-defined term — replication
//! uses it to fence writes from a deposed leader across a failover.
//!
//! All integers are little-endian, checksums are CRC32c
//! ([`crate::crc32c`]) — the same conventions as the trace format.
//!
//! # Failure model
//!
//! Segments are [`crate::frame`] frames read under that module's one
//! policy. A process killed hard (kill -9) leaves at most one *torn*
//! segment at the tail: [`read_journal`] returns every whole segment
//! before it and reports the cut with [`JournalContents::torn`]. A
//! damaged segment anywhere is a [`frame::Corrupt`] error, never a
//! silently shorter log. A new writer starts a *new* file at the
//! recovered offset instead of appending past the tear.
//!
//! # Example
//!
//! ```
//! use csp_trace::journal::{read_journal, JournalHeader, SegmentWriter};
//!
//! let mut bytes = Vec::new();
//! let header = JournalHeader { fingerprint: 0xFEED, start_offset: 42, epoch: 3 };
//! let mut w = SegmentWriter::create(&mut bytes, &header)?;
//! w.append(2, b"ab")?;
//! w.append(1, b"c")?;
//! let back = read_journal(bytes.as_slice())?;
//! assert_eq!(back.header.start_offset, 42);
//! assert_eq!(back.header.epoch, 3);
//! assert_eq!(back.segments.len(), 2);
//! assert!(!back.torn);
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::crc32c;
use crate::frame::{self, Head};
use std::io::{self, Read, Write};

/// Identifies a journal file written by this crate (format version 2,
/// with an epoch field in the header).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CSPJRNL2";

/// The original format-version-1 magic: same framing, but a 12-byte
/// header with no epoch field. Still readable ([`read_journal`] reports
/// `epoch = 0`); never written.
pub const JOURNAL_MAGIC_V1: &[u8; 8] = b"CSPJRNL1";

/// Hard ceiling on one segment's record bytes: a longer length field is
/// corruption.
pub const MAX_SEGMENT_BYTES: usize = 1 << 24;

/// Segment head: `count u32 | len u32`.
const SEGMENT_HEAD: Head = Head {
    what: "journal segment",
    len: 8,
    body_len: |h| {
        let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize;
        (len <= MAX_SEGMENT_BYTES).then_some(len)
    },
};

/// The self-describing prefix of a journal file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Caller-defined compatibility fingerprint; a reader that expects a
    /// different fingerprint must treat the file as foreign.
    pub fingerprint: u32,
    /// The logical offset (in records) of the first record in this file.
    pub start_offset: u64,
    /// Caller-defined epoch (fencing term) the records were written
    /// under. `0` for files recovered from the v1 format.
    pub epoch: u64,
}

/// One decoded segment: `count` records packed into `records` (the
/// caller defines the record encoding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSegment {
    /// Number of records in this segment.
    pub count: u32,
    /// The packed record bytes.
    pub records: Vec<u8>,
}

/// Everything [`read_journal`] recovered from one file.
#[derive(Clone, Debug)]
pub struct JournalContents {
    /// The file header.
    pub header: JournalHeader,
    /// Whole, checksum-verified segments, in append order.
    pub segments: Vec<JournalSegment>,
    /// `true` when the file ended inside a segment (a torn tail) that
    /// was discarded — the recovered prefix is still trustworthy.
    pub torn: bool,
}

impl JournalContents {
    /// Total records across the recovered segments.
    pub fn record_count(&self) -> u64 {
        self.segments.iter().map(|s| u64::from(s.count)).sum()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends CRC32c-framed segments to a journal, flushing after each so a
/// hard kill loses at most the segment being written.
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    inner: W,
    /// The segment being framed, reused across appends.
    scratch: Vec<u8>,
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the magic and header, returning a writer positioned for
    /// the first segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn create(mut inner: W, header: &JournalHeader) -> io::Result<Self> {
        inner.write_all(JOURNAL_MAGIC)?;
        let mut fields = [0u8; 20];
        fields[..4].copy_from_slice(&header.fingerprint.to_le_bytes());
        fields[4..12].copy_from_slice(&header.start_offset.to_le_bytes());
        fields[12..].copy_from_slice(&header.epoch.to_le_bytes());
        inner.write_all(&fields)?;
        inner.write_all(&crc32c::checksum(&fields).to_le_bytes())?;
        inner.flush()?;
        Ok(SegmentWriter {
            inner,
            scratch: Vec::new(),
        })
    }

    /// Appends one segment of `count` records packed into `records` and
    /// flushes, so the segment is out of this process's hands when the
    /// call returns.
    ///
    /// # Errors
    ///
    /// Rejects segments over [`MAX_SEGMENT_BYTES`]; propagates I/O
    /// errors.
    pub fn append(&mut self, count: u32, records: &[u8]) -> io::Result<()> {
        if records.len() > MAX_SEGMENT_BYTES {
            return Err(bad(format!(
                "segment of {} bytes exceeds the {MAX_SEGMENT_BYTES}-byte limit",
                records.len()
            )));
        }
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&count.to_le_bytes());
        head[4..].copy_from_slice(&(records.len() as u32).to_le_bytes());
        self.scratch.clear();
        frame::append(&mut self.scratch, &head, |out| {
            out.extend_from_slice(records)
        });
        self.inner.write_all(&self.scratch)?;
        self.inner.flush()
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads a journal under the [`crate::frame`] policy: every whole
/// segment before a torn tail is returned and the tear is reported as
/// [`JournalContents::torn`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] carrying a [`frame::Corrupt`] for a
/// damaged segment, naming its byte offset; `InvalidData` when the magic
/// or the *header* is bad (nothing can be trusted then); transport
/// errors propagate.
pub fn read_journal<R: Read>(mut r: R) -> io::Result<JournalContents> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let header_len = if &magic == JOURNAL_MAGIC {
        20
    } else if &magic == JOURNAL_MAGIC_V1 {
        12
    } else {
        return Err(bad("not a journal file (bad magic)"));
    };
    let mut fields = [0u8; 20];
    r.read_exact(&mut fields[..header_len])?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    if u32::from_le_bytes(crc_bytes) != crc32c::checksum(&fields[..header_len]) {
        return Err(bad("journal header checksum mismatch"));
    }
    let header = JournalHeader {
        fingerprint: u32::from_le_bytes([fields[0], fields[1], fields[2], fields[3]]),
        start_offset: u64::from_le_bytes([
            fields[4], fields[5], fields[6], fields[7], fields[8], fields[9], fields[10],
            fields[11],
        ]),
        // v1 headers stop at the start offset; they predate epochs.
        epoch: u64::from_le_bytes([
            fields[12], fields[13], fields[14], fields[15], fields[16], fields[17], fields[18],
            fields[19],
        ]),
    };
    let mut frames = frame::Reader::new(r, SEGMENT_HEAD, (8 + header_len + 4) as u64);
    let mut segments = Vec::new();
    while let Some((head, records)) = frames.next_frame()? {
        segments.push(JournalSegment {
            count: u32::from_le_bytes([head[0], head[1], head[2], head[3]]),
            records: records.to_vec(),
        });
    }
    Ok(JournalContents {
        header,
        segments,
        torn: frames.torn(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut bytes = Vec::new();
        let header = JournalHeader {
            fingerprint: 0xDEAD_BEEF,
            start_offset: 1_000,
            epoch: 7,
        };
        let mut w = SegmentWriter::create(&mut bytes, &header).unwrap();
        w.append(3, b"aaabbbccc").unwrap();
        w.append(1, b"dd").unwrap();
        w.append(2, b"eeee").unwrap();
        bytes
    }

    #[test]
    fn round_trips_header_and_segments() {
        let back = read_journal(sample().as_slice()).unwrap();
        assert_eq!(back.header.fingerprint, 0xDEAD_BEEF);
        assert_eq!(back.header.start_offset, 1_000);
        assert_eq!(back.header.epoch, 7);
        assert!(!back.torn);
        assert_eq!(back.record_count(), 6);
        assert_eq!(
            back.segments,
            vec![
                JournalSegment {
                    count: 3,
                    records: b"aaabbbccc".to_vec()
                },
                JournalSegment {
                    count: 1,
                    records: b"dd".to_vec()
                },
                JournalSegment {
                    count: 2,
                    records: b"eeee".to_vec()
                },
            ]
        );
    }

    #[test]
    fn empty_journal_is_valid() {
        let mut bytes = Vec::new();
        let header = JournalHeader {
            fingerprint: 7,
            start_offset: 0,
            epoch: 1,
        };
        SegmentWriter::create(&mut bytes, &header).unwrap();
        let back = read_journal(bytes.as_slice()).unwrap();
        assert!(back.segments.is_empty());
        assert!(!back.torn);
    }

    /// Hand-writes a v1 file (12-byte header, `CSPJRNL1` magic) and
    /// requires the reader to recover it with `epoch = 0`.
    #[test]
    fn v1_journals_still_read_with_epoch_zero() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC_V1);
        let mut fields = [0u8; 12];
        fields[..4].copy_from_slice(&0xFEED_FACEu32.to_le_bytes());
        fields[4..].copy_from_slice(&99u64.to_le_bytes());
        bytes.extend_from_slice(&fields);
        bytes.extend_from_slice(&crc32c::checksum(&fields).to_le_bytes());
        // Segment framing is identical in both versions.
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&2u32.to_le_bytes());
        head[4..].copy_from_slice(&4u32.to_le_bytes());
        let mut crc = crc32c::Hasher::new();
        crc.update(&head);
        crc.update(b"wxyz");
        bytes.extend_from_slice(&head);
        bytes.extend_from_slice(b"wxyz");
        bytes.extend_from_slice(&crc.finalize().to_le_bytes());
        let back = read_journal(bytes.as_slice()).unwrap();
        assert_eq!(back.header.fingerprint, 0xFEED_FACE);
        assert_eq!(back.header.start_offset, 99);
        assert_eq!(back.header.epoch, 0);
        assert!(!back.torn);
        assert_eq!(back.segments.len(), 1);
        assert_eq!(back.segments[0].records, b"wxyz");
    }

    #[test]
    fn hostile_segment_length_is_corrupt_without_allocating() {
        let mut bytes = Vec::new();
        let header = JournalHeader {
            fingerprint: 1,
            start_offset: 0,
            epoch: 1,
        };
        let mut w = SegmentWriter::create(&mut bytes, &header).unwrap();
        w.append(1, b"x").unwrap();
        // Forge a segment header claiming u32::MAX record bytes: the
        // length is refused before any body is read or allocated.
        let forged_at = bytes.len() as u64;
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        let err = read_journal(bytes.as_slice()).unwrap_err();
        let corrupt = frame::Corrupt::of(&err).map(|c| c.offset);
        assert_eq!(corrupt, Some(forged_at));
    }

    #[test]
    fn oversized_append_is_rejected() {
        let mut bytes = Vec::new();
        let header = JournalHeader {
            fingerprint: 1,
            start_offset: 0,
            epoch: 1,
        };
        let mut w = SegmentWriter::create(&mut bytes, &header).unwrap();
        let big = vec![0u8; MAX_SEGMENT_BYTES + 1];
        assert!(w.append(1, &big).is_err());
    }
}
