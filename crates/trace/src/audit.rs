//! The decision audit log: a canonical, fixed-layout, checksummed record
//! of every prediction a serving engine makes.
//!
//! The paper's methodology rests on exact confusion accounting; the audit
//! log extends that guarantee from the offline sweep to a deployed engine
//! by making each decision *attributable and replayable*. Every scored
//! prediction appends one 42-byte [`AuditRecord`]; an offline verifier
//! (`csp-serve::audit`) later replays the same trace through the prepared
//! engine and proves the recorded stream byte-identical. The codec lives
//! here, next to the trace format, because it shares the same framing
//! discipline ([`crate::io::ChecksumWriter`]) and must stay readable
//! without the serving stack.
//!
//! # Layout
//!
//! ```text
//! magic        [8]  b"CSPAUD1\n"
//! fingerprint  [4]  u32, csp-core version fingerprint (scheme + geometry
//!                   + format revisions); mixing logs across fingerprints
//!                   is rejected
//! shards       [2]  u16, shard count of the recording engine
//! sample       [4]  u32, sampling modulus N (records kept iff
//!                   [`sample_keeps`]`(key, N)`; 0 and 1 mean "keep all")
//! header_crc   [4]  CRC32c of every byte above
//! segments     repeated:
//!     count    [4]  u32, 1..=MAX_AUDIT_SEGMENT
//!     records  [count x 42]:
//!         seq[8] key[8] predicted[8] actual[8] epoch[8] shard[2]
//!     crc      [4]  CRC32c of count + records
//! ```
//!
//! All fields little-endian. `seq` is the *shard-local* decision index
//! (the n-th scored prediction on that shard, counted before sampling), so
//! a sampled log still pins exactly which decisions it describes.
//!
//! # Read semantics
//!
//! Under the [`crate::frame`] policy, a truncated final segment — the
//! normal result of a crash or kill-9 mid-record — is discarded and
//! reported via [`AuditLog::torn`]; every whole prefix remains
//! verifiable. A damaged segment anywhere is corruption and fails the
//! read with [`std::io::ErrorKind::InvalidData`].
//!
//! # Example
//!
//! ```
//! # fn main() -> std::io::Result<()> {
//! use csp_trace::audit::{read_audit_log, AuditHeader, AuditRecord, AuditWriter};
//! use csp_trace::SharingBitmap;
//!
//! let header = AuditHeader { fingerprint: 0xfeed_beef, shards: 3, sample: 1 };
//! let mut buf = Vec::new();
//! let mut w = AuditWriter::create(&mut buf, &header)?;
//! w.append(&[AuditRecord {
//!     seq: 0,
//!     key: 42,
//!     predicted: SharingBitmap::from_bits(0b1010),
//!     actual: SharingBitmap::from_bits(0b0010),
//!     epoch: 1,
//!     shard: 2,
//! }])?;
//! let log = read_audit_log(&mut buf.as_slice(), Some(0xfeed_beef))?;
//! assert_eq!(log.records.len(), 1);
//! assert!(!log.torn);
//! # Ok(())
//! # }
//! ```

use crate::frame::{self, Head};
use crate::io::ChecksumWriter;
use crate::SharingBitmap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CSPAUD1\n";

/// Header bytes: magic, fingerprint, shards, sample, header CRC.
const HEADER_LEN: usize = 8 + 4 + 2 + 4 + 4;

/// Encoded size of one [`AuditRecord`].
pub const RECORD_LEN: usize = 42;

/// Upper bound on records per checksummed segment. Bounds both the
/// bytes-at-risk window on a torn tail and the allocation a hostile
/// `count` field can demand.
pub const MAX_AUDIT_SEGMENT: usize = 16 * 1024;

/// Segment head: the record count, `1..=MAX_AUDIT_SEGMENT`.
const SEGMENT_HEAD: Head = Head {
    what: "audit segment",
    len: 4,
    body_len: |h| {
        let count = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        (1..=MAX_AUDIT_SEGMENT)
            .contains(&count)
            .then_some(count * RECORD_LEN)
    },
};

/// One audited decision, in canonical fixed layout.
///
/// Encoding every field as a fixed-width little-endian integer (bitmaps
/// as their raw `u64` bits) makes "byte-identical" a meaningful claim:
/// two records are equal exactly when their 42-byte encodings are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Shard-local decision index: this was the `seq`-th scored
    /// prediction on `shard`, counted before sampling.
    pub seq: u64,
    /// The predictor key the decision consulted.
    pub key: u64,
    /// The predicted reader bitmap.
    pub predicted: SharingBitmap,
    /// The actual reader bitmap the prediction was scored against.
    pub actual: SharingBitmap,
    /// Replication epoch at emission time (0 when recording offline or
    /// unreplicated).
    pub epoch: u64,
    /// The shard that made the decision.
    pub shard: u16,
}

impl AuditRecord {
    /// Encodes the record into its canonical 42-byte layout.
    pub fn encode(&self) -> [u8; RECORD_LEN] {
        let mut b = [0u8; RECORD_LEN];
        b[0..8].copy_from_slice(&self.seq.to_le_bytes());
        b[8..16].copy_from_slice(&self.key.to_le_bytes());
        b[16..24].copy_from_slice(&self.predicted.bits().to_le_bytes());
        b[24..32].copy_from_slice(&self.actual.bits().to_le_bytes());
        b[32..40].copy_from_slice(&self.epoch.to_le_bytes());
        b[40..42].copy_from_slice(&self.shard.to_le_bytes());
        b
    }

    /// Decodes a record from its canonical layout. Total: every 42-byte
    /// string is a valid record (integrity is the framing CRC's job).
    pub fn decode(b: &[u8; RECORD_LEN]) -> Self {
        let u64_at = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[at..at + 8]);
            u64::from_le_bytes(w)
        };
        AuditRecord {
            seq: u64_at(0),
            key: u64_at(8),
            predicted: SharingBitmap::from_bits(u64_at(16)),
            actual: SharingBitmap::from_bits(u64_at(24)),
            epoch: u64_at(32),
            shard: u16::from_le_bytes([b[40], b[41]]),
        }
    }
}

/// The audit-log header: everything a verifier must agree on before a
/// single record is comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditHeader {
    /// `csp-core` version fingerprint of the recording engine.
    pub fingerprint: u32,
    /// Shard count of the recording engine.
    pub shards: u16,
    /// Sampling modulus: record kept iff [`sample_keeps`]`(key, sample)`.
    pub sample: u32,
}

/// Frames `records` into checksummed segments — the count prefix, the
/// 42-byte record encodings, and the segment CRC32c — appending the
/// bytes to `out`.
///
/// This is the single definition of segment framing:
/// [`AuditWriter::append`] writes exactly these bytes, and callers that
/// must keep checksum work off a shared lock (the live sink, where each
/// shard worker frames its own batch in parallel) frame here first and
/// hand the writer finished bytes via
/// [`AuditWriter::write_framed`].
pub fn frame_segments(records: &[AuditRecord], out: &mut Vec<u8>) {
    out.reserve(records.len() * RECORD_LEN + 8 * records.len().div_ceil(MAX_AUDIT_SEGMENT).max(1));
    for chunk in records.chunks(MAX_AUDIT_SEGMENT) {
        frame::append(out, &(chunk.len() as u32).to_le_bytes(), |body| {
            for r in chunk {
                body.extend_from_slice(&r.encode());
            }
        });
    }
}

/// Streaming writer for an audit log.
///
/// Each [`append`](Self::append) emits one (or more, if over
/// [`MAX_AUDIT_SEGMENT`]) checksummed segments and flushes, so a record
/// handed to the writer is durable-framed before the caller publishes
/// the decision's effects — the same journal-before-effect discipline as
/// replication.
pub struct AuditWriter<W: Write> {
    w: W,
    scratch: Vec<u8>,
}

impl<W: Write> AuditWriter<W> {
    /// Writes the header and returns a writer ready to append records.
    ///
    /// Callers with a file should wrap it in a `BufWriter`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer. Rejects a zero shard
    /// count (no engine has zero shards, and the verifier needs the real
    /// one to split the stream).
    pub fn create(inner: W, header: &AuditHeader) -> io::Result<Self> {
        if header.shards == 0 {
            return Err(bad("audit header shard count must be nonzero"));
        }
        let mut w = ChecksumWriter::new(inner);
        w.write_all(MAGIC)?;
        w.write_all(&header.fingerprint.to_le_bytes())?;
        w.write_all(&header.shards.to_le_bytes())?;
        w.write_all(&header.sample.to_le_bytes())?;
        w.write_section_crc()?;
        w.flush()?;
        Ok(AuditWriter {
            w: w.into_inner(),
            scratch: Vec::new(),
        })
    }

    /// Appends `records` as checksummed segments and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer.
    pub fn append(&mut self, records: &[AuditRecord]) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        frame_segments(records, &mut scratch);
        let result = self.w.write_all(&scratch).and_then(|()| self.w.flush());
        self.scratch = scratch;
        result
    }

    /// Writes already-framed segment bytes (from [`frame_segments`]) and
    /// flushes — the lock-holding half of a caller that framed elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the inner writer.
    pub fn write_framed(&mut self, framed: &[u8]) -> io::Result<()> {
        self.w.write_all(framed)?;
        self.w.flush()
    }

    /// Flushes and returns the inner writer (for callers that need to
    /// fsync the underlying file).
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// A fully-read audit log: header, every intact record, and whether a
/// torn (truncated) final segment was discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditLog {
    /// The log header.
    pub header: AuditHeader,
    /// Every record from fully-checksummed segments, in file order.
    pub records: Vec<AuditRecord>,
    /// `true` if the file ended mid-segment (crash during record); the
    /// partial segment is discarded, the prefix above is trustworthy.
    pub torn: bool,
}

/// Reads an audit log under the [`crate::frame`] policy: a torn tail
/// is tolerated, a damaged segment anywhere is rejected.
///
/// When `expected_fingerprint` is given, a header fingerprint mismatch
/// is rejected before any records are read — the log was recorded by an
/// incompatible engine and byte comparison would be meaningless.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] on a bad magic or header
/// checksum, a fingerprint mismatch, a zero shard count, or a damaged
/// segment (a checksum mismatch or a count outside
/// `1..=`[`MAX_AUDIT_SEGMENT`]), naming its byte offset; other I/O
/// errors propagate.
pub fn read_audit_log<R: Read>(
    mut inner: R,
    expected_fingerprint: Option<u32>,
) -> io::Result<AuditLog> {
    let mut header = [0u8; HEADER_LEN];
    inner.read_exact(&mut header[..8])?;
    if &header[..8] != MAGIC {
        return Err(bad("not an audit log (bad magic)"));
    }
    inner.read_exact(&mut header[8..])?;
    let (fields, crc) = header.split_at(HEADER_LEN - 4);
    if crate::crc32c::checksum(fields).to_le_bytes() != crc {
        return Err(bad("audit header checksum mismatch"));
    }
    let fingerprint = u32::from_le_bytes([fields[8], fields[9], fields[10], fields[11]]);
    let shards = u16::from_le_bytes([fields[12], fields[13]]);
    let sample = u32::from_le_bytes([fields[14], fields[15], fields[16], fields[17]]);
    if shards == 0 {
        return Err(bad("audit header shard count is zero"));
    }
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(bad(&format!(
                "audit log fingerprint {fingerprint:#010x} does not match engine fingerprint {expected:#010x}"
            )));
        }
    }

    let mut frames = frame::Reader::new(inner, SEGMENT_HEAD, HEADER_LEN as u64);
    let mut records = Vec::new();
    while let Some((_, body)) = frames.next_frame()? {
        records.extend(
            body.as_chunks::<RECORD_LEN>()
                .0
                .iter()
                .map(AuditRecord::decode),
        );
    }

    Ok(AuditLog {
        header: AuditHeader {
            fingerprint,
            shards,
            sample,
        },
        records,
        torn: frames.torn(),
    })
}

/// Deterministic sampling predicate: keep `key` under modulus `sample`.
///
/// Hashing the key rather than counting records makes the kept set a
/// pure function of the key, so the offline verifier applies the
/// identical predicate and a sampled log still replays exactly.
/// `sample <= 1` keeps everything.
///
/// The predicate sits on the per-decision serving hot path, so it is one
/// multiply and one compare: [`sample_mix`] against
/// [`sample_threshold`]`(sample)` — no division. Hot loops should hoist
/// the threshold (the emitting shard worker caches it per sink) instead
/// of calling this per key.
pub fn sample_keeps(key: u64, sample: u32) -> bool {
    sample_mix(key) <= sample_threshold(sample)
}

/// The keyed mix [`sample_keeps`] compares against its threshold: one
/// odd-constant (golden-ratio) multiply, a bijection on `u64` whose high
/// bits decorrelate the structured low bits of predictor index keys.
pub fn sample_mix(key: u64) -> u64 {
    key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The largest [`sample_mix`] value kept under modulus `sample` —
/// `u64::MAX / sample`, so roughly one key in `sample` passes.
/// `sample <= 1` keeps every key.
pub fn sample_threshold(sample: u32) -> u64 {
    if sample <= 1 {
        u64::MAX
    } else {
        u64::MAX / u64::from(sample)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64) -> AuditRecord {
        AuditRecord {
            seq,
            key: seq.wrapping_mul(0x1234_5678_9abc_def1),
            predicted: SharingBitmap::from_bits(seq.rotate_left(17)),
            actual: SharingBitmap::from_bits(seq.rotate_right(9)),
            epoch: seq / 3,
            shard: (seq % 5) as u16,
        }
    }

    fn header() -> AuditHeader {
        AuditHeader {
            fingerprint: 0xdead_f00d,
            shards: 5,
            sample: 1,
        }
    }

    fn encode_log(records: &[AuditRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = AuditWriter::create(&mut buf, &header()).expect("create");
        w.append(records).expect("append");
        buf
    }

    #[test]
    fn round_trip() {
        let records: Vec<_> = (0..100).map(record).collect();
        let buf = encode_log(&records);
        let log = read_audit_log(&mut buf.as_slice(), Some(0xdead_f00d)).expect("read");
        assert_eq!(log.header, header());
        assert_eq!(log.records, records);
        assert!(!log.torn);
    }

    #[test]
    fn empty_log_round_trips() {
        let buf = encode_log(&[]);
        let log = read_audit_log(&mut buf.as_slice(), None).expect("read");
        assert!(log.records.is_empty());
        assert!(!log.torn);
    }

    #[test]
    fn multiple_appends_concatenate() {
        let mut buf = Vec::new();
        let mut w = AuditWriter::create(&mut buf, &header()).expect("create");
        w.append(&[record(0), record(1)]).expect("append");
        w.append(&[]).expect("empty append is a no-op");
        w.append(&[record(2)]).expect("append");
        let log = read_audit_log(&mut buf.as_slice(), None).expect("read");
        assert_eq!(log.records, vec![record(0), record(1), record(2)]);
    }

    #[test]
    fn oversized_append_splits_segments() {
        let records: Vec<_> = (0..(MAX_AUDIT_SEGMENT as u64 + 10)).map(record).collect();
        let buf = encode_log(&records);
        let log = read_audit_log(&mut buf.as_slice(), None).expect("read");
        assert_eq!(log.records.len(), records.len());
    }

    #[test]
    fn fingerprint_mismatch_rejected_with_both_values() {
        let buf = encode_log(&[record(0)]);
        let err = read_audit_log(&mut buf.as_slice(), Some(0x0bad_cafe)).expect_err("mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("0xdeadf00d") && msg.contains("0x0badcafe"),
            "{msg}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode_log(&[record(0)]);
        buf[0] ^= 0x40;
        let err = read_audit_log(&mut buf.as_slice(), None).expect_err("magic");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_shards_rejected_on_both_sides() {
        let h = AuditHeader {
            shards: 0,
            ..header()
        };
        let mut buf = Vec::new();
        assert!(AuditWriter::create(&mut buf, &h).is_err());
    }

    #[test]
    fn hostile_segment_count_rejected_without_allocation() {
        let mut buf = encode_log(&[]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_audit_log(&mut buf.as_slice(), None).expect_err("hostile");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn sampling_is_deterministic_and_scales() {
        let keys: Vec<u64> = (0..10_000).map(|i| splitmix64(i) ^ i).collect();
        for sample in [1u32, 2, 8, 64] {
            let kept = keys.iter().filter(|&&k| sample_keeps(k, sample)).count();
            let again = keys.iter().filter(|&&k| sample_keeps(k, sample)).count();
            assert_eq!(kept, again);
            let expected = keys.len() / sample as usize;
            assert!(
                kept.abs_diff(expected) < keys.len() / 10 + 100,
                "sample 1/{sample}: kept {kept}, expected ~{expected}"
            );
        }
        // Structured keys — consecutive values in shifted positions, the
        // real shape of predictor index keys — must still sample near
        // the target rate under the one-multiply mix.
        for shift in [0u32, 12, 24] {
            let structured: Vec<u64> = (1..10_000u64).map(|i| i << shift).collect();
            let kept = structured.iter().filter(|&&k| sample_keeps(k, 16)).count();
            let expected = structured.len() / 16;
            assert!(
                kept.abs_diff(expected) < structured.len() / 10 + 100,
                "shift {shift}: kept {kept}, expected ~{expected}"
            );
        }
        assert!(sample_keeps(7, 0), "0 means keep-all, same as 1");
    }
}
