//! Crash-safe checkpointing of sweep results.
//!
//! Design-space sweeps are hours of pure recomputation if a run dies at
//! 95%. A [`SweepCheckpoint`] makes them resumable: every finished cell is
//! appended to a log file as a CRC32c-guarded record, and a restarted
//! sweep replays the log, skips the finished cells, and appends the rest.
//! Because cells are pure functions of their inputs, a resumed sweep's
//! results are **bitwise identical** to an uninterrupted run's.
//!
//! # File layout
//!
//! ```text
//! header:  "CSPCKPT\x01"  kind[4]  fingerprint u64-le
//! record:  index u32-le  len u32-le  payload[len]  crc32c u32-le
//! ```
//!
//! The `kind` tags the payload type; the `fingerprint` hashes everything
//! the results depend on (suite key, work-item list, code version tag).
//! A checkpoint whose header does not match the running sweep is
//! discarded and restarted — stale results are never resumed into a
//! different sweep. Records are [`csp_trace::frame`] frames; as a
//! recomputable cache the log treats a damaged record like a torn tail,
//! truncating there and recomputing every cell from it on.

use crate::error::HarnessError;
use csp_core::engine::FamilyResult;
use csp_core::{IndexSpec, Scheme, UpdateMode};
use csp_metrics::ConfusionMatrix;
use csp_trace::frame::{self, Head};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::runner::{FamilyCell, SchemeStats};

const MAGIC: &[u8; 8] = b"CSPCKPT\x01";
const HEADER_LEN: u64 = 8 + 4 + 8;
/// Upper bound on one record's payload; anything larger is corruption.
const MAX_PAYLOAD: usize = 1 << 24;

/// Record head: `index u32 | len u32`.
const RECORD_HEAD: Head = Head {
    what: "checkpoint record",
    len: 8,
    body_len: |h| {
        let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize;
        (len <= MAX_PAYLOAD).then_some(len)
    },
};

/// A result type that can be persisted into a sweep checkpoint.
pub trait CheckpointPayload: Sized {
    /// Four bytes distinguishing this payload type on disk.
    const KIND: [u8; 4];

    /// Appends the binary encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value; `None` on any malformation. Must consume the
    /// whole buffer (trailing bytes are malformation too).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Order-insensitive 64-bit fingerprint builder (FNV-1a over
/// length-prefixed parts, so `["ab","c"]` and `["a","bc"]` differ).
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint seeded by a domain tag.
    pub fn new(domain: &str) -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325).push(domain.as_bytes())
    }

    /// Mixes one part into the fingerprint.
    #[must_use]
    pub fn push(mut self, part: &[u8]) -> Self {
        for &b in (part.len() as u64).to_le_bytes().iter().chain(part.iter()) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
        self
    }

    /// Mixes one integer into the fingerprint.
    #[must_use]
    pub fn push_u64(self, value: u64) -> Self {
        self.push(&value.to_le_bytes())
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An append-only log of completed sweep cells.
#[derive(Debug)]
pub struct SweepCheckpoint<T> {
    file: File,
    path: PathBuf,
    _payload: PhantomData<T>,
}

impl<T: CheckpointPayload> SweepCheckpoint<T> {
    /// Opens (or creates) the checkpoint at `path` for a sweep identified
    /// by `fingerprint`, returning the handle plus every `(index, value)`
    /// already completed.
    ///
    /// A file with a different fingerprint, kind or corrupt header is
    /// restarted from scratch; a corrupt record tail is truncated at the
    /// last good record (both are recovery, not errors).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on filesystem failures and
    /// [`HarnessError::Checkpoint`] when the path exists but cannot be
    /// restarted.
    pub fn open(path: &Path, fingerprint: u64) -> Result<(Self, Vec<(usize, T)>), HarnessError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| HarnessError::io(parent, e))?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| HarnessError::io(path, e))?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| HarnessError::io(path, e))?;

        let (completed, good_len) = parse_log::<T>(&bytes, fingerprint);
        if completed.is_empty() && good_len == 0 {
            // Fresh, stale or unusable: restart the log. The read left the
            // cursor at the old end; rewind so the header lands at offset
            // 0 instead of after a zero-filled hole.
            file.set_len(0).map_err(|e| HarnessError::io(path, e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| HarnessError::io(path, e))?;
            write_header::<T>(&mut file, fingerprint).map_err(|e| HarnessError::io(path, e))?;
        } else if (good_len as u64) < bytes.len() as u64 {
            // Torn tail: drop it, keep the good prefix.
            file.set_len(good_len as u64)
                .map_err(|e| HarnessError::io(path, e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| HarnessError::io(path, e))?;
        Ok((
            SweepCheckpoint {
                file,
                path: path.to_path_buf(),
                _payload: PhantomData,
            },
            completed,
        ))
    }

    /// Appends one completed cell and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the append fails; the file then
    /// has, at worst, a torn tail that the next [`open`](Self::open)
    /// truncates.
    pub fn record(&mut self, index: usize, value: &T) -> Result<(), HarnessError> {
        let mut payload = Vec::new();
        value.encode(&mut payload);
        debug_assert!(payload.len() < MAX_PAYLOAD);
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(index as u32).to_le_bytes());
        head[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut record = Vec::with_capacity(12 + payload.len());
        frame::append(&mut record, &head, |body| body.extend_from_slice(&payload));
        let wrap = |e| HarnessError::io(&self.path, e);
        self.file.write_all(&record).map_err(wrap)?;
        self.file.sync_data().map_err(wrap)
    }

    /// The checkpoint's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn write_header<T: CheckpointPayload>(w: &mut File, fingerprint: u64) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&T::KIND)?;
    w.write_all(&fingerprint.to_le_bytes())?;
    w.sync_data()
}

/// Parses a checkpoint log. Returns the completed cells and the byte
/// length of the valid prefix (0 when the header itself is unusable).
fn parse_log<T: CheckpointPayload>(bytes: &[u8], fingerprint: u64) -> (Vec<(usize, T)>, usize) {
    if bytes.len() < HEADER_LEN as usize
        || &bytes[..8] != MAGIC
        || bytes[8..12] != T::KIND
        || bytes[12..20] != fingerprint.to_le_bytes()
    {
        return (Vec::new(), 0);
    }
    let mut frames = frame::Reader::new(&bytes[HEADER_LEN as usize..], RECORD_HEAD, HEADER_LEN);
    let mut completed = Vec::new();
    let mut good = HEADER_LEN;
    while let Ok(Some((head, payload))) = frames.next_frame() {
        let Some(value) = T::decode(payload) else {
            break;
        };
        completed.push((
            u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize,
            value,
        ));
        good = frames.valid_len();
    }
    (completed, good as usize)
}

// ---------------------------------------------------------------------------
// Binary codec helpers.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Forward-only reader over a decode buffer.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.bytes.split_at_checked(n)?;
        self.bytes = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn done(&self) -> bool {
        self.bytes.is_empty()
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &ConfusionMatrix) {
    put_u64(out, m.tp);
    put_u64(out, m.fp);
    put_u64(out, m.tn);
    put_u64(out, m.fn_);
}

fn get_matrix(c: &mut Cursor) -> Option<ConfusionMatrix> {
    Some(ConfusionMatrix {
        tp: c.u64()?,
        fp: c.u64()?,
        tn: c.u64()?,
        fn_: c.u64()?,
    })
}

fn put_matrices(out: &mut Vec<u8>, ms: &[ConfusionMatrix]) {
    put_u32(out, ms.len() as u32);
    for m in ms {
        put_matrix(out, m);
    }
}

fn get_matrices(c: &mut Cursor) -> Option<Vec<ConfusionMatrix>> {
    let n = c.u32()?;
    if n > 4096 {
        return None; // implausible: refuse to allocate on corrupt lengths
    }
    (0..n).map(|_| get_matrix(c)).collect()
}

impl CheckpointPayload for SchemeStats {
    const KIND: [u8; 4] = *b"SCHM";

    fn encode(&self, out: &mut Vec<u8>) {
        // The scheme in the paper's notation: round-trips through the
        // validating parser, so corrupt bytes cannot build an invalid
        // scheme. The mean is derived state, recomputed on decode.
        let spec = self.scheme.to_string();
        put_u32(out, spec.len() as u32);
        out.extend_from_slice(spec.as_bytes());
        put_matrices(out, &self.per_benchmark);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor { bytes };
        let spec_len = c.u32()?;
        if spec_len > 256 {
            return None;
        }
        let spec = std::str::from_utf8(c.take(spec_len as usize)?).ok()?;
        let scheme: Scheme = spec.parse().ok()?;
        let per_benchmark = get_matrices(&mut c)?;
        if !c.done() {
            return None;
        }
        Some(SchemeStats::from_matrices(scheme, per_benchmark))
    }
}

impl CheckpointPayload for FamilyCell {
    const KIND: [u8; 4] = *b"FMLY";

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.index.pid));
        out.push(self.index.pc_bits);
        out.push(u8::from(self.index.dir));
        out.push(self.index.addr_bits);
        out.push(match self.update {
            UpdateMode::Direct => 0,
            UpdateMode::Forwarded => 1,
            UpdateMode::Ordered => 2,
        });
        put_u32(out, self.per_benchmark.len() as u32);
        for f in &self.per_benchmark {
            put_matrices(out, &f.union);
            put_matrices(out, &f.inter);
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut c = Cursor { bytes };
        let pid = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let pc_bits = c.u8()?;
        let dir = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let addr_bits = c.u8()?;
        if pc_bits > IndexSpec::MAX_FIELD_BITS || addr_bits > IndexSpec::MAX_FIELD_BITS {
            return None;
        }
        let update = match c.u8()? {
            0 => UpdateMode::Direct,
            1 => UpdateMode::Forwarded,
            2 => UpdateMode::Ordered,
            _ => return None,
        };
        let benchmarks = c.u32()?;
        if benchmarks > 64 {
            return None;
        }
        let per_benchmark = (0..benchmarks)
            .map(|_| {
                Some(FamilyResult {
                    union: get_matrices(&mut c)?,
                    inter: get_matrices(&mut c)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        if !c.done() {
            return None;
        }
        Some(FamilyCell {
            index: IndexSpec::new(pid, pc_bits, dir, addr_bits),
            update,
            per_benchmark,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csp-ckpt-test-{tag}-{}.bin", std::process::id()))
    }

    fn sample_stats(depth: usize) -> SchemeStats {
        let scheme: Scheme = format!("union(pid+pc8){depth}[forwarded]").parse().unwrap();
        let matrices = (0..7)
            .map(|i| ConfusionMatrix {
                tp: i + depth as u64,
                fp: 2 * i,
                tn: 100 - i,
                fn_: i / 2,
            })
            .collect();
        SchemeStats::from_matrices(scheme, matrices)
    }

    fn assert_same(a: &SchemeStats, b: &SchemeStats) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.per_benchmark, b.per_benchmark);
        assert_eq!(a.mean.pvp.to_bits(), b.mean.pvp.to_bits());
        assert_eq!(a.mean.sensitivity.to_bits(), b.mean.sensitivity.to_bits());
    }

    #[test]
    fn payload_roundtrip_scheme_stats() {
        let stats = sample_stats(3);
        let mut buf = Vec::new();
        stats.encode(&mut buf);
        let back = SchemeStats::decode(&buf).expect("decode");
        assert_same(&stats, &back);
    }

    #[test]
    fn payload_roundtrip_family_cell() {
        let cell = FamilyCell {
            index: IndexSpec::new(true, 6, false, 2),
            update: UpdateMode::Ordered,
            per_benchmark: vec![FamilyResult {
                union: vec![ConfusionMatrix {
                    tp: 1,
                    fp: 2,
                    tn: 3,
                    fn_: 4,
                }],
                inter: vec![ConfusionMatrix::default()],
            }],
        };
        let mut buf = Vec::new();
        cell.encode(&mut buf);
        let back = FamilyCell::decode(&buf).expect("decode");
        assert_eq!(back.index, cell.index);
        assert_eq!(back.update, cell.update);
        assert_eq!(back.per_benchmark, cell.per_benchmark);
    }

    #[test]
    fn corrupt_payload_decodes_to_none_not_panic() {
        let stats = sample_stats(2);
        let mut buf = Vec::new();
        stats.encode(&mut buf);
        for i in 0..buf.len() {
            let mut mutated = buf.clone();
            mutated[i] ^= 0xA5;
            let _ = SchemeStats::decode(&mutated); // must not panic
        }
        assert!(SchemeStats::decode(&[]).is_none());
        assert!(FamilyCell::decode(&[1, 2, 3]).is_none());
    }

    #[test]
    fn open_record_reopen_resumes() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        let fp = Fingerprint::new("test").push_u64(42).finish();
        {
            let (mut ckpt, done) = SweepCheckpoint::<SchemeStats>::open(&path, fp).unwrap();
            assert!(done.is_empty());
            ckpt.record(0, &sample_stats(1)).unwrap();
            ckpt.record(5, &sample_stats(2)).unwrap();
        }
        let (_, done) = SweepCheckpoint::<SchemeStats>::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, 0);
        assert_eq!(done[1].0, 5);
        assert_same(&done[1].1, &sample_stats(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_restarts() {
        let path = temp_path("stale");
        let _ = std::fs::remove_file(&path);
        {
            let (mut ckpt, _) = SweepCheckpoint::<SchemeStats>::open(&path, 1).unwrap();
            ckpt.record(0, &sample_stats(1)).unwrap();
        }
        {
            let (mut ckpt, done) = SweepCheckpoint::<SchemeStats>::open(&path, 2).unwrap();
            assert!(done.is_empty(), "stale checkpoint must not resume");
            ckpt.record(3, &sample_stats(2)).unwrap();
        }
        // The restarted log is itself resumable.
        let (_, done) = SweepCheckpoint::<SchemeStats>::open(&path, 2).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 3);
        assert_same(&done[0].1, &sample_stats(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_clean_prefix_survives() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut ckpt, _) = SweepCheckpoint::<SchemeStats>::open(&path, 7).unwrap();
            ckpt.record(0, &sample_stats(1)).unwrap();
            ckpt.record(1, &sample_stats(2)).unwrap();
        }
        // Tear the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut ckpt, done) = SweepCheckpoint::<SchemeStats>::open(&path, 7).unwrap();
        assert_eq!(done.len(), 1, "only the intact record survives");
        // The log keeps working after recovery.
        ckpt.record(1, &sample_stats(2)).unwrap();
        drop(ckpt);
        let (_, done) = SweepCheckpoint::<SchemeStats>::open(&path, 7).unwrap();
        assert_eq!(done.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_separates_parts() {
        let a = Fingerprint::new("x").push(b"ab").push(b"c").finish();
        let b = Fingerprint::new("x").push(b"a").push(b"bc").finish();
        assert_ne!(a, b);
        assert_ne!(
            Fingerprint::new("x").finish(),
            Fingerprint::new("y").finish()
        );
    }
}
