//! One fault suite for the five framed logs: the replication journal,
//! the decision audit log, the `csp-bar` trajectory, the span-ring dump
//! and the sweep checkpoint. All five are `csp_trace::frame` logs, so
//! one table of formats runs through one set of faults:
//!
//! * truncation at every byte — exactly the items of the whole frames
//!   before the cut, torn exactly when the cut is not on a frame
//!   boundary, and an error (for the checkpoint: a restart) when the cut
//!   is inside the header;
//! * every single-bit flip past the header — the format's typed
//!   corruption error naming the damaged frame (for the checkpoint:
//!   recompute from that frame); inside the header, an error (for the
//!   checkpoint: a restart).
//!
//! It also pins every writer's bytes, so files already on disk stay
//! readable.

use csp_harness::checkpoint::{CheckpointPayload, SweepCheckpoint};
use csp_obs::{SpanRecord, TraceRing};
use csp_trace::audit::{AuditHeader, AuditRecord, AuditWriter};
use csp_trace::fault::Mutation;
use csp_trace::frame::Corrupt;
use csp_trace::journal::{read_journal, JournalHeader, SegmentWriter};
use csp_trace::{crc32c, SharingBitmap};
use std::path::PathBuf;

/// What reading one (possibly damaged) log produced.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    /// The decoded items of the whole frames read, and whether the log
    /// ended in a torn frame.
    Read { items: Vec<String>, torn: bool },
    /// The format's typed corruption error, naming this frame offset.
    Corrupt { offset: usize },
    /// The header is unusable.
    BadHeader,
}

/// A log of three frames: its bytes, and per frame its size and the
/// items the writer was given for it.
struct Log {
    bytes: Vec<u8>,
    frames: [(usize, Vec<String>); 3],
}

/// One framed log format under test.
struct Format {
    name: &'static str,
    /// Writes a [`Log`] through the format's own writer.
    write: fn() -> Log,
    /// Reads a log through the format's own reader.
    read: fn(&[u8]) -> Outcome,
    header_len: usize,
    /// Bytes of each frame's head.
    head_len: usize,
    /// CRC32c of the bytes `write` produces: the on-disk layout.
    golden_crc: u32,
    /// The format is a recomputable cache: damage truncates the log at
    /// the damaged frame instead of failing the read.
    recomputes: bool,
}

fn formats() -> [Format; 5] {
    [
        Format {
            name: "journal",
            write: write_journal,
            read: read_journal_outcome,
            header_len: 8 + 20 + 4,
            head_len: 8,
            golden_crc: 0x8969_4d0c,
            recomputes: false,
        },
        Format {
            name: "audit",
            write: write_audit,
            read: read_audit_outcome,
            header_len: 8 + 4 + 2 + 4 + 4,
            head_len: 4,
            golden_crc: 0xa291_96d4,
            recomputes: false,
        },
        Format {
            name: "bar",
            write: write_bar,
            read: read_bar_outcome,
            header_len: 8 + 4,
            head_len: 4,
            golden_crc: 0x51e0_be41,
            recomputes: false,
        },
        Format {
            name: "spans",
            write: write_spans,
            read: read_spans_outcome,
            header_len: 8 + 4,
            head_len: 4,
            golden_crc: 0xf730_da03,
            recomputes: false,
        },
        Format {
            name: "checkpoint",
            write: write_checkpoint,
            read: read_checkpoint_outcome,
            header_len: 8 + 4 + 8,
            head_len: 8,
            golden_crc: 0x705f_fb1e,
            recomputes: true,
        },
    ]
}

/// Classifies a reader's error: a [`Corrupt`] frame, or a header
/// failure.
fn io_outcome(e: &std::io::Error) -> Outcome {
    match Corrupt::of(e) {
        Some(c) => Outcome::Corrupt {
            offset: c.offset as usize,
        },
        None => Outcome::BadHeader,
    }
}

// ---------------------------------------------------------------------------
// The journal.

fn write_journal() -> Log {
    let header = JournalHeader {
        fingerprint: 0xFEED_F00D,
        start_offset: 77,
        epoch: 3,
    };
    let mut w = SegmentWriter::create(Vec::new(), &header).expect("journal header");
    let segments = [(3, &b"aaabbbccc"[..]), (1, b"dd"), (2, b"eeeeeeee")];
    for (count, records) in segments {
        w.append(count, records).expect("journal segment");
    }
    Log {
        bytes: w.into_inner(),
        frames: segments.map(|(count, r)| (8 + r.len() + 4, vec![format!("{count} {r:?}")])),
    }
}

fn read_journal_outcome(bytes: &[u8]) -> Outcome {
    match read_journal(bytes) {
        Ok(log) => Outcome::Read {
            items: log
                .segments
                .iter()
                .map(|s| format!("{} {:?}", s.count, s.records.as_slice()))
                .collect(),
            torn: log.torn,
        },
        Err(e) => io_outcome(&e),
    }
}

// ---------------------------------------------------------------------------
// The audit log.

fn audit_record(seq: u64) -> AuditRecord {
    AuditRecord {
        seq,
        key: seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        predicted: SharingBitmap::from_bits(0b1010 << seq),
        actual: SharingBitmap::from_bits(0b0110 << seq),
        epoch: 2,
        shard: (seq % 3) as u16,
    }
}

fn write_audit() -> Log {
    let header = AuditHeader {
        fingerprint: 0xA0D1_7000,
        shards: 3,
        sample: 1,
    };
    let segments = [
        vec![audit_record(0), audit_record(1)],
        vec![audit_record(2)],
        vec![audit_record(3), audit_record(4)],
    ];
    let mut w = AuditWriter::create(Vec::new(), &header).expect("audit header");
    for segment in &segments {
        w.append(segment).expect("segment");
    }
    Log {
        bytes: w.into_inner().expect("flush"),
        frames: segments.map(|records| {
            let size = 4 + records.len() * csp_trace::audit::RECORD_LEN + 4;
            (size, records.iter().map(|r| format!("{r:?}")).collect())
        }),
    }
}

fn read_audit_outcome(bytes: &[u8]) -> Outcome {
    match csp_trace::audit::read_audit_log(bytes, Some(0xA0D1_7000)) {
        Ok(log) => Outcome::Read {
            items: log.records.iter().map(|r| format!("{r:?}")).collect(),
            torn: log.torn,
        },
        Err(e) => io_outcome(&e),
    }
}

// ---------------------------------------------------------------------------
// The csp-bar trajectory.

fn bar_record(i: u64) -> csp_bar::BarRecord {
    csp_bar::BarRecord {
        schema: csp_bar::SCHEMA_VERSION,
        fingerprint: 0xB0B0_0000 + i,
        run: format!("run-{i}"),
        unix_ms: 1_700_000_000_000 + i,
        git_rev: "0123abcd".to_string(),
        host: "linux-x86_64-box".to_string(),
        engine: "prepared".to_string(),
        workload: "mp3d".to_string(),
        scheme: "union(pid+pc8)2[direct]".to_string(),
        scale: 0.05,
        seed: i,
        warmup: 1,
        iters: 2,
        shards: 0,
        events: 1000 + i,
        seconds: 0.25,
        events_per_sec: 4000.0,
        samples: vec![0.25, 0.5],
        p50_ns: 1 << 20,
        p99_ns: 1 << 21,
    }
}

fn write_bar() -> Log {
    let records = [bar_record(0), bar_record(1), bar_record(2)];
    let mut bytes = Vec::new();
    csp_bar::record::write_records(&mut bytes, &records).expect("in-memory write");
    Log {
        bytes,
        frames: records.map(|r| (4 + r.to_json().len() + 4, vec![r.to_json()])),
    }
}

fn read_bar_outcome(bytes: &[u8]) -> Outcome {
    match csp_bar::record::read_trajectory(bytes) {
        Ok(t) => Outcome::Read {
            items: t.records.iter().map(csp_bar::BarRecord::to_json).collect(),
            torn: t.valid_len < bytes.len() as u64,
        },
        // The typed error is a message: the frame's offset follows
        // "corrupt measurement record at byte offset".
        Err(e) => match e
            .to_string()
            .split_once("corrupt measurement record at byte offset ")
        {
            Some((_, offset)) => Outcome::Corrupt {
                offset: offset.parse().expect("an offset"),
            },
            None => Outcome::BadHeader,
        },
    }
}

// ---------------------------------------------------------------------------
// The span-ring dump.

fn write_spans() -> Log {
    let spans =
        [(0, None), (1, Some("serve.connection")), (2, None)].map(|(i, parent)| SpanRecord {
            name: "serve.request",
            parent,
            thread: i,
            start_ns: 100 * i,
            dur_ns: 7,
        });
    let ring = TraceRing::new(8);
    ring.set_enabled(true);
    for span in spans.clone() {
        ring.push(span);
    }
    let mut bytes = Vec::new();
    ring.dump(&mut bytes).expect("in-memory dump");
    Log {
        bytes,
        frames: spans.map(|s| (4 + s.to_json().len() + 4, vec![s.to_json()])),
    }
}

fn read_spans_outcome(bytes: &[u8]) -> Outcome {
    match csp_obs::read_dump(bytes) {
        Ok(dump) => Outcome::Read {
            items: dump.lines,
            torn: dump.torn,
        },
        Err(e) => io_outcome(&e),
    }
}

// ---------------------------------------------------------------------------
// The sweep checkpoint.

/// An opaque checkpoint payload.
#[derive(Debug, PartialEq)]
struct Cell(Vec<u8>);

impl CheckpointPayload for Cell {
    const KIND: [u8; 4] = *b"TEST";

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Cell(bytes.to_vec()))
    }
}

const CHECKPOINT_FINGERPRINT: u64 = 0xC4EC_4901_0000_0001;

fn scratch_path() -> PathBuf {
    std::env::temp_dir().join(format!("csp-framed-logs-{}.ckpt", std::process::id()))
}

fn write_checkpoint() -> Log {
    let cells = [(0, &b"first"[..]), (4, b"second cell"), (2, b"3rd")];
    let path = scratch_path();
    let _ = std::fs::remove_file(&path);
    {
        let (mut ckpt, done) =
            SweepCheckpoint::<Cell>::open(&path, CHECKPOINT_FINGERPRINT).expect("fresh");
        assert!(done.is_empty());
        for (index, payload) in cells {
            ckpt.record(index, &Cell(payload.to_vec())).expect("record");
        }
    }
    let bytes = std::fs::read(&path).expect("checkpoint bytes");
    let _ = std::fs::remove_file(&path);
    Log {
        bytes,
        frames: cells.map(|(index, p)| (8 + p.len() + 4, vec![format!("{index} {p:?}")])),
    }
}

/// Opens a checkpoint holding `bytes`. A torn tail shows as the log
/// being truncated; a header the sweep cannot resume shows as a restart.
fn read_checkpoint_outcome(bytes: &[u8]) -> Outcome {
    let path = scratch_path();
    std::fs::write(&path, bytes).expect("write checkpoint");
    let (ckpt, done) = SweepCheckpoint::<Cell>::open(&path, CHECKPOINT_FINGERPRINT).expect("open");
    drop(ckpt);
    let after = std::fs::read(&path).expect("reread checkpoint");
    let _ = std::fs::remove_file(&path);
    if !bytes.starts_with(&after) {
        // Not a prefix of what was there: the log was restarted.
        assert!(done.is_empty(), "a restarted log resumed cells");
        return Outcome::BadHeader;
    }
    Outcome::Read {
        items: done
            .iter()
            .map(|(index, cell)| format!("{index} {:?}", cell.0.as_slice()))
            .collect(),
        torn: after.len() < bytes.len(),
    }
}

// ---------------------------------------------------------------------------
// The faults.

/// A format's log, the offsets where its header and each frame end, and
/// the items of its first `k` frames for `k` in `0..=3`.
fn log(format: &Format) -> (Vec<u8>, Vec<usize>, Vec<Vec<String>>) {
    let Log { bytes, frames } = (format.write)();
    let mut ends = vec![format.header_len];
    let mut prefixes = vec![Vec::new()];
    for (size, items) in frames {
        ends.push(ends[ends.len() - 1] + size);
        let mut prefix = prefixes[prefixes.len() - 1].clone();
        prefix.extend(items);
        prefixes.push(prefix);
    }
    assert_eq!(ends[3], bytes.len(), "{}: frame sizes", format.name);
    (bytes, ends, prefixes)
}

#[test]
fn writers_emit_the_committed_bytes() {
    for format in formats() {
        let (bytes, _, _) = log(&format);
        assert_eq!(
            crc32c::checksum(&bytes),
            format.golden_crc,
            "{}: on-disk layout changed",
            format.name
        );
    }
}

#[test]
fn every_format_reads_its_own_log_whole() {
    for format in formats() {
        let (bytes, _, prefixes) = log(&format);
        let whole = Outcome::Read {
            items: prefixes[3].clone(),
            torn: false,
        };
        assert_eq!((format.read)(&bytes), whole, "{}", format.name);
    }
}

#[test]
fn truncation_at_every_byte_leaves_a_clean_prefix() {
    for format in formats() {
        let (bytes, ends, prefixes) = log(&format);
        for len in 0..bytes.len() {
            let got = (format.read)(&Mutation::Truncate { len }.apply(&bytes));
            let want = if len < format.header_len {
                Outcome::BadHeader
            } else {
                Outcome::Read {
                    items: prefixes[ends.iter().filter(|&&end| end <= len).count() - 1].clone(),
                    torn: !ends.contains(&len),
                }
            };
            assert_eq!(got, want, "{}: cut at {len}", format.name);
        }
    }
}

fn flip(bytes: &[u8], offset: usize, bit: u32) -> Vec<u8> {
    Mutation::Flip {
        offset,
        xor: 1 << bit,
    }
    .apply(bytes)
}

#[test]
fn every_header_bit_flip_is_refused() {
    for format in formats() {
        let (bytes, _, _) = log(&format);
        for offset in 0..format.header_len {
            for bit in 0..8 {
                let got = (format.read)(&flip(&bytes, offset, bit));
                let at = format!("{}: bit {bit} of byte {offset}", format.name);
                assert_eq!(got, Outcome::BadHeader, "{at}");
            }
        }
    }
}

#[test]
fn every_bit_flip_past_the_header_is_corruption_at_its_frame() {
    for format in formats() {
        let (bytes, ends, prefixes) = log(&format);
        let mut read_as_tears = 0;
        for offset in format.header_len..bytes.len() {
            let frame = ends.iter().filter(|&&end| end <= offset).count() - 1;
            let start = ends[frame];
            // Damage is the typed error at the damaged frame; the
            // recomputable checkpoint instead drops that frame and
            // everything after it.
            let corrupt = if format.recomputes {
                Outcome::Read {
                    items: prefixes[frame].clone(),
                    torn: true,
                }
            } else {
                Outcome::Corrupt { offset: start }
            };
            for bit in 0..8 {
                let got = (format.read)(&flip(&bytes, offset, bit));
                if got == corrupt {
                    continue;
                }
                // A flip that lengthens the last frame's declared length
                // past the end of the file is indistinguishable from a
                // tear of that frame, and costs only that frame.
                let tear = Outcome::Read {
                    items: prefixes[2].clone(),
                    torn: true,
                };
                assert!(
                    frame == 2 && offset < start + format.head_len && got == tear,
                    "{}: bit {bit} of byte {offset} read as {got:?}",
                    format.name
                );
                read_as_tears += 1;
            }
        }
        assert!(
            read_as_tears <= 32,
            "{}: {read_as_tears} flips read as tears",
            format.name
        );
    }
}

/// The committed measurement trajectory reads whole.
#[test]
fn committed_trajectory_reads_without_a_tear() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bar/trajectory.bar");
    let bytes = std::fs::read(path).expect("committed trajectory");
    let t = csp_bar::record::read_trajectory(bytes.as_slice()).expect("trajectory reads");
    assert!(!t.records.is_empty());
    assert_eq!(t.valid_len, bytes.len() as u64);
}
