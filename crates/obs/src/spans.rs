//! Lightweight structured tracing: RAII spans, thread-local span
//! stacks, and a bounded ring-buffer sink that serializes to
//! checksummed JSONL.
//!
//! A [`span`] guard records wall-clock-free nanosecond timestamps
//! (monotonic, relative to a process-wide epoch) and pushes its name on
//! a thread-local stack so a nested span knows its parent without any
//! global coordination. On drop, the completed [`SpanRecord`] lands in
//! a [`TraceRing`] — a bounded, drop-oldest buffer, so tracing cost is
//! O(1) and memory is fixed no matter how long the process runs.
//!
//! Ring dumps are a [`csp_trace::frame`] log: the file starts with a
//! checksummed magic, then each record is a frame holding one JSON
//! line. A crash mid-write therefore loses at most the torn tail —
//! every earlier span is still verifiable — and a damaged record is an
//! error, under the one policy every durable log shares.
//!
//! Recording is *disabled by default*: an idle `TraceRing` costs one
//! relaxed atomic load per span, which keeps instrumented hot paths
//! near-free when nobody is watching (see `benches/obs.rs`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use csp_trace::crc32c;
use csp_trace::frame::{self, Head};

/// Magic bytes opening a span-ring dump.
pub const RING_MAGIC: &[u8; 8] = b"CSPOBSR1";

/// Magic plus its CRC32c.
const HEADER_LEN: usize = 8 + 4;

/// Record head: the JSON line's length, at most 64 KiB.
const LINE_HEAD: Head = Head {
    what: "span record",
    len: 4,
    body_len: |h| {
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
        (len <= 1 << 16).then_some(len)
    },
};

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static — spans are code locations, not data).
    pub name: &'static str,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Recording thread, as a small process-unique ordinal.
    pub thread: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    /// Span names are static identifiers, so the only escaping needed
    /// is the conservative kind.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"name\":\"");
        push_json_str(&mut s, self.name);
        s.push('"');
        if let Some(parent) = self.parent {
            s.push_str(",\"parent\":\"");
            push_json_str(&mut s, parent);
            s.push('"');
        }
        s.push_str(&format!(
            ",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            self.thread, self.start_ns, self.dur_ns
        ));
        s
    }
}

fn push_json_str(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A bounded, drop-oldest sink for completed spans.
///
/// Disabled by default; [`set_enabled`](Self::set_enabled) turns
/// recording on. When full, the oldest record is dropped and counted —
/// a long-running process keeps the most recent window, which is the
/// one you want after an incident.
#[derive(Debug)]
pub struct TraceRing {
    records: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    enabled: AtomicBool,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            records: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are currently recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record (dropping the oldest if full). No-op while
    /// disabled.
    pub fn push(&self, record: SpanRecord) {
        if !self.enabled() {
            return;
        }
        let mut records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        if records.len() >= self.capacity {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(record);
    }

    /// Copies out the buffered records, oldest first.
    pub fn drain_snapshot(&self) -> Vec<SpanRecord> {
        let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
        records.iter().cloned().collect()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the buffered spans to `w` as checksummed JSONL: a
    /// CRC-framed magic header, then one [`csp_trace::frame`] frame per
    /// record, `len[4] json crc[4]`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn dump<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut out = Vec::new();
        out.extend_from_slice(RING_MAGIC);
        out.extend_from_slice(&crc32c::checksum(RING_MAGIC).to_le_bytes());
        for record in &self.drain_snapshot() {
            let line = record.to_json();
            frame::append(&mut out, &(line.len() as u32).to_le_bytes(), |body| {
                body.extend_from_slice(line.as_bytes())
            });
        }
        w.write_all(&out)
    }
}

/// Everything [`read_dump`] recovered from one dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanDump {
    /// The verified JSON lines, in order.
    pub lines: Vec<String>,
    /// Whether the dump ended inside a record (a torn tail), which was
    /// discarded.
    pub torn: bool,
}

/// Reads a span-ring dump written by [`TraceRing::dump`] under the
/// [`csp_trace::frame`] policy: a torn tail ends the read with every
/// whole record before it.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad magic or header, a
/// damaged record (naming its byte offset) or a record that is not
/// UTF-8, and propagates transport errors.
pub fn read_dump<R: Read>(mut r: R) -> io::Result<SpanDump> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if &header[..8] != RING_MAGIC || crc32c::checksum(RING_MAGIC).to_le_bytes() != header[8..] {
        return Err(invalid(
            "bad magic or header checksum; not a span-ring dump",
        ));
    }
    let mut frames = frame::Reader::new(r, LINE_HEAD, HEADER_LEN as u64);
    let mut lines = Vec::new();
    while let Some((_, line)) = frames.next_frame()? {
        let line = std::str::from_utf8(line).map_err(|_| invalid("span record is not UTF-8"))?;
        lines.push(line.to_string());
    }
    Ok(SpanDump {
        lines,
        torn: frames.torn(),
    })
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The process-wide span ring (capacity 4096), shared by all
/// instrumented subsystems. Disabled until something calls
/// `global_ring().set_enabled(true)` — e.g. `csp-served serve
/// --trace-out`.
pub fn global_ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| TraceRing::new(4096))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first observability use).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An RAII guard recording a span into the global ring on drop.
///
/// Construct with [`span`]. While the guard lives, its name sits on the
/// thread-local span stack, so nested spans record it as their parent.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    armed: bool,
}

/// Opens a span named `name` on the global ring.
///
/// When the ring is disabled (the default) the guard is a stub: no
/// clock read, no stack push — one relaxed load total.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !global_ring().enabled() {
        return SpanGuard {
            name,
            parent: None,
            start_ns: 0,
            armed: false,
        };
    }
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        parent
    });
    SpanGuard {
        name,
        parent,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let record = SpanRecord {
            name: self.name,
            parent: self.parent,
            thread: THREAD_ORDINAL.with(|t| *t),
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        };
        global_ring().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = TraceRing::new(2);
        ring.set_enabled(true);
        for i in 0..4u64 {
            ring.push(SpanRecord {
                name: "s",
                parent: None,
                thread: 0,
                start_ns: i,
                dur_ns: 1,
            });
        }
        let records = ring.drain_snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].start_ns, 2);
        assert_eq!(records[1].start_ns, 3);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = TraceRing::new(8);
        ring.push(SpanRecord {
            name: "s",
            parent: None,
            thread: 0,
            start_ns: 0,
            dur_ns: 0,
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn dump_and_read_round_trip() {
        let ring = TraceRing::new(8);
        ring.set_enabled(true);
        for i in 0..3u64 {
            ring.push(SpanRecord {
                name: "serve.request",
                parent: (i > 0).then_some("serve.connection"),
                thread: i,
                start_ns: i * 100,
                dur_ns: 50,
            });
        }
        let mut buf = Vec::new();
        ring.dump(&mut buf).unwrap();
        let lines = read_dump(buf.as_slice()).unwrap().lines;
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"serve.request\""));
        assert!(lines[0].contains("\"start_ns\":0"));
        assert!(!lines[0].contains("parent"));
        assert!(lines[1].contains("\"parent\":\"serve.connection\""));
    }

    #[test]
    fn corrupt_final_record_is_an_error() {
        let ring = TraceRing::new(8);
        ring.set_enabled(true);
        for i in 0..2u64 {
            ring.push(SpanRecord {
                name: "s",
                parent: None,
                thread: 0,
                start_ns: i,
                dur_ns: 1,
            });
        }
        let mut buf = Vec::new();
        ring.dump(&mut buf).unwrap();
        let last = buf.len() - 6; // inside record 1's payload
        buf[last] ^= 0xFF;
        let err = read_dump(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte offset"), "{err}");
    }

    #[test]
    fn bad_magic_is_an_error() {
        let err = read_dump(&b"NOTARING00000000"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Tests touching the process-wide ring serialize through this.
    fn global_ring_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let _guard = global_ring_lock();
        let ring = global_ring();
        ring.set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        ring.set_enabled(false);
        let records = ring.drain_snapshot();
        let inner = records
            .iter()
            .rev()
            .find(|r| r.name == "inner")
            .expect("inner span recorded");
        assert_eq!(inner.parent, Some("outer"));
        let outer = records
            .iter()
            .rev()
            .find(|r| r.name == "outer")
            .expect("outer span recorded");
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = global_ring_lock();
        let before = SPAN_STACK.with(|s| s.borrow().len());
        {
            let ring = global_ring();
            let was = ring.enabled();
            ring.set_enabled(false);
            let _s = span("inert");
            ring.set_enabled(was);
        }
        let after = SPAN_STACK.with(|s| s.borrow().len());
        assert_eq!(before, after);
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        let record = SpanRecord {
            name: "a\"b",
            parent: None,
            thread: 1,
            start_ns: 2,
            dur_ns: 3,
        };
        let json = record.to_json();
        assert!(json.contains("a\\\"b"));
    }
}
