//! Leader/follower replication for the sharded serving engine.
//!
//! One process — the *leader* — owns the write path: every mutating
//! operation (trace replay warm-up, live [`crate::wire::Request::Ingest`]
//! frames) is appended to a durable, totally-ordered *replication log*
//! before it is dispatched to the shards. Followers bootstrap from a
//! shipped `CSPSNAP1` snapshot whose sequence number *is* a log offset,
//! subscribe to the leader over the wire protocol, and apply the same
//! operations in the same order — which makes their screening statistics
//! and predictions bit-identical to the leader's (proved end-to-end in
//! `tests/replication.rs` and `csp-harness`).
//!
//! # The log
//!
//! The unit of replication is [`ReplOp`]: a predictor update or a scored
//! decision, already resolved to its table key, 17 bytes on the wire and
//! on disk. Offsets count operations from the beginning of history.
//! Appends happen under one mutex held across *journal write → shard
//! dispatch → in-memory publish*, so the log order, the per-shard apply
//! order, and what a snapshot can observe are all the same total order —
//! the same argument that makes sharded replay bit-identical to the
//! offline engine extends to replicas.
//!
//! Durability uses [`csp_trace::journal`] files in the snapshot
//! directory: flushed per append, torn-tail tolerant, and always rotated
//! to a *new* file on startup and on snapshot so a torn tail is never
//! appended past.
//!
//! # Failure model
//!
//! * **Leader killed (even `kill -9`)**: restart restores the newest
//!   snapshot and replays the journal tail beyond its sequence number;
//!   acknowledged ingests are journaled first, so they survive.
//! * **Follower disconnected**: it keeps serving stale-but-consistent
//!   predictions, reconnects with exponential backoff + jitter, and
//!   resumes from its last durable offset.
//! * **Divergence** (scheme, width, or format drift): detected by a
//!   [`fingerprint`] carried in every Subscribe/Ingest/JournalSegment
//!   frame and journal header; the mismatching side refuses the data.
//!
//! # Failover
//!
//! Every log carries an **epoch** — a fencing term, bumped on each
//! promotion and embedded in journal headers and every replication
//! frame. A follower can be *promoted*: its durable journal is already a
//! verified copy of the leader's history, so promotion is
//! [`ReplicationLog::bump_epoch`] (rotating the journal so the new term
//! is durable) plus flipping the engine out of follower mode. Peers fence
//! the deposed leader by epoch: followers drop streams that regress the
//! epoch they have observed, and `Ingest` frames carrying a stale epoch
//! are refused with a typed error.
//!
//! Failure detection is **lease-based**: every `JournalSegment` frame
//! (heartbeats included) grants the subscriber a time-boxed lease on the
//! leader's liveness; a lease that lapses without renewal is the signal
//! that drives (manual or rank-ordered automatic) promotion. The leader
//! mirrors this: each live subscriber holds a lease on the journal
//! horizon, so compaction never reclaims operations a live downstream
//! still needs ([`ReplicationLog::compact`] floors at the slowest live
//! lease and reports what laggards pin).

use crate::error::ServeError;
use crate::server::ShutdownHandle;
use crate::shard::{IngestOp, ShardedEngine};
use crate::snapshot::EngineState;
use crate::wire::{self, Request, Response, SegmentFrame};
use csp_core::{PreparedTrace, Scheme};
use csp_obs::Registry;
use csp_trace::frame::Corrupt;
use csp_trace::journal::{read_journal, JournalHeader, SegmentWriter};
use csp_trace::{crc32c, SharingBitmap};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Encoded size of one [`ReplOp`]: tag, key, bitmap.
pub const REPL_OP_LEN: usize = 17;

/// Most operations one wire frame or journal segment may carry
/// (`32768 × 17 B ≈ 544 KiB`, comfortably under the 1 MiB frame cap).
pub const MAX_SEGMENT_OPS: usize = 32 * 1024;

/// Bumped whenever the replicated operation stream changes meaning;
/// part of the [`fingerprint`]. Revision 2 added epochs (fencing terms)
/// to every replication frame and journal header. Revision 3 folded the
/// `csp-core` version fingerprint into the canonical string, so every
/// `Subscribe`/`Ingest` exchange transitively negotiates table geometry
/// and trace/wire/audit format revisions too.
const REPL_REVISION: u32 = 3;

/// Default lease a leader grants each subscriber per segment/heartbeat,
/// and the staleness horizon a follower allows before it considers the
/// leader dead. Must comfortably exceed the 500 ms heartbeat interval.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(10);

const TAG_UPDATE: u8 = 1;
const TAG_SCORE: u8 = 2;

/// One replicated mutation, resolved to its predictor key so leader and
/// follower cannot derive keys differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplOp {
    /// Shift `feedback` into `key`'s predictor entry.
    Update {
        /// The predictor index key to train.
        key: u64,
        /// The invalidation feedback bitmap.
        feedback: SharingBitmap,
    },
    /// Predict through `key`'s entry and score against `actual`.
    Score {
        /// The predictor index key to consult.
        key: u64,
        /// The ground-truth reader bitmap.
        actual: SharingBitmap,
    },
}

impl ReplOp {
    /// Appends this operation's 17-byte encoding to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let (tag, key, bits) = match *self {
            ReplOp::Update { key, feedback } => (TAG_UPDATE, key, feedback.bits()),
            ReplOp::Score { key, actual } => (TAG_SCORE, key, actual.bits()),
        };
        buf.push(tag);
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&bits.to_le_bytes());
    }

    /// Decodes one operation from exactly [`REPL_OP_LEN`] bytes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a wrong length or unknown tag.
    pub fn decode(b: &[u8]) -> io::Result<ReplOp> {
        if b.len() != REPL_OP_LEN {
            return Err(bad_data(format!(
                "replication op is {REPL_OP_LEN} bytes, got {}",
                b.len()
            )));
        }
        let key = u64::from_le_bytes([b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8]]);
        let bits = u64::from_le_bytes([b[9], b[10], b[11], b[12], b[13], b[14], b[15], b[16]]);
        match b[0] {
            TAG_UPDATE => Ok(ReplOp::Update {
                key,
                feedback: SharingBitmap::from_bits(bits),
            }),
            TAG_SCORE => Ok(ReplOp::Score {
                key,
                actual: SharingBitmap::from_bits(bits),
            }),
            tag => Err(bad_data(format!("unknown replication op tag {tag:#04x}"))),
        }
    }

    /// The shard-inbox operation this replicated op applies as.
    pub fn to_ingest(&self) -> IngestOp {
        match *self {
            ReplOp::Update { key, feedback } => IngestOp::Update { key, feedback },
            ReplOp::Score { key, actual } => IngestOp::Score { key, actual },
        }
    }

    /// The replicated form of a shard operation; `None` for operations
    /// that do not mutate replicated state (e.g. the test-only poison).
    pub fn from_ingest(op: &IngestOp) -> Option<ReplOp> {
        match *op {
            IngestOp::Update { key, feedback } => Some(ReplOp::Update { key, feedback }),
            IngestOp::Score { key, actual } => Some(ReplOp::Score { key, actual }),
            IngestOp::Poison { .. } => None,
        }
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Packs `ops` into their contiguous 17-byte-per-op encoding.
pub fn encode_ops(ops: &[ReplOp]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ops.len() * REPL_OP_LEN);
    for op in ops {
        op.encode_into(&mut buf);
    }
    buf
}

/// Decodes `count` operations from `records`, validating the count
/// against the byte length *before* allocating.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the count exceeds
/// [`MAX_SEGMENT_OPS`], disagrees with the byte length, or any op is
/// malformed.
pub fn decode_ops(count: u32, records: &[u8]) -> io::Result<Vec<ReplOp>> {
    let count = count as usize;
    if count > MAX_SEGMENT_OPS {
        return Err(bad_data(format!(
            "segment claims {count} ops, limit is {MAX_SEGMENT_OPS}"
        )));
    }
    if records.len() != count * REPL_OP_LEN {
        return Err(bad_data(format!(
            "segment claims {count} ops but carries {} bytes",
            records.len()
        )));
    }
    records
        .chunks_exact(REPL_OP_LEN)
        .map(ReplOp::decode)
        .collect()
}

/// Compatibility fingerprint negotiated by every replication exchange:
/// CRC32c over the scheme's canonical notation, the machine width, the
/// replication format revisions, and the `csp-core` version fingerprint
/// ([`csp_core::version_fingerprint`]) — so any drift in table layout,
/// geometry, trace semantics, or wire encoding between two processes is
/// detected before a single operation crosses.
pub fn fingerprint(scheme: &Scheme, nodes: usize) -> u32 {
    let version = csp_core::version_fingerprint(scheme, nodes);
    let canon =
        format!("csp-repl|rev{REPL_REVISION}|{scheme}|{nodes}|snap2|jrnl2|ver{version:08x}");
    crc32c::checksum(canon.as_bytes())
}

/// A slice of the log handed to one subscriber: operations
/// `[start, start + ops.len())`, plus the leader's head at read time.
/// An empty segment is a heartbeat — proof the leader is alive and the
/// subscriber is caught up to `head`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// The serving log's epoch when the segment was cut.
    pub epoch: u64,
    /// Offset of the first operation in `ops`.
    pub start: u64,
    /// The leader's log head when the segment was cut.
    pub head: u64,
    /// The operations, in log order.
    pub ops: Vec<ReplOp>,
}

/// Why a subscriber's offset cannot be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentError {
    /// The offset predates the oldest operation the leader retains
    /// (pruned after snapshots): the subscriber must re-bootstrap from a
    /// newer snapshot.
    TooOld {
        /// The oldest offset still served.
        oldest: u64,
    },
    /// The offset is beyond the leader's head: the subscriber has
    /// history this leader never wrote — divergence.
    Ahead {
        /// The leader's current head.
        head: u64,
    },
}

struct DurableTail {
    store: JournalStore,
    writer: SegmentWriter<BufWriter<File>>,
}

struct LogInner {
    /// Offset of `ops[0]`; operations below it have been pruned.
    base: u64,
    ops: VecDeque<ReplOp>,
    durable: Option<DurableTail>,
    /// The current fencing term; mirrored into `epoch_cell` for
    /// lock-free reads.
    epoch: u64,
}

/// One downstream subscriber's claim on the journal horizon.
struct Lease {
    /// The lowest offset the subscriber may still ask for.
    offset: u64,
    /// When the claim lapses unless renewed by a successful send.
    expires: Instant,
}

/// A live subscriber's handle on its compaction lease. Release it with
/// [`ReplicationLog::lease_release`] when the stream ends; an unreleased
/// lease merely expires after its TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseId(u64);

/// What one [`ReplicationLog::compact`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// The floor actually applied (the requested floor, lowered to the
    /// slowest live downstream lease).
    pub floor: u64,
    /// Journal-file bytes reclaimed from disk.
    pub reclaimed_bytes: u64,
    /// Journal-file bytes that would have been reclaimed at the
    /// requested floor but are pinned by a live downstream lease.
    pub held_bytes: u64,
}

/// The leader's totally-ordered operation log: the serialization point
/// for every mutation, the durability boundary for ingest acks, and the
/// source subscribers stream from.
pub struct ReplicationLog {
    fingerprint: u32,
    inner: Mutex<LogInner>,
    grew: Condvar,
    /// Mirror of `LogInner::epoch` for lock-free reads.
    epoch_cell: AtomicU64,
    /// Live downstream leases, keyed by [`LeaseId`].
    leases: Mutex<HashMap<u64, Lease>>,
    lease_seq: AtomicU64,
    lease_ttl_ms: AtomicU64,
    /// Bytes the last compaction left on disk only because a live lease
    /// pinned them (the `csp_repl_compact_held_bytes` gauge).
    held_bytes: AtomicU64,
}

impl std::fmt::Debug for ReplicationLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationLog")
            .field("fingerprint", &self.fingerprint)
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

impl ReplicationLog {
    fn build(fingerprint: u32, inner: LogInner) -> Arc<Self> {
        let epoch = inner.epoch;
        Arc::new(ReplicationLog {
            fingerprint,
            inner: Mutex::new(inner),
            grew: Condvar::new(),
            epoch_cell: AtomicU64::new(epoch),
            leases: Mutex::new(HashMap::new()),
            lease_seq: AtomicU64::new(0),
            lease_ttl_ms: AtomicU64::new(DEFAULT_LEASE.as_millis() as u64),
            held_bytes: AtomicU64::new(0),
        })
    }

    /// A log with no on-disk journal (tests, the in-process harness),
    /// starting at offset 0 under epoch 1.
    pub fn in_memory(fingerprint: u32) -> Arc<Self> {
        Self::in_memory_at(fingerprint, 0, 1)
    }

    /// An in-memory log resuming at `base` under `epoch` — a journal-less
    /// follower bootstrapped from a snapshot attaches one of these so it
    /// can relay segments downstream.
    pub fn in_memory_at(fingerprint: u32, base: u64, epoch: u64) -> Arc<Self> {
        Self::build(
            fingerprint,
            LogInner {
                base,
                ops: VecDeque::new(),
                durable: None,
                epoch,
            },
        )
    }

    /// A journal-backed log seeded with what [`JournalStore::recover_all`]
    /// found; opens a fresh journal file at the recovered head (never
    /// appending past a torn tail) under the recovered epoch (floored at
    /// 1 — epoch 0 is reserved for "no claim").
    ///
    /// # Errors
    ///
    /// Propagates journal-file I/O failures.
    pub fn durable(store: JournalStore, recovered: &Recovered) -> Result<Arc<Self>, ServeError> {
        Self::durable_at_epoch(store, recovered, recovered.epoch.max(1))
    }

    /// As [`durable`](Self::durable) but opening under an explicit
    /// `epoch` — the promotion path passes the recovered epoch plus one.
    ///
    /// # Errors
    ///
    /// Propagates journal-file I/O failures.
    pub fn durable_at_epoch(
        store: JournalStore,
        recovered: &Recovered,
        epoch: u64,
    ) -> Result<Arc<Self>, ServeError> {
        let head = recovered.head();
        let writer = store.create_writer(head, epoch)?;
        Ok(Self::build(
            store.fingerprint,
            LogInner {
                base: recovered.base,
                ops: recovered.ops.iter().copied().collect(),
                durable: Some(DurableTail { store, writer }),
                epoch,
            },
        ))
    }

    /// The compatibility fingerprint this log was opened under.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// The current fencing term. Leaders author segments under it;
    /// followers track the highest epoch they have observed.
    pub fn epoch(&self) -> u64 {
        self.epoch_cell.load(Ordering::SeqCst)
    }

    /// Adopts `epoch` if it is newer than the current term, rotating the
    /// journal so the adoption is durable (a restarted follower must not
    /// trust a leader it already saw deposed). Returns whether the term
    /// advanced.
    ///
    /// # Errors
    ///
    /// Propagates journal rotation failures (the epoch is *not* adopted
    /// then, so the durable and in-memory terms never disagree).
    pub fn observe_epoch(&self, epoch: u64) -> Result<bool, ServeError> {
        let mut inner = self.lock();
        if epoch <= inner.epoch {
            return Ok(false);
        }
        let head = inner.base + inner.ops.len() as u64;
        if let Some(d) = inner.durable.as_mut() {
            d.writer = d.store.create_writer(head, epoch)?;
        }
        inner.epoch = epoch;
        self.epoch_cell.store(epoch, Ordering::SeqCst);
        Ok(true)
    }

    /// Promotes this log to a new term: the new epoch is
    /// `max(current + 1, at_least)`, made durable by rotating the
    /// journal before it is published. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Propagates journal rotation failures (the term does not advance).
    pub fn bump_epoch(&self, at_least: u64) -> Result<u64, ServeError> {
        let mut inner = self.lock();
        let next = (inner.epoch + 1).max(at_least);
        let head = inner.base + inner.ops.len() as u64;
        if let Some(d) = inner.durable.as_mut() {
            d.writer = d.store.create_writer(head, next)?;
        }
        inner.epoch = next;
        self.epoch_cell.store(next, Ordering::SeqCst);
        Ok(next)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("replication log poisoned")
    }

    /// The next offset to be appended (operations `[0, head)` exist).
    pub fn head(&self) -> u64 {
        let inner = self.lock();
        inner.base + inner.ops.len() as u64
    }

    /// The oldest offset still served to subscribers.
    pub fn oldest(&self) -> u64 {
        self.lock().base
    }

    /// Appends `ops` and dispatches them while holding the log lock:
    /// journal write (durability), then `dispatch` (shard FIFOs), then
    /// in-memory publish, all in one critical section — which is what
    /// makes the log order and the apply order the same total order.
    /// Returns the new head and `dispatch`'s result.
    ///
    /// # Errors
    ///
    /// A journal write failure aborts the append *before* dispatch: the
    /// operation is applied nowhere, so leader and followers still agree.
    pub fn append_with<R>(
        &self,
        ops: &[ReplOp],
        dispatch: impl FnOnce() -> R,
    ) -> io::Result<(u64, R)> {
        let mut inner = self.lock();
        if !ops.is_empty() {
            if let Some(d) = inner.durable.as_mut() {
                for chunk in ops.chunks(MAX_SEGMENT_OPS) {
                    d.writer.append(chunk.len() as u32, &encode_ops(chunk))?;
                }
            }
        }
        let out = dispatch();
        inner.ops.extend(ops.iter().copied());
        let head = inner.base + inner.ops.len() as u64;
        drop(inner);
        self.grew.notify_all();
        Ok((head, out))
    }

    /// Runs `f` with the head while holding the log lock, excluding all
    /// appends: anything `f` observes through in-band shard messages
    /// (e.g. a state capture) is an exact cut at that head.
    pub fn freeze<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let inner = self.lock();
        let head = inner.base + inner.ops.len() as u64;
        f(head)
    }

    /// Cuts the next segment for a subscriber at `from`: up to `max_ops`
    /// operations if any are ready, otherwise blocks up to `timeout` and
    /// returns an empty heartbeat segment.
    ///
    /// # Errors
    ///
    /// [`SegmentError`] when `from` has been pruned or is ahead of the
    /// head — both mean this subscriber cannot be served incrementally.
    pub fn wait_segment(
        &self,
        from: u64,
        max_ops: usize,
        timeout: Duration,
    ) -> Result<Segment, SegmentError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let head = inner.base + inner.ops.len() as u64;
            if from < inner.base {
                return Err(SegmentError::TooOld { oldest: inner.base });
            }
            if from > head {
                return Err(SegmentError::Ahead { head });
            }
            if from < head {
                let skip = (from - inner.base) as usize;
                let take = ((head - from) as usize).min(max_ops);
                let ops = inner.ops.iter().skip(skip).take(take).copied().collect();
                return Ok(Segment {
                    epoch: inner.epoch,
                    start: from,
                    head,
                    ops,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Segment {
                    epoch: inner.epoch,
                    start: from,
                    head,
                    ops: Vec::new(),
                });
            }
            let (guard, _) = self
                .grew
                .wait_timeout(inner, deadline - now)
                .expect("replication log poisoned");
            inner = guard;
        }
    }

    /// Grants a time-boxed downstream lease at `offset`: until it
    /// expires (or is released), [`compact`](Self::compact) will not
    /// reclaim operations at or above `offset`. Subscribers renew by
    /// calling [`lease_renew`](Self::lease_renew) after each shipped
    /// segment.
    pub fn lease_grant(&self, offset: u64) -> LeaseId {
        let id = self.lease_seq.fetch_add(1, Ordering::SeqCst);
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.insert(
            id,
            Lease {
                offset,
                expires: Instant::now() + self.lease_ttl(),
            },
        );
        LeaseId(id)
    }

    /// Advances a lease to `offset` and extends its expiry by the lease
    /// TTL. A lapsed lease is revived — the subscriber demonstrably
    /// still holds the stream.
    pub fn lease_renew(&self, id: LeaseId, offset: u64) {
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.insert(
            id.0,
            Lease {
                offset,
                expires: Instant::now() + self.lease_ttl(),
            },
        );
    }

    /// Drops a lease; its offset no longer pins compaction.
    pub fn lease_release(&self, id: LeaseId) {
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.remove(&id.0);
    }

    /// The number of live (unexpired) downstream leases.
    pub fn lease_count(&self) -> u64 {
        let now = Instant::now();
        let leases = self.leases.lock().expect("lease table poisoned");
        leases.values().filter(|l| l.expires > now).count() as u64
    }

    /// The slowest live lease offset, dropping expired entries.
    fn lease_floor(&self) -> Option<u64> {
        let now = Instant::now();
        let mut leases = self.leases.lock().expect("lease table poisoned");
        leases.retain(|_, l| l.expires > now);
        leases.values().map(|l| l.offset).min()
    }

    /// The duration a granted lease stays live without renewal.
    pub fn lease_ttl(&self) -> Duration {
        Duration::from_millis(self.lease_ttl_ms.load(Ordering::SeqCst))
    }

    /// Sets the lease TTL ([`DEFAULT_LEASE`] until then). Advertised to
    /// downstreams in every segment header, so their failure detectors
    /// and this log's compaction floor agree on when a claim lapses.
    /// Applies to leases granted or renewed from now on.
    pub fn set_lease_ttl(&self, ttl: Duration) {
        let ms = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX).max(1);
        self.lease_ttl_ms.store(ms, Ordering::SeqCst);
    }

    /// Bytes the last compaction pass left on disk only because a live
    /// downstream lease pinned them.
    pub fn held_bytes(&self) -> u64 {
        self.held_bytes.load(Ordering::SeqCst)
    }

    /// Called after a snapshot at sequence `floor` became durable:
    /// rotates the journal to a fresh file at the head and drops
    /// operations below the effective floor from memory and disk —
    /// followers older than the snapshot horizon re-bootstrap instead.
    ///
    /// The effective floor is `floor` lowered to the slowest live
    /// downstream lease, so a segment a live subscriber may still ask
    /// for is never reclaimed; bytes pinned that way are reported in
    /// [`CompactStats::held_bytes`] (and the
    /// `csp_repl_compact_held_bytes` gauge).
    ///
    /// # Errors
    ///
    /// Propagates journal rotation failures (the in-memory log is left
    /// consistent either way). A segment file that vanishes mid-prune —
    /// e.g. a racing unlink — is tolerated, not an error.
    pub fn compact(&self, floor: u64) -> Result<CompactStats, ServeError> {
        let mut inner = self.lock();
        let head = inner.base + inner.ops.len() as u64;
        let requested = floor.min(head);
        let effective = match self.lease_floor() {
            Some(leased) => requested.min(leased),
            None => requested,
        };
        let mut stats = CompactStats {
            floor: effective,
            reclaimed_bytes: 0,
            held_bytes: 0,
        };
        let base = inner.base;
        let epoch = inner.epoch;
        if let Some(d) = inner.durable.as_mut() {
            if effective > base {
                d.writer = d.store.create_writer(head, epoch)?;
                stats.reclaimed_bytes = d.store.prune_below(effective)?;
            }
            if effective < requested {
                stats.held_bytes = d.store.bytes_below(requested).unwrap_or(0);
            }
        }
        self.held_bytes.store(stats.held_bytes, Ordering::SeqCst);
        while inner.base < effective {
            inner.ops.pop_front();
            inner.base += 1;
        }
        Ok(stats)
    }

    /// Registers this log's gauges — current epoch, live downstream
    /// leases, and compaction bytes held by laggards — on `registry`.
    pub fn bind_metrics(self: &Arc<Self>, registry: &Registry) {
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_epoch",
            "Current replication fencing epoch",
            &[],
            move || log.epoch() as i64,
        );
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_downstream_leases",
            "Live downstream subscriber leases",
            &[],
            move || log.lease_count() as i64,
        );
        let log = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_compact_held_bytes",
            "Journal bytes pinned by the slowest live downstream lease",
            &[],
            move || log.held_bytes() as i64,
        );
    }
}

/// What [`JournalStore::recover_all`] reconstructed from disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Offset of `ops[0]` (the oldest retained operation).
    pub base: u64,
    /// Every durable operation from `base`, in log order.
    pub ops: Vec<ReplOp>,
    /// The highest fencing epoch any journal file was written under
    /// (0 for pre-epoch `CSPJRNL1` journals and empty directories).
    pub epoch: u64,
}

impl Recovered {
    /// The durable head: the offset after the last recovered operation.
    pub fn head(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// The operations at or beyond `offset` (e.g. the tail a
    /// snapshot-restored engine still needs).
    pub fn tail_from(&self, offset: u64) -> &[ReplOp] {
        if offset <= self.base {
            return &self.ops;
        }
        let skip = (offset - self.base) as usize;
        self.ops.get(skip..).unwrap_or(&[])
    }
}

/// The on-disk journal directory: `journal-<start:020>.cspjrnl` files
/// ([`csp_trace::journal`] format) alongside the snapshots, each named
/// by the log offset of its first operation.
#[derive(Debug)]
pub struct JournalStore {
    dir: PathBuf,
    fingerprint: u32,
}

impl JournalStore {
    /// Opens (creating if needed) the journal directory.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u32) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::io(&dir, e))?;
        Ok(JournalStore { dir, fingerprint })
    }

    /// The directory journal files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, start: u64) -> PathBuf {
        self.dir.join(format!("journal-{start:020}.cspjrnl"))
    }

    fn parse_start(path: &Path) -> Option<u64> {
        path.file_name()?
            .to_str()?
            .strip_prefix("journal-")?
            .strip_suffix(".cspjrnl")?
            .parse()
            .ok()
    }

    fn list(&self) -> Result<Vec<(u64, PathBuf)>, ServeError> {
        let mut files = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| ServeError::io(&self.dir, e))?;
        for entry in entries {
            let path = entry.map_err(|e| ServeError::io(&self.dir, e))?.path();
            if let Some(start) = Self::parse_start(&path) {
                files.push((start, path));
            }
        }
        files.sort();
        Ok(files)
    }

    /// Replays every retained journal file into one contiguous operation
    /// list, verifying fingerprints, file continuity, and segment
    /// checksums. A torn tail on the *newest* file is tolerated (the
    /// crash the journal exists for); a torn tail anywhere else, and a
    /// damaged segment anywhere, is an error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Replication`] on foreign fingerprints, offset gaps,
    /// or damage (naming the file and byte offset of a damaged segment);
    /// [`ServeError::Io`] on transport failures.
    pub fn recover_all(&self) -> Result<Recovered, ServeError> {
        let files = self.list()?;
        let Some(&(base, _)) = files.first() else {
            return Ok(Recovered::default());
        };
        let mut ops = Vec::new();
        let mut epoch = 0u64;
        let last = files.len() - 1;
        for (i, (start, path)) in files.iter().enumerate() {
            let expected = base + ops.len() as u64;
            if *start != expected {
                return Err(ServeError::Replication {
                    detail: format!(
                        "journal gap: {} starts at offset {start}, expected {expected}",
                        path.display()
                    ),
                });
            }
            let file = File::open(path).map_err(|e| ServeError::io(path, e))?;
            let contents =
                read_journal(BufReader::new(file)).map_err(|e| match Corrupt::of(&e) {
                    Some(c) => ServeError::Replication {
                        detail: format!("{}: {c}; refusing to recover past it", path.display()),
                    },
                    None => ServeError::io(path, e),
                })?;
            if contents.header.fingerprint != self.fingerprint {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} was written under fingerprint {:#010x}, ours is {:#010x} \
                         (scheme, width, or format drift)",
                        path.display(),
                        contents.header.fingerprint,
                        self.fingerprint
                    ),
                });
            }
            if contents.header.start_offset != *start {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} header claims offset {}, filename says {start}",
                        path.display(),
                        contents.header.start_offset
                    ),
                });
            }
            if contents.torn && i != last {
                return Err(ServeError::Replication {
                    detail: format!(
                        "{} has a torn segment but newer journal files exist",
                        path.display()
                    ),
                });
            }
            epoch = epoch.max(contents.header.epoch);
            for seg in &contents.segments {
                let decoded =
                    decode_ops(seg.count, &seg.records).map_err(|e| ServeError::io(path, e))?;
                ops.extend(decoded);
            }
        }
        Ok(Recovered { base, ops, epoch })
    }

    /// Starts a new journal file whose first operation will be `start`,
    /// stamped with the fencing `epoch` it is written under.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be created.
    pub fn create_writer(
        &self,
        start: u64,
        epoch: u64,
    ) -> Result<SegmentWriter<BufWriter<File>>, ServeError> {
        let path = self.path_for(start);
        let file = File::create(&path).map_err(|e| ServeError::io(&path, e))?;
        SegmentWriter::create(
            BufWriter::new(file),
            &JournalHeader {
                fingerprint: self.fingerprint,
                start_offset: start,
                epoch,
            },
        )
        .map_err(|e| ServeError::io(&path, e))
    }

    /// Deletes journal files made wholly redundant by a durable snapshot
    /// at `floor` (a file goes once the *next* file starts at or below
    /// `floor`; the newest file always stays). Returns the bytes
    /// reclaimed from disk.
    ///
    /// A file that vanishes between listing and unlinking — a racing
    /// compactor, an operator `rm` — is treated as already reclaimed by
    /// someone else, not an error; likewise a journal directory that was
    /// removed wholesale yields 0 rather than failing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when a redundant file exists but cannot be
    /// removed (permissions, I/O faults).
    pub fn prune_below(&self, floor: u64) -> Result<u64, ServeError> {
        let files = match self.list() {
            Ok(files) => files,
            Err(ServeError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Ok(0);
            }
            Err(e) => return Err(e),
        };
        let mut reclaimed = 0u64;
        for pair in files.windows(2) {
            if pair[1].0 <= floor {
                let path = &pair[0].1;
                let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                match std::fs::remove_file(path) {
                    Ok(()) => reclaimed += len,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(ServeError::io(path, e)),
                }
            }
        }
        Ok(reclaimed)
    }

    /// The on-disk bytes of journal files wholly below `floor` (the
    /// files [`prune_below`](Self::prune_below) would delete) — what a
    /// laggard lease is currently pinning.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on directory-listing failures other than a
    /// missing directory (which yields 0).
    pub fn bytes_below(&self, floor: u64) -> Result<u64, ServeError> {
        let files = match self.list() {
            Ok(files) => files,
            Err(ServeError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                return Ok(0);
            }
            Err(e) => return Err(e),
        };
        let mut pinned = 0u64;
        for pair in files.windows(2) {
            if pair[1].0 <= floor {
                pinned += std::fs::metadata(&pair[0].1).map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(pinned)
    }
}

/// The exact operation stream [`ShardedEngine::replay_range`] would
/// dispatch for events `range` of a prepared trace — the producer side
/// of push-based ingest. A remote producer that pushes these operations
/// through [`crate::Client::ingest`] trains the leader bit-identically
/// to a local file replay, because the actuals and keys come from the
/// same shared preparation.
///
/// # Panics
///
/// Panics if `range` is out of bounds for the prepared trace.
pub fn trace_to_ops(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    range: Range<usize>,
) -> Vec<ReplOp> {
    crate::shard::replay_ops(prepared, scheme, range)
        .iter()
        .filter_map(ReplOp::from_ingest)
        .collect()
}

/// Captures engine state as an exact cut at the replication log's head,
/// with the head as the snapshot sequence number — so the snapshot *is*
/// a resume offset: a follower restoring it subscribes from `seq`.
///
/// # Errors
///
/// [`ServeError::Replication`] when no log is attached to the engine.
pub fn snapshot_at_head(engine: &ShardedEngine) -> Result<EngineState, ServeError> {
    let log = engine
        .replication()
        .ok_or_else(|| ServeError::Replication {
            detail: "cannot cut a replicated snapshot: no log attached".to_string(),
        })?;
    Ok(log.freeze(|head| EngineState::capture(engine, head)))
}

/// Live health of one follower, shared between the streaming thread and
/// the metrics registry (see [`ReplicaStatus::bind_metrics`]).
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    applied: AtomicU64,
    leader_head: AtomicU64,
    connected: AtomicU64,
    reconnects: AtomicU64,
    resyncs: AtomicU64,
    diverged: AtomicU64,
    last_segment_unix_ms: AtomicU64,
    lease_ms: AtomicU64,
}

impl ReplicaStatus {
    /// A fresh status starting from `applied` (the bootstrap offset).
    pub fn new(applied: u64) -> Arc<Self> {
        let status = ReplicaStatus::default();
        status.applied.store(applied, Ordering::Relaxed);
        status.leader_head.store(applied, Ordering::Relaxed);
        Arc::new(status)
    }

    /// Offset this follower has durably applied.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// The leader's head as of the last segment (heartbeats count).
    pub fn leader_head(&self) -> u64 {
        self.leader_head.load(Ordering::Relaxed)
    }

    /// Operations the leader has that this follower has not applied.
    pub fn lag(&self) -> u64 {
        self.leader_head().saturating_sub(self.applied())
    }

    /// Whether a subscription is currently live.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed) == 1
    }

    /// Connection attempts after the first (dials, not successes).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Successful resubscriptions after a drop — each one proves a
    /// resume from the durable offset.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::Relaxed)
    }

    /// Whether the follower has detected divergence from its leader.
    pub fn is_diverged(&self) -> bool {
        self.diverged.load(Ordering::Relaxed) == 1
    }

    /// The lease TTL (milliseconds) the leader advertised on the most
    /// recent segment; 0 until a fenced leader has been heard from.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms.load(Ordering::Relaxed)
    }

    /// Milliseconds since the last segment (heartbeats included), or
    /// `None` before the first — the failure-detection clock: once this
    /// exceeds the advertised lease, the leader's claim has lapsed.
    pub fn last_segment_age_ms(&self) -> Option<u64> {
        let last = self.last_segment_unix_ms.load(Ordering::Relaxed);
        if last == 0 {
            None
        } else {
            Some(Self::now_ms().saturating_sub(last))
        }
    }

    fn now_ms() -> u64 {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Registers the replica-health series (`csp_repl_*` gauges and
    /// counters) on `registry`, typically the follower engine's own, so
    /// one `metrics` scrape covers replication lag, connectivity, and
    /// resync history — and `csp-served top` can render replica health.
    pub fn bind_metrics(self: &Arc<Self>, registry: &Registry) {
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_applied_offset",
            "Journal offset this follower has durably applied.",
            &[],
            move || s.applied() as i64,
        );
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_leader_offset",
            "Leader journal head as of the last received segment.",
            &[],
            move || s.leader_head() as i64,
        );
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_lag_ops",
            "Operations behind the leader (leader offset minus applied).",
            &[],
            move || s.lag() as i64,
        );
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_connected",
            "1 when a journal subscription is live, 0 while degraded to stale serving.",
            &[],
            move || i64::from(s.connected.load(Ordering::Relaxed) == 1),
        );
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_diverged",
            "1 after a fingerprint or offset divergence was detected.",
            &[],
            move || i64::from(s.is_diverged()),
        );
        let s = Arc::clone(self);
        registry.register_gauge_fn(
            "csp_repl_last_segment_age_seconds",
            "Seconds since the last journal segment (heartbeats included); -1 before the first.",
            &[],
            move || {
                let last = s.last_segment_unix_ms.load(Ordering::Relaxed);
                if last == 0 {
                    -1
                } else {
                    (Self::now_ms().saturating_sub(last) / 1000) as i64
                }
            },
        );
        let s = Arc::clone(self);
        registry.register_counter_fn(
            "csp_repl_reconnects_total",
            "Leader connection attempts after the first.",
            &[],
            move || s.reconnects(),
        );
        let s = Arc::clone(self);
        registry.register_counter_fn(
            "csp_repl_resyncs_total",
            "Successful resubscriptions after a disconnect (resume from durable offset).",
            &[],
            move || s.resyncs(),
        );
    }
}

/// Tuning for the follower's reconnect loop.
#[derive(Clone, Copy, Debug)]
pub struct FollowerOptions {
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for the jitter added to each backoff (deterministic tests).
    pub jitter_seed: u64,
    /// Socket read timeout; must exceed the leader's heartbeat interval,
    /// so expiry means the leader is wedged, not merely idle.
    pub read_timeout: Duration,
    /// Socket write timeout for the subscribe handshake.
    pub write_timeout: Duration,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        FollowerOptions {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(5),
            jitter_seed: 0x5EED_CAFE,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Sleeps `dur` in small slices, returning early when shutdown fires.
fn interruptible_sleep(shutdown: &ShutdownHandle, dur: Duration) {
    let deadline = Instant::now() + dur;
    while !shutdown.is_shutdown() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// The follower's streaming loop: subscribe at the attached log's head,
/// apply segments in order (journal first, then shards — through the
/// engine's attached [`ReplicationLog`], so downstream subscribers of
/// *this* node are fed the same total order), and on any failure degrade
/// to serving stale-but-consistent predictions while reconnecting with
/// exponential backoff + jitter. Runs until `shutdown` fires; `leader`
/// is re-queried on every dial so the leader address may move (e.g. a
/// failover rewriting an address file).
///
/// Epoch fencing: segments carrying a *lower* epoch than the log has
/// observed come from a deposed leader — the connection is dropped (and
/// re-dialed, picking up the re-parented address) without applying
/// anything. A *higher* epoch is durably adopted before its first
/// operation is applied.
///
/// The engine must have been marked a follower and must have a
/// replication log attached (the relay point for chained fan-out).
///
/// # Errors
///
/// [`ServeError::Replication`] when the engine has no log attached.
/// After that, only local durability failures (journal rotation/append)
/// end the loop with an error — network failures never do, they back
/// off and retry.
pub fn run_follower(
    engine: &ShardedEngine,
    mut leader: impl FnMut() -> Option<String>,
    status: &Arc<ReplicaStatus>,
    shutdown: &ShutdownHandle,
    opts: &FollowerOptions,
) -> Result<(), ServeError> {
    let fp = fingerprint(engine.scheme(), engine.nodes());
    let log = engine
        .replication()
        .ok_or_else(|| ServeError::Replication {
            detail: "follower loop needs a replication log attached to relay from".to_string(),
        })?;
    let mut offset = log.head();
    let mut rng = crate::bench::SplitMix64(opts.jitter_seed);
    let mut attempt: u32 = 0;
    let mut ever_synced = false;
    let mut first_dial = true;
    while !shutdown.is_shutdown() {
        if !first_dial {
            status.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        first_dial = false;
        let Some(addr) = leader() else {
            backoff(shutdown, opts, &mut rng, &mut attempt);
            continue;
        };
        let Ok(stream) = TcpStream::connect(&addr) else {
            backoff(shutdown, opts, &mut rng, &mut attempt);
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(opts.read_timeout));
        let _ = stream.set_write_timeout(Some(opts.write_timeout));
        let Ok(read_half) = stream.try_clone() else {
            backoff(shutdown, opts, &mut rng, &mut attempt);
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut sender = BufWriter::new(stream);
        if wire::write_request(
            &mut sender,
            &Request::Subscribe {
                fingerprint: fp,
                epoch: log.epoch(),
                from: offset,
            },
        )
        .and_then(|()| sender.flush())
        .is_err()
        {
            backoff(shutdown, opts, &mut rng, &mut attempt);
            continue;
        }
        let mut synced_this_conn = false;
        loop {
            if shutdown.is_shutdown() {
                break;
            }
            let seg = match wire::read_response(&mut reader) {
                Ok(Response::JournalSegment(seg)) => seg,
                // An Error frame, an unexpected frame, EOF, a read
                // timeout (heartbeats stopped: the leader is gone or
                // wedged), or garbage: drop the connection and retry.
                _ => break,
            };
            if seg.epoch != 0 && seg.epoch < log.epoch() {
                // A deposed leader still streaming under its old term:
                // not divergence, just staleness. Re-dial — the address
                // source will have been re-parented by the promotion.
                break;
            }
            if seg.fingerprint != fp || seg.start != offset {
                // The stream is not a continuation of our history.
                status.diverged.store(1, Ordering::Relaxed);
                break;
            }
            status.diverged.store(0, Ordering::Relaxed);
            // Adopt a newer term durably *before* applying anything
            // written under it.
            log.observe_epoch(seg.epoch)?;
            if !synced_this_conn {
                synced_this_conn = true;
                attempt = 0;
                if ever_synced {
                    status.resyncs.fetch_add(1, Ordering::Relaxed);
                }
                ever_synced = true;
                status.connected.store(1, Ordering::Relaxed);
            }
            if !seg.ops.is_empty() {
                // Durable first, then the shards (engine.ingest_replicated
                // runs journal append → shard dispatch → in-memory publish
                // under the log lock): a crash between journal and shards
                // re-applies from the journal onto the snapshot at
                // restart, so nothing is lost and nothing doubles — and
                // the publish feeds our own downstream subscribers.
                offset = engine.ingest_replicated(seg.epoch, &seg.ops)?;
                engine.flush();
            }
            status.applied.store(offset, Ordering::Relaxed);
            status.leader_head.store(seg.head, Ordering::Relaxed);
            if seg.lease_ms != 0 {
                status
                    .lease_ms
                    .store(u64::from(seg.lease_ms), Ordering::Relaxed);
            }
            status
                .last_segment_unix_ms
                .store(ReplicaStatus::now_ms(), Ordering::Relaxed);
        }
        status.connected.store(0, Ordering::Relaxed);
        if !shutdown.is_shutdown() {
            backoff(shutdown, opts, &mut rng, &mut attempt);
        }
    }
    status.connected.store(0, Ordering::Relaxed);
    Ok(())
}

fn backoff(
    shutdown: &ShutdownHandle,
    opts: &FollowerOptions,
    rng: &mut crate::bench::SplitMix64,
    attempt: &mut u32,
) {
    let base = opts
        .backoff_base
        .saturating_mul(1u32 << (*attempt).min(10))
        .min(opts.backoff_max);
    // Up to +50% jitter so a herd of followers doesn't re-dial in step.
    let jitter_ns = (rng.next_u64() % (base.as_nanos().max(2) / 2) as u64) as u32;
    *attempt = attempt.saturating_add(1);
    interruptible_sleep(shutdown, base + Duration::from_nanos(u64::from(jitter_ns)));
}

/// Builds the [`SegmentFrame`] for one cut segment, advertising the
/// serving log's lease TTL so downstreams know when the claim lapses.
pub(crate) fn segment_frame(fingerprint: u32, lease_ms: u32, seg: &Segment) -> SegmentFrame {
    SegmentFrame {
        fingerprint,
        epoch: seg.epoch,
        start: seg.start,
        head: seg.head,
        lease_ms,
        ops: seg.ops.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_core::Scheme;
    use csp_trace::fault::Mutation;
    use std::fs;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut dir = std::env::temp_dir();
            dir.push(format!(
                "csp-repl-{tag}-{}-{:?}",
                std::process::id(),
                std::time::Instant::now()
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn ops(seed: u64, n: usize) -> Vec<ReplOp> {
        let mut rng = crate::bench::SplitMix64(seed);
        (0..n)
            .map(|i| {
                let key = rng.next_u64();
                let bits = SharingBitmap::from_bits(rng.next_u64() & 0xFFFF);
                if i % 2 == 0 {
                    ReplOp::Update {
                        key,
                        feedback: bits,
                    }
                } else {
                    ReplOp::Score { key, actual: bits }
                }
            })
            .collect()
    }

    #[test]
    fn op_codec_round_trips() {
        let original = ops(7, 100);
        let bytes = encode_ops(&original);
        assert_eq!(bytes.len(), 100 * REPL_OP_LEN);
        let back = decode_ops(100, &bytes).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn op_decode_rejects_damage() {
        let bytes = encode_ops(&ops(7, 2));
        // Wrong count for the byte length.
        assert!(decode_ops(1, &bytes).is_err());
        assert!(decode_ops(3, &bytes).is_err());
        // Hostile count: must reject before allocating.
        assert!(decode_ops(u32::MAX, &bytes).is_err());
        // Unknown tag.
        let mut hurt = bytes.clone();
        hurt[0] = 0xAB;
        assert!(decode_ops(2, &hurt).is_err());
    }

    #[test]
    fn fingerprint_separates_scheme_width_and_revision() {
        let a: Scheme = "last(pid)1[direct]".parse().unwrap();
        let b: Scheme = "last(pid)1[forwarded]".parse().unwrap();
        let c: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        assert_ne!(fingerprint(&a, 16), fingerprint(&b, 16));
        assert_ne!(fingerprint(&a, 16), fingerprint(&c, 16));
        assert_ne!(fingerprint(&a, 16), fingerprint(&a, 32));
        assert_eq!(fingerprint(&a, 16), fingerprint(&a, 16));
    }

    #[test]
    fn log_appends_serve_segments_in_order() {
        let log = ReplicationLog::in_memory(1);
        let batch = ops(3, 10);
        let (head, ()) = log.append_with(&batch[..4], || ()).unwrap();
        assert_eq!(head, 4);
        let (head, ()) = log.append_with(&batch[4..], || ()).unwrap();
        assert_eq!(head, 10);
        let seg = log.wait_segment(0, 6, Duration::from_millis(10)).unwrap();
        assert_eq!(seg.start, 0);
        assert_eq!(seg.head, 10);
        assert_eq!(seg.ops, batch[..6]);
        let seg = log.wait_segment(6, 100, Duration::from_millis(10)).unwrap();
        assert_eq!(seg.ops, batch[6..]);
    }

    #[test]
    fn caught_up_subscriber_gets_heartbeats_and_edges_are_typed() {
        let log = ReplicationLog::in_memory(1);
        log.append_with(&ops(3, 5), || ()).unwrap();
        // Caught up: an empty heartbeat after the timeout.
        let seg = log.wait_segment(5, 100, Duration::from_millis(5)).unwrap();
        assert!(seg.ops.is_empty());
        assert_eq!(seg.head, 5);
        // Ahead of the head: divergence.
        assert_eq!(
            log.wait_segment(9, 100, Duration::from_millis(5)),
            Err(SegmentError::Ahead { head: 5 })
        );
        // Behind the pruned horizon: re-bootstrap.
        log.compact(3).unwrap();
        assert_eq!(
            log.wait_segment(1, 100, Duration::from_millis(5)),
            Err(SegmentError::TooOld { oldest: 3 })
        );
        // The horizon itself is still served.
        let seg = log.wait_segment(3, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.ops.len(), 2);
    }

    #[test]
    fn durable_log_survives_restart_and_rotation() {
        let dir = TempDir::new("durable");
        let batch = ops(11, 50);
        {
            let store = JournalStore::open(dir.path(), 42).unwrap();
            let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
            log.append_with(&batch[..20], || ()).unwrap();
            // Snapshot at 20: rotate, prune below 20.
            log.compact(20).unwrap();
            log.append_with(&batch[20..], || ()).unwrap();
        }
        let store = JournalStore::open(dir.path(), 42).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 50);
        // The pre-rotation file is still on disk until the *next* prune
        // makes it redundant, so recovery still sees everything.
        assert_eq!(recovered.tail_from(20), &batch[20..]);
        // Restart again: a fresh writer at the head must not disturb
        // recovery continuity.
        let log = ReplicationLog::durable(store, &recovered).unwrap();
        assert_eq!(log.head(), 50);
        drop(log);
        let store = JournalStore::open(dir.path(), 42).unwrap();
        assert_eq!(store.recover_all().unwrap().head(), 50);
    }

    #[test]
    fn torn_journal_tail_recovers_the_clean_prefix() {
        let dir = TempDir::new("torn");
        let batch = ops(13, 30);
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        for chunk in batch.chunks(10) {
            log.append_with(chunk, || ()).unwrap();
        }
        drop(log);
        // Tear the tail of the newest file mid-segment.
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let (_, path) = store.list().unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = Mutation::Truncate {
            len: bytes.len() - 9,
        }
        .apply(&bytes);
        fs::write(&path, cut).unwrap();
        let recovered = store.recover_all().unwrap();
        // The last 10-op segment is gone; the first 20 survive intact.
        assert_eq!(recovered.head(), 20);
        assert_eq!(recovered.ops, batch[..20]);
    }

    #[test]
    fn corrupt_segment_in_the_newest_journal_is_refused_not_dropped() {
        let dir = TempDir::new("corrupt");
        let batch = ops(13, 30);
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        for chunk in batch.chunks(10) {
            log.append_with(chunk, || ()).unwrap();
        }
        drop(log);
        // Flip one byte inside segment 1 of the newest (only) file. A
        // segment is `count | len | 10 ops | crc` after a 32-byte header.
        let store = JournalStore::open(dir.path(), 7).unwrap();
        let (_, path) = store.list().unwrap().pop().unwrap();
        let segment_1 = 32 + (8 + 10 * REPL_OP_LEN + 4);
        let hurt = Mutation::Flip {
            offset: segment_1 + 8 + 5,
            xor: 0x01,
        }
        .apply(&fs::read(&path).unwrap());
        fs::write(&path, hurt).unwrap();
        match store.recover_all() {
            Err(ServeError::Replication { detail }) => {
                assert!(detail.contains(&path.display().to_string()), "{detail}");
                assert!(
                    detail.contains(&format!("byte offset {segment_1}")),
                    "{detail}"
                );
            }
            other => panic!("corruption must be refused, got {other:?}"),
        }
    }

    #[test]
    fn foreign_fingerprint_is_refused() {
        let dir = TempDir::new("foreign");
        let store = JournalStore::open(dir.path(), 1).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(1, 5), || ()).unwrap();
        drop(log);
        let store = JournalStore::open(dir.path(), 2).unwrap();
        assert!(matches!(
            store.recover_all(),
            Err(ServeError::Replication { .. })
        ));
    }

    #[test]
    fn journal_write_failure_aborts_before_dispatch() {
        let dir = TempDir::new("abort");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(2, 3), || ()).unwrap();
        // Remove the directory out from under the *next rotation* to
        // force an append failure path.
        fs::remove_dir_all(dir.path()).unwrap();
        // A floor with nothing to reclaim is a tolerant no-op even with
        // the directory gone (the satellite fix: a racing cleanup must
        // not fail compaction).
        let stats = log.compact(0).unwrap();
        assert_eq!(stats.reclaimed_bytes, 0);
        // A real floor needs a journal rotation, which must fail loudly:
        // losing durability is not tolerable.
        assert!(log.compact(3).is_err());
        let ran = std::cell::Cell::new(false);
        // The current writer's fd is still valid, so appends succeed and
        // the log stays consistent.
        let (head, ()) = log.append_with(&ops(2, 3), || ran.set(true)).unwrap();
        assert!(ran.get());
        assert_eq!(head, 6);
    }

    #[test]
    fn compact_reports_reclaimed_bytes() {
        let dir = TempDir::new("reclaim");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(5, 40), || ()).unwrap();
        let stats = log.compact(40).unwrap();
        assert_eq!(stats.floor, 40);
        // The pre-rotation file held 40 encoded ops plus framing.
        assert!(stats.reclaimed_bytes > 40 * REPL_OP_LEN as u64);
        assert_eq!(stats.held_bytes, 0);
        assert_eq!(log.oldest(), 40);
    }

    #[test]
    fn prune_tolerates_racing_unlinks() {
        let dir = TempDir::new("race");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let mut w = store.create_writer(0, 1).unwrap();
        w.append(3, &encode_ops(&ops(1, 3))).unwrap();
        drop(w);
        let _w2 = store.create_writer(3, 1).unwrap();
        // Someone else unlinks the redundant file between our listing
        // and our remove: prune must not fail, and reports 0 reclaimed.
        let victim = store.list().unwrap()[0].1.clone();
        fs::remove_file(&victim).unwrap();
        assert_eq!(store.prune_below(3).unwrap(), 0);
    }

    #[test]
    fn compaction_respects_live_leases_and_reports_held_bytes() {
        let dir = TempDir::new("lease");
        let store = JournalStore::open(dir.path(), 9).unwrap();
        let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
        log.append_with(&ops(5, 20), || ()).unwrap();
        // A live downstream at offset 5 pins the horizon.
        let lease = log.lease_grant(5);
        assert_eq!(log.lease_count(), 1);
        let stats = log.compact(20).unwrap();
        assert_eq!(stats.floor, 5);
        assert_eq!(stats.reclaimed_bytes, 0);
        assert!(stats.held_bytes > 0);
        assert_eq!(log.held_bytes(), stats.held_bytes);
        assert_eq!(log.oldest(), 5);
        // The laggard's offset is still servable.
        assert!(log.wait_segment(5, 100, Duration::from_millis(5)).is_ok());
        // Released, the same floor reclaims the pinned bytes.
        log.lease_release(lease);
        assert_eq!(log.lease_count(), 0);
        let stats = log.compact(20).unwrap();
        assert_eq!(stats.floor, 20);
        assert!(stats.reclaimed_bytes > 0);
        assert_eq!(stats.held_bytes, 0);
        assert_eq!(log.held_bytes(), 0);
        assert_eq!(log.oldest(), 20);
    }

    #[test]
    fn observe_epoch_adopts_only_newer_terms() {
        let log = ReplicationLog::in_memory(1);
        assert_eq!(log.epoch(), 1);
        assert!(!log.observe_epoch(1).unwrap());
        assert!(log.observe_epoch(5).unwrap());
        assert_eq!(log.epoch(), 5);
        assert!(!log.observe_epoch(3).unwrap());
        assert_eq!(log.epoch(), 5);
        assert_eq!(log.bump_epoch(0).unwrap(), 6);
        assert_eq!(log.bump_epoch(10).unwrap(), 10);
    }

    #[test]
    fn segments_carry_the_current_epoch() {
        let log = ReplicationLog::in_memory_at(1, 0, 4);
        log.append_with(&ops(3, 2), || ()).unwrap();
        let seg = log.wait_segment(0, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.epoch, 4);
        log.bump_epoch(0).unwrap();
        let seg = log.wait_segment(0, 100, Duration::from_millis(5)).unwrap();
        assert_eq!(seg.epoch, 5);
    }

    #[test]
    fn epoch_bump_is_durable_across_restart_and_torn_tail() {
        let dir = TempDir::new("epoch-durable");
        let batch = ops(17, 15);
        {
            let store = JournalStore::open(dir.path(), 3).unwrap();
            let log = ReplicationLog::durable(store, &Recovered::default()).unwrap();
            assert_eq!(log.epoch(), 1);
            log.append_with(&batch[..10], || ()).unwrap();
            // Promotion: the new term is journaled before it's live.
            assert_eq!(log.bump_epoch(0).unwrap(), 2);
            log.append_with(&batch[10..], || ()).unwrap();
        }
        let store = JournalStore::open(dir.path(), 3).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 15);
        assert_eq!(recovered.epoch, 2);
        // Tear the tail of the newest (post-bump) file mid-segment: the
        // epoch claim survives because it lives in the header, and the
        // re-open-as-leader path resumes at the clean durable prefix.
        let (_, path) = store.list().unwrap().pop().unwrap();
        let bytes = fs::read(&path).unwrap();
        let cut = Mutation::Truncate {
            len: bytes.len() - 7,
        }
        .apply(&bytes);
        fs::write(&path, cut).unwrap();
        let recovered = store.recover_all().unwrap();
        assert_eq!(recovered.head(), 10);
        assert_eq!(recovered.epoch, 2);
        // Re-open as leader under the next term.
        let next = recovered.epoch + 1;
        let log = ReplicationLog::durable_at_epoch(store, &recovered, next).unwrap();
        assert_eq!(log.epoch(), 3);
        assert_eq!(log.head(), 10);
        drop(log);
        let store = JournalStore::open(dir.path(), 3).unwrap();
        assert_eq!(store.recover_all().unwrap().epoch, 3);
    }
}
