//! The prepared-evaluation layer: per-trace resolution and per-index key
//! streams, computed once and shared across every scheme of a sweep.
//!
//! The naive evaluation path ([`crate::engine::run_scheme`]) pays three
//! per-call costs that a design-space sweep repeats hundreds of times per
//! trace: it re-resolves the ground-truth actuals (a hash pass over the
//! whole trace), recomputes `key_of`/`forward_key_of` for every event even
//! when dozens of schemes share one [`IndexSpec`], and probes the predictor
//! table twice per event. This module hoists the first two out of the
//! per-event loop:
//!
//! * [`KeyStream`] — the predictor keys (and forward keys) of every event
//!   under one [`IndexSpec`], as flat `Vec<u64>` columns, plus the
//!   distinct-key counts that size predictor tables up front and the
//!   slot-major payload columns (CSR over a dense slot remap of the keys)
//!   that let the family and SIMD kernels replay each predictor entry
//!   without any table at all;
//! * [`PreparedTrace`] — a [`ResolvedTrace`] (actuals / feedback /
//!   previous-writer / forward-source columns, resolved once) plus a
//!   concurrent cache of [`KeyStream`]s keyed by [`IndexSpec`], shared by
//!   reference across every scheme in a sweep.
//!
//! A key-stream build hashes each event's predictor key once. Its forward
//! key is, for every event the trace links to a forward source (see
//! [`ResolvedTrace::forward_sources`]), the source's predictor key, so it
//! is copied rather than hashed; only unlinked events (the first write of
//! a line inside a window, hand-built traces) hash it.
//!
//! The prepared engine entry points
//! ([`crate::engine::run_scheme_prepared`],
//! [`crate::engine::run_history_family_prepared`]) consume these columns
//! and are bit-identical to the naive path — the equivalence suite in
//! `tests/prepared_equivalence.rs` pins that.

use crate::hash::FxBuildHasher;
use crate::IndexSpec;
use csp_trace::{ResolvedTrace, SharingBitmap, Trace};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Most key streams a [`PreparedTrace`] keeps cached at once. Sized for
/// the sweep planners, which walk the design space in index clusters and
/// evict behind themselves; the cap only matters for callers that touch
/// many indexes without evicting.
const STREAM_CACHE_CAP: usize = 8;

/// The key columns of one trace under one [`IndexSpec`]: everything the
/// per-event loop needs from the access axis, computed in a single pass.
///
/// # Example
///
/// ```
/// use csp_core::{IndexSpec, KeyStream};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(3), Pc(0x1ab), LineAddr(9), NodeId(0),
///                          SharingBitmap::empty(), None));
/// let stream = KeyStream::compute(&t, IndexSpec::new(true, 8, false, 0));
/// assert_eq!(stream.keys(), &[(3 << 8) | 0xab]);
/// assert_eq!(stream.distinct_keys(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct KeyStream {
    index: IndexSpec,
    keys: Vec<u64>,
    forward_keys: Vec<u64>,
    distinct_keys: usize,
    distinct_forward_keys: usize,
    slot_starts: Vec<u32>,
    slot_data: Vec<SlotData>,
    op_starts: Vec<u32>,
    ops: Vec<SlotOp>,
    op_data: Vec<SharingBitmap>,
}

/// Everything the slot-major family loop needs about one event, laid out
/// in slot order so the hot loop streams through memory instead of
/// chasing event indices back into the event-order columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotData {
    /// The event's ground-truth actual bitmap (what to score, and the
    /// *ordered*-update feedback).
    pub actual: SharingBitmap,
    /// The event's invalidation feedback (the *direct*-update feedback).
    pub feedback: SharingBitmap,
    /// Whether the event has a previous writer (gates the direct-update
    /// push).
    pub has_prev: bool,
}

/// One *forwarded*-update table interaction of [`KeyStream::slot_ops`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOp {
    /// Push an event's invalidation feedback through its forward key.
    Push,
    /// Predict through an event's own key and score against its actual.
    Score,
}

impl KeyStream {
    /// Computes the key columns of `trace` under `index`: resolves the
    /// trace, then builds as [`KeyStream::compute_resolved`] does.
    ///
    /// This is the *single* key-derivation implementation in the
    /// workspace: the offline engine, the sweep planner and the online
    /// serving engine (`csp-serve`) all replay keys from here, so they
    /// cannot drift apart.
    pub fn compute(trace: &Trace, index: IndexSpec) -> Self {
        Self::compute_resolved(&ResolvedTrace::new(trace), index)
    }

    /// Computes the key columns of a resolved trace under `index` — the
    /// entry point [`PreparedTrace::key_stream`] uses so that one
    /// resolution pass serves every index of a sweep.
    ///
    /// Two passes over the events. The first hashes each predictor key
    /// once into a dense slot remap, takes each forward key from the
    /// event's forward source (hashing [`IndexSpec::forward_key_of`] only
    /// where there is none), and counts every slot's events and ops. The
    /// second scatters the payloads straight into their CSR positions.
    pub fn compute_resolved(resolved: &ResolvedTrace<'_>, index: IndexSpec) -> Self {
        let events = resolved.trace().events();
        let actuals = resolved.actuals();
        let feedback = resolved.invalidated();
        let has_prev = resolved.has_prev();
        let sources = resolved.forward_sources();
        let node_bits = crate::index::node_bits(resolved.nodes());
        let n = events.len();
        let mut keys = Vec::with_capacity(n);
        let mut forward_keys = Vec::with_capacity(n);
        // Event-order slot ids, only needed until the scatter below.
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        let mut forward_slots: Vec<u32> = Vec::with_capacity(n);
        let mut remap = SlotRemap::default();
        for (e, event) in events.iter().enumerate() {
            let key = index.key_of(event, node_bits);
            let slot = remap.intern(key);
            keys.push(key);
            slots.push(slot);
            remap.counts[slot as usize].events += 1;
            remap.counts[slot as usize].ops += 1;
            if !has_prev[e] {
                // Never read: every consumer gates on `has_prev`.
                forward_keys.push(0);
                forward_slots.push(0);
                continue;
            }
            let (fkey, fslot) = match sources[e] {
                ResolvedTrace::NO_SOURCE => {
                    let fkey = index
                        .forward_key_of(event, node_bits)
                        .expect("has_prev events have a previous writer");
                    (fkey, remap.intern(fkey))
                }
                src => (keys[src as usize], slots[src as usize]),
            };
            forward_keys.push(fkey);
            forward_slots.push(fslot);
            remap.counts[fslot as usize].ops += 1;
        }
        let counts = remap.counts;
        let distinct_keys = counts.iter().filter(|c| c.events > 0).count();
        // A slot's ops beyond its own events' scores are forwarded pushes.
        let distinct_forward = counts.iter().filter(|c| c.ops > c.events).count();
        let slot_starts = prefix_sums(counts.iter().map(|c| c.events));
        let op_starts = prefix_sums(counts.iter().map(|c| c.ops));
        // Scatter in event order, so within a slot events stay in event
        // order, and a forwarded event's push (through its forward slot)
        // precedes its score (through its own) — exactly the event-order
        // update-then-predict sequence.
        let mut slot_cursor = slot_starts.clone();
        let mut op_cursor = op_starts.clone();
        let mut slot_data = vec![SlotData::default(); n];
        // Every op starts as a score; the scatter marks the pushes.
        let mut ops = vec![SlotOp::Score; op_starts[op_starts.len() - 1] as usize];
        let mut op_data = vec![SharingBitmap::empty(); ops.len()];
        let per_event = slots.iter().zip(&forward_slots).zip(has_prev);
        for (((&s, &f), &has_prev), (&actual, &feedback)) in
            per_event.zip(actuals.iter().zip(feedback))
        {
            let s = s as usize;
            slot_data[slot_cursor[s] as usize] = SlotData {
                actual,
                feedback,
                has_prev,
            };
            slot_cursor[s] += 1;
            if has_prev {
                let c = &mut op_cursor[f as usize];
                ops[*c as usize] = SlotOp::Push;
                op_data[*c as usize] = feedback;
                *c += 1;
            }
            let c = &mut op_cursor[s];
            op_data[*c as usize] = actual;
            *c += 1;
        }
        KeyStream {
            index,
            keys,
            forward_keys,
            distinct_keys,
            distinct_forward_keys: distinct_forward,
            slot_starts,
            slot_data,
            op_starts,
            ops,
            op_data,
        }
    }

    /// The index specification this stream was computed for.
    #[inline]
    pub fn index(&self) -> IndexSpec {
        self.index
    }

    /// The predictor key of every event ([`IndexSpec::key_of`]), in event
    /// order.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The forward key of every event ([`IndexSpec::forward_key_of`]), in
    /// event order. A slot is meaningful only where the event has a
    /// previous writer (see [`ResolvedTrace::has_prev`]); other slots are 0.
    #[inline]
    pub fn forward_keys(&self) -> &[u64] {
        &self.forward_keys
    }

    /// Number of events in the stream.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` for an empty trace.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of dense slots: the distinct keys in the union of the
    /// predictor and forward key columns. Two events share a slot iff
    /// they share a key, and a forward key equal to some predictor key
    /// shares that key's slot; each slot is one predictor-table entry.
    /// Slot ids number the keys in order of first appearance, an event's
    /// predictor key before its forward key.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slot_starts.len() - 1
    }

    /// Number of distinct predictor keys the trace consults — the entry
    /// count a `direct`/`ordered` table converges to, used as the
    /// capacity hint of [`crate::PredictorTable::with_capacity`].
    #[inline]
    pub fn distinct_keys(&self) -> usize {
        self.distinct_keys
    }

    /// Number of distinct forward keys — the entry count a `forwarded`
    /// table's update path converges to.
    #[inline]
    pub fn distinct_forward_keys(&self) -> usize {
        self.distinct_forward_keys
    }

    /// The actual, feedback and previous-writer flag of each event whose
    /// predictor key maps to `slot`, in event order — the slot-major view
    /// of the stream. An event's predictor-table interactions touch only
    /// its own slot's entry (for `direct`/`ordered` updates), so a loop
    /// over slots that replays each slot's events against one *local*
    /// entry visits exactly the entry states the event-order loop would,
    /// with the entry register-resident instead of randomly probed.
    #[inline]
    pub fn slot_data(&self, slot: usize) -> &[SlotData] {
        &self.slot_data[self.slot_starts[slot] as usize..self.slot_starts[slot + 1] as usize]
    }

    /// The table interactions targeting `slot` under *forwarded* update,
    /// in event order. A forwarded event touches up to two slots (a push
    /// via its forward key, a score via its own), so the slot-major view
    /// needs this merged sequence rather than [`KeyStream::slot_data`].
    #[inline]
    pub fn slot_ops(&self, slot: usize) -> &[SlotOp] {
        &self.ops[self.op_starts[slot] as usize..self.op_starts[slot + 1] as usize]
    }

    /// The payloads of [`KeyStream::slot_ops`], parallel to them: a push
    /// op's invalidation feedback, or a score op's actual bitmap.
    #[inline]
    pub fn slot_op_data(&self, slot: usize) -> &[SharingBitmap] {
        &self.op_data[self.op_starts[slot] as usize..self.op_starts[slot + 1] as usize]
    }
}

/// Dense slot ids over the union of a stream's predictor and forward
/// keys, plus the per-slot counts its CSR columns are sized from. Both
/// key kinds share one id space: a forwarded update and a later
/// prediction through the same index value must land on the same entry.
#[derive(Default)]
struct SlotRemap {
    ids: HashMap<u64, u32, FxBuildHasher>,
    counts: Vec<SlotCounts>,
}

/// What one slot holds, counted while the slot ids are assigned.
#[derive(Clone, Copy, Default)]
struct SlotCounts {
    /// Events whose predictor key maps here.
    events: u32,
    /// Forwarded-update ops targeting the slot: one score per event
    /// above, plus one push per event whose forward key maps here.
    ops: u32,
}

impl SlotRemap {
    /// The slot id of `key`, assigning the next id on first sight.
    #[inline]
    fn intern(&mut self, key: u64) -> u32 {
        let next = self.counts.len() as u32;
        match self.ids.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                self.counts.push(SlotCounts::default());
                *v.insert(next)
            }
        }
    }
}

/// CSR offsets of per-slot `counts`: `starts[s]..starts[s + 1]` is slot
/// `s`'s range.
fn prefix_sums(counts: impl ExactSizeIterator<Item = u32>) -> Vec<u32> {
    let mut starts = Vec::with_capacity(counts.len() + 1);
    let mut total = 0u32;
    starts.push(0);
    for c in counts {
        total += c;
        starts.push(total);
    }
    starts
}

/// A trace prepared for repeated evaluation: ground truth resolved once,
/// key streams computed once per [`IndexSpec`] and shared by reference.
///
/// A `PreparedTrace` is `Sync`: sweep workers on different threads share
/// one instance per benchmark, and the key-stream cache hands each of them
/// an [`Arc`] to the same columns.
///
/// # Example
///
/// ```
/// use csp_core::{engine, PreparedTrace, Scheme};
/// use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
///
/// let mut t = Trace::new(16);
/// t.push(SharingEvent::new(NodeId(0), Pc(7), LineAddr(3), NodeId(1),
///                          SharingBitmap::empty(), None));
/// let prepared = PreparedTrace::new(&t);
/// let scheme: Scheme = "union(pid+pc8)2[direct]".parse()?;
/// // Bit-identical to engine::run_scheme(&t, &scheme), without re-resolving.
/// let m = engine::run_scheme_prepared(&prepared, &scheme);
/// assert_eq!(m, engine::run_scheme(&t, &scheme));
/// # Ok::<(), csp_core::ParseSchemeError>(())
/// ```
#[derive(Debug)]
pub struct PreparedTrace<'t> {
    resolved: ResolvedTrace<'t>,
    node_bits: u32,
    streams: Mutex<HashMap<IndexSpec, Arc<KeyStream>>>,
}

impl<'t> PreparedTrace<'t> {
    /// Prepares `trace`: resolves the actuals and flattens the per-event
    /// columns, once.
    pub fn new(trace: &'t Trace) -> Self {
        PreparedTrace {
            resolved: ResolvedTrace::new(trace),
            node_bits: crate::index::node_bits(trace.nodes()),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying trace.
    #[inline]
    pub fn trace(&self) -> &'t Trace {
        self.resolved.trace()
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.resolved.len()
    }

    /// Returns `true` for an empty trace.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.resolved.is_empty()
    }

    /// The machine's node count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.resolved.nodes()
    }

    /// `ceil(log2(nodes))` — the `node_bits` of [`IndexSpec::key`].
    #[inline]
    pub fn node_bits(&self) -> u32 {
        self.node_bits
    }

    /// The ground-truth actual bitmap of every event (resolved once).
    #[inline]
    pub fn actuals(&self) -> &[SharingBitmap] {
        self.resolved.actuals()
    }

    /// The invalidation feedback of every event.
    #[inline]
    pub fn invalidated(&self) -> &[SharingBitmap] {
        self.resolved.invalidated()
    }

    /// Whether each event has a previous writer.
    #[inline]
    pub fn has_prev(&self) -> &[bool] {
        self.resolved.has_prev()
    }

    /// The key stream for `index`, computing it on first request and
    /// serving every later request (from any thread) out of the cache.
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock was poisoned, which requires a
    /// panic *inside* this method on another thread (key computation
    /// happens outside the lock).
    pub fn key_stream(&self, index: IndexSpec) -> Arc<KeyStream> {
        if let Some(stream) = self
            .streams
            .lock()
            .expect("key-stream cache poisoned")
            .get(&index)
        {
            return Arc::clone(stream);
        }
        // Compute outside the lock: a long build must not serialize other
        // indexes' lookups. Two threads racing on the same index both
        // compute; the first insert wins and both results are identical.
        let computed = Arc::new(KeyStream::compute_resolved(&self.resolved, index));
        let mut cache = self.streams.lock().expect("key-stream cache poisoned");
        // Bound the cache: a full design-space sweep visits hundreds of
        // indexes, and an unbounded cache would hold every one of their
        // column sets for the whole sweep. Eviction is coarse (drop
        // everything) because sweeps touch indexes in clusters; streams
        // still in use stay alive through their `Arc`s.
        if cache.len() >= STREAM_CACHE_CAP && !cache.contains_key(&index) {
            cache.clear();
        }
        Arc::clone(cache.entry(index).or_insert(computed))
    }

    /// Drops the cached key stream for `index`, if any, returning whether
    /// one was cached. Sweep planners call this when no further scheme of
    /// the sweep will need the index, keeping a long sweep's footprint at
    /// `O(live groups)` instead of `O(all indexes)`. Dropping is safe at
    /// any time: callers holding the stream's `Arc` keep it alive, and a
    /// later request simply recomputes.
    pub fn evict_stream(&self, index: IndexSpec) -> bool {
        self.streams
            .lock()
            .expect("key-stream cache poisoned")
            .remove(&index)
            .is_some()
    }

    /// Number of key streams currently cached (diagnostics / tests).
    ///
    /// # Panics
    ///
    /// Panics if the internal cache lock was poisoned (see
    /// [`PreparedTrace::key_stream`]).
    pub fn cached_streams(&self) -> usize {
        self.streams
            .lock()
            .expect("key-stream cache poisoned")
            .len()
    }
}

// Sweep workers share one PreparedTrace per benchmark across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedTrace<'static>>();
    assert_send_sync::<KeyStream>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::{LineAddr, NodeId, Pc, SharingEvent};

    fn sample_trace() -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..20u64 {
            let writer = NodeId((i % 3) as u8);
            let pc = Pc(0x40 + (i % 2) as u32);
            let inv = if prev.is_some() {
                SharingBitmap::from_nodes(&[NodeId(((i + 5) % 16) as u8)])
            } else {
                SharingBitmap::empty()
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(i % 4),
                NodeId((i % 4) as u8),
                inv,
                prev,
            ));
            prev = Some((writer, pc));
        }
        t.set_final_readers(LineAddr(1), SharingBitmap::from_nodes(&[NodeId(9)]));
        t
    }

    #[test]
    fn key_stream_matches_per_event_key_of() {
        let trace = sample_trace();
        let nb = crate::index::node_bits(trace.nodes());
        for index in [
            IndexSpec::new(true, 8, false, 0),
            IndexSpec::new(false, 0, true, 4),
            IndexSpec::new(true, 4, true, 6),
            IndexSpec::none(),
        ] {
            let stream = KeyStream::compute(&trace, index);
            assert_eq!(stream.index(), index);
            assert_eq!(stream.len(), trace.len());
            for (i, event) in trace.events().iter().enumerate() {
                assert_eq!(stream.keys()[i], index.key_of(event, nb), "event {i}");
                if let Some(fkey) = index.forward_key_of(event, nb) {
                    assert_eq!(stream.forward_keys()[i], fkey, "forward {i}");
                }
            }
        }
    }

    #[test]
    fn distinct_counts_match_brute_force() {
        let trace = sample_trace();
        let nb = crate::index::node_bits(trace.nodes());
        let index = IndexSpec::new(true, 1, false, 2);
        let stream = KeyStream::compute(&trace, index);
        let brute: std::collections::HashSet<u64> =
            trace.events().iter().map(|e| index.key_of(e, nb)).collect();
        let brute_fwd: std::collections::HashSet<u64> = trace
            .events()
            .iter()
            .filter_map(|e| index.forward_key_of(e, nb))
            .collect();
        assert_eq!(stream.distinct_keys(), brute.len());
        assert_eq!(stream.distinct_forward_keys(), brute_fwd.len());
    }

    #[test]
    fn prepared_trace_caches_streams() {
        let trace = sample_trace();
        let prepared = PreparedTrace::new(&trace);
        assert_eq!(prepared.cached_streams(), 0);
        let ix = IndexSpec::new(true, 8, false, 0);
        let a = prepared.key_stream(ix);
        let b = prepared.key_stream(ix);
        assert!(Arc::ptr_eq(&a, &b), "same index must share one stream");
        assert_eq!(prepared.cached_streams(), 1);
        let _ = prepared.key_stream(IndexSpec::none());
        assert_eq!(prepared.cached_streams(), 2);
    }

    #[test]
    fn prepared_columns_match_trace() {
        let trace = sample_trace();
        let prepared = PreparedTrace::new(&trace);
        assert_eq!(prepared.len(), trace.len());
        assert_eq!(prepared.nodes(), 16);
        assert_eq!(prepared.node_bits(), 4);
        assert_eq!(prepared.actuals(), trace.resolve_actuals().as_slice());
        for (i, e) in trace.events().iter().enumerate() {
            assert_eq!(prepared.invalidated()[i], e.invalidated);
            assert_eq!(prepared.has_prev()[i], e.prev_writer.is_some());
        }
    }

    #[test]
    fn empty_trace_prepares_cleanly() {
        let trace = Trace::new(4);
        let prepared = PreparedTrace::new(&trace);
        assert!(prepared.is_empty());
        let stream = prepared.key_stream(IndexSpec::new(true, 2, false, 2));
        assert!(stream.is_empty());
        assert_eq!(stream.distinct_keys(), 0);
        assert_eq!(stream.distinct_forward_keys(), 0);
    }
}
