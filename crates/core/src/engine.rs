//! The evaluation engine: runs schemes over traces.
//!
//! One trace event = one decision. The engine applies the scheme's update
//! mechanism and scores each prediction against the event's *actual* bitmap
//! (the trace's resolved ground truth). Update timing per mode:
//!
//! * `direct` — the invalidation feedback carried by the event itself is
//!   shifted into the *current* event's entry, then the entry predicts.
//!   Events with no previous writer carry no invalidation and update
//!   nothing (keeping direct exactly equivalent to ordered under pure
//!   address indexing, as Section 3.4 requires).
//! * `forwarded` — the feedback is shifted into the *previous writer's*
//!   entry (if any), then the current entry predicts.
//! * `ordered` — the entry predicts, then is immediately trained with the
//!   event's own actual bitmap (known from the trace's first pass): every
//!   later prediction through that entry sees this feedback, the oracle
//!   ordering of Figure 4.
//!
//! Both evaluation loops walk the flat columns of a [`PreparedTrace`]
//! (ground-truth actuals resolved once, per-index key streams computed
//! once), one per family of prediction functions:
//!
//! * `score_events` is the one evaluator of the history functions
//!   (`last`, `union`, `inter`, `overlap-last`). It walks events in order
//!   over a flat array of shift windows indexed by the key stream's dense
//!   slot ids (no hashing, no table) and hands every decision to an
//!   accumulator: the per-depth family counters score every
//!   `union`/`inter` depth in one pass ([`run_history_family`], the
//!   design-space sweep's kernel); the batched popcount accumulator
//!   scores one scheme ([`run_scheme`]; its batches are summed by
//!   [`crate::simd`]); the visiting accumulator records each event's
//!   prediction ([`predictions_for`]).
//! * `drive` evaluates PAs, whose per-reader counters are
//!   control-flow-bound rather than a bitmap fold: it walks events in
//!   order through a real predictor table with the one-probe entry API
//!   ([`PredictorTable::update_and_predict`] and friends).
//!
//! [`crate::reference`] spells the same semantics out with none of this
//! machinery and is the oracle the equivalence tests hold both loops to.
//!
//! The `*_prepared` entry points share an explicit `PreparedTrace` across
//! many schemes (the sweep case); the plain entry points prepare
//! internally per call, so a single evaluation still pays resolution
//! exactly once.

use crate::simd::{detect_backend, Popcount, SimdBackend, BATCH};
use crate::{
    IndexSpec, PredictionFunction, PredictorTable, PreparedTrace, Scheme, UpdateMode, MAX_DEPTH,
};
use csp_metrics::ConfusionMatrix;
use csp_trace::{SharingBitmap, Trace};
use std::marker::PhantomData;

/// Runs `scheme` over `trace`, scoring every decision.
///
/// Prepares the trace internally; sweeps that evaluate many schemes over
/// one trace should prepare once and call [`run_scheme_prepared`].
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn run_scheme(trace: &Trace, scheme: &Scheme) -> ConfusionMatrix {
    run_scheme_prepared(&PreparedTrace::new(trace), scheme)
}

/// Runs `scheme` over an already-prepared trace, scoring every decision.
/// Bit-identical to [`run_scheme`]; the actuals and the key stream come
/// from `prepared`'s shared columns instead of being recomputed.
pub fn run_scheme_prepared(prepared: &PreparedTrace<'_>, scheme: &Scheme) -> ConfusionMatrix {
    run_scheme_with(prepared, scheme, detect_backend())
}

/// [`run_scheme_prepared`] with an explicit popcount backend for the
/// history functions (see [`crate::run_scheme_simd_with`]).
pub(crate) fn run_scheme_with(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    backend: SimdBackend,
) -> ConfusionMatrix {
    match scheme.function {
        PredictionFunction::Last => batched::<LastFold>(prepared, scheme, backend),
        PredictionFunction::Union => batched::<UnionFold>(prepared, scheme, backend),
        PredictionFunction::Inter => batched::<InterFold>(prepared, scheme, backend),
        PredictionFunction::OverlapLast => batched::<OverlapFold>(prepared, scheme, backend),
        PredictionFunction::Pas => {
            let nodes = prepared.nodes();
            let mut matrix = ConfusionMatrix::default();
            drive(prepared, scheme, |predicted, actual| {
                matrix.record(predicted, actual, nodes);
            });
            matrix
        }
    }
}

/// One history scheme through the scoring kernel and the batched
/// popcount accumulator, folding each window with `F`.
fn batched<F: Fold>(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    backend: SimdBackend,
) -> ConfusionMatrix {
    let acc = BatchAcc::<F>::new(backend);
    let depth = F::window(scheme);
    score_events(prepared, scheme.index, scheme.update, depth, acc).finish(prepared.nodes())
}

/// Runs `scheme` over `trace` and returns the per-event predictions
/// (e.g. for the forwarding estimator in `csp-sim`).
pub fn predictions_for(trace: &Trace, scheme: &Scheme) -> Vec<SharingBitmap> {
    predictions_for_prepared(&PreparedTrace::new(trace), scheme)
}

/// Per-event predictions over an already-prepared trace (see
/// [`predictions_for`]).
pub fn predictions_for_prepared(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
) -> Vec<SharingBitmap> {
    match scheme.function {
        PredictionFunction::Last => visited::<LastFold>(prepared, scheme),
        PredictionFunction::Union => visited::<UnionFold>(prepared, scheme),
        PredictionFunction::Inter => visited::<InterFold>(prepared, scheme),
        PredictionFunction::OverlapLast => visited::<OverlapFold>(prepared, scheme),
        PredictionFunction::Pas => {
            let mut out = Vec::with_capacity(prepared.len());
            drive(prepared, scheme, |predicted, _| out.push(predicted));
            out
        }
    }
}

/// One history scheme's per-event predictions through the scoring
/// kernel and the visiting accumulator, folding each window with `F`.
fn visited<F: Fold>(prepared: &PreparedTrace<'_>, scheme: &Scheme) -> Vec<SharingBitmap> {
    let acc = Visit::<F>::with_capacity(prepared.len());
    let depth = F::window(scheme);
    score_events(prepared, scheme.index, scheme.update, depth, acc).predictions
}

/// The PAs evaluation loop: calls `visit(predicted, actual)` for every
/// event in order, walking the prepared columns with one table probe per
/// entry touched.
fn drive<F: FnMut(SharingBitmap, SharingBitmap)>(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    mut visit: F,
) {
    debug_assert_eq!(scheme.function, PredictionFunction::Pas);
    let stream = prepared.key_stream(scheme.index);
    let keys = stream.keys();
    let forward_keys = stream.forward_keys();
    let has_prev = prepared.has_prev();
    let invalidated = prepared.invalidated();
    let actuals = prepared.actuals();
    // Entries are created by the update path only: `direct`/`ordered`
    // tables converge to the distinct predictor keys, `forwarded` tables
    // to the distinct forward keys.
    let capacity = match scheme.update {
        UpdateMode::Forwarded => stream.distinct_forward_keys(),
        UpdateMode::Direct | UpdateMode::Ordered => stream.distinct_keys(),
    };
    let mut table = PredictorTable::with_capacity(scheme, prepared.nodes(), capacity);
    for i in 0..prepared.len() {
        let key = keys[i];
        let predicted = match scheme.update {
            UpdateMode::Direct => {
                if has_prev[i] {
                    table.update_and_predict(key, invalidated[i])
                } else {
                    table.predict(key)
                }
            }
            UpdateMode::Forwarded => {
                // Forward key and predictor key are distinct entries: one
                // probe each is already minimal.
                if has_prev[i] {
                    table.update(forward_keys[i], invalidated[i]);
                }
                table.predict(key)
            }
            UpdateMode::Ordered => table.predict_and_update(key, actuals[i]),
        };
        visit(predicted, actuals[i]);
    }
}

/// Confusion matrices for the whole `union`/`inter` family over one index
/// and update mode, evaluated in a single trace pass.
///
/// `union[d-1]` / `inter[d-1]` hold the results for history depth `d`.
/// Depth 1 of either family is exactly `last` prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyResult {
    /// Results for `union(index)d`, indexed by `d - 1`.
    pub union: Vec<ConfusionMatrix>,
    /// Results for `inter(index)d`, indexed by `d - 1`.
    pub inter: Vec<ConfusionMatrix>,
}

/// Evaluates `union` and `inter` at every depth `1..=max_depth` over one
/// `(index, update)` point in a single pass — the workhorse of the
/// design-space sweeps, ~`2 x max_depth` cheaper than separate runs.
///
/// # Panics
///
/// Panics if `max_depth` is out of `1..=MAX_DEPTH`.
pub fn run_history_family(
    trace: &Trace,
    index: IndexSpec,
    update: UpdateMode,
    max_depth: usize,
) -> FamilyResult {
    run_history_family_prepared(&PreparedTrace::new(trace), index, update, max_depth)
}

/// The family evaluator over an already-prepared trace: bit-identical to
/// [`run_history_family`], sharing `prepared`'s actuals and key stream
/// with every other scheme of the sweep.
///
/// # Panics
///
/// Panics if `max_depth` is out of `1..=MAX_DEPTH`.
pub fn run_history_family_prepared(
    prepared: &PreparedTrace<'_>,
    index: IndexSpec,
    update: UpdateMode,
    max_depth: usize,
) -> FamilyResult {
    let nodes = prepared.nodes();
    let acc = score_events(prepared, index, update, max_depth, FamilyAcc::new(nodes));
    acc.finish(max_depth, nodes)
}

/// A predictor entry's history as a linear shift window of raw bitmap
/// bits: `bits[0]` is the newest stored feedback. Same state as
/// [`crate::HistoryEntry`] but laid out for the scoring fold: pushes shift
/// instead of rotating a ring, and slots never written stay zero. Zero is
/// the identity of the union fold and absorbing for the intersection fold,
/// so folding across all `D` slots of a partially-filled window reproduces
/// exactly the shallow-entry semantics with no occupancy count (union over
/// everything stored; an intersection entry whose history is not yet full
/// predicts nothing).
#[derive(Clone, Copy)]
struct Window<const D: usize> {
    bits: [u64; D],
}

impl<const D: usize> Window<D> {
    #[inline(always)]
    fn push(&mut self, feedback: u64) {
        self.bits.copy_within(0..D - 1, 1);
        self.bits[0] = feedback;
    }
}

/// What the scoring kernel scores into: each decision arrives as the
/// entry's window at prediction time plus the decision's actual bitmap.
trait Accumulator {
    fn score<const D: usize>(&mut self, w: &Window<D>, actual: u64);
}

/// The scoring kernel behind every history-function evaluation: feeds every decision of `update` over
/// `prepared` under `index` into `acc` with a `depth`-deep window.
///
/// The depth is checked before the walk fetches the key stream, so a bad
/// depth builds (and caches) nothing.
///
/// # Panics
///
/// Panics if `depth` is out of `1..=MAX_DEPTH`.
fn score_events<A: Accumulator>(
    prepared: &PreparedTrace<'_>,
    index: IndexSpec,
    update: UpdateMode,
    depth: usize,
    acc: A,
) -> A {
    // Monomorphize the hot loop per depth: a const-generic depth turns
    // the per-decision fold into a fixed-bound, fully unrollable loop
    // with no per-depth branches.
    match depth {
        1 => walk::<1, A>(prepared, index, update, acc),
        2 => walk::<2, A>(prepared, index, update, acc),
        3 => walk::<3, A>(prepared, index, update, acc),
        4 => walk::<4, A>(prepared, index, update, acc),
        5 => walk::<5, A>(prepared, index, update, acc),
        6 => walk::<6, A>(prepared, index, update, acc),
        7 => walk::<7, A>(prepared, index, update, acc),
        8 => walk::<8, A>(prepared, index, update, acc),
        _ => panic!("history depth must be in 1..={MAX_DEPTH}, got {depth}"),
    }
}

/// The event-order walk at one const depth `D`.
///
/// Every predictor entry is one [`Window`] in a flat array indexed by the
/// key stream's dense slot ids, so there is no table at all: no per-event
/// hash probe, just one array index per touched entry, and the per-event
/// columns stream sequentially. A fresh (all-zero) window scores exactly
/// like an absent table entry, matching the hashed create-on-update
/// semantics, so the result is bit-identical to the table-backed `drive`.
fn walk<const D: usize, A: Accumulator>(
    prepared: &PreparedTrace<'_>,
    index: IndexSpec,
    update: UpdateMode,
    mut acc: A,
) -> A {
    let stream = prepared.key_stream(index);
    let mut windows = vec![Window::<D> { bits: [0; D] }; stream.slot_count()];
    let per_event = stream.slots().iter().zip(prepared.actuals());
    let feedback = prepared.has_prev().iter().zip(prepared.invalidated());
    match update {
        UpdateMode::Direct => {
            for ((&slot, actual), (&has_prev, inv)) in per_event.zip(feedback) {
                let w = &mut windows[slot as usize];
                if has_prev {
                    w.push(inv.bits());
                }
                acc.score(w, actual.bits());
            }
        }
        UpdateMode::Ordered => {
            for (&slot, actual) in per_event {
                let w = &mut windows[slot as usize];
                acc.score(w, actual.bits());
                w.push(actual.bits());
            }
        }
        // The push goes in before the score: under a pure-address index
        // the forward slot and the event's own slot are one entry.
        UpdateMode::Forwarded => {
            let forward = stream.forward_slots().iter().zip(feedback);
            for ((&slot, actual), (&fslot, (&has_prev, inv))) in per_event.zip(forward) {
                if has_prev {
                    windows[fslot as usize].push(inv.bits());
                }
                acc.score(&windows[slot as usize], actual.bits());
            }
        }
    }
    acc
}

/// The counter algebra the matrix accumulators finish with: the full
/// matrix from the sums of `popcount(predicted & actual)`,
/// `popcount(predicted)` and `popcount(actual)` over `scored` decisions,
/// via `fp = predicted − tp`, `fn = actual − tp` and
/// `tn = scored·nodes − tp − fp − fn`. These are exact integer identities
/// over the same per-event popcounts [`ConfusionMatrix::record`] sums, so
/// the matrix is bit-identical to per-event `record` calls.
fn matrix_from_sums(
    tp: u64,
    predicted: u64,
    actual: u64,
    scored: u64,
    nodes: usize,
) -> ConfusionMatrix {
    let fp = predicted - tp;
    let fn_ = actual - tp;
    ConfusionMatrix {
        tp,
        fp,
        fn_,
        tn: scored * nodes as u64 - tp - fp - fn_,
    }
}

/// The family accumulator: true and predicted positives of `union` and
/// `inter` at every depth of the window, for one pass.
struct FamilyAcc {
    tp_union: [u64; MAX_DEPTH],
    predicted_union: [u64; MAX_DEPTH],
    tp_inter: [u64; MAX_DEPTH],
    predicted_inter: [u64; MAX_DEPTH],
    actual: u64,
    scored: u64,
    all: u64,
}

impl FamilyAcc {
    fn new(nodes: usize) -> Self {
        FamilyAcc {
            tp_union: [0; MAX_DEPTH],
            predicted_union: [0; MAX_DEPTH],
            tp_inter: [0; MAX_DEPTH],
            predicted_inter: [0; MAX_DEPTH],
            actual: 0,
            scored: 0,
            all: SharingBitmap::all(nodes).bits(),
        }
    }

    fn finish(self, max_depth: usize, nodes: usize) -> FamilyResult {
        let matrix =
            |tp, predicted| matrix_from_sums(tp, predicted, self.actual, self.scored, nodes);
        FamilyResult {
            union: (0..max_depth)
                .map(|d| matrix(self.tp_union[d], self.predicted_union[d]))
                .collect(),
            inter: (0..max_depth)
                .map(|d| matrix(self.tp_inter[d], self.predicted_inter[d]))
                .collect(),
        }
    }
}

impl Accumulator for FamilyAcc {
    /// Scores one decision at every depth `1..=D` against the window's
    /// fold prefixes.
    #[inline(always)]
    fn score<const D: usize>(&mut self, w: &Window<D>, actual: u64) {
        self.scored += 1;
        self.actual += u64::from(actual.count_ones());
        let (mut union, mut inter) = (0, self.all);
        for d in 0..D {
            union |= w.bits[d];
            inter &= w.bits[d];
            self.tp_union[d] += u64::from((union & actual).count_ones());
            self.predicted_union[d] += u64::from(union.count_ones());
            self.tp_inter[d] += u64::from((inter & actual).count_ones());
            self.predicted_inter[d] += u64::from(inter.count_ones());
        }
    }
}

/// One prediction function's fold over a shift window.
trait Fold {
    /// The window depth the function folds for `scheme`.
    fn window(scheme: &Scheme) -> usize {
        scheme.depth
    }
    fn fold<const D: usize>(w: &Window<D>) -> u64;
}

/// `last`: the newest stored bitmap (zero while cold — a cold entry
/// predicts nothing, and a stored empty feedback predicts empty either
/// way).
struct LastFold;
impl Fold for LastFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &Window<D>) -> u64 {
        w.bits[0]
    }
}

/// `union(D)`: OR over the window; zero padding is the fold identity.
struct UnionFold;
impl Fold for UnionFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &Window<D>) -> u64 {
        let mut acc = 0;
        for d in 0..D {
            acc |= w.bits[d];
        }
        acc
    }
}

/// `inter(D)`: AND over the window; a not-yet-full history still holds a
/// zero slot, so the fold is empty exactly when
/// [`crate::HistoryEntry::inter`] abstains.
struct InterFold;
impl Fold for InterFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &Window<D>) -> u64 {
        let mut acc = w.bits[0];
        for d in 1..D {
            acc &= w.bits[d];
        }
        acc
    }
}

/// `overlap-last`: predict the newest bitmap only if it overlaps the one
/// before it. With fewer than two stored bitmaps the older slot is zero,
/// the overlap test fails, and the fold abstains — matching
/// [`crate::HistoryEntry::overlap_last`].
struct OverlapFold;
impl Fold for OverlapFold {
    /// Two stored bitmaps whatever the scheme's depth, the same ring the
    /// table constructor gives `overlap-last`.
    fn window(_: &Scheme) -> usize {
        2
    }

    #[inline(always)]
    fn fold<const D: usize>(w: &Window<D>) -> u64 {
        if w.bits[0] & w.bits[1] != 0 {
            w.bits[0]
        } else {
            0
        }
    }
}

/// The batched confusion accumulator: buffers `(F::fold(window), actual)`
/// bit pairs and sums full batches of [`BATCH`] into the three popcounts
/// through [`Popcount`] (AVX2 when the backend and host allow it). Integer
/// sums are order- and grouping-independent, so the result is
/// bit-identical to per-event [`ConfusionMatrix::record`] calls.
struct BatchAcc<F> {
    pred: [u64; BATCH],
    act: [u64; BATCH],
    fill: usize,
    tp: u64,
    predicted: u64,
    actual: u64,
    scored: u64,
    popcount: Popcount,
    fold: PhantomData<F>,
}

impl<F: Fold> BatchAcc<F> {
    fn new(backend: SimdBackend) -> Self {
        BatchAcc {
            pred: [0; BATCH],
            act: [0; BATCH],
            fill: 0,
            tp: 0,
            predicted: 0,
            actual: 0,
            scored: 0,
            popcount: Popcount::new(backend),
            fold: PhantomData,
        }
    }

    #[inline]
    fn flush(&mut self) {
        let (tp, predicted, actual) = self.popcount.sums(&self.pred, &self.act);
        self.tp += tp;
        self.predicted += predicted;
        self.actual += actual;
        self.scored += self.fill as u64;
        self.fill = 0;
    }

    fn finish(mut self, nodes: usize) -> ConfusionMatrix {
        // Zeroed lanes add nothing to any of the three sums.
        self.pred[self.fill..].fill(0);
        self.act[self.fill..].fill(0);
        self.flush();
        matrix_from_sums(self.tp, self.predicted, self.actual, self.scored, nodes)
    }
}

impl<F: Fold> Accumulator for BatchAcc<F> {
    #[inline(always)]
    fn score<const D: usize>(&mut self, w: &Window<D>, actual: u64) {
        self.pred[self.fill] = F::fold(w);
        self.act[self.fill] = actual;
        self.fill += 1;
        if self.fill == BATCH {
            self.flush();
        }
    }
}

/// The visiting accumulator: records each decision's fold as its event's
/// prediction. The kernel scores every event exactly once, in event
/// order, so the `i`-th push is event `i`'s prediction.
struct Visit<F> {
    predictions: Vec<SharingBitmap>,
    fold: PhantomData<F>,
}

impl<F: Fold> Visit<F> {
    fn with_capacity(events: usize) -> Self {
        Visit {
            predictions: Vec::with_capacity(events),
            fold: PhantomData,
        }
    }
}

impl<F: Fold> Accumulator for Visit<F> {
    #[inline(always)]
    fn score<const D: usize>(&mut self, w: &Window<D>, _actual: u64) {
        self.predictions.push(SharingBitmap::from_bits(F::fold(w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use csp_trace::{LineAddr, NodeId, Pc, SharingEvent};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// Single-writer producer-consumer trace: node 0 writes line 1, nodes
    /// 1 and 2 always read it.
    fn stable_trace(n_events: usize) -> Trace {
        let mut t = Trace::new(16);
        for i in 0..n_events {
            let (inv, prev) = if i == 0 {
                (SharingBitmap::empty(), None)
            } else {
                (bm(&[1, 2]), Some((NodeId(0), Pc(7))))
            };
            t.push(SharingEvent::new(
                NodeId(0),
                Pc(7),
                LineAddr(1),
                NodeId(0),
                inv,
                prev,
            ));
        }
        t.set_final_readers(LineAddr(1), bm(&[1, 2]));
        t
    }

    /// Two writers alternating on one line, each with its own readers:
    /// the pattern of the paper's Figure 3 where direct update learns the
    /// *other* writer's history.
    fn alternating_trace(pairs: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..pairs * 2 {
            let (writer, pc, my_readers) = if i % 2 == 0 {
                (NodeId(0), Pc(10), bm(&[4, 5]))
            } else {
                (NodeId(1), Pc(20), bm(&[8, 9]))
            };
            // Invalidation reports the *previous* writer's readers.
            let inv = match prev {
                None => SharingBitmap::empty(),
                Some((NodeId(0), _)) => bm(&[4, 5]),
                Some(_) => bm(&[8, 9]),
            };
            t.push(SharingEvent::new(
                writer,
                pc,
                LineAddr(1),
                NodeId(0),
                inv,
                prev,
            ));
            prev = Some((writer, pc));
            let _ = my_readers;
        }
        // Last writer was node 1 (odd count), its readers are final.
        t.set_final_readers(LineAddr(1), bm(&[8, 9]));
        t
    }

    #[test]
    fn stable_sharing_is_perfectly_predicted_after_warmup() {
        let trace = stable_trace(50);
        for spec in ["last(pid+pc8)1", "union(pid+pc8)2", "inter(pid+pc8)4"] {
            let scheme: Scheme = spec.parse().unwrap();
            let s = run_scheme(&trace, &scheme).screening();
            assert!(s.pvp > 0.9, "{spec}: pvp {}", s.pvp);
            assert!(s.sensitivity > 0.85, "{spec}: sens {}", s.sensitivity);
        }
    }

    #[test]
    fn forwarded_beats_direct_on_alternating_writers() {
        // With pc indexing, direct update trains writer A's entry with
        // writer B's readers; forwarded update routes feedback correctly.
        let trace = alternating_trace(100);
        let direct: Scheme = "last(pid+pc8)1[direct]".parse().unwrap();
        let fwd: Scheme = "last(pid+pc8)1[forwarded]".parse().unwrap();
        let sd = run_scheme(&trace, &direct).screening();
        let sf = run_scheme(&trace, &fwd).screening();
        assert!(
            sf.pvp > sd.pvp + 0.4,
            "forwarded {:.2} should beat direct {:.2}",
            sf.pvp,
            sd.pvp
        );
        // Direct learns exactly the wrong thing here: PVP ~ 0.
        assert!(sd.pvp < 0.1);
        assert!(sf.pvp > 0.9);
    }

    #[test]
    fn ordered_equals_direct_for_pure_address_indexing() {
        for trace in [stable_trace(40), alternating_trace(40)] {
            for func in [PredictionFunction::Union, PredictionFunction::Inter] {
                for depth in [1, 2, 4] {
                    let ix = IndexSpec::new(false, 0, false, 16);
                    let d = Scheme::new(func, ix, depth, UpdateMode::Direct);
                    let o = Scheme::new(func, ix, depth, UpdateMode::Ordered);
                    let f = Scheme::new(func, ix, depth, UpdateMode::Forwarded);
                    let md = run_scheme(&trace, &d);
                    assert_eq!(md, run_scheme(&trace, &o), "{func} depth {depth} ordered");
                    assert_eq!(md, run_scheme(&trace, &f), "{func} depth {depth} forwarded");
                }
            }
        }
    }

    #[test]
    fn predictions_align_with_run_scheme() {
        let trace = stable_trace(20);
        let scheme: Scheme = "union(pid+pc4)2[direct]".parse().unwrap();
        let preds = predictions_for(&trace, &scheme);
        assert_eq!(preds.len(), trace.len());
        let actuals = trace.resolve_actuals();
        let mut m = ConfusionMatrix::default();
        for (p, a) in preds.iter().zip(&actuals) {
            m.record(*p, *a, trace.nodes());
        }
        assert_eq!(m, run_scheme(&trace, &scheme));
    }

    #[test]
    fn decisions_equal_events_times_nodes() {
        let trace = alternating_trace(30);
        let scheme: Scheme = "inter(pid)2[direct]".parse().unwrap();
        let m = run_scheme(&trace, &scheme);
        assert_eq!(m.decisions(), trace.len() as u64 * 16);
    }

    #[test]
    fn family_matches_individual_runs() {
        let trace = alternating_trace(50);
        for update in UpdateMode::ALL {
            let ix = IndexSpec::new(true, 4, false, 2);
            let fam = run_history_family(&trace, ix, update, 4);
            for depth in 1..=4 {
                let u = Scheme::new(PredictionFunction::Union, ix, depth, update);
                let i = Scheme::new(PredictionFunction::Inter, ix, depth, update);
                assert_eq!(
                    fam.union[depth - 1],
                    run_scheme(&trace, &u),
                    "union d{depth} {update}"
                );
                assert_eq!(
                    fam.inter[depth - 1],
                    run_scheme(&trace, &i),
                    "inter d{depth} {update}"
                );
            }
        }
    }

    #[test]
    fn family_depth1_equals_last() {
        let trace = stable_trace(30);
        let ix = IndexSpec::new(true, 8, false, 0);
        let fam = run_history_family(&trace, ix, UpdateMode::Direct, 3);
        let last = Scheme::new(PredictionFunction::Last, ix, 1, UpdateMode::Direct);
        assert_eq!(fam.union[0], run_scheme(&trace, &last));
        assert_eq!(fam.inter[0], run_scheme(&trace, &last));
    }

    #[test]
    fn union_sensitivity_at_least_inter_at_same_depth() {
        let trace = alternating_trace(80);
        let ix = IndexSpec::new(true, 0, false, 4);
        let fam = run_history_family(&trace, ix, UpdateMode::Direct, 4);
        for d in 0..4 {
            let su = fam.union[d].screening();
            let si = fam.inter[d].screening();
            assert!(
                su.sensitivity >= si.sensitivity - 1e-12,
                "depth {}: union sens {} < inter sens {}",
                d + 1,
                su.sensitivity,
                si.sensitivity
            );
        }
    }

    #[test]
    fn baseline_last_tracks_system_wide_bitmap() {
        // With the baseline, the entry is shared by all lines: the
        // prediction is always the most recent invalidation in the system.
        let trace = stable_trace(10);
        let m = run_scheme(&trace, &Scheme::baseline_last());
        // Direct update delivers the event's own feedback before
        // predicting; on this single-line stable trace that is perfect
        // after warmup.
        assert!(m.screening().pvp > 0.9);
    }

    #[test]
    fn empty_trace_yields_empty_matrix() {
        let trace = Trace::new(16);
        let m = run_scheme(&trace, &Scheme::baseline_last());
        assert_eq!(m.decisions(), 0);
    }

    #[test]
    fn prepared_matches_naive_across_schemes_and_updates() {
        let trace = alternating_trace(60);
        let prepared = PreparedTrace::new(&trace);
        for func in ["last", "union", "inter", "overlap-last", "pas"] {
            for update in ["direct", "forwarded", "ordered"] {
                let spec = match func {
                    "overlap-last" => format!("overlap-last(pid+pc4)[{update}]"),
                    "last" => format!("last(pid+pc4)1[{update}]"),
                    _ => format!("{func}(pid+pc4)2[{update}]"),
                };
                let scheme: Scheme = spec.parse().unwrap();
                assert_eq!(
                    run_scheme_prepared(&prepared, &scheme),
                    reference::run_scheme(&trace, &scheme),
                    "{spec}"
                );
                assert_eq!(
                    predictions_for_prepared(&prepared, &scheme),
                    reference::predictions_for(&trace, &scheme),
                    "{spec} predictions"
                );
            }
        }
        // All schemes above share one index: one key stream serves them all.
        assert_eq!(prepared.cached_streams(), 1);
    }

    #[test]
    fn bad_family_depth_panics_before_building_a_stream() {
        let trace = alternating_trace(10);
        let prepared = PreparedTrace::new(&trace);
        let ix = IndexSpec::new(true, 4, false, 2);
        let call = std::panic::AssertUnwindSafe(|| {
            run_history_family_prepared(&prepared, ix, UpdateMode::Direct, MAX_DEPTH + 1)
        });
        let err = std::panic::catch_unwind(call).expect_err("depth 9 must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert_eq!(msg, "history depth must be in 1..=8, got 9");
        assert_eq!(prepared.cached_streams(), 0);
    }

    #[test]
    fn prepared_family_matches_naive_family() {
        let trace = alternating_trace(40);
        let prepared = PreparedTrace::new(&trace);
        let ix = IndexSpec::new(true, 4, false, 2);
        for update in UpdateMode::ALL {
            assert_eq!(
                run_history_family_prepared(&prepared, ix, update, 4),
                reference::run_history_family(&trace, ix, update, 4),
                "{update}"
            );
        }
    }
}

/// Compares two schemes decision-by-decision on the same trace, producing
/// the paired counts McNemar's test needs (see
/// [`csp_metrics::compare::PairedComparison`]). A per-node bit is
/// "correct" when it matches the actual bit.
pub fn compare_schemes(
    trace: &Trace,
    a: &Scheme,
    b: &Scheme,
) -> csp_metrics::compare::PairedComparison {
    // One preparation serves both prediction passes and the actuals —
    // previously this resolved the trace three times over.
    compare_schemes_prepared(&PreparedTrace::new(trace), a, b)
}

/// [`compare_schemes`] over an already-prepared trace.
pub fn compare_schemes_prepared(
    prepared: &PreparedTrace<'_>,
    a: &Scheme,
    b: &Scheme,
) -> csp_metrics::compare::PairedComparison {
    let preds_a = predictions_for_prepared(prepared, a);
    let preds_b = predictions_for_prepared(prepared, b);
    let actuals = prepared.actuals();
    let nodes = prepared.nodes();
    let mut paired = csp_metrics::compare::PairedComparison::default();
    for ((pa, pb), actual) in preds_a.iter().zip(&preds_b).zip(actuals) {
        // XOR with the actual bitmap marks the *wrong* bits of each.
        let wrong_a = (*pa ^ *actual).masked(nodes);
        let wrong_b = (*pb ^ *actual).masked(nodes);
        let both_wrong = (wrong_a & wrong_b).count() as u64;
        let only_a_wrong = (wrong_a - wrong_b).count() as u64;
        let only_b_wrong = (wrong_b - wrong_a).count() as u64;
        paired.both_wrong += both_wrong;
        paired.only_a += only_b_wrong; // B wrong, A right: A's win
        paired.only_b += only_a_wrong;
        paired.both_correct += nodes as u64 - both_wrong - only_a_wrong - only_b_wrong;
    }
    paired
}

#[cfg(test)]
mod compare_tests {
    use super::*;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent};

    fn stable(n: usize) -> Trace {
        let mut t = Trace::new(16);
        let readers = SharingBitmap::from_nodes(&[NodeId(1), NodeId(2)]);
        for i in 0..n {
            let inv = if i == 0 {
                SharingBitmap::empty()
            } else {
                readers
            };
            let prev = if i == 0 {
                None
            } else {
                Some((NodeId(0), Pc(7)))
            };
            t.push(SharingEvent::new(
                NodeId(0),
                Pc(7),
                LineAddr(3),
                NodeId(1),
                inv,
                prev,
            ));
        }
        t.set_final_readers(LineAddr(3), readers);
        t
    }

    #[test]
    fn scheme_vs_itself_has_no_disagreements() {
        let trace = stable(30);
        let s: Scheme = "union(pid+pc4)2".parse().unwrap();
        let paired = compare_schemes(&trace, &s, &s);
        assert_eq!(paired.only_a, 0);
        assert_eq!(paired.only_b, 0);
        assert_eq!(paired.total(), trace.len() as u64 * 16);
    }

    #[test]
    fn accuracy_matches_confusion_matrix() {
        let trace = stable(30);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4".parse().unwrap();
        let paired = compare_schemes(&trace, &a, &b);
        let ma = run_scheme(&trace, &a);
        let acc_a = (ma.tp + ma.tn) as f64 / ma.decisions() as f64;
        assert!((paired.accuracy_a() - acc_a).abs() < 1e-12);
    }

    /// Pins the prepared-trace rerouting of `compare_schemes` against the
    /// original three-pass spelling (two `predictions_for` calls plus a
    /// separate `resolve_actuals`).
    #[test]
    fn compare_matches_three_pass_spelling() {
        let trace = stable(50);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4[forwarded]".parse().unwrap();
        let preds_a = predictions_for(&trace, &a);
        let preds_b = predictions_for(&trace, &b);
        let actuals = trace.resolve_actuals();
        let nodes = trace.nodes();
        let mut expected = csp_metrics::compare::PairedComparison::default();
        for ((pa, pb), actual) in preds_a.iter().zip(&preds_b).zip(&actuals) {
            let wrong_a = (*pa ^ *actual).masked(nodes);
            let wrong_b = (*pb ^ *actual).masked(nodes);
            let both_wrong = (wrong_a & wrong_b).count() as u64;
            let only_a_wrong = (wrong_a - wrong_b).count() as u64;
            let only_b_wrong = (wrong_b - wrong_a).count() as u64;
            expected.both_wrong += both_wrong;
            expected.only_a += only_b_wrong;
            expected.only_b += only_a_wrong;
            expected.both_correct += nodes as u64 - both_wrong - only_a_wrong - only_b_wrong;
        }
        let got = compare_schemes(&trace, &a, &b);
        assert_eq!(got.both_wrong, expected.both_wrong);
        assert_eq!(got.only_a, expected.only_a);
        assert_eq!(got.only_b, expected.only_b);
        assert_eq!(got.both_correct, expected.both_correct);
        // And the prepared form shares one preparation across both passes.
        let prepared = PreparedTrace::new(&trace);
        let via_prepared = compare_schemes_prepared(&prepared, &a, &b);
        assert_eq!(via_prepared.only_a, expected.only_a);
        assert_eq!(via_prepared.only_b, expected.only_b);
    }

    #[test]
    fn a_strictly_better_shows_significant_wins() {
        // On a stable trace the warm `last` beats a cold-start-heavy
        // depth-4 inter (which abstains for its first 4 intervals).
        let trace = stable(100);
        let a: Scheme = "last(pid+pc8)1".parse().unwrap();
        let b: Scheme = "inter(pid+pc8)4".parse().unwrap();
        let paired = compare_schemes(&trace, &a, &b);
        assert!(paired.only_a > paired.only_b);
    }
}
