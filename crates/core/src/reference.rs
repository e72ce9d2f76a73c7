//! The reference evaluator: the oracle every equivalence test and the
//! barometer's `naive` engine compare the production engine against.
//!
//! It spells the engine's semantics out the plain way and shares none of
//! the production machinery ([`crate::KeyStream`], [`crate::PreparedTrace`],
//! the slot-window scoring kernel, or the PAs table walk):
//!
//! * the ground-truth actuals are resolved on every call;
//! * each event's predictor key and forward key come from
//!   [`IndexSpec::key_of`] / [`IndexSpec::forward_key_of`], per event;
//! * entries live in a [`HistoryBackend::Hashed`] predictor table (PAs
//!   tables are always hashed);
//! * an update and a prediction are two separate table probes.
//!
//! So a wrong key stream, a wrong dense slot, a wrong window fold or a
//! wrong accumulator in the production engine shows up as a difference
//! here. It is slow on purpose: correctness over speed.

use crate::engine::FamilyResult;
use crate::{
    node_bits, HistoryBackend, HistoryEntry, IndexSpec, PredictionFunction, PredictorTable, Scheme,
    UpdateMode,
};
use csp_metrics::ConfusionMatrix;
use csp_trace::{SharingBitmap, Trace};

/// Runs `scheme` over `trace`, scoring every decision. Bit-identical to
/// [`crate::engine::run_scheme`].
pub fn run_scheme(trace: &Trace, scheme: &Scheme) -> ConfusionMatrix {
    let nodes = trace.nodes();
    let mut matrix = ConfusionMatrix::default();
    replay(trace, scheme, |predicted, actual| {
        matrix.record(predicted, actual, nodes)
    });
    matrix
}

/// The per-event predictions of `scheme` over `trace`, for every
/// prediction function. Bit-identical to
/// [`crate::engine::predictions_for`].
pub fn predictions_for(trace: &Trace, scheme: &Scheme) -> Vec<SharingBitmap> {
    let mut out = Vec::with_capacity(trace.len());
    replay(trace, scheme, |predicted, _| out.push(predicted));
    out
}

/// Calls `visit(predicted, actual)` for every event of `trace` in order.
fn replay(trace: &Trace, scheme: &Scheme, mut visit: impl FnMut(SharingBitmap, SharingBitmap)) {
    let mut table = PredictorTable::with_backend(scheme, trace.nodes(), 0, HistoryBackend::Hashed);
    walk(
        trace,
        scheme.index,
        scheme.update,
        |feedback, key, actual| {
            if let Some((target, bits)) = feedback {
                table.update(target, bits);
            }
            let predicted = table.predict(key);
            if scheme.update == UpdateMode::Ordered {
                table.update(key, actual);
            }
            visit(predicted, actual);
        },
    );
}

/// The event loop every entry point shares: resolves the actuals, then
/// calls `step(feedback, key, actual)` per event in order, with `key` the
/// event's predictor key and `feedback` the `(target key, bitmap)` that
/// `direct`/`forwarded` update delivers before the prediction (`None`
/// for an event with no previous writer, and always under `ordered`).
fn walk(
    trace: &Trace,
    index: IndexSpec,
    update: UpdateMode,
    mut step: impl FnMut(Option<(u64, SharingBitmap)>, u64, SharingBitmap),
) {
    let actuals = trace.resolve_actuals();
    let nb = node_bits(trace.nodes());
    for (event, &actual) in trace.events().iter().zip(&actuals) {
        let key = index.key_of(event, nb);
        let target = match update {
            UpdateMode::Direct => event.prev_writer.map(|_| key),
            UpdateMode::Forwarded => index.forward_key_of(event, nb),
            UpdateMode::Ordered => None,
        };
        step(target.map(|t| (t, event.invalidated)), key, actual);
    }
}

/// `union` and `inter` at every depth `1..=max_depth` over one
/// `(index, update)` point. Bit-identical to
/// [`crate::engine::run_history_family`]: one hashed table of the
/// deepest history, and every depth scored from the newest stored
/// bitmaps ([`HistoryEntry::recent`]).
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
    let nodes = trace.nodes();
    let deepest = Scheme::new(PredictionFunction::Union, index, max_depth, update);
    let mut table = PredictorTable::with_backend(&deepest, nodes, 0, HistoryBackend::Hashed);
    let mut result = FamilyResult {
        union: vec![ConfusionMatrix::default(); max_depth],
        inter: vec![ConfusionMatrix::default(); max_depth],
    };
    let mut score = |h: Option<&HistoryEntry>, actual: SharingBitmap| {
        let mut union = SharingBitmap::empty();
        let mut inter = SharingBitmap::all(nodes);
        let mut stored = 0;
        for b in h.into_iter().flat_map(|h| h.recent(max_depth)) {
            union |= b;
            inter &= b;
            result.union[stored].record(union, actual, nodes);
            result.inter[stored].record(inter, actual, nodes);
            stored += 1;
        }
        // Deeper than the stored history: the union holds, the
        // intersection abstains.
        for d in stored..max_depth {
            result.union[d].record(union, actual, nodes);
            result.inter[d].record(SharingBitmap::empty(), actual, nodes);
        }
    };
    walk(trace, index, update, |feedback, key, actual| {
        if let Some((target, bits)) = feedback {
            table.update(target, bits);
        }
        score(table.history(key), actual);
        if update == UpdateMode::Ordered {
            table.update(key, actual);
        }
    });
    result
}
