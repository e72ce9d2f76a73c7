//! Property-style equivalence suite: the prepared evaluation path must be
//! bit-identical to the reference evaluator.
//!
//! The prepared engine ([`engine::run_scheme_prepared`] and friends) walks
//! flat resolved columns and shared key streams: history functions through
//! the dense-slot scoring kernel, PAs through a one-probe predictor table.
//! None of that may change a single confusion-matrix count or prediction
//! relative to [`reference`], which resolves per call, derives keys per
//! event and probes a hashed table: these properties pin that across
//! random small traces, all three update modes, and both storage families
//! (history and PAs).

use csp_core::{
    engine, reference, run_scheme_simd, run_scheme_simd_with, IndexSpec, PredictionFunction,
    PredictorTable, PreparedTrace, Scheme, SimdBackend, UpdateMode, MAX_DEPTH,
};
use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

const NODES: usize = 8;

/// One raw generated event: `(line, writer, pc, feedback_bits, final_bits)`.
type RawEvent = (u64, u8, u32, u8, u8);

/// Builds a trace with *consistent* per-line previous-writer chains (the
/// invariant real traces have and `forward_key_of` relies on): each
/// event's `prev_writer` is the line's actual previous writer, and only
/// events with a previous writer carry invalidation feedback.
fn build_trace(raw: &[RawEvent]) -> Trace {
    let mut t = Trace::new(NODES);
    let mut last: HashMap<u64, (NodeId, Pc)> = HashMap::new();
    for &(line, writer, pc, bits, _) in raw {
        let writer = NodeId(writer % NODES as u8);
        let pc = Pc(pc % 16);
        let prev = last.get(&line).copied();
        let invalidated = if prev.is_some() {
            SharingBitmap::from_bits(u64::from(bits)).masked(NODES)
        } else {
            SharingBitmap::empty()
        };
        let dir = NodeId((line % NODES as u64) as u8);
        t.push(SharingEvent::new(
            writer,
            pc,
            LineAddr(line),
            dir,
            invalidated,
            prev,
        ));
        last.insert(line, (writer, pc));
    }
    for &(line, _, _, _, final_bits) in raw {
        t.set_final_readers(
            LineAddr(line),
            SharingBitmap::from_bits(u64::from(final_bits)).masked(NODES),
        );
    }
    t
}

/// The index points exercised: pc-hybrid, pure-address, full hybrid, and
/// the degenerate baseline (everything shares one entry).
fn index_points() -> [IndexSpec; 4] {
    [
        IndexSpec::new(true, 2, false, 0),
        IndexSpec::new(false, 0, false, 3),
        IndexSpec::new(true, 2, true, 2),
        IndexSpec::none(),
    ]
}

/// Every scheme shape the equivalence must hold for: both storage
/// families (history: last/union/inter/overlap-last; PAs) at a spread of
/// depths.
fn scheme_points(index: IndexSpec, update: UpdateMode) -> Vec<Scheme> {
    let mut out = vec![
        Scheme::new(PredictionFunction::Last, index, 1, update),
        Scheme::new(PredictionFunction::OverlapLast, index, 1, update),
    ];
    for depth in [1, 2, 4] {
        out.push(Scheme::new(PredictionFunction::Union, index, depth, update));
        out.push(Scheme::new(PredictionFunction::Inter, index, depth, update));
        out.push(Scheme::new(PredictionFunction::Pas, index, depth, update));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `run_scheme_prepared` == the reference for every update mode and
    /// both storage families, on random consistent traces.
    #[test]
    fn prepared_scheme_matches_naive(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                for scheme in scheme_points(index, update) {
                    prop_assert_eq!(
                        engine::run_scheme_prepared(&prepared, &scheme),
                        reference::run_scheme(&trace, &scheme),
                        "scheme {}", scheme
                    );
                }
            }
        }
    }

    /// The single-pass family evaluator stays equivalent too, at every
    /// depth it reports.
    #[test]
    fn prepared_family_matches_naive(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..40),
        max_depth in 1usize..=MAX_DEPTH,
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                let fam_p = engine::run_history_family_prepared(&prepared, index, update, max_depth);
                let fam_n = reference::run_history_family(&trace, index, update, max_depth);
                prop_assert_eq!(&fam_p, &fam_n, "family {index} {update} depth {max_depth}");
                // And the family agrees with individual prepared runs.
                for d in 1..=max_depth {
                    let u = Scheme::new(PredictionFunction::Union, index, d, update);
                    let i = Scheme::new(PredictionFunction::Inter, index, d, update);
                    prop_assert_eq!(&fam_p.union[d - 1], &engine::run_scheme_prepared(&prepared, &u));
                    prop_assert_eq!(&fam_p.inter[d - 1], &engine::run_scheme_prepared(&prepared, &i));
                }
            }
        }
    }

    /// Per-event predictions (not just aggregate matrices) are identical
    /// for every function, so downstream consumers (forwarding estimator,
    /// paired comparison, online replay) see the same stream.
    #[test]
    fn prepared_predictions_match_naive(
        raw in vec((0u64..6, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..30),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for update in UpdateMode::ALL {
            for scheme in scheme_points(IndexSpec::new(true, 2, false, 2), update) {
                prop_assert_eq!(
                    engine::predictions_for_prepared(&prepared, &scheme),
                    reference::predictions_for(&trace, &scheme),
                    "scheme {}", scheme
                );
            }
        }
    }

    /// The runtime-dispatched popcount backend is bit-identical to the
    /// reference across every scheme family, update mode, and index
    /// point, on random consistent traces.
    #[test]
    fn simd_scheme_matches_naive(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for index in index_points() {
            for update in UpdateMode::ALL {
                for scheme in scheme_points(index, update) {
                    prop_assert_eq!(
                        run_scheme_simd(&prepared, &scheme),
                        reference::run_scheme(&trace, &scheme),
                        "scheme {}", scheme
                    );
                }
            }
        }
    }

    /// The forced-scalar backend is bit-identical too, independently of
    /// what the host CPU supports — the equivalence CI relies on when it
    /// rebuilds without target features.
    #[test]
    fn simd_scalar_fallback_matches_naive(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        for update in UpdateMode::ALL {
            for scheme in scheme_points(IndexSpec::new(true, 2, false, 2), update) {
                prop_assert_eq!(
                    run_scheme_simd_with(&prepared, &scheme, SimdBackend::Scalar),
                    reference::run_scheme(&trace, &scheme),
                    "scheme {}", scheme
                );
            }
        }
    }

    /// Narrower machines keep the equivalence: the node count only
    /// changes the confusion matrix's true-negative algebra, which the
    /// batched counters must reproduce exactly.
    #[test]
    fn simd_matches_naive_across_node_counts(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..30),
        nodes in 1usize..=16,
    ) {
        // Rebuild the trace at this width (build_trace pins NODES=8).
        let mut t = Trace::new(nodes);
        let mut last: HashMap<u64, (NodeId, Pc)> = HashMap::new();
        for &(line, writer, pc, bits, _) in &raw {
            let writer = NodeId(writer % nodes as u8);
            let prev = last.get(&line).copied();
            let invalidated = if prev.is_some() {
                SharingBitmap::from_bits(u64::from(bits)).masked(nodes)
            } else {
                SharingBitmap::empty()
            };
            t.push(SharingEvent::new(
                writer,
                Pc(pc % 16),
                LineAddr(line),
                NodeId((line % nodes as u64) as u8),
                invalidated,
                prev,
            ));
            last.insert(line, (writer, Pc(pc % 16)));
        }
        for &(line, _, _, _, final_bits) in &raw {
            t.set_final_readers(
                LineAddr(line),
                SharingBitmap::from_bits(u64::from(final_bits)).masked(nodes),
            );
        }
        let prepared = PreparedTrace::new(&t);
        for update in UpdateMode::ALL {
            for scheme in scheme_points(IndexSpec::new(true, 2, true, 2), update) {
                prop_assert_eq!(
                    run_scheme_simd(&prepared, &scheme),
                    reference::run_scheme(&t, &scheme),
                    "scheme {} nodes {}", scheme, nodes
                );
            }
        }
    }

    /// Splitting a table's key space across shards and absorbing the
    /// shards back reproduces the unsharded table exactly — the
    /// invariant the serving engine's scatter/gather rests on, now over
    /// the arena backend.
    #[test]
    fn arena_split_absorb_round_trips(
        ops in vec((any::<u64>(), any::<u8>()), 1..200),
        shards in 1usize..=5,
    ) {
        let scheme = Scheme::new(
            PredictionFunction::Union,
            IndexSpec::new(true, 2, false, 2),
            2,
            UpdateMode::Direct,
        );
        let mut whole = PredictorTable::new(&scheme, NODES);
        let mut parts = PredictorTable::split(&scheme, NODES, shards);
        for &(key, bits) in &ops {
            let feedback = SharingBitmap::from_bits(u64::from(bits)).masked(NODES);
            whole.update(key, feedback);
            parts[csp_core::shard_of_key(key, shards)].update(key, feedback);
        }
        let mut merged = PredictorTable::new(&scheme, NODES);
        for part in parts {
            merged.absorb(part);
        }
        prop_assert_eq!(merged.entries_touched(), whole.entries_touched());
        for &(key, _) in &ops {
            prop_assert_eq!(merged.predict(key), whole.predict(key), "key {}", key);
        }
    }

    /// Absorb crosses storage backends without drift: a hashed-backend
    /// shard absorbed into an arena-backed table (and vice versa) lands
    /// every entry.
    #[test]
    fn absorb_is_backend_agnostic(
        ops in vec((any::<u64>(), any::<u8>()), 1..120),
    ) {
        use csp_core::HistoryBackend;
        let scheme = Scheme::new(
            PredictionFunction::Inter,
            IndexSpec::new(true, 2, false, 0),
            2,
            UpdateMode::Direct,
        );
        for (into, from) in [
            (HistoryBackend::Arena, HistoryBackend::Hashed),
            (HistoryBackend::Hashed, HistoryBackend::Arena),
        ] {
            let mut reference = PredictorTable::new(&scheme, NODES);
            let mut dst = PredictorTable::with_backend(&scheme, NODES, 0, into);
            let mut src = PredictorTable::with_backend(&scheme, NODES, 0, from);
            for &(key, bits) in &ops {
                let feedback = SharingBitmap::from_bits(u64::from(bits)).masked(NODES);
                reference.update(key, feedback);
                // Route by key so each key's whole update sequence lands
                // on exactly one side (absorb replaces on collision).
                if key % 2 == 0 { dst.update(key, feedback) } else { src.update(key, feedback) }
            }
            dst.absorb(src);
            for &(key, _) in &ops {
                prop_assert_eq!(dst.predict(key), reference.predict(key), "key {}", key);
            }
        }
    }

    /// Paired comparisons ride the same prepared path without drift: the
    /// counts match ones tallied from the reference's predictions.
    #[test]
    fn prepared_compare_matches_naive(
        raw in vec((0u64..4, any::<u8>(), any::<u32>(), any::<u8>(), any::<u8>()), 1..30),
    ) {
        let trace = build_trace(&raw);
        let prepared = PreparedTrace::new(&trace);
        let a = Scheme::new(PredictionFunction::Last, IndexSpec::new(true, 2, false, 0), 1, UpdateMode::Direct);
        let b = Scheme::new(PredictionFunction::Pas, IndexSpec::new(false, 0, false, 3), 2, UpdateMode::Forwarded);
        let naive = reference_compare(&trace, &a, &b);
        let fast = engine::compare_schemes_prepared(&prepared, &a, &b);
        prop_assert_eq!(naive.both_correct, fast.both_correct);
        prop_assert_eq!(naive.both_wrong, fast.both_wrong);
        prop_assert_eq!(naive.only_a, fast.only_a);
        prop_assert_eq!(naive.only_b, fast.only_b);
    }
}

/// The paired counts of `a` against `b`, tallied per node bit from the
/// reference's predictions and the trace's resolved actuals.
fn reference_compare(
    trace: &Trace,
    a: &Scheme,
    b: &Scheme,
) -> csp_metrics::compare::PairedComparison {
    let preds_a = reference::predictions_for(trace, a);
    let preds_b = reference::predictions_for(trace, b);
    let mut paired = csp_metrics::compare::PairedComparison::default();
    for ((pa, pb), actual) in preds_a.iter().zip(&preds_b).zip(trace.resolve_actuals()) {
        for node in 0..trace.nodes() {
            let node = NodeId(node as u8);
            let right_a = pa.contains(node) == actual.contains(node);
            let right_b = pb.contains(node) == actual.contains(node);
            match (right_a, right_b) {
                (true, true) => paired.both_correct += 1,
                (false, false) => paired.both_wrong += 1,
                (true, false) => paired.only_a += 1,
                (false, true) => paired.only_b += 1,
            }
        }
    }
    paired
}

/// A deterministic exhaustive sweep on one fixed trace: every function x
/// update x depth x index point, so a failure here names the exact cell
/// without needing the property seed.
#[test]
fn exhaustive_fixed_trace_sweep() {
    let raw: Vec<RawEvent> = (0..48u64)
        .map(|i| {
            (
                i % 3,
                (i * 5 % 7) as u8,
                (i * 11 % 5) as u32,
                (i * 37 % 251) as u8,
                (i * 13 % 251) as u8,
            )
        })
        .collect();
    let trace = build_trace(&raw);
    let prepared = PreparedTrace::new(&trace);
    for index in index_points() {
        for update in UpdateMode::ALL {
            for scheme in scheme_points(index, update) {
                assert_eq!(
                    engine::run_scheme_prepared(&prepared, &scheme),
                    reference::run_scheme(&trace, &scheme),
                    "scheme {scheme}"
                );
                assert_eq!(
                    engine::predictions_for_prepared(&prepared, &scheme),
                    reference::predictions_for(&trace, &scheme),
                    "predictions {scheme}"
                );
            }
        }
    }
    // One key stream per index point, shared across all schemes above.
    assert_eq!(prepared.cached_streams(), index_points().len());
}
