//! The offline engine against an oracle that shares no code with it.
//!
//! Every history function (`last`, `union`, `inter`, `overlap-last`) is
//! scored by one kernel that walks a `KeyStream`'s dense slot ids,
//! through three accumulators: the per-depth family counters behind
//! `run_history_family_prepared`, the batched popcount accumulator behind
//! `run_scheme_prepared` / `run_scheme_simd_with`, and the visiting
//! accumulator behind `predictions_for_prepared`. PAs runs on the
//! table-backed `drive`. Agreeing with each other cannot catch a wrong
//! stream or a wrong window, since they all read the same ones. The
//! oracle here, `csp_core::reference`, resolves the trace on every call,
//! derives each event's keys with `key_of`/`forward_key_of`, and keeps
//! its entries in a hashed predictor table.
//!
//! Inputs: all seven workloads at small scale, whole and windowed, the
//! Figure 6 index grid, all three update modes, every history depth. In
//! a window the first in-window write of each line names a writer outside
//! it, so it has no forward source: its forward slot comes from hashing
//! `forward_key_of`, not from copying the source's slot.

use csp::core::engine::{predictions_for_prepared, run_history_family_prepared};
use csp::core::{
    reference, run_scheme_simd_with, IndexSpec, PredictionFunction, PreparedTrace, Scheme,
    SimdBackend, UpdateMode, MAX_DEPTH,
};
use csp::harness::space::figure6_index_grid;
use csp::harness::Suite;
use csp::trace::{ResolvedTrace, Trace};

/// Every prediction function at one `(index, update)` point: `last`,
/// `overlap-last`, `union` and `inter` at every depth, and PAs.
fn every_function(index: IndexSpec, update: UpdateMode) -> Vec<Scheme> {
    let mut out = vec![
        Scheme::new(PredictionFunction::Last, index, 1, update),
        Scheme::new(PredictionFunction::OverlapLast, index, 1, update),
        Scheme::new(PredictionFunction::Pas, index, 2, update),
    ];
    for depth in 1..=MAX_DEPTH {
        out.push(Scheme::new(PredictionFunction::Union, index, depth, update));
        out.push(Scheme::new(PredictionFunction::Inter, index, depth, update));
    }
    out
}

/// Checks the family, both popcount backends and the per-event
/// predictions against the reference on every Figure 6 index and update
/// mode of `trace`.
fn assert_kernel_matches(name: &str, trace: &Trace) {
    let prepared = PreparedTrace::new(trace);
    for index in figure6_index_grid() {
        for update in UpdateMode::ALL {
            let cell = format!("{name} ({index}) [{update}]");
            let expected = reference::run_history_family(trace, index, update, MAX_DEPTH);
            assert_eq!(
                run_history_family_prepared(&prepared, index, update, MAX_DEPTH),
                expected,
                "family: {cell}"
            );
            let last = Scheme::new(PredictionFunction::Last, index, 1, update);
            let overlap = Scheme::new(PredictionFunction::OverlapLast, index, 1, update);
            let expected_last = reference::run_scheme(trace, &last);
            let expected_overlap = reference::run_scheme(trace, &overlap);
            // `Avx2` on a host without it must downgrade, so both
            // backends are checked everywhere.
            for backend in [SimdBackend::Scalar, SimdBackend::Avx2] {
                let simd = |scheme: &Scheme| run_scheme_simd_with(&prepared, scheme, backend);
                let via = backend.name();
                assert_eq!(simd(&last), expected_last, "last via {via}: {cell}");
                assert_eq!(
                    simd(&overlap),
                    expected_overlap,
                    "overlap-last via {via}: {cell}"
                );
                for depth in 1..=MAX_DEPTH {
                    let union = Scheme::new(PredictionFunction::Union, index, depth, update);
                    let inter = Scheme::new(PredictionFunction::Inter, index, depth, update);
                    assert_eq!(
                        simd(&union),
                        expected.union[depth - 1],
                        "union{depth} via {via}: {cell}"
                    );
                    assert_eq!(
                        simd(&inter),
                        expected.inter[depth - 1],
                        "inter{depth} via {via}: {cell}"
                    );
                }
            }
            for scheme in every_function(index, update) {
                let got = predictions_for_prepared(&prepared, &scheme);
                let want = reference::predictions_for(trace, &scheme);
                assert_eq!(got.len(), want.len(), "predictions of {scheme}: {name}");
                if let Some(e) = (0..got.len()).find(|&e| got[e] != want[e]) {
                    panic!(
                        "predictions of {scheme}: {name}: event {e} got {:?}, reference {:?}",
                        got[e], want[e]
                    );
                }
            }
        }
        prepared.evict_stream(index);
    }
}

#[test]
fn kernel_matches_independent_reference() {
    let suite = Suite::generate(0.01, 3);
    assert_eq!(suite.traces().len(), 7);
    for bt in suite.traces() {
        assert_kernel_matches(&bt.benchmark.to_string(), &bt.trace);
    }
}

#[test]
fn kernel_matches_reference_on_windows_with_unlinked_forwards() {
    let suite = Suite::generate(0.01, 3);
    for bt in suite.traces() {
        let n = bt.trace.len();
        let window = bt.trace.window(n / 4..3 * n / 4);
        let r = ResolvedTrace::new(&window);
        let unlinked = (0..window.len())
            .filter(|&i| r.has_prev()[i] && r.forward_sources()[i] == ResolvedTrace::NO_SOURCE)
            .count();
        assert!(unlinked > 0, "{}: window links every forward", bt.benchmark);
        assert_kernel_matches(&format!("{} window", bt.benchmark), &window);
    }
}
