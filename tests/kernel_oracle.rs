//! The scoring kernel against an oracle that shares no code with it.
//!
//! Both accumulators of `csp_core`'s one scoring kernel — the per-depth
//! family counters behind `run_history_family_prepared` and the batched
//! popcount accumulator behind `run_scheme_simd_with` — walk a
//! `KeyStream`'s dense slot ids. The event-order engine reads the same
//! stream, so agreeing with it cannot catch a wrong stream. The oracle
//! here, `family_reference`, resolves the trace on every call, derives
//! each event's keys with `key_of`/`forward_key_of`, and keeps its
//! entries in a hashed predictor table.
//!
//! Inputs: all seven workloads at small scale, whole and windowed, the
//! Figure 6 index grid, all three update modes, every history depth. In
//! a window the first in-window write of each line names a writer outside
//! it, so it has no forward source: its forward slot comes from hashing
//! `forward_key_of`, not from copying the source's slot.

use csp::core::engine::run_history_family_prepared;
use csp::core::{
    run_scheme_simd_with, PredictionFunction, PreparedTrace, Scheme, SimdBackend, UpdateMode,
    MAX_DEPTH,
};
use csp::harness::bench_engine::family_reference;
use csp::harness::space::figure6_index_grid;
use csp::harness::Suite;
use csp::trace::{ResolvedTrace, Trace};

/// Checks the family and both simd backends against the reference on
/// every Figure 6 index and update mode of `trace`.
fn assert_kernel_matches(name: &str, trace: &Trace) {
    let prepared = PreparedTrace::new(trace);
    for index in figure6_index_grid() {
        for update in UpdateMode::ALL {
            let cell = format!("{name} ({index}) [{update}]");
            let expected = family_reference(trace, index, update, MAX_DEPTH);
            assert_eq!(
                run_history_family_prepared(&prepared, index, update, MAX_DEPTH),
                expected,
                "family: {cell}"
            );
            // `Avx2` on a host without it must downgrade, so both
            // backends are checked everywhere.
            for backend in [SimdBackend::Scalar, SimdBackend::Avx2] {
                let simd = |function, depth| {
                    let scheme = Scheme::new(function, index, depth, update);
                    run_scheme_simd_with(&prepared, &scheme, backend)
                };
                let via = backend.name();
                assert_eq!(
                    simd(PredictionFunction::Last, 1),
                    expected.union[0],
                    "last via {via}: {cell}"
                );
                for depth in 1..=MAX_DEPTH {
                    assert_eq!(
                        simd(PredictionFunction::Union, depth),
                        expected.union[depth - 1],
                        "union{depth} via {via}: {cell}"
                    );
                    assert_eq!(
                        simd(PredictionFunction::Inter, depth),
                        expected.inter[depth - 1],
                        "inter{depth} via {via}: {cell}"
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
