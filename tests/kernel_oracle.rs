//! The slot-major scoring kernel against an oracle that shares no code
//! with it.
//!
//! Both accumulators of `csp_core`'s one slot-major kernel — the
//! per-depth family counters behind `run_history_family_prepared` and the
//! batched popcount accumulator behind `run_scheme_simd_with` — read a
//! `KeyStream`'s slot-major columns. The event-order engine reads the
//! same stream, so agreeing with it cannot catch a wrong stream. The
//! oracle here, `family_reference`, resolves the trace on every call,
//! derives each event's keys with `key_of`/`forward_key_of`, and keeps
//! its entries in a hashed predictor table.
//!
//! Inputs: all seven workloads at small scale, the Figure 6 index grid,
//! all three update modes, every history depth.

use csp::core::engine::run_history_family_prepared;
use csp::core::{
    run_scheme_simd_with, PredictionFunction, PreparedTrace, Scheme, SimdBackend, UpdateMode,
    MAX_DEPTH,
};
use csp::harness::bench_engine::family_reference;
use csp::harness::space::figure6_index_grid;
use csp::harness::Suite;

#[test]
fn kernel_matches_independent_reference() {
    let suite = Suite::generate(0.01, 3);
    assert_eq!(suite.traces().len(), 7);
    for bt in suite.traces() {
        let prepared = PreparedTrace::new(&bt.trace);
        for index in figure6_index_grid() {
            for update in UpdateMode::ALL {
                let cell = format!("{} ({index}) [{update}]", bt.benchmark);
                let expected = family_reference(&bt.trace, index, update, MAX_DEPTH);
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
}
