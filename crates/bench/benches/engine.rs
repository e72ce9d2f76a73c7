//! Bench the evaluation engine itself: the naive per-cell family sweep
//! against the prepared single-pass sweep (shared trace resolution and
//! key streams).
//!
//! Both arms score the same decisions over the Figure 6 index grid under
//! every update mode, so the measured gap is exactly what the prepared
//! layer amortises. `csp-repro --bench-engine` runs the same workload and
//! writes the JSON report CI gates on; this target exists so `cargo
//! bench` covers the comparison too.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csp_bench::bench_suite;
use csp_core::engine::run_history_family_prepared;
use csp_core::{run_scheme_simd, PredictionFunction, Scheme, UpdateMode};
use csp_harness::bench_engine::family_reference;
use csp_harness::runner::PreparedSuite;
use csp_harness::space::figure6_index_grid;

const MAX_DEPTH: usize = 4;

fn bench_engine(c: &mut Criterion) {
    let suite = bench_suite();
    let indexes = figure6_index_grid();
    let updates = UpdateMode::ALL;
    let suite_events: u64 = suite.traces().iter().map(|b| b.trace.len() as u64).sum();
    let events = (indexes.len() * updates.len()) as u64 * suite_events;

    let mut group = c.benchmark_group("engine_family_sweep");
    group.throughput(Throughput::Elements(events));
    // Same reference arm as `csp-repro --bench-engine`: the frozen
    // pre-prepared-layer spelling, paying per-cell resolution, key
    // derivation, and hashed table probes.
    group.bench_function("naive_per_cell", |b| {
        b.iter(|| {
            for &index in &indexes {
                for &update in updates.iter() {
                    for bench in suite.traces() {
                        std::hint::black_box(family_reference(
                            &bench.trace,
                            index,
                            update,
                            MAX_DEPTH,
                        ));
                    }
                }
            }
        })
    });
    group.bench_function("prepared_shared_streams", |b| {
        b.iter(|| {
            let prepared = PreparedSuite::new(suite);
            for &index in &indexes {
                for &update in updates.iter() {
                    for pt in prepared.traces() {
                        std::hint::black_box(run_history_family_prepared(
                            pt, index, update, MAX_DEPTH,
                        ));
                    }
                }
                // Evict like the sweep planner once no remaining cell
                // needs this index, keeping the footprint bounded without
                // thrashing the stream cache mid-pass.
                for pt in prepared.traces() {
                    pt.evict_stream(index);
                }
            }
        })
    });
    // The simd engine scores one scheme per call, so it covers the same
    // union+inter x depth grid as the family sweep cell by cell — arena
    // tables, dense slot windows, batched popcount accumulation. Each
    // decision is scored once per (function, depth) cell rather than
    // once per pass, so its element count scales accordingly.
    group.throughput(Throughput::Elements(events * (2 * MAX_DEPTH) as u64));
    group.bench_function("simd_batch_scoring", |b| {
        b.iter(|| {
            let prepared = PreparedSuite::new(suite);
            for &index in &indexes {
                for &update in updates.iter() {
                    for pt in prepared.traces() {
                        for depth in 1..=MAX_DEPTH {
                            for func in [PredictionFunction::Union, PredictionFunction::Inter] {
                                let scheme = Scheme::new(func, index, depth, update);
                                std::hint::black_box(run_scheme_simd(pt, &scheme));
                            }
                        }
                    }
                }
                for pt in prepared.traces() {
                    pt.evict_stream(index);
                }
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = engine;
    config = Criterion::default().sample_size(10);
    targets = bench_engine
}
criterion_main!(engine);
