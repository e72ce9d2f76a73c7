//! Execution-engine adapters for the benchmark barometer (`csp-bar`).
//!
//! The repo grew several distinct ways to score a scheme over a trace:
//! the frozen naive evaluator (per-call resolution, hashed tables), the
//! prepared single-pass path (shared resolutions and key streams), its
//! SIMD-batched sibling (arena tables, vectorized confusion counting),
//! and the sharded online serving engine (per-key routing over worker
//! threads). This module puts them behind one [`Engine`] trait and a
//! data-driven registry ([`ENGINE_SPECS`]) so the barometer can
//! enumerate a (workload x scheme x engine) matrix declaratively — and,
//! crucially, so every engine's screening statistics can be
//! cross-checked for bit-identity before any timing number is trusted.
//!
//! Engines here evaluate one *cell* — a `(benchmark trace, scheme)`
//! pair — to a [`ConfusionMatrix`]. Timing policy (warmup passes, timed
//! iterations, quantiles) lives with the caller; the adapters only
//! guarantee that each call performs the full end-to-end evaluation the
//! engine would pay in production, nothing cached across calls beyond
//! what the engine's own architecture shares (the prepared engine's key
//! streams are its architecture; the sharded engine's persistent worker
//! pool is its architecture too — see [`ShardedServeEngine`]).

use csp_core::engine::{run_scheme, run_scheme_prepared};
use csp_core::{run_scheme_simd, PreparedTrace, Scheme};
use csp_metrics::ConfusionMatrix;
use csp_serve::ShardPool;
use csp_workloads::BenchmarkTrace;
use std::fmt;
use std::sync::Mutex;

/// One (workload, scheme) evaluation cell, with both the raw trace and
/// its prepared twin so each engine can consume its natural input.
pub struct EngineCell<'a> {
    /// The benchmark trace the cell evaluates.
    pub bench: &'a BenchmarkTrace,
    /// The prepared view of the same trace (actuals resolved once, key
    /// streams shared) for engines built on the prepared layer.
    pub prepared: &'a PreparedTrace<'a>,
    /// The scheme under evaluation.
    pub scheme: Scheme,
}

impl EngineCell<'_> {
    /// Decisions one evaluation of this cell scores.
    pub fn events(&self) -> u64 {
        self.bench.trace.len() as u64
    }
}

/// A predictor execution engine the barometer can time.
///
/// Implementations must be deterministic: two calls on the same cell
/// return bit-identical confusion matrices. [`cross_check`] relies on
/// this to promote the naive evaluator into an equivalence oracle for
/// every other engine.
pub trait Engine: Sync {
    /// Stable lowercase name, used in definitions files and records.
    fn name(&self) -> &'static str;
    /// Evaluates one cell end to end, returning its screening counts.
    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix;
}

/// The frozen-naive reference evaluator: per-call ground-truth
/// resolution, per-event key derivation, hashed create-on-update tables.
pub struct NaiveEngine;

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        run_scheme(&cell.bench.trace, &cell.scheme)
    }
}

/// The prepared single-pass path (PR 3): resolutions and key streams
/// shared through [`PreparedTrace`], one-probe slot-indexed tables.
pub struct PreparedEngine;

impl Engine for PreparedEngine {
    fn name(&self) -> &'static str {
        "prepared"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        run_scheme_prepared(cell.prepared, &cell.scheme)
    }
}

/// The SIMD-batched prepared path: history windows indexed by the key
/// stream's dense slot ids, and confusion counts accumulated in 8-wide
/// popcount batches (AVX2 when the host has it, bit-identical scalar
/// fallback otherwise — see [`csp_core::simd`]). PAs schemes fall back to
/// the prepared path's arena tables.
pub struct SimdEngine;

impl Engine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        run_scheme_simd(cell.prepared, &cell.scheme)
    }
}

/// The in-process sharded serving engine (`csp-serve`): per-key routing
/// over worker threads with bounded-channel backpressure. The adapter
/// holds a persistent [`ShardPool`] — worker threads live for the whole
/// benchmark matrix and each eval re-tasks them with a fresh session,
/// so the measured region is routing, channel, and apply cost (the
/// steady state of a running service), not thread spawn/join. Bounded
/// inboxes still backpressure inside the measurement.
pub struct ShardedServeEngine {
    pool: Mutex<ShardPool>,
}

impl ShardedServeEngine {
    /// Creates the adapter with a persistent pool of `shards` workers.
    pub fn new(shards: usize) -> Self {
        ShardedServeEngine {
            pool: Mutex::new(ShardPool::new(shards)),
        }
    }
}

impl Engine for ShardedServeEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn eval(&self, cell: &EngineCell<'_>) -> ConfusionMatrix {
        let pool = self.pool.lock().expect("no panic holds the pool lock");
        pool.replay_prepared(cell.prepared, &cell.scheme)
    }
}

/// One registry row: a definitions-file name and how to build its
/// adapter (`shards` is meaningful only to the sharded engine; the
/// others ignore it).
pub struct EngineSpec {
    /// Stable lowercase name, as written in `benchmarks.bar`.
    pub name: &'static str,
    /// Builds the adapter; the argument is the configured shard count.
    pub build: fn(usize) -> Box<dyn Engine>,
}

/// The engine registry, in canonical order (the naive reference first —
/// it is the ratio denominator). Adding an engine means adding a row
/// here; name lookup, [`ENGINE_NAMES`], and the barometer's validation
/// all follow from it.
pub const ENGINE_SPECS: [EngineSpec; 4] = [
    EngineSpec {
        name: "naive",
        build: |_| Box::new(NaiveEngine),
    },
    EngineSpec {
        name: "prepared",
        build: |_| Box::new(PreparedEngine),
    },
    EngineSpec {
        name: "simd",
        build: |_| Box::new(SimdEngine),
    },
    EngineSpec {
        name: "sharded",
        build: |shards| Box::new(ShardedServeEngine::new(shards)),
    },
];

/// Names of every engine [`engine_by_name`] can construct, in registry
/// order. (A const mirror of [`ENGINE_SPECS`] so definitions-file
/// validation can borrow it without building adapters; a test pins the
/// two in sync.)
pub const ENGINE_NAMES: [&str; 4] = ["naive", "prepared", "simd", "sharded"];

/// Constructs an engine adapter by its definitions-file name.
pub fn engine_by_name(name: &str, shards: usize) -> Option<Box<dyn Engine>> {
    ENGINE_SPECS
        .iter()
        .find(|spec| spec.name == name)
        .map(|spec| (spec.build)(shards))
}

/// Two engines disagreeing on a cell's screening statistics — a
/// correctness bug that must halt any benchmark before a single timing
/// is recorded.
#[derive(Clone, Debug)]
pub struct EngineDivergence {
    /// The engine that diverged from the reference.
    pub engine: String,
    /// The reference engine it was compared against.
    pub reference: String,
    /// The benchmark the cell evaluated.
    pub workload: String,
    /// The scheme the cell evaluated.
    pub scheme: Scheme,
    /// What the diverging engine counted.
    pub got: ConfusionMatrix,
    /// What the reference counted.
    pub expected: ConfusionMatrix,
}

impl fmt::Display for EngineDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine {} diverged from {} on {} / {}: got {:?}, expected {:?}",
            self.engine, self.reference, self.workload, self.scheme, self.got, self.expected
        )
    }
}

/// Evaluates `cell` once on every engine and verifies all of them
/// produce bit-identical confusion matrices (the first engine is the
/// reference). Returns the agreed matrix, which doubles as a warmup
/// pass for each engine.
///
/// # Errors
///
/// Returns the first [`EngineDivergence`] found (boxed: the report
/// carries both confusion matrices and only exists on the cold path).
pub fn cross_check(
    engines: &[Box<dyn Engine>],
    cell: &EngineCell<'_>,
) -> Result<ConfusionMatrix, Box<EngineDivergence>> {
    let mut reference: Option<(&'static str, ConfusionMatrix)> = None;
    for engine in engines {
        let got = engine.eval(cell);
        match &reference {
            None => reference = Some((engine.name(), got)),
            Some((ref_name, expected)) => {
                if got != *expected {
                    return Err(Box::new(EngineDivergence {
                        engine: engine.name().to_string(),
                        reference: (*ref_name).to_string(),
                        workload: cell.bench.benchmark.name().to_string(),
                        scheme: cell.scheme,
                        got,
                        expected: *expected,
                    }));
                }
            }
        }
    }
    Ok(reference.map(|(_, m)| m).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Suite;

    #[test]
    fn all_engines_are_bit_identical_across_schemes() {
        let suite = Suite::generate(0.02, 11);
        let engines: Vec<Box<dyn Engine>> = ENGINE_NAMES
            .iter()
            .map(|n| engine_by_name(n, 3).expect("known name"))
            .collect();
        let schemes = [
            "last(pid+pc8)1[direct]",
            "union(pid+pc8)2[forwarded]",
            "union(dir+add8)2[ordered]",
        ];
        for bench in suite.traces() {
            let prepared = PreparedTrace::new(&bench.trace);
            for s in schemes {
                let scheme: Scheme = s.parse().expect("scheme notation");
                let cell = EngineCell {
                    bench,
                    prepared: &prepared,
                    scheme,
                };
                let agreed = cross_check(&engines, &cell).expect("engines agree");
                assert_eq!(agreed, run_scheme(&bench.trace, &scheme));
                assert!(cell.events() > 0);
            }
        }
    }

    #[test]
    fn unknown_engine_name_is_rejected() {
        assert!(engine_by_name("warp-drive", 4).is_none());
        for name in ENGINE_NAMES {
            assert_eq!(engine_by_name(name, 2).expect("known").name(), name);
        }
    }

    #[test]
    fn registry_and_name_mirror_agree() {
        assert_eq!(ENGINE_SPECS.len(), ENGINE_NAMES.len());
        for (spec, name) in ENGINE_SPECS.iter().zip(ENGINE_NAMES) {
            assert_eq!(spec.name, name);
            // Each row builds an adapter that answers to its own name.
            assert_eq!((spec.build)(2).name(), name);
        }
        assert_eq!(ENGINE_NAMES[0], "naive", "ratio denominator comes first");
    }

    #[test]
    fn sharded_adapter_pool_survives_reuse_across_cells() {
        let suite = Suite::generate(0.01, 7);
        let engine = ShardedServeEngine::new(3);
        // The same pooled adapter must stay bit-identical across cells
        // with different schemes and traces (sessions fully reset).
        for bench in suite.traces().iter().take(2) {
            let prepared = PreparedTrace::new(&bench.trace);
            for s in ["last(pid+pc8)1[direct]", "union(dir+add8)2[ordered]"] {
                let cell = EngineCell {
                    bench,
                    prepared: &prepared,
                    scheme: s.parse().expect("notation"),
                };
                assert_eq!(engine.eval(&cell), run_scheme(&bench.trace, &cell.scheme));
            }
        }
    }

    #[test]
    fn divergence_reports_name_the_cell() {
        // A fake engine that always returns zeros must be caught against
        // the naive reference on any non-trivial trace.
        struct Zero;
        impl Engine for Zero {
            fn name(&self) -> &'static str {
                "zero"
            }
            fn eval(&self, _cell: &EngineCell<'_>) -> ConfusionMatrix {
                ConfusionMatrix::default()
            }
        }
        let suite = Suite::generate(0.01, 5);
        let bench = &suite.traces()[0];
        let prepared = PreparedTrace::new(&bench.trace);
        let cell = EngineCell {
            bench,
            prepared: &prepared,
            scheme: "union(pid+pc8)2[direct]".parse().expect("notation"),
        };
        let engines: Vec<Box<dyn Engine>> = vec![Box::new(NaiveEngine), Box::new(Zero)];
        let err = cross_check(&engines, &cell).expect_err("zero engine diverges");
        assert_eq!(err.engine, "zero");
        assert_eq!(err.reference, "naive");
        assert!(err.to_string().contains("diverged"), "{err}");
    }
}
