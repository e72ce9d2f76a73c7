//! SIMD batch scoring: the `simd` evaluation engine.
//!
//! The scoring fold of every history scheme is pure bitmap algebra, and
//! the confusion-matrix bookkeeping reduces to three exact popcount sums
//! per decision:
//!
//! ```text
//! tp        += popcount(predicted & actual)
//! predicted += popcount(predicted)
//! actual    += popcount(actual)
//! ```
//!
//! from which the engine's one counter-algebra function recovers `fp`,
//! `fn` and `tn`. Integer sums are order- and grouping-independent, so
//! the decisions can be accumulated in batches of 8 with
//! `core::arch::x86_64` vector popcounts and remain **bit-identical** to
//! per-event [`ConfusionMatrix::record`] calls.
//!
//! [`run_scheme_simd`] feeds that batched accumulator from the engine's
//! one scoring kernel, the same walk, window and depth dispatch the
//! family evaluator ([`crate::engine::run_history_family_prepared`])
//! runs: events replay in order against a flat array of shift windows
//! indexed by the key stream's dense slot ids, so the hot loop does no
//! hashing and no table probe at all. PAs schemes are control-flow-bound,
//! not popcount-bound; they fall back to the prepared evaluator
//! unchanged.
//!
//! The vector path is selected at runtime with
//! `is_x86_feature_detected!("avx2")`; every other build (or
//! `CSP_SIMD=scalar` in the environment) takes the scalar-POPCNT
//! fallback, which sums the same integers and therefore produces the
//! same matrix.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`): the intrinsics below are
//! feature-gated by the runtime dispatch and touch only stack buffers.

#![allow(unsafe_code)]

use crate::engine::{matrix_from_sums, score_events, Accumulator, Window};
use crate::{PredictionFunction, PreparedTrace, Scheme};
use csp_metrics::ConfusionMatrix;
use std::marker::PhantomData;

/// Which accumulation path [`run_scheme_simd`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// 256-bit AVX2 nibble-LUT popcounts, 8 decisions per flush.
    Avx2,
    /// Scalar `count_ones` (hardware POPCNT on x86-64-v2 builds).
    Scalar,
}

impl SimdBackend {
    /// Stable lowercase name (for logs and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Scalar => "scalar",
        }
    }
}

/// Picks the fastest backend the host supports.
///
/// Setting `CSP_SIMD=scalar` in the environment forces the scalar
/// fallback (used by CI to exercise that path on AVX2 hosts); any other
/// value is ignored. Non-x86 targets always get the scalar path.
pub fn detect_backend() -> SimdBackend {
    if std::env::var_os("CSP_SIMD").is_some_and(|v| v == "scalar") {
        return SimdBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBackend::Avx2;
        }
    }
    SimdBackend::Scalar
}

/// Runs `scheme` over an already-prepared trace with the batched SIMD
/// scorer. Bit-identical to [`crate::engine::run_scheme_prepared`].
pub fn run_scheme_simd(prepared: &PreparedTrace<'_>, scheme: &Scheme) -> ConfusionMatrix {
    run_scheme_simd_with(prepared, scheme, detect_backend())
}

/// [`run_scheme_simd`] with an explicit backend — the forced-scalar
/// entry point equivalence tests pin against the vector path. Asking for
/// [`SimdBackend::Avx2`] on a host without AVX2 runs the scalar path.
pub fn run_scheme_simd_with(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    backend: SimdBackend,
) -> ConfusionMatrix {
    if !scheme.function.uses_history() {
        // PAs: per-reader counter state, no bitmap fold to vectorize.
        return crate::engine::run_scheme_prepared(prepared, scheme);
    }
    let depth = scheme.depth;
    match scheme.function {
        PredictionFunction::Last => batched::<LastFold>(prepared, scheme, depth, backend),
        PredictionFunction::Union => batched::<UnionFold>(prepared, scheme, depth, backend),
        PredictionFunction::Inter => batched::<InterFold>(prepared, scheme, depth, backend),
        // Same effective ring depth the table constructor uses.
        PredictionFunction::OverlapLast => batched::<OverlapFold>(prepared, scheme, 2, backend),
        PredictionFunction::Pas => unreachable!("handled by the prepared fallback above"),
    }
}

/// One history scheme through the scoring kernel and the batched
/// accumulator, folding each `depth`-deep window with `F`.
fn batched<F: Fold>(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    depth: usize,
    backend: SimdBackend,
) -> ConfusionMatrix {
    let acc = BatchAcc::<F>::new(backend);
    score_events(prepared, scheme.index, scheme.update, depth, acc).finish(prepared.nodes())
}

/// One prediction function's fold over a shift window.
trait Fold {
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

/// `overlap-last` (always depth 2): predict the newest bitmap only if it
/// overlaps the one before it. With fewer than two stored bitmaps the
/// older slot is zero, the overlap test fails, and the fold abstains —
/// matching [`crate::HistoryEntry::overlap_last`].
struct OverlapFold;
impl Fold for OverlapFold {
    #[inline(always)]
    fn fold<const D: usize>(w: &Window<D>) -> u64 {
        if w.bits[0] & w.bits[1] != 0 {
            w.bits[0]
        } else {
            0
        }
    }
}

/// Decisions per accumulator flush: two 256-bit vectors of packed
/// bitmaps.
const BATCH: usize = 8;

/// The batched confusion accumulator: buffers `(F::fold(window), actual)`
/// bit pairs and folds full batches into the three popcount sums.
struct BatchAcc<F> {
    pred: [u64; BATCH],
    act: [u64; BATCH],
    fill: usize,
    tp: u64,
    predicted: u64,
    actual: u64,
    scored: u64,
    /// Whether full batches take [`avx2_batch`]: only ever `true` once
    /// the host has passed the runtime AVX2 check.
    avx2: bool,
    fold: PhantomData<F>,
}

impl<F: Fold> BatchAcc<F> {
    fn new(backend: SimdBackend) -> Self {
        // `Avx2` is a public variant any caller can name, so confirm the
        // host runs it here, once, rather than trust the caller.
        #[cfg(target_arch = "x86_64")]
        let avx2 = backend == SimdBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = {
            let _ = backend;
            false
        };
        BatchAcc {
            pred: [0; BATCH],
            act: [0; BATCH],
            fill: 0,
            tp: 0,
            predicted: 0,
            actual: 0,
            scored: 0,
            avx2,
            fold: PhantomData,
        }
    }

    #[inline]
    fn flush(&mut self) {
        let n = self.fill;
        self.fill = 0;
        self.scored += n as u64;
        #[cfg(target_arch = "x86_64")]
        if self.avx2 && n == BATCH {
            // SAFETY: `avx2` is only set by `new` after
            // `is_x86_feature_detected!("avx2")` passed on this host.
            let (tp, p, a) = unsafe { avx2_batch(&self.pred, &self.act) };
            self.tp += tp;
            self.predicted += p;
            self.actual += a;
            return;
        }
        for i in 0..n {
            let (p, a) = (self.pred[i], self.act[i]);
            self.tp += (p & a).count_ones() as u64;
            self.predicted += p.count_ones() as u64;
            self.actual += a.count_ones() as u64;
        }
    }

    fn finish(mut self, nodes: usize) -> ConfusionMatrix {
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

/// Popcount-accumulates one full batch: returns the exact
/// `(Σ popcount(p & a), Σ popcount(p), Σ popcount(a))` over all 8 lanes.
///
/// # Safety
///
/// Requires AVX2 (callers gate on runtime feature detection).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_batch(pred: &[u64; BATCH], act: &[u64; BATCH]) -> (u64, u64, u64) {
    use core::arch::x86_64::*;
    // SAFETY: loads read 32 in-bounds bytes from the 64-byte stack
    // buffers; all other intrinsics are register-only.
    unsafe {
        let mut tp = _mm256_setzero_si256();
        let mut pp = _mm256_setzero_si256();
        let mut aa = _mm256_setzero_si256();
        for half in 0..2 {
            let p = _mm256_loadu_si256(pred.as_ptr().add(half * 4) as *const __m256i);
            let a = _mm256_loadu_si256(act.as_ptr().add(half * 4) as *const __m256i);
            tp = _mm256_add_epi64(tp, popcnt_epi64(_mm256_and_si256(p, a)));
            pp = _mm256_add_epi64(pp, popcnt_epi64(p));
            aa = _mm256_add_epi64(aa, popcnt_epi64(a));
        }
        (hsum_epi64(tp), hsum_epi64(pp), hsum_epi64(aa))
    }
}

/// Per-lane 64-bit popcount via the pshufb nibble LUT (Muła's method):
/// exact counts, no precision caveats.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn popcnt_epi64(v: core::arch::x86_64::__m256i) -> core::arch::x86_64::__m256i {
    use core::arch::x86_64::*;
    // Register-only AVX2 operations (safe in a matching
    // `target_feature` context).
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    // Sum the byte counts of each 64-bit lane.
    _mm256_sad_epu8(per_byte, _mm256_setzero_si256())
}

/// Horizontal sum of the four 64-bit lanes.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi64(v: core::arch::x86_64::__m256i) -> u64 {
    use core::arch::x86_64::*;
    let mut lanes = [0u64; 4];
    // Stores 32 bytes into the 32-byte stack buffer.
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
    lanes[0] + lanes[1] + lanes[2] + lanes[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_scheme;
    use csp_trace::{LineAddr, NodeId, Pc, SharingBitmap, SharingEvent, Trace};

    fn bm(nodes: &[u8]) -> SharingBitmap {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// Both backends, whatever the host: asking for `Avx2` where the
    /// host lacks it must downgrade to scalar, not fault.
    fn testable_backends() -> Vec<SimdBackend> {
        vec![SimdBackend::Scalar, SimdBackend::Avx2]
    }

    /// Two writers alternating on one line plus a second independent
    /// line, exercising warmup, aging and multi-slot streams.
    fn mixed_trace(pairs: usize) -> Trace {
        let mut t = Trace::new(16);
        let mut prev: Option<(NodeId, Pc)> = None;
        for i in 0..pairs * 2 {
            let (writer, pc) = if i % 2 == 0 {
                (NodeId(0), Pc(10))
            } else {
                (NodeId(1), Pc(20))
            };
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
            if i % 3 == 0 {
                t.push(SharingEvent::new(
                    NodeId(2),
                    Pc(30),
                    LineAddr(2),
                    NodeId(3),
                    if i == 0 {
                        SharingBitmap::empty()
                    } else {
                        bm(&[1])
                    },
                    if i == 0 {
                        None
                    } else {
                        Some((NodeId(2), Pc(30)))
                    },
                ));
            }
        }
        t.set_final_readers(LineAddr(1), bm(&[8, 9]));
        t.set_final_readers(LineAddr(2), bm(&[1]));
        t
    }

    #[test]
    fn simd_matches_naive_on_every_function_update_and_depth() {
        let trace = mixed_trace(40);
        let prepared = PreparedTrace::new(&trace);
        for func in ["last", "union", "inter", "overlap-last", "pas"] {
            for update in ["direct", "forwarded", "ordered"] {
                for depth in [1usize, 2, 4, 8] {
                    let spec = match func {
                        "overlap-last" => format!("overlap-last(pid+pc4)[{update}]"),
                        "last" => format!("last(pid+pc4)1[{update}]"),
                        _ => format!("{func}(pid+pc4){depth}[{update}]"),
                    };
                    let scheme: Scheme = spec.parse().unwrap();
                    let expected = run_scheme(&trace, &scheme);
                    for backend in testable_backends() {
                        assert_eq!(
                            run_scheme_simd_with(&prepared, &scheme, backend),
                            expected,
                            "{spec} via {}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_trace_scores_empty() {
        let trace = Trace::new(16);
        let prepared = PreparedTrace::new(&trace);
        let scheme: Scheme = "union(pid+pc8)2[direct]".parse().unwrap();
        assert_eq!(run_scheme_simd(&prepared, &scheme).decisions(), 0);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SimdBackend::Avx2.name(), "avx2");
        assert_eq!(SimdBackend::Scalar.name(), "scalar");
        // Whatever the host supports, detection never panics and the
        // result evaluates correctly.
        let b = detect_backend();
        let trace = mixed_trace(5);
        let prepared = PreparedTrace::new(&trace);
        let scheme: Scheme = "last(pid)1[direct]".parse().unwrap();
        assert_eq!(
            run_scheme_simd_with(&prepared, &scheme, b),
            run_scheme(&trace, &scheme)
        );
    }
}
