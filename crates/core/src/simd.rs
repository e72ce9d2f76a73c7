//! SIMD popcount batches: the vector half of the history scorer.
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
//! from which the engine's counter algebra recovers `fp`, `fn` and `tn`.
//! Integer sums are order- and grouping-independent, so the engine's
//! batched accumulator hands 8 decisions at a time to this module, which
//! sums them with `core::arch::x86_64` vector popcounts, and the matrix
//! stays **bit-identical** to per-event [`ConfusionMatrix::record`]
//! calls. The scoring kernel itself, the folds and the accumulators live
//! in [`crate::engine`]; this module holds only the backend choice and
//! the intrinsics.
//!
//! The vector path is selected at runtime with
//! `is_x86_feature_detected!("avx2")`; every other build (or
//! `CSP_SIMD=scalar` in the environment) takes the scalar-POPCNT
//! fallback, which sums the same integers and therefore produces the
//! same matrix. Every single-scheme history evaluation
//! ([`crate::engine::run_scheme`] and its callers) sums its batches here,
//! so `CSP_SIMD=scalar` covers all of them; the family sweep's
//! accumulator counts with scalar `count_ones` on every backend.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`): the intrinsics below are
//! feature-gated by the runtime dispatch and touch only stack buffers.

#![allow(unsafe_code)]

use crate::{PreparedTrace, Scheme};
use csp_metrics::ConfusionMatrix;

/// Which popcount path the history scorer uses.
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

/// Runs `scheme` over an already-prepared trace: the same call as
/// [`crate::engine::run_scheme_prepared`], which scores every history
/// scheme through the batched popcounts.
pub fn run_scheme_simd(prepared: &PreparedTrace<'_>, scheme: &Scheme) -> ConfusionMatrix {
    crate::engine::run_scheme_prepared(prepared, scheme)
}

/// [`crate::engine::run_scheme_prepared`] with an explicit backend — the
/// forced-scalar entry point equivalence tests pin against the vector
/// path. Asking for [`SimdBackend::Avx2`] on a host without AVX2 runs the
/// scalar path; PAs schemes ignore the backend.
pub fn run_scheme_simd_with(
    prepared: &PreparedTrace<'_>,
    scheme: &Scheme,
    backend: SimdBackend,
) -> ConfusionMatrix {
    crate::engine::run_scheme_with(prepared, scheme, backend)
}

/// Decisions per popcount batch: two 256-bit vectors of packed bitmaps.
pub(crate) const BATCH: usize = 8;

/// The popcount summer of one evaluation: AVX2 only once the host has
/// passed the runtime check, scalar otherwise.
#[derive(Clone, Copy)]
pub(crate) struct Popcount {
    avx2: bool,
}

impl Popcount {
    pub(crate) fn new(backend: SimdBackend) -> Self {
        // `Avx2` is a public variant any caller can name, so confirm the
        // host runs it here, once, rather than trust the caller.
        #[cfg(target_arch = "x86_64")]
        let avx2 = backend == SimdBackend::Avx2 && std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = {
            let _ = backend;
            false
        };
        Popcount { avx2 }
    }

    /// The exact `(Σ popcount(p & a), Σ popcount(p), Σ popcount(a))`
    /// over the [`BATCH`] lanes of `pred` and `act`.
    #[inline]
    pub(crate) fn sums(self, pred: &[u64; BATCH], act: &[u64; BATCH]) -> (u64, u64, u64) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is only set by `new` after
            // `is_x86_feature_detected!("avx2")` passed on this host.
            return unsafe { avx2_batch(pred, act) };
        }
        let mut sums = (0, 0, 0);
        for (&p, &a) in pred.iter().zip(act) {
            sums.0 += u64::from((p & a).count_ones());
            sums.1 += u64::from(p.count_ones());
            sums.2 += u64::from(a.count_ones());
        }
        sums
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
    use crate::reference::run_scheme;
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
    fn both_backends_sum_the_same_popcounts() {
        // A xorshift stream: dense, sparse and all-ones lanes alike.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..64 {
            let mut pred = [0u64; BATCH];
            let mut act = [0u64; BATCH];
            for lane in 0..BATCH {
                pred[lane] = if round % 3 == 0 {
                    next() & next()
                } else {
                    next()
                };
                act[lane] = if round == 5 { u64::MAX } else { next() };
            }
            let mut want = (0, 0, 0);
            for (&p, &a) in pred.iter().zip(&act) {
                want.0 += u64::from((p & a).count_ones());
                want.1 += u64::from(p.count_ones());
                want.2 += u64::from(a.count_ones());
            }
            for backend in testable_backends() {
                let got = Popcount::new(backend).sums(&pred, &act);
                assert_eq!(got, want, "round {round} via {}", backend.name());
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
