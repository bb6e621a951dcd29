//! Per-round revealed contexts.

use crate::EventId;
use fasea_linalg::Vector;

/// The `|V| × d` block of context vectors `x_{t,v}` revealed when a user
/// arrives.
///
/// Stored as one contiguous row-major buffer (row = event) so the hot
/// per-event scoring loops of the policies stream linearly through
/// memory. Rows are exposed as slices (no copies) via
/// [`ContextMatrix::context`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContextMatrix {
    num_events: usize,
    dim: usize,
    data: Vec<f64>,
}

impl ContextMatrix {
    /// Creates an all-zero context block.
    pub fn zeros(num_events: usize, dim: usize) -> Self {
        ContextMatrix {
            num_events,
            dim,
            data: vec![0.0; num_events * dim],
        }
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != num_events * dim`.
    pub fn from_rows(num_events: usize, dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            num_events * dim,
            "ContextMatrix::from_rows: bad data length"
        );
        ContextMatrix {
            num_events,
            dim,
            data,
        }
    }

    /// Builds by evaluating `f(event, feature)` at every entry.
    pub fn from_fn(num_events: usize, dim: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(num_events * dim);
        for v in 0..num_events {
            for j in 0..dim {
                data.push(f(v, j));
            }
        }
        ContextMatrix {
            num_events,
            dim,
            data,
        }
    }

    /// Number of events (rows).
    #[inline]
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Feature dimension `d` (columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Context `x_{t,v}` of event `v` as a borrowed slice.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn context(&self, v: EventId) -> &[f64] {
        let i = v.index();
        assert!(i < self.num_events, "context: event out of range");
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row access, used by generators that normalise in place.
    #[inline]
    pub fn context_mut(&mut self, v: EventId) -> &mut [f64] {
        let i = v.index();
        assert!(i < self.num_events, "context_mut: event out of range");
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Copies row `v` into an owned [`Vector`].
    pub fn context_vector(&self, v: EventId) -> Vector {
        Vector::from(self.context(v))
    }

    /// Dot product `x_{t,v} · w` without copying the row.
    #[inline]
    pub fn dot(&self, v: EventId, w: &[f64]) -> f64 {
        debug_assert_eq!(w.len(), self.dim);
        fasea_linalg::Vector::from(self.context(v)).dot(&Vector::from(w))
    }

    /// Normalises every row to unit Euclidean length in place (zero rows
    /// stay zero), establishing the paper's `‖x_{t,v}‖ ≤ 1` precondition.
    pub fn normalize_rows(&mut self) {
        for v in 0..self.num_events {
            let row = &mut self.data[v * self.dim..(v + 1) * self.dim];
            let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > f64::EPSILON {
                for x in row {
                    *x /= norm;
                }
            }
        }
    }

    /// `true` if every row satisfies `‖x‖ ≤ 1 + tol`.
    pub fn rows_norm_bounded(&self, tol: f64) -> bool {
        (0..self.num_events).all(|v| {
            let row = self.context(EventId(v));
            row.iter().map(|x| x * x).sum::<f64>().sqrt() <= 1.0 + tol
        })
    }

    /// `true` if every entry is finite (no NaN, no ±∞).
    ///
    /// The arrangement service runs this on every proposal, where it is
    /// usually the first touch of a fresh block, so it is written to run
    /// at memory speed: a branch-free integer fold with no early exit.
    /// With AVX2 (detected at run time) it folds 8 entries per step and
    /// prefetches 8 KiB ahead, because the hardware prefetcher stops at
    /// each 4 KiB page; the tail and hosts without AVX2 take the scalar
    /// fold. Both give the same verdict.
    pub fn is_finite(&self) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just detected.
            return unsafe { all_finite_avx2(&self.data) };
        }
        all_finite_scalar(&self.data)
    }

    /// Raw row-major data (used by memory accounting).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Exponent bits of an `f64`.
const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;

/// One exponent ulp: added to the masked exponent it carries into the
/// sign bit exactly when the exponent is all ones (±∞, NaN).
const EXP_ULP: u64 = 1 << 52;

/// Scalar body of [`ContextMatrix::is_finite`]: an OR-fold of the
/// exponent carries, which reassociates freely and so vectorises.
fn all_finite_scalar(data: &[f64]) -> bool {
    let carried = data
        .iter()
        .fold(0u64, |acc, x| acc | ((x.to_bits() & EXP_MASK) + EXP_ULP));
    carried >> 63 == 0
}

/// Entries ahead of the current step that the AVX2 body prefetches:
/// 8 KiB, two pages past the one being read.
#[cfg(target_arch = "x86_64")]
const PREFETCH_AHEAD: usize = 1024;

/// AVX2 body of [`ContextMatrix::is_finite`]: the same carry test, 8
/// entries (one cache line's worth) per step in two 4-lane
/// accumulators, one prefetch per step while the block reaches that
/// far; the tail goes through [`all_finite_scalar`].
///
/// # Safety
/// The caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn all_finite_avx2(data: &[f64]) -> bool {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_castsi256_pd, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm_prefetch, _MM_HINT_T0,
    };
    let mask = _mm256_set1_epi64x(EXP_MASK as i64);
    let ulp = _mm256_set1_epi64x(EXP_ULP as i64);
    let (mut acc0, mut acc1) = (_mm256_setzero_si256(), _mm256_setzero_si256());
    let steps = data.len() / 8;
    // Prefetch only inside the block: past its end a prefetch would pull
    // unrelated lines into the cache (a block under 8 KiB gets none).
    let prefetched = data.len().saturating_sub(PREFETCH_AHEAD) / 8;
    let p = data.as_ptr();
    for i in 0..steps {
        // In bounds: `8 * i + 8 <= steps * 8 <= data.len()`, and for a
        // prefetched step `8 * i + PREFETCH_AHEAD <= data.len()`.
        let at = p.add(8 * i);
        if i < prefetched {
            _mm_prefetch::<_MM_HINT_T0>(at.add(PREFETCH_AHEAD).cast());
        }
        let a = _mm256_loadu_si256(at.cast::<__m256i>());
        let b = _mm256_loadu_si256(at.add(4).cast::<__m256i>());
        acc0 = _mm256_or_si256(acc0, _mm256_add_epi64(_mm256_and_si256(a, mask), ulp));
        acc1 = _mm256_or_si256(acc1, _mm256_add_epi64(_mm256_and_si256(b, mask), ulp));
    }
    let signs = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(acc0, acc1)));
    signs == 0 && all_finite_scalar(&data[steps * 8..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_finite_flags_only_nan_and_infinities() {
        let finite = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        for &x in &finite {
            assert!(
                ContextMatrix::from_rows(2, 1, vec![0.5, x]).is_finite(),
                "{x:e}"
            );
        }
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for pos in 0..9 {
                let mut data = vec![0.25; 9];
                data[pos] = bad;
                assert!(
                    !ContextMatrix::from_rows(3, 3, data).is_finite(),
                    "{bad} at {pos}"
                );
            }
        }
        assert!(ContextMatrix::zeros(0, 3).is_finite());
    }

    /// Both kernels' verdicts on `data`, checked against `expect`.
    fn assert_verdicts(data: &[f64], expect: bool, what: &str) {
        assert_eq!(all_finite_scalar(data), expect, "scalar: {what}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just detected.
            assert_eq!(unsafe { all_finite_avx2(data) }, expect, "avx2: {what}");
        }
    }

    const BAD: [f64; 5] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        // A signalling NaN: only the lowest mantissa bit set.
        f64::from_bits(0x7FF0_0000_0000_0001),
    ];

    #[test]
    fn finiteness_kernels_agree_at_every_length_and_position() {
        for len in 0..=80usize {
            let mut data: Vec<f64> = (0..len).map(|i| f64::MAX / (i + 1) as f64).collect();
            assert_verdicts(&data, true, &format!("len {len}, all finite"));
            for &bad in &BAD {
                for pos in 0..len {
                    let keep = std::mem::replace(&mut data[pos], bad);
                    assert_verdicts(&data, false, &format!("len {len}, {bad} at {pos}"));
                    data[pos] = keep;
                }
            }
        }
    }

    #[test]
    fn finiteness_kernels_see_the_end_of_a_block_past_the_prefetch_distance() {
        // Three prefetch distances (1024 entries each) plus a 5-entry
        // tail.
        let len = 3 * 1024 + 5;
        let vector_end = len / 8 * 8;
        let mut data = vec![-0.5; len];
        assert_verdicts(&data, true, "all finite");
        for &bad in &BAD {
            for pos in (vector_end - 8..len).chain([0, 1023, 1024]) {
                let keep = std::mem::replace(&mut data[pos], bad);
                assert_verdicts(&data, false, &format!("{bad} at {pos} of {len}"));
                data[pos] = keep;
            }
        }
    }

    #[test]
    fn rows_are_contiguous() {
        let m = ContextMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.context(EventId(0)), &[1.0, 2.0, 3.0]);
        assert_eq!(m.context(EventId(1)), &[4.0, 5.0, 6.0]);
        assert_eq!(m.num_events(), 2);
        assert_eq!(m.dim(), 3);
    }

    #[test]
    fn from_fn_layout() {
        let m = ContextMatrix::from_fn(3, 2, |v, j| (v * 10 + j) as f64);
        assert_eq!(m.context(EventId(2)), &[20.0, 21.0]);
    }

    #[test]
    fn dot_matches_manual() {
        let m = ContextMatrix::from_rows(1, 3, vec![1.0, -2.0, 0.5]);
        let w = [2.0, 1.0, 4.0];
        assert!((m.dot(EventId(0), &w) - (2.0 - 2.0 + 2.0)).abs() < 1e-15);
    }

    #[test]
    fn normalize_rows_bounds_norms() {
        let mut m = ContextMatrix::from_rows(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        m.normalize_rows();
        assert!(m.rows_norm_bounded(1e-12));
        assert!((m.context(EventId(0))[0] - 0.6).abs() < 1e-12);
        assert_eq!(m.context(EventId(1)), &[0.0, 0.0]); // zero row preserved
    }

    #[test]
    fn context_vector_copies() {
        let m = ContextMatrix::from_rows(1, 2, vec![0.5, 0.7]);
        let v = m.context_vector(EventId(0));
        assert_eq!(v.as_slice(), &[0.5, 0.7]);
    }

    #[test]
    fn mutation_via_context_mut() {
        let mut m = ContextMatrix::zeros(2, 2);
        m.context_mut(EventId(1))[0] = 9.0;
        assert_eq!(m.context(EventId(1)), &[9.0, 0.0]);
        assert_eq!(m.context(EventId(0)), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bad data length")]
    fn from_rows_checks_length() {
        let _ = ContextMatrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "event out of range")]
    fn out_of_range_row_panics() {
        let m = ContextMatrix::zeros(1, 1);
        let _ = m.context(EventId(1));
    }

    #[test]
    fn finiteness_check() {
        let mut m = ContextMatrix::zeros(1, 2);
        assert!(m.is_finite());
        m.context_mut(EventId(0))[1] = f64::INFINITY;
        assert!(!m.is_finite());
    }
}
