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

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        // Adding one exponent ulp to the masked exponent carries into
        // the sign bit exactly when the exponent is all ones (±∞, NaN).
        // An integer OR-fold has no early exit and reassociates freely,
        // so the scan vectorises: it runs on every served proposal.
        const EXP: u64 = 0x7FF0_0000_0000_0000;
        let carried = self
            .data
            .iter()
            .fold(0u64, |acc, x| acc | ((x.to_bits() & EXP) + (1 << 52)));
        carried >> 63 == 0
    }

    /// Raw row-major data (used by memory accounting).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
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
