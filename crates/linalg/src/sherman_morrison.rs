//! Incrementally maintained inverse of a ridge Gram matrix.

use crate::{LinalgError, Matrix, Vector};

/// Maintains `Y = λI + Σ x xᵀ` **and** `Y⁻¹` under rank-1 updates.
///
/// Every FASEA policy updates its Gram matrix once per arranged event per
/// round (Algorithms 1/3/4, lines "Y ← Y + Σ_{v∈A_t} x xᵀ") and then needs
/// `Y⁻¹` — for the ridge estimate `θ̂ = Y⁻¹ b`, for UCB's per-event
/// quadratic form, and (in TS) for the sampling covariance. Re-inverting
/// from scratch is `O(d³)` per round; the Sherman–Morrison identity
///
/// ```text
/// (Y + x xᵀ)⁻¹ = Y⁻¹ − (Y⁻¹ x)(Y⁻¹ x)ᵀ / (1 + xᵀ Y⁻¹ x)
/// ```
///
/// makes each update `O(d²)`. Because `Y ⪰ λI` stays SPD under positive
/// rank-1 updates, the denominator `1 + xᵀY⁻¹x` is always ≥ 1, so the
/// update is unconditionally stable here; the error branch only triggers
/// on non-finite input.
///
/// The struct also keeps the explicit `Y` so that callers needing a fresh
/// Cholesky factor (TS sampling) can build one, and so that tests can
/// verify the maintained inverse against a direct factorisation.
#[derive(Debug, Clone)]
pub struct ShermanMorrisonInverse {
    y: Matrix,
    y_inv: Matrix,
    lambda: f64,
    updates: u64,
    /// Scratch buffer for `Y⁻¹ x`, reused across updates to avoid
    /// per-round allocation (hot path: called once per arranged event).
    scratch: Vector,
}

impl ShermanMorrisonInverse {
    /// Creates the inverse tracker for `Y = λ I_{d×d}`.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` or `dim == 0` — the ridge seed must be SPD.
    pub fn new(dim: usize, lambda: f64) -> Self {
        assert!(dim > 0, "ShermanMorrisonInverse: dim must be positive");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "ShermanMorrisonInverse: lambda must be positive and finite"
        );
        ShermanMorrisonInverse {
            y: Matrix::scaled_identity(dim, lambda),
            y_inv: Matrix::scaled_identity(dim, 1.0 / lambda),
            lambda,
            updates: 0,
            scratch: Vector::zeros(dim),
        }
    }

    /// Rebuilds a tracker from a previously saved Gram matrix
    /// (snapshot restore). `Y⁻¹` is re-derived by factorisation, never
    /// trusted from outside.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] / [`LinalgError::NotPositiveDefinite`]
    ///   / [`LinalgError::NonFinite`] if `y` is not a valid SPD matrix.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` (same contract as [`ShermanMorrisonInverse::new`]).
    pub fn from_state(y: Matrix, lambda: f64, updates: u64) -> Result<Self, LinalgError> {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "ShermanMorrisonInverse: lambda must be positive and finite"
        );
        let mut y = y;
        y.symmetrize()?;
        let y_inv = crate::Cholesky::factor(&y)?.inverse();
        let dim = y.rows();
        Ok(ShermanMorrisonInverse {
            y,
            y_inv,
            lambda,
            updates,
            scratch: Vector::zeros(dim),
        })
    }

    /// Rebuilds a tracker from a previously exported `(Y, Y⁻¹)` pair
    /// **without** re-factorising — the bit-exact restore path of the
    /// personalized model store (`fasea-models`).
    ///
    /// Unlike [`ShermanMorrisonInverse::from_state`], the maintained
    /// inverse is trusted from the caller: a spilled estimator faulted
    /// back in must carry the *exact* `Y⁻¹` bits the Sherman–Morrison
    /// recursion had accumulated, because a Cholesky-re-derived inverse
    /// differs in the low mantissa bits and would break the store's
    /// bit-equal residency contract. Callers must only feed back a pair
    /// previously read off a live tracker ([`ShermanMorrisonInverse::y`]
    /// / [`ShermanMorrisonInverse::y_inv`]); shape and finiteness are
    /// still validated.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if either matrix is not square.
    /// * [`LinalgError::DimensionMismatch`] if the two shapes differ.
    /// * [`LinalgError::NonFinite`] if either matrix carries NaN/∞.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` (same contract as
    /// [`ShermanMorrisonInverse::new`]).
    pub fn from_raw_parts(
        y: Matrix,
        y_inv: Matrix,
        lambda: f64,
        updates: u64,
    ) -> Result<Self, LinalgError> {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "ShermanMorrisonInverse: lambda must be positive and finite"
        );
        if !y.is_square() {
            return Err(LinalgError::NotSquare(y.rows(), y.cols()));
        }
        if !y_inv.is_square() {
            return Err(LinalgError::NotSquare(y_inv.rows(), y_inv.cols()));
        }
        if y.rows() != y_inv.rows() {
            return Err(LinalgError::DimensionMismatch(y.rows(), y_inv.rows()));
        }
        if !y.is_finite() || !y_inv.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let dim = y.rows();
        Ok(ShermanMorrisonInverse {
            y,
            y_inv,
            lambda,
            updates,
            scratch: Vector::zeros(dim),
        })
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.y.rows()
    }

    /// The ridge regularisation strength λ this tracker was seeded with.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of rank-1 updates applied so far.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Borrows the maintained Gram matrix `Y`.
    pub fn y(&self) -> &Matrix {
        &self.y
    }

    /// Borrows the maintained inverse `Y⁻¹`.
    pub fn y_inv(&self) -> &Matrix {
        &self.y_inv
    }

    /// Applies the rank-1 update `Y ← Y + x xᵀ`, maintaining `Y⁻¹`.
    ///
    /// # Errors
    /// * [`LinalgError::DimensionMismatch`] if `x.dim() != self.dim()`.
    /// * [`LinalgError::NonFinite`] if `x` contains NaN/∞.
    /// * [`LinalgError::SingularUpdate`] if the denominator is not ≥ 1
    ///   (cannot happen for finite input on an SPD state; kept as a
    ///   defensive check against accumulated corruption).
    pub fn rank1_update(&mut self, x: &[f64]) -> Result<(), LinalgError> {
        let d = self.dim();
        if x.len() != d {
            return Err(LinalgError::DimensionMismatch(d, x.len()));
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        // u = Y^{-1} x  (into the scratch buffer)
        for r in 0..d {
            self.scratch[r] = crate::vector::dot_slices(self.y_inv.row(r), x);
        }
        let denom = 1.0 + crate::vector::dot_slices(x, &self.scratch);
        // NaN-safe guard: on an SPD state denom >= 1 always holds, so
        // anything below 0.5 (or non-finite) means corrupted state.
        if denom.is_nan() || denom < 0.5 {
            return Err(LinalgError::SingularUpdate(denom));
        }
        let inv_denom = 1.0 / denom;
        // Y^{-1} -= u u^T / denom  and  Y += x x^T.
        for r in 0..d {
            let ur = self.scratch[r] * inv_denom;
            let xr = x[r];
            let inv_row = self.y_inv.row_mut(r);
            for (c, entry) in inv_row.iter_mut().enumerate() {
                *entry -= ur * self.scratch[c];
            }
            let y_row = self.y.row_mut(r);
            for (c, entry) in y_row.iter_mut().enumerate() {
                *entry += xr * x[c];
            }
        }
        self.updates += 1;
        Ok(())
    }

    /// `Y⁻¹ b` — the ridge regression estimate `θ̂` when `b = Σ r x`.
    ///
    /// # Panics
    /// Panics if `b.dim() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Vector {
        self.y_inv.matvec(b)
    }

    /// `Y⁻¹ b` written into a caller-owned buffer — the allocation-free
    /// form of [`ShermanMorrisonInverse::solve`], bit-identical to it.
    ///
    /// # Panics
    /// Panics if `b.len()` or `out.len()` differ from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        self.y_inv.matvec_into(b, out);
    }

    /// `xᵀ Y⁻¹ x` — UCB's squared confidence width (Algorithm 3 line 8).
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    pub fn inv_quadratic_form(&self, x: &[f64]) -> f64 {
        self.y_inv.quadratic_form(x)
    }

    /// Batched confidence widths: for every `dim`-length row `x` of the
    /// row-major block `xs`, writes `√(max(xᵀ Y⁻¹ x, 0))` — the UCB width
    /// without the `α` multiplier — into `out`. One blocked pass with
    /// `Y⁻¹` held hot; each row is bit-identical to
    /// `inv_quadratic_form(x).max(0.0).sqrt()`.
    ///
    /// # Panics
    /// Panics on a block/output shape mismatch (see
    /// [`crate::Matrix::quadratic_forms_batch`]).
    pub fn widths_into(&self, xs: &[f64], dim: usize, out: &mut [f64]) {
        self.y_inv.quadratic_forms_batch(xs, dim, out);
        for w in out.iter_mut() {
            *w = w.max(0.0).sqrt();
        }
    }

    /// Fused UCB scoring pass: per row of `xs`, the confidence width
    /// (as [`ShermanMorrisonInverse::widths_into`]) *and* the point
    /// estimate `x_v · theta` (bit-identical to
    /// [`crate::dot_slices`]), sharing one transposed walk over the
    /// block. This is the per-round kernel of the batched LinUCB path.
    ///
    /// # Panics
    /// Panics on a block/output shape mismatch or if
    /// `theta.len() != dim`.
    pub fn widths_and_dots_into(
        &self,
        xs: &[f64],
        dim: usize,
        theta: &[f64],
        widths: &mut [f64],
        dots: &mut [f64],
    ) {
        self.y_inv
            .quadratic_forms_and_dots_batch(xs, dim, theta, widths, dots);
        for w in widths.iter_mut() {
            *w = w.max(0.0).sqrt();
        }
    }

    /// Periodically re-derives `Y⁻¹` from a fresh Cholesky factorisation of
    /// `Y` to wash out accumulated floating-point drift. Long-horizon runs
    /// (the paper uses `T = 100 000`) call this every few thousand rounds.
    ///
    /// # Errors
    /// Propagates factorisation failures (which would indicate `Y` itself
    /// has been corrupted).
    pub fn refresh(&mut self) -> Result<(), LinalgError> {
        // Symmetrise first: the rank-1 updates are symmetric in exact
        // arithmetic but round-off can introduce asymmetry.
        self.y.symmetrize()?;
        let ch = crate::Cholesky::factor(&self.y)?;
        self.y_inv = ch.inverse();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cholesky;

    fn direct_inverse(y: &Matrix) -> Matrix {
        Cholesky::factor(y).unwrap().inverse()
    }

    /// Deterministic pseudo-random vectors without pulling in `rand`.
    fn pseudo_vec(dim: usize, seed: u64) -> Vector {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Vector::from_fn(dim, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-1, 1].
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn initial_state_is_lambda_identity() {
        let sm = ShermanMorrisonInverse::new(3, 2.0);
        assert!(sm.y().max_abs_diff(&Matrix::scaled_identity(3, 2.0)) < 1e-15);
        assert!(sm.y_inv().max_abs_diff(&Matrix::scaled_identity(3, 0.5)) < 1e-15);
        assert_eq!(sm.update_count(), 0);
        assert_eq!(sm.lambda(), 2.0);
    }

    #[test]
    fn single_update_matches_direct_inverse() {
        let mut sm = ShermanMorrisonInverse::new(3, 1.0);
        let x = Vector::from([0.5, -0.3, 0.8]);
        sm.rank1_update(&x).unwrap();
        let direct = direct_inverse(sm.y());
        assert!(sm.y_inv().max_abs_diff(&direct) < 1e-12);
        assert_eq!(sm.update_count(), 1);
    }

    #[test]
    fn many_updates_track_direct_inverse() {
        let d = 6;
        let mut sm = ShermanMorrisonInverse::new(d, 0.5);
        for i in 0..200 {
            let x = pseudo_vec(d, i).normalized();
            sm.rank1_update(&x).unwrap();
        }
        let direct = direct_inverse(sm.y());
        assert!(
            sm.y_inv().max_abs_diff(&direct) < 1e-8,
            "drift {}",
            sm.y_inv().max_abs_diff(&direct)
        );
    }

    #[test]
    fn refresh_restores_exact_inverse() {
        let d = 5;
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        for i in 0..500 {
            let x = pseudo_vec(d, i * 7 + 1).normalized();
            sm.rank1_update(&x).unwrap();
        }
        sm.refresh().unwrap();
        let prod = sm.y().matmul(sm.y_inv());
        assert!(prod.max_abs_diff(&Matrix::identity(d)) < 1e-10);
    }

    #[test]
    fn solve_is_ridge_estimate() {
        let mut sm = ShermanMorrisonInverse::new(2, 1.0);
        let x = Vector::from([1.0, 0.0]);
        sm.rank1_update(&x).unwrap();
        // Y = [[2, 0], [0, 1]], b = [1, 1] => theta = [0.5, 1]
        let theta = sm.solve(&Vector::from([1.0, 1.0]));
        assert!((theta[0] - 0.5).abs() < 1e-14);
        assert!((theta[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn inv_quadratic_form_decreases_along_observed_direction() {
        // Observing x repeatedly must shrink x^T Y^{-1} x (more confidence).
        let mut sm = ShermanMorrisonInverse::new(4, 1.0);
        let x = Vector::from([0.5, 0.5, 0.5, 0.5]);
        let before = sm.inv_quadratic_form(&x);
        sm.rank1_update(&x).unwrap();
        let after = sm.inv_quadratic_form(&x);
        assert!(after < before, "{after} !< {before}");
        // And keeps shrinking.
        sm.rank1_update(&x).unwrap();
        assert!(sm.inv_quadratic_form(&x) < after);
    }

    #[test]
    fn zero_vector_update_is_identity_operation() {
        let mut sm = ShermanMorrisonInverse::new(3, 1.0);
        let before = sm.y_inv().clone();
        sm.rank1_update(&Vector::zeros(3)).unwrap();
        assert!(sm.y_inv().max_abs_diff(&before) < 1e-15);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mut sm = ShermanMorrisonInverse::new(3, 1.0);
        let err = sm.rank1_update(&Vector::zeros(2)).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch(3, 2)));
    }

    #[test]
    fn rejects_non_finite() {
        let mut sm = ShermanMorrisonInverse::new(2, 1.0);
        let err = sm.rank1_update(&Vector::from([f64::NAN, 0.0])).unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite));
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_non_positive_lambda() {
        let _ = ShermanMorrisonInverse::new(2, 0.0);
    }

    #[test]
    #[should_panic(expected = "dim must be positive")]
    fn rejects_zero_dim() {
        let _ = ShermanMorrisonInverse::new(0, 1.0);
    }

    #[test]
    fn y_inverse_symmetry_is_preserved() {
        let mut sm = ShermanMorrisonInverse::new(5, 1.0);
        for i in 0..50 {
            sm.rank1_update(&pseudo_vec(5, i + 99).normalized())
                .unwrap();
        }
        assert!(sm.y().is_symmetric(1e-12));
        assert!(sm.y_inv().is_symmetric(1e-10));
    }
}
