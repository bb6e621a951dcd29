//! # fasea-linalg
//!
//! Dense linear algebra substrate for the FASEA contextual combinatorial
//! bandit library.
//!
//! The bandit algorithms of the paper (TS — Algorithm 1, UCB — Algorithm 3,
//! eGreedy — Algorithm 4) all maintain a `d × d` Gram matrix
//! `Y = λI + Σ x xᵀ` and a reward-weighted context sum `b = Σ r x`, and need
//!
//! * the ridge estimate `θ̂ = Y⁻¹ b`,
//! * the UCB quadratic form `xᵀ Y⁻¹ x`,
//! * sampling from `N(θ̂, q² Y⁻¹)`, which requires a Cholesky factor of
//!   `Y⁻¹` (equivalently, triangular solves against a factor of `Y`).
//!
//! The paper uses `d ≤ 20`, so a straightforward dense implementation is
//! both sufficient and fastest; everything here is written for correctness
//! first, with rank-1 inverse maintenance ([`ShermanMorrisonInverse`]) as the
//! one performance-critical optimisation (it turns the per-round `O(d³)`
//! inversion into `O(d²)` per arranged event).
//!
//! The crate is self-contained (no dependencies) and deliberately small in
//! API surface:
//!
//! * [`Vector`] — owned dense vector with arithmetic, dot products, norms.
//! * [`Matrix`] — owned dense row-major matrix with arithmetic, `matvec`,
//!   outer products, symmetric rank-1 updates.
//! * [`Cholesky`] — SPD factorisation with solves, inverse, log-determinant
//!   and sampling support.
//! * [`ShermanMorrisonInverse`] — incrementally maintained inverse of
//!   `λI + Σ x xᵀ`.
//! * [`FrequentDirections`] — rank-`r` streaming sketch of a Gram
//!   update stream (`O(r·d)` state approximating `Σ x xᵀ`), for the
//!   sublinear warm tier of the million-user estimator store.
//!
//! ## Example
//!
//! ```
//! use fasea_linalg::{Matrix, Vector, Cholesky};
//!
//! // Y = λI + x xᵀ with λ = 1
//! let x = Vector::from(vec![0.6, 0.8]);
//! let mut y = Matrix::identity(2);
//! y.add_outer(&x, 1.0);
//! let chol = Cholesky::factor(&y).unwrap();
//! let b = Vector::from(vec![1.0, 2.0]);
//! let theta = chol.solve(&b);
//! // Y θ = b must hold
//! let recon = y.matvec(&theta);
//! assert!((recon[0] - 1.0).abs() < 1e-12 && (recon[1] - 2.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod cholesky;
mod error;
mod matrix;
mod sherman_morrison;
mod sketch;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::{outer, Matrix};
pub use sherman_morrison::ShermanMorrisonInverse;
pub use sketch::FrequentDirections;
pub use vector::{dot_slices, dots_and_sq_norms_into, Vector};

/// Tolerance used by approximate comparisons in tests and validation
/// helpers. Chosen loose enough to absorb accumulation error for the
/// dimensions used by FASEA (`d ≤ 64`).
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` if `a` and `b` differ by at most `tol` in absolute value.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Maximum absolute component-wise difference between two equal-length
/// slices. Panics if lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
