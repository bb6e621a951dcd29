//! Owned dense row-major matrix.

use crate::{LinalgError, Vector};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// An owned dense `rows × cols` matrix of `f64` in row-major layout.
///
/// The FASEA algorithms only ever need small square matrices (`d ≤ 20`
/// in the paper's experiments), so the representation is a single
/// contiguous `Vec<f64>` — cache-friendly and allocation-free once built.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates `λ · I` — the ridge regularisation seed of the bandit Gram
    /// matrix (`Y ← λ I_{d×d}`, line 1 of Algorithms 1/3/4).
    pub fn scaled_identity(n: usize, lambda: f64) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = lambda;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_rows: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col index out of bounds");
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Borrows the raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.dim() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix–vector product written into a caller-owned buffer —
    /// allocation-free and bit-identical to [`Matrix::matvec`] (same
    /// per-row summation order).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec_into: output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = crate::vector::dot_slices(self.row(r), x);
        }
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix–matrix product written into a caller-owned matrix —
    /// allocation-free and bit-identical to [`Matrix::matmul`]. `out` is
    /// overwritten entirely.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmul_into: output row mismatch");
        assert_eq!(out.cols, other.cols, "matmul_into: output col mismatch");
        out.data.fill(0.0);
        // ikj loop order: stream through `other` row-wise for locality.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Symmetric rank-1 update `self += alpha · x xᵀ`.
    ///
    /// This is the Gram-matrix update `Y ← Y + x_{t,v} x_{t,v}ᵀ` of
    /// Algorithms 1/3/4 (line "Y ← Y + Σ x xᵀ").
    ///
    /// # Panics
    /// Panics if the matrix is not square of dimension `x.dim()`.
    pub fn add_outer(&mut self, x: &Vector, alpha: f64) {
        assert!(self.is_square(), "add_outer: matrix must be square");
        assert_eq!(x.dim(), self.rows, "add_outer: dimension mismatch");
        let n = self.rows;
        for r in 0..n {
            let xr = alpha * x[r];
            let row = &mut self.data[r * n..(r + 1) * n];
            for (c, entry) in row.iter_mut().enumerate() {
                *entry += xr * x[c];
            }
        }
    }

    /// Quadratic form `xᵀ · self · x`.
    ///
    /// UCB's confidence width (Algorithm 3 line 8) is
    /// `α √(xᵀ Y⁻¹ x)`; this computes the inner quadratic form against an
    /// explicit matrix (usually a maintained inverse).
    ///
    /// # Panics
    /// Panics if the matrix is not square of dimension `x.dim()`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert!(self.is_square(), "quadratic_form: matrix must be square");
        assert_eq!(x.len(), self.rows, "quadratic_form: dimension mismatch");
        let n = self.rows;
        let mut acc = 0.0;
        for r in 0..n {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            acc += xr * crate::vector::dot_slices(&self.data[r * n..(r + 1) * n], x);
        }
        acc
    }

    /// Batched quadratic forms: `out[i] = x_iᵀ · self · x_i` for every
    /// `dim`-length row `x_i` of the row-major block `xs` (the layout of a
    /// context matrix). One pass over the block with the matrix held hot;
    /// each row's result is bit-identical to [`Matrix::quadratic_form`]
    /// on that row (same skip-zero, same summation order).
    ///
    /// # Panics
    /// Panics if the matrix is not square of dimension `dim`, if
    /// `xs.len()` is not a multiple of `dim`, or if `out.len()` does not
    /// equal the number of rows in `xs`.
    pub fn quadratic_forms_batch(&self, xs: &[f64], dim: usize, out: &mut [f64]) {
        assert!(
            self.is_square(),
            "quadratic_forms_batch: matrix must be square"
        );
        assert_eq!(dim, self.rows, "quadratic_forms_batch: dimension mismatch");
        assert!(
            dim > 0 && xs.len().is_multiple_of(dim),
            "quadratic_forms_batch: block is not row-major n × dim"
        );
        assert_eq!(
            out.len(),
            xs.len() / dim,
            "quadratic_forms_batch: output length mismatch"
        );
        self.qf_batch_impl(xs, dim, out, None);
    }

    /// Fused form of [`Matrix::quadratic_forms_batch`] that also
    /// computes `dots[i] = x_i · y` in the same pass — the UCB scoring
    /// round's point estimate (`x · θ̂`) and squared confidence width
    /// (`xᵀ Y⁻¹ x`) share one transposed walk over the context block.
    /// Each dot is bit-identical to [`crate::dot_slices`]`(x_i, y)`.
    ///
    /// # Panics
    /// As [`Matrix::quadratic_forms_batch`], plus if `y.len() != dim`
    /// or `dots.len() != qf.len()`.
    pub fn quadratic_forms_and_dots_batch(
        &self,
        xs: &[f64],
        dim: usize,
        y: &[f64],
        qf: &mut [f64],
        dots: &mut [f64],
    ) {
        assert!(
            self.is_square(),
            "quadratic_forms_and_dots_batch: matrix must be square"
        );
        assert_eq!(
            dim, self.rows,
            "quadratic_forms_and_dots_batch: dimension mismatch"
        );
        assert!(
            dim > 0 && xs.len().is_multiple_of(dim),
            "quadratic_forms_and_dots_batch: block is not row-major n × dim"
        );
        assert_eq!(
            qf.len(),
            xs.len() / dim,
            "quadratic_forms_and_dots_batch: output length mismatch"
        );
        assert_eq!(y.len(), dim, "quadratic_forms_and_dots_batch: y length");
        assert_eq!(
            dots.len(),
            qf.len(),
            "quadratic_forms_and_dots_batch: dots length mismatch"
        );
        self.qf_batch_impl(xs, dim, qf, Some((y, dots)));
    }

    /// Shared engine for the batched quadratic forms, with an optional
    /// fused per-row dot against a fixed vector.
    ///
    /// Lane-parallel fast path: QF_LANES events advance together, one
    /// matrix row at a time, over a transposed copy of the block. Each
    /// lane performs exactly the scalar sequence (4-way partial sums
    /// per dot, rows in ascending order, left-associated combine), so
    /// the results are bit-identical — lanes are independent, nothing
    /// is reassociated. On x86-64 with AVX the lane loops run as
    /// explicit 4-wide vector mul/add (never FMA, which would contract
    /// and change bits); elsewhere a safe scalar-lane kernel takes the
    /// same shape.
    fn qf_batch_impl(
        &self,
        xs: &[f64],
        dim: usize,
        out: &mut [f64],
        mut dots: Option<(&[f64], &mut [f64])>,
    ) {
        let n = xs.len() / dim;
        let mut xt = [0.0f64; QF_LANES * QF_MAX_DIM]; // xt[j*QF_LANES + e] = x_e[j]
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        let mut blk = 0;
        while blk < n {
            let bsz = QF_LANES.min(n - blk);
            let block = &xs[blk * dim..(blk + bsz) * dim];
            // Transpose into lane-major layout, noting zeros as we go.
            // Events containing a zero entry take the scalar path: the
            // scalar kernel *skips* zero rows, and skipping differs
            // from adding `0 · dot` when that row's dot is non-finite.
            let mut has_zero = false;
            if bsz == QF_LANES && dim <= QF_MAX_DIM {
                for (e, x) in block.chunks_exact(dim).enumerate() {
                    for (j, &v) in x.iter().enumerate() {
                        has_zero |= v == 0.0;
                        xt[j * QF_LANES + e] = v;
                    }
                }
            }
            if bsz < QF_LANES || dim > QF_MAX_DIM || has_zero {
                for (e, (x, o)) in block
                    .chunks_exact(dim)
                    .zip(out[blk..].iter_mut())
                    .enumerate()
                {
                    *o = self.quadratic_form(x);
                    if let Some((y, d)) = dots.as_mut() {
                        d[blk + e] = crate::vector::dot_slices(x, y);
                    }
                }
                blk += bsz;
                continue;
            }
            let mut acc = [0.0f64; QF_LANES];
            let mut dacc = [0.0f64; QF_LANES];
            #[cfg(target_arch = "x86_64")]
            if use_avx {
                // SAFETY: AVX availability was just detected; `xt`
                // holds `dim` full lane groups and `self.data` is a
                // `dim × dim` square (asserted by the public callers).
                unsafe {
                    qf_block_avx(&self.data, dim, &xt, &mut acc);
                    if let Some((y, d)) = dots.as_mut() {
                        dot_block_avx(y, dim, &xt, &mut dacc);
                        d[blk..blk + QF_LANES].copy_from_slice(&dacc);
                    }
                }
                out[blk..blk + QF_LANES].copy_from_slice(&acc);
                blk += QF_LANES;
                continue;
            }
            qf_block_lanes(&self.data, dim, &xt, &mut acc);
            if let Some((y, d)) = dots.as_mut() {
                dot_block_lanes(y, dim, &xt, &mut dacc);
                d[blk..blk + QF_LANES].copy_from_slice(&dacc);
            }
            out[blk..blk + QF_LANES].copy_from_slice(&acc);
            blk += QF_LANES;
        }
    }

    /// Frobenius norm `√(Σ a_{ij}²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry-wise difference to `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: row mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: col mismatch");
        crate::max_abs_diff(&self.data, &other.data)
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// `true` if the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrises the matrix in place: `A ← (A + Aᵀ)/2`. Useful to wash
    /// out asymmetric round-off before a Cholesky factorisation.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn symmetrize(&mut self) -> Result<(), LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare(self.rows, self.cols));
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
        Ok(())
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace: matrix must be square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add: row mismatch");
        assert_eq!(self.cols, rhs.cols, "add: col mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "sub: row mismatch");
        assert_eq!(self.cols, rhs.cols, "sub: col mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Outer product `x yᵀ` as a fresh matrix.
pub fn outer(x: &Vector, y: &Vector) -> Matrix {
    Matrix::from_fn(x.dim(), y.dim(), |r, c| x[r] * y[c])
}

/// Events processed per lane group by [`Matrix::quadratic_forms_batch`].
const QF_LANES: usize = 8;
/// Largest dimension the stack-resident transposed block supports;
/// larger systems fall back to the scalar kernel (FASEA uses d ≤ 20).
const QF_MAX_DIM: usize = 64;

/// Safe lane kernel: `acc[e] = x_eᵀ M x_e` for the 8 events whose
/// transposed contexts sit in `xt` (`xt[j*8 + e] = x_e[j]`). Per lane
/// this is exactly the scalar `quadratic_form` sequence — 4 partial
/// sums per row dot, combined left-to-right, rows ascending — so each
/// result is bit-identical to the scalar call. The `e` loops are over
/// contiguous 8-wide groups, which the compiler auto-vectorises.
fn qf_block_lanes(m: &[f64], dim: usize, xt: &[f64], acc: &mut [f64; QF_LANES]) {
    let chunks = dim / 4;
    for r in 0..dim {
        let row = &m[r * dim..(r + 1) * dim];
        let mut s0 = [0.0f64; QF_LANES];
        let mut s1 = [0.0f64; QF_LANES];
        let mut s2 = [0.0f64; QF_LANES];
        let mut s3 = [0.0f64; QF_LANES];
        for i in 0..chunks {
            let j = i * 4;
            let x0 = &xt[j * QF_LANES..(j + 1) * QF_LANES];
            let x1 = &xt[(j + 1) * QF_LANES..(j + 2) * QF_LANES];
            let x2 = &xt[(j + 2) * QF_LANES..(j + 3) * QF_LANES];
            let x3 = &xt[(j + 3) * QF_LANES..(j + 4) * QF_LANES];
            for e in 0..QF_LANES {
                s0[e] += row[j] * x0[e];
                s1[e] += row[j + 1] * x1[e];
                s2[e] += row[j + 2] * x2[e];
                s3[e] += row[j + 3] * x3[e];
            }
        }
        let mut dot = [0.0f64; QF_LANES];
        for e in 0..QF_LANES {
            dot[e] = s0[e] + s1[e] + s2[e] + s3[e];
        }
        for j in chunks * 4..dim {
            let xj = &xt[j * QF_LANES..(j + 1) * QF_LANES];
            for e in 0..QF_LANES {
                dot[e] += row[j] * xj[e];
            }
        }
        let xr = &xt[r * QF_LANES..(r + 1) * QF_LANES];
        for e in 0..QF_LANES {
            acc[e] += xr[e] * dot[e];
        }
    }
}

/// Safe lane kernel for the fused per-row dots: `dot[e] = x_e · y` for
/// the 8 events transposed into `xt`. Per lane this is exactly the
/// [`crate::dot_slices`] sequence, so each result is bit-identical to
/// the scalar call.
fn dot_block_lanes(y: &[f64], dim: usize, xt: &[f64], dot: &mut [f64; QF_LANES]) {
    let chunks = dim / 4;
    let mut s0 = [0.0f64; QF_LANES];
    let mut s1 = [0.0f64; QF_LANES];
    let mut s2 = [0.0f64; QF_LANES];
    let mut s3 = [0.0f64; QF_LANES];
    for i in 0..chunks {
        let j = i * 4;
        let x0 = &xt[j * QF_LANES..(j + 1) * QF_LANES];
        let x1 = &xt[(j + 1) * QF_LANES..(j + 2) * QF_LANES];
        let x2 = &xt[(j + 2) * QF_LANES..(j + 3) * QF_LANES];
        let x3 = &xt[(j + 3) * QF_LANES..(j + 4) * QF_LANES];
        for e in 0..QF_LANES {
            s0[e] += x0[e] * y[j];
            s1[e] += x1[e] * y[j + 1];
            s2[e] += x2[e] * y[j + 2];
            s3[e] += x3[e] * y[j + 3];
        }
    }
    for e in 0..QF_LANES {
        dot[e] = s0[e] + s1[e] + s2[e] + s3[e];
    }
    for j in chunks * 4..dim {
        let xj = &xt[j * QF_LANES..(j + 1) * QF_LANES];
        for e in 0..QF_LANES {
            dot[e] += xj[e] * y[j];
        }
    }
}

/// AVX form of [`dot_block_lanes`] — `vmulpd`/`vaddpd` only, no FMA,
/// so each lane remains bit-identical to the scalar [`crate::dot_slices`].
///
/// # Safety
/// The caller must ensure AVX is available, `y.len() >= dim`, and `xt`
/// holds at least `dim` lane groups of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot_block_avx(y: &[f64], dim: usize, xt: &[f64], dot: &mut [f64; QF_LANES]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    debug_assert!(y.len() >= dim && xt.len() >= dim * QF_LANES);
    let chunks = dim / 4;
    let xp = xt.as_ptr();
    let mut s_lo = [_mm256_setzero_pd(); 4];
    let mut s_hi = [_mm256_setzero_pd(); 4];
    for i in 0..chunks {
        let j = i * 4;
        for (k, (sl, sh)) in s_lo.iter_mut().zip(s_hi.iter_mut()).enumerate() {
            let yv = _mm256_set1_pd(*y.get_unchecked(j + k));
            let p = xp.add((j + k) * QF_LANES);
            *sl = _mm256_add_pd(*sl, _mm256_mul_pd(_mm256_loadu_pd(p), yv));
            *sh = _mm256_add_pd(*sh, _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), yv));
        }
    }
    let mut dot_lo = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(s_lo[0], s_lo[1]), s_lo[2]),
        s_lo[3],
    );
    let mut dot_hi = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(s_hi[0], s_hi[1]), s_hi[2]),
        s_hi[3],
    );
    for j in chunks * 4..dim {
        let yv = _mm256_set1_pd(*y.get_unchecked(j));
        let p = xp.add(j * QF_LANES);
        dot_lo = _mm256_add_pd(dot_lo, _mm256_mul_pd(_mm256_loadu_pd(p), yv));
        dot_hi = _mm256_add_pd(dot_hi, _mm256_mul_pd(_mm256_loadu_pd(p.add(4)), yv));
    }
    _mm256_storeu_pd(dot.as_mut_ptr(), dot_lo);
    _mm256_storeu_pd(dot.as_mut_ptr().add(4), dot_hi);
}

/// AVX form of [`qf_block_lanes`]: the same operation sequence with the
/// 8 lanes held in two 256-bit registers per partial sum. Only `vmulpd`
/// and `vaddpd` are emitted — never FMA, which would contract the
/// multiply-add and change the result bits — so each lane remains
/// bit-identical to the scalar `quadratic_form`.
///
/// # Safety
/// The caller must ensure AVX is available (`is_x86_feature_detected!`),
/// that `m` holds a `dim × dim` row-major square, and that `xt` holds at
/// least `dim` lane groups of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn qf_block_avx(m: &[f64], dim: usize, xt: &[f64], acc: &mut [f64; QF_LANES]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    debug_assert!(m.len() >= dim * dim && xt.len() >= dim * QF_LANES);
    let chunks = dim / 4;
    let xp = xt.as_ptr();
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    for r in 0..dim {
        let rp = m.as_ptr().add(r * dim);
        let mut s_lo = [_mm256_setzero_pd(); 4];
        let mut s_hi = [_mm256_setzero_pd(); 4];
        for i in 0..chunks {
            let j = i * 4;
            for (k, (sl, sh)) in s_lo.iter_mut().zip(s_hi.iter_mut()).enumerate() {
                let rv = _mm256_set1_pd(*rp.add(j + k));
                let p = xp.add((j + k) * QF_LANES);
                *sl = _mm256_add_pd(*sl, _mm256_mul_pd(rv, _mm256_loadu_pd(p)));
                *sh = _mm256_add_pd(*sh, _mm256_mul_pd(rv, _mm256_loadu_pd(p.add(4))));
            }
        }
        let mut dot_lo = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(s_lo[0], s_lo[1]), s_lo[2]),
            s_lo[3],
        );
        let mut dot_hi = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(s_hi[0], s_hi[1]), s_hi[2]),
            s_hi[3],
        );
        for j in chunks * 4..dim {
            let rv = _mm256_set1_pd(*rp.add(j));
            let p = xp.add(j * QF_LANES);
            dot_lo = _mm256_add_pd(dot_lo, _mm256_mul_pd(rv, _mm256_loadu_pd(p)));
            dot_hi = _mm256_add_pd(dot_hi, _mm256_mul_pd(rv, _mm256_loadu_pd(p.add(4))));
        }
        let pr = xp.add(r * QF_LANES);
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(_mm256_loadu_pd(pr), dot_lo));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(_mm256_loadu_pd(pr.add(4)), dot_hi));
    }
    _mm256_storeu_pd(acc.as_mut_ptr(), acc_lo);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), acc_hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_rows(2, 2, vec![a, b, c, d])
    }

    #[test]
    fn identity_and_scaled_identity() {
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let l = Matrix::scaled_identity(3, 2.5);
        assert_eq!(l[(2, 2)], 2.5);
        assert_eq!(l[(1, 0)], 0.0);
        assert_eq!(l.trace(), 7.5);
    }

    #[test]
    fn matvec_known() {
        let m = m2(1.0, 2.0, 3.0, 4.0);
        let x = Vector::from([5.0, 6.0]);
        let y = m.matvec(&x);
        assert_eq!(y.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn matmul_known() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn add_outer_matches_explicit_outer() {
        let x = Vector::from([1.0, 2.0, 3.0]);
        let mut m = Matrix::identity(3);
        m.add_outer(&x, 2.0);
        let expect = &Matrix::identity(3) + &(&outer(&x, &x) * 2.0);
        assert!(m.max_abs_diff(&expect) < 1e-14);
    }

    #[test]
    fn quadratic_form_known() {
        // x^T A x with A = [[2,1],[1,3]], x = [1,2] => 2 + 2*1*2 + 3*4 = 18
        let a = m2(2.0, 1.0, 1.0, 3.0);
        let x = Vector::from([1.0, 2.0]);
        assert!((a.quadratic_form(&x) - 18.0).abs() < 1e-14);
    }

    #[test]
    fn quadratic_form_identity_is_norm_sq() {
        let x = Vector::from([0.3, -0.4, 0.5]);
        let i = Matrix::identity(3);
        assert!((i.quadratic_form(&x) - x.norm_sq()).abs() < 1e-14);
    }

    #[test]
    fn symmetry_checks() {
        let s = m2(1.0, 2.0, 2.0, 5.0);
        assert!(s.is_symmetric(0.0));
        let a = m2(1.0, 2.0, 2.1, 5.0);
        assert!(!a.is_symmetric(1e-3));
        assert!(a.is_symmetric(0.2));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1.0));
    }

    #[test]
    fn symmetrize_averages() {
        let mut a = m2(1.0, 2.0, 4.0, 5.0);
        a.symmetrize().unwrap();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
        let mut rect = Matrix::zeros(2, 3);
        assert!(matches!(
            rect.symmetrize(),
            Err(LinalgError::NotSquare(2, 3))
        ));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m2(3.0, 0.0, 0.0, 4.0);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn row_col_access() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn operators() {
        let a = m2(1.0, 2.0, 3.0, 4.0);
        let b = m2(10.0, 20.0, 30.0, 40.0);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "from_rows")]
    fn from_rows_length_check() {
        let _ = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn is_finite_detects_bad_entries() {
        let mut a = Matrix::identity(2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn display_has_rows() {
        let a = Matrix::identity(2);
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
    }

    /// Deterministic non-zero pseudo-random values for kernel tests.
    fn lcg_fill(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136415821433261)
            .wrapping_add(1442695040888963407);
        // Map to (0, 1] then shift away from zero so the skip-zero
        // fallback is not triggered unless a test wants it.
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) + 0.001
    }

    fn random_square(dim: usize, seed: &mut u64) -> Matrix {
        Matrix::from_fn(dim, dim, |_, _| lcg_fill(seed) - 0.5)
    }

    #[test]
    fn batched_quadratic_forms_bit_exact_vs_scalar() {
        // n = 20 is deliberately not a multiple of the lane width: the
        // first 16 events take the lane (AVX where available) path, the
        // last 4 take the scalar tail, and every result must be
        // bit-identical to the per-row reference.
        let mut seed = 0x5eed0001u64;
        for dim in [1usize, 5, 20, 64] {
            let m = random_square(dim, &mut seed);
            let n = 20;
            let xs: Vec<f64> = (0..n * dim).map(|_| lcg_fill(&mut seed) - 0.5).collect();
            let mut out = vec![0.0; n];
            m.quadratic_forms_batch(&xs, dim, &mut out);
            for i in 0..n {
                let reference = m.quadratic_form(&xs[i * dim..(i + 1) * dim]);
                assert_eq!(
                    out[i].to_bits(),
                    reference.to_bits(),
                    "dim={dim} event={i}: batched != scalar"
                );
            }
        }
    }

    #[test]
    fn batched_quadratic_forms_zero_entries_use_scalar_fallback() {
        // quadratic_form skips rows where x[r] == 0.0; blocks containing
        // zeros must route to the scalar fallback and stay bit-exact.
        let mut seed = 0x5eed0002u64;
        let dim = 8;
        let m = random_square(dim, &mut seed);
        let n = 17;
        let mut xs: Vec<f64> = (0..n * dim).map(|_| lcg_fill(&mut seed) - 0.5).collect();
        for i in 0..n {
            xs[i * dim + i % dim] = 0.0;
        }
        let mut out = vec![0.0; n];
        m.quadratic_forms_batch(&xs, dim, &mut out);
        for i in 0..n {
            let reference = m.quadratic_form(&xs[i * dim..(i + 1) * dim]);
            assert_eq!(out[i].to_bits(), reference.to_bits(), "event {i}");
        }
    }

    #[test]
    fn batched_quadratic_forms_dim_above_lane_buffer_falls_back() {
        // dim > QF_MAX_DIM exceeds the stack transpose buffer; the
        // batch must silently take the scalar path, not panic.
        let mut seed = 0x5eed0003u64;
        let dim = 70;
        let m = random_square(dim, &mut seed);
        let n = 9;
        let xs: Vec<f64> = (0..n * dim).map(|_| lcg_fill(&mut seed) - 0.5).collect();
        let mut out = vec![0.0; n];
        m.quadratic_forms_batch(&xs, dim, &mut out);
        for i in 0..n {
            let reference = m.quadratic_form(&xs[i * dim..(i + 1) * dim]);
            assert_eq!(out[i].to_bits(), reference.to_bits(), "event {i}");
        }
    }

    #[test]
    fn fused_quadratic_forms_and_dots_bit_exact() {
        let mut seed = 0x5eed0004u64;
        for dim in [3usize, 20] {
            let m = random_square(dim, &mut seed);
            let y: Vec<f64> = (0..dim).map(|_| lcg_fill(&mut seed) - 0.5).collect();
            let n = 21;
            let xs: Vec<f64> = (0..n * dim).map(|_| lcg_fill(&mut seed) - 0.5).collect();
            let mut qf = vec![0.0; n];
            let mut dots = vec![0.0; n];
            m.quadratic_forms_and_dots_batch(&xs, dim, &y, &mut qf, &mut dots);
            let mut qf_only = vec![0.0; n];
            m.quadratic_forms_batch(&xs, dim, &mut qf_only);
            for i in 0..n {
                let x = &xs[i * dim..(i + 1) * dim];
                assert_eq!(
                    qf[i].to_bits(),
                    m.quadratic_form(x).to_bits(),
                    "dim={dim} event={i}: fused qf != scalar"
                );
                assert_eq!(
                    qf[i].to_bits(),
                    qf_only[i].to_bits(),
                    "dim={dim} event={i}: fused qf != unfused qf"
                );
                assert_eq!(
                    dots[i].to_bits(),
                    crate::vector::dot_slices(x, &y).to_bits(),
                    "dim={dim} event={i}: fused dot != dot_slices"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dots length mismatch")]
    fn fused_batch_checks_dots_length() {
        let m = Matrix::identity(2);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 1.0];
        let mut qf = [0.0; 2];
        let mut dots = [0.0; 1];
        m.quadratic_forms_and_dots_batch(&xs, 2, &y, &mut qf, &mut dots);
    }
}
