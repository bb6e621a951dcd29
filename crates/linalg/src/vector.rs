//! Owned dense vector.

use std::fmt;
use std::ops::{Add, AddAssign, Deref, DerefMut, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned dense vector of `f64` values.
///
/// `Vector` is a thin newtype over `Vec<f64>` that adds the arithmetic the
/// bandit algorithms need — dot products, norms, scaling, axpy — while
/// still `Deref`-ing to a slice so it composes with ordinary slice code.
///
/// Contexts `x_{t,v}` and the weight vector `θ` of the paper are both
/// represented as `Vector`s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector(Vec<f64>);

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Creates a vector of dimension `dim` filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector(vec![value; dim])
    }

    /// Builds a vector by evaluating `f` at each index `0..dim`.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        Vector((0..dim).map(&mut f).collect())
    }

    /// Dimension (number of components).
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Borrows the components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrows the components as a slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consumes the vector, returning the underlying `Vec`.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    #[inline]
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dot: dimension mismatch");
        dot_slices(&self.0, &other.0)
    }

    /// Euclidean (L2) norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm, avoiding the square root.
    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.dot(self)
    }

    /// L1 norm (sum of absolute values).
    pub fn norm_l1(&self) -> f64 {
        self.0.iter().map(|x| x.abs()).sum()
    }

    /// L∞ norm (maximum absolute component); 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.0.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Multiplies every component by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.0 {
            *x *= s;
        }
    }

    /// Returns a scaled copy `s · self`.
    pub fn scaled(&self, s: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "axpy: dimension mismatch");
        for (x, y) in self.0.iter_mut().zip(&other.0) {
            *x += alpha * y;
        }
    }

    /// Normalises the vector to unit Euclidean length in place.
    ///
    /// A zero (or numerically negligible) vector is left untouched — the
    /// FASEA generators rely on this so that all-zero contexts stay valid
    /// (`‖x‖ ≤ 1` is still satisfied).
    pub fn normalize_mut(&mut self) {
        let n = self.norm();
        if n > f64::EPSILON {
            self.scale_mut(1.0 / n);
        }
    }

    /// Returns a unit-length copy (see [`Vector::normalize_mut`]).
    pub fn normalized(&self) -> Vector {
        let mut out = self.clone();
        out.normalize_mut();
        out
    }

    /// `true` if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// Index of the maximum component, breaking ties towards the smallest
    /// index. Returns `None` for the empty vector or if any comparison
    /// involves NaN.
    pub fn argmax(&self) -> Option<usize> {
        if self.0.is_empty() || !self.is_finite() {
            return None;
        }
        let mut best = 0usize;
        for (i, &x) in self.0.iter().enumerate().skip(1) {
            if x > self.0[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Sum of all components.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Dot product of two equal-length slices.
///
/// Written with a 4-way manual unroll: for the `d ≤ 20` vectors FASEA uses
/// this is consistently faster than the naive loop in debug builds and at
/// least as fast in release builds.
#[inline]
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for j in chunks * 4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Per row `x_i` of the row-major block `xs`: `dots[i] = x_i · y` and
/// `sq_norms[i] = x_i · x_i`, each bit-identical to [`dot_slices`] —
/// the bound pass of pruned UCB scoring, which needs both for every
/// event of a round.
///
/// [`dot_slices`]' four partial sums are the four lanes of one 256-bit
/// register, so with AVX the dots of four rows at a time run as explicit
/// 4-wide `mul`/`add` (never FMA), with the same left-to-right combine
/// and scalar tail; the last `n mod 4` rows, and hosts without AVX,
/// call [`dot_slices`] twice per row.
///
/// # Panics
/// Panics if `xs` is not a whole number of `dim`-rows, `y.len() != dim`,
/// or either output's length is not the row count.
pub fn dots_and_sq_norms_into(
    xs: &[f64],
    dim: usize,
    y: &[f64],
    dots: &mut [f64],
    sq_norms: &mut [f64],
) {
    assert!(
        dim > 0 && xs.len().is_multiple_of(dim),
        "dots_and_sq_norms_into: block is not row-major n × dim"
    );
    assert_eq!(y.len(), dim, "dots_and_sq_norms_into: y length");
    assert_eq!(
        dots.len(),
        xs.len() / dim,
        "dots_and_sq_norms_into: dots length"
    );
    assert_eq!(
        sq_norms.len(),
        dots.len(),
        "dots_and_sq_norms_into: norms length"
    );
    #[cfg(target_arch = "x86_64")]
    let done = if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX availability was just detected, and the shapes are
        // asserted above.
        unsafe { dots_and_sq_norms_avx(xs, dim, y, dots, sq_norms) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for ((x, d), q) in xs[done * dim..]
        .chunks_exact(dim)
        .zip(&mut dots[done..])
        .zip(&mut sq_norms[done..])
    {
        *d = dot_slices(x, y);
        *q = dot_slices(x, x);
    }
}

/// AVX body of [`dots_and_sq_norms_into`] over the first `4·⌊n/4⌋`
/// rows, four at a time, whose eight accumulators are reduced together
/// by a 4×4 transpose, so the four lanes of each row still combine as
/// `((l0 + l1) + l2) + l3`. Returns the number of rows done.
///
/// # Safety
/// The caller must ensure AVX is available and the shapes
/// [`dots_and_sq_norms_into`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dots_and_sq_norms_avx(
    xs: &[f64],
    dim: usize,
    y: &[f64],
    dots: &mut [f64],
    sq_norms: &mut [f64],
) -> usize {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    };
    /// Lane `j` of the result sums the lanes of `a[j]` as
    /// `((l0 + l1) + l2) + l3`.
    ///
    /// # Safety
    /// The caller must ensure AVX is available.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn reduce4(a: [__m256d; 4]) -> __m256d {
        let t0 = _mm256_unpacklo_pd(a[0], a[1]);
        let t1 = _mm256_unpackhi_pd(a[0], a[1]);
        let t2 = _mm256_unpacklo_pd(a[2], a[3]);
        let t3 = _mm256_unpackhi_pd(a[2], a[3]);
        let l0 = _mm256_permute2f128_pd::<0x20>(t0, t2);
        let l1 = _mm256_permute2f128_pd::<0x20>(t1, t3);
        let l2 = _mm256_permute2f128_pd::<0x31>(t0, t2);
        let l3 = _mm256_permute2f128_pd::<0x31>(t1, t3);
        _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3)
    }
    let chunks = dim / 4;
    let yp = y.as_ptr();
    let quads = dots.len() / 4;
    for g in 0..quads {
        let xp = xs.as_ptr().add(4 * g * dim);
        let mut sd = [_mm256_setzero_pd(); 4];
        let mut sq = [_mm256_setzero_pd(); 4];
        // In bounds: row `4g + r < n`, and `4c + 4 <= dim` in each row.
        for c in 0..chunks {
            let yv = _mm256_loadu_pd(yp.add(4 * c));
            for r in 0..4 {
                let xv = _mm256_loadu_pd(xp.add(r * dim + 4 * c));
                sd[r] = _mm256_add_pd(sd[r], _mm256_mul_pd(xv, yv));
                sq[r] = _mm256_add_pd(sq[r], _mm256_mul_pd(xv, xv));
            }
        }
        let (d4, q4) = (&mut dots[4 * g..4 * g + 4], &mut sq_norms[4 * g..4 * g + 4]);
        _mm256_storeu_pd(d4.as_mut_ptr(), reduce4(sd));
        _mm256_storeu_pd(q4.as_mut_ptr(), reduce4(sq));
        for r in 0..4 {
            let x = &xs[(4 * g + r) * dim..(4 * g + r + 1) * dim];
            for j in chunks * 4..dim {
                d4[r] += x[j] * y[j];
                q4[r] += x[j] * x[j];
            }
        }
    }
    4 * quads
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector(v.to_vec())
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(v: [f64; N]) -> Self {
        Vector(v.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector(iter.into_iter().collect())
    }
}

impl Deref for Vector {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

impl DerefMut for Vector {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "add: dimension mismatch");
        Vector::from_fn(self.dim(), |i| self.0[i] + rhs.0[i])
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "sub: dimension mismatch");
        Vector::from_fn(self.dim(), |i| self.0[i] - rhs.0[i])
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_dots_and_norms_are_bit_identical_to_dot_slices() {
        // Row kinds: generic, subnormal, ±0 and overflowing (±∞ and
        // NaN out of finite inputs).
        let row = |kind: usize, i: usize, dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|j| {
                    let h = ((i * 31 + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                    let u = h as f64 / 9e15 - 0.4;
                    match kind {
                        0 => u,
                        1 => u * 1e-310,
                        2 => [0.0, -0.0][j % 2],
                        _ => u.signum() * f64::MAX * (0.25 + u.abs() / 2.0),
                    }
                })
                .collect()
        };
        for dim in [1usize, 3, 4, 5, 8, 20, 23] {
            let y: Vec<f64> = (0..dim).map(|j| 0.7 - 0.13 * j as f64).collect();
            for n in (0..=9).chain([37]) {
                let xs: Vec<f64> = (0..n).flat_map(|i| row((i * 7 + n) % 4, i, dim)).collect();
                let (mut dots, mut sq) = (vec![0.0; n], vec![0.0; n]);
                dots_and_sq_norms_into(&xs, dim, &y, &mut dots, &mut sq);
                for (i, x) in xs.chunks_exact(dim).enumerate() {
                    if (i * 7 + n) % 4 == 3 {
                        assert_eq!(sq[i], f64::INFINITY, "dim {dim} n {n} row {i}");
                    }
                    assert_eq!(
                        dots[i].to_bits(),
                        dot_slices(x, &y).to_bits(),
                        "dim {dim} n {n} row {i}"
                    );
                    assert_eq!(
                        sq[i].to_bits(),
                        dot_slices(x, x).to_bits(),
                        "dim {dim} n {n} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn zeros_and_dim() {
        let v = Vector::zeros(5);
        assert_eq!(v.dim(), 5);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_builds_indices() {
        let v = Vector::from_fn(4, |i| i as f64 * 2.0);
        assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn dot_product_known_value() {
        let a = Vector::from([1.0, 2.0, 3.0]);
        let b = Vector::from([4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn dot_unrolled_matches_naive_on_odd_lengths() {
        for n in 0..23 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (dot_slices(&a, &b) - naive).abs() < 1e-12,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dot: dimension mismatch")]
    fn dot_panics_on_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn norms() {
        let v = Vector::from([3.0, -4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = Vector::from([1.0, 1.0, 1.0, 1.0]);
        v.normalize_mut();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!((v[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = Vector::zeros(3);
        v.normalize_mut();
        assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut v = Vector::from([1.0, 2.0]);
        let w = Vector::from([10.0, 20.0]);
        v.axpy(0.5, &w);
        assert_eq!(v.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn argmax_first_max_wins() {
        let v = Vector::from([1.0, 3.0, 3.0, 2.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
        assert_eq!(Vector::from([f64::NAN, 1.0]).argmax(), None);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Vector::from([1.0, 2.0]).is_finite());
        assert!(!Vector::from([1.0, f64::NAN]).is_finite());
        assert!(!Vector::from([f64::INFINITY]).is_finite());
    }

    #[test]
    fn display_formats() {
        let v = Vector::from([1.0, -0.5]);
        assert_eq!(v.to_string(), "[1.000000, -0.500000]");
    }

    #[test]
    fn sum_and_filled() {
        let v = Vector::filled(4, 0.25);
        assert!((v.sum() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }
}
