//! Dense, row-major `f64` matrix type.
//!
//! The matrix is intentionally minimal: it is a flat `Vec<f64>` with a shape,
//! plus the handful of operations the MatRox pipeline needs (row/column
//! gathering by index sets, transposition, slicing into the raw buffer).  The
//! heavy numerical work lives in [`mod@crate::gemm`], [`crate::qr`] and
//! [`crate::id`].

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
///
/// Storage is a single contiguous allocation of `rows * cols` elements where
/// element `(i, j)` lives at `data[i * cols + j]`.  Row-major layout is used
/// because the dominant access pattern in HMatrix evaluation is gathering and
/// scattering *rows* of the right-hand-side matrix `W` / result matrix `Y`
/// according to the index sets owned by cluster-tree nodes.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Build a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build a matrix from a slice of rows (each row must have the same length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Read element `(i, j)` without bounds checks in release builds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Simple blocked transpose to stay cache friendly for larger matrices.
        const B: usize = 32;
        for ii in (0..self.rows).step_by(B) {
            for jj in (0..self.cols).step_by(B) {
                let imax = (ii + B).min(self.rows);
                let jmax = (jj + B).min(self.cols);
                for i in ii..imax {
                    for j in jj..jmax {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Gather the rows listed in `idx` (in order) into a new matrix.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Gather the columns listed in `idx` (in order) into a new matrix.
    pub fn gather_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (c, &j) in idx.iter().enumerate() {
                dst[c] = src[j];
            }
        }
        out
    }

    /// Scatter-add the rows of `src` into the rows of `self` listed in `idx`:
    /// `self[idx[r], :] += src[r, :]`.
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(idx.len(), src.rows());
        assert_eq!(self.cols, src.cols());
        for (r, &i) in idx.iter().enumerate() {
            let dst = self.row_mut(i);
            let s = src.row(r);
            for c in 0..s.len() {
                dst[c] += s[c];
            }
        }
    }

    /// Extract the contiguous sub-matrix `self[r0..r1, c0..c1]`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows);
        assert!(c0 <= c1 && c1 <= self.cols);
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// Element-wise `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Stack `self` on top of `other` (both must have the same column count).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// True when every element is finite (no NaN, no infinity).  The public
    /// evaluation and solve entry points screen their inputs with this so a
    /// poisoned request is rejected up front instead of propagating NaNs
    /// through the sweeps.
    pub fn all_finite(&self) -> bool {
        all_finite(&self.data)
    }

    /// Generate a matrix with entries drawn uniformly from `[-1, 1)` using the
    /// given RNG.  Used by the benchmark harnesses to build the dense
    /// right-hand-side matrix `W`.
    pub fn random_uniform<R: rand::Rng>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.gen_range(-1.0..1.0));
        }
        Matrix { rows, cols, data }
    }
}

/// True when every element of the slice is finite (no NaN, no infinity).
/// Slice twin of [`Matrix::all_finite`] for the vector entry points.
pub fn all_finite(data: &[f64]) -> bool {
    data.iter().all(|x| x.is_finite())
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:10.4}", self.get(i, j))?;
                if j + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_identity() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.transpose(), m);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[6.0, 7.0]);
        assert_eq!(g.row(1), &[2.0, 3.0]);
    }

    #[test]
    fn gather_cols_selects_in_order() {
        let m = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f64);
        let g = m.gather_cols(&[2, 0]);
        assert_eq!(g.row(0), &[2.0, 0.0]);
        assert_eq!(g.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn scatter_add_rows_accumulates() {
        let mut y = Matrix::zeros(4, 2);
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        y.scatter_add_rows(&[2, 0], &src);
        y.scatter_add_rows(&[2, 0], &src);
        assert_eq!(y.row(2), &[2.0, 4.0]);
        assert_eq!(y.row(0), &[6.0, 8.0]);
        assert_eq!(y.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[6.0, 7.0]);
        assert_eq!(s.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::filled(1, 3, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(v.row(2), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn add_sub_scale() {
        let mut a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 1.0);
        a.add_assign(&b);
        assert_eq!(a.get(0, 0), 4.0);
        a.sub_assign(&b);
        assert_eq!(a.get(1, 1), 3.0);
        a.scale(2.0);
        assert_eq!(a.get(0, 1), 6.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_panics_on_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn all_finite_detects_poison() {
        let mut m = Matrix::filled(2, 3, 1.0);
        assert!(m.all_finite());
        m.set(1, 2, f64::NAN);
        assert!(!m.all_finite());
        m.set(1, 2, f64::INFINITY);
        assert!(!m.all_finite());
        assert!(all_finite(&[0.0, -1.0]));
        assert!(!all_finite(&[0.0, f64::NEG_INFINITY]));
    }
}
