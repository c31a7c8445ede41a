//! Dense Cholesky factorization and SPD solves.
//!
//! The ULV-style HSS factorization (`matrox-factor`) factors every leaf
//! diagonal block `D_i = L_i L_i^T`, and the dense solver baseline factors
//! the fully assembled kernel matrix the same way, so the two share one
//! kernel and measured differences isolate the *structure*, not the BLAS.
//! The original framework would call LAPACK `dpotrf`/`dpotrs` here; this is
//! the pure-Rust equivalent (DESIGN.md substitution S7): a right-looking
//! blocked factorization whose trailing update is a symmetric rank-`k`
//! update touching only the lower triangle, its dot products on the
//! [`KernelDispatch`] the caller passes (the factor's, or the process-wide
//! one for the dense baseline).

use crate::kernel::KernelDispatch;
use crate::matrix::Matrix;
use crate::solve::{solve_lower_in_place, solve_lower_transpose_in_place};

/// Error returned when a pivot of the factorization is not strictly positive:
/// the input is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotPositiveDefinite {
    /// Index of the failing pivot.
    pub pivot: usize,
    /// Value of the failing pivot (`<= 0` or non-finite).
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} is {:e}",
            self.pivot, self.value
        )
    }
}
impl std::error::Error for NotPositiveDefinite {}

/// Panel width of the blocked factorization.  One `CHOL_BLOCK`-wide panel of
/// `L` stays resident in L1/L2 while the trailing update streams over it.
const CHOL_BLOCK: usize = 64;

/// Compute the lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// Only the lower triangle of `a` is read; the strict upper triangle of the
/// returned factor is zero.  Fails with [`NotPositiveDefinite`] when a pivot
/// is non-positive or non-finite.  The trailing update's dot products run
/// on `disp`.
///
/// # Panics
/// Panics if `a` is not square.
pub fn cholesky(a: &Matrix, disp: KernelDispatch) -> Result<Matrix, NotPositiveDefinite> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "cholesky: matrix must be square");
    let mut l = a.clone();
    let data = l.as_mut_slice();
    for k0 in (0..n).step_by(CHOL_BLOCK) {
        let k1 = (k0 + CHOL_BLOCK).min(n);
        factor_diag_block(data, n, k0, k1)?;
        if k1 < n {
            // Panel solve: L21 = A21 * L11^{-T}, one forward substitution
            // per row of the panel (row-major friendly).
            for i in k1..n {
                for j in k0..k1 {
                    let mut s = data[i * n + j];
                    for p in k0..j {
                        s -= data[i * n + p] * data[j * n + p];
                    }
                    data[i * n + j] = s / data[j * n + j];
                }
            }
            // Trailing symmetric update: A22 -= L21 * L21^T (lower only).
            trailing_update(disp, data, n, k1, n, k0, k1);
        }
    }
    // The factor only ever reads the lower triangle; zero the rest so the
    // result is a clean triangular matrix (and bitwise-stable to serialize).
    for i in 0..n {
        for j in (i + 1)..n {
            data[i * n + j] = 0.0;
        }
    }
    Ok(l)
}

/// Unblocked factorization of the diagonal block `[k0, k1)` (columns within
/// the panel; rows outside it are handled by the caller's panel solve).
fn factor_diag_block(
    data: &mut [f64],
    ld: usize,
    k0: usize,
    k1: usize,
) -> Result<(), NotPositiveDefinite> {
    for j in k0..k1 {
        let mut d = data[j * ld + j];
        for p in k0..j {
            d -= data[j * ld + p] * data[j * ld + p];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotPositiveDefinite { pivot: j, value: d });
        }
        let ljj = d.sqrt();
        data[j * ld + j] = ljj;
        for i in (j + 1)..k1 {
            let mut s = data[i * ld + j];
            for p in k0..j {
                s -= data[i * ld + p] * data[j * ld + p];
            }
            data[i * ld + j] = s / ljj;
        }
    }
    Ok(())
}

/// `C[i, j] -= sum_p A[i, p] * A[j, p]` for `start <= j <= i < end`, with the
/// rank columns `p` in `[p0, p1)`; `C` and `A` share the buffer `data` (the
/// in-place trailing update of the blocked Cholesky), on `disp`.
fn trailing_update(
    disp: KernelDispatch,
    data: &mut [f64],
    ld: usize,
    start: usize,
    end: usize,
    p0: usize,
    p1: usize,
) {
    const TILE: usize = 32;
    let pw = p1 - p0;
    // One scratch buffer for the whole update: the borrow checker cannot see
    // that the written entries (columns >= p1) never alias the panel columns
    // (< p1), so each row tile's panel rows are staged here once instead of
    // re-borrowing (or re-allocating) inside the inner loops.
    let mut panel = vec![0.0f64; TILE * pw];
    for ii in (start..end).step_by(TILE) {
        let imax = (ii + TILE).min(end);
        for (r, i) in (ii..imax).enumerate() {
            panel[r * pw..(r + 1) * pw].copy_from_slice(&data[i * ld + p0..i * ld + p1]);
        }
        for jj in (start..=ii).step_by(TILE) {
            let jmax = (jj + TILE).min(imax);
            for i in ii..imax {
                let arow_i = &panel[(i - ii) * pw..(i - ii + 1) * pw];
                for j in jj..jmax.min(i + 1) {
                    let arow_j = &data[j * ld + p0..j * ld + p1];
                    let s = disp.dot(arow_i, arow_j);
                    data[i * ld + j] -= s;
                }
            }
        }
    }
}

/// Solve `A X = B` in place given the Cholesky factor `L` of `A`: forward
/// then transposed-backward substitution over the `n x q` row-major `x`
/// (see [`crate::solve`] for the per-column chain).
pub fn cholesky_solve_in_place(l: &Matrix, x: &mut [f64], q: usize) {
    solve_lower_in_place(l, l.rows(), x, q);
    solve_lower_transpose_in_place(l, l.rows(), x, q);
}

/// [`cholesky_solve_in_place`] on a copy of one right-hand-side vector.
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    cholesky_solve_in_place(l, &mut x, 1);
    x
}

/// [`cholesky_solve_in_place`] on a copy of a matrix right-hand side.
pub fn cholesky_solve_matrix(l: &Matrix, b: &Matrix) -> Matrix {
    let mut x = b.clone();
    cholesky_solve_in_place(l, x.as_mut_slice(), b.cols());
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::kernel::KernelChoice;
    use crate::norms::relative_error;
    use rand::SeedableRng;

    /// A random well-conditioned SPD matrix: `M M^T + n I`.
    fn spd(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Matrix::random_uniform(n, n, &mut rng);
        let mut a = matmul(&m, &m.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        for disp in [
            KernelDispatch::scalar(),
            KernelDispatch::resolve(KernelChoice::Auto),
        ] {
            for n in [1usize, 5, 63, 64, 65, 130] {
                let a = spd(n, n as u64);
                let l = cholesky(&a, disp).expect("SPD input must factor");
                let back = matmul(&l, &l.transpose());
                let err = relative_error(&back, &a);
                assert!(
                    err < 1e-12,
                    "{}, n = {n}: L L^T != A (err {err})",
                    disp.name()
                );
                // Strict upper triangle must be exactly zero.
                for i in 0..n {
                    for j in (i + 1)..n {
                        assert_eq!(l.get(i, j), 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn solve_matches_true_solution() {
        let n = 40;
        let a = spd(n, 7);
        let x_true = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.1).sin());
        let b = matmul(&a, &x_true);
        let l = cholesky(&a, KernelDispatch::scalar()).unwrap();
        let x = cholesky_solve_matrix(&l, &b);
        assert!(relative_error(&x, &x_true) < 1e-10);
        let bv: Vec<f64> = b.col(0);
        let xv = cholesky_solve(&l, &bv);
        for i in 0..n {
            assert!((xv[i] - x_true.get(i, 0)).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = spd(6, 3);
        a[(4, 4)] = -50.0;
        let err = cholesky(&a, KernelDispatch::scalar()).unwrap_err();
        assert!(err.pivot <= 4);
        assert!(err.value <= 0.0);
    }

    #[test]
    fn empty_matrix_factors_trivially() {
        let a = Matrix::zeros(0, 0);
        let l = cholesky(&a, KernelDispatch::scalar()).unwrap();
        assert_eq!(l.shape(), (0, 0));
    }
}
