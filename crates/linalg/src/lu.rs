//! Dense LU factorization with partial pivoting.
//!
//! The ULV-style HSS factorization reduces every sibling merge to a small
//! `(k_l + k_r)`-square system `[I, G_l B_lr; G_r B_rl, I]` coupling the two
//! children's skeleton coefficients.  That system is square and well
//! conditioned for SPD inputs but *not* symmetric, so it is factored once
//! here (LAPACK `dgetrf`/`dgetrs` territory), solved against for the
//! factor's `T_p`, and inverted ([`crate::lu_inverse`]) for the upward
//! sweeps.  Sizes are bounded by twice the maximum srank (2 x 256 in the
//! paper's configuration), so an unblocked kernel is sufficient.

use crate::kernel::KernelDispatch;
use crate::matrix::Matrix;
use crate::solve::{solve_unit_lower_in_place, solve_upper_in_place};

/// Error returned when elimination finds no usable pivot: the matrix is
/// exactly (or numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingularMatrix {
    /// Column at which elimination broke down.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}
impl std::error::Error for SingularMatrix {}

/// Packed LU factorization `P A = L U` (unit lower `L` and upper `U` share
/// one matrix, LAPACK-style; `piv[k]` is the row swapped with row `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactors {
    /// `L` (strict lower, unit diagonal implied) and `U` (upper) packed.
    pub lu: Matrix,
    /// Row interchanges: at step `k`, rows `k` and `piv[k]` were swapped.
    pub piv: Vec<usize>,
}

/// Factor a square matrix with partial pivoting; the trailing updates run
/// on `disp`.
///
/// # Panics
/// Panics if `a` is not square.
pub fn lu_factor(a: &Matrix, disp: KernelDispatch) -> Result<LuFactors, SingularMatrix> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "lu_factor: matrix must be square");
    let mut lu = a.clone();
    let mut piv = Vec::with_capacity(n);
    let data = lu.as_mut_slice();
    for k in 0..n {
        // Partial pivot: the largest magnitude in column k at or below row k.
        let mut p = k;
        let mut best = data[k * n + k].abs();
        for i in (k + 1)..n {
            let v = data[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 || !best.is_finite() {
            return Err(SingularMatrix { column: k });
        }
        piv.push(p);
        if p != k {
            for j in 0..n {
                data.swap(k * n + j, p * n + j);
            }
        }
        let pivot = data[k * n + k];
        // Rank-1 trailing update, one dispatched axpy per row below the
        // pivot (rows `k` and `i > k` are disjoint, so split the buffer).
        let (head, tail) = data.split_at_mut((k + 1) * n);
        let krow = &head[k * n + k + 1..k * n + n];
        for irow in tail.chunks_exact_mut(n) {
            let lik = irow[k] / pivot;
            irow[k] = lik;
            if lik == 0.0 {
                continue;
            }
            disp.axpy(-lik, krow, &mut irow[k + 1..n]);
        }
    }
    Ok(LuFactors { lu, piv })
}

/// Solve `A X = B` in place from the packed factors: `x` holds the `n x q`
/// row-major `B` on entry and `X` on return.  Whole rows are interchanged in
/// factorization order, then the unit-lower and upper substitutions of
/// [`crate::solve`] run — so every column follows that module's chain and is
/// bitwise independent of `q`.
///
/// # Panics
/// Panics if `x` is not `n x q`, if a pivot index is out of range, or on an
/// exactly zero pivot (which [`lu_factor`] never produces).
pub fn lu_solve_in_place(f: &LuFactors, x: &mut [f64], q: usize) {
    let n = f.lu.rows();
    assert_eq!(x.len(), n * q, "lu_solve_in_place: dimension mismatch");
    for (k, &p) in f.piv.iter().enumerate() {
        if p != k {
            let (lo, hi) = (k.min(p), k.max(p));
            let (head, tail) = x.split_at_mut(hi * q);
            head[lo * q..(lo + 1) * q].swap_with_slice(&mut tail[..q]);
        }
    }
    solve_unit_lower_in_place(&f.lu, n, x, q);
    solve_upper_in_place(&f.lu, n, x, q);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::kernel::KernelChoice;
    use crate::norms::relative_error;
    use crate::solve::testing::*;
    use rand::SeedableRng;

    #[test]
    fn solve_recovers_true_solution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [1usize, 2, 7, 20] {
            let mut a = Matrix::random_uniform(n, n, &mut rng);
            for i in 0..n {
                a[(i, i)] += 3.0; // keep comfortably nonsingular
            }
            let x_true = Matrix::from_fn(n, 3, |i, j| ((i + 2 * j) as f64 * 0.37).cos());
            for disp in [
                KernelDispatch::scalar(),
                KernelDispatch::resolve(KernelChoice::Auto),
            ] {
                let mut x = matmul(&a, &x_true);
                let f = lu_factor(&a, disp).unwrap();
                lu_solve_in_place(&f, x.as_mut_slice(), 3);
                assert!(
                    relative_error(&x, &x_true) < 1e-11,
                    "{}, n = {n}",
                    disp.name()
                );
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let f = lu_factor(&a, KernelDispatch::scalar()).unwrap();
        let mut x = [2.0, 3.0];
        lu_solve_in_place(&f, &mut x, 1);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_an_error() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(lu_factor(&a, KernelDispatch::scalar()).is_err());
    }

    #[test]
    fn empty_system_solves_trivially() {
        let f = lu_factor(&Matrix::zeros(0, 0), KernelDispatch::scalar()).unwrap();
        lu_solve_in_place(&f, &mut [], 4);
    }

    /// Packed factors with hand-set pivots: identity swaps (`piv[k] == k`),
    /// the same row named twice, and a swap pointing backwards — everything
    /// the reader's `piv < n` check lets through.
    fn packed(n: usize) -> LuFactors {
        let l = lower(n, 7 + n as u64);
        let u = lower(n, 70 + n as u64).transpose();
        let lu = Matrix::from_fn(n, n, |i, j| if j < i { l.get(i, j) } else { u.get(i, j) });
        let piv = (0..n)
            .map(|k| match k % 4 {
                0 => k,
                1 => n - 1,
                2 => (k + 3).min(n - 1),
                _ => k / 2,
            })
            .collect();
        LuFactors { lu, piv }
    }

    #[test]
    fn solve_is_the_per_column_chain_bitwise() {
        for n in SIZES {
            let f = packed(n);
            for q in WIDTHS {
                let b = rhs(n, q, 5);
                let mut x = b.clone();
                lu_solve_in_place(&f, x.as_mut_slice(), q);
                let reference = |col: &[f64]| {
                    let mut col = col.to_vec();
                    for (k, &p) in f.piv.iter().enumerate() {
                        col.swap(k, p);
                    }
                    let t = |i, j| f.lu.get(i, j);
                    let y = reference_column(n, 0..n, |i| 0..i, t, |_| None, &col);
                    let d = |i| Some(f.lu.get(i, i));
                    reference_column(n, (0..n).rev(), |i| i + 1..n, t, d, &y)
                };
                assert_columns_bitwise(&x, &b, reference, "LU");
            }
        }
    }
}
