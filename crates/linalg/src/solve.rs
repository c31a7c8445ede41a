//! In-place triangular substitution kernels.
//!
//! Everything that substitutes against a triangular factor goes through the
//! three kernels here: the Cholesky solves (`crate::chol`: `L` then `L^T`),
//! the packed-LU solve (`crate::lu`: unit `L` then `U`) and the
//! interpolative decomposition's `R11^{-1} R12` (`crate::id`).  Through
//! those their callers are the factorizations — `matrox-factor`'s
//! `E_i = D_i^{-1} U_i` and `T_p = M_p^{-1} R~_p`, the dense Cholesky
//! baseline — and the ID, not the ULV sweeps: the solve applies the
//! inverses of `crate::inverse` as products.  Each takes the factor as a
//! [`Matrix`] (only its leading `k x k` triangle is read) and a row-major
//! `k x q` right-hand side slice that it overwrites with the solution; none
//! allocates.
//!
//! # The per-column chain
//!
//! Entry `(i, c)` of every solution is produced by one fixed operation
//! chain: start from `b[i][c]`, subtract `t[i][j] * x[j][c]` for ascending
//! `j` over the row's off-diagonal entries (skipping exact zeros of the
//! factor), divide once by the diagonal.  No other column takes part, so a
//! column's result is **bitwise independent** of `q` and of its position in
//! the panel, so a factor's `E_i` / `T_p` do not depend on how many columns
//! the basis has.  Forward substitution
//! interleaves `ROW_BLOCK` (4) rows over the already-final prefix (independent
//! chains, each still ascending in `j`); the backward kernels cannot, because
//! a row's chain *starts* with the last entry to become final.
//!
//! `substitute` calls the `#[inline(always)]` bodies twice, once with the
//! literal width `1`: the single-vector solve then compiles to scalar loops
//! with no per-entry row slicing, from the same source and with the same
//! operations as every other width.
//!
//! # One body, every kernel arm
//!
//! [`KernelDispatch::substitute`] runs `substitute` on its arm: the
//! scalar arm calls it, and the SIMD arms compile it once more inside an
//! AVX2 and an AVX-512 `target_feature` function (`kernel/{avx2,avx512}.rs`)
//! so the row loops run at those widths.  Rust never reassociates or
//! contracts, so every arm returns the same bits and the arm moves speed
//! only: the public kernels take [`KernelDispatch::global`].

use crate::kernel::KernelDispatch;
use crate::matrix::Matrix;

/// Rows the forward kernels advance in lockstep over the final prefix: at
/// `q = 1` a single row is one serial chain of dependent subtractions, four
/// rows are four independent ones.
const ROW_BLOCK: usize = 4;

/// `xi[c] -= t * xj[c]` over one row.
#[inline(always)]
fn row_sub(xi: &mut [f64], t: f64, xj: &[f64]) {
    for (a, b) in xi.iter_mut().zip(xj) {
        *a -= t * *b;
    }
}

/// `xi[c] /= d` over one row, refusing an exactly singular diagonal.
#[inline(always)]
fn row_div(xi: &mut [f64], d: f64, i: usize) {
    assert!(d != 0.0, "triangular solve: singular diagonal at {i}");
    for a in xi {
        *a /= d;
    }
}

fn check_shapes(t: &Matrix, k: usize, x: &[f64], q: usize) {
    assert!(t.rows() >= k && t.cols() >= k, "solve: factor too small");
    assert_eq!(x.len(), k * q, "solve: right-hand side is not k x q");
}

/// Forward substitution with the leading `k x k` lower triangle of `l`;
/// `UNIT` takes the diagonal as ones (the packed-LU `L`).
#[inline(always)]
fn forward<const UNIT: bool>(l: &Matrix, k: usize, x: &mut [f64], q: usize) {
    for i0 in (0..k).step_by(ROW_BLOCK) {
        let rows = ROW_BLOCK.min(k - i0);
        let (done, rest) = x.split_at_mut(i0 * q);
        let block = &mut rest[..rows * q];
        let lrows: [&[f64]; ROW_BLOCK] = std::array::from_fn(|r| &l.row(i0 + r % rows)[..i0]);
        for (j, xj) in done.chunks_exact(q.max(1)).enumerate() {
            for (xr, lrow) in block.chunks_exact_mut(q.max(1)).zip(&lrows) {
                if lrow[j] != 0.0 {
                    row_sub(xr, lrow[j], xj);
                }
            }
        }
        for r in 0..rows {
            let (head, tail) = block.split_at_mut(r * q);
            let (xr, lrow) = (&mut tail[..q], &l.row(i0 + r)[i0..]);
            for (jr, xj) in head.chunks_exact(q.max(1)).enumerate() {
                if lrow[jr] != 0.0 {
                    row_sub(xr, lrow[jr], xj);
                }
            }
            if !UNIT {
                row_div(xr, lrow[r], i0 + r);
            }
        }
    }
}

/// Which triangle a substitution solves against
/// ([`KernelDispatch::substitute`]); only the leading `k x k` triangle of
/// the factor is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substitution {
    /// `L X = B`, `L` the lower triangle.
    Lower,
    /// `L X = B` with the diagonal taken as ones: the forward half of a
    /// packed-LU solve (the stored diagonal belongs to `U`).
    UnitLower,
    /// `L^T X = B` against the *stored lower* factor (the backward half of
    /// a Cholesky solve, without materializing the transpose).
    LowerTranspose,
    /// `U X = B`, `U` the upper triangle (in a packed LU the strict lower
    /// part holds `L` and is never read).
    Upper,
}

/// The body under every substitution: solve `kind` against the leading
/// `k x k` triangle of `t` in place, `x` the row-major `k x q` right-hand
/// side on entry and the solution on return.  Inlined into each kernel
/// arm's instance (see the module docs).
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
#[inline(always)]
pub(crate) fn substitute(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    check_shapes(t, k, x, q);
    if q == 1 {
        by_kind(kind, t, k, x, 1);
    } else {
        by_kind(kind, t, k, x, q);
    }
}

#[inline(always)]
fn by_kind(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    match kind {
        Substitution::Lower => forward::<false>(t, k, x, q),
        Substitution::UnitLower => forward::<true>(t, k, x, q),
        Substitution::LowerTranspose => backward_transpose(t, k, x, q),
        Substitution::Upper => backward(t, k, x, q),
    }
}

/// Solve `L X = B` in place, `L` the leading `k x k` lower triangle of `l`
/// (the strict upper part is never read): `x` holds `B` on entry and `X` on
/// return.  See the module docs for the per-column chain.
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
pub fn solve_lower_in_place(l: &Matrix, k: usize, x: &mut [f64], q: usize) {
    KernelDispatch::global().substitute(Substitution::Lower, l, k, x, q);
}

/// [`solve_lower_in_place`] with an implied unit diagonal: the forward half
/// of a packed-LU solve (the stored diagonal belongs to `U`).
pub(crate) fn solve_unit_lower_in_place(l: &Matrix, k: usize, x: &mut [f64], q: usize) {
    KernelDispatch::global().substitute(Substitution::UnitLower, l, k, x, q);
}

/// Solve `L^T X = B` in place against the *stored lower* factor (the
/// backward half of a Cholesky solve, without materializing the transpose).
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
pub fn solve_lower_transpose_in_place(l: &Matrix, k: usize, x: &mut [f64], q: usize) {
    KernelDispatch::global().substitute(Substitution::LowerTranspose, l, k, x, q);
}

/// Solve `U X = B` in place, `U` the leading `k x k` upper triangle of `u`
/// (the strict lower part is never read — in a packed LU it holds `L`).
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
pub fn solve_upper_in_place(u: &Matrix, k: usize, x: &mut [f64], q: usize) {
    KernelDispatch::global().substitute(Substitution::Upper, u, k, x, q);
}

#[inline(always)]
fn backward_transpose(l: &Matrix, k: usize, x: &mut [f64], q: usize) {
    for i in (0..k).rev() {
        let (head, below) = x.split_at_mut((i + 1) * q);
        let xi = &mut head[i * q..];
        for (dj, xj) in below.chunks_exact(q.max(1)).enumerate() {
            // (L^T)[i, j] = L[j, i]
            let lji = l.row(i + 1 + dj)[i];
            if lji != 0.0 {
                row_sub(xi, lji, xj);
            }
        }
        row_div(xi, l.row(i)[i], i);
    }
}

#[inline(always)]
fn backward(u: &Matrix, k: usize, x: &mut [f64], q: usize) {
    for i in (0..k).rev() {
        let (head, below) = x.split_at_mut((i + 1) * q);
        let (xi, urow) = (&mut head[i * q..], &u.row(i)[..k]);
        for (uij, xj) in urow[i + 1..].iter().zip(below.chunks_exact(q.max(1))) {
            if *uij != 0.0 {
                row_sub(xi, *uij, xj);
            }
        }
        row_div(xi, urow[i], i);
    }
}

/// Test support for the kernels' bitwise contract, shared with `crate::lu`.
#[cfg(test)]
pub(crate) mod testing {
    use super::Matrix;

    /// The sizes and panel widths every in-place kernel is pinned on.
    pub(crate) const SIZES: [usize; 6] = [1, 2, 63, 64, 65, 130];
    pub(crate) const WIDTHS: [usize; 2] = [1, 5];

    /// A well-conditioned random lower-triangular matrix with a sprinkling
    /// of exact zeros below the diagonal (the zero-skip is part of the
    /// chain).
    pub(crate) fn lower(n: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, n, |i, j| {
            if j == i {
                rng.gen_range(1.0..2.0)
            } else if j < i && (i * 7 + j * 3) % 11 != 0 {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        })
    }

    pub(crate) fn rhs(n: usize, q: usize, seed: u64) -> Matrix {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb5);
        Matrix::random_uniform(n, q, &mut rng)
    }

    /// The textbook chain on one column: rows in `order`, row `i` taking
    /// `t(i, j) * x[j]` off for ascending `j` in `cols(i)`, skipping exact
    /// zeros, then one division by `diag(i)` (`None`: unit diagonal).
    pub(crate) fn reference_column(
        n: usize,
        order: impl Iterator<Item = usize>,
        cols: impl Fn(usize) -> std::ops::Range<usize>,
        t: impl Fn(usize, usize) -> f64,
        diag: impl Fn(usize) -> Option<f64>,
        b: &[f64],
    ) -> Vec<f64> {
        assert_eq!(b.len(), n);
        let mut x = b.to_vec();
        for i in order {
            let mut acc = x[i];
            for j in cols(i) {
                let tij = t(i, j);
                if tij == 0.0 {
                    continue;
                }
                acc -= tij * x[j];
            }
            x[i] = match diag(i) {
                Some(d) => acc / d,
                None => acc,
            };
        }
        x
    }

    /// `solved[:, c]` must equal `reference(b[:, c])` to the bit, for every
    /// column.
    pub(crate) fn assert_columns_bitwise(
        solved: &Matrix,
        b: &Matrix,
        reference: impl Fn(&[f64]) -> Vec<f64>,
        what: &str,
    ) {
        for c in 0..b.cols() {
            let want = reference(&b.col(c));
            let got = solved.col(c);
            let same = want
                .iter()
                .zip(&got)
                .all(|(w, g)| w.to_bits() == g.to_bits());
            assert!(
                same,
                "{what}: column {c} of {} differs from the per-column reference (n = {})",
                b.cols(),
                b.rows()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use crate::gemm::matmul;
    use crate::kernel::KernelChoice;
    use crate::norms::relative_error;

    /// Every arm this host runs: scalar, the 256-bit arm and the widest one
    /// (`Avx2` degrades to scalar without the features, and `Auto` is `Avx2`
    /// without AVX-512).
    fn arms() -> Vec<KernelDispatch> {
        let mut arms = vec![
            KernelDispatch::scalar(),
            KernelDispatch::resolve(KernelChoice::Avx2),
            KernelDispatch::resolve(KernelChoice::Auto),
        ];
        arms.dedup();
        arms
    }

    /// `kind` on every arm against the per-column chain, at size `n` and
    /// width `q` (`seed` picks the factor).
    fn assert_chain_on_every_arm(kind: Substitution, n: usize, q: usize, seed: u64) {
        let l = lower(n, seed);
        let (t, diag_unit) = match kind {
            Substitution::Upper => (l.transpose(), false),
            Substitution::UnitLower => (l, true),
            _ => (l, false),
        };
        let b = rhs(n, q, seed ^ 0x45);
        let reference = |col: &[f64]| match kind {
            Substitution::Lower | Substitution::UnitLower => reference_column(
                n,
                0..n,
                |i| 0..i,
                |i, j| t.get(i, j),
                |i| (!diag_unit).then(|| t.get(i, i)),
                col,
            ),
            Substitution::LowerTranspose => reference_column(
                n,
                (0..n).rev(),
                |i| i + 1..n,
                |i, j| t.get(j, i),
                |i| Some(t.get(i, i)),
                col,
            ),
            Substitution::Upper => reference_column(
                n,
                (0..n).rev(),
                |i| i + 1..n,
                |i, j| t.get(i, j),
                |i| Some(t.get(i, i)),
                col,
            ),
        };
        for disp in arms() {
            let mut x = b.clone();
            disp.substitute(kind, &t, n, x.as_mut_slice(), q);
            let what = format!("{kind:?} on the {} arm", disp.name());
            assert_columns_bitwise(&x, &b, reference, &what);
        }
    }

    #[test]
    fn lower_solve_is_the_per_column_chain_bitwise() {
        for n in SIZES {
            for q in WIDTHS {
                assert_chain_on_every_arm(Substitution::Lower, n, q, n as u64);
                assert_chain_on_every_arm(Substitution::UnitLower, n, q, n as u64);
            }
        }
    }

    #[test]
    fn lower_transpose_solve_is_the_per_column_chain_bitwise() {
        for n in SIZES {
            for q in WIDTHS {
                assert_chain_on_every_arm(Substitution::LowerTranspose, n, q, 40 + n as u64);
            }
        }
    }

    #[test]
    fn upper_solve_is_the_per_column_chain_bitwise() {
        for n in SIZES {
            for q in WIDTHS {
                assert_chain_on_every_arm(Substitution::Upper, n, q, 80 + n as u64);
            }
        }
    }

    /// The four substitutions on every arm against the per-column chain at
    /// the sizes the factor and the ID solve (merges up to 2 x 160, ranks
    /// up to 256) and at every width 1..=17 around the vector lengths, plus
    /// the ID's 64- to 320-column panels.  Release only (`chain_oracle`, the
    /// CI step that runs the GEMM and distance sweeps).
    #[test]
    #[ignore = "exhaustive; run in release"]
    fn substitution_chain_oracle_sweep() {
        let kinds = [
            Substitution::Lower,
            Substitution::UnitLower,
            Substitution::LowerTranspose,
            Substitution::Upper,
        ];
        for n in [3, 4, 5, 7, 8, 9, 31, 32, 33, 96, 160, 257, 320] {
            for q in (1..=17).chain([48, 64, 160, 320]) {
                for (i, kind) in kinds.into_iter().enumerate() {
                    assert_chain_on_every_arm(kind, n, q, (n * 31 + q * 7 + i) as u64);
                }
            }
        }
    }

    #[test]
    fn solves_invert_their_products() {
        let l = lower(12, 5);
        let x_true = rhs(12, 3, 9);
        let mut x = matmul(&l, &x_true);
        solve_lower_in_place(&l, 12, x.as_mut_slice(), 3);
        assert!(relative_error(&x, &x_true) < 1e-10);
        let mut x = matmul(&l.transpose(), &x_true);
        solve_lower_transpose_in_place(&l, 12, x.as_mut_slice(), 3);
        assert!(relative_error(&x, &x_true) < 1e-10);
        let mut x = matmul(&l.transpose(), &x_true);
        solve_upper_in_place(&l.transpose(), 12, x.as_mut_slice(), 3);
        assert!(relative_error(&x, &x_true) < 1e-10);
    }

    #[test]
    fn only_the_leading_block_is_read() {
        // The ID hands the whole `R` factor and solves against its leading
        // `k x k` triangle; the rest of the matrix must not matter.
        let (n, k, q) = (9, 4, 2);
        let u = lower(n, 6).transpose();
        let b = rhs(k, q, 4);
        let mut x = b.clone();
        solve_upper_in_place(&u, k, x.as_mut_slice(), q);
        let mut x_sub = b.clone();
        solve_upper_in_place(&u.submatrix(0, k, 0, k), k, x_sub.as_mut_slice(), q);
        assert_eq!(x.as_slice(), x_sub.as_slice());
    }

    #[test]
    #[should_panic(expected = "singular diagonal at 2")]
    fn singular_diagonal_panics() {
        let mut u = lower(4, 3).transpose();
        u.set(2, 2, 0.0);
        solve_upper_in_place(&u, 4, &mut [1.0, 2.0, 3.0, 4.0], 1);
    }

    #[test]
    fn empty_systems_and_empty_panels_are_no_ops() {
        let empty = Matrix::zeros(0, 0);
        solve_lower_in_place(&empty, 0, &mut [], 3);
        solve_lower_transpose_in_place(&empty, 0, &mut [], 3);
        solve_upper_in_place(&empty, 0, &mut [], 3);
        let l = lower(5, 1);
        solve_lower_in_place(&l, 5, &mut [], 0);
        solve_unit_lower_in_place(&l, 5, &mut [], 0);
        solve_lower_transpose_in_place(&l, 5, &mut [], 0);
        solve_upper_in_place(&l.transpose(), 5, &mut [], 0);
    }
}
