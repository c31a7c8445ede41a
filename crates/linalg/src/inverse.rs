//! Explicit inverses of factored matrices, built on the products.
//!
//! The ULV solve of `matrox-factor` applies `D_i^{-1}` at every leaf and
//! `M_p^{-1}` at every merge of every sweep.  Applying a stored inverse is
//! one product, which streams at the kernel's rate and interleaves every row;
//! a substitution is a chain of dependent divisions, and its backward half
//! cannot interleave rows at all.  So the factorization forms the inverses
//! once, here, from the factors it already has:
//!
//! * [`cholesky_inverse`]: `A^{-1} = L^{-T} L^{-1}` from `A = L L^T`;
//! * [`lu_inverse`]: `A^{-1} = U^{-1} L^{-1} P` from `P A = L U`.
//!
//! Both follow LAPACK (`trtri`, then `potri` / `getri`) as block
//! substitutions whose `O(n^3)` part is [`KernelDispatch::gemm`] /
//! [`KernelDispatch::gemm_tn`] products on the dispatch the caller passes.
//! A block of `INV_BLOCK` (32) rows takes the product with every row already
//! found off in one product, then one more product with the inverse of its
//! diagonal block, which a short row loop forms.  Inverting whole LU
//! factors this way costs about `n^3` multiply-adds, three times the
//! factorization; [`lu_inverse`] halves that on an HSS merge system.
//!
//! Accuracy is that of the textbook inverse: `‖A X − I‖` is of order
//! `n ε ‖A‖ ‖X‖` (the oracle tests below hold both routines to it).

use crate::kernel::KernelDispatch;
use crate::lu::LuFactors;
use crate::matrix::Matrix;

/// Rows per block of the block substitutions.
const INV_BLOCK: usize = 32;

/// The inverse of the `nb x nb` diagonal block at `j0` of the lower
/// triangle `t` (`t(i, j)` for `j <= i`; `unit`: ones on the diagonal), row
/// by row: `L Z = I` gives `l_ii z_i = e_i - sum_{p<i} l_ip z_p`, and row
/// `p` of `Z` is zero right of its diagonal.
fn diagonal_block_inverse(
    t: &impl Fn(usize, usize) -> f64,
    j0: usize,
    nb: usize,
    unit: bool,
) -> Matrix {
    let mut z = Matrix::zeros(nb, nb);
    for i in 0..nb {
        let (done, rest) = z.as_mut_slice().split_at_mut(i * nb);
        let zi = &mut rest[..=i];
        for (p, zp) in done.chunks_exact(nb).enumerate() {
            let lip = t(j0 + i, j0 + p);
            if lip != 0.0 {
                for (a, b) in zi.iter_mut().zip(&zp[..=p]) {
                    *a -= lip * b;
                }
            }
        }
        let d = if unit { 1.0 } else { t(j0 + i, j0 + i) };
        zi[i] = 1.0;
        for a in zi.iter_mut() {
            *a /= d;
        }
    }
    z
}

/// `W = L^{-1}` for the `n x n` lower triangle `t` (`t(i, j)` is read for
/// `j <= i` only; `unit`: ones on the diagonal), by row blocks from the top:
/// `W_J = Z_J (E_J - L_{J,<J} W_{<J})`, with `Z_J` the inverse of the
/// diagonal block and `E_J` the block's rows of the identity.  Only the
/// columns left of the block's end can be non-zero, so the products run on
/// that part alone, copied out of `W`: `W_{<J}` is zero right of column
/// `j0`.
fn lower_inverse(
    n: usize,
    t: impl Fn(usize, usize) -> f64,
    unit: bool,
    disp: KernelDispatch,
) -> Matrix {
    let mut w = Matrix::zeros(n, n);
    let (mut found, mut prod, mut c) = (Vec::new(), Vec::new(), Vec::new());
    for j0 in (0..n).step_by(INV_BLOCK) {
        let nb = INV_BLOCK.min(n - j0);
        let j1 = j0 + nb;
        // C = E_J - L_{J,<J} W_{<J}, `nb x j1`.
        c.clear();
        c.resize(nb * j1, 0.0);
        if j0 > 0 {
            found.clear();
            for r in 0..j0 {
                found.extend_from_slice(&w.row(r)[..j0]);
            }
            let a = Matrix::from_fn(nb, j0, |i, p| -t(j0 + i, p));
            prod.clear();
            prod.resize(nb * j0, 0.0);
            disp.gemm(a.as_slice(), nb, j0, &found, j0, &mut prod);
            for (ci, pi) in c.chunks_exact_mut(j1).zip(prod.chunks_exact(j0)) {
                ci[..j0].copy_from_slice(pi);
            }
        }
        for i in 0..nb {
            c[i * j1 + j0 + i] = 1.0;
        }
        let z = diagonal_block_inverse(&t, j0, nb, unit);
        prod.clear();
        prod.resize(nb * j1, 0.0);
        disp.gemm(z.as_slice(), nb, nb, &c, j1, &mut prod);
        for (i, row) in prod.chunks_exact(j1).enumerate() {
            w.row_mut(j0 + i)[..j1].copy_from_slice(row);
        }
    }
    w
}

/// `A^{-1} = L^{-T} L^{-1}` from the Cholesky factor `L` of an SPD `A`
/// (only its lower triangle is read), its products on `disp`: `L^{-1}`,
/// then one product `W^T W`.  Entry `(i, j)` and `(j, i)` take the same
/// products in the same order, and every diagonal entry is a sum of
/// squares, so it is positive.
///
/// # Panics
/// Panics if `l` is not square.
pub fn cholesky_inverse(l: &Matrix, disp: KernelDispatch) -> Matrix {
    let n = l.rows();
    assert_eq!(n, l.cols(), "cholesky_inverse: factor must be square");
    let w = lower_inverse(n, |i, j| l.get(i, j), false, disp);
    let mut x = Matrix::zeros(n, n);
    disp.gemm_tn(w.as_slice(), n, n, w.as_slice(), n, x.as_mut_slice());
    x
}

/// `U^{-1} L^{-1}` for the unit lower `L` and upper `U` packed in the
/// trailing block `lu[s.., s..]`: LAPACK `getri`'s order, transposed to suit
/// row-major storage.  `X = U^{-1} L^{-1}` solves `X L = U^{-1}`, so
/// `Y = X^T` solves the unit upper system `L^T Y = (U^T)^{-1}`, whose
/// right-hand side is the inverse of a lower triangle.  `Y` is found by row
/// blocks from the bottom: each takes the product with the rows already
/// found off in one [`KernelDispatch::gemm_tn`], then one product with the
/// inverse of its diagonal block; `X` is read out of it in tiles.
fn factors_inverse(lu: &Matrix, s: usize, disp: KernelDispatch) -> Matrix {
    let n = lu.rows() - s;
    let mut y = lower_inverse(n, |i, j| lu.get(s + j, s + i), false, disp);
    let mut c = vec![0.0; INV_BLOCK.min(n) * n];
    let unit_lower = |i: usize, j: usize| lu.get(s + i, s + j);
    for j0 in (0..n).step_by(INV_BLOCK).rev() {
        let nb = INV_BLOCK.min(n - j0);
        let (j1, c) = (j0 + nb, &mut c[..nb * n]);
        let (head, below) = y.as_mut_slice().split_at_mut(j1 * n);
        let block = &mut head[j0 * n..];
        // C = Y_J - L_{>J,J}^T Y_{>J}, then Y_J = L_JJ^{-T} C.
        c.copy_from_slice(block);
        if j1 < n {
            let a = Matrix::from_fn(n - j1, nb, |i, j| -unit_lower(j1 + i, j0 + j));
            disp.gemm_tn(a.as_slice(), n - j1, nb, below, n, c);
        }
        let z = diagonal_block_inverse(&unit_lower, j0, nb, true);
        block.fill(0.0);
        disp.gemm_tn(z.as_slice(), nb, nb, c, n, block);
    }
    let mut x = Matrix::zeros(n, n);
    for i0 in (0..n).step_by(INV_BLOCK) {
        let i1 = (i0 + INV_BLOCK).min(n);
        for col in 0..n {
            for (i, &v) in (i0..i1).zip(&y.row(col)[i0..i1]) {
                x.set(i, col, v);
            }
        }
    }
    x
}

/// `A^{-1} = U^{-1} L^{-1} P` from the packed factors of `P A = L U`, its
/// products on `disp`.
///
/// The factors of an HSS merge system `[I, X; Y, I]` begin with an identity
/// block as long as no row interchange reaches into it (in the `sci_solve`
/// model none does): with `s` the order of the leading block of the packed
/// factors that is the identity, and whose steps interchanged no rows,
/// `L = [I, 0; L21, L22]`, `U = [I, U12; 0, U22]` and `P = diag(I, P2)`, so
/// with `Q = U22^{-1} L22^{-1}`
///
/// `A^{-1} = [I + U12 Q L21, -U12 Q; -Q L21, Q] diag(I, P2)`:
///
/// about half the work of inverting the whole factors when `s` is half the
/// order, and exactly that inversion when `s` is zero.  The row
/// interchanges come back as column interchanges, in reverse order.
///
/// # Panics
/// Panics if the packed factor is not square or a pivot index is out of
/// range.
pub fn lu_inverse(f: &LuFactors, disp: KernelDispatch) -> Matrix {
    let (n, lu) = (f.lu.rows(), &f.lu);
    assert_eq!(n, lu.cols(), "lu_inverse: factor must be square");
    let s = (0..n)
        .take_while(|&k| {
            f.piv[k] == k
                && lu.get(k, k) == 1.0
                && (0..k).all(|j| lu.get(k, j) == 0.0 && lu.get(j, k) == 0.0)
        })
        .count();
    let q = factors_inverse(lu, s, disp);
    let r = n - s;
    let mut x = Matrix::identity(n);
    if s > 0 {
        let u12 = lu.submatrix(0, s, s, n);
        let l21 = lu.submatrix(s, n, 0, s);
        let mut uq = Matrix::zeros(s, r);
        disp.gemm(u12.as_slice(), s, r, q.as_slice(), r, uq.as_mut_slice());
        let mut ql = Matrix::zeros(r, s);
        disp.gemm(q.as_slice(), r, r, l21.as_slice(), s, ql.as_mut_slice());
        let mut top_left = Matrix::identity(s);
        disp.gemm(
            uq.as_slice(),
            s,
            r,
            l21.as_slice(),
            s,
            top_left.as_mut_slice(),
        );
        for i in 0..s {
            x.row_mut(i)[..s].copy_from_slice(top_left.row(i));
            for (xv, &v) in x.row_mut(i)[s..].iter_mut().zip(uq.row(i)) {
                *xv = -v;
            }
        }
        for i in 0..r {
            for (xv, &v) in x.row_mut(s + i)[..s].iter_mut().zip(ql.row(i)) {
                *xv = -v;
            }
        }
    }
    for i in 0..r {
        x.row_mut(s + i)[s..].copy_from_slice(q.row(i));
    }
    // Column `c` of `X P` is column `order[c]` of `X`.
    let mut order: Vec<usize> = (0..n).collect();
    for (k, &p) in f.piv.iter().enumerate().rev() {
        order.swap(k, p);
    }
    if order.iter().enumerate().any(|(c, &o)| c != o) {
        let mut row = vec![0.0; n];
        for i in 0..n {
            let xi = x.row_mut(i);
            for (v, &o) in row.iter_mut().zip(&order) {
                *v = xi[o];
            }
            xi.copy_from_slice(&row);
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::cholesky;
    use crate::kernel::KernelChoice;
    use crate::lu::lu_factor;
    use crate::solve::testing::SIZES;
    use rand::SeedableRng;

    /// Every size the oracle runs at: the in-place kernels' sizes, the
    /// largest merge system of the `sci_solve` model (316), and the sizes
    /// around one and two blocks of the block substitutions.
    fn sizes() -> Vec<usize> {
        let base = [
            INV_BLOCK - 1,
            INV_BLOCK,
            INV_BLOCK + 1,
            2 * INV_BLOCK + 1,
            316,
        ];
        SIZES.iter().copied().chain(base).collect()
    }

    fn arms() -> [KernelDispatch; 2] {
        [
            KernelDispatch::scalar(),
            KernelDispatch::resolve(KernelChoice::Auto),
        ]
    }

    /// Max-row-sum norm.
    fn norm_inf(a: &Matrix) -> f64 {
        (0..a.rows())
            .map(|i| a.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `‖A X − I‖ ≤ c n ε ‖A‖ ‖X‖` in the max-row-sum norm, the residual
    /// bound of a backward-stable inverse (Higham, ch. 14), with `c = 4`.
    fn assert_inverse(a: &Matrix, x: &Matrix, what: &str) {
        let n = a.rows();
        let mut r = Matrix::zeros(n, n);
        crate::gemm::gemm_seq(
            1.0,
            a,
            crate::GemmOp::NoTrans,
            x,
            crate::GemmOp::NoTrans,
            0.0,
            &mut r,
        );
        for i in 0..n {
            r[(i, i)] -= 1.0;
        }
        let bound = 4.0 * n as f64 * f64::EPSILON * norm_inf(a) * norm_inf(x);
        let resid = norm_inf(&r);
        assert!(
            resid <= bound,
            "{what}, n = {n}: ‖A X − I‖ = {resid:.3e} exceeds {bound:.3e}"
        );
    }

    /// A random SPD matrix `M M^T + n I`.
    fn spd(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = Matrix::random_uniform(n, n, &mut rng);
        let mut a = crate::gemm::matmul(&m, &m.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn cholesky_inverse_inverts() {
        for disp in arms() {
            for n in sizes() {
                let a = spd(n, n as u64);
                let l = cholesky(&a, disp).expect("SPD input must factor");
                let x = cholesky_inverse(&l, disp);
                assert_inverse(&a, &x, &format!("cholesky_inverse on {}", disp.name()));
                for i in 0..n {
                    assert!(x.get(i, i) > 0.0, "diagonal entry {i} is not positive");
                    for j in 0..i {
                        assert_eq!(x.get(i, j).to_bits(), x.get(j, i).to_bits());
                    }
                }
            }
        }
    }

    /// A nonsymmetric matrix whose largest entry of every column lies below
    /// the diagonal, so every step of the factorization swaps rows.
    fn pivoting(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Matrix::random_uniform(n, n, &mut rng);
        for j in 0..n {
            a[((j + 1) % n, j)] += 4.0 * n as f64;
        }
        a
    }

    #[test]
    fn lu_inverse_inverts() {
        for disp in arms() {
            for n in sizes() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
                let mut a = Matrix::random_uniform(n, n, &mut rng);
                for i in 0..n {
                    a[(i, i)] += 2.0;
                }
                let f = lu_factor(&a, disp).expect("nonsingular");
                let what = format!("lu_inverse on {}", disp.name());
                assert_inverse(&a, &lu_inverse(&f, disp), &what);

                let a = pivoting(n, 3 + n as u64);
                let f = lu_factor(&a, disp).expect("nonsingular");
                if n > 1 {
                    let swaps = f.piv.iter().enumerate().filter(|&(k, &p)| p != k).count();
                    assert!(swaps >= n - 1, "n = {n}: only {swaps} row swaps");
                }
                assert_inverse(&a, &lu_inverse(&f, disp), &format!("{what}, pivoted"));

                let a = merge_shaped(n, 5 + n as u64);
                let f = lu_factor(&a, disp).expect("nonsingular");
                let h = n / 2;
                assert!(f.piv[..h].iter().enumerate().all(|(k, &p)| p == k));
                if n - h > 1 {
                    assert!(f.piv[h..].iter().zip(h..).any(|(&p, k)| p != k));
                }
                assert_inverse(&a, &lu_inverse(&f, disp), &format!("{what}, merge-shaped"));

                let a = Matrix::identity(n);
                let f = lu_factor(&a, disp).expect("nonsingular");
                assert_eq!(lu_inverse(&f, disp), a, "{what}, identity");
            }
        }
    }

    /// `[I, X; Y, D]` split at `h = n / 2`, shaped like an HSS merge system:
    /// `Y` small, so the first `h` steps of the factorization interchange no
    /// rows and leave an identity block, and `D` with its largest entries
    /// below the diagonal, so the steps after them do.
    fn merge_shaped(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = Matrix::random_uniform(n, n, &mut rng);
        let (h, big) = (n / 2, 4.0 * n as f64);
        Matrix::from_fn(n, n, |i, j| match (i < h, j < h) {
            (true, true) => f64::from(u8::from(i == j)),
            (true, false) => 0.5 * r.get(i, j),
            (false, true) => 0.1 * r.get(i, j),
            (false, false) if i == h + (j - h + 1) % (n - h) => big + r.get(i, j),
            (false, false) => r.get(i, j),
        })
    }

    #[test]
    fn empty_factors_invert_to_empty() {
        let disp = KernelDispatch::scalar();
        assert_eq!(cholesky_inverse(&Matrix::zeros(0, 0), disp).shape(), (0, 0));
        let f = lu_factor(&Matrix::zeros(0, 0), disp).unwrap();
        assert_eq!(lu_inverse(&f, disp).shape(), (0, 0));
    }
}
