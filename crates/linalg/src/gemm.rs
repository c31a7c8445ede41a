//! Matrix-matrix products.
//!
//! The MatRox executor spends virtually all of its time in small-to-medium
//! dense products (`D_{i,j} * W_j`, `V_i^T * W_i`, `B_{i,j} * T_j`, ...), and
//! the dense baseline of the paper is a single large GEMM.  Every product
//! here is one call of the [`KernelDispatch`] body; this module provides
//! its front-ends:
//!
//! * [`gemm_seq`] — `C = alpha * op(A) * op(B) + beta * C` on the scalar
//!   reference arm.  This is the one entry point pinned to the scalar arm
//!   whatever the process-wide dispatch selected; every dispatched path is
//!   pinned against it in tests.
//! * [`matmul`] — `A * B` as a fresh matrix on the process-wide dispatch,
//!   split over the pool's rows from about a million multiply-adds up.
//! * [`gemm_panel`] / [`gemm_tn_slices`] — the process-wide dispatch on raw
//!   row-major slices, for the executor's, the solver's and the baselines'
//!   flat buffers (`n = 1` is a matrix-vector product).
//!
//! The scalar arm itself is here too: one strided loop that reads `A`
//! as stored or transposed (`scalar_product`).

use crate::kernel::KernelDispatch;
use crate::matrix::Matrix;

/// Whether an operand participates as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

/// Blocking factors of the scalar loop.  Chosen so that one `MC x KC`
/// block of `A` plus a `KC x NC` block of `B` fit comfortably in L2.
const MC: usize = 64;
const KC: usize = 128;
const NC: usize = 256;

/// The scalar arm of [`KernelDispatch::product`] (same operands):
/// `C += op(A) * B`, with `A` read through a (row stride, column stride)
/// pair from offset `i0`, so both forms and every row chunk are one loop.
/// Per output element the products accumulate with `p` ascending as one
/// `mul` then one `add`, zero entries of `A` skipped — the exact pre-SIMD
/// behaviour the scalar dispatch arm must preserve.
pub(crate) fn scalar_product(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    // Offset of element (0, 0) of op(A), and its row / column strides.
    let (a00, rs, cs) = if trans_a {
        (i0, 1, lda)
    } else {
        (i0 * lda, lda, 1)
    };
    // Loop ordering i-p-j with blocking keeps B panel reuse high and lets the
    // innermost loop vectorize over contiguous rows of B and C.
    for jj in (0..n).step_by(NC) {
        let jmax = (jj + NC).min(n);
        for pp in (0..k).step_by(KC) {
            let pmax = (pp + KC).min(k);
            for ii in (0..m).step_by(MC) {
                let imax = (ii + MC).min(m);
                for i in ii..imax {
                    let crow = &mut c[i * n..i * n + n];
                    for p in pp..pmax {
                        let aval = a[a00 + i * rs + p * cs];
                        if aval == 0.0 {
                            continue;
                        }
                        let brow = &b[p * n..p * n + n];
                        for j in jj..jmax {
                            crow[j] += aval * brow[j];
                        }
                    }
                }
            }
        }
    }
}

/// Sequential general matrix multiply on the scalar reference kernel:
/// `C = alpha * op(A) * op(B) + beta * C`, bitwise the scalar loop whatever
/// the process-wide dispatch selected.
///
/// # Panics
/// Panics if the operand shapes are incompatible.
pub fn gemm_seq(
    alpha: f64,
    a: &Matrix,
    op_a: GemmOp,
    b: &Matrix,
    op_b: GemmOp,
    beta: f64,
    c: &mut Matrix,
) {
    let scalar = KernelDispatch::scalar();
    matrix_product(alpha, a, op_a, b, op_b, beta, c, scalar, false);
}

/// Size threshold (in multiply-add count) above which [`matmul`] switches
/// from the sequential to the parallel product.  Retuned for the real
/// work-stealing pool: forking costs a deque push, so the crossover sits at
/// ~1M multiply-adds — roughly where one thread's share at 4 threads still
/// dwarfs the handoff cost.
const PAR_FLOP_THRESHOLD: usize = 1 << 20;

/// Convenience helper: `A * B` as a fresh matrix, on the process-wide
/// dispatch (split over the pool's rows from `PAR_FLOP_THRESHOLD`
/// multiply-adds up).
///
/// # Panics
/// Panics if the inner dimensions differ.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    let parallel = a.rows() * a.cols() * b.cols() >= PAR_FLOP_THRESHOLD;
    let disp = KernelDispatch::global();
    matrix_product(
        1.0,
        a,
        GemmOp::NoTrans,
        b,
        GemmOp::NoTrans,
        0.0,
        &mut c,
        disp,
        parallel,
    );
    c
}

/// The one body of [`gemm_seq`] / [`matmul`]: materialize a transposed
/// `B`, apply `alpha` / `beta`, then hand the flat product (`A` as stored,
/// read transposed for `op_a = Trans`) to `disp`, on the calling thread or
/// split over the pool.
fn matrix_product(
    alpha: f64,
    a: &Matrix,
    op_a: GemmOp,
    b: &Matrix,
    op_b: GemmOp,
    beta: f64,
    c: &mut Matrix,
    disp: KernelDispatch,
    parallel: bool,
) {
    let bt;
    let b = match op_b {
        GemmOp::NoTrans => b,
        GemmOp::Trans => {
            bt = b.transpose();
            &bt
        }
    };
    let trans_a = op_a == GemmOp::Trans;
    let (m, k) = if trans_a {
        (a.cols(), a.rows())
    } else {
        a.shape()
    };
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "gemm: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.shape(), (m, n), "gemm: C has wrong shape");

    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    // Scale A once rather than multiplying inside the hot loop.
    let scaled;
    let a = if alpha == 1.0 {
        a
    } else {
        scaled = {
            let mut s = a.clone();
            s.scale(alpha);
            s
        };
        &scaled
    };
    let (a, lda, b, c) = (a.as_slice(), a.cols(), b.as_slice(), c.as_mut_slice());
    if parallel {
        disp.par_product(trans_a, a, lda, m, k, b, n, c);
    } else {
        disp.product(trans_a, a, lda, 0, m, k, b, n, c);
    }
}

/// Raw-slice kernel: `C += A * B` where `A` is `m x k`, `B` is `k x n` and
/// `C` is `m x n`, all row-major and densely packed.
///
/// The executor and the solver operate directly on the flat CDS buffers and
/// on permuted right-hand-side/output buffers, so they need a GEMM that does
/// not require wrapping slices into [`Matrix`] values.  `B` is typically a
/// narrow RHS panel (`n` is the panel width), and panel-by-panel evaluation
/// is **bitwise identical** to full-width evaluation.
///
/// ```
/// let a = [1.0, 2.0, 3.0, 4.0]; // 2 x 2
/// let b = [0.5, -1.0];          // 2 x 1 panel
/// let mut c = [0.0, 0.0];
/// matrox_linalg::gemm_panel(&a, 2, 2, &b, 1, &mut c);
/// assert_eq!(c, [0.5 * 1.0 - 2.0, 0.5 * 3.0 - 4.0]);
/// ```
pub fn gemm_panel(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, c: &mut [f64]) {
    KernelDispatch::global().gemm(a, m, k, b, n, c);
}

/// Raw-slice kernel: `C += A^T * B` where `A` is `k x m` (so `A^T` is
/// `m x k`), `B` is `k x n` and `C` is `m x n`, all row-major.
///
/// This is the upward-pass kernel `T_i = V_i^T * W_i`: `V_i` is stored
/// untransposed in CDS and the transpose is absorbed by the kernel (strided
/// reads of the stored block, or transposing packing when it is too large
/// to read in place), keeping the accesses to `B` and `C` contiguous.
pub fn gemm_tn_slices(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, c: &mut [f64]) {
    KernelDispatch::global().gemm_tn(a, k, m, b, n, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        if a.shape() != b.shape() {
            return false;
        }
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_matches_naive_small() {
        let a = random_matrix(7, 5, 1);
        let b = random_matrix(5, 9, 2);
        let mut c = Matrix::zeros(7, 9);
        gemm_seq(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c);
        assert!(approx_eq(&c, &naive(&a, &b), 1e-12));
    }

    #[test]
    fn gemm_matches_naive_blocked_sizes() {
        let a = random_matrix(130, 140, 3);
        let b = random_matrix(140, 150, 4);
        let mut c = Matrix::zeros(130, 150);
        gemm_seq(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c);
        assert!(approx_eq(&c, &naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_transposed_a() {
        let a = random_matrix(5, 7, 5);
        let b = random_matrix(5, 4, 6);
        let mut c = Matrix::zeros(7, 4);
        gemm_seq(1.0, &a, GemmOp::Trans, &b, GemmOp::NoTrans, 0.0, &mut c);
        assert!(approx_eq(&c, &naive(&a.transpose(), &b), 1e-12));
    }

    #[test]
    fn gemm_transposed_b() {
        let a = random_matrix(6, 7, 7);
        let b = random_matrix(4, 7, 8);
        let mut c = Matrix::zeros(6, 4);
        gemm_seq(1.0, &a, GemmOp::NoTrans, &b, GemmOp::Trans, 0.0, &mut c);
        assert!(approx_eq(&c, &naive(&a, &b.transpose()), 1e-12));
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = random_matrix(4, 4, 9);
        let b = random_matrix(4, 4, 10);
        let mut c = Matrix::filled(4, 4, 1.0);
        gemm_seq(2.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 3.0, &mut c);
        let mut expected = naive(&a, &b);
        expected.scale(2.0);
        let mut three = Matrix::filled(4, 4, 3.0);
        three.add_assign(&expected);
        assert!(approx_eq(&c, &three, 1e-12));

        // beta = 0 makes C output only: `0 * NaN` is NaN, so a NaN-filled C
        // must give exactly what a zeroed one does.
        for op in [GemmOp::NoTrans, GemmOp::Trans] {
            let mut clean = Matrix::zeros(4, 4);
            gemm_seq(2.0, &a, op, &b, GemmOp::NoTrans, 0.0, &mut clean);
            let mut c = Matrix::filled(4, 4, f64::NAN);
            gemm_seq(2.0, &a, op, &b, GemmOp::NoTrans, 0.0, &mut c);
            assert!(
                c.as_slice().iter().all(|v| v.is_finite()),
                "{op:?}: beta = 0 read C"
            );
            assert_eq!(c.as_slice(), clean.as_slice(), "{op:?}");
        }
    }

    #[test]
    fn gemm_panel_matches_matrix_gemm() {
        let a = random_matrix(13, 9, 21);
        let b = random_matrix(9, 7, 22);
        let expected = matmul(&a, &b);
        let mut c = vec![0.0; 13 * 7];
        gemm_panel(a.as_slice(), 13, 9, b.as_slice(), 7, &mut c);
        for (x, y) in c.iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_tn_slices_matches_transposed_gemm() {
        let a = random_matrix(11, 6, 23); // k x m
        let b = random_matrix(11, 5, 24); // k x n
        let expected = matmul(&a.transpose(), &b);
        let mut c = vec![0.0; 6 * 5];
        gemm_tn_slices(a.as_slice(), 11, 6, b.as_slice(), 5, &mut c);
        for (x, y) in c.iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_panel_column_panels_match_full_width() {
        // Computing a wide product panel-by-panel must equal the full-width
        // product bitwise: each output column only ever accumulates over k in
        // storage order, independently of the panel grouping.
        let (m, k, n) = (24usize, 40usize, 19usize);
        let a = random_matrix(m, k, 41);
        let b = random_matrix(k, n, 42);
        let mut full = vec![0.0; m * n];
        gemm_panel(a.as_slice(), m, k, b.as_slice(), n, &mut full);
        for panel in [1usize, 4, 8] {
            let mut out = vec![0.0; m * n];
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + panel).min(n);
                let w = j1 - j0;
                let bp: Vec<f64> = (0..k)
                    .flat_map(|p| b.as_slice()[p * n + j0..p * n + j1].to_vec())
                    .collect();
                let mut cp = vec![0.0; m * w];
                gemm_panel(a.as_slice(), m, k, &bp, w, &mut cp);
                for i in 0..m {
                    out[i * n + j0..i * n + j1].copy_from_slice(&cp[i * w..(i + 1) * w]);
                }
                j0 = j1;
            }
            assert!(
                full.iter()
                    .zip(&out)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "panel width {panel} diverged"
            );
        }
    }

    #[test]
    fn slice_kernels_accumulate() {
        let a = random_matrix(4, 4, 25);
        let b = random_matrix(4, 4, 26);
        let mut c = vec![1.0; 16];
        gemm_panel(a.as_slice(), 4, 4, b.as_slice(), 4, &mut c);
        let mut expected = matmul(&a, &b);
        expected.add_assign(&Matrix::filled(4, 4, 1.0));
        for (x, y) in c.iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_zero_dimensions_are_noops() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert!(matmul(&a, &b).is_empty());
        let (a, b) = (Matrix::zeros(3, 0), Matrix::zeros(0, 4));
        assert_eq!(matmul(&a, &b).as_slice(), Matrix::zeros(3, 4).as_slice());
    }
}
