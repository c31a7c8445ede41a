//! Matrix-matrix and matrix-vector products.
//!
//! The MatRox executor spends virtually all of its time in small-to-medium
//! dense products (`D_{i,j} * W_j`, `V_i^T * W_i`, `B_{i,j} * T_j`, ...), and
//! the dense baseline of the paper is a single large GEMM.  This module
//! provides:
//!
//! * [`gemm_seq`] — the cache-blocked *scalar reference* kernel.  This is
//!   the one entry point pinned to the scalar arm whatever the process-wide
//!   dispatch selected; every dispatched path is pinned against it in tests.
//! * [`par_gemm`] — a rayon-parallel kernel that splits the rows of `C`; used
//!   for the peeled root iteration ("low-level" lowering in the paper) and the
//!   dense GEMM baseline.
//! * [`gemm`] — dispatching front-end that picks the sequential or parallel
//!   kernel based on the problem size.
//! * [`gemv`] — matrix-vector product for the SMASH-style (Q = 1) baseline.
//! * [`gemm_panel`] / [`gemm_tn_slices`] — the same dispatched kernel on raw
//!   row-major slices, for the executor's and the solver's flat buffers.
//!
//! Except for [`gemm_seq`], every kernel here runs the
//! process-wide [`KernelDispatch`] — the
//! AVX2 microkernel when the host supports it (see
//! [`crate::kernel`]), the historic scalar loops otherwise or under
//! `MATROX_KERNEL=scalar`.

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

/// Blocking factors for the sequential micro-kernel.  Chosen so that one
/// `MC x KC` panel of `A` plus a `KC x NC` panel of `B` fit comfortably in L2.
const MC: usize = 64;
const KC: usize = 128;
const NC: usize = 256;

/// `C += A[i0..i1, :] * B` for the row range `[i0, i1)` of `A`/`C`.
///
/// `a`, `b`, `c` are row-major buffers with the given leading dimensions.
/// This is the scalar kernel: per output element the products accumulate in
/// storage order as `mul` + `add` with zero operands skipped — the exact
/// pre-SIMD behaviour the scalar dispatch arm must preserve.
pub(crate) fn gemm_block(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // Loop ordering i-p-j with blocking keeps B panel reuse high and lets the
    // innermost loop vectorize over contiguous rows of B and C.
    for jj in (0..n).step_by(NC) {
        let jmax = (jj + NC).min(n);
        for pp in (0..k).step_by(KC) {
            let pmax = (pp + KC).min(k);
            for ii in (0..m).step_by(MC) {
                let imax = (ii + MC).min(m);
                for i in ii..imax {
                    let arow = &a[i * lda..i * lda + k];
                    let crow = &mut c[i * ldc..i * ldc + n];
                    for p in pp..pmax {
                        let aval = arow[p];
                        if aval == 0.0 {
                            continue;
                        }
                        let brow = &b[p * ldb..p * ldb + n];
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
/// `C = alpha * op(A) * op(B) + beta * C`, bitwise the scalar loops whatever
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
    gemm_matrix_dispatch(alpha, a, op_a, b, op_b, beta, c, scalar, false);
}

/// Rayon-parallel GEMM: `C = alpha * op(A) * op(B) + beta * C`.
///
/// The rows of `C` are split across the current rayon thread pool and each
/// chunk runs the process-wide dispatched kernel.  This is the kernel used
/// for the peeled root iteration of the coarsened loop (the paper's
/// "low-level" specialization exploits block-level parallelism near the
/// tree root where task-level parallelism runs out) and for the dense GEMM
/// baseline.
pub fn par_gemm(
    alpha: f64,
    a: &Matrix,
    op_a: GemmOp,
    b: &Matrix,
    op_b: GemmOp,
    beta: f64,
    c: &mut Matrix,
) {
    let disp = KernelDispatch::global();
    gemm_matrix_dispatch(alpha, a, op_a, b, op_b, beta, c, disp, true);
}

/// The one front-end of [`gemm_seq`] / [`gemm`] / [`par_gemm`]: materialize
/// transposes, apply `alpha`/`beta`, then hand the flat product to `disp`,
/// on the calling thread or split over the pool.
fn gemm_matrix_dispatch(
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
    // Materialize transposes; operand blocks in MatRox are small enough that
    // an explicit transpose is cheaper than a strided kernel and keeps the
    // hot loop contiguous.
    let at;
    let bt;
    let a_eff = match op_a {
        GemmOp::NoTrans => a,
        GemmOp::Trans => {
            at = a.transpose();
            &at
        }
    };
    let b_eff = match op_b {
        GemmOp::NoTrans => b,
        GemmOp::Trans => {
            bt = b.transpose();
            &bt
        }
    };

    let (m, k) = a_eff.shape();
    let (k2, n) = b_eff.shape();
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

    let run = |a_buf: &[f64], c_buf: &mut [f64]| {
        if parallel {
            disp.par_gemm(a_buf, m, k, b_eff.as_slice(), n, c_buf);
        } else {
            disp.gemm(a_buf, m, k, b_eff.as_slice(), n, c_buf);
        }
    };
    if alpha == 1.0 {
        run(a_eff.as_slice(), c.as_mut_slice());
    } else {
        // Scale A once rather than multiplying inside the hot loop.
        let mut a_scaled = a_eff.clone();
        a_scaled.scale(alpha);
        run(a_scaled.as_slice(), c.as_mut_slice());
    }
}

/// Fewest rows of `C` a parallel GEMM task should own.  A row of a typical
/// MatRox block is a few hundred multiply-adds; eight rows comfortably
/// amortize one deque push + steal (~a microsecond under the vendored pool).
pub(crate) const MIN_PAR_ROWS: usize = 8;

/// Size threshold (in multiply-add count) above which [`gemm`] switches from
/// the sequential to the parallel kernel.  Retuned for the real work-stealing
/// pool: forking now costs a deque push (not a no-op as under the sequential
/// stub, but far from the old conservative 4M-madd assumption), so the
/// crossover sits at ~1M multiply-adds — roughly where one thread's share at
/// 4 threads still dwarfs the handoff cost.
const PAR_FLOP_THRESHOLD: usize = 1 << 20;

/// General matrix multiply on the process-wide dispatched kernel: on the
/// calling thread below `PAR_FLOP_THRESHOLD` multiply-adds, [`par_gemm`]
/// from there up.
pub fn gemm(
    alpha: f64,
    a: &Matrix,
    op_a: GemmOp,
    b: &Matrix,
    op_b: GemmOp,
    beta: f64,
    c: &mut Matrix,
) {
    let m = match op_a {
        GemmOp::NoTrans => a.rows(),
        GemmOp::Trans => a.cols(),
    };
    let k = match op_a {
        GemmOp::NoTrans => a.cols(),
        GemmOp::Trans => a.rows(),
    };
    let n = match op_b {
        GemmOp::NoTrans => b.cols(),
        GemmOp::Trans => b.rows(),
    };
    let disp = KernelDispatch::global();
    let parallel = m * k * n >= PAR_FLOP_THRESHOLD;
    gemm_matrix_dispatch(alpha, a, op_a, b, op_b, beta, c, disp, parallel);
}

/// Matrix-vector product `y = alpha * op(A) * x + beta * y`, routed through
/// the dispatched `dot`/`axpy` primitives (one per row, so the SMASH-style
/// `Q = 1` baseline follows the same kernel selection as everything else;
/// the scalar arm reproduces the historic loops exactly).
pub fn gemv(alpha: f64, a: &Matrix, op_a: GemmOp, x: &[f64], beta: f64, y: &mut [f64]) {
    let disp = KernelDispatch::global();
    match op_a {
        GemmOp::NoTrans => {
            assert_eq!(a.cols(), x.len(), "gemv: x length mismatch");
            assert_eq!(a.rows(), y.len(), "gemv: y length mismatch");
            for i in 0..a.rows() {
                let acc = disp.dot(a.row(i), x);
                // `beta = 0` means `y` is output only: `0 * NaN` is NaN.
                y[i] = if beta == 0.0 {
                    alpha * acc
                } else {
                    alpha * acc + beta * y[i]
                };
            }
        }
        GemmOp::Trans => {
            assert_eq!(a.rows(), x.len(), "gemv^T: x length mismatch");
            assert_eq!(a.cols(), y.len(), "gemv^T: y length mismatch");
            if beta == 0.0 {
                y.iter_mut().for_each(|v| *v = 0.0);
            } else if beta != 1.0 {
                y.iter_mut().for_each(|v| *v *= beta);
            }
            for i in 0..a.rows() {
                let xv = alpha * x[i];
                if xv == 0.0 {
                    continue;
                }
                disp.axpy(xv, a.row(i), y);
            }
        }
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
/// untransposed in CDS and the transpose is absorbed by the kernel (a
/// rank-1-update loop for the scalar arch; for the microkernel, strided
/// reads of the stored block, or transposing packing when it is too large
/// to read in place), keeping the accesses to `B` and `C` contiguous.
pub fn gemm_tn_slices(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, c: &mut [f64]) {
    KernelDispatch::global().gemm_tn(a, k, m, b, n, c);
}

/// Scalar `C += A^T * B` with the historic rank-1-update loop ordering (the
/// scalar dispatch arm; per-element accumulation is `p`-ascending `mul` +
/// `add` with zero skipping — identical to [`gemm_block`]'s per-element
/// behaviour, which is what keeps the executor's mixed NoTrans/TN phases
/// panel-width independent).
pub(crate) fn gemm_tn_block(a: &[f64], k: usize, m: usize, b: &[f64], n: usize, c: &mut [f64]) {
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let aval = arow[i];
            if aval == 0.0 {
                continue;
            }
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += aval * brow[j];
            }
        }
    }
}

/// Scalar `C += (A^T)[i0..i0+rows, :] * B` for a row chunk of the output
/// (`A` stored `k x lda`).  Per-element accumulation identical to
/// [`gemm_tn_block`] — the parallel TN path must be bitwise equal to the
/// sequential one at any chunking.
pub(crate) fn gemm_tn_rows(
    a: &[f64],
    lda: usize,
    i0: usize,
    rows: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    for i in 0..rows {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aval = a[p * lda + i0 + i];
            if aval == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for j in 0..n {
                crow[j] += aval * brow[j];
            }
        }
    }
}

/// Convenience helper: `A * B` as a fresh matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, GemmOp::NoTrans, b, GemmOp::NoTrans, 0.0, &mut c);
    c
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
    }

    #[test]
    fn par_gemm_matches_seq() {
        let a = random_matrix(200, 64, 11);
        let b = random_matrix(64, 96, 12);
        let mut c1 = Matrix::zeros(200, 96);
        let mut c2 = Matrix::zeros(200, 96);
        gemm_seq(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c1);
        par_gemm(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c2);
        assert!(approx_eq(&c1, &c2, 1e-12));
    }

    #[test]
    fn gemv_matches_gemm() {
        let a = random_matrix(9, 6, 13);
        let x: Vec<f64> = (0..6).map(|i| i as f64 * 0.5 - 1.0).collect();
        let mut y = vec![0.0; 9];
        gemv(1.0, &a, GemmOp::NoTrans, &x, 0.0, &mut y);
        let xm = Matrix::from_vec(6, 1, x.clone());
        let expected = matmul(&a, &xm);
        for i in 0..9 {
            assert!((y[i] - expected.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_transposed() {
        let a = random_matrix(9, 6, 14);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 6];
        gemv(1.0, &a, GemmOp::Trans, &x, 0.0, &mut y);
        let xm = Matrix::from_vec(9, 1, x.clone());
        let expected = matmul(&a.transpose(), &xm);
        for i in 0..6 {
            assert!((y[i] - expected.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn gemv_with_zero_beta_never_reads_y() {
        let a = random_matrix(9, 6, 15);
        for (op, (xlen, ylen)) in [(GemmOp::NoTrans, (6, 9)), (GemmOp::Trans, (9, 6))] {
            let x: Vec<f64> = (0..xlen).map(|i| i as f64 - 2.5).collect();
            let mut clean = vec![0.0; ylen];
            gemv(1.5, &a, op, &x, 0.0, &mut clean);
            let mut y = vec![f64::NAN; ylen];
            gemv(1.5, &a, op, &x, 0.0, &mut y);
            assert!(y.iter().all(|v| v.is_finite()), "{op:?}: beta = 0 read y");
            assert_eq!(y, clean, "{op:?}");
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
        let mut c = Matrix::zeros(0, 3);
        gemm(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c);
        assert!(c.is_empty());
    }
}
