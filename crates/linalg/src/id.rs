//! Interpolative decomposition (ID).
//!
//! MatRox (following ASKIT/GOFMM) compresses every low-rank block with an
//! interpolative decomposition: a subset of the block's own rows (the
//! *skeleton*) is selected and the remaining rows are expressed as linear
//! combinations of the skeleton rows.  For a node `i` with index set `I_i`
//! and a sampled far-field block `A = K(I_i, S_i)` the **row ID**
//!
//! ```text
//! A  ≈  P * A[J, :]          P  (|I_i| x k),  J ⊆ I_i,  |J| = k = srank_i
//! ```
//!
//! gives the interpolation matrix `P` (the paper's `U_i`/`V_i` generators)
//! and the skeleton indices `J` used to form the coupling blocks
//! `B_{i,j} = K(skel_i, skel_j)`.
//!
//! The rank `k` is chosen adaptively: the column-pivoted QR underlying the ID
//! stops when the diagonal of `R` falls below `bacc * |R[0,0]|`, exactly the
//! "srank adaptively tuned to meet the user-requested block approximation
//! accuracy" behaviour described in Section 2.1 of the paper.
//!
//! The QR runs on `A^T` and factors in the buffer it is handed
//! ([`crate::qr`]); the compressor evaluates its sample block already
//! transposed and gives it to [`row_id_of_transpose`], so a node's block is
//! allocated once and never copied.  [`row_id`] and [`column_id`] are the
//! by-reference forms.  [`row_id_of_qr`] reads the ID off a QR paused at
//! any stop ([`ResumableQr`]): [`row_id_of_transpose`] is that QR run once
//! from the start.

use crate::gemm::{gemm_seq, GemmOp};
use crate::matrix::Matrix;
use crate::qr::{QrStop, ResumableQr};
use crate::solve::solve_upper_in_place;

/// Result of a row or column interpolative decomposition.
#[derive(Debug, Clone)]
pub struct IdResult {
    /// Detected rank `k` (the `srank` of the block).
    pub rank: usize,
    /// Skeleton indices (row indices for [`row_id`], column indices for
    /// [`column_id`]) into the original matrix, in pivot order.
    pub skeleton: Vec<usize>,
    /// Interpolation matrix: `m x k` for a row ID (`A ≈ interp * A[skeleton, :]`),
    /// `k x n` for a column ID (`A ≈ A[:, skeleton] * interp`).
    pub interp: Matrix,
}

/// Column interpolative decomposition `A ≈ A[:, J] * X`: the row ID of
/// `A^T`, whose interpolation matrix is `X^T`.
///
/// * `tol` — relative tolerance controlling the adaptive rank.
/// * `max_rank` — hard cap on the rank.
pub fn column_id(a: &Matrix, tol: f64, max_rank: usize) -> IdResult {
    let id = row_id_of_transpose(a.clone(), tol, max_rank);
    IdResult {
        interp: id.interp.transpose(),
        ..id
    }
}

/// Row interpolative decomposition `A ≈ P * A[J, :]`.
///
/// Implemented as a column-pivoted QR of `A^T`: skeleton columns of `A^T`
/// are skeleton rows of `A`.
pub fn row_id(a: &Matrix, tol: f64, max_rank: usize) -> IdResult {
    row_id_of_transpose(a.transpose(), tol, max_rank)
}

/// [`row_id`] of `A`, given `A^T` by value: the pivoted QR factors in its
/// buffer, so a caller that can produce the block transposed (the
/// compressor evaluates `K(S_i, I_i)`, bit-equal to `K(I_i, S_i)^T` because
/// every kernel is symmetric) pays for neither a transpose nor a copy.
pub fn row_id_of_transpose(at: Matrix, tol: f64, max_rank: usize) -> IdResult {
    let mut qr = ResumableQr::new(at);
    let stop = qr.advance(tol, max_rank);
    row_id_of_qr(&qr, stop)
}

/// The row ID of `A` at `stop`, read off a pivoted QR of `A^T` paused at
/// or past it (`stop` is one `qr.advance` returned): bit for bit the ID
/// [`row_id_of_transpose`] computes to that stop.  The columns past the
/// stop may still be in a later step's order; `T` and the scatter into `P`
/// work column by column, so their order changes no bit.
pub fn row_id_of_qr(qr: &ResumableQr, stop: QrStop) -> IdResult {
    let (r, perm) = qr.leading();
    let (n, k) = (r.cols(), stop.rank);

    // R = [R11 R12] with R11 (k x k) upper triangular over the pivoted columns.
    // T = R11^{-1} R12  (k x (n-k)), solved in place over the copy of R12.
    let mut t = r.submatrix(0, k, k, n);
    if n > k {
        solve_upper_in_place(r, k, t.as_mut_slice(), n - k);
    }

    // P (n x k) in *original* row order: P[perm[j], :] = e_j for j < k,
    // P[perm[j], :] = T[:, j-k]^T for j >= k.
    let mut p = Matrix::zeros(n, k);
    for (j, &orig) in perm.iter().enumerate() {
        let row = p.row_mut(orig);
        if j < k {
            row[j] = 1.0;
        } else {
            for (i, x) in row.iter_mut().enumerate() {
                *x = t.get(i, j - k);
            }
        }
    }

    IdResult {
        rank: k,
        skeleton: perm[..k].to_vec(),
        interp: p,
    }
}

/// Reconstruct `P * A[J, :]` for a row ID — the tests' check of a truncated
/// factorization (the QR has no `Q` to multiply back).
pub fn reconstruct_row_id(a: &Matrix, id: &IdResult) -> Matrix {
    let skel_rows = a.gather_rows(&id.skeleton);
    let mut out = Matrix::zeros(a.rows(), a.cols());
    gemm_seq(
        1.0,
        &id.interp,
        GemmOp::NoTrans,
        &skel_rows,
        GemmOp::NoTrans,
        0.0,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::relative_error;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn low_rank_matrix(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
        let a = random_matrix(m, r, seed);
        let b = random_matrix(r, n, seed + 1);
        crate::gemm::matmul(&a, &b)
    }

    #[test]
    fn row_id_exact_on_low_rank() {
        let a = low_rank_matrix(30, 20, 4, 5);
        let id = row_id(&a, 1e-10, usize::MAX);
        assert_eq!(id.rank, 4);
        let rec = reconstruct_row_id(&a, &id);
        assert!(relative_error(&rec, &a) < 1e-8);
    }

    #[test]
    fn column_id_exact_on_low_rank() {
        let a = low_rank_matrix(20, 30, 6, 8);
        let id = column_id(&a, 1e-10, usize::MAX);
        assert_eq!(id.rank, 6);
        let skel = a.gather_cols(&id.skeleton);
        let rec = crate::gemm::matmul(&skel, &id.interp);
        assert!(relative_error(&rec, &a) < 1e-8);
    }

    #[test]
    fn skeleton_indices_are_valid_and_unique() {
        let a = low_rank_matrix(25, 25, 7, 9);
        let id = row_id(&a, 1e-8, usize::MAX);
        let mut seen = std::collections::HashSet::new();
        for &s in &id.skeleton {
            assert!(s < 25);
            assert!(seen.insert(s), "duplicate skeleton index");
        }
    }

    #[test]
    fn interpolation_matrix_has_identity_on_skeleton_rows() {
        let a = low_rank_matrix(20, 15, 5, 10);
        let id = row_id(&a, 1e-10, usize::MAX);
        for (col, &row) in id.skeleton.iter().enumerate() {
            for c in 0..id.rank {
                let expected = if c == col { 1.0 } else { 0.0 };
                assert!(
                    (id.interp.get(row, c) - expected).abs() < 1e-12,
                    "interp[{row},{c}] should be {expected}"
                );
            }
        }
    }

    #[test]
    fn max_rank_caps_the_skeleton() {
        let a = random_matrix(40, 40, 11);
        let id = row_id(&a, 0.0, 9);
        assert_eq!(id.rank, 9);
        assert_eq!(id.interp.shape(), (40, 9));
    }

    #[test]
    fn zero_matrix_gives_rank_zero() {
        let a = Matrix::zeros(10, 10);
        let id = row_id(&a, 1e-12, usize::MAX);
        assert_eq!(id.rank, 0);
        assert!(id.skeleton.is_empty());
    }

    #[test]
    fn tighter_tolerance_never_decreases_rank() {
        // A kernel-like matrix with decaying spectrum.
        let n = 48;
        let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let a = Matrix::from_fn(n, n, |i, j| (-(pts[i] - pts[j]).powi(2) * 40.0).exp());
        let loose = row_id(&a, 1e-2, usize::MAX);
        let tight = row_id(&a, 1e-8, usize::MAX);
        assert!(tight.rank >= loose.rank);
        let rec_tight = reconstruct_row_id(&a, &tight);
        let rec_loose = reconstruct_row_id(&a, &loose);
        assert!(relative_error(&rec_tight, &a) <= relative_error(&rec_loose, &a) + 1e-12);
    }

    #[test]
    fn id_error_tracks_tolerance_on_smooth_kernel() {
        let n = 64;
        let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let a = Matrix::from_fn(n, n, |i, j| (-(pts[i] - pts[j] + 2.0).powi(2)).exp());
        for &tol in &[1e-3, 1e-6, 1e-9] {
            let id = row_id(&a, tol, usize::MAX);
            let rec = reconstruct_row_id(&a, &id);
            let err = relative_error(&rec, &a);
            assert!(
                err < tol * 1e3,
                "tol {tol} gave error {err} with rank {}",
                id.rank
            );
        }
    }
}
