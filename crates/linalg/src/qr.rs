//! Householder column-pivoted QR (Businger–Golub) with adaptive rank
//! detection.
//!
//! MatRox uses interpolative decomposition (ID) for the low-rank blocks of
//! the HMatrix; the standard way to compute an ID is a rank-revealing,
//! column-pivoted QR of the sample matrix.  The factorization is truncated as
//! soon as the trailing diagonal of `R` drops below `tol * |R[0,0]|`, which is
//! exactly how the submatrix rank (`srank`) is "adaptively tuned to meet the
//! user-requested block approximation accuracy" in the paper.
//!
//! # Only what the ID reads
//!
//! The ID needs the rank, the permutation and `R`; `Q` is never formed.
//! The factorization runs in its input's own buffer and discards each
//! reflector once it is applied, so `R` is the leading `rank` rows of that
//! buffer with the sub-diagonal cleared.
//!
//! # One pass a step
//!
//! Step `k` streams the trailing block once.  Step `k − 1`'s update of rows
//! `k..m` is left pending, with its reflector and its scales; step `k`
//! picks the pivot from the downdated norms and swaps it in (scale and
//! all), brings the pivot column up to date, takes its exact norm and its
//! reflector, and then makes one pass over rows `k..m`, `ROW_BLOCK` rows
//! at a time: each row of the trailing columns gets step `k − 1`'s update
//! and goes, while still in registers, into step `k`'s dots.  Row `k` (the
//! row of `R`) then gets step `k`'s update at once, for the norm downdate.
//! The rows past the final rank never get the last step's update: they are
//! truncated anyway.
//!
//! # Pausing and resuming
//!
//! No step reads `tol` or `max_rank`; they only decide where the loop
//! stops.  So the factorization is a [`ResumableQr`], and
//! [`ResumableQr::advance`] runs it to the stop of a `(tol, max_rank)` and
//! leaves it paused there.  At a `tol` stop, step `k`'s pivot is swapped
//! in, its column is brought up to date and its `alpha` is taken: exactly
//! what a run that stops at `k` has done.  From there, a later `advance`:
//!
//! * to a tighter `tol` (or a larger cap) goes on from the pause, with the
//!   operations a fresh run makes;
//! * to a looser `tol` (or a smaller cap) reads the stop off the steps
//!   already taken, because `|R[j][j]|` is step `j`'s `alpha` bit for bit
//!   (`R[j][j]` is `±alpha`, and no later step writes column `j` or row
//!   `j`).
//!
//! After a looser read the buffer still holds the later steps' pivot
//! swaps.  They only reorder the columns past the stop, together with the
//! permutation: [`ResumableQr::factor`] undoes them and returns the fresh
//! run's `R` bit for bit, and the ID ([`crate::id::row_id_of_qr`]) needs no
//! undoing, since its `R11^{-1} R12` and its scatter work column by column.
//! [`pivoted_qr`] is one `advance` from the start.
//!
//! # The per-column chain
//!
//! Every entry of `R` comes from one fixed operation chain per column,
//! that of a column-at-a-time Householder QR (`tests/qr_oracle.rs` keeps
//! the one this replaced and compares by `to_bits`, on every kernel arm):
//! the reflector dot `Σ v[i] · C[k+i, j]` starts at `0.0` and runs over
//! ascending `i`, is scaled once by `tau`, and the update
//! `C[k+i, j] -= scale · v[i]` skips a column whose scale is exactly zero.
//! The pass runs *by rows*, across independent columns, so it vectorizes
//! without reassociating any chain, and Rust never contracts `a * b + c`
//! to an FMA.  The steps are `#[inline(always)]`: the [`KernelDispatch`]
//! compiles [`ResumableQr::advance`]'s loop once more for each SIMD arm it
//! has (`kernel/{avx2,avx512}.rs`), and every arm returns the same bits —
//! the arm moves speed only, so [`pivoted_qr`] and
//! [`ResumableQr::advance`] take [`KernelDispatch::global`].

use crate::kernel::KernelDispatch;
use crate::matrix::Matrix;

/// Rows the pass takes at once: every column's dot still adds one row at a
/// time in ascending order, but stays in a register across the block, and
/// each row is loaded and stored once for both steps.
const ROW_BLOCK: usize = 4;

/// Result of a (possibly truncated) column-pivoted QR factorization
/// `A P = Q R`; `Q` itself is not formed.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    /// Number of Householder reflections applied; equals the detected
    /// numerical rank when a tolerance is supplied.
    pub rank: usize,
    /// Column permutation: `perm[k]` is the original column index that was
    /// moved to position `k`.
    pub perm: Vec<usize>,
    /// The `rank x n` upper-trapezoidal factor `R` (rows beyond `rank` are
    /// dropped).
    pub r: Matrix,
}

/// Compute a column-pivoted QR factorization of `a` in `a`'s own buffer,
/// truncated at relative tolerance `tol` and absolute maximum rank
/// `max_rank`, on the process-wide kernel arm (every arm returns the same
/// bits; [`KernelDispatch::pivoted_qr`] picks one).
///
/// * `tol` — stop when `|R[k,k]| <= tol * |R[0,0]|`.  Pass `0.0` for a full
///   factorization (up to `max_rank`).
/// * `max_rank` — hard cap on the number of reflections (the paper caps the
///   submatrix rank at 256 by default).
///
/// Returns `R` together with the detected rank and the column permutation.
pub fn pivoted_qr(a: Matrix, tol: f64, max_rank: usize) -> PivotedQr {
    KernelDispatch::global().pivoted_qr(a, tol, max_rank)
}

/// Where [`ResumableQr::advance`] stopped: the rank, and how many leading
/// steps' pivot swaps a fresh run to the same stop makes (a `tol` stop at
/// `k` has swapped step `k`'s pivot in; a stop at the cap has not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QrStop {
    /// The detected rank: the number of reflections up to the stop.
    pub rank: usize,
    swapped: usize,
}

/// A column-pivoted QR that pauses at its stop and can go on from there
/// (module docs, "Pausing and resuming").  Every stop an `advance` of it
/// returns stays valid: the steps below a stop never change.
#[derive(Debug, Clone)]
pub struct ResumableQr {
    /// The block, factored in place: rows `..done` are `R`'s (below the
    /// diagonal lie spent columns), rows `done..` still owe step
    /// `done − 1`'s update, apart from a swapped-in pivot column.
    c: Matrix,
    perm: Vec<usize>,
    /// Squared column norms, downdated step by step; computed by the
    /// `advance` that takes the first step.
    norms: Vec<f64>,
    /// The pivot column of step `done`, once it is swapped in.
    v: Vec<f64>,
    /// Scratch for a step's dots.
    w: Vec<f64>,
    /// Step `done − 1`'s reflector and scaled dots, whose update of rows
    /// `done..` is pending; before step 0, zero scales and a zero reflector
    /// one row taller than the block (the pivot sweep reads it from its
    /// second entry).
    v_prev: Vec<f64>,
    s: Vec<f64>,
    r00: f64,
    /// Steps completed: reflections applied.
    done: usize,
    /// Step `done`'s `alpha` once its pivot is swapped in.
    pending: Option<f64>,
    /// The pivot of every step whose swap is made, in step order.
    pivots: Vec<usize>,
}

impl ResumableQr {
    /// A factorization of `a`, in `a`'s own buffer, before its first step.
    pub fn new(a: Matrix) -> Self {
        let (m, n) = a.shape();
        ResumableQr {
            c: a,
            perm: (0..n).collect(),
            norms: vec![0.0; n],
            v: Vec::with_capacity(m + 1),
            w: vec![0.0; n],
            v_prev: vec![0.0; m + 1],
            s: vec![0.0; n],
            r00: 0.0,
            done: 0,
            pending: None,
            pivots: Vec::with_capacity(m.min(n) + 1),
        }
    }

    /// Run to the stop of relative tolerance `tol` and rank cap `max_rank`
    /// (as [`pivoted_qr`] takes them) and pause there, on the process-wide
    /// kernel arm: a fresh run's stop, bit for bit, whatever stops this
    /// factorization was advanced to before.
    pub fn advance(&mut self, tol: f64, max_rank: usize) -> QrStop {
        KernelDispatch::global().advance_qr(self, tol, max_rank)
    }

    /// The reflections applied so far.
    pub fn steps(&self) -> usize {
        self.done
    }

    /// Bytes this factorization holds.
    pub fn bytes(&self) -> usize {
        let floats = self.c.len()
            + self.norms.capacity()
            + self.v.capacity()
            + self.v_prev.capacity()
            + self.s.capacity()
            + self.w.capacity();
        floats * std::mem::size_of::<f64>()
            + (self.perm.capacity() + self.pivots.capacity()) * std::mem::size_of::<usize>()
    }

    /// The factor a fresh [`pivoted_qr`] to `stop` returns, bit for bit:
    /// the leading `stop.rank` rows, with the swaps of the steps past the
    /// stop undone.  `stop` is one this factorization's `advance` returned.
    pub fn factor(&self, stop: QrStop) -> PivotedQr {
        let n = self.c.cols();
        let r = self.c.as_slice()[..stop.rank * n].to_vec();
        leading_factor(r, self.perm.clone(), n, stop, &self.pivots)
    }

    /// [`ResumableQr::factor`] in this factorization's own buffer.
    pub fn into_factor(self, stop: QrStop) -> PivotedQr {
        let n = self.c.cols();
        let mut r = self.c.into_vec();
        r.truncate(stop.rank * n);
        leading_factor(r, self.perm, n, stop, &self.pivots)
    }

    /// The buffer (its leading `k x k` upper triangle is `R11` at any stop
    /// of rank `k`) and the permutation its columns are in.
    pub(crate) fn leading(&self) -> (&Matrix, &[usize]) {
        (&self.c, &self.perm)
    }

    /// The loop [`ResumableQr::advance`] runs, inlined into each kernel
    /// arm's instance (see the module docs).  It runs on locals taken out
    /// of the paused state and puts them back at the stop, so the step
    /// loop keeps its scalars in registers.
    #[inline(always)]
    pub(crate) fn advance_body(&mut self, tol: f64, max_rank: usize) -> QrStop {
        let (m, n) = self.c.shape();
        let kmax = m.min(n).min(max_rank);
        let c = self.c.as_mut_slice();
        // A stop among the steps taken: `|R[j][j]|` is step `j`'s `alpha`.
        let r00 = self.r00;
        let taken = self.done.min(kmax);
        if let Some(j) = (0..taken).find(|&j| {
            let alpha = c[j * n + j].abs();
            alpha <= tol * r00 || alpha == 0.0
        }) {
            return QrStop {
                rank: j,
                swapped: j + 1,
            };
        }
        use std::mem::take;
        let (mut perm, mut norms, mut pivots) = (
            take(&mut self.perm),
            take(&mut self.norms),
            take(&mut self.pivots),
        );
        let (mut v, mut w) = (take(&mut self.v), take(&mut self.w));
        let (mut v_prev, mut s) = (take(&mut self.v_prev), take(&mut self.s));
        let (mut r00, mut pending) = (self.r00, self.pending);
        if pivots.is_empty() {
            // Squared column norms, updated incrementally (Businger–Golub
            // downdating).
            norms.fill(0.0);
            for row in c.chunks_exact(n.max(1)) {
                for (s, x) in norms.iter_mut().zip(row) {
                    *s += x * x;
                }
            }
        }

        let mut k = self.done;
        let stop = loop {
            if k >= kmax {
                break QrStop {
                    rank: kmax,
                    swapped: kmax,
                };
            }
            let alpha = match pending {
                Some(alpha) => alpha,
                None => {
                    // Pivot: bring the column with the largest remaining
                    // norm to front.
                    let pivot = norms[k..]
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .map(|(i, _)| i + k)
                        .unwrap();
                    if pivot != k {
                        for row in c[..k * n].chunks_exact_mut(n) {
                            row.swap(k, pivot);
                        }
                        perm.swap(k, pivot);
                        norms.swap(k, pivot);
                        s.swap(k, pivot);
                    }
                    // One sweep down rows k..m swaps the pivot in, brings it
                    // up to date with step k − 1 and copies it out as the
                    // reflector; its norm is recomputed exactly to avoid
                    // downdating drift.
                    let sk = s[k];
                    v.clear();
                    for (row, &pi) in c[k * n..].chunks_exact_mut(n).zip(&v_prev[1..]) {
                        row.swap(k, pivot);
                        if sk != 0.0 {
                            row[k] -= sk * pi;
                        }
                        v.push(row[k]);
                    }
                    let exact: f64 = v.iter().map(|x| x * x).sum();
                    let alpha = exact.sqrt();
                    if k == 0 {
                        r00 = alpha;
                    }
                    pivots.push(pivot);
                    alpha
                }
            };
            // Rank detection: relative drop of the diagonal of R.  Here the
            // loop pauses: step k's pivot is in and its alpha taken.
            if alpha <= tol * r00 || alpha == 0.0 {
                pending = Some(alpha);
                break QrStop {
                    rank: k,
                    swapped: k + 1,
                };
            }
            pending = None;

            // Householder reflector for column k, rows k..m.
            let beta = if v[0] >= 0.0 { -alpha } else { alpha };
            v[0] -= beta;
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            let tau = if vnorm2 == 0.0 { 0.0 } else { 2.0 / vnorm2 };

            // The pass over rows k..m: step k − 1's pending update of the
            // trailing columns, and step k's dots.
            let j0 = k + 1;
            let wk = &mut w[j0..];
            wk.fill(0.0);
            let (rows, sp, vp) = (&mut c[k * n..], &s[j0..], &v_prev[1..]);
            if k == 0 {
                pass::<false, false>(rows, n, j0, sp, vp, &v, wk);
            } else if sp.iter().all(|&x| x != 0.0) {
                pass::<true, false>(rows, n, j0, sp, vp, &v, wk);
            } else {
                pass::<true, true>(rows, n, j0, sp, vp, &v, wk);
            }
            for x in wk.iter_mut() {
                *x *= tau;
            }
            // Row k of R gets step k's update now (`x - 0 * vi` is not `x`
            // for `x = -0.0`, so a zero scale leaves its column untouched),
            // and the running column norms are downdated from it.
            let row_k = &mut c[k * n + j0..(k + 1) * n];
            let v0 = v[0];
            if wk.iter().all(|&x| x != 0.0) {
                row_k
                    .iter_mut()
                    .zip(wk.iter())
                    .for_each(|(x, s)| *x -= s * v0);
            } else {
                row_k
                    .iter_mut()
                    .zip(wk.iter())
                    .filter(|(_, &s)| s != 0.0)
                    .for_each(|(x, s)| *x -= s * v0);
            }
            for (nj, r_kj) in norms[j0..].iter_mut().zip(row_k.iter()) {
                *nj = (*nj - r_kj * r_kj).max(0.0);
            }

            c[k * n + k] = beta;
            k += 1;
            std::mem::swap(&mut v, &mut v_prev);
            std::mem::swap(&mut w, &mut s);
        };

        (self.perm, self.norms, self.pivots) = (perm, norms, pivots);
        (self.v, self.w, self.v_prev, self.s) = (v, w, v_prev, s);
        (self.r00, self.pending, self.done) = (r00, pending, k);
        stop
    }
}

/// `R` from the leading `stop.rank` rows `r` of a factored buffer (`n`
/// wide) and its permutation: the swaps of the steps past the stop are
/// undone, latest first (they only reordered columns past it), and the
/// spent columns below the diagonal cleared.
fn leading_factor(
    mut r: Vec<f64>,
    mut perm: Vec<usize>,
    n: usize,
    stop: QrStop,
    pivots: &[usize],
) -> PivotedQr {
    for (t, &p) in pivots.iter().enumerate().skip(stop.swapped).rev() {
        if p != t {
            for row in r.chunks_exact_mut(n) {
                row.swap(t, p);
            }
            perm.swap(t, p);
        }
    }
    for (k, row) in r.chunks_exact_mut(n.max(1)).enumerate() {
        row[..k].fill(0.0);
    }
    PivotedQr {
        rank: stop.rank,
        perm,
        r: Matrix::from_vec(stop.rank, n, r),
    }
}

/// One step's pass over the rows `rows` (row-major, `n` wide) at columns
/// `j0..n`: with `UPDATE`, row `i` first takes step `k − 1`'s update
/// `x -= s[j] · vp[i]` (with `SKIP_ZERO`, not where `s[j]` is exactly
/// zero), then every row adds `v[i] · x` into `w[j]`, rows ascending.
/// Without `UPDATE`, `vp` and `s` are not read.
#[inline(always)]
fn pass<const UPDATE: bool, const SKIP_ZERO: bool>(
    rows: &mut [f64],
    n: usize,
    j0: usize,
    s: &[f64],
    vp: &[f64],
    v: &[f64],
    w: &mut [f64],
) {
    let cols = w.len();
    let mut rows = rows.chunks_exact_mut(n).map(|row| &mut row[j0..][..cols]);
    let (vb, vpb) = (v.chunks_exact(ROW_BLOCK), vp.chunks_exact(ROW_BLOCK));
    let (v_rest, vp_rest) = (vb.remainder(), vpb.remainder());
    for (vb, vpb) in vb.zip(vpb) {
        let r: [&mut [f64]; ROW_BLOCK] = std::array::from_fn(|_| rows.next().unwrap());
        let [r0, r1, r2, r3] = r;
        let (v, vp) = (vb.try_into().unwrap(), vpb.try_into().unwrap());
        block::<UPDATE, SKIP_ZERO>(r0, r1, r2, r3, s, vp, v, w);
    }
    for ((row, &vi), &pi) in rows.zip(v_rest).zip(vp_rest) {
        let s = &s[..cols];
        for j in 0..cols {
            let x = updated::<UPDATE, SKIP_ZERO>(row[j], s[j], pi);
            row[j] = x;
            w[j] += vi * x;
        }
    }
}

/// [`pass`] over four rows: each column's dot is loaded once, takes the
/// four rows in order and is stored once.  The rows are separate arguments
/// so the compiler knows they do not alias.
#[inline(always)]
fn block<const UPDATE: bool, const SKIP_ZERO: bool>(
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    s: &[f64],
    vp: [f64; ROW_BLOCK],
    v: [f64; ROW_BLOCK],
    w: &mut [f64],
) {
    let cols = w.len();
    let (r0, r1, r2, r3) = (
        &mut r0[..cols],
        &mut r1[..cols],
        &mut r2[..cols],
        &mut r3[..cols],
    );
    let s = &s[..cols];
    for j in 0..cols {
        let sj = s[j];
        let x0 = updated::<UPDATE, SKIP_ZERO>(r0[j], sj, vp[0]);
        let x1 = updated::<UPDATE, SKIP_ZERO>(r1[j], sj, vp[1]);
        let x2 = updated::<UPDATE, SKIP_ZERO>(r2[j], sj, vp[2]);
        let x3 = updated::<UPDATE, SKIP_ZERO>(r3[j], sj, vp[3]);
        (r0[j], r1[j], r2[j], r3[j]) = (x0, x1, x2, x3);
        w[j] = (((w[j] + v[0] * x0) + v[1] * x1) + v[2] * x2) + v[3] * x3;
    }
}

/// `x - s · p`, or `x` itself without `UPDATE` or (with `SKIP_ZERO`) for
/// an exactly zero `s`.
#[inline(always)]
fn updated<const UPDATE: bool, const SKIP_ZERO: bool>(x: f64, s: f64, p: f64) -> f64 {
    if UPDATE && (!SKIP_ZERO || s != 0.0) {
        x - s * p
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::column_id;
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

    /// `R^T R` against `(AP)^T (AP)`: equal when the factorization is full
    /// (rank `min(m, n)`), so it checks `R` without `Q`.
    fn gram_gap(a: &Matrix, f: &PivotedQr) -> f64 {
        let ap = a.gather_cols(&f.perm);
        let rtr = crate::gemm::matmul(&f.r.transpose(), &f.r);
        relative_error(&rtr, &crate::gemm::matmul(&ap.transpose(), &ap))
    }

    /// Relative error of the column ID `A[:, J] X` built on the truncated QR.
    fn column_id_gap(a: &Matrix, tol: f64) -> f64 {
        let id = column_id(a, tol, usize::MAX);
        let rec = crate::gemm::matmul(&a.gather_cols(&id.skeleton), &id.interp);
        relative_error(&rec, a)
    }

    #[test]
    fn full_qr_reconstructs() {
        let a = random_matrix(12, 8, 42);
        let f = pivoted_qr(a.clone(), 0.0, usize::MAX);
        assert_eq!(f.rank, 8);
        assert!(gram_gap(&a, &f) < 1e-12);
    }

    #[test]
    fn detects_numerical_rank_of_low_rank_matrix() {
        let a = low_rank_matrix(40, 30, 5, 3);
        let f = pivoted_qr(a.clone(), 1e-10, usize::MAX);
        assert_eq!(f.rank, 5);
        assert!(column_id_gap(&a, 1e-10) < 1e-8);
    }

    #[test]
    fn respects_max_rank_cap() {
        let a = random_matrix(30, 30, 9);
        let f = pivoted_qr(a, 0.0, 7);
        assert_eq!(f.rank, 7);
        assert_eq!(f.r.shape(), (7, 30));
    }

    #[test]
    fn r_diagonal_is_non_increasing() {
        let a = random_matrix(25, 18, 11);
        let f = pivoted_qr(a, 0.0, usize::MAX);
        let mut prev = f64::INFINITY;
        for k in 0..f.rank {
            let d = f.r.get(k, k).abs();
            assert!(d <= prev + 1e-10, "diagonal not non-increasing");
            prev = d;
        }
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let f = pivoted_qr(Matrix::zeros(6, 6), 1e-12, usize::MAX);
        assert_eq!(f.rank, 0);
    }

    #[test]
    fn wide_and_tall_matrices_work() {
        for (a, rank) in [(random_matrix(5, 20, 21), 5), (random_matrix(20, 5, 22), 5)] {
            let f = pivoted_qr(a.clone(), 0.0, usize::MAX);
            assert_eq!(f.rank, rank);
            assert!(gram_gap(&a, &f) < 1e-12);
        }
    }

    #[test]
    fn truncated_qr_error_matches_tolerance() {
        // A matrix with geometrically decaying singular values.
        let m = 40;
        let n = 40;
        let mut a = Matrix::zeros(m, n);
        for r in 0..n {
            let u = random_matrix(m, 1, 100 + r as u64);
            let v = random_matrix(1, n, 200 + r as u64);
            let mut uv = crate::gemm::matmul(&u, &v);
            uv.scale(0.5_f64.powi(r as i32));
            a.add_assign(&uv);
        }
        let tol = 1e-6;
        let f = pivoted_qr(a.clone(), tol, usize::MAX);
        let err = column_id_gap(&a, tol);
        // CPQR is rank revealing in practice; allow two orders of slack.
        assert!(err < tol * 100.0, "error {err} too large for tol {tol}");
        assert!(f.rank < 40, "should have truncated");
    }
}
