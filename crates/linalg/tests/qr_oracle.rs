//! The pivoted QR against the factorization it replaced, on every kernel
//! arm.
//!
//! `pivoted_qr` factors a row-major buffer in one pass a step and never
//! forms `Q`; the column-at-a-time Householder QR below is the one it
//! replaced, kept verbatim as the oracle.  Rank, permutation and every bit
//! of `R` must agree on each arm the host has (scalar, avx2, avx512,
//! resolved explicitly) — the ID, and through it every skeleton, generator
//! and stored image, is built on them (`tests/serialization_roundtrip.rs`
//! pins the result).

use matrox_linalg::{
    matmul, row_id_of_qr, row_id_of_transpose, KernelChoice, KernelDispatch, Matrix, PivotedQr,
    QrStop, ResumableQr,
};
use rand::{Rng, SeedableRng};

/// The column-at-a-time factorization `pivoted_qr` replaced, verbatim
/// minus the `Q` assembly (which ran after `R` was final and never wrote
/// it).
fn reference_qr(a: &Matrix, tol: f64, max_rank: usize) -> PivotedQr {
    let m = a.rows();
    let n = a.cols();
    let kmax = m.min(n).min(max_rank);
    let mut col: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut norms: Vec<f64> = col.iter().map(|c| c.iter().map(|x| x * x).sum()).collect();
    let mut r00: f64 = 0.0;
    let mut rank = 0;
    for k in 0..kmax {
        let pivot = norms[k..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i + k)
            .unwrap();
        if pivot != k {
            col.swap(k, pivot);
            perm.swap(k, pivot);
            norms.swap(k, pivot);
        }
        let exact: f64 = col[k][k..].iter().map(|x| x * x).sum();
        let alpha = exact.sqrt();
        if k == 0 {
            r00 = alpha;
        }
        if alpha <= tol * r00 || alpha == 0.0 {
            break;
        }
        let mut v: Vec<f64> = col[k][k..].to_vec();
        let beta = if v[0] >= 0.0 { -alpha } else { alpha };
        v[0] -= beta;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let tau = if vnorm2 == 0.0 { 0.0 } else { 2.0 / vnorm2 };
        for j in (k + 1)..n {
            let cj = &mut col[j];
            let mut dot = 0.0;
            for (i, vi) in v.iter().enumerate() {
                dot += vi * cj[k + i];
            }
            let scale = tau * dot;
            if scale != 0.0 {
                for (i, vi) in v.iter().enumerate() {
                    cj[k + i] -= scale * vi;
                }
            }
            let r_kj = cj[k];
            norms[j] = (norms[j] - r_kj * r_kj).max(0.0);
        }
        col[k][k] = beta;
        for (i, vi) in v.iter().enumerate().skip(1) {
            col[k][k + i] = *vi;
        }
        rank = k + 1;
    }
    let mut r = Matrix::zeros(rank, n);
    for j in 0..n {
        for k in 0..rank.min(j + 1) {
            r.set(k, j, col[j][k]);
        }
    }
    PivotedQr { rank, perm, r }
}

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

/// Rank, permutation and every bit of `R` agree with the oracle on every
/// arm; returns the oracle's rank.
fn assert_matches_reference(a: &Matrix, tol: f64, max_rank: usize) -> usize {
    let want = reference_qr(a, tol, max_rank);
    let bits = |r: &Matrix| r.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for disp in arms() {
        let got = disp.pivoted_qr(a.clone(), tol, max_rank);
        let what = format!(
            "{} arm, {:?} tol {tol} cap {max_rank}",
            disp.name(),
            a.shape()
        );
        assert_eq!(got.rank, want.rank, "rank, {what}");
        assert_eq!(got.perm, want.perm, "perm, {what}");
        assert_eq!(got.r.shape(), want.r.shape(), "R shape, {what}");
        assert_eq!(bits(&got.r), bits(&want.r), "R bits, {what}");
    }
    want.rank
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn low_rank_matrix(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
    matmul(&random_matrix(m, r, seed), &random_matrix(r, n, seed + 1))
}

#[test]
fn matches_reference_bitwise() {
    let mut shapes: Vec<Matrix> = [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1)]
        .iter()
        .map(|&(m, n)| random_matrix(m, n, (m * 31 + n) as u64))
        .collect();
    shapes.extend([
        random_matrix(30, 12, 1),
        random_matrix(12, 30, 2),
        random_matrix(20, 20, 3),
        low_rank_matrix(40, 25, 6, 4),
        low_rank_matrix(25, 40, 3, 6),
        Matrix::zeros(8, 6),
        Matrix::from_fn(9, 9, |i, j| ((i + j) % 3) as f64 - 0.5 * (j % 2) as f64),
    ]);
    // Duplicate and zero columns: pivot ties and exactly-zero scales.
    let base = random_matrix(16, 5, 8);
    shapes.push(base.gather_cols(&[0, 1, 1, 2, 0, 3, 4, 4, 2]));
    let mut with_zeros = random_matrix(16, 10, 9);
    for i in 0..16 {
        with_zeros.set(i, 3, 0.0);
        with_zeros.set(i, 7, -0.0);
    }
    shapes.push(with_zeros);
    for a in &shapes {
        for tol in [0.0, 1e-2, 1e-7, 1e-12] {
            for cap in [usize::MAX, 3, 1, 0] {
                assert_matches_reference(a, tol, cap);
            }
        }
    }
}

/// The cases the one-pass form handles apart: a stop at step 0 and at
/// step 1 (the pivot column's pending update, then no pass), a rank cap
/// hit exactly, zero scales (columns of `0.0` and `-0.0`, and `-0.0`
/// entries in live columns), duplicate columns whose downdated norm
/// reaches exactly zero, pivot ties, and row counts of every residue mod
/// 4 (the pass's remainder rows).  Each premise is asserted on the oracle.
#[test]
fn one_pass_edge_cases_match_reference_bitwise() {
    // Stop at step 0: |R[0,0]| <= tol * |R[0,0]| for tol >= 1.
    let a = random_matrix(13, 9, 30);
    assert_eq!(assert_matches_reference(&a, 1.0, usize::MAX), 0);
    assert_eq!(assert_matches_reference(&a, 2.0, 4), 0);
    // Stop at step 1: a rank-one block.
    let one = low_rank_matrix(14, 11, 1, 31);
    assert_eq!(assert_matches_reference(&one, 1e-10, usize::MAX), 1);
    // A cap equal to the numerical rank, and to min(m, n).
    let five = low_rank_matrix(19, 12, 5, 33);
    assert_eq!(assert_matches_reference(&five, 1e-10, 5), 5);
    assert_eq!(assert_matches_reference(&five, 1e-10, usize::MAX), 5);
    assert_eq!(assert_matches_reference(&a, 0.0, 9), 9);
    // Exactly zero scales: a `0.0` and a `-0.0` column, and signed zeros
    // sprinkled through live columns.
    let mut zeros = random_matrix(18, 11, 34);
    for i in 0..18 {
        zeros.set(i, 2, 0.0);
        zeros.set(i, 9, -0.0);
        zeros.set(i, (i * 5) % 11, if i % 2 == 0 { -0.0 } else { 0.0 });
    }
    // Small integers, duplicate columns and equal norms: the downdated
    // norms of the duplicates reach exactly zero, and the pivot rule meets
    // ties (the last of equal norms wins).
    let ints = Matrix::from_fn(15, 6, |i, j| ((i * 3 + j * 5) % 7) as f64 - 3.0);
    let dups = ints.gather_cols(&[0, 1, 0, 2, 1, 3, 4, 5, 5, 2, 0]);
    let ties = Matrix::from_fn(12, 12, |i, j| if (i + 3 * j) % 12 == 0 { 1.0 } else { 0.0 });
    let mut cases = vec![
        zeros,
        dups,
        ties,
        Matrix::from_fn(6, 9, |_, j| (j % 3) as f64),
    ];
    // Every residue of the row count mod 4, tall and wide.
    for m in 13..=16 {
        cases.push(random_matrix(m, 10, m as u64));
        cases.push(random_matrix(m, m + 7, 50 + m as u64));
    }
    for a in &cases {
        for tol in [0.0, 1e-14, 1e-3] {
            for cap in [usize::MAX, 2, 1] {
                assert_matches_reference(a, tol, cap);
            }
        }
    }
}

/// `reuse_sweep`'s block shape: a Gaussian kernel between 64 covtype-like
/// points (d = 54) and 64 samples, at each rung of its accuracy ladder.
#[test]
fn matches_reference_at_reuse_sweep_shape() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(45);
    let points = |rng: &mut rand::rngs::StdRng| {
        (0..64)
            .map(|_| {
                (0..54)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>()
    };
    let (x, y) = (points(&mut rng), points(&mut rng));
    let at = Matrix::from_fn(64, 64, |s, c| {
        let d2: f64 = x[s].iter().zip(&y[c]).map(|(a, b)| (a - b) * (a - b)).sum();
        (-d2 / 2.0).exp()
    });
    for bacc in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
        assert_matches_reference(&at, bacc, 256);
    }
}

/// The oracle at the shapes the inspector factors on `sci_solve`: the
/// transposed sample block of its Gaussian-ridge kernel (bandwidth 8
/// spacings, ridge 32) over a 128 x 128 grid — 256 nearby plus 256
/// uniform sample rows by a patch of 64–320 candidate columns (ranks up to
/// ~200).  About 4 s in debug against 0.1 s in release, so CI runs it in
/// release as its own step.
#[test]
#[ignore = "release-only: cargo test --release -p matrox-linalg -- --ignored qr_matches_reference"]
fn qr_matches_reference_at_inspector_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let (side, h) = (128usize, 1.0 / 128.0);
    let kernel = |p: (usize, usize), q: (usize, usize)| {
        let d2 = ((p.0 as f64 - q.0 as f64) * h).powi(2) + ((p.1 as f64 - q.1 as f64) * h).powi(2);
        (-d2 / (2.0 * (8.0 * h) * (8.0 * h))).exp() + if d2 == 0.0 { 32.0 } else { 0.0 }
    };
    // A leaf's patch, then wider-spaced candidates (an internal node's
    // children's skeletons), with samples from a window around them.
    for (w, hgt, stride) in [(8, 8, 1), (16, 8, 1), (16, 16, 2), (20, 16, 3)] {
        let win = 32 + w * stride;
        let (x0, y0) = (rng.gen_range(0..side - win), rng.gen_range(0..side - win));
        let cand: Vec<_> = (0..w * hgt)
            .map(|c| (x0 + 16 + stride * (c % w), y0 + 16 + stride * (c / w)))
            .collect();
        let mut samples: Vec<_> = (0..256)
            .map(|_| (x0 + rng.gen_range(0..win), y0 + rng.gen_range(0..win)))
            .collect();
        samples.extend((0..256).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))));
        let at = Matrix::from_fn(512, cand.len(), |s, c| kernel(samples[s], cand[c]));
        for bacc in [1e-7, 1e-5] {
            assert_matches_reference(&at, bacc, 256);
        }
    }
}

/// Rank, permutation, `R`, skeleton and interpolation matrix of `qr` at
/// `stop` are, by bits, what a fresh factorization and ID on `disp` give
/// at `(tol, cap)`.
fn assert_fresh_at(
    disp: &KernelDispatch,
    a: &Matrix,
    qr: &ResumableQr,
    stop: QrStop,
    (tol, cap): (f64, usize),
    what: &str,
) {
    let bits = |r: &Matrix| r.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let what = format!(
        "{} arm, {:?} at tol {tol} cap {cap}, {what}",
        disp.name(),
        a.shape()
    );
    let want = disp.pivoted_qr(a.clone(), tol, cap);
    let got = qr.factor(stop);
    assert_eq!(stop.rank, want.rank, "rank, {what}");
    assert_eq!(got.rank, want.rank, "factor rank, {what}");
    assert_eq!(
        got.perm[..got.rank],
        want.perm[..want.rank],
        "perm[..k], {what}"
    );
    assert_eq!(got.perm, want.perm, "perm, {what}");
    assert_eq!(got.r.shape(), want.r.shape(), "R shape, {what}");
    assert_eq!(bits(&got.r), bits(&want.r), "R bits, {what}");
    let want = row_id_of_transpose(a.clone(), tol, cap);
    let got = row_id_of_qr(qr, stop);
    assert_eq!(got.rank, want.rank, "ID rank, {what}");
    assert_eq!(got.skeleton, want.skeleton, "skeleton, {what}");
    assert_eq!(
        got.interp.shape(),
        want.interp.shape(),
        "interp shape, {what}"
    );
    assert_eq!(bits(&got.interp), bits(&want.interp), "interp bits, {what}");
}

/// A pivoted QR paused at one stop and taken on to another — resumed to a
/// tighter one, read at a looser one, or moved through several in turn —
/// gives the fresh factorization and ID of every stop it was taken to, by
/// bits, on every arm.  The blocks: random ones, a Gaussian sample block,
/// an exactly rank-deficient one (stops on `alpha == 0`) and one of tied
/// pivot norms; the stops include rank caps below, at and above the
/// numerical rank.  Each premise is asserted on the oracle.
#[test]
fn paused_qr_resumes_and_reads_looser_stops_bitwise() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(49);
    let mut point = || {
        (0..54)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect::<Vec<f64>>()
    };
    let (x, y): (Vec<_>, Vec<_>) = (0..40).map(|_| (point(), point())).unzip();
    let gaussian = Matrix::from_fn(40, 36, |s, c| {
        let d2: f64 = x[s].iter().zip(&y[c]).map(|(a, b)| (a - b) * (a - b)).sum();
        (-d2 / 2.0).exp()
    });
    // Rows past the fourth are zero, and no update writes them: the fifth
    // step's pivot column is exactly zero.
    let mut deficient = random_matrix(14, 11, 63);
    for i in 4..14 {
        for j in 0..11 {
            deficient.set(i, j, 0.0);
        }
    }
    let ties = Matrix::from_fn(12, 12, |i, j| if (i + 3 * j) % 12 == 0 { 1.0 } else { 0.0 });
    assert_eq!(reference_qr(&deficient, 0.0, usize::MAX).rank, 4);
    assert!(reference_qr(&gaussian, 1e-6, usize::MAX).rank > 5);
    let blocks = [
        random_matrix(24, 18, 60),
        random_matrix(13, 31, 61),
        gaussian,
        deficient,
        ties,
    ];
    const ALL: usize = usize::MAX;
    let stops = [
        (1e-1, ALL),
        (1e-3, ALL),
        (1e-6, ALL),
        (0.0, ALL),
        (1e-6, 5),
        (0.0, 2),
    ];
    // Down the ladder, back up it, and interleaved, caps moving both ways.
    let hops = [
        (1e-1, ALL),
        (1e-3, ALL),
        (1e-6, 5),
        (1e-6, ALL),
        (1e-12, 3),
        (1e-2, ALL),
        (0.0, ALL),
        (1e-4, ALL),
        (1e-1, 2),
    ];
    for a in &blocks {
        for disp in arms() {
            for &first in &stops {
                for &second in &stops {
                    let mut qr = ResumableQr::new(a.clone());
                    let paused = disp.advance_qr(&mut qr, first.0, first.1);
                    let then = disp.advance_qr(&mut qr, second.0, second.1);
                    let what = format!("after {first:?}");
                    assert_fresh_at(&disp, a, &qr, then, second, &what);
                    assert_fresh_at(&disp, a, &qr, paused, first, "paused stop");
                }
            }
            let mut qr = ResumableQr::new(a.clone());
            let mut seen = Vec::new();
            for (hop, &at) in hops.iter().enumerate() {
                seen.push((at, disp.advance_qr(&mut qr, at.0, at.1)));
                for &(at, stop) in &seen {
                    assert_fresh_at(&disp, a, &qr, stop, at, &format!("hop {hop}"));
                }
            }
        }
    }
}
