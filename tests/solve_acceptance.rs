//! End-to-end acceptance for the HSS ULV factor + solve subsystem.
//!
//! On the canonical solve setting (kernel-ridge Gaussian over the 2-d grid,
//! HSS structure, `bacc = 1e-7` — see `matrox_bench::solve_setting`) the
//! solver must:
//!
//! 1. achieve a relative residual `||K x~ - b|| / ||b|| <= 1e-6` against the
//!    *exact* kernel matrix,
//! 2. match the dense Cholesky baseline's solution to the same tolerance
//!    (both factorizations share the `matrox_linalg` kernels, so the
//!    difference isolates the rank structure), and
//! 3. produce bitwise-identical solutions at 1, 2 and 4 threads;
//!
//! and, as the ridge falls towards singularity, stay within 4× of the
//! residual that substitution against the stored factors reached (the
//! conditioning wall).
//!
//! The full `N = 4096` configuration runs in release builds only (the dense
//! `O(N^3)` baseline is minutes-slow unoptimized); debug builds run the
//! identical checks at `N = 1024` so `cargo test` keeps the whole path
//! covered on every commit.

use matrox::baselines::DenseCholeskyBaseline;
use matrox::linalg::{frobenius_norm, Matrix};
use matrox::points::{generate, DatasetId, Kernel};
use matrox::{inspector, EvalSession, ExecOptions};
use matrox_bench::solve_setting;

fn acceptance_at(n: usize) {
    let points = generate(DatasetId::Grid, n, 0);
    let (kernel, params) = solve_setting(n, 1e-7);
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let fh = h
        .factorize()
        .expect("HSS SPD kernel-ridge matrix must factor");

    let b = Matrix::from_fn(n, 1, |i, _| ((i % 17) as f64 - 8.0) * 0.25);
    let x = fh.solve_matrix(&b).expect("solve");

    // (1) residual against the exact kernel matrix.
    let residual = fh.relative_residual(&points, &x, &b);
    assert!(
        residual <= 1e-6,
        "N = {n}: relative residual {residual:.3e} exceeds 1e-6"
    );

    // (2) agreement with the dense Cholesky baseline.
    let dense = DenseCholeskyBaseline::new(&points, &kernel).expect("dense kernel matrix is SPD");
    let xd = dense.solve_matrix(&b);
    let mut diff = xd.clone();
    diff.sub_assign(&x);
    let rel_diff = frobenius_norm(&diff) / frobenius_norm(&xd);
    assert!(
        rel_diff <= 1e-6,
        "N = {n}: solution differs from dense Cholesky by {rel_diff:.3e}"
    );

    // (3) bitwise determinism across pool widths, for factor AND solve.
    let mut runs: Vec<Matrix> = Vec::new();
    for &nt in &[1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let xi = pool.install(|| {
            let f = h
                .factorize_with(&ExecOptions::full())
                .expect("factor under pool");
            f.solve_matrix_with(&b, &ExecOptions::full())
                .expect("solve")
        });
        runs.push(xi);
    }
    for (i, xi) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            xi.as_slice(),
            runs[0].as_slice(),
            "N = {n}: solution at {} threads is not bitwise identical to 1 thread",
            [1usize, 2, 4][i]
        );
    }
}

/// Debug-profile variant: identical checks, tractable size.
#[cfg(debug_assertions)]
#[test]
fn solve_acceptance_n1024() {
    acceptance_at(1024);
}

/// The full acceptance configuration (`N = 4096`, `bacc = 1e-7`).  Release
/// builds only: the dense baseline is `O(N^3)` and the exact-residual check
/// `O(N^2)`.  Run with `cargo test --release --test solve_acceptance`.
#[cfg(not(debug_assertions))]
#[test]
fn solve_acceptance_n4096() {
    acceptance_at(4096);
}

/// The conditioning wall: on `solve_setting`'s bandwidth, with the ridge
/// lowered from the setting's 32 towards singularity, the solve's residual
/// against the *compressed* operator, `‖K~ x − b‖ / ‖b‖` with `K~ x` from
/// [`EvalSession::evaluate_vec`] (the executor, an independent path), stays
/// within 4× of what substitution against the stored factors reached.
///
/// This is the test that keeps the solve's inverses where they belong.
/// The sweeps apply stored `D_i^{-1}` and `M_p^{-1}`, but the factor's
/// `E_i = D_i^{-1} U_i` and `T_p = M_p^{-1} R~_p` stay substitutions: formed
/// as products with the inverse instead, `T_p` made this residual 27× worse
/// at ridge 1e-2 and 1200× worse at ridge 1e-4, because the error of an
/// explicit inverse grows with the condition number and `T_p` reaches every
/// column of every solve through the downward sweep.
fn conditioning_wall_at(n: usize, ceilings: [(f64, f64); 4]) {
    let points = generate(DatasetId::Grid, n, 0);
    let (setting, params) = solve_setting(n, 1e-7);
    let Kernel::GaussianRidge { bandwidth, .. } = setting else {
        panic!("solve_setting is a Gaussian-ridge kernel");
    };
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) * 0.25).collect();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    for (ridge, parent) in ceilings {
        let kernel = Kernel::GaussianRidge { bandwidth, ridge };
        let h = inspector(&points, &kernel, &params).expect("inspector");
        let session = EvalSession::from_hmatrix(h);
        let fh = session.factorize().expect("factor");
        let x = fh.solve(&b).expect("solve");
        let back = session.evaluate_vec(&x).expect("evaluate");
        let diff: Vec<f64> = back.iter().zip(&b).map(|(y, b)| y - b).collect();
        let residual = norm(&diff) / norm(&b);
        eprintln!("N = {n}, ridge {ridge:e}: residual against K~ {residual:.3e}");
        assert!(
            residual <= 4.0 * parent,
            "N = {n}, ridge {ridge:e}: residual {residual:.3e} is more than 4x the \
             substitution solve's {parent:.3e}"
        );
    }
}

/// Debug-profile variant of the conditioning wall.  The recorded values are
/// the substitution solve's, the larger of its SIMD and scalar arms'.
#[cfg(debug_assertions)]
#[test]
fn conditioning_wall_n1024() {
    conditioning_wall_at(
        1024,
        [
            (32.0, 7.91e-16),
            (1.0, 4.71e-13),
            (1e-2, 3.77e-9),
            (1e-4, 5.10e-5),
        ],
    );
}

/// The conditioning wall at the acceptance size, recorded as above.
#[cfg(not(debug_assertions))]
#[test]
fn conditioning_wall_n4096() {
    conditioning_wall_at(
        4096,
        [
            (32.0, 1.12e-15),
            (1.0, 2.46e-13),
            (1e-2, 2.44e-9),
            (1e-4, 4.77e-5),
        ],
    );
}
