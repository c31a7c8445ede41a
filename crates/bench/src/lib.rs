//! # matrox-bench
//!
//! The one scenario definition the benchmark (`benchmark/`, workloads
//! `sci_solve` and `serve_wire`) and the root package's
//! `tests/solve_acceptance.rs` share.  Performance numbers come from
//! `benchmark/` (BENCHMARK.json); the paper's figures are illustrated by the
//! programs under `examples/` (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use matrox_core::MatRoxParams;
use matrox_points::Kernel;
use matrox_tree::Structure;

/// The canonical *solve* scenario setting shared by the benchmark's
/// `sci_solve` / `serve_wire` workloads and the acceptance tests: a
/// kernel-ridge Gaussian matrix `K + lambda I` over the 2-d grid, compressed
/// with HSS.
///
/// The knobs balance two opposing pressures: the bandwidth must be large
/// enough relative to the grid spacing (`8x`) that the sampled interpolative
/// decompositions capture the far field accurately, while the ridge
/// (`lambda = 32`) keeps the otherwise numerically rank-deficient Gaussian
/// matrix SPD with margin — exactly the kernel-ridge-regression workload
/// structured solvers target.  The enlarged sampling size (256) buys roughly
/// an order of magnitude of end-to-end residual over the matmul default of
/// 32.  With `bacc = 1e-7` this setting achieves a relative residual around
/// `1e-7` at `N = 4096`.
pub fn solve_setting(n: usize, bacc: f64) -> (Kernel, MatRoxParams) {
    let spacing = 1.0 / (n as f64).sqrt();
    let kernel = Kernel::GaussianRidge {
        bandwidth: 8.0 * spacing,
        ridge: 32.0,
    };
    let mut params = MatRoxParams {
        structure: Structure::Hss,
        ..MatRoxParams::default()
    }
    .with_bacc(bacc);
    params.sampling.sampling_size = 256;
    params.sampling.uniform_samples = 256;
    (kernel, params)
}
