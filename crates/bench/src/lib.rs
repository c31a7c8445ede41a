//! # matrox-bench
//!
//! Shared infrastructure for the benchmark harnesses that regenerate every
//! table and figure of the MatRox paper's evaluation (Section 4 and 5).
//!
//! Each experiment has a binary harness (`cargo run -p matrox-bench --release
//! --bin figN`) that prints the same rows/series the paper reports.  Absolute
//! numbers differ from the paper (different machine, no MKL, scaled-down N —
//! see DESIGN.md substitutions S1/S2/S6); the harnesses are about reproducing
//! the *shape* of each result.  Performance numbers that gate a change come
//! from `benchmark/` (BENCHMARK.json), not from here.

#![forbid(unsafe_code)]

pub mod harness;

use matrox_baselines::GofmmEvaluator;
use matrox_cachesim::Trace;
use matrox_codegen::EvalPlan;
use matrox_compress::{compress, Compression, CompressionParams};
use matrox_core::{inspector, HMatrix, MatRoxParams, MatroxError};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_sampling::sample_nodes;
use matrox_tree::{ClusterTree, HTree, Structure};
use rayon::prelude::*;
use std::collections::HashSet;
// CONCURRENCY: the pool self-check observes which OS threads execute a
// parallel region by collecting thread ids into a Mutex'd set — measurement
// plumbing on a cold path, not part of any measured loop.
use std::sync::Mutex;
use std::time::Instant;

pub use harness::{
    json_f64, json_opt, pool_banner, self_check_json, write_bench_json, HarnessArgs,
};

/// Default problem size used by the harnesses (scaled down from the paper's
/// 10k–100k so that exact reference products stay tractable).
pub const DEFAULT_N: usize = 2048;

/// Default number of right-hand-side columns, scaled down from the paper's
/// Q = 2K in the same proportion as N.
pub const DEFAULT_Q: usize = 256;

/// The kernel the paper uses for a dataset: Gaussian (bandwidth 5) for the
/// machine-learning sets, the SMASH inverse-distance kernel for the
/// scientific sets.
pub fn kernel_for(dataset: DatasetId) -> Kernel {
    if dataset.is_scientific() {
        Kernel::smash_default()
    } else {
        Kernel::Gaussian { bandwidth: 5.0 }
    }
}

/// MatRox parameters for a structure with the paper's defaults.
pub fn params_for(structure: Structure) -> MatRoxParams {
    MatRoxParams {
        structure,
        ..MatRoxParams::default()
    }
}

/// The canonical *solve* scenario setting shared by the `fig_solve`
/// harness, the benchmark's `sci_solve` / `serve_wire` workloads and the
/// acceptance tests: a kernel-ridge Gaussian matrix `K + lambda I` over the
/// 2-d grid, compressed with HSS.
///
/// The knobs balance two opposing pressures (measured by `fig_solve`):
/// the bandwidth must be large enough relative to the grid spacing
/// (`8x`) that the sampled interpolative decompositions capture the far
/// field accurately, while the ridge (`lambda = 32`) keeps the otherwise
/// numerically rank-deficient Gaussian matrix SPD with margin — exactly the
/// kernel-ridge-regression workload structured solvers target.  The enlarged
/// sampling size (256) buys roughly an order of magnitude of end-to-end
/// residual over the matmul default of 32.  With `bacc = 1e-7` this setting
/// achieves a relative residual around `1e-7` at `N = 4096`.
pub fn solve_setting(n: usize, bacc: f64) -> (Kernel, MatRoxParams) {
    let spacing = 1.0 / (n as f64).sqrt();
    let kernel = Kernel::GaussianRidge {
        bandwidth: 8.0 * spacing,
        ridge: 32.0,
    };
    let mut params = params_for(Structure::Hss).with_bacc(bacc);
    params.sampling.sampling_size = 256;
    params.sampling.uniform_samples = 256;
    (kernel, params)
}

/// Doubling size sweep `start, 2*start, 4*start, ...` capped at `cap`.
/// Total for every input: a cap below the start yields `[cap]` (run the
/// size the caller asked for rather than a larger one), and zeros are
/// clamped to 1 — the result is never empty, so sweep loops can use
/// `sweep.last()` without a panic path.
pub fn doubling_sweep(start: usize, cap: usize) -> Vec<usize> {
    let start = start.max(1);
    let cap = cap.max(1);
    if cap < start {
        return vec![cap];
    }
    let mut ns = vec![start];
    let mut next = start.checked_mul(2);
    while let Some(v) = next {
        if v > cap {
            break;
        }
        ns.push(v);
        next = v.checked_mul(2);
    }
    ns
}

/// Generate a dataset and compress it with MatRox, returning both.
///
/// # Errors
/// Propagates the inspector's [`MatroxError`] (bad points/parameters).
pub fn build_hmatrix(
    dataset: DatasetId,
    n: usize,
    structure: Structure,
    bacc: f64,
) -> Result<(PointSet, HMatrix), MatroxError> {
    let points = generate(dataset, n, 0);
    let kernel = kernel_for(dataset);
    let params = params_for(structure).with_bacc(bacc);
    let h = inspector(&points, &kernel, &params)?;
    Ok((points, h))
}

/// Everything the tree-based baselines need, built from the same settings the
/// MatRox pipeline uses.
pub struct BaselineSetup {
    /// Cluster tree shared by the baselines.
    pub tree: ClusterTree,
    /// HTree for the requested structure.
    pub htree: HTree,
    /// Compression output in tree-based (per-block) storage.
    pub compression: Compression,
    /// Wall-clock time of the compression (the baselines' "compression" bar).
    pub compression_time: f64,
}

/// Build the tree-based compression used by the GOFMM/STRUMPACK/SMASH
/// baselines.
pub fn build_baseline(
    points: &PointSet,
    dataset: DatasetId,
    structure: Structure,
    bacc: f64,
) -> BaselineSetup {
    let kernel = kernel_for(dataset);
    let params = params_for(structure);
    let t0 = Instant::now();
    let tree = ClusterTree::build(points, params.partition, params.leaf_size, params.seed);
    let htree = HTree::build(&tree, structure);
    let sampling = sample_nodes(points, &tree, &kernel, &params.sampling);
    let compression = compress(
        points,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc,
            max_rank: params.max_rank,
            grain: params.grain,
        },
    );
    BaselineSetup {
        tree,
        htree,
        compression,
        compression_time: t0.elapsed().as_secs_f64(),
    }
}

/// Result of [`pool_self_check`]: what the thread pool actually delivered at
/// harness start, measured rather than assumed.
#[derive(Debug, Clone)]
pub struct PoolSelfCheck {
    /// Worker threads the swept pools are configured with (host parallelism).
    pub configured_threads: usize,
    /// Distinct worker threads observed executing tasks of a trivially
    /// parallel region on a `configured_threads`-wide pool.
    pub observed_width: usize,
    /// Wall-clock of the calibration region on a 1-thread pool (seconds).
    pub t1: f64,
    /// Wall-clock of the same region on the full-width pool (seconds).
    pub tn: f64,
    /// `t1 / tn`; ~1.0 on a single-core host, >1 wherever the OS can
    /// actually schedule the workers concurrently.
    pub speedup: f64,
}

impl PoolSelfCheck {
    /// One-line human-readable report for harness headers.
    pub fn report(&self) -> String {
        format!(
            "pool self-check: observed {} worker thread(s) on a {}-thread pool; \
             trivially parallel region: {:.1} ms at 1 thread, {:.1} ms at {} \
             ({:.2}x observed speedup)",
            self.observed_width,
            self.configured_threads,
            self.t1 * 1e3,
            self.tn * 1e3,
            self.configured_threads,
            self.speedup
        )
    }
}

/// CPU-bound calibration task: a deterministic float recurrence the
/// optimizer cannot fold away (result is consumed via `black_box`).
fn calibration_task(seed: usize) -> f64 {
    let mut x = 1.0 + seed as f64 * 1e-3;
    for _ in 0..200_000 {
        x = (x * 1.000000001 + 1e-9).min(2.0);
    }
    std::hint::black_box(x)
}

/// Measure what the thread pool actually does: run a trivially parallel
/// region on a 1-thread pool and on a host-width pool, report the observed
/// pool width and speedup.  This replaces the old hard-coded "the vendored
/// rayon stub is sequential" banners — the harness now *checks* instead of
/// asserting a stale fact.
///
/// # Errors
/// [`MatroxError::PoolPanic`] when the calibration pools cannot be built
/// (thread spawn refused by the OS).
pub fn pool_self_check() -> Result<PoolSelfCheck, MatroxError> {
    let configured = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let tasks = configured * 8;

    let pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| {
                MatroxError::PoolPanic(format!(
                    "self-check: failed to build {threads}-thread pool: {e}"
                ))
            })
    };
    let pool_n = pool(configured)?;
    let pool_1 = pool(1)?;

    // Observed width: collect the distinct worker thread ids that execute
    // the region's tasks.  With 8 items per worker the bridge's default
    // grain (~4 pieces per worker) yields ~4 leaf tasks per worker — several
    // times the pool width, so every worker has something to steal.
    let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    pool_n.install(|| {
        (0..tasks).into_par_iter().for_each(|i| {
            ids.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(std::thread::current().id());
            std::hint::black_box(calibration_task(i));
        });
    });
    let observed_width = ids
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();

    let region = |pool: &rayon::ThreadPool| {
        time_best(
            || {
                pool.install(|| {
                    (0..tasks)
                        .into_par_iter()
                        .map(calibration_task)
                        .sum::<f64>()
                })
            },
            3,
        )
        .1
    };
    let t1 = region(&pool_1);
    let tn = region(&pool_n);
    Ok(PoolSelfCheck {
        configured_threads: configured,
        observed_width,
        t1,
        tn,
        speedup: if tn > 0.0 { t1 / tn } else { 1.0 },
    })
}

/// Time a closure, returning `(result, seconds)` for the best of `reps` runs.
pub fn time_best<T, F: FnMut() -> T>(mut f: F, reps: usize) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

/// GFLOP/s given a flop count and seconds.
pub fn gflops(flops: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        flops as f64 / secs / 1e9
    }
}

/// A random `n x q` right-hand-side matrix (the paper multiplies the HMatrix
/// with a randomly generated dense W).
pub fn random_w(n: usize, q: usize, seed: u64) -> Matrix {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    Matrix::random_uniform(n, q, &mut rng)
}

/// Evaluate the GOFMM-style baseline once (parallel, dynamic scheduling).
pub fn gofmm_evaluate(setup: &BaselineSetup, w: &Matrix) -> Matrix {
    GofmmEvaluator::new(&setup.tree, &setup.htree, &setup.compression).evaluate(w)
}

/// Build the memory-access trace of the panel-blocked executor: the CDS
/// buffers and the permuted W/Y panels are visited in the order the four
/// phases touch them, once per RHS panel of `panel_width` columns
/// (`panel_width >= q` reproduces the unblocked full-Q walk).
///
/// Used to validate the automatically chosen panel width with the cachesim
/// model (DESIGN.md): the chosen width's replayed miss ratios must not be
/// worse than the full-Q walk's.
pub fn executor_panel_trace(
    plan: &EvalPlan,
    tree: &ClusterTree,
    q: usize,
    panel_width: usize,
) -> Trace {
    const F64: usize = std::mem::size_of::<f64>();
    let cds = &plan.cds;
    let mut t = Trace::new();
    // Synthetic contiguous layout: [d_values | gen_values | b_values | W | Y].
    let d_base = 0u64;
    let gen_base = d_base + (cds.d_values.len() * F64) as u64;
    let b_base = gen_base + (cds.gen_values.len() * F64) as u64;
    let w_base = b_base + (cds.b_values.len() * F64) as u64;
    let n = tree.perm.len();
    let y_base = w_base + (n * q * F64) as u64;

    let qp = panel_width.clamp(1, q.max(1));
    let mut j0 = 0;
    while j0 < q {
        let width = qp.min(q - j0);
        // Near phase: D blocks in CDS order plus the W/Y panel rows they
        // touch (panel rows are contiguous per node in the permuted buffer).
        for e in &cds.d_entries {
            t.record(d_base + (e.offset * F64) as u64, e.rows * e.cols * F64);
            let sn = &tree.nodes[e.source];
            let tn = &tree.nodes[e.target];
            t.record(
                w_base + ((sn.start * q + j0 * sn.num_points()) * F64) as u64,
                sn.num_points() * width * F64,
            );
            t.record(
                y_base + ((tn.start * q + j0 * tn.num_points()) * F64) as u64,
                tn.num_points() * width * F64,
            );
        }
        // Upward: V generators in coarsenset order; leaves read their W panel.
        for cl in &plan.coarsenset.levels {
            for part in cl {
                for &id in part {
                    let g = &cds.generators[id];
                    if !g.is_present() {
                        continue;
                    }
                    t.record(gen_base + (g.v_offset * F64) as u64, g.rows * g.cols * F64);
                    if tree.nodes[id].is_leaf() {
                        let nd = &tree.nodes[id];
                        t.record(
                            w_base + ((nd.start * q + j0 * nd.num_points()) * F64) as u64,
                            nd.num_points() * width * F64,
                        );
                    }
                }
            }
        }
        // Coupling: B blocks in CDS order.
        for e in &cds.b_entries {
            t.record(b_base + (e.offset * F64) as u64, e.rows * e.cols * F64);
        }
        // Downward: U generators in reverse coarsen order; leaves write Y.
        for cl in plan.coarsenset.levels.iter().rev() {
            for part in cl {
                for &id in part.iter().rev() {
                    let g = &cds.generators[id];
                    if !g.is_present() {
                        continue;
                    }
                    t.record(gen_base + (g.u_offset * F64) as u64, g.rows * g.cols * F64);
                    if tree.nodes[id].is_leaf() {
                        let nd = &tree.nodes[id];
                        t.record(
                            y_base + ((nd.start * q + j0 * nd.num_points()) * F64) as u64,
                            nd.num_points() * width * F64,
                        );
                    }
                }
            }
        }
        j0 += width;
    }
    t
}

/// Coefficient of determination (R²) of a least-squares line through the
/// given points; used by the Figure 6 harness.
pub fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 1.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 1.0;
    }
    (sxy * sxy) / (sxx * syy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_squared_of_perfect_line_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((r_squared(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_of_noise_is_small() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ys = [3.0, -1.0, 4.0, -2.0, 3.5, -0.5];
        assert!(r_squared(&xs, &ys) < 0.5);
    }

    #[test]
    fn doubling_sweep_is_total() {
        assert_eq!(doubling_sweep(512, 4096), vec![512, 1024, 2048, 4096]);
        assert_eq!(doubling_sweep(512, 4095), vec![512, 1024, 2048]);
        assert_eq!(doubling_sweep(512, 512), vec![512]);
        // Cap below the start: run the requested size, don't panic and
        // don't silently run a larger problem than asked for.
        assert_eq!(doubling_sweep(512, 100), vec![100]);
        // Degenerate inputs are clamped, never empty.
        assert_eq!(doubling_sweep(0, 0), vec![1]);
        assert_eq!(doubling_sweep(0, 4), vec![1, 2, 4]);
        assert!(!doubling_sweep(usize::MAX, usize::MAX).is_empty());
    }

    #[test]
    fn harness_pipeline_smoke_test() {
        let (points, h) = build_hmatrix(DatasetId::Unit, 512, Structure::Hss, 1e-4).expect("build");
        let w = random_w(points.len(), 4, 1);
        let y = h.matmul(&w).expect("matmul");
        assert_eq!(y.shape(), (512, 4));
        let setup = build_baseline(&points, DatasetId::Unit, Structure::Hss, 1e-4);
        let yb = gofmm_evaluate(&setup, &w);
        assert!(matrox_linalg::relative_error(&yb, &y) < 1e-3);
    }

    #[test]
    fn kernel_selection_matches_paper_settings() {
        assert_eq!(kernel_for(DatasetId::Covtype).name(), "gaussian");
        assert_eq!(kernel_for(DatasetId::Grid).name(), "inverse-distance");
    }
}
