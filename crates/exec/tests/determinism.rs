//! Parallel determinism: the conflict-free-scheduling claim, pinned.
//!
//! MatRox's executor parallelizes only across disjoint output regions
//! (blockset groups own their target nodes, coarsen partitions own their
//! sub-trees), so no floating-point reduction ever changes its association
//! order with the thread count.  These tests pin that claim: the fully
//! parallel executor must match the sequential result within 1e-12 at every
//! swept pool width for all three structures, and — stronger — the parallel
//! result must be *bitwise identical* across pool widths.

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::{execute, ExecOptions};
use matrox_linalg::{relative_error, Matrix};
use matrox_points::{generate, DatasetId, Kernel};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
use rand::SeedableRng;

fn fixture(
    dataset: DatasetId,
    n: usize,
    structure: Structure,
    q: usize,
) -> (ClusterTree, EvalPlan, Matrix) {
    let pts = generate(dataset, n, 77);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
    let htree = HTree::build(&tree, structure);
    let sampling = sample_nodes_exhaustive(&pts, &tree);
    let c = compress(
        &pts,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: 1e-7,
            max_rank: 256,
            grain: 0,
        },
    );
    let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
    let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
    let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
    let cds = build_cds(&tree, &c, &near, &far, &cs);
    let plan = generate_plan(
        near,
        far,
        cs,
        cds,
        tree.height,
        tree.leaves().len(),
        &CodegenParams::default(),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let w = Matrix::random_uniform(n, q, &mut rng);
    (tree, plan, w)
}

fn check_structure(dataset: DatasetId, structure: Structure, q: usize) {
    let (tree, plan, w) = fixture(dataset, 512, structure, q);
    let y_seq = execute(&plan, &tree, &w, &ExecOptions::sequential());

    let mut parallel_runs: Vec<Matrix> = Vec::new();
    for &nt in &[1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let y = pool.install(|| execute(&plan, &tree, &w, &ExecOptions::full()));
        assert!(
            relative_error(&y, &y_seq) < 1e-12,
            "parallel executor at {nt} threads diverged from sequential"
        );
        parallel_runs.push(y);
    }

    // Conflict-free scheduling means the parallel path is not merely close
    // to sequential but independent of the pool width down to the last bit.
    for (i, y) in parallel_runs.iter().enumerate().skip(1) {
        assert_eq!(
            y.as_slice(),
            parallel_runs[0].as_slice(),
            "parallel result at {} threads is not bitwise identical to 1 thread",
            [1usize, 2, 4][i]
        );
    }
}

#[test]
fn deterministic_across_thread_counts_hss() {
    check_structure(DatasetId::Grid, Structure::Hss, 6);
}

#[test]
fn deterministic_across_thread_counts_h2b() {
    check_structure(DatasetId::Susy, Structure::h2b(), 4);
}

#[test]
fn deterministic_across_thread_counts_geometric() {
    check_structure(DatasetId::Random, Structure::Geometric { tau: 0.65 }, 5);
}

/// Every explicit kernel selection must hold the bitwise thread-width
/// invariant on its own: for a *fixed* kernel the executor's output may not
/// depend on the pool width, the grain, or the RHS panel width.  (Scalar
/// runs the portable fallback even on SIMD hosts; Avx2 degrades to scalar
/// on hosts without the features — both ways the pinned-kernel contract
/// must hold.)
#[test]
fn fixed_kernel_is_deterministic_across_threads_and_panels() {
    use matrox_linalg::KernelChoice;
    let (tree, plan, w) = fixture(DatasetId::Grid, 512, Structure::h2b(), 9);
    for kernel in [KernelChoice::Scalar, KernelChoice::Avx2] {
        let opts = ExecOptions::full().with_kernel(kernel);
        let mut runs: Vec<Matrix> = Vec::new();
        for &nt in &[1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(nt)
                .build()
                .unwrap();
            runs.push(pool.install(|| execute(&plan, &tree, &w, &opts)));
        }
        for y in &runs[1..] {
            assert_eq!(
                y.as_slice(),
                runs[0].as_slice(),
                "kernel {kernel:?}: result depends on the pool width"
            );
        }
        for panel in [1usize, 4, 32] {
            let y = execute(&plan, &tree, &w, &opts.with_panel_width(panel));
            assert_eq!(
                y.as_slice(),
                runs[0].as_slice(),
                "kernel {kernel:?}: panel width {panel} changed results"
            );
        }
        // And the sequential lowering agrees bit-for-bit with the parallel
        // one under the same kernel.
        let seq = execute(
            &plan,
            &tree,
            &w,
            &ExecOptions::sequential().with_kernel(kernel),
        );
        assert_eq!(seq.as_slice(), runs[0].as_slice());
    }
}

/// The grain knob must change scheduling only, never results.
#[test]
fn grain_settings_do_not_change_results() {
    let (tree, plan, w) = fixture(DatasetId::Grid, 512, Structure::Geometric { tau: 0.65 }, 3);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let base = pool.install(|| execute(&plan, &tree, &w, &ExecOptions::full()));
    for grain in [1usize, 2, 7, 64] {
        let y = pool.install(|| execute(&plan, &tree, &w, &ExecOptions::full().with_grain(grain)));
        assert_eq!(
            y.as_slice(),
            base.as_slice(),
            "grain {grain} changed the numerical result"
        );
    }
}
