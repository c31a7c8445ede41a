//! Property-based coverage for the ULV factor + solve subsystem.
//!
//! Random SPD kernel-ridge point sets (jittered grids, so the minimum point
//! separation — and with it the conditioning of the kernel matrix — is
//! bounded by construction) are compressed, factored and solved.  Two
//! properties are pinned:
//!
//! 1. **exactness on the compressed operator** — the sweeps invert `K~`
//!    itself, so `||K~ x - b|| / ||b||` must sit at machine-precision level
//!    (`< 1e-9` with a large margin for accumulated roundoff);
//! 2. **residual tracks `bacc`** — against the *exact* kernel matrix the
//!    relative residual is bounded by the compression error, which the
//!    block accuracy controls: `||K x - b|| / ||b|| <= C * bacc` with the
//!    documented constant `C = 100` (the bound is
//!    `||K - K~|| * ||x|| / ||b||`; the ridge `lambda >= 0.5` keeps
//!    `||x|| <= 2 ||b||` and exhaustive sampling keeps the block errors at
//!    `bacc`, so `C = 100` holds with more than an order of magnitude of
//!    slack on these geometries).

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::{execute, ExecOptions};
use matrox_factor::factor;
use matrox_linalg::{frobenius_norm, Matrix};
use matrox_points::{dense_kernel_matmul, Kernel, PointSet};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A jittered 2-d grid: `side^2` points with jitter bounded to 40% of the
/// spacing, so no two points come closer than `0.2 / side`.
fn jittered_grid(side: usize, seed: u64) -> PointSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let s = 1.0 / side as f64;
    let mut coords = Vec::with_capacity(side * side * 2);
    for i in 0..side {
        for j in 0..side {
            coords.push((i as f64 + 0.5 + rng.gen_range(-0.4..0.4)) * s);
            coords.push((j as f64 + 0.5 + rng.gen_range(-0.4..0.4)) * s);
        }
    }
    PointSet::new(2, coords)
}

fn build_plan(pts: &PointSet, kernel: &Kernel, bacc: f64) -> (ClusterTree, EvalPlan) {
    let tree = ClusterTree::build(pts, PartitionMethod::Auto, 32, 0);
    let htree = HTree::build(&tree, Structure::Hss);
    let sampling = sample_nodes_exhaustive(pts, &tree);
    let c = compress(
        pts,
        &tree,
        &htree,
        kernel,
        &sampling,
        &CompressionParams {
            bacc,
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
    (tree, plan)
}

/// The documented residual-tracking constant (see the module docs).
const RESIDUAL_C: f64 = 100.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn residual_tracks_bacc_on_random_spd_kernel_sets(
        side in 10usize..17,
        seed in 0u64..1000,
        bw_mult in 1.0f64..3.0,
        ridge in 0.5f64..4.0,
        tight in 0u8..2,
    ) {
        let bacc = if tight == 1 { 1e-6 } else { 1e-4 };
        let pts = jittered_grid(side, seed);
        let n = pts.len();
        let kernel = Kernel::GaussianRidge {
            bandwidth: bw_mult / side as f64,
            ridge,
        };
        let (tree, plan) = build_plan(&pts, &kernel, bacc);
        let f = factor(&plan, &tree, &ExecOptions::full()).expect("SPD kernel-ridge must factor");

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xdead);
        let b = Matrix::random_uniform(n, 2, &mut rng);
        let x = f.solve_matrix(&plan, &tree, &b, &ExecOptions::full()).expect("solve");
        let bnorm = frobenius_norm(&b);

        // Property 1: the sweeps invert the compressed operator exactly.
        let mut r_tilde = execute(&plan, &tree, &x, &ExecOptions::sequential());
        r_tilde.sub_assign(&b);
        let res_tilde = frobenius_norm(&r_tilde) / bnorm;
        prop_assert!(res_tilde < 1e-9, "compressed residual {res_tilde:e}");

        // Property 2: against the exact kernel, the residual tracks bacc.
        let mut r = dense_kernel_matmul(&pts, &kernel, &x);
        r.sub_assign(&b);
        let res = frobenius_norm(&r) / bnorm;
        prop_assert!(
            res <= RESIDUAL_C * bacc,
            "residual {res:e} exceeds {RESIDUAL_C} * bacc = {:e}",
            RESIDUAL_C * bacc
        );
    }

    #[test]
    fn multi_rhs_solve_matches_column_wise_solves(
        side in 10usize..14,
        seed in 0u64..1000,
    ) {
        let pts = jittered_grid(side, seed);
        let n = pts.len();
        let kernel = Kernel::GaussianRidge {
            bandwidth: 1.5 / side as f64,
            ridge: 1.0,
        };
        let (tree, plan) = build_plan(&pts, &kernel, 1e-6);
        let f = factor(&plan, &tree, &ExecOptions::full()).expect("factor");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbeef);
        let b = Matrix::random_uniform(n, 3, &mut rng);
        let x = f.solve_matrix(&plan, &tree, &b, &ExecOptions::full()).expect("solve");
        for c in 0..3 {
            let bc = b.col(c);
            let xc = f.solve(&plan, &tree, &bc, &ExecOptions::full()).expect("solve");
            // Column-wise and blocked solves run the identical arithmetic
            // per column, so they agree bitwise.
            prop_assert_eq!(&xc, &x.col(c), "column {} diverged", c);
        }
    }
}
