//! Cross-thread-width determinism of factor + solve, mirroring
//! `crates/exec/tests/determinism.rs`.
//!
//! The factorization and both solve sweeps parallelize over nodes within a
//! tree level, and every node's arithmetic is sequential and independent of
//! the pool width.  So — exactly like the executor's conflict-free
//! schedules — the factors and the solutions must be *bitwise identical* at
//! every pool width, and so must the solutions whose panels are gathered
//! and scattered on the pool.
//!
//! The same goes for the columns of one solve: a column's arithmetic is the
//! per-column chain of `matrox_linalg::solve` plus the dispatched GEMM, so
//! `solve_matrix(B)[:, j]` is `solve(B[:, j])` to the bit whatever the
//! number of columns, the panel width, or where a panel boundary falls.
//! `matrox-serve` coalesces solves on exactly this; it is stated here, at
//! the layer that owns it.

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::ExecOptions;
use matrox_factor::factor;
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
use rand::SeedableRng;

fn fixture(n: usize) -> (ClusterTree, EvalPlan, Matrix) {
    let pts = generate(DatasetId::Grid, n, 77);
    let spacing = 1.0 / (n as f64).sqrt();
    let kernel = Kernel::GaussianRidge {
        bandwidth: 4.0 * spacing,
        ridge: 1.0,
    };
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
    let htree = HTree::build(&tree, Structure::Hss);
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
    let b = Matrix::random_uniform(n, 5, &mut rng);
    (tree, plan, b)
}

#[test]
fn factor_and_solve_are_deterministic_across_thread_counts() {
    let (tree, plan, b) = fixture(512);

    // Sequential reference (no pool involvement at all).
    let f_ref = factor(&plan, &tree, &ExecOptions::sequential()).expect("factor");
    let x_ref = f_ref
        .solve_matrix(&plan, &tree, &b, &ExecOptions::sequential())
        .expect("solve");

    for &nt in &[1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let (f, x) = pool.install(|| {
            let f = factor(&plan, &tree, &ExecOptions::full()).expect("factor");
            let x = f
                .solve_matrix(&plan, &tree, &b, &ExecOptions::full())
                .expect("solve");
            (f, x)
        });
        assert_eq!(
            f.nodes, f_ref.nodes,
            "node factors at {nt} threads differ from sequential"
        );
        assert_eq!(
            x.as_slice(),
            x_ref.as_slice(),
            "solution at {nt} threads is not bitwise identical to sequential"
        );
    }
}

/// A panel of at least 65 536 values (the executor's `PERM_PAR_ELEMS`; here
/// 512 x 160, one panel) is gathered into tree order and scattered back on
/// the pool whenever a lowering is on.  Those copies must move no bit: the
/// solve under the plan's own lowering at pool widths 1, 2 and 4 and the
/// sequential solve, which copies on the calling thread, agree bitwise.
#[test]
fn parallel_permute_solves_the_sequential_bits() {
    const Q: usize = 160;
    let (tree, plan, _) = fixture(512);
    let l = plan.decisions;
    assert!(
        l.block_near || l.block_far || l.coarsen_tree,
        "the plan lowers nothing, so nothing copies on the pool"
    );
    let f = factor(&plan, &tree, &ExecOptions::sequential()).expect("factor");
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let b = Matrix::random_uniform(512, Q, &mut rng);
    let solve = |opts: ExecOptions| {
        f.solve_matrix(&plan, &tree, &b, &opts.with_panel_width(Q))
            .expect("solve")
    };
    let seq = solve(ExecOptions::sequential());
    for nt in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let x = pool.install(|| solve(ExecOptions::from_plan(&plan)));
        assert!(
            bitwise_eq(x.as_slice(), seq.as_slice()),
            "{nt} workers: the pool's permute changed the solution"
        );
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn solve_matrix_columns_are_bitwise_the_single_vector_solves() {
    let n = 256;
    let (tree, plan, _) = fixture(n);
    let f = factor(&plan, &tree, &ExecOptions::sequential()).expect("factor");
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let wide = Matrix::random_uniform(n, 300, &mut rng);
    let single = |j: usize| {
        f.solve(&plan, &tree, &wide.col(j), &ExecOptions::sequential())
            .expect("solve")
    };
    let singles: Vec<Vec<f64>> = (0..200).map(single).collect();
    let check = |q: usize, opts: ExecOptions, what: &str| {
        let b = Matrix::from_fn(n, q, |i, j| wide.get(i, j));
        let x = f.solve_matrix(&plan, &tree, &b, &opts).expect("solve");
        assert_eq!(x.shape(), (n, q));
        for (j, single) in singles.iter().enumerate().take(q) {
            assert!(
                bitwise_eq(&x.col(j), single),
                "{what}, q = {q}: column {j} is not the single-vector solve"
            );
        }
        x
    };
    for q in [1usize, 3, 8, 17, 200] {
        check(q, ExecOptions::sequential(), "auto panel, sequential");
        check(q, ExecOptions::full(), "auto panel, parallel");
        // Explicit widths put panel boundaries everywhere; 1 makes every
        // column its own panel.
        for panel in [1usize, 8, 64] {
            let opts = ExecOptions::full().with_panel_width(panel);
            check(q, opts, &format!("panel width {panel}"));
        }
    }
    // 300 columns cross the automatic panel boundary at 256.
    let x = check(300, ExecOptions::full(), "auto panel, two panels");
    for j in [255, 256, 299] {
        assert!(
            bitwise_eq(&x.col(j), &single(j)),
            "auto panel, q = 300: column {j} is not the single-vector solve"
        );
    }
}

#[test]
fn zero_column_right_hand_side_solves_to_zero_columns() {
    let (tree, plan, _) = fixture(256);
    let f = factor(&plan, &tree, &ExecOptions::sequential()).expect("factor");
    let x = f
        .solve_matrix(&plan, &tree, &Matrix::zeros(256, 0), &ExecOptions::full())
        .expect("solve");
    assert_eq!(x.shape(), (256, 0));
}
