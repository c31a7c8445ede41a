//! The executor's panel loop must be allocation-free.
//!
//! `execute_prepared` allocates the output matrix plus four per-evaluation
//! scratch buffers up front; processing additional RHS panels must not
//! allocate at all (no `HashMap` rebuilds, no per-node temporaries — the
//! PR-4 follow-up this suite pins).  The test counts allocations with the
//! workspace's shared probe and asserts that an evaluation spanning many
//! panels performs exactly as many allocations as one spanning a single
//! panel.
//!
//! The count is process-wide (the pool's workers allocate on their own
//! threads), so every test runs its whole body inside one outer `measure`:
//! the probe's lock then keeps another test's fixture building out of this
//! test's readings at any libtest thread count.

use matrox_analysis::{
    build_blockset, build_cds_with_grain, build_coarsenset, generate_plan, CoarsenParams,
    CodegenParams, EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::{execute_prepared, ExecOptions, PreparedExec};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
use rand::SeedableRng;

#[path = "../../core/tests/support/alloc_probe.rs"]
mod alloc_probe;
use alloc_probe::measure;

fn fixture(n: usize) -> (ClusterTree, EvalPlan) {
    fixture_with_grain(n, 0)
}

/// The same fixture with an explicit CDS packing grain, so the suite can
/// pin that a plan packed by the parallel inspector (grain 1: every slot a
/// separate pool job) drives the executor exactly like the auto-grain one.
fn fixture_with_grain(n: usize, grain: usize) -> (ClusterTree, EvalPlan) {
    let pts = generate(DatasetId::Grid, n, 77);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
    let htree = HTree::build(&tree, Structure::h2b());
    let sampling = sample_nodes_exhaustive(&pts, &tree);
    let c = compress(
        &pts,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: 1e-6,
            max_rank: 256,
            grain: 0,
        },
    );
    let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
    let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
    let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
    let cds = build_cds_with_grain(&tree, &c, &near, &far, &cs, grain);
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

fn rhs(n: usize, q: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::random_uniform(n, q, &mut rng)
}

/// Allocations performed by one `execute_prepared` call.
fn allocs_for(plan: &EvalPlan, tree: &ClusterTree, prep: &PreparedExec, w: &Matrix) -> u64 {
    let (y, reading) = measure(|| execute_prepared(plan, tree, prep, w));
    assert!(y.rows() > 0); // keep the evaluation observable
    reading.allocs
}

fn check(opts: ExecOptions, panel: usize, bound_single: u64) {
    // Miri interprets the whole pipeline (compression included) ~100x
    // slower; a 2-leaf tree and two panels still drive every RawSlots
    // raw-slicing path, which is what the Miri leg is for.
    const N: usize = if cfg!(miri) { 64 } else { 256 };
    const PANELS_MANY: usize = if cfg!(miri) { 2 } else { 8 };
    let (tree, plan) = fixture(N);
    let prep = PreparedExec::new(&plan, &tree, &opts.with_panel_width(panel));
    let w_one = rhs(N, panel, 3); // exactly one panel
    let w_many = rhs(N, PANELS_MANY * panel, 4);
    // Warm up: thread-local pack buffers, lazy pool spawn, env caches.
    for _ in 0..2 {
        let _ = execute_prepared(&plan, &tree, &prep, &w_many);
    }
    let one = allocs_for(&plan, &tree, &prep, &w_one);
    let many = allocs_for(&plan, &tree, &prep, &w_many);
    assert_eq!(
        one, many,
        "processing {PANELS_MANY} panels must allocate exactly as much as \
         processing 1 (the panel loop itself must be allocation-free)"
    );
    // The up-front cost itself is tiny: output + w_perm/y_perm/t_buf/s_buf.
    assert!(
        one <= bound_single,
        "one-panel evaluation made {one} allocations (expected <= {bound_single})"
    );
}

#[test]
fn sequential_panel_loop_is_allocation_free() {
    measure(|| check(ExecOptions::sequential(), 16, 8));
}

#[test]
fn parallel_panel_loop_is_allocation_free() {
    measure(|| check(ExecOptions::full(), 16, 8));
}

/// One-column panels take the kernel layer's narrow (unpacked) arm for
/// every product, which has no pack buffer to grow: it must allocate
/// nothing either.
#[test]
fn one_column_panel_loop_is_allocation_free() {
    measure(|| {
        check(ExecOptions::sequential(), 1, 8);
        check(ExecOptions::full(), 1, 8);
    });
}

/// A plan whose CDS was packed with grain 1 (every slot its own pool job —
/// the parallel inspector's worst case) must be byte-identical to the
/// auto-grain plan, and the executor prepared on it must evaluate to the
/// same bits with the same allocation count.
#[test]
fn grain_one_packed_plan_is_bitwise_identical_and_allocation_free() {
    measure(grain_one_packed_plan_check);
}

fn grain_one_packed_plan_check() {
    const N: usize = if cfg!(miri) { 64 } else { 256 };
    const PANEL: usize = 16;
    let (tree, plan) = fixture(N);
    let (tree_g, plan_g) = fixture_with_grain(N, 1);
    assert_eq!(tree.perm, tree_g.perm, "packing grain perturbed the tree");
    let bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    assert!(
        bits(&plan.cds.gen_values, &plan_g.cds.gen_values),
        "grain-1 packing changed the generator buffer"
    );
    assert!(
        bits(&plan.cds.d_values, &plan_g.cds.d_values),
        "grain-1 packing changed the near-block buffer"
    );
    assert!(
        bits(&plan.cds.b_values, &plan_g.cds.b_values),
        "grain-1 packing changed the coupling-block buffer"
    );

    let opts = ExecOptions::full().with_panel_width(PANEL);
    let prep = PreparedExec::new(&plan, &tree, &opts);
    let prep_g = PreparedExec::new(&plan_g, &tree_g, &opts);
    let w = rhs(N, 2 * PANEL, 5);
    for _ in 0..2 {
        let _ = execute_prepared(&plan, &tree, &prep, &w);
        let _ = execute_prepared(&plan_g, &tree_g, &prep_g, &w);
    }
    let (y, auto) = measure(|| execute_prepared(&plan, &tree, &prep, &w));
    let (y_g, grain_one) = measure(|| execute_prepared(&plan_g, &tree_g, &prep_g, &w));
    assert!(
        bits(y.as_slice(), y_g.as_slice()),
        "executor output diverged on the grain-1 packed plan"
    );
    assert_eq!(
        auto.allocs, grain_one.allocs,
        "allocation count diverged on the grain-1 packed plan"
    );
}
