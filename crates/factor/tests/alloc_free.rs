//! The solve allocates a fixed number of buffers, whatever the tree and the
//! right-hand side.
//!
//! `HssFactor::solve_matrix` allocates the solution, five scratch buffers
//! sized for one panel, the rank offsets and what validation needs, all up
//! front; the sweeps over nodes, levels and panels must not allocate at all
//! (no `Matrix` per node, no per-level id lists, no per-panel scratch).  So
//! the allocation *count* — taken with the workspace's shared probe, like
//! `crates/exec/tests/alloc_free.rs` — is the same for a 64-leaf and a
//! 256-leaf model, and for one panel and five.  The panels are 4 columns
//! wide, so every product of the sweeps runs the kernel layer's narrow
//! (`q < NR`, unpacked) arm: this suite covers its allocation-freedom too.
//!
//! The count is process-wide (the pool's workers allocate on their own
//! threads), so the test runs its whole body inside one outer `measure`.

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::ExecOptions;
use matrox_factor::{factor, HssFactor};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};

#[path = "../../core/tests/support/alloc_probe.rs"]
mod alloc_probe;
use alloc_probe::measure;

/// Points per leaf: small, so a 256-leaf model still compresses quickly.
const LEAF: usize = 4;

/// A factored HSS model with `leaves` leaves.
fn fixture(leaves: usize) -> (ClusterTree, EvalPlan, HssFactor) {
    let n = leaves * LEAF;
    let pts = generate(DatasetId::Grid, n, 77);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 4.0 / (n as f64).sqrt(),
        ridge: 1.0,
    };
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, LEAF, 0);
    assert_eq!(tree.leaves().len(), leaves);
    let htree = HTree::build(&tree, Structure::Hss);
    let sampling = sample_nodes_exhaustive(&pts, &tree);
    let params = CompressionParams {
        bacc: 1e-5,
        max_rank: 256,
        grain: 0,
    };
    let c = compress(&pts, &tree, &htree, &kernel, &sampling, &params);
    let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
    let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
    let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
    let cds = build_cds(&tree, &c, &near, &far, &cs);
    let params = CodegenParams::default();
    let plan = generate_plan(near, far, cs, cds, tree.height, leaves, &params);
    let f = factor(&plan, &tree, &ExecOptions::sequential()).expect("factor");
    (tree, plan, f)
}

/// Allocations of one `panels`-panel solve on a fixture, in steady state: the
/// fewest over a few calls.  The first calls also pay for what is grown
/// once and kept — thread-local pack buffers, the lazily spawned pool, env
/// caches, and a worker's job deque whenever stealing takes it one job
/// deeper than before, which can happen on any call.
fn allocs_for(
    (tree, plan, f): &(ClusterTree, EvalPlan, HssFactor),
    opts: ExecOptions,
    panels: usize,
) -> u64 {
    const PANEL: usize = 4;
    let opts = opts.with_panel_width(PANEL);
    let b = Matrix::from_fn(tree.perm.len(), panels * PANEL, |i, j| {
        ((i * 7 + j * 3) % 11) as f64 - 5.0
    });
    let solve = || {
        let (x, reading) = measure(|| f.solve_matrix(plan, tree, &b, &opts).expect("solve"));
        assert_eq!(x.shape(), b.shape());
        reading.allocs
    };
    (0..6).map(|_| solve()).min().expect("six readings")
}

#[test]
fn solve_allocates_a_fixed_number_of_buffers() {
    // Miri interprets the whole pipeline ~100x slower; 4 and 16 leaves still
    // hand the tree-sweep driver leaves and internal nodes to visit.
    let (small, large) = if cfg!(miri) { (4, 16) } else { (64, 256) };
    measure(|| {
        let (small, large) = (fixture(small), fixture(large));
        for opts in [ExecOptions::sequential(), ExecOptions::full()] {
            let one = allocs_for(&small, opts, 1);
            assert_eq!(
                one,
                allocs_for(&large, opts, 1),
                "a solve must allocate as much on 4x the nodes (nothing per node or level)"
            );
            assert_eq!(
                one,
                allocs_for(&small, opts, 5),
                "a solve must allocate as much for 5 panels as for 1 (nothing per panel)"
            );
            // Solution + 5 scratch buffers + rank offsets + validation's
            // tables (the HssIndex's two and EvalPlan::validate's three).
            assert!(one <= 12, "one solve made {one} allocations");
        }
    });
}
