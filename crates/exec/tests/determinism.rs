//! Parallel determinism: the conflict-free-scheduling claim, pinned.
//!
//! MatRox's executor parallelizes only across disjoint output regions
//! (blockset groups own their target nodes, coarsen partitions own their
//! sub-trees), so no floating-point reduction ever changes its association
//! order with the thread count.  These tests pin that claim: the fully
//! parallel executor must match the sequential result within 1e-12 at every
//! swept pool width for all three structures, and — stronger — the parallel
//! result must be *bitwise identical* across pool widths.  The two SIMD
//! kernel arms (AVX2 and, where the host has it, AVX-512) run one chain, so
//! evaluations, factors and solves must also be bitwise identical between
//! them.

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::{execute, ExecOptions};
use matrox_factor::factor;
use matrox_linalg::{relative_error, KernelChoice, KernelDispatch, Matrix};
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
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    fixture_with(dataset, n, structure, q, kernel)
}

fn fixture_with(
    dataset: DatasetId,
    n: usize,
    structure: Structure,
    q: usize,
    kernel: Kernel,
) -> (ClusterTree, EvalPlan, Matrix) {
    let pts = generate(dataset, n, 77);
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
/// depend on the pool width, the lowering, or the RHS panel width.  (Scalar
/// runs the portable fallback even on SIMD hosts; Avx2 degrades to scalar
/// on hosts without the features — both ways the pinned-kernel contract
/// must hold.)
#[test]
fn fixed_kernel_is_deterministic_across_threads_and_panels() {
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

/// A panel of at least 65 536 values (the executor's `PERM_PAR_ELEMS`; here
/// 512 x 160, one panel) is gathered into tree order and scattered back on
/// the pool whenever a lowering is on.  Those copies must move no bit: the
/// plan's own lowering at pool widths 1, 2 and 4 and the sequential
/// evaluation, which copies on the calling thread, agree bitwise.
#[test]
fn parallel_permute_is_bitwise_the_sequential_one() {
    const Q: usize = 160;
    let (tree, plan, w) = fixture(DatasetId::Grid, 512, Structure::h2b(), Q);
    let l = plan.decisions;
    assert!(
        l.block_near || l.block_far || l.coarsen_tree,
        "the plan lowers nothing, so nothing copies on the pool"
    );
    let opts = ExecOptions::from_plan(&plan).with_panel_width(Q);
    let seq = execute(
        &plan,
        &tree,
        &w,
        &ExecOptions::sequential().with_panel_width(Q),
    );
    for nt in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let y = pool.install(|| execute(&plan, &tree, &w, &opts));
        assert!(
            y.as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{nt} workers: the pool's permute changed the result"
        );
    }
}

/// The panel widths of the cross-arm test: the narrow bodies alone (1, 7),
/// one 8-column stripe (8), a stripe and a narrow rest (15), one 16-column
/// tile (16), a tile and a narrow column (17), a tile and a stripe (24), the
/// executor's wide panel (184) and auto (0).  The last two take all
/// [`CROSS_ARM_COLUMNS`] in one panel: two tiles and a stripe.
const CROSS_ARM_PANELS: [usize; 9] = [1, 7, 8, 15, 16, 17, 24, 184, 0];

/// Right-hand-side columns of the cross-arm test.  Every split of a panel
/// into tiles, stripes and narrow rests occurs by 40; more columns would
/// only add debug-build time.
const CROSS_ARM_COLUMNS: usize = 40;

/// Every result of the cross-arm workload on the kernel `kernel` names, by
/// label: the bits of an H²-b and an HSS evaluation at every
/// [`CROSS_ARM_PANELS`] width, of the HSS model's ULV factor, and of its
/// `solve_matrix` at the same widths.
fn cross_arm_results(kernel: KernelChoice) -> Vec<(String, Vec<u64>)> {
    fn bits<'a>(values: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
        values.into_iter().map(|v| v.to_bits()).collect()
    }
    let q = CROSS_ARM_COLUMNS;
    let spd = Kernel::GaussianRidge {
        bandwidth: 0.25,
        ridge: 1.0,
    };
    let h2b = fixture(DatasetId::Susy, 256, Structure::h2b(), q);
    let hss = fixture_with(DatasetId::Grid, 256, Structure::Hss, q, spd);
    let opts = |panel| {
        ExecOptions::full()
            .with_panel_width(panel)
            .with_kernel(kernel)
    };
    let mut results = Vec::new();
    for (name, (tree, plan, w)) in [("h2-b", &h2b), ("hss", &hss)] {
        for panel in CROSS_ARM_PANELS {
            let y = execute(plan, tree, w, &opts(panel));
            results.push((format!("{name} evaluate panel {panel}"), bits(y.as_slice())));
        }
    }
    let (tree, plan, b) = &hss;
    let f = factor(plan, tree, &opts(0)).expect("the HSS model factors");
    let parts = f.nodes.iter().flat_map(|n| [&n.inv, &n.map]);
    results.push(("hss factor".into(), bits(parts.flat_map(|m| m.as_slice()))));
    for panel in CROSS_ARM_PANELS {
        let x = f.solve_matrix(plan, tree, b, &opts(panel)).expect("solve");
        results.push((format!("hss solve panel {panel}"), bits(x.as_slice())));
    }
    results
}

/// Where `auto` and `avx2` resolve to different SIMD arms (`avx512` and
/// `avx2` on an AVX-512 host under the default selection), which share one
/// fma chain: an H²-b and an HSS evaluation at panel widths {1, 7, 8, 15,
/// 16, 17, 24, 184, auto}, the HSS factor and its `solve_matrix` must be
/// bitwise identical between them.  The options carry the kernel to every
/// one of them, so both arms run in this process.
#[test]
fn simd_arms_agree_bitwise_at_the_executor() {
    let (auto, avx2) = (
        KernelDispatch::for_choice(KernelChoice::Auto),
        KernelDispatch::for_choice(KernelChoice::Avx2),
    );
    if !(auto.is_simd() && avx2.is_simd() && auto.name() != avx2.name()) {
        println!(
            "auto resolves to {} and avx2 to {} here: not two SIMD arms, nothing to compare",
            auto.name(),
            avx2.name()
        );
        return;
    }
    let on_auto = cross_arm_results(KernelChoice::Auto);
    let on_avx2 = cross_arm_results(KernelChoice::Avx2);
    // Three results per panel width and the factor.
    assert_eq!(on_auto.len(), 3 * CROSS_ARM_PANELS.len() + 1);
    for ((label, a), (_, b)) in on_auto.iter().zip(&on_avx2) {
        assert!(
            a == b,
            "{label}: {} and {} differ",
            auto.name(),
            avx2.name()
        );
    }
}
