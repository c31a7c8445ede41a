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

/// Marks the lines [`cross_arm_child`] prints for its parent.
const CROSS_ARM_TAG: &str = "cross-arm";

/// One line per result of the cross-arm workload, under the process-wide
/// kernel selection: the bits of an H²-b and an HSS evaluation at every
/// [`CROSS_ARM_PANELS`] width, of the HSS model's ULV factor, and of its
/// `solve_matrix` at the same widths, each folded into a 64-bit FNV-1a hash.
fn cross_arm_results() -> Vec<String> {
    fn hash(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let q = CROSS_ARM_COLUMNS;
    let spd = Kernel::GaussianRidge {
        bandwidth: 0.25,
        ridge: 1.0,
    };
    let h2b = fixture(DatasetId::Susy, 256, Structure::h2b(), q);
    let hss = fixture_with(DatasetId::Grid, 256, Structure::Hss, q, spd);
    let mut lines = Vec::new();
    for (name, (tree, plan, w)) in [("h2-b", &h2b), ("hss", &hss)] {
        for panel in CROSS_ARM_PANELS {
            let opts = ExecOptions::full().with_panel_width(panel);
            let y = execute(plan, tree, w, &opts);
            lines.push(format!(
                "{name} evaluate panel {panel}: {:016x}",
                hash(y.as_slice())
            ));
        }
    }
    let (tree, plan, b) = &hss;
    let f = factor(plan, tree, &ExecOptions::full()).expect("the HSS model factors");
    let parts = f.leaves.iter().flatten().flat_map(|l| [&l.chol, &l.e]);
    let parts = parts.chain(f.merges.iter().flatten().flat_map(|m| [&m.lu.lu, &m.t]));
    let values: Vec<f64> = parts.flat_map(|m| m.as_slice().iter().copied()).collect();
    lines.push(format!("hss factor: {:016x}", hash(&values)));
    for panel in CROSS_ARM_PANELS {
        let opts = ExecOptions::full().with_panel_width(panel);
        let x = f.solve_matrix(plan, tree, b, &opts).expect("solve");
        lines.push(format!(
            "hss solve panel {panel}: {:016x}",
            hash(x.as_slice())
        ));
    }
    lines
}

/// The child half of [`simd_arms_agree_bitwise_at_the_executor`]: prints
/// the arm it runs and [`cross_arm_results`].  The factor and the solve
/// follow the process-wide kernel selection, not `ExecOptions::kernel`, so
/// comparing two arms end to end takes one process per selection.
#[test]
#[ignore = "spawned by simd_arms_agree_bitwise_at_the_executor"]
fn cross_arm_child() {
    println!(
        "{CROSS_ARM_TAG} kernel {}",
        matrox_linalg::KernelDispatch::global().name()
    );
    for line in cross_arm_results() {
        println!("{CROSS_ARM_TAG} {line}");
    }
}

/// `auto` and `avx2` resolve to different SIMD arms on an AVX-512 host,
/// which share one fma chain: an H²-b and an HSS evaluation at panel
/// widths {1, 7, 8, 15, 16, 17, 24, 184, auto}, the HSS factor and its
/// `solve_matrix` must be bitwise identical between them.  Each selection
/// runs [`cross_arm_child`] in a process of its own.
#[test]
fn simd_arms_agree_bitwise_at_the_executor() {
    use matrox_linalg::{KernelChoice, KernelDispatch};
    let (auto, avx2) = (
        KernelDispatch::resolve(KernelChoice::Auto),
        KernelDispatch::resolve(KernelChoice::Avx2),
    );
    if auto.name() == avx2.name() {
        println!(
            "auto and avx2 both resolve to {} on this host: one arm, nothing to compare",
            auto.name()
        );
        return;
    }
    let spawn = |choice: &'static str| {
        let exe = std::env::current_exe().expect("test binary path");
        let child = std::process::Command::new(exe)
            .args(["cross_arm_child", "--exact", "--ignored", "--nocapture"])
            .env("MATROX_KERNEL", choice)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn the child test");
        (choice, child)
    };
    let lines = |(choice, child): (&str, std::process::Child)| -> Vec<String> {
        let out = child.wait_with_output().expect("wait for the child test");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{choice} child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
            .lines()
            .filter_map(|l| l.strip_prefix(CROSS_ARM_TAG))
            .map(|l| l.trim().to_string())
            .collect()
    };
    // Both children run at once.
    let (auto_child, avx2_child) = (spawn("auto"), spawn("avx2"));
    let (on_auto, on_avx2) = (lines(auto_child), lines(avx2_child));
    assert_eq!(on_auto.first().map(String::as_str), Some("kernel avx512"));
    assert_eq!(on_avx2.first().map(String::as_str), Some("kernel avx2"));
    // The kernel line, three results per panel width and the factor.
    let expected = 3 * CROSS_ARM_PANELS.len() + 2;
    assert_eq!((on_auto.len(), on_avx2.len()), (expected, expected));
    for (a, b) in on_auto[1..].iter().zip(&on_avx2[1..]) {
        assert_eq!(a, b, "avx512 and avx2 differ");
    }
}
