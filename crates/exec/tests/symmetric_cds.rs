//! The symmetric CDS: every off-diagonal twin pair (`D_ij` / `D_ji`,
//! `B_ij` / `B_ji`) is stored once, and the later entry of the pair reads
//! the earlier window through the `A^T B` product.
//!
//! Two walls, on HSS, H²-b and geometric models:
//!
//! * the storage invariants of the pairing — no pair is stored twice, every
//!   transposed entry's twin comes earlier, is stored, shares its offset and
//!   has its nodes swapped, and the payload is the generators plus the
//!   stored windows;
//! * a bitwise oracle — the same plan with every transposed entry expanded
//!   into a stored copy of its own evaluates (at pool widths 1 and 2, panel
//!   widths 1, 8 and auto) and, on HSS, factors and solves to the same bits.
//!
//! The oracle holds on each kernel arm on its own, so it runs on every arm
//! of [`KERNELS`]: the options carry the kernel to the evaluation, the
//! factor and the solve alike.

use matrox_analysis::{
    build_blockset, build_cds, build_coarsenset, generate_plan, Cds, CdsBlockEntry, CoarsenParams,
    CodegenParams, EvalPlan,
};
use matrox_compress::{compress, CompressionParams};
use matrox_exec::{execute, ExecOptions};
use matrox_factor::{factor, HssFactor};
use matrox_linalg::{KernelChoice, Matrix};
use matrox_points::{generate, DatasetId, Kernel};
use matrox_sampling::sample_nodes_exhaustive;
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

fn model(
    dataset: DatasetId,
    n: usize,
    structure: Structure,
    kernel: Kernel,
) -> (ClusterTree, EvalPlan) {
    let pts = generate(dataset, n, 5);
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
    let htree = HTree::build(&tree, structure);
    let sampling = sample_nodes_exhaustive(&pts, &tree);
    let params = CompressionParams {
        bacc: 1e-6,
        max_rank: 256,
        grain: 0,
    };
    let c = compress(&pts, &tree, &htree, &kernel, &sampling, &params);
    let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
    let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
    let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
    let cds = build_cds(&tree, &c, &near, &far, &cs);
    let (height, leaves) = (tree.height, tree.leaves().len());
    let plan = generate_plan(
        near,
        far,
        cs,
        cds,
        height,
        leaves,
        &CodegenParams::default(),
    );
    (tree, plan)
}

/// An SPD HSS model (it factors).
fn hss() -> (ClusterTree, EvalPlan) {
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.25,
        ridge: 1.0,
    };
    model(DatasetId::Grid, 512, Structure::Hss, kernel)
}

fn all_models() -> [(&'static str, ClusterTree, EvalPlan); 3] {
    let gaussian = Kernel::Gaussian { bandwidth: 1.0 };
    let (ht, hp) = hss();
    let (bt, bp) = model(DatasetId::Susy, 512, Structure::h2b(), gaussian);
    let geometric = Structure::Geometric { tau: 1.5 };
    let (gt, gp) = model(DatasetId::Grid, 512, geometric, gaussian);
    [("hss", ht, hp), ("h2-b", bt, bp), ("geometric", gt, gp)]
}

fn tables(cds: &Cds) -> [(&'static str, &[CdsBlockEntry], usize); 2] {
    [
        ("near", &cds.d_entries, cds.d_values.len()),
        ("coupling", &cds.b_entries, cds.b_values.len()),
    ]
}

#[test]
fn each_twin_pair_is_stored_once() {
    for (name, _, plan) in all_models() {
        let cds = &plan.cds;
        let mut stored_elems = 0;
        for (what, entries, values_len) in tables(cds) {
            let mut seen: HashMap<(usize, usize), usize> = HashMap::new();
            let mut stored: HashSet<(usize, usize)> = HashSet::new();
            let mut elems = 0;
            for (k, e) in entries.iter().enumerate() {
                let (t, s) = (e.target, e.source);
                if e.transposed {
                    assert_ne!(t, s, "{name} {what}: diagonal entry {k} is transposed");
                    let twin = seen[&(s, t)];
                    let w = &entries[twin];
                    assert!(twin < k && !w.transposed, "{name} {what}: twin of {k}");
                    assert_eq!(w.offset, e.offset, "{name} {what}: twin window of {k}");
                    assert_eq!((w.rows, w.cols), (e.cols, e.rows), "{name} {what}: {k}");
                } else {
                    assert!(
                        t == s || !stored.contains(&(s, t)),
                        "{name} {what}: ({t}, {s}) and ({s}, {t}) are both stored"
                    );
                    stored.insert((t, s));
                    elems += e.rows * e.cols;
                }
                seen.insert((t, s), k);
            }
            assert_eq!(
                elems, values_len,
                "{name} {what}: values beyond the windows"
            );
            // HSS near blocks are all diagonal; every other table has twins.
            let twins = entries.iter().any(|e| e.transposed);
            assert_eq!(
                twins,
                (name, what) != ("hss", "near"),
                "{name} {what}: twins"
            );
            stored_elems += elems;
        }
        let generators: usize = cds.generators.iter().map(|g| g.rows * g.cols).sum();
        assert_eq!(
            cds.storage_bytes(),
            (generators + stored_elems) * std::mem::size_of::<f64>(),
            "{name}: storage is not the generators plus the stored windows"
        );
    }
}

/// The store-both form of `plan`: every transposed entry gets a stored
/// copy of its logical block, in entry order.
fn expanded(plan: &EvalPlan) -> EvalPlan {
    fn expand(entries: &mut [CdsBlockEntry], values: &mut Vec<f64>) {
        let mut out = Vec::new();
        for e in entries.iter_mut() {
            let window = &values[e.offset..e.offset + e.rows * e.cols];
            let at = out.len();
            if e.transposed {
                for i in 0..e.rows {
                    out.extend((0..e.cols).map(|j| window[j * e.rows + i]));
                }
            } else {
                out.extend_from_slice(window);
            }
            (e.offset, e.transposed) = (at, false);
        }
        *values = out;
    }
    let mut plan = plan.clone();
    let cds = &mut plan.cds;
    expand(&mut cds.d_entries, &mut cds.d_values);
    expand(&mut cds.b_entries, &mut cds.b_values);
    plan
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn rhs(n: usize, q: usize) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    Matrix::random_uniform(n, q, &mut rng)
}

/// The arms the oracle runs on: the selected one (`MATROX_KERNEL`, then CPU
/// detection) and the scalar one.
const KERNELS: [KernelChoice; 2] = [KernelChoice::Auto, KernelChoice::Scalar];

fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("pool")
}

#[test]
fn evaluation_matches_the_expanded_plan_bitwise() {
    for (name, tree, plan) in all_models() {
        let full = expanded(&plan);
        assert!(full.storage_bytes() > plan.storage_bytes());
        full.validate(&tree).expect("expanded plan validates");
        let w = rhs(tree.perm.len(), 10);
        for (kernel, width) in KERNELS.into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
            for panel in [1, 8, 0] {
                let opts = ExecOptions::full()
                    .with_kernel(kernel)
                    .with_panel_width(panel);
                let (y, y_full) = pool(width).install(|| {
                    (
                        execute(&plan, &tree, &w, &opts),
                        execute(&full, &tree, &w, &opts),
                    )
                });
                assert_eq!(
                    bits(&y),
                    bits(&y_full),
                    "{name}: {kernel:?}, pool width {width}, panel width {panel}"
                );
            }
        }
    }
}

fn factor_bits(f: &HssFactor) -> Vec<u64> {
    let leaves = f.leaves.iter().flatten();
    let merges = f.merges.iter().flatten();
    let parts = leaves
        .flat_map(|l| [&l.chol, &l.e])
        .chain(merges.flat_map(|m| [&m.lu.lu, &m.t]));
    parts.flat_map(bits).collect()
}

#[test]
fn hss_factor_and_solve_match_the_expanded_plan_bitwise() {
    let (tree, plan) = hss();
    let full = expanded(&plan);
    let b = rhs(tree.perm.len(), 10);
    for (kernel, width) in KERNELS.into_iter().flat_map(|k| [(k, 1), (k, 2)]) {
        pool(width).install(|| {
            let opts = ExecOptions::full().with_kernel(kernel);
            let f = factor(&plan, &tree, &opts).expect("factor");
            let f_full = factor(&full, &tree, &opts).expect("factor");
            assert_eq!(
                factor_bits(&f),
                factor_bits(&f_full),
                "factor, {kernel:?}, width {width}"
            );
            for panel in [1, 8, 0] {
                let opts = opts.with_panel_width(panel);
                let x = f.solve_matrix(&plan, &tree, &b, &opts).expect("solve");
                let x_full = f_full.solve_matrix(&full, &tree, &b, &opts).expect("solve");
                assert_eq!(
                    bits(&x),
                    bits(&x_full),
                    "solve, {kernel:?}, width {width}, panel {panel}"
                );
            }
        });
    }
}
