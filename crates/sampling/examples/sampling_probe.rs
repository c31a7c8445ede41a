//! Where inspector-p1's time goes: its tree and sampling stages, one at a
//! time, on a one-worker pool (as the benchmark pins it).
//!
//! ```bash
//! cargo run --release -p matrox-sampling --example sampling_probe [dataset] [n] [reps]
//! ```
//!
//! `dataset` is a Table 1 name (default `covtype`), `n` the point count
//! (default 8192), `reps` the repetitions (default 5).  Each stage runs
//! with the inspector's defaults (64-point leaves, `KnnParams` /
//! `SamplingParams::default()`, a Gaussian of bandwidth 5) and prints its
//! median and fastest time in ms:
//!
//! * **cluster tree** — `ClusterTree::build` (kd-tree for `d <= 3`, else
//!   two-means);
//! * **rp-trees**, **leaf blocks**, **ranking** — the three phases of
//!   `approximate_knn` ([`RpForest`]);
//! * **node lists** — `sample_nodes_from_knn`: each node's merged list, its
//!   kernel weights against the centroid, the kept samples and the uniform
//!   top-up.
//!
//! The tracked numbers are the benchmark's `setup_s` and, in a traced run,
//! `tree.ctree_s` / `sampling.sample_s`; this example splits them further.

use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_sampling::{sample_nodes_from_knn, KnnParams, RpForest, SamplingParams};
use matrox_tree::{ClusterTree, PartitionMethod};
use std::time::Instant;

/// Milliseconds `f` takes, and its result.
fn ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// One pass over the stages: each stage's ms, and the samples stored.
fn stages(points: &PointSet) -> ([f64; 5], usize) {
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let (knn, sampling) = (KnnParams::default(), SamplingParams::default());
    let (tree_ms, tree) = ms(|| ClusterTree::build(points, PartitionMethod::Auto, 64, 0));
    let (rp_ms, forest) = ms(|| RpForest::build(points, &knn));
    let (leaf_ms, scores) = ms(|| forest.leaf_distances(points));
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); points.len()];
    let (rank_ms, ()) = ms(|| forest.rank_into(&scores, &mut lists));
    drop((forest, scores));
    let (node_ms, info) = ms(|| sample_nodes_from_knn(points, &tree, &kernel, &sampling, lists));
    (
        [tree_ms, rp_ms, leaf_ms, rank_ms, node_ms],
        info.total_samples(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let id = args
        .get(1)
        .and_then(|s| DatasetId::from_name(s))
        .unwrap_or(DatasetId::Covtype);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8192);
    let reps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(5).max(1);
    let points = generate(id, n, 6);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    println!(
        "p1 stages: {} N = {n} d = {}, one worker, {reps} reps (ms: median / fastest)",
        id.name(),
        points.dim()
    );
    let mut runs: Vec<[f64; 5]> = Vec::with_capacity(reps);
    let mut samples = 0;
    pool.install(|| {
        for _ in 0..reps {
            let (t, s) = stages(&points);
            runs.push(t);
            samples = s;
        }
    });
    let names = [
        "cluster tree",
        "rp-trees",
        "leaf blocks",
        "ranking",
        "node lists",
    ];
    let summary = |col: Vec<f64>| {
        let mut col = col;
        col.sort_by(f64::total_cmp);
        (col[col.len() / 2], col[0])
    };
    for (s, name) in names.iter().enumerate() {
        let (median, best) = summary(runs.iter().map(|r| r[s]).collect());
        println!("  {name:<13} {median:8.1} {best:8.1}");
    }
    let (median, best) = summary(runs.iter().map(|r| r.iter().sum()).collect());
    println!("  {:<13} {median:8.1} {best:8.1}", "total");
    println!("  samples stored: {samples}");
}
