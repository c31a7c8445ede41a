//! Node sampling against the form it replaced.
//!
//! `sample_nodes` merges each node's member lists through an `N`-bit set
//! and keeps the heaviest `sampling_size` entries with one selection and a
//! sort of only the kept ones; the per-node `HashSet` and the stable sort of
//! every merged entry below are the parent's, kept verbatim as the oracle.
//! The samples must be equal: every skeleton and stored image is built on
//! them.

use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_sampling::{approximate_knn, sample_nodes, KnnParams, SamplingInfo, SamplingParams};
use matrox_tree::{ClusterTree, PartitionMethod};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// The parent's `sample_nodes`, verbatim.
fn reference_sample_nodes(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
) -> SamplingInfo {
    let point_knn = approximate_knn(points, &params.knn);
    let pos = &tree.pos;
    let samples: Vec<Vec<usize>> = tree
        .nodes
        .par_iter()
        .with_min_len(params.grain.max(1))
        .map(|node| {
            let mut rng = StdRng::seed_from_u64(
                params.seed ^ (node.id as u64).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let inside = |q: usize| pos[q] >= node.start && pos[q] < node.end;
            let mut merged: Vec<usize> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for &p in tree.perm[node.start..node.end].iter() {
                for &q in &point_knn[p] {
                    if !inside(q) && seen.insert(q) {
                        merged.push(q);
                    }
                }
            }
            let mut weighted: Vec<(f64, usize)> = merged
                .iter()
                .map(|&q| {
                    let w = kernel.eval(&node.centroid, points.point(q));
                    (w, q)
                })
                .collect();
            weighted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let mut chosen: Vec<usize> = weighted
                .iter()
                .take(params.sampling_size)
                .map(|&(_, q)| q)
                .collect();
            let outside_count = points.len() - node.num_points();
            let want_uniform = params
                .uniform_samples
                .min(outside_count.saturating_sub(chosen.len()));
            let mut guard = 0;
            while chosen.len() < params.sampling_size.min(outside_count) + want_uniform
                && guard < 20 * (want_uniform + 1)
            {
                guard += 1;
                let q = rng.gen_range(0..points.len());
                if !inside(q) && !chosen.contains(&q) {
                    chosen.push(q);
                }
            }
            chosen
        })
        .collect();
    SamplingInfo { samples, point_knn }
}

fn assert_matches_reference(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
    what: &str,
) {
    let want = reference_sample_nodes(points, tree, kernel, params);
    let got = sample_nodes(points, tree, kernel, params);
    assert_eq!(got.point_knn, want.point_knn, "{what}: point lists");
    assert_eq!(got.samples.len(), want.samples.len(), "{what}");
    for (i, (g, w)) in got.samples.iter().zip(&want.samples).enumerate() {
        assert_eq!(g, w, "{what}: node {i}");
    }
}

/// Every point appears three times: merged lists full of repeats and
/// zero-distance neighbours.
fn duplicated(n: usize) -> PointSet {
    let base = generate(DatasetId::Covtype, n / 3, 5);
    let coords: Vec<f64> = (0..n)
        .flat_map(|i| base.point(i % base.len()).to_vec())
        .collect();
    PointSet::new(base.dim(), coords)
}

#[test]
fn sample_nodes_matches_reference() {
    let sets = [
        (
            "random d=3",
            PointSet::random_uniform(600, 3, &mut StdRng::seed_from_u64(1)),
        ),
        ("covtype d=54", generate(DatasetId::Covtype, 640, 2)),
        ("grid (weight ties)", generate(DatasetId::Grid, 900, 0)),
        ("duplicated points", duplicated(450)),
    ];
    let kernels = [
        Kernel::paper_gaussian(),
        Kernel::Gaussian { bandwidth: 0.05 },
        Kernel::Laplace { bandwidth: 0.7 },
    ];
    for (name, points) in &sets {
        let tree = ClusterTree::build(points, PartitionMethod::Auto, 32, 7);
        for kernel in &kernels {
            for (sampling_size, uniform_samples, k) in [
                (32, 32, 16),
                (0, 8, 8),
                (5, 0, 8),
                (0, 0, 4),
                (100_000, 3, 8),
            ] {
                let params = SamplingParams {
                    knn: KnnParams {
                        k,
                        ..Default::default()
                    },
                    sampling_size,
                    uniform_samples,
                    seed: 0xa11ce + k as u64,
                    grain: 0,
                };
                let what = format!(
                    "{name} {} s {sampling_size} u {uniform_samples} k {k}",
                    kernel.name()
                );
                assert_matches_reference(points, &tree, kernel, &params, &what);
            }
        }
    }
}

/// Grain and leaf size move the chunking and the node shapes; the lists
/// follow the oracle at each.
#[test]
fn sample_nodes_matches_reference_across_grains_and_leaves() {
    let points = generate(DatasetId::Grid, 700, 4);
    let kernel = Kernel::paper_gaussian();
    for leaf in [1, 16, 700] {
        let tree = ClusterTree::build(&points, PartitionMethod::Auto, leaf, 3);
        for grain in [0, 1, 5, 10_000] {
            let params = SamplingParams {
                grain,
                ..Default::default()
            };
            let what = format!("leaf {leaf} grain {grain}");
            assert_matches_reference(&points, &tree, &kernel, &params, &what);
        }
    }
}

/// The oracle at the workloads' shapes: the covtype-like N = 16384
/// (d = 54) of `ml_wide` / `reuse_sweep` and `sci_solve`'s 16384-point grid,
/// 64-point leaves and the default parameters.  About 2 s in release, so CI
/// runs it in release in its own step.
#[test]
#[ignore = "release-only: cargo test --release -p matrox-sampling -- --ignored matches_reference_at_workload_shapes"]
fn sample_nodes_matches_reference_at_workload_shapes() {
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    for (name, id) in [("covtype", DatasetId::Covtype), ("grid", DatasetId::Grid)] {
        let points = generate(id, 16384, 6);
        let tree = ClusterTree::build(&points, PartitionMethod::Auto, 64, 0);
        let params = SamplingParams::default();
        assert_matches_reference(&points, &tree, &kernel, &params, name);
    }
}
