//! The approximate k-NN search against the one it replaced.
//!
//! `approximate_knn` splits by keys computed once per point, scores each
//! rp-tree leaf's pairs once and sorts only a point's `trees * k` nearest
//! candidates; the per-point gather-and-sort below is the parent's, kept
//! verbatim as the oracle.  The lists must be equal: node sampling, and through it every
//! skeleton and stored image, is built on them.

use matrox_points::{generate, DatasetId, PointSet};
use matrox_sampling::{approximate_knn, KnnParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

struct RpTree {
    idx: Vec<usize>,
    leaves: Vec<(usize, usize)>,
    leaf_of: Vec<usize>,
}

fn build_rp_tree(points: &PointSet, leaf_bound: usize, seed: u64, tree: usize) -> RpTree {
    let n = points.len();
    let dim = points.dim();
    let mut rng = StdRng::seed_from_u64(seed ^ (tree as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let mut idx: Vec<usize> = (0..n).collect();
    let mut leaves: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    while let Some((start, end)) = stack.pop() {
        let len = end - start;
        if len <= leaf_bound {
            leaves.push((start, end));
            continue;
        }
        let dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mid = start + len / 2;
        idx[start..end].select_nth_unstable_by(len / 2, |&a, &b| {
            let pa: f64 = points.point(a).iter().zip(&dir).map(|(x, d)| x * d).sum();
            let pb: f64 = points.point(b).iter().zip(&dir).map(|(x, d)| x * d).sum();
            pa.partial_cmp(&pb).unwrap()
        });
        stack.push((start, mid));
        stack.push((mid, end));
    }
    let mut leaf_of = vec![0usize; n];
    for (l, &(s, e)) in leaves.iter().enumerate() {
        for &p in &idx[s..e] {
            leaf_of[p] = l;
        }
    }
    RpTree {
        idx,
        leaves,
        leaf_of,
    }
}

/// The parent's `approximate_knn`, verbatim.
fn reference_knn(points: &PointSet, params: &KnnParams) -> Vec<Vec<usize>> {
    let n = points.len();
    if n <= 1 {
        return vec![Vec::new(); n];
    }
    let k = params.k.min(n - 1);
    let grain = params.grain.max(1);
    let leaf_bound = params.leaf_cap.max(2 * k).max(4);
    let trees: Vec<RpTree> = (0..params.num_trees.max(1))
        .into_par_iter()
        .map(|t| build_rp_tree(points, leaf_bound, params.seed, t))
        .collect();
    let mut knn: Vec<Vec<usize>> = vec![Vec::new(); n];
    knn.par_iter_mut()
        .enumerate()
        .with_min_len(grain)
        .for_each(|(i, out)| {
            let mut cands: Vec<(f64, usize)> = Vec::with_capacity(trees.len() * leaf_bound);
            for tree in &trees {
                let (s, e) = tree.leaves[tree.leaf_of[i]];
                for &j in &tree.idx[s..e] {
                    if j != i {
                        cands.push((points.dist2(i, j), j));
                    }
                }
            }
            cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            cands.dedup();
            out.extend(cands.into_iter().take(k).map(|(_, j)| j));
        });
    knn
}

fn assert_matches_reference(points: &PointSet, params: &KnnParams, what: &str) {
    let want = reference_knn(points, params);
    let got = approximate_knn(points, params);
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what}: point {i}");
    }
}

fn random_3d(n: usize, seed: u64) -> PointSet {
    PointSet::random_uniform(n, 3, &mut StdRng::seed_from_u64(seed))
}

/// Every point appears twice or more: zero distances between distinct
/// indices, and the same candidate in several trees' leaves.
fn duplicated(n: usize) -> PointSet {
    let base = generate(DatasetId::Covtype, n / 3, 5);
    let coords: Vec<f64> = (0..n)
        .flat_map(|i| base.point(i % base.len()).to_vec())
        .collect();
    PointSet::new(base.dim(), coords)
}

#[test]
fn knn_matches_reference() {
    let sets = [
        ("random d=3", random_3d(700, 1)),
        ("covtype d=54", generate(DatasetId::Covtype, 640, 2)),
        ("grid (equidistant ties)", generate(DatasetId::Grid, 900, 0)),
        ("duplicated points", duplicated(400)),
    ];
    for (name, points) in &sets {
        for (k, num_trees, leaf_cap) in [(8, 4, 96), (16, 3, 40), (5, 1, 4)] {
            let params = KnnParams {
                k,
                num_trees,
                leaf_cap,
                seed: 0x5eed + k as u64,
                grain: 0,
            };
            assert_matches_reference(points, &params, &format!("{name} k {k}"));
        }
    }
}

/// `n <= leaf_cap` (one leaf a tree) and `k >= n - 1` (every other point).
#[test]
fn knn_matches_reference_on_small_sets() {
    for n in [0, 1, 2, 3, 9, 50, 96, 97] {
        let points = generate(DatasetId::Covtype, n.max(1), 3);
        let points = PointSet::new(points.dim(), points.coords()[..n * points.dim()].to_vec());
        for k in [1, n.saturating_sub(1), n, n + 5] {
            let params = KnnParams {
                k,
                ..Default::default()
            };
            assert_matches_reference(&points, &params, &format!("n {n} k {k}"));
        }
    }
}

/// The oracle at the workloads' shapes: `ml_wide`'s covtype-like N = 16384
/// (d = 54) and `sci_solve`'s 16384-point grid, with the default
/// parameters.  About 1 s in release, so CI runs it in release as its own
/// step.
#[test]
#[ignore = "release-only: cargo test --release -p matrox-sampling -- --ignored matches_reference_at_workload_shapes"]
fn knn_matches_reference_at_workload_shapes() {
    for (name, id) in [("covtype", DatasetId::Covtype), ("grid", DatasetId::Grid)] {
        let points = generate(id, 16384, 6);
        assert_matches_reference(&points, &KnnParams::default(), name);
    }
}
