//! Approximate k-nearest-neighbour search with random-projection trees.
//!
//! MatRox's sampling module computes a k-nearest-neighbour list for every
//! point "using a greedy search based on random projection trees that
//! recursively partitions the points along a random direction" (Section 3.1,
//! citing Dasgupta & Freund).  Exact k-NN would be `O(N^2 d)`; the RP-tree
//! approach builds a handful of randomized trees, restricts candidate pairs
//! to RP-tree leaves, and keeps the best `k` candidates per point.
//!
//! The three phases run on the work-stealing pool, are exposed one by one
//! as [`RpForest`] (so a probe can time them), and are bitwise
//! deterministic across pool widths:
//!
//! * **Tree construction** parallelizes *across* trees.  Every tree draws
//!   its projection directions from its own RNG seeded by `(seed, tree
//!   index)`, so tree `t` is a pure function of the inputs no matter which
//!   worker builds it or in what order.
//! * **Leaf scoring** parallelizes across each tree's leaves.  A leaf's
//!   pairs are scored once, as the upper triangle of one distance block;
//!   `dist2` is bitwise symmetric, so both points of a pair get the entry
//!   each would compute.
//! * **Ranking** parallelizes *across points*.  Each point gathers its row
//!   of its leaf's block in every tree in fixed tree order, dropping a
//!   candidate it has already seen by index (an `N`-bit set per task): a
//!   point found in several trees carries the same distance bits each
//!   time.  One selection on the distance bits then finds the `k`-th
//!   smallest distance, and only the candidates at or below it are sorted
//!   by `(distance, index)` — the index tie-break makes the result
//!   independent of gathering order even for equidistant candidates.  Each
//!   point's list lands in its own pre-sized output slot; there is no
//!   shared candidate accumulation anywhere.

use crate::scratch::{task_len, Marks};
use matrox_linalg::Matrix;
use matrox_points::{dist2_block_symmetric, PointSet};
use matrox_tree::median_split_by_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters for the approximate k-NN search.
#[derive(Debug, Clone, Copy)]
pub struct KnnParams {
    /// Number of neighbours kept per point (the paper's sampling size `k`).
    pub k: usize,
    /// Number of random-projection trees to build; more trees improve recall.
    pub num_trees: usize,
    /// RP-tree leaf capacity; candidates are scored all-pairs inside a leaf.
    pub leaf_cap: usize,
    /// RNG seed for the random projection directions.
    pub seed: u64,
    /// Minimum points per parallel search task; `0` = auto (1).  Chunking
    /// only — never changes the neighbour lists.
    pub grain: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 32,
            num_trees: 4,
            leaf_cap: 96,
            seed: 0x5eed,
            grain: 0,
        }
    }
}

/// One built random-projection tree: the permuted point indices plus the
/// leaf partition over them, and for every point its leaf and its row in
/// that leaf.
struct RpTree {
    /// Point indices, permuted so each leaf is a contiguous range.
    idx: Vec<usize>,
    /// `(start, end)` ranges into `idx`, one per leaf.
    leaves: Vec<(usize, usize)>,
    /// `slot[point] = (leaf, row)`: `idx[leaves[leaf].0 + row] == point`.
    slot: Vec<(usize, usize)>,
}

/// Build one RP-tree deterministically from `(points, seed, tree index)`.
fn build_rp_tree(points: &PointSet, leaf_bound: usize, seed: u64, tree: usize) -> RpTree {
    let n = points.len();
    let dim = points.dim();
    // Per-tree RNG: directions depend only on the tree index, never on
    // which worker builds the tree or when.
    let mut rng = StdRng::seed_from_u64(seed ^ (tree as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let mut idx: Vec<usize> = (0..n).collect();
    let mut leaves: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    // In-place recursive partitioning of `idx` along random directions.
    while let Some((start, end)) = stack.pop() {
        if end - start <= leaf_bound {
            leaves.push((start, end));
            continue;
        }
        // Random unit-ish direction; each point's projection is its key.
        let dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mid = start
            + median_split_by_key(&mut idx[start..end], |p| {
                points.point(p).iter().zip(&dir).map(|(x, d)| x * d).sum()
            });
        stack.push((start, mid));
        stack.push((mid, end));
    }
    let mut slot = vec![(0, 0); n];
    for (l, &(s, e)) in leaves.iter().enumerate() {
        for (r, &p) in idx[s..e].iter().enumerate() {
            slot[p] = (l, r);
        }
    }
    RpTree { idx, leaves, slot }
}

/// Rank one point's distinct candidates `(distance bits, index)`: push the
/// `k >= 1` nearest onto `out` in `(distance, index)` order.  The `k`-th
/// smallest distance bounds the list, so one selection on the bits (`bits`
/// is its scratch) finds it and only the candidates at or below it are
/// sorted.  Distances are sums of squares from `0.0` (never `-0.0`), so
/// their bits order as the values do.
fn rank_nearest(
    cands: &mut Vec<(u64, usize)>,
    bits: &mut Vec<u64>,
    k: usize,
    out: &mut Vec<usize>,
) {
    if cands.len() > k {
        bits.clear();
        bits.extend(cands.iter().map(|&(d, _)| d));
        let (_, &mut bound, _) = bits.select_nth_unstable(k - 1);
        cands.retain(|&(d, _)| d <= bound);
    }
    cands.sort_unstable();
    out.extend(cands.iter().take(k).map(|&(_, j)| j));
}

/// The random-projection forest of [`approximate_knn`], one phase a call:
/// [`build`](RpForest::build) the trees, score their leaves
/// ([`leaf_distances`](RpForest::leaf_distances)), then
/// [`rank_into`](RpForest::rank_into) the lists.
pub struct RpForest {
    trees: Vec<RpTree>,
    /// Neighbours kept per point, `params.k` capped at `n - 1`.
    k: usize,
    /// The most points a leaf holds.
    leaf_bound: usize,
    /// Minimum points per ranking task.
    grain: usize,
}

/// The squared distances of every leaf's pairs, `[tree][leaf]`, each
/// unordered pair computed once.
pub struct LeafDistances {
    blocks: Vec<Vec<Matrix>>,
}

impl RpForest {
    /// Phase 1: build the trees, one parallel task per tree.
    pub fn build(points: &PointSet, params: &KnnParams) -> RpForest {
        let k = params.k.min(points.len().saturating_sub(1));
        let leaf_bound = params.leaf_cap.max(2 * k).max(4);
        let trees = (0..params.num_trees.max(1))
            .into_par_iter()
            .map(|t| build_rp_tree(points, leaf_bound, params.seed, t))
            .collect();
        RpForest {
            trees,
            k,
            leaf_bound,
            grain: params.grain.max(1),
        }
    }

    /// Phase 2: score every leaf's pairs once, in parallel over each tree's
    /// leaves.
    pub fn leaf_distances(&self, points: &PointSet) -> LeafDistances {
        let blocks = self
            .trees
            .iter()
            .map(|tree| {
                tree.leaves
                    .par_iter()
                    .map(|&(s, e)| dist2_block_symmetric(points, &tree.idx[s..e]))
                    .collect()
            })
            .collect();
        LeafDistances { blocks }
    }

    /// Phase 3: push every point's `k` nearest candidates onto its (empty)
    /// list, `lists[i]` for point `i`.  Trees are visited in fixed order
    /// and ties rank by index, so the schedule cannot influence the lists.
    ///
    /// # Panics
    /// If `lists` does not hold one list a point of the forest.
    pub fn rank_into(&self, scores: &LeafDistances, lists: &mut [Vec<usize>]) {
        let n = self.trees.first().map_or(0, |t| t.slot.len());
        assert_eq!(lists.len(), n, "rank_into: one list a point");
        if self.k == 0 {
            return;
        }
        let chunk = task_len(n, self.grain);
        let cap = self.trees.len() * self.leaf_bound;
        lists
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(c, lists)| {
                let mut seen = Marks::new(n);
                let mut cands: Vec<(u64, usize)> = Vec::with_capacity(cap);
                let mut bits: Vec<u64> = Vec::with_capacity(cap);
                for (i, out) in (c * chunk..).zip(lists.iter_mut()) {
                    seen.insert(i);
                    for (tree, blocks) in self.trees.iter().zip(&scores.blocks) {
                        let (leaf, row) = tree.slot[i];
                        let (s, e) = tree.leaves[leaf];
                        for (&j, &d2) in tree.idx[s..e].iter().zip(blocks[leaf].row(row)) {
                            if seen.insert(j) {
                                cands.push((d2.to_bits(), j));
                            }
                        }
                    }
                    seen.remove(i);
                    cands.iter().for_each(|&(_, j)| seen.remove(j));
                    rank_nearest(&mut cands, &mut bits, self.k, out);
                    cands.clear();
                }
            });
    }
}

/// Approximate k-nearest neighbours of every point.
///
/// Returns, for each point `i`, up to `params.k` neighbour indices sorted by
/// increasing distance (never containing `i` itself).  The output is a pure
/// function of `(points, params)` — bitwise identical at every pool width
/// and grain.
pub fn approximate_knn(points: &PointSet, params: &KnnParams) -> Vec<Vec<usize>> {
    let n = points.len();
    if n <= 1 || params.k == 0 {
        return vec![Vec::new(); n];
    }
    // The lists outlive everything below, so they are allocated first: the
    // trees and leaf blocks are then freed as one region above them.
    let k = params.k.min(n - 1);
    let mut knn: Vec<Vec<usize>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
    let forest = RpForest::build(points, params);
    let scores = forest.leaf_distances(points);
    forest.rank_into(&scores, &mut knn);
    knn
}

/// Exact k-nearest neighbours (quadratic); used by tests to measure the
/// recall of the approximate search and usable for tiny point sets.
pub fn exact_knn(points: &PointSet, k: usize) -> Vec<Vec<usize>> {
    let n = points.len();
    let k = k.min(n.saturating_sub(1));
    (0..n)
        .map(|i| {
            let mut dists: Vec<(f64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (points.dist2(i, j), j))
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            dists.into_iter().take(k).map(|(_, j)| j).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};

    #[test]
    fn knn_lists_have_requested_size_and_no_self() {
        let pts = generate(DatasetId::Random, 300, 1);
        let knn = approximate_knn(
            &pts,
            &KnnParams {
                k: 8,
                ..Default::default()
            },
        );
        assert_eq!(knn.len(), 300);
        for (i, list) in knn.iter().enumerate() {
            assert_eq!(list.len(), 8, "point {i}");
            assert!(!list.contains(&i));
            let unique: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len());
        }
    }

    #[test]
    fn recall_against_exact_is_reasonable() {
        let pts = generate(DatasetId::Grid, 400, 2);
        let k = 10;
        let approx = approximate_knn(
            &pts,
            &KnnParams {
                k,
                num_trees: 6,
                leaf_cap: 64,
                seed: 3,
                grain: 0,
            },
        );
        let exact = exact_knn(&pts, k);
        let mut hit = 0usize;
        let mut total = 0usize;
        for i in 0..pts.len() {
            let truth: std::collections::HashSet<_> = exact[i].iter().collect();
            hit += approx[i].iter().filter(|j| truth.contains(j)).count();
            total += k;
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.6, "recall {recall} too low");
    }

    #[test]
    fn exact_knn_on_line_points_matches_intuition() {
        let pts =
            matrox_points::PointSet::from_points(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]]);
        let knn = exact_knn(&pts, 2);
        assert_eq!(knn[0], vec![1, 2]);
        assert_eq!(knn[3], vec![2, 1]);
    }

    #[test]
    fn tiny_point_sets_do_not_panic() {
        let pts = matrox_points::PointSet::from_points(&[vec![0.0, 0.0]]);
        let knn = approximate_knn(&pts, &KnnParams::default());
        assert_eq!(knn, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn high_dimensional_knn_works() {
        let pts = generate(DatasetId::Higgs, 256, 4);
        let knn = approximate_knn(
            &pts,
            &KnnParams {
                k: 16,
                ..Default::default()
            },
        );
        assert!(knn.iter().all(|l| l.len() == 16));
    }

    #[test]
    fn grain_never_changes_the_lists() {
        let pts = generate(DatasetId::Random, 257, 9);
        let base = approximate_knn(
            &pts,
            &KnnParams {
                k: 12,
                ..Default::default()
            },
        );
        for grain in [1, 7, 1024] {
            let other = approximate_knn(
                &pts,
                &KnnParams {
                    k: 12,
                    grain,
                    ..Default::default()
                },
            );
            assert_eq!(base, other, "grain {grain}");
        }
    }
}
