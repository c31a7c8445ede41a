//! Binary cluster tree (CTree) construction.
//!
//! The CTree is built by recursively partitioning the point set until a node
//! owns fewer than `leaf_size` points (the paper's leaf-size constant `m`).
//! Two partitioning algorithms are provided, matching Section 3.1:
//!
//! * **kd-tree** splits (widest bounding-box dimension, median) for
//!   low-dimensional points (`d <= 3`), and
//! * **two-means** splits (two far-apart seeds, a few Lloyd iterations, then a
//!   balanced median split on the distance difference) for high-dimensional
//!   points (`d > 3`).
//!
//! Every node owns a contiguous range of a global permutation of the point
//! indices, so a node's index set is a slice — no per-node allocation.  Nodes
//! are numbered in breadth-first order with the root as node 0, matching the
//! numbering used in Figure 1 of the paper.
//!
//! Construction is **level-parallel on the work-stealing pool**: all nodes of
//! one level own disjoint ranges of the permutation, so their splits are
//! independent tasks.  The build is bitwise deterministic across pool widths
//! and grains: each task writes its result into a pre-sized slot (no
//! order-dependent accumulation), node ids are assigned in a sequential
//! fixed-order pass after every level's splits complete, and the two-means
//! seed selection draws from a *per-node* RNG
//! (`seed ^ node_id * 0x9e3779b97f4a7c15`) instead of a shared stream whose
//! consumption order would depend on scheduling.

use matrox_points::{dist2_block_to, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Which partitioning algorithm to use when splitting a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Median split along the widest bounding-box dimension.
    KdTree,
    /// Two-means style split (balanced, on the projected distance difference).
    TwoMeans,
    /// Pick automatically: kd-tree for `d <= 3`, two-means otherwise (the
    /// paper's rule).
    Auto,
}

/// One node of the cluster tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Node id (index into [`ClusterTree::nodes`]); the root is 0.
    pub id: usize,
    /// Parent id; `None` for the root.
    pub parent: Option<usize>,
    /// Children ids `(left, right)`; `None` for leaves.
    pub children: Option<(usize, usize)>,
    /// Depth from the root (root has level 0).
    pub level: usize,
    /// Start of this node's index range in [`ClusterTree::perm`].
    pub start: usize,
    /// One-past-the-end of this node's index range in [`ClusterTree::perm`].
    pub end: usize,
    /// Centroid of the owned points.
    pub centroid: Vec<f64>,
    /// Diameter estimate (diagonal of the axis-aligned bounding box).
    pub diameter: f64,
}

impl TreeNode {
    /// Number of points owned by this node.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.end - self.start
    }

    /// True if this node has no children.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// A binary cluster tree over a [`PointSet`].
#[derive(Debug, Clone)]
pub struct ClusterTree {
    /// All nodes in breadth-first order; `nodes[0]` is the root.
    pub nodes: Vec<TreeNode>,
    /// Global permutation of point indices; node `x` owns
    /// `perm[nodes[x].start..nodes[x].end]`.
    pub perm: Vec<usize>,
    /// Inverse of [`ClusterTree::perm`]: `pos[i]` is the position of point
    /// `i` in the permuted (tree) ordering, so `pos[perm[p]] == p`.  Derived
    /// from `perm` at construction; consumers use it for O(1) membership
    /// tests and permutation-free scatters instead of re-inverting `perm`.
    pub pos: Vec<usize>,
    /// Leaf-size constant `m` used during construction.
    pub leaf_size: usize,
    /// Tree height: the maximum node level (root level is 0).
    pub height: usize,
}

/// Invert a permutation: `out[perm[p]] == p`.  Out-of-range entries are
/// skipped, so inverting a non-permutation (an unchecked model stream) does
/// not panic here; its result fails [`ClusterTree::validate`] instead.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut pos = vec![0usize; perm.len()];
    for (p, &i) in perm.iter().enumerate() {
        if let Some(slot) = pos.get_mut(i) {
            *slot = p;
        }
    }
    pos
}

/// `Err(err())` unless `ok`: the guard the model validators
/// ([`ClusterTree::validate`] and the plan / factor validators built on it)
/// are written in.
pub fn ensure<E>(ok: bool, err: impl FnOnce() -> E) -> Result<(), E> {
    if ok {
        Ok(())
    } else {
        Err(err())
    }
}

/// One frontier entry awaiting its split: `(node_id, start, end, level)`.
type FrontierNode = (usize, usize, usize, usize);

/// Outcome of one node's parallel split task: the split position plus the
/// geometry of both halves, written into a slot indexed by the node's
/// position in the level's frontier (fixed combination order).
struct SplitResult {
    node_id: usize,
    start: usize,
    mid: usize,
    end: usize,
    level: usize,
    left_geom: (Vec<f64>, f64),
    right_geom: (Vec<f64>, f64),
}

impl ClusterTree {
    /// Build a cluster tree over `points` with the given partitioning method
    /// and leaf size.  `seed` makes the two-means splits deterministic.
    ///
    /// Splits within a level run in parallel on the work-stealing pool; the
    /// result is bitwise identical at every pool width and grain (see the
    /// module docs for the determinism contract).
    pub fn build(
        points: &PointSet,
        method: PartitionMethod,
        leaf_size: usize,
        seed: u64,
    ) -> ClusterTree {
        Self::build_with_grain(points, method, leaf_size, seed, 0)
    }

    /// [`build`](ClusterTree::build) with an explicit grain (minimum split
    /// tasks per parallel work item; `0` = auto, i.e. 1).  Grain only
    /// changes task chunking, never the tree.
    pub fn build_with_grain(
        points: &PointSet,
        method: PartitionMethod,
        leaf_size: usize,
        seed: u64,
        grain: usize,
    ) -> ClusterTree {
        assert!(leaf_size >= 1, "leaf_size must be at least 1");
        assert!(!points.is_empty(), "cannot build a tree over zero points");
        let method = match method {
            PartitionMethod::Auto => {
                if points.dim() <= 3 {
                    PartitionMethod::KdTree
                } else {
                    PartitionMethod::TwoMeans
                }
            }
            m => m,
        };
        let grain = grain.max(1);
        let mut perm: Vec<usize> = (0..points.len()).collect();
        let mut nodes: Vec<TreeNode> = Vec::new();

        let root_geom = node_geometry(points, &perm[0..points.len()]);
        nodes.push(TreeNode {
            id: 0,
            parent: None,
            children: None,
            level: 0,
            start: 0,
            end: points.len(),
            centroid: root_geom.0,
            diameter: root_geom.1,
        });

        // Level-by-level construction.  The frontier holds the nodes of the
        // current level in id order (which is also ascending range order, so
        // the disjoint-slice carving below works by construction); nodes
        // small enough to stay leaves are dropped from it up front.
        let mut frontier: Vec<FrontierNode> = vec![(0, 0, points.len(), 0)];
        let mut height = 0;

        while !frontier.is_empty() {
            let splittable: Vec<FrontierNode> = frontier
                .drain(..)
                .filter(|&(_, start, end, _)| end - start > leaf_size)
                .collect();
            if splittable.is_empty() {
                break;
            }

            // Carve one disjoint `&mut` slice of the permutation per
            // splittable node.  Ranges are disjoint and ascending, so
            // repeated `split_at_mut` hands every task its own slice with no
            // aliasing and no locking.
            let mut slices: Vec<&mut [usize]> = Vec::with_capacity(splittable.len());
            let mut rest: &mut [usize] = &mut perm;
            let mut consumed = 0usize;
            for &(_, start, end, _) in &splittable {
                let (_, tail) = rest.split_at_mut(start - consumed);
                let (slice, tail) = tail.split_at_mut(end - start);
                slices.push(slice);
                rest = tail;
                consumed = end;
            }

            // Parallel phase: split every node's slice and compute both
            // children's geometry.  `collect` preserves input order, so the
            // results land in frontier order — a pre-sized slot per node.
            let work: Vec<(FrontierNode, &mut [usize])> =
                splittable.into_iter().zip(slices).collect();
            let results: Vec<SplitResult> = work
                .into_par_iter()
                .with_min_len(grain)
                .map(|((node_id, start, end, level), slice)| {
                    let count = end - start;
                    let local_mid = match method {
                        PartitionMethod::KdTree => kd_split(points, slice),
                        PartitionMethod::TwoMeans => {
                            // Per-node RNG: the split is a pure function of
                            // (points, seed, node id), independent of the
                            // order sibling tasks run in.
                            let mut rng = StdRng::seed_from_u64(
                                seed ^ (node_id as u64).wrapping_mul(0x9e3779b97f4a7c15),
                            );
                            two_means_split(points, slice, &mut rng)
                        }
                        PartitionMethod::Auto => unreachable!(),
                    };
                    // Guard against degenerate splits (all points identical).
                    let local_mid = if local_mid == 0 || local_mid == count {
                        count / 2
                    } else {
                        local_mid
                    };
                    let mid = start + local_mid;
                    SplitResult {
                        node_id,
                        start,
                        mid,
                        end,
                        level,
                        left_geom: node_geometry(points, &slice[..local_mid]),
                        right_geom: node_geometry(points, &slice[local_mid..]),
                    }
                })
                .collect();

            // Sequential phase: assign child ids in frontier order, exactly
            // reproducing the classic BFS numbering (root = 0, siblings
            // adjacent, levels non-decreasing with id).
            for r in results {
                let left_id = nodes.len();
                let right_id = nodes.len() + 1;
                let child_level = r.level + 1;
                height = height.max(child_level);
                nodes.push(TreeNode {
                    id: left_id,
                    parent: Some(r.node_id),
                    children: None,
                    level: child_level,
                    start: r.start,
                    end: r.mid,
                    centroid: r.left_geom.0,
                    diameter: r.left_geom.1,
                });
                nodes.push(TreeNode {
                    id: right_id,
                    parent: Some(r.node_id),
                    children: None,
                    level: child_level,
                    start: r.mid,
                    end: r.end,
                    centroid: r.right_geom.0,
                    diameter: r.right_geom.1,
                });
                nodes[r.node_id].children = Some((left_id, right_id));
                frontier.push((left_id, r.start, r.mid, child_level));
                frontier.push((right_id, r.mid, r.end, child_level));
            }
        }

        let pos = invert_permutation(&perm);
        ClusterTree {
            nodes,
            perm,
            pos,
            leaf_size,
            height,
        }
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The one definition of a well-formed cluster tree.  The fields are
    /// public and a tree can come from an untrusted stream, so every
    /// consumer that indexes on the topology (the model readers, the
    /// executor, the solver) checks it here first.  With `n = perm.len()`:
    ///
    /// * **T1** `perm` is a permutation of `0..n` and `pos` is its inverse;
    /// * **T2** `nodes[i].id == i`, every range satisfies
    ///   `start <= end <= n`, and node 0 is the root: no parent, level 0,
    ///   range `[0, n)`;
    /// * **T3** links are reciprocal: every other node is one of the two
    ///   distinct children of its recorded parent, and both children of a
    ///   node name it as their parent — so each node has exactly one parent;
    /// * **T4** `child.level == parent.level + 1` and `height` is the
    ///   deepest node's level — with T3, every node hangs off the root and
    ///   there are no cycles; the equality is what lets a consumer size and
    ///   loop by `height` (it is bounded by the node count);
    /// * **T5** children partition their parent's range (`l.start == start`,
    ///   `l.end == r.start`, `r.end == end`);
    /// * **T6** (by induction over T2–T5) the leaves tile `[0, n)`: distinct
    ///   leaves own disjoint row ranges.
    ///
    /// Allocates nothing on success.
    ///
    /// # Errors
    /// A message naming the first violated item.
    pub fn validate(&self) -> Result<(), String> {
        let (n, nodes) = (self.perm.len(), &self.nodes);
        // `pos[perm[p]] == p` for every `p` makes `perm` injective into
        // `0..n`, hence a permutation.
        let inverse = |(p, &i): (usize, &usize)| self.pos.get(i) == Some(&p);
        ensure(
            self.pos.len() == n && self.perm.iter().enumerate().all(inverse),
            || "tree permutation is not a permutation with `pos` as its inverse".to_string(),
        )?;
        ensure(
            nodes.first().is_some_and(|root| {
                root.parent.is_none() && root.level == 0 && (root.start, root.end) == (0, n)
            }),
            || format!("tree node 0 is not a level-0 root owning all {n} points"),
        )?;
        let deepest = nodes.iter().map(|node| node.level).max().unwrap_or(0);
        ensure(deepest == self.height, || {
            let h = self.height;
            format!("tree height {h} is not its deepest node's level {deepest}")
        })?;
        for (i, node) in nodes.iter().enumerate() {
            ensure(node.id == i, || {
                format!("tree node {i} stores id {}", node.id)
            })?;
            ensure(node.start <= node.end && node.end <= n, || {
                let (s, e) = (node.start, node.end);
                format!("tree node {i} point range {s}..{e} exceeds {n} points")
            })?;
            let parent_children = node.parent.and_then(|p| nodes.get(p)?.children);
            ensure(
                i == 0 || parent_children.is_some_and(|(l, r)| l == i || r == i),
                || format!("tree node {i} is not a child of its recorded parent"),
            )?;
            let Some((l, r)) = node.children else {
                continue;
            };
            let (Some(ln), Some(rn)) = (nodes.get(l), nodes.get(r)) else {
                return Err(format!("tree node {i} has out-of-range children"));
            };
            ensure(
                l != r && ln.parent == Some(i) && rn.parent == Some(i),
                || format!("children of tree node {i} do not link back to it"),
            )?;
            ensure(
                ln.level.checked_sub(1) == Some(node.level) && rn.level == ln.level,
                || format!("children of tree node {i} are not one level below it"),
            )?;
            ensure(
                (ln.start, ln.end, rn.end) == (node.start, rn.start, node.end),
                || format!("children of tree node {i} do not partition its point range"),
            )?;
        }
        Ok(())
    }

    /// The global point indices owned by node `id`.
    #[inline]
    pub fn indices(&self, id: usize) -> &[usize] {
        let n = &self.nodes[id];
        &self.perm[n.start..n.end]
    }

    /// Ids of all leaf nodes, in BFS order.
    pub fn leaves(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all nodes at the given level.
    pub fn nodes_at_level(&self, level: usize) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.level == level)
            .map(|n| n.id)
            .collect()
    }

    /// Geometric distance between the centroids of two nodes.
    pub fn node_distance(&self, a: usize, b: usize) -> f64 {
        let ca = &self.nodes[a].centroid;
        let cb = &self.nodes[b].centroid;
        let mut s = 0.0;
        for k in 0..ca.len() {
            let d = ca[k] - cb[k];
            s += d * d;
        }
        s.sqrt()
    }
}

/// Compute `(centroid, diameter)` for a set of point indices.  The diameter is
/// estimated as the diagonal of the axis-aligned bounding box, which is an
/// upper bound on the true diameter and deterministic.
fn node_geometry(points: &PointSet, idx: &[usize]) -> (Vec<f64>, f64) {
    if idx.is_empty() {
        return (vec![0.0; points.dim()], 0.0);
    }
    let centroid = points.centroid(idx);
    let (lo, hi) = points.bounding_box(idx);
    let mut diag2 = 0.0;
    for k in 0..points.dim() {
        let d = hi[k] - lo[k];
        diag2 += d * d;
    }
    (centroid, diag2.sqrt())
}

/// kd-tree split: choose the widest bounding-box dimension and split at the
/// median coordinate.  Returns the split position within `idx`.
fn kd_split(points: &PointSet, idx: &mut [usize]) -> usize {
    let (lo, hi) = points.bounding_box(idx);
    let mut best_dim = 0;
    let mut best_width = -1.0;
    for k in 0..points.dim() {
        let w = hi[k] - lo[k];
        if w > best_width {
            best_width = w;
            best_dim = k;
        }
    }
    let mid = idx.len() / 2;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        points.point(a)[best_dim]
            .partial_cmp(&points.point(b)[best_dim])
            .unwrap()
    });
    mid
}

/// Two-means split for high-dimensional points: pick two far-apart seeds, run
/// two Lloyd iterations, then split at the median of the distance difference
/// so the two halves are balanced (keeping the binary tree complete, which
/// the coarsening algorithm relies on for load balance).
///
/// Every distance runs on the distance body ([`dist2_block_to`]): the far
/// seed's against one target, each Lloyd step's and the median keys'
/// against the two centres gathered as one panel.  Each is bitwise the
/// `PointSet::dist2` / `dist2_to` chain, so every split is the scalar
/// form's.
fn two_means_split(points: &PointSet, idx: &mut [usize], rng: &mut StdRng) -> usize {
    // Seed selection: a random point, then the point farthest from it.
    let a = idx[rng.gen_range(0..idx.len())];
    let far = dist2_block_to(points, idx, points.point(a));
    let (&b, _) = idx
        .iter()
        .zip(far.as_slice())
        .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
        .unwrap();
    let dim = points.dim();
    // The two centres, `c1` then `c2`, as one row-major target block.
    let mut centres: Vec<f64> = [points.point(a), points.point(b)].concat();

    // A couple of Lloyd iterations to settle the two centers.
    for _ in 0..2 {
        let d = dist2_block_to(points, idx, &centres);
        let mut s1 = vec![0.0; dim];
        let mut s2 = vec![0.0; dim];
        let mut n1 = 0usize;
        let mut n2 = 0usize;
        for (&i, d12) in idx.iter().zip(d.as_slice().chunks_exact(2)) {
            let p = points.point(i);
            if d12[0] <= d12[1] {
                for k in 0..dim {
                    s1[k] += p[k];
                }
                n1 += 1;
            } else {
                for k in 0..dim {
                    s2[k] += p[k];
                }
                n2 += 1;
            }
        }
        let (c1, c2) = centres.split_at_mut(dim);
        if n1 > 0 {
            for k in 0..dim {
                c1[k] = s1[k] / n1 as f64;
            }
        }
        if n2 > 0 {
            for k in 0..dim {
                c2[k] = s2[k] / n2 as f64;
            }
        }
    }

    // Balanced split on the signed distance difference.
    let d = dist2_block_to(points, idx, &centres);
    let keys: Vec<f64> = d
        .as_slice()
        .chunks_exact(2)
        .map(|d12| d12[0] - d12[1])
        .collect();
    median_split_by_keys(idx, &keys)
}

/// Split `idx` at its median by a per-point key: reorders `idx` exactly as
/// `idx.select_nth_unstable_by(len / 2, |&a, &b| key(a).partial_cmp(&key(b)).unwrap())`
/// would and returns `len / 2`, but computes each point's key once instead
/// of twice per comparison.
///
/// # Panics
/// If `idx` is empty or a key is NaN (as the comparator form would).
pub fn median_split_by_key(idx: &mut [usize], key: impl Fn(usize) -> f64) -> usize {
    let keys: Vec<f64> = idx.iter().map(|&p| key(p)).collect();
    median_split_by_keys(idx, &keys)
}

/// [`median_split_by_key`] with the keys already computed in slice order:
/// `keys[s]` is the key of `idx[s]`.
///
/// The selection runs on a slice of positions with the same comparison
/// outcomes, so it makes the same moves, and `idx` is then permuted by it.
///
/// # Panics
/// If `idx` is empty, `keys` is not as long as `idx`, or a key is NaN.
pub fn median_split_by_keys(idx: &mut [usize], keys: &[f64]) -> usize {
    assert_eq!(
        keys.len(),
        idx.len(),
        "median_split_by_keys: one key a point"
    );
    let mid = idx.len() / 2;
    let mut order: Vec<usize> = (0..idx.len()).collect();
    order.select_nth_unstable_by(mid, |&a, &b| keys[a].partial_cmp(&keys[b]).unwrap());
    let before = idx.to_vec();
    for (slot, &o) in idx.iter_mut().zip(&order) {
        *slot = before[o];
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};

    fn check_tree_invariants(tree: &ClusterTree, n: usize) {
        tree.validate().expect("a built tree is well formed");
        // The permutation is a permutation.
        let mut sorted = tree.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // Root covers everything.
        assert_eq!(tree.nodes[0].start, 0);
        assert_eq!(tree.nodes[0].end, n);
        // Children partition their parent exactly.
        for node in &tree.nodes {
            if let Some((l, r)) = node.children {
                assert_eq!(tree.nodes[l].start, node.start);
                assert_eq!(tree.nodes[l].end, tree.nodes[r].start);
                assert_eq!(tree.nodes[r].end, node.end);
                assert_eq!(tree.nodes[l].parent, Some(node.id));
                assert_eq!(tree.nodes[r].parent, Some(node.id));
                assert_eq!(tree.nodes[l].level, node.level + 1);
            } else {
                assert!(node.num_points() <= tree.leaf_size || node.id == 0);
            }
        }
        // Leaves tile the permutation.
        let total: usize = tree
            .leaves()
            .iter()
            .map(|&l| tree.nodes[l].num_points())
            .sum();
        assert_eq!(total, n);
    }

    #[test]
    fn kd_tree_on_2d_grid() {
        let pts = generate(DatasetId::Grid, 256, 1);
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 16, 0);
        check_tree_invariants(&tree, 256);
        assert!(tree.height >= 4);
        for &l in &tree.leaves() {
            assert!(tree.nodes[l].num_points() <= 16);
        }
    }

    #[test]
    fn two_means_on_high_dim() {
        let pts = generate(DatasetId::Higgs, 512, 2);
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        check_tree_invariants(&tree, 512);
        // Balanced splits give a complete-ish tree: every leaf within one
        // level of the height.
        for &l in &tree.leaves() {
            assert!(tree.nodes[l].level + 1 >= tree.height);
        }
    }

    #[test]
    fn leaf_size_one_gives_singleton_leaves() {
        let pts = generate(DatasetId::Random, 32, 3);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 1, 0);
        check_tree_invariants(&tree, 32);
        for &l in &tree.leaves() {
            assert_eq!(tree.nodes[l].num_points(), 1);
        }
    }

    #[test]
    fn small_set_is_single_leaf() {
        let pts = generate(DatasetId::Random, 10, 4);
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 16, 0);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.height, 0);
        assert!(tree.nodes[0].is_leaf());
    }

    #[test]
    fn node_numbering_is_bfs() {
        let pts = generate(DatasetId::Grid, 128, 5);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 8, 0);
        for node in &tree.nodes {
            if let Some(p) = node.parent {
                assert!(p < node.id, "parent id must precede child id");
            }
            if let Some((l, r)) = node.children {
                assert_eq!(r, l + 1, "siblings must be adjacent in BFS order");
            }
        }
        // Levels are non-decreasing with id in BFS order.
        for w in tree.nodes.windows(2) {
            assert!(w[0].level <= w[1].level);
        }
    }

    #[test]
    fn centroid_and_diameter_are_sane() {
        let pts = generate(DatasetId::Unit, 200, 6);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let root = &tree.nodes[0];
        // All unit-circle points are within the bounding-box diagonal of each
        // other.
        assert!(root.diameter >= 1.9 && root.diameter <= 3.0);
        assert!(root.centroid.iter().all(|c| c.abs() < 0.2));
        // Deeper nodes have smaller diameters.
        let leaf = *tree.leaves().last().unwrap();
        assert!(tree.nodes[leaf].diameter < root.diameter);
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let pts = generate(DatasetId::Grid, 128, 5);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 8, 0);
        let (l, r) = tree.nodes[1].children.unwrap();
        let broken = |edit: &dyn Fn(&mut ClusterTree)| {
            let mut t = tree.clone();
            edit(&mut t);
            t.validate().unwrap_err()
        };
        assert!(broken(&|t| t.perm[3] = t.perm[4]).contains("permutation"));
        assert!(broken(&|t| t.pos.swap(0, 1)).contains("inverse"));
        assert!(broken(&|t| t.nodes[0].end -= 1).contains("root"));
        assert!(broken(&|t| t.nodes[5].id = 6).contains("stores id"));
        assert!(broken(&|t| t.nodes[l].level = t.height + 5).contains("level"));
        assert!(broken(&|t| t.nodes[l].parent = Some(2)).contains("link back"));
        assert!(broken(&|t| t.nodes[1].children = None).contains("child of"));
        assert!(broken(&|t| t.nodes[1].children = Some((l, l))).contains("link back"));
        assert!(broken(&|t| t.nodes[1].children = Some((l, 10_000))).contains("out-of-range"));
        assert!(broken(&|t| t.nodes[r].level += 1).contains("one level below"));
        // A leaf slid onto its sibling: both ranges stay inside the parent.
        assert!(broken(&|t| t.nodes[r].start -= 1).contains("partition"));
    }

    /// T4 is an equality: consumers reserve and loop by `height`, so a
    /// height above the deepest level is as malformed as one below it.
    #[test]
    fn validate_requires_the_exact_height() {
        let pts = generate(DatasetId::Grid, 128, 5);
        let mut tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 8, 0);
        assert_eq!(tree.validate(), Ok(()));
        let height = tree.height;
        for wrong in [height + 1, 1 << 40, height - 1] {
            tree.height = wrong;
            assert!(tree.validate().unwrap_err().contains("tree height"));
        }
    }

    /// The parent's two-means split, verbatim: the seed search and the
    /// median selection recompute their keys on every comparison.
    fn reference_two_means_split(points: &PointSet, idx: &mut [usize], rng: &mut StdRng) -> usize {
        let a = idx[rng.gen_range(0..idx.len())];
        let b = *idx
            .iter()
            .max_by(|&&x, &&y| points.dist2(a, x).partial_cmp(&points.dist2(a, y)).unwrap())
            .unwrap();
        let mut c1: Vec<f64> = points.point(a).to_vec();
        let mut c2: Vec<f64> = points.point(b).to_vec();
        for _ in 0..2 {
            let mut s1 = vec![0.0; points.dim()];
            let mut s2 = vec![0.0; points.dim()];
            let mut n1 = 0usize;
            let mut n2 = 0usize;
            for &i in idx.iter() {
                let d1 = points.dist2_to(i, &c1);
                let d2 = points.dist2_to(i, &c2);
                let p = points.point(i);
                if d1 <= d2 {
                    for k in 0..points.dim() {
                        s1[k] += p[k];
                    }
                    n1 += 1;
                } else {
                    for k in 0..points.dim() {
                        s2[k] += p[k];
                    }
                    n2 += 1;
                }
            }
            if n1 > 0 {
                for k in 0..points.dim() {
                    c1[k] = s1[k] / n1 as f64;
                }
            }
            if n2 > 0 {
                for k in 0..points.dim() {
                    c2[k] = s2[k] / n2 as f64;
                }
            }
        }
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&x, &y| {
            let dx = points.dist2_to(x, &c1) - points.dist2_to(x, &c2);
            let dy = points.dist2_to(y, &c1) - points.dist2_to(y, &c2);
            dx.partial_cmp(&dy).unwrap()
        });
        mid
    }

    type Split = fn(&PointSet, &mut [usize], &mut StdRng) -> usize;

    /// Split `idx` down to `leaf`-point pieces with `split` (a per-call
    /// RNG and the build's degenerate-split guard), leaving the permutation
    /// a tree build would.
    fn split_recursively(
        points: &PointSet,
        idx: &mut [usize],
        seed: u64,
        leaf: usize,
        split: Split,
    ) {
        if idx.len() <= leaf {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mid = match split(points, idx, &mut rng) {
            m if m == 0 || m == idx.len() => idx.len() / 2,
            m => m,
        };
        let (l, r) = idx.split_at_mut(mid);
        split_recursively(points, l, 2 * seed + 1, leaf, split);
        split_recursively(points, r, 2 * seed + 2, leaf, split);
    }

    fn assert_two_means_matches_reference(points: &PointSet, leaf: usize, what: &str) {
        let mut want: Vec<usize> = (0..points.len()).collect();
        let mut got = want.clone();
        split_recursively(points, &mut want, 1, leaf, reference_two_means_split);
        split_recursively(points, &mut got, 1, leaf, two_means_split);
        assert_eq!(got, want, "{what}");
    }

    /// A point set whose points each appear three times: tied keys.
    fn triplicated(id: DatasetId, n: usize) -> PointSet {
        let base = generate(id, n / 3, 8);
        let coords = (0..n).flat_map(|i| base.point(i % base.len()).to_vec());
        PointSet::new(base.dim(), coords.collect())
    }

    /// Keys computed once make the comparisons the comparator forms made,
    /// so every split, and the permutation, is the parent's.
    #[test]
    fn keyed_splits_match_the_comparator_forms() {
        let mut rng = StdRng::seed_from_u64(4);
        for len in [1usize, 2, 3, 16, 17, 200] {
            // Keys with ties and both signed zeros.
            let keys: Vec<f64> = (0..len)
                .map(|_| [0.0, -0.0, 1.5, -2.0, rng.gen_range(-1.0..1.0)][rng.gen_range(0..5usize)])
                .collect();
            let mut want: Vec<usize> = (0..len).rev().collect();
            let mut got = want.clone();
            want.select_nth_unstable_by(len / 2, |&a, &b| keys[a].partial_cmp(&keys[b]).unwrap());
            assert_eq!(median_split_by_key(&mut got, |p| keys[p]), len / 2);
            assert_eq!(got, want, "len {len}");
        }
        for (id, n) in [
            (DatasetId::Covtype, 1500),
            (DatasetId::Higgs, 700),
            (DatasetId::Grid, 600),
        ] {
            let what = format!("{id:?} {n}");
            assert_two_means_matches_reference(&generate(id, n, 3), 16, &what);
            assert_two_means_matches_reference(&triplicated(id, n), 16, &format!("{what} x3"));
        }
    }

    /// The same at `ml_wide`'s shape: the covtype-like N = 16384, d = 54
    /// set down to 32-point leaves.
    #[test]
    #[ignore = "release-only: cargo test --release -p matrox-tree -- --ignored matches_reference_at_workload_shapes"]
    fn two_means_matches_reference_at_workload_shapes() {
        let points = generate(DatasetId::Covtype, 16384, 6);
        assert_two_means_matches_reference(&points, 32, "covtype 16384");
    }

    #[test]
    fn identical_points_do_not_loop_forever() {
        let pts = matrox_points::PointSet::new(2, vec![0.5; 2 * 64]);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 4, 0);
        check_tree_invariants(&tree, 64);
    }
}
