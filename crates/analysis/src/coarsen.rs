//! The coarsening algorithm (Algorithm 2 of the paper).
//!
//! Coarsening is MatRox's adaptation of Load-Balanced level Coarsening (LBC,
//! Cheshmi et al.) to binary cluster trees with a cost model based on the
//! submatrix ranks.  It reorganizes the level-by-level loops over the CTree
//! (the upward and downward passes over the `V` generators) into
//!
//! * **coarsen levels**: `agg` consecutive tree levels fused together, run
//!   sequentially from the leaves towards the root, and
//! * **sub-trees** inside every coarsen level: disjoint trees whose nodes are
//!   executed by one thread in dependency (post-)order, merged by a
//!   first-fit/greedy bin-packing step into `p` load-balanced partitions.
//!
//! Fusing levels improves locality (a parent consumes its children's `T`
//! matrices right after they are produced, while they are still in cache) and
//! removes the per-level barrier; bin-packing keeps the partitions balanced
//! even when sranks differ wildly across the tree.

use matrox_tree::ClusterTree;

/// The coarsenset: for every coarsen level, a list of load-balanced
/// partitions, each containing node ids in execution (post-)order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarsenSet {
    /// `levels[cl][part]` = node ids of partition `part` of coarsen level
    /// `cl`, children before parents.  Coarsen level 0 is closest to the
    /// leaves; levels must be executed in order for the upward pass and in
    /// reverse for the downward pass.
    pub levels: Vec<Vec<Vec<usize>>>,
    /// The aggregation factor (`agg`) used to build the set.
    pub agg: usize,
    /// Estimated cost of every partition, `costs[cl][part]`, in the same
    /// units as the per-node cost model (flops per output column).
    pub costs: Vec<Vec<u64>>,
}

impl CoarsenSet {
    /// Total number of coarsen levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// All node ids in execution order (flattened).
    pub fn all_nodes(&self) -> Vec<usize> {
        self.levels
            .iter()
            .flat_map(|cl| cl.iter().flat_map(|st| st.iter().copied()))
            .collect()
    }

    /// Load imbalance of a coarsen level: `max(cost) / mean(cost)`; 1.0 is
    /// perfectly balanced.  Returns 1.0 for empty levels.
    pub fn imbalance(&self, cl: usize) -> f64 {
        let costs = &self.costs[cl];
        if costs.is_empty() {
            return 1.0;
        }
        let max = *costs.iter().max().unwrap() as f64;
        let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Parameters for [`build_coarsenset`].
#[derive(Debug, Clone, Copy)]
pub struct CoarsenParams {
    /// Number of partitions per coarsen level (`p`, the paper sets it to the
    /// number of physical cores).
    pub p: usize,
    /// Aggregation factor (`agg`, the paper's default is 2).
    pub agg: usize,
}

impl Default for CoarsenParams {
    fn default() -> Self {
        // `p` feeds the coarsened level sets that are serialized into the
        // plan, so the default must be a fixed constant: deriving it from
        // the pool width would make the same inputs produce different plan
        // bytes at different widths, breaking the inspector's determinism
        // contract.  Fixed at the paper's reference socket width; callers
        // tune it per machine explicitly.
        CoarsenParams { p: 8, agg: 2 }
    }
}

/// Per-node cost model (lines 8–14 of Algorithm 2): the work of node `x` in
/// the tree loops is proportional to `srank(x)` times the number of rows of
/// its generator — the leaf size for a leaf, the children's combined srank
/// for an internal node.
fn node_cost(tree: &ClusterTree, sranks: &[usize], x: usize) -> u64 {
    let node = &tree.nodes[x];
    let rows = if node.is_leaf() {
        node.num_points()
    } else {
        let (l, r) = node.children.unwrap();
        sranks[l] + sranks[r]
    };
    (sranks[x] * rows) as u64
}

/// Height of every node above its deepest descendant leaf (leaves have
/// height 0).  Coarsen levels are defined on heights so that the bottom-most
/// coarsen level always contains the leaves, as in Figure 1b.
fn node_heights(tree: &ClusterTree) -> Vec<usize> {
    let mut height = vec![0usize; tree.num_nodes()];
    // Ids are the breadth-first walk (`ClusterTree::validate`'s T7), so
    // children have larger ids than their parents and one reverse sweep
    // computes heights bottom-up.
    for id in (0..tree.num_nodes()).rev() {
        if let Some((l, r)) = tree.nodes[id].children {
            height[id] = 1 + height[l].max(height[r]);
        }
    }
    height
}

/// Algorithm 2: build the coarsenset from the CTree and the sranks.
///
/// The root (node 0) is excluded — it is "not involved in any computation"
/// (Figure 1b) because it has no basis of its own.
pub fn build_coarsenset(
    tree: &ClusterTree,
    sranks: &[usize],
    params: &CoarsenParams,
) -> CoarsenSet {
    assert_eq!(sranks.len(), tree.num_nodes());
    let agg = params.agg.max(1);
    let heights = node_heights(tree);
    if tree.num_nodes() <= 1 {
        return CoarsenSet {
            levels: Vec::new(),
            agg,
            costs: Vec::new(),
        };
    }
    // l = ceil(height / agg) coarsen levels (line 1); heights of non-root
    // nodes range over 0..tree-height-1, but use the root height to stay
    // faithful to the formula.
    let num_levels = ((heights[0] as f64) / agg as f64).ceil().max(1.0) as usize;
    let coarsen_level_of = |x: usize| (heights[x] / agg).min(num_levels - 1);

    // Disjoint sub-trees per coarsen level (lines 2-7): a node roots a
    // sub-tree when its parent lives in a higher coarsen level (or is the
    // excluded root).  Each sub-tree is emitted in post-order (children
    // before parents) so intra-partition dependencies are honoured.
    let mut levels: Vec<Vec<Vec<usize>>> = vec![Vec::new(); num_levels];
    let mut subtree_costs: Vec<Vec<u64>> = vec![Vec::new(); num_levels];
    for id in 1..tree.num_nodes() {
        let cl = coarsen_level_of(id);
        let parent = tree.nodes[id].parent.unwrap();
        let parent_is_outside = parent == 0 || coarsen_level_of(parent) != cl;
        if !parent_is_outside {
            continue; // not a sub-tree root
        }
        // Collect the sub-tree rooted at `id` restricted to coarsen level cl.
        let mut order = Vec::new();
        let mut cost = 0u64;
        collect_postorder(
            tree,
            sranks,
            coarsen_level_of,
            cl,
            id,
            &mut order,
            &mut cost,
        );
        levels[cl].push(order);
        subtree_costs[cl].push(cost);
    }

    // Merge sub-trees into p load-balanced partitions per coarsen level
    // (lines 15-19).  nPart follows the paper's rule: use p partitions when
    // there are more sub-trees than p, otherwise halve the sub-tree count so
    // each partition still gets a meaningful amount of work.
    let mut packed_levels = Vec::with_capacity(num_levels);
    let mut packed_costs = Vec::with_capacity(num_levels);
    for (cl, subtrees) in levels.into_iter().enumerate() {
        let costs = &subtree_costs[cl];
        if subtrees.is_empty() {
            packed_levels.push(Vec::new());
            packed_costs.push(Vec::new());
            continue;
        }
        let n_part = if subtrees.len() > params.p {
            params.p
        } else {
            (subtrees.len() / 2).max(1)
        };
        let (bins, bin_costs) = bin_pack(subtrees, costs, n_part);
        packed_levels.push(bins);
        packed_costs.push(bin_costs);
    }

    CoarsenSet {
        levels: packed_levels,
        agg,
        costs: packed_costs,
    }
}

/// Depth-first post-order collection of the sub-tree rooted at `id`,
/// restricted to nodes whose coarsen level equals `cl`.
fn collect_postorder(
    tree: &ClusterTree,
    sranks: &[usize],
    coarsen_level_of: impl Fn(usize) -> usize + Copy,
    cl: usize,
    id: usize,
    order: &mut Vec<usize>,
    cost: &mut u64,
) {
    if let Some((l, r)) = tree.nodes[id].children {
        if coarsen_level_of(l) == cl {
            collect_postorder(tree, sranks, coarsen_level_of, cl, l, order, cost);
        }
        if coarsen_level_of(r) == cl {
            collect_postorder(tree, sranks, coarsen_level_of, cl, r, order, cost);
        }
    }
    order.push(id);
    *cost += node_cost(tree, sranks, id);
}

/// Greedy first-fit-decreasing bin packing into `n_part` bins: sub-trees are
/// sorted by decreasing cost and each is appended to the currently lightest
/// bin.  Sub-tree node order is preserved inside a bin so dependencies stay
/// intact.
fn bin_pack(
    subtrees: Vec<Vec<usize>>,
    costs: &[u64],
    n_part: usize,
) -> (Vec<Vec<usize>>, Vec<u64>) {
    let n_part = n_part.max(1).min(subtrees.len());
    let mut order: Vec<usize> = (0..subtrees.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); n_part];
    let mut bin_cost = vec![0u64; n_part];
    for i in order {
        let lightest = (0..n_part).min_by_key(|&b| bin_cost[b]).unwrap();
        bins[lightest].extend_from_slice(&subtrees[i]);
        bin_cost[lightest] += costs[i];
    }
    // Drop empty bins (possible when a level has fewer sub-trees than p).
    let mut out_bins = Vec::new();
    let mut out_costs = Vec::new();
    for (b, bin) in bins.into_iter().enumerate() {
        if !bin.is_empty() {
            out_bins.push(bin);
            out_costs.push(bin_cost[b]);
        }
    }
    (out_bins, out_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};
    use matrox_tree::{ClusterTree, PartitionMethod};
    use std::collections::HashSet;

    fn tree_and_sranks(n: usize, leaf: usize) -> (ClusterTree, Vec<usize>) {
        let pts = generate(DatasetId::Grid, n, 9);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, leaf, 0);
        // Synthetic sranks: leaves get their point count, internal nodes a bit less.
        let sranks: Vec<usize> = tree
            .nodes
            .iter()
            .map(|nd| {
                if nd.is_leaf() {
                    nd.num_points().min(16)
                } else {
                    12
                }
            })
            .collect();
        (tree, sranks)
    }

    #[test]
    fn coarsenset_covers_every_non_root_node_once() {
        let (tree, sranks) = tree_and_sranks(512, 16);
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p: 4, agg: 2 });
        let all = cs.all_nodes();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(all.len(), set.len(), "duplicate nodes in coarsenset");
        assert_eq!(set.len(), tree.num_nodes() - 1);
        assert!(!set.contains(&0), "the root must be excluded");
    }

    #[test]
    fn children_precede_parents_within_a_partition() {
        let (tree, sranks) = tree_and_sranks(1024, 16);
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p: 8, agg: 2 });
        for cl in &cs.levels {
            for part in cl {
                let pos: std::collections::HashMap<usize, usize> =
                    part.iter().enumerate().map(|(p, &n)| (n, p)).collect();
                for &n in part {
                    if let Some((l, r)) = tree.nodes[n].children {
                        for child in [l, r] {
                            if let Some(&cp) = pos.get(&child) {
                                assert!(cp < pos[&n], "child {child} after parent {n}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cross_level_dependencies_point_downward() {
        // A node's children must never be in a *higher* coarsen level.
        let (tree, sranks) = tree_and_sranks(1024, 8);
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p: 4, agg: 3 });
        let mut level_of = vec![usize::MAX; tree.num_nodes()];
        for (cl, parts) in cs.levels.iter().enumerate() {
            for part in parts {
                for &n in part {
                    level_of[n] = cl;
                }
            }
        }
        for id in 1..tree.num_nodes() {
            if let Some((l, r)) = tree.nodes[id].children {
                assert!(level_of[l] <= level_of[id]);
                assert!(level_of[r] <= level_of[id]);
            }
        }
    }

    #[test]
    fn number_of_partitions_is_bounded_by_p() {
        let (tree, sranks) = tree_and_sranks(2048, 16);
        let p = 6;
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p, agg: 2 });
        for cl in &cs.levels {
            assert!(cl.len() <= p.max(1), "level has {} partitions", cl.len());
        }
    }

    #[test]
    fn partitions_are_reasonably_balanced_at_the_leaf_level() {
        let (tree, sranks) = tree_and_sranks(4096, 32);
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p: 8, agg: 2 });
        // The bottom coarsen level has plenty of sub-trees, so greedy packing
        // should keep the imbalance low.
        assert!(cs.imbalance(0) < 1.5, "imbalance {}", cs.imbalance(0));
    }

    #[test]
    fn figure1_shape_two_coarsen_levels() {
        // A perfect tree of height >= 3 with agg=2 must produce at least two
        // coarsen levels, with the leaves in level 0.
        let (tree, sranks) = tree_and_sranks(256, 16);
        assert!(tree.height >= 3);
        let cs = build_coarsenset(&tree, &sranks, &CoarsenParams { p: 2, agg: 2 });
        assert!(cs.num_levels() >= 2);
        let leaves: HashSet<_> = tree.leaves().into_iter().collect();
        let level0: HashSet<_> = cs.levels[0].iter().flatten().copied().collect();
        for l in leaves {
            assert!(level0.contains(&l), "leaf {l} not in coarsen level 0");
        }
    }

    #[test]
    fn single_node_tree_has_empty_coarsenset() {
        let pts = generate(DatasetId::Random, 8, 1);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let cs = build_coarsenset(&tree, &[0], &CoarsenParams::default());
        assert_eq!(cs.num_levels(), 0);
    }

    #[test]
    fn costs_reflect_sranks() {
        let (tree, _) = tree_and_sranks(512, 16);
        let zero = vec![0usize; tree.num_nodes()];
        let cs = build_coarsenset(&tree, &zero, &CoarsenParams { p: 4, agg: 2 });
        for cl in &cs.costs {
            for &c in cl {
                assert_eq!(c, 0);
            }
        }
    }
}
