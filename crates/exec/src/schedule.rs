//! The level schedule shared by the executor and the ULV solver
//! (`matrox-factor`): one breadth-first walk of the cluster tree that fixes,
//! once per `(tree, sranks)`, where each node's skeleton coefficients live in
//! a flat scratch buffer, and which rows each node's basis stacks.  The tree
//! sweeps of both engines walk the plan's coarsen set through
//! [`tree_sweep`](crate::tree_sweep), which carves their scratch by these
//! slots; the factor's merge phase walks the schedule's levels.

use matrox_tree::ClusterTree;
use std::ops::Range;

/// Nodes in breadth-first order with their rank slots laid out in that order.
///
/// Positions `0..num_nodes` index the walk: level `l` is the contiguous
/// position range [`level`](Self::level), within it a left child sits
/// directly before its right sibling, and the children of consecutive
/// internal nodes are consecutive on the next level.  Rank slots are the
/// prefix sums of the sranks *in walk order*, so
///
/// * distinct nodes own disjoint slots (what the tree sweep's raw slicing
///   needs);
/// * an internal node's two children own adjacent slots: the **stacked
///   pair** `[bhat_l; bhat_r]` the solver's merge systems are solved in
///   ([`stack`](Self::stack)).
///
/// For a tree numbered breadth-first (every tree `ClusterTree::build`
/// produces) position and node id coincide.
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    /// Node ids in walk order.
    order: Vec<usize>,
    /// Inverse of `order`: `pos[id]` is node `id`'s position.
    pos: Vec<usize>,
    /// `order[level_off[l]..level_off[l + 1]]` is level `l`.
    level_off: Vec<usize>,
    /// `children[p]`: the position of the first child of the first
    /// internal node at or after position `p` on `p`'s level — for an
    /// internal node at `p`, its left child; one past the next level's end
    /// when no internal node follows.  `num_nodes + 1` entries, so
    /// `children[p]..children[p + 1]` are the children of position `p`.
    children: Vec<usize>,
    /// Prefix sums of the sranks in walk order: position `p` owns rank
    /// offsets `[rank_off[p], rank_off[p + 1])`.
    rank_off: Vec<usize>,
}

impl LevelSchedule {
    /// Walk `tree` breadth-first and lay out one rank slot of `sranks[id]`
    /// per node.  Five allocations, `O(nodes)`.
    ///
    /// # Panics
    /// Panics when `sranks` has no entry for a node or the walk does not
    /// visit every node exactly once — neither can happen on a pair that
    /// passed `EvalPlan::validate` (T3, T4, P2), which every caller runs
    /// first.
    pub fn new(tree: &ClusterTree, sranks: &[usize]) -> Self {
        let n = tree.num_nodes();
        let mut order = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n + 1);
        let mut level_off = Vec::with_capacity(tree.height + 2);
        order.push(0);
        let mut head = 0;
        while head < order.len() {
            let node = &tree.nodes[order[head]];
            if level_off.len() == node.level {
                level_off.push(head);
            }
            children.push(order.len());
            if let Some((l, r)) = node.children {
                assert!(order.len() + 2 <= n, "level schedule: tree has a cycle");
                order.extend([l, r]);
            }
            head += 1;
        }
        assert_eq!(order.len(), n, "level schedule: tree is not connected");
        level_off.push(n);
        children.push(n);
        let mut pos = vec![0; n];
        let mut rank_off = Vec::with_capacity(n + 1);
        rank_off.push(0);
        for (p, &id) in order.iter().enumerate() {
            pos[id] = p;
            rank_off.push(rank_off[p] + sranks[id]);
        }
        LevelSchedule {
            order,
            pos,
            level_off,
            children,
            rank_off,
        }
    }

    /// Was this schedule laid out for this tree with exactly these sranks?
    /// Every node's slot width and child links are checked against the walk,
    /// so a tree of the same size and sranks whose links differ does not
    /// match: [`stack`](Self::stack) would hand a node another node's
    /// children.  `O(nodes)`, allocates nothing.
    pub fn matches(&self, tree: &ClusterTree, sranks: &[usize]) -> bool {
        let n = self.order.len();
        let links = |p: usize, id: usize| {
            let kids = self.children[p]..self.children[p + 1];
            match tree.nodes[id].children {
                None => kids.is_empty(),
                Some(pair) => {
                    kids.len() == 2 && (self.order[kids.start], self.order[kids.start + 1]) == pair
                }
            }
        };
        tree.num_nodes() == n
            && sranks.len() == n
            && (self.order.iter().enumerate()).all(|(p, &id)| {
                sranks[id] == self.rank_off[p + 1] - self.rank_off[p] && links(p, id)
            })
    }

    /// Number of levels (tree height + 1).
    pub fn num_levels(&self) -> usize {
        self.level_off.len() - 1
    }

    /// Positions of level `l`, in walk order.
    pub fn level(&self, l: usize) -> Range<usize> {
        self.level_off[l]..self.level_off[l + 1]
    }

    /// Node ids at `positions` (a sub-range of the walk).
    pub fn nodes(&self, positions: Range<usize>) -> &[usize] {
        &self.order[positions]
    }

    /// The rows the basis `V` of node `id` stacks, in rows of one panel
    /// column, as `(points, pair)`.  A leaf's basis spans its `points`, its
    /// rows of the permuted panel; an internal node's spans its children's
    /// `pair`, their adjacent rank slots, left then right — the row order of
    /// `V`.  The range a node does not span is empty.
    pub fn stack(&self, tree: &ClusterTree, id: usize) -> (Range<usize>, Range<usize>) {
        let (p, node) = (self.pos[id], &tree.nodes[id]);
        let last = if node.is_leaf() { node.end } else { node.start };
        let pair = self.rank_off[self.children[p]]..self.rank_off[self.children[p + 1]];
        (node.start..last, pair)
    }

    /// Node `id`'s rank slot.
    pub fn slot(&self, id: usize) -> Range<usize> {
        let p = self.pos[id];
        self.rank_off[p]..self.rank_off[p + 1]
    }

    /// Total skeleton rank: the length of a coefficient buffer in rank units.
    pub fn total_rank(&self) -> usize {
        self.rank_off[self.order.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};
    use matrox_tree::PartitionMethod;

    #[test]
    fn walk_is_level_ordered_with_adjacent_siblings_and_contiguous_slots() {
        // 200 points at leaf size 16: leaves on two levels.
        let tree = ClusterTree::build(
            &generate(DatasetId::Grid, 200, 1),
            PartitionMethod::Auto,
            16,
            0,
        );
        let sranks: Vec<usize> = (0..tree.num_nodes()).map(|id| id % 5).collect();
        let s = LevelSchedule::new(&tree, &sranks);
        assert_eq!(s.num_levels(), tree.height + 1);
        assert!(s.matches(&tree, &sranks));
        assert_eq!(s.total_rank(), sranks.iter().sum::<usize>());
        let (mut seen, mut next_slot) = (0, 0);
        for l in 0..s.num_levels() {
            let below = if l + 1 < s.num_levels() {
                s.nodes(s.level(l + 1))
            } else {
                &[]
            };
            let mut kids = below.iter();
            for &id in s.nodes(s.level(l)) {
                let node = &tree.nodes[id];
                assert_eq!(node.level, l);
                // Slots are the prefix sums of the sranks in walk order.
                assert_eq!(s.slot(id), next_slot..next_slot + sranks[id]);
                next_slot += sranks[id];
                let (points, pair) = s.stack(&tree, id);
                if let Some((lc, rc)) = node.children {
                    assert_eq!((kids.next(), kids.next()), (Some(&lc), Some(&rc)));
                    assert_eq!(points, node.start..node.start);
                    assert_eq!(pair, s.slot(lc).start..s.slot(rc).end);
                } else {
                    assert_eq!(points, node.start..node.end);
                    assert!(pair.is_empty());
                }
                seen += 1;
            }
            assert_eq!(
                kids.next(),
                None,
                "level {l}'s children fill the next level"
            );
        }
        assert_eq!(seen, tree.num_nodes());
        // `build` numbers breadth-first, so the walk is the identity.
        assert!(s
            .nodes(0..tree.num_nodes())
            .iter()
            .enumerate()
            .all(|(p, &id)| p == id));
    }

    #[test]
    fn renumbered_tree_is_walked_by_links_not_by_id() {
        // Swap the ids of the root's two children: still a valid tree, no
        // longer numbered left-before-right.
        let original = ClusterTree::build(
            &generate(DatasetId::Grid, 64, 1),
            PartitionMethod::Auto,
            16,
            0,
        );
        let mut tree = original.clone();
        tree.nodes.swap(1, 2);
        for id in [1, 2] {
            tree.nodes[id].id = id;
            if let Some((l, r)) = tree.nodes[id].children {
                tree.nodes[l].parent = Some(id);
                tree.nodes[r].parent = Some(id);
            }
        }
        tree.nodes[0].children = Some((2, 1));
        tree.validate()
            .expect("renumbering keeps the tree well-formed");
        let sranks = vec![3; tree.num_nodes()];
        let s = LevelSchedule::new(&tree, &sranks);
        assert_eq!(s.nodes(s.level(1)), &[2, 1]);
        assert_eq!(s.slot(2), 3..6);
        assert_eq!(s.slot(1), 6..9);
        assert!(s.matches(&tree, &sranks));
        assert!(!s.matches(&tree, &vec![2; tree.num_nodes()]));
        // Same size, same sranks, other links: the original's schedule
        // would stack node 1's children as node 2's, so neither matches
        // the other's tree.
        let laid_out_for_original = LevelSchedule::new(&original, &sranks);
        assert!(laid_out_for_original.matches(&original, &sranks));
        assert!(!laid_out_for_original.matches(&tree, &sranks));
        assert!(!s.matches(&original, &sranks));
    }
}
