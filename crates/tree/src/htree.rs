//! Interaction computation: turning a CTree into an HTree.
//!
//! The interaction-computation module of MatRox's compression takes the CTree
//! and the admissibility parameter and computes which node pairs interact as
//! *near* (kept dense) and which interact as *far* (low-rank approximated).
//! The CTree plus these interaction edges is the HTree (Figure 1b).
//!
//! Three structure modes are supported, matching the paper's experiments:
//!
//! * [`Structure::Geometric`] — the admissibility condition
//!   `τ·dist(α,β) > diam(α) + diam(β)` (used for the SMASH comparison,
//!   τ = 0.65 by default);
//! * [`Structure::Budget`] — GOFMM's budget parameter: each leaf keeps at
//!   most `budget · #leaves` nearest leaves as near interactions (budget 0.03
//!   is the paper's "H²-b", budget 0 degenerates to HSS);
//! * [`Structure::Hss`] — weak admissibility: every off-diagonal block is
//!   low-rank (STRUMPACK's only supported structure).

use crate::ctree::ClusterTree;
use matrox_linalg::Matrix;
use matrox_points::{kernel_block, pair_blocks, Kernel, PointSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// HMatrix structure selection (admissibility flavour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Structure {
    /// Geometric admissibility `τ·dist > diam + diam`.
    Geometric {
        /// Admissibility parameter τ.
        tau: f64,
    },
    /// GOFMM-style budget: fraction of leaves each leaf may keep as near.
    Budget {
        /// Fraction in `[0, 1]`; 0.03 is the paper's H²-b setting.
        budget: f64,
    },
    /// Weak admissibility / HSS: all off-diagonal blocks are far.
    Hss,
}

impl Structure {
    /// The paper's H²-b configuration (GOFMM budget 0.03).
    pub fn h2b() -> Self {
        Structure::Budget { budget: 0.03 }
    }

    /// Short name used in reports ("hss", "h2-b", "geom").
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Geometric { .. } => "geom",
            Structure::Budget { .. } => "h2-b",
            Structure::Hss => "hss",
        }
    }
}

/// The HTree: a CTree plus near/far interaction lists.
///
/// `near[i]` is only non-empty for leaf nodes and contains leaf node ids `j`
/// such that the dense block `D_{i,j}` must be computed.  `far[i]` contains
/// node ids `j` (at the same tree level as `i`) such that the low-rank
/// coupling block `B_{i,j}` must be computed.  Both lists are *directed*: if
/// `(i, j)` is present, `(j, i)` is present as well, mirroring the loop
/// structure in Figure 1d of the paper.
///
/// The HTree also keeps the dense blocks of its near lists once they are
/// evaluated ([`HTree::near_blocks`]): they depend on the points, the tree
/// and the kernel but not on the accuracy, so every p2 of an accuracy
/// sweep over one p1 shares them, and so do its leaves' sample blocks from
/// the second p2 on ([`HTree::leaf_sample_blocks`]).  It can keep a copy of
/// the points it was built over ([`HTree::keep_points`]), so that a later
/// stage can check it is handed the same ones ([`HTree::built_over`]) and
/// then run on the copy ([`HTree::kept_points`]).
#[derive(Debug, Clone)]
pub struct HTree {
    /// Near (dense) interaction lists, indexed by node id.
    pub near: Vec<Vec<usize>>,
    /// Far (low-rank) interaction lists, indexed by node id.
    pub far: Vec<Vec<usize>>,
    /// The structure mode used to build the lists.
    pub structure: Structure,
    /// The points [`HTree::keep_points`] kept.  A clone shares them.
    points: Option<Arc<Points>>,
    /// The first near field [`HTree::near_blocks`] evaluated, with every
    /// input it read.  A clone shares it.
    near_memo: OnceLock<Arc<NearField>>,
}

/// A copy of a point set, compared by bits.
struct Points(PointSet);

impl Points {
    /// Whether `points` is this copy itself, or holds its coordinates bit
    /// for bit.  The copy is never mutated, so a reference to it holds
    /// its bits.
    fn are(&self, points: &PointSet) -> bool {
        let (kept, coords) = (self.0.coords(), points.coords());
        std::ptr::eq(&self.0, points)
            || (self.0.dim() == points.dim()
                && kept.len() == coords.len()
                && kept
                    .iter()
                    .zip(coords)
                    .all(|(a, b)| a.to_bits() == b.to_bits()))
    }
}

impl fmt::Debug for Points {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Points({} x {})", self.0.len(), self.0.dim())
    }
}

/// Dense near blocks `((i, j), D_{i,j})` in near-list order, behind one
/// shared allocation: handing them out again copies nothing.
pub type NearBlocks = Arc<NearSet>;

/// The near blocks of one evaluation, and the first packing of them a later
/// stage asked for ([`NearSet::packed`]).  Derefs to the blocks.
pub struct NearSet {
    blocks: Vec<((usize, usize), Matrix)>,
    packed: OnceLock<Packed>,
}

/// A buffer packed from a [`NearSet`]'s blocks, and the grouping of pairs it
/// was packed in.
struct Packed {
    groups: Vec<Vec<(usize, usize)>>,
    values: Arc<Vec<f64>>,
}

impl From<Vec<((usize, usize), Matrix)>> for NearSet {
    fn from(blocks: Vec<((usize, usize), Matrix)>) -> Self {
        NearSet {
            blocks,
            packed: OnceLock::new(),
        }
    }
}

impl std::ops::Deref for NearSet {
    type Target = [((usize, usize), Matrix)];

    fn deref(&self) -> &Self::Target {
        &self.blocks
    }
}

impl fmt::Debug for NearSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.blocks, f)
    }
}

impl NearSet {
    /// The buffer `pack` packs these blocks into, visiting their pairs in
    /// the order `groups` lists them; `pack` must read nothing else.
    ///
    /// The first call keeps its buffer with a copy of `groups`, and a later
    /// call with equal groups gets that allocation back without calling
    /// `pack`.  A call with other groups packs afresh and keeps nothing.
    pub fn packed(
        &self,
        groups: &[Vec<(usize, usize)>],
        pack: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        // `get` and `set`, not `get_or_init`: `pack` runs on the pool (see
        // `HTree::near_blocks`).
        let kept = self.packed.get();
        if let Some(p) = kept.filter(|p| p.groups == groups) {
            return Arc::clone(&p.values);
        }
        let values = Arc::new(pack());
        if kept.is_none() {
            // A concurrent first call may have filled the cell meanwhile;
            // its buffer is the same bits.
            let _ = self.packed.set(Packed {
                groups: groups.to_vec(),
                values: Arc::clone(&values),
            });
        }
        values
    }
}

/// Near blocks and the exact inputs they were evaluated from: the kernel
/// and the coordinates by bits, the near lists, and the point indices of
/// every node a near pair reads.  It also holds the leaves' sample blocks
/// once a second call over the same inputs asks for them
/// ([`HTree::leaf_sample_blocks`]).
struct NearField {
    kernel: (u8, [u64; 2]),
    points: Arc<Points>,
    near: Vec<Vec<usize>>,
    /// `(node, tree.indices(node))` for every node in a near pair, ascending.
    rows: Vec<(usize, Vec<usize>)>,
    blocks: NearBlocks,
    leaves: OnceLock<Arc<LeafField>>,
}

impl fmt::Debug for NearField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let leaves = self.leaves.get().map_or(0, |l| l.kept());
        write!(
            f,
            "NearField({} blocks, {leaves} leaf sample blocks)",
            self.blocks.len()
        )
    }
}

/// The sample blocks `K(S_i, I_i)` of every leaf `i`, and the exact inputs
/// beyond a [`NearField`]'s they read: each leaf's index set and samples.
struct LeafField {
    /// `(leaf, tree.indices(leaf), samples[leaf])` for every leaf, in
    /// `tree.leaves()` order (ascending).
    keys: Vec<(usize, Vec<usize>, Vec<usize>)>,
    /// One cell per entry of `keys`, filled by the first call that needs it.
    blocks: Vec<OnceLock<Matrix>>,
}

impl LeafField {
    fn new(tree: &ClusterTree, samples: &[Vec<usize>]) -> Self {
        let keys: Vec<_> = tree
            .leaves()
            .into_iter()
            .map(|id| (id, tree.indices(id).to_vec(), samples[id].clone()))
            .collect();
        let blocks = keys.iter().map(|_| OnceLock::new()).collect();
        LeafField { keys, blocks }
    }

    /// Whether every leaf of `tree` has the index set and samples kept.
    fn reads(&self, tree: &ClusterTree, samples: &[Vec<usize>]) -> bool {
        let leaves = tree.leaves();
        leaves.len() == self.keys.len()
            && leaves.iter().zip(&self.keys).all(|(&id, (kid, rows, s))| {
                id == *kid && tree.indices(id) == &rows[..] && samples[id] == *s
            })
    }

    /// The cell of leaf `id`, if it is one of the kept leaves.
    fn cell(&self, id: usize) -> Option<&OnceLock<Matrix>> {
        let at = self.keys.binary_search_by_key(&id, |k| k.0).ok()?;
        Some(&self.blocks[at])
    }

    /// Number of blocks kept so far.
    fn kept(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
    }
}

/// The sample blocks of a tree's leaves ([`HTree::leaf_sample_blocks`]).
pub struct LeafSampleBlocks<'a> {
    points: &'a PointSet,
    tree: &'a ClusterTree,
    kernel: &'a Kernel,
    samples: &'a [Vec<usize>],
    kept: Option<Arc<LeafField>>,
}

impl LeafSampleBlocks<'_> {
    /// Leaf `id`'s sample block, transposed: `K(samples[id],
    /// tree.indices(id))`, bitwise [`kernel_block`]'s.  A copy of the kept
    /// block when there is one; else it is evaluated, and kept when this
    /// handle fills the memo.
    pub fn block(&self, id: usize) -> Matrix {
        let eval = || {
            let (samples, rows) = (&self.samples[id], self.tree.indices(id));
            kernel_block(self.points, self.kernel, samples, rows)
        };
        let Some(cell) = self.kept.as_ref().and_then(|l| l.cell(id)) else {
            return eval();
        };
        if let Some(block) = cell.get() {
            return block.clone();
        }
        let block = eval();
        // A concurrent call may have filled the cell meanwhile: same bits.
        let _ = cell.set(block.clone());
        block
    }
}

/// Every node a near pair reads the points of, ascending.
fn near_nodes(near: &[Vec<usize>]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..near.len())
        .filter(|&i| !near[i].is_empty())
        .chain(near.iter().flatten().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl NearField {
    /// `points` is the snapshot of the points the blocks were evaluated
    /// from.
    fn new(
        points: Arc<Points>,
        tree: &ClusterTree,
        kernel: &Kernel,
        near: &[Vec<usize>],
        blocks: NearBlocks,
    ) -> Self {
        NearField {
            kernel: kernel.to_bits(),
            points,
            near: near.to_vec(),
            rows: near_nodes(near)
                .into_iter()
                .map(|id| (id, tree.indices(id).to_vec()))
                .collect(),
            blocks,
            leaves: OnceLock::new(),
        }
    }

    /// Whether these blocks are the ones `(points, tree, kernel, near)`
    /// evaluate to: each input equal to the snapshot, bit for bit.
    fn reads(
        &self,
        points: &PointSet,
        tree: &ClusterTree,
        kernel: &Kernel,
        near: &[Vec<usize>],
    ) -> bool {
        self.kernel == kernel.to_bits()
            && self.near == near
            && self.points.are(points)
            && self
                .rows
                .iter()
                .all(|(id, rows)| *id < tree.num_nodes() && tree.indices(*id) == &rows[..])
    }

    /// The leaf sample blocks kept for `(tree, samples)`: made empty by the
    /// first call, shared with a later call over the same leaves and
    /// samples, `None` for any other.
    fn leaf_field(&self, tree: &ClusterTree, samples: &[Vec<usize>]) -> Option<Arc<LeafField>> {
        if self.leaves.get().is_none() {
            // A concurrent call may have filled the cell meanwhile; its key
            // is compared below like any other.
            let _ = self.leaves.set(Arc::new(LeafField::new(tree, samples)));
        }
        self.leaves
            .get()
            .filter(|l| l.reads(tree, samples))
            .map(Arc::clone)
    }
}

impl HTree {
    /// Compute the HTree for `tree` under the given structure mode.
    pub fn build(points_tree: &ClusterTree, structure: Structure) -> HTree {
        let n = points_tree.num_nodes();
        let mut near = vec![Vec::new(); n];
        let mut far = vec![Vec::new(); n];

        if n == 1 {
            // A single-leaf tree: the only block is the dense diagonal.
            near[0].push(0);
            return HTree {
                near,
                far,
                structure,
                points: None,
                near_memo: OnceLock::new(),
            };
        }

        // For budget mode, precompute the leaf-to-leaf "near" relation.
        let leaf_near = match structure {
            Structure::Budget { budget } => Some(budget_leaf_near(points_tree, budget)),
            _ => None,
        };

        // Dual traversal starting from the root's self pair.
        let mut stack = vec![(0usize, 0usize)];
        while let Some((a, b)) = stack.pop() {
            let na = &points_tree.nodes[a];
            let nb = &points_tree.nodes[b];
            if a == b {
                if na.is_leaf() {
                    near[a].push(a);
                } else {
                    let (l, r) = na.children.unwrap();
                    stack.push((l, l));
                    stack.push((l, r));
                    stack.push((r, l));
                    stack.push((r, r));
                }
                continue;
            }
            let admissible = match structure {
                Structure::Hss => true,
                Structure::Geometric { tau } => {
                    let dist = points_tree.node_distance(a, b);
                    tau * dist > na.diameter + nb.diameter
                }
                Structure::Budget { .. } => {
                    !has_near_leaf_pair(points_tree, leaf_near.as_ref().unwrap(), a, b)
                }
            };
            if admissible {
                far[a].push(b);
            } else if na.is_leaf() && nb.is_leaf() {
                near[a].push(b);
            } else if na.is_leaf() {
                let (l, r) = nb.children.unwrap();
                stack.push((a, l));
                stack.push((a, r));
            } else if nb.is_leaf() {
                let (l, r) = na.children.unwrap();
                stack.push((l, b));
                stack.push((r, b));
            } else {
                let (al, ar) = na.children.unwrap();
                let (bl, br) = nb.children.unwrap();
                stack.push((al, bl));
                stack.push((al, br));
                stack.push((ar, bl));
                stack.push((ar, br));
            }
        }

        for list in near.iter_mut().chain(far.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }

        HTree {
            near,
            far,
            structure,
            points: None,
            near_memo: OnceLock::new(),
        }
    }

    /// Keep a copy of `points`, the set this tree was built over, for
    /// [`HTree::built_over`] and [`HTree::kept_points`].
    pub fn keep_points(&mut self, points: &PointSet) {
        self.points = Some(Arc::new(Points(points.clone())));
    }

    /// Whether `points` are the points [`HTree::keep_points`] kept, bit for
    /// bit; `None` if it kept none.
    pub fn built_over(&self, points: &PointSet) -> Option<bool> {
        self.points.as_ref().map(|kept| kept.are(points))
    }

    /// The copy [`HTree::keep_points`] kept.  [`HTree::near_blocks`] over
    /// it compares no coordinates: its memo shares the copy and knows it by
    /// address.
    pub fn kept_points(&self) -> Option<&PointSet> {
        self.points.as_ref().map(|kept| &kept.0)
    }

    /// The dense near blocks `((i, j), K(I_i, I_j))` of every pair of
    /// [`HTree::near`], in list order ([`pair_blocks`], `grain` blocks a
    /// task at least).
    ///
    /// They are evaluated once per tree and kernel.  The first call keeps
    /// them with a copy of everything they read — the kernel and the
    /// coordinates by bits (shared with [`HTree::kept_points`] when `points`
    /// is that copy, else a copy of its own), the near lists and the point
    /// indices of every node in a near pair — and a later call whose inputs
    /// all equal that copy gets the same allocation back; `points` equals
    /// it without a compare when it is the copy itself.  Any other call
    /// evaluates afresh and keeps nothing, so no input is ever served
    /// another input's blocks.
    pub fn near_blocks(
        &self,
        points: &PointSet,
        tree: &ClusterTree,
        kernel: &Kernel,
        grain: usize,
    ) -> NearBlocks {
        // Read with `get`, filled with `set` once the blocks exist, never
        // through `get_or_init`: a pool worker waiting inside the evaluation
        // runs other jobs, and one may ask this tree for its blocks.
        let kept = self.near_memo.get();
        if let Some(field) = kept.filter(|f| f.reads(points, tree, kernel, &self.near)) {
            return Arc::clone(&field.blocks);
        }
        let blocks: NearBlocks = Arc::new(NearSet::from(pair_blocks(
            points,
            kernel,
            &self.near,
            grain,
            |i| tree.indices(i),
        )));
        if kept.is_none() {
            let snapshot = match &self.points {
                Some(kept) if std::ptr::eq(&kept.0, points) => Arc::clone(kept),
                _ => Arc::new(Points(points.clone())),
            };
            let field = NearField::new(snapshot, tree, kernel, &self.near, Arc::clone(&blocks));
            // A concurrent first call may have filled the cell meanwhile; its
            // blocks are the same bits, so either may stay.
            let _ = self.near_memo.set(Arc::new(field));
        }
        blocks
    }

    /// The sample blocks `K(S_i, I_i)` of the leaves of `tree`, `S_i =
    /// samples[i]` ([`LeafSampleBlocks::block`]); `samples` has an entry
    /// per node.
    ///
    /// They read no accuracy, so an accuracy sweep over one tree shares
    /// them; they are kept with the near field ([`HTree::near_blocks`]),
    /// keyed on its inputs and on every leaf's index set and samples.  Only
    /// a call that finds the near field already kept for its inputs keeps
    /// them: asked for before the near blocks, the first compression over a
    /// tree finds none and keeps nothing, so a one-shot inspection copies
    /// nothing; the second fills the memo, and every later call over equal
    /// inputs copies from it.  A call over other inputs evaluates afresh
    /// and leaves the memo alone.
    pub fn leaf_sample_blocks<'a>(
        &self,
        points: &'a PointSet,
        tree: &'a ClusterTree,
        kernel: &'a Kernel,
        samples: &'a [Vec<usize>],
    ) -> LeafSampleBlocks<'a> {
        let kept = self
            .near_memo
            .get()
            .filter(|f| f.reads(points, tree, kernel, &self.near))
            .and_then(|f| f.leaf_field(tree, samples));
        LeafSampleBlocks {
            points,
            tree,
            kernel,
            samples,
            kept,
        }
    }

    /// How many leaf sample blocks the memo of
    /// [`HTree::leaf_sample_blocks`] holds.
    pub fn kept_leaf_blocks(&self) -> usize {
        let leaves = self.near_memo.get().and_then(|f| f.leaves.get());
        leaves.map_or(0, |l| l.kept())
    }

    /// Total number of (directed) near interactions.
    pub fn num_near(&self) -> usize {
        self.near.iter().map(|v| v.len()).sum()
    }

    /// Total number of (directed) far interactions.
    pub fn num_far(&self) -> usize {
        self.far.iter().map(|v| v.len()).sum()
    }

    /// All directed near pairs `(i, j)`.
    pub fn near_pairs(&self) -> Vec<(usize, usize)> {
        self.near
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
            .collect()
    }

    /// All directed far pairs `(i, j)`.
    pub fn far_pairs(&self) -> Vec<(usize, usize)> {
        self.far
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
            .collect()
    }
}

/// Budget-mode near relation between leaves: each leaf marks the
/// `ceil(budget * #leaves)` leaves with the closest centroids (plus itself)
/// as near; the relation is then symmetrized.
fn budget_leaf_near(tree: &ClusterTree, budget: f64) -> Vec<Vec<bool>> {
    let leaves = tree.leaves();
    let nl = leaves.len();
    // leaf position lookup by node id
    let mut pos = vec![usize::MAX; tree.num_nodes()];
    for (p, &l) in leaves.iter().enumerate() {
        pos[l] = p;
    }
    let keep = ((budget * nl as f64).ceil() as usize).min(nl.saturating_sub(1));
    let mut near = vec![vec![false; nl]; nl];
    for (pi, &li) in leaves.iter().enumerate() {
        near[pi][pi] = true;
        if keep == 0 {
            continue;
        }
        let mut dists: Vec<(f64, usize)> = leaves
            .iter()
            .enumerate()
            .filter(|&(pj, _)| pj != pi)
            .map(|(pj, &lj)| (tree.node_distance(li, lj), pj))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(_, pj) in dists.iter().take(keep) {
            near[pi][pj] = true;
            near[pj][pi] = true;
        }
    }
    near
}

/// True when some descendant leaf of `a` is marked near some descendant leaf
/// of `b` in the budget relation.
fn has_near_leaf_pair(tree: &ClusterTree, leaf_near: &[Vec<bool>], a: usize, b: usize) -> bool {
    let leaves = tree.leaves();
    let ra = (tree.nodes[a].start, tree.nodes[a].end);
    let rb = (tree.nodes[b].start, tree.nodes[b].end);
    let under = |range: (usize, usize)| -> Vec<usize> {
        leaves
            .iter()
            .enumerate()
            .filter(|&(_, &l)| tree.nodes[l].start >= range.0 && tree.nodes[l].end <= range.1)
            .map(|(p, _)| p)
            .collect()
    };
    let la = under(ra);
    let lb = under(rb);
    la.iter().any(|&pa| lb.iter().any(|&pb| leaf_near[pa][pb]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctree::{ClusterTree, PartitionMethod};
    use matrox_points::{generate, DatasetId};

    fn build_tree(n: usize, leaf: usize) -> ClusterTree {
        let pts = generate(DatasetId::Grid, n, 1);
        ClusterTree::build(&pts, PartitionMethod::KdTree, leaf, 0)
    }

    fn check_symmetry(h: &HTree) {
        for (i, js) in h.near.iter().enumerate() {
            for &j in js {
                assert!(h.near[j].contains(&i), "near not symmetric: ({i},{j})");
            }
        }
        for (i, js) in h.far.iter().enumerate() {
            for &j in js {
                assert!(h.far[j].contains(&i), "far not symmetric: ({i},{j})");
            }
        }
    }

    /// Every ordered leaf pair must be covered exactly once: either by a near
    /// leaf-leaf interaction or by exactly one far interaction between
    /// ancestors (including the leaves themselves).
    fn check_coverage(tree: &ClusterTree, h: &HTree) {
        let leaves = tree.leaves();
        let ancestors = |mut x: usize| -> Vec<usize> {
            let mut v = vec![x];
            while let Some(p) = tree.nodes[x].parent {
                v.push(p);
                x = p;
            }
            v
        };
        for &la in &leaves {
            for &lb in &leaves {
                let mut count = 0;
                if h.near[la].contains(&lb) {
                    count += 1;
                }
                for &aa in &ancestors(la) {
                    for &ab in &ancestors(lb) {
                        if h.far[aa].contains(&ab) {
                            count += 1;
                        }
                    }
                }
                assert_eq!(
                    count, 1,
                    "leaf pair ({la},{lb}) covered {count} times instead of once"
                );
            }
        }
    }

    #[test]
    fn hss_structure_has_sibling_far_and_diagonal_near() {
        let tree = build_tree(256, 16);
        let h = HTree::build(&tree, Structure::Hss);
        // Near interactions are exactly the leaf diagonal.
        for (i, js) in h.near.iter().enumerate() {
            if tree.nodes[i].is_leaf() {
                assert_eq!(js, &vec![i]);
            } else {
                assert!(js.is_empty());
            }
        }
        // Every non-root node is far from exactly its sibling.
        for node in &tree.nodes {
            if let Some(p) = node.parent {
                let (l, r) = tree.nodes[p].children.unwrap();
                let sib = if node.id == l { r } else { l };
                assert_eq!(h.far[node.id], vec![sib]);
            }
        }
        check_symmetry(&h);
        check_coverage(&tree, &h);
    }

    #[test]
    fn geometric_structure_covers_all_pairs_once() {
        let tree = build_tree(256, 16);
        let h = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        check_symmetry(&h);
        check_coverage(&tree, &h);
        assert!(h.num_near() > 0);
        assert!(h.num_far() > 0);
    }

    #[test]
    fn budget_structure_covers_all_pairs_once() {
        let pts = generate(DatasetId::Higgs, 512, 3);
        let tree = ClusterTree::build(&pts, PartitionMethod::TwoMeans, 32, 0);
        let h = HTree::build(&tree, Structure::h2b());
        check_symmetry(&h);
        check_coverage(&tree, &h);
    }

    #[test]
    fn budget_zero_equals_hss_near_count() {
        let tree = build_tree(256, 16);
        let h_b0 = HTree::build(&tree, Structure::Budget { budget: 0.0 });
        let h_hss = HTree::build(&tree, Structure::Hss);
        assert_eq!(h_b0.num_near(), h_hss.num_near());
    }

    #[test]
    fn larger_budget_gives_more_near_interactions() {
        let tree = build_tree(512, 16);
        let small = HTree::build(&tree, Structure::Budget { budget: 0.03 });
        let large = HTree::build(&tree, Structure::Budget { budget: 0.25 });
        assert!(large.num_near() >= small.num_near());
    }

    #[test]
    fn looser_tau_gives_more_far_interactions() {
        let tree = build_tree(512, 16);
        // Larger tau admits pairs more easily -> more far blocks at higher
        // levels and fewer near blocks.
        let tight = HTree::build(&tree, Structure::Geometric { tau: 0.5 });
        let loose = HTree::build(&tree, Structure::Geometric { tau: 3.0 });
        assert!(loose.num_near() <= tight.num_near());
        check_coverage(&build_tree(512, 16), &tight);
    }

    #[test]
    fn single_leaf_tree_has_one_near_block() {
        let pts = generate(DatasetId::Random, 8, 5);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let h = HTree::build(&tree, Structure::Hss);
        assert_eq!(h.num_near(), 1);
        assert_eq!(h.num_far(), 0);
    }

    #[test]
    fn far_interactions_connect_same_level_nodes() {
        let tree = build_tree(256, 16);
        for s in [
            Structure::Hss,
            Structure::Geometric { tau: 0.65 },
            Structure::h2b(),
        ] {
            let h = HTree::build(&tree, s);
            for (i, js) in h.far.iter().enumerate() {
                for &j in js {
                    assert_eq!(
                        tree.nodes[i].level, tree.nodes[j].level,
                        "far pair ({i},{j}) spans levels in {:?}",
                        s
                    );
                }
            }
        }
    }
}
