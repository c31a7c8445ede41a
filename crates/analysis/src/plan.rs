//! Evaluation-plan generation ("code lowering").
//!
//! MatRox's code-generation stage lowers an internal AST of the
//! HMatrix-matrix multiplication into specialized code, applying *block
//! lowering* and/or *coarsen lowering* depending on whether the amount of
//! parallel work passes architecture-related thresholds, plus low-level
//! specializations such as peeling the last (root-most) iteration of the tree
//! loop (Section 3.3).
//!
//! In this Rust reproduction the "generated code" is an [`EvalPlan`]: a
//! complete, explicit description of the loop structure the generated code
//! would have (which loops exist, in which order, how they are parallelized,
//! over which structure sets they iterate, and where every submatrix lives in
//! CDS).  The executor in `matrox-exec` interprets the plan with
//! monomorphized kernels, in place of the `matmul.h` file the original
//! framework writes to disk (Figure 2).  See DESIGN.md substitution S3.

use crate::{BlockSet, Cds, CdsBlockEntry, CoarsenSet, GroupRange};
use matrox_tree::{ensure, ClusterTree};

/// Thresholds and switches controlling lowering decisions.
#[derive(Debug, Clone, Copy)]
pub struct CodegenParams {
    /// Block lowering is applied when the number of near (or far)
    /// interactions exceeds this threshold.  The paper's default is the
    /// number of leaf nodes, expressed here as `None`; `Some(t)` overrides it.
    pub block_threshold: Option<usize>,
    /// Coarsen lowering is applied when the number of tree levels exceeds
    /// this threshold (paper default: 4).
    pub coarsen_threshold: usize,
    /// Apply the low-level specialization that peels the last (root-most)
    /// coarsen level and runs it with block-level (parallel GEMM) parallelism.
    pub enable_peeling: bool,
}

impl Default for CodegenParams {
    fn default() -> Self {
        CodegenParams {
            block_threshold: None,
            coarsen_threshold: 4,
            enable_peeling: true,
        }
    }
}

/// Which loop structures the generated code uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringDecisions {
    /// Blocked (reduction-free, parallel) near loop vs. plain sequential loop.
    pub block_near: bool,
    /// Blocked far/coupling loop.
    pub block_far: bool,
    /// Tree loops parallel over the load-balanced sub-trees of each coarsen
    /// level vs. the same walk over the coarsen set on one thread.
    pub coarsen_tree: bool,
    /// Peel the last coarsen level and use block-level parallelism inside it.
    pub peel_root: bool,
}

/// The specialized evaluation plan: the MatRox "generated code" plus the CDS
/// payload it runs over.  The blocksets driving the blocked loops are not
/// stored beside the CDS: its entry and group tables *are* the blocksets, in
/// blockset order.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// Lowering decisions taken by code generation.
    pub decisions: LoweringDecisions,
    /// Structure set driving the coarsened tree loops.
    pub coarsenset: CoarsenSet,
    /// Submatrices stored in the Compressed Data-Sparse format.
    pub cds: Cds,
}

impl EvalPlan {
    /// Floating-point operations of one evaluation with `q` right-hand-side
    /// columns (multiply-add counted as two flops).
    pub fn flops(&self, q: usize) -> u64 {
        let mut per_col: u64 = 0;
        for e in &self.cds.d_entries {
            per_col += (e.rows * e.cols) as u64;
        }
        for e in &self.cds.b_entries {
            per_col += (e.rows * e.cols) as u64;
        }
        for g in &self.cds.generators {
            if g.is_present() {
                // V^T in the upward pass and V in the downward pass.
                per_col += 2 * (g.rows * g.cols) as u64;
            }
        }
        2 * per_col * q as u64
    }

    /// Bytes of submatrix data touched by one evaluation (CDS payload).
    pub fn storage_bytes(&self) -> usize {
        self.cds.storage_bytes()
    }

    /// The one definition of a well-formed `(tree, plan)` pair.  The model
    /// readers call it before returning a handle, the executor before any
    /// raw slicing, the solver (through `HssFactor::validate`) before its
    /// sweeps — so what one consumer accepts, every consumer can run.  On
    /// top of [`ClusterTree::validate`] (T1–T6):
    ///
    /// * **P2** `sranks` and `generators` have one entry per node; a node
    ///   stores a generator exactly when its srank is positive; a stored
    ///   generator's window lies inside `gen_values` (checked arithmetic),
    ///   its width is the srank and its height the leaf's point count or the
    ///   children's summed sranks;
    /// * **P3** every near block connects two leaves and is
    ///   `points(target) x points(source)`; every coupling block is
    ///   `srank(target) x srank(source)`, as `build_cds` packs them
    ///   (zero-dimension blocks included); both name nodes of the tree and
    ///   lie inside their value buffer; a transposed entry (one that reads
    ///   its twin's window) is off-diagonal;
    /// * **P4** the group ranges of each block table tile it in order, and a
    ///   target node belongs to exactly one group (Algorithm 1);
    /// * **P5** coarsen partitions name nodes of the tree;
    /// * **P6** every node but the root is in exactly one coarsen partition
    ///   and the root is in none (Figure 1b: the tree sweeps visit it on its
    ///   own), and a node's children come before it: on an earlier coarsen
    ///   level, or earlier in the same partition (Algorithm 2's
    ///   happens-before order).
    ///
    /// Costs `O(nodes + blocks)` and three allocations on success.
    ///
    /// # Errors
    /// A message naming the first violated item.
    pub fn validate(&self, tree: &ClusterTree) -> Result<(), String> {
        tree.validate()?;
        let (cds, nodes) = (&self.cds, &tree.nodes);
        let (n_nodes, sranks) = (nodes.len(), &cds.sranks);
        ensure(
            sranks.len() == n_nodes && cds.generators.len() == n_nodes,
            || {
                let (r, g) = (sranks.len(), cds.generators.len());
                format!("{r} sranks and {g} generators for a {n_nodes}-node tree")
            },
        )?;
        for (id, (g, node)) in cds.generators.iter().zip(nodes).enumerate() {
            let srank = sranks[id];
            ensure(g.is_present() == (srank > 0), || {
                let stored = if g.is_present() { "a" } else { "no" };
                format!("node {id} has srank {srank} but {stored} stored generator")
            })?;
            if srank == 0 {
                continue;
            }
            let len = cds.gen_values.len();
            ensure(in_window(g.v_offset, g.rows, g.cols, len), || {
                format!("generator {id} exceeds the {len}-element value buffer")
            })?;
            let rows = match node.children {
                None => Some(node.num_points()),
                Some((l, r)) => sranks[l].checked_add(sranks[r]),
            };
            ensure(g.cols == srank && Some(g.rows) == rows, || {
                let (r, c) = (g.rows, g.cols);
                format!("generator of node {id} is {r}x{c}, expected {rows:?}x{srank}")
            })?;
        }

        let points = |id: usize| nodes[id].is_leaf().then(|| nodes[id].num_points());
        check_block_table(
            &cds.d_entries,
            &cds.d_groups,
            cds.d_values.len(),
            "near",
            n_nodes,
            points,
        )?;
        let srank_of = |id: usize| Some(sranks[id]);
        check_block_table(
            &cds.b_entries,
            &cds.b_groups,
            cds.b_values.len(),
            "coupling",
            n_nodes,
            srank_of,
        )?;

        // One pass in execution order.  `done[id]` is the (level, partition)
        // that computes `id`; a node met after its parent, or a child done
        // by another partition of the same level, breaks the order.
        let mut done: Vec<Option<(usize, usize)>> = vec![None; n_nodes];
        for (cl, parts) in self.coarsenset.levels.iter().enumerate() {
            for (pi, part) in parts.iter().enumerate() {
                for &id in part {
                    ensure(id < n_nodes, || {
                        "coarsen partition references a node outside the tree".to_string()
                    })?;
                    ensure(done[id].is_none(), || {
                        format!("coarsen partitions must own disjoint node sets (node {id})")
                    })?;
                    ensure(nodes[id].parent.is_some(), || {
                        format!("coarsen set: the root (node {id}) is in a partition")
                    })?;
                    let after_parent = nodes[id].parent.is_some_and(|p| done[p].is_some());
                    let foreign = |c: usize| done[c].is_some_and(|at| at.0 == cl && at.1 != pi);
                    let children = nodes[id].children;
                    let foreign_child = children.is_some_and(|(l, r)| foreign(l) || foreign(r));
                    ensure(!after_parent && !foreign_child, || {
                        format!(
                            "coarsen set: node {id} is not computed after its children and \
                             before its parent (an earlier level, or earlier in its partition)"
                        )
                    })?;
                    done[id] = Some((cl, pi));
                }
            }
        }
        match (1..n_nodes).find(|&id| done[id].is_none()) {
            Some(id) => Err(format!("coarsen set: node {id} is in no partition")),
            None => Ok(()),
        }
    }
}

/// `offset + rows * cols <= len`, without overflow: the window a CDS
/// accessor slices unchecked.
fn in_window(offset: usize, rows: usize, cols: usize, len: usize) -> bool {
    let end = rows.checked_mul(cols).and_then(|n| n.checked_add(offset));
    end.is_some_and(|end| end <= len)
}

/// P3 and P4 of [`EvalPlan::validate`] for one block table.  `dim(id)` is
/// the row / column count a block must have at node `id`, `None` when the
/// node cannot carry such a block.
fn check_block_table(
    entries: &[CdsBlockEntry],
    groups: &[GroupRange],
    values_len: usize,
    what: &str,
    n_nodes: usize,
    dim: impl Fn(usize) -> Option<usize>,
) -> Result<(), String> {
    for e in entries {
        let (t, s, r, c) = (e.target, e.source, e.rows, e.cols);
        ensure(t < n_nodes && s < n_nodes, || {
            format!("{what} block references a node outside the tree")
        })?;
        ensure(Some(r) == dim(t) && Some(c) == dim(s), || {
            let (er, ec) = (dim(t), dim(s));
            format!("{what} block ({t}, {s}) is {r}x{c}, expected {er:?}x{ec:?}")
        })?;
        ensure(in_window(e.offset, r, c, values_len), || {
            format!("{what} block ({t}, {s}) exceeds its {values_len}-element value buffer")
        })?;
        ensure(!e.transposed || t != s, || {
            format!("{what} block ({t}, {t}) is diagonal but marked transposed")
        })?;
    }
    let untiled = || format!("{what} group ranges do not tile the entry table");
    let mut owner = vec![usize::MAX; n_nodes];
    let mut next = 0;
    for (gi, g) in groups.iter().enumerate() {
        let tiles = g.start == next && g.start <= g.end && g.end <= entries.len();
        ensure(tiles, untiled)?;
        next = g.end;
        for e in &entries[g.start..g.end] {
            ensure(
                owner[e.target] == usize::MAX || owner[e.target] == gi,
                || format!("{what} blockset groups must own disjoint target nodes"),
            )?;
            owner[e.target] = gi;
        }
    }
    ensure(next == entries.len(), untiled)
}

/// Take the lowering decisions for the given structure sets (the
/// block/coarsen-lowering boxes of Figure 3).
pub fn lower(
    near_blockset: &BlockSet,
    far_blockset: &BlockSet,
    coarsenset: &CoarsenSet,
    tree_height: usize,
    num_leaves: usize,
    params: &CodegenParams,
) -> LoweringDecisions {
    let block_threshold = params.block_threshold.unwrap_or(num_leaves);
    // Block lowering: only worth it when there are strictly more interactions
    // than the threshold (for HSS the near interactions equal the number of
    // leaves, so block lowering is never activated — Section 4.3).
    let block_near = near_blockset.num_interactions() > block_threshold;
    let block_far = far_blockset.num_interactions() > block_threshold;
    // Coarsen lowering: needs enough levels to amortize thread launch.
    let coarsen_tree = tree_height > params.coarsen_threshold && coarsenset.num_levels() > 0;
    let peel_root = params.enable_peeling && coarsenset.num_levels() > 1;
    LoweringDecisions {
        block_near,
        block_far,
        coarsen_tree,
        peel_root,
    }
}

/// Assemble the full evaluation plan from the structure sets and the CDS
/// payload.  The blocksets, the height and the leaf count only feed the
/// lowering decisions: `cds` was packed in blockset order and the tree keeps
/// its own height.
pub fn generate_plan(
    near_blockset: BlockSet,
    far_blockset: BlockSet,
    coarsenset: CoarsenSet,
    cds: Cds,
    tree_height: usize,
    num_leaves: usize,
    params: &CodegenParams,
) -> EvalPlan {
    let decisions = lower(
        &near_blockset,
        &far_blockset,
        &coarsenset,
        tree_height,
        num_leaves,
        params,
    );
    EvalPlan {
        decisions,
        coarsenset,
        cds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_blockset, build_cds, build_coarsenset, CoarsenParams};
    use matrox_compress::{compress, CompressionParams};
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};

    fn make_plan(structure: Structure, params: &CodegenParams) -> EvalPlan {
        tree_and_plan(structure, params).1
    }

    fn tree_and_plan(structure: Structure, params: &CodegenParams) -> (ClusterTree, EvalPlan) {
        let pts = generate(DatasetId::Grid, 512, 3);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let htree = HTree::build(&tree, structure);
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
        let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
        let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
        let cds = build_cds(&tree, &c, &near, &far, &cs);
        let (height, leaves) = (tree.height, tree.leaves().len());
        (
            tree,
            generate_plan(near, far, cs, cds, height, leaves, params),
        )
    }

    #[test]
    fn hss_never_activates_near_block_lowering() {
        let plan = make_plan(Structure::Hss, &CodegenParams::default());
        assert!(
            !plan.decisions.block_near,
            "HSS must not block-lower the near loop"
        );
        assert!(plan.decisions.coarsen_tree);
    }

    #[test]
    fn geometric_structure_activates_block_lowering() {
        let plan = make_plan(
            Structure::Geometric { tau: 0.65 },
            &CodegenParams::default(),
        );
        assert!(
            plan.decisions.block_near,
            "geometric admissibility has off-diagonal near blocks and must block-lower"
        );
    }

    #[test]
    fn coarsen_threshold_disables_coarsening_for_shallow_trees() {
        let params = CodegenParams {
            coarsen_threshold: 1000,
            ..Default::default()
        };
        let plan = make_plan(Structure::Hss, &params);
        assert!(!plan.decisions.coarsen_tree);
    }

    #[test]
    fn peeling_requires_multiple_coarsen_levels() {
        let plan = make_plan(Structure::Hss, &CodegenParams::default());
        assert_eq!(plan.decisions.peel_root, plan.coarsenset.num_levels() > 1);
        let no_peel = CodegenParams {
            enable_peeling: false,
            ..Default::default()
        };
        let plan2 = make_plan(Structure::Hss, &no_peel);
        assert!(!plan2.decisions.peel_root);
    }

    #[test]
    fn flop_count_is_positive_and_scales_with_q() {
        let plan = make_plan(
            Structure::Geometric { tau: 0.65 },
            &CodegenParams::default(),
        );
        let f1 = plan.flops(1);
        let f4 = plan.flops(4);
        assert!(f1 > 0);
        assert_eq!(f4, 4 * f1);
    }

    #[test]
    fn a_transposed_diagonal_block_is_rejected() {
        let (tree, mut plan) = tree_and_plan(Structure::Hss, &CodegenParams::default());
        assert_eq!(plan.validate(&tree), Ok(()));
        let e = &mut plan.cds.d_entries[0];
        assert_eq!(e.target, e.source, "HSS near blocks are diagonal");
        e.transposed = true;
        let err = plan
            .validate(&tree)
            .expect_err("a transposed diagonal block");
        assert!(err.contains("diagonal but marked transposed"), "{err}");
    }

    #[test]
    fn a_coarsen_set_must_hold_every_node_but_the_root() {
        let (tree, plan) = tree_and_plan(Structure::Hss, &CodegenParams::default());
        assert_eq!(plan.validate(&tree), Ok(()));
        // The root on a coarsen level of its own: after its children, so
        // the happens-before order alone would accept it.
        let mut with_root = plan.clone();
        with_root.coarsenset.levels.push(vec![vec![0]]);
        with_root.coarsenset.costs.push(vec![0]);
        let err = with_root
            .validate(&tree)
            .expect_err("the root in a partition");
        assert!(err.contains("the root (node 0) is in a partition"), "{err}");
        // A leaf dropped from its partition.
        let mut without_leaf = plan.clone();
        let part = &mut without_leaf.coarsenset.levels[0][0];
        let leaf = part.remove(0);
        assert!(tree.nodes[leaf].is_leaf());
        let err = without_leaf
            .validate(&tree)
            .expect_err("a node in no partition");
        assert!(
            err.contains(&format!("node {leaf} is in no partition")),
            "{err}"
        );
    }

    #[test]
    fn explicit_block_threshold_overrides_default() {
        let params = CodegenParams {
            block_threshold: Some(0),
            ..Default::default()
        };
        let plan = make_plan(Structure::Hss, &params);
        assert!(
            plan.decisions.block_near,
            "threshold 0 must force block lowering"
        );
    }
}
