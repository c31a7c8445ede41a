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

use matrox_analysis::{BlockSet, Cds, CoarsenSet};

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
    /// Coarsened tree loops (coarsen levels + load-balanced sub-trees) vs.
    /// level-by-level traversal.
    pub coarsen_tree: bool,
    /// Peel the last coarsen level and use block-level parallelism inside it.
    pub peel_root: bool,
}

/// The specialized evaluation plan: the MatRox "generated code" plus the CDS
/// payload it runs over.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// Lowering decisions taken by code generation.
    pub decisions: LoweringDecisions,
    /// Structure set driving the blocked near loop.
    pub near_blockset: BlockSet,
    /// Structure set driving the blocked far/coupling loop.
    pub far_blockset: BlockSet,
    /// Structure set driving the coarsened tree loops.
    pub coarsenset: CoarsenSet,
    /// Submatrices stored in the Compressed Data-Sparse format.
    pub cds: Cds,
    /// Number of tree levels (cached for reporting and threshold decisions).
    pub tree_height: usize,
    /// Number of leaf nodes (the default block threshold).
    pub num_leaves: usize,
}

impl EvalPlan {
    /// Floating-point operations of one evaluation with `q` right-hand-side
    /// columns (multiply-add counted as two flops).  Used by the Figure 5
    /// harness to report GFLOP/s.
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
                // V^T in the upward pass and U in the downward pass.
                per_col += 2 * (g.rows * g.cols) as u64;
            }
        }
        2 * per_col * q as u64
    }

    /// Bytes of submatrix data touched by one evaluation (CDS payload).
    pub fn storage_bytes(&self) -> usize {
        self.cds.storage_bytes()
    }
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
/// payload.
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
        near_blockset,
        far_blockset,
        coarsenset,
        cds,
        tree_height,
        num_leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_analysis::{build_blockset, build_cds, build_coarsenset, CoarsenParams};
    use matrox_compress::{compress, CompressionParams};
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};

    fn make_plan(structure: Structure, params: &CodegenParams) -> EvalPlan {
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
        generate_plan(near, far, cs, cds, tree.height, tree.leaves().len(), params)
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
