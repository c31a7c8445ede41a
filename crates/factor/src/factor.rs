//! The ULV-style HSS factorization: one node step per node (a leaf's
//! Cholesky or a sibling merge's LU).

use matrox_analysis::{CdsBlockEntry, EvalPlan};
use matrox_exec::{ExecOptions, ValidPlan};
use matrox_linalg::{
    cholesky, cholesky_inverse, cholesky_solve_in_place, lu_factor, lu_inverse, lu_solve_in_place,
    KernelDispatch, Matrix,
};
use matrox_tree::{ensure, ClusterTree};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Error raised while factoring a compressed matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The plan was not built with the HSS (weak admissibility) structure:
    /// the merge step can only fold sibling coupling blocks, not arbitrary
    /// off-diagonal dense blocks.
    UnsupportedStructure(String),
    /// A leaf diagonal block is not (numerically) positive definite; the
    /// factorization requires an SPD kernel matrix.
    NotPositiveDefinite {
        /// Cluster-tree node whose diagonal block failed.
        node: usize,
        /// Failing pivot index within the block.
        pivot: usize,
        /// Failing pivot value.
        value: f64,
    },
    /// A sibling-merge system was singular (the compressed operator is not
    /// invertible at the requested accuracy).
    SingularMerge {
        /// Internal node whose merge system broke down.
        node: usize,
    },
    /// The plan/tree/right-hand side handed to a solve do not belong to this
    /// factorization (wrong dimensions, missing per-node factors).  The
    /// public entry points return this instead of panicking so a stale or
    /// mismatched handle is a request failure, not a process failure.
    PlanMismatch(String),
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::UnsupportedStructure(m) => write!(f, "unsupported structure: {m}"),
            FactorError::NotPositiveDefinite { node, pivot, value } => write!(
                f,
                "leaf block of node {node} is not positive definite (pivot {pivot} = {value:e})"
            ),
            FactorError::SingularMerge { node } => {
                write!(f, "sibling merge system at node {node} is singular")
            }
            FactorError::PlanMismatch(m) => write!(f, "plan mismatch: {m}"),
        }
    }
}
impl std::error::Error for FactorError {}

/// Wall-clock breakdown of the factorization, mirroring
/// `InspectorTimings` for the inspector phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct FactorTimings {
    /// Leaf phase: dense Cholesky of every diagonal block, the
    /// `E_i = D_i^{-1} U_i` substitutions and the inverses `D_i^{-1}`.
    pub leaf_cholesky: Duration,
    /// Merge phase: assembling and LU-factoring the sibling systems, the
    /// `T_p` substitutions, the inverses `M_p^{-1}`, and propagating the
    /// reduced matrices `G_i` up the tree.
    pub merge: Duration,
    /// Number of ridge-escalation retries the breakdown-recovery loop needed
    /// before the factorization succeeded (0 = first attempt was clean).
    /// Written by `matrox_core::HMatrix::factorize`; a direct [`factor`]
    /// call always reports 0.
    pub ridge_attempts: u32,
    /// The diagonal shift `lambda` the successful attempt was factored with
    /// (`K~ + lambda I`); 0 when no escalation was needed.
    pub applied_ridge: f64,
}

impl FactorTimings {
    /// Total factorization time.
    pub fn total(&self) -> Duration {
        self.leaf_cholesky + self.merge
    }
}

/// One node's factor: what the solve applies to the `m` rows the node's
/// basis stacks — a leaf's points, or its children's stacked pair of
/// skeleton coefficients (`m = k_l + k_r`).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFactor {
    /// The inverse of the node's system (`m x m`), formed from its
    /// factorization so the upward sweep applies it as one product: a
    /// leaf's `D_i^{-1}` (symmetric, from the Cholesky factor of the
    /// ridge-shifted diagonal block), an internal node's `M_p^{-1}` of
    /// `M_p = [I, G_l B_{l,r}; G_r B_{r,l}, I]` (from its partial-pivoted
    /// LU).
    pub inv: Matrix,
    /// The node's basis solved against its system (`m x srank`), by
    /// substitution against the factorization: a leaf's
    /// `E_i = D_i^{-1} U_i`, an internal node's
    /// `T_p = M_p^{-1} [G_l R_l; G_r R_r]`.  The downward sweep subtracts
    /// `map s` from the node's rows.
    pub map: Matrix,
}

/// The ULV-style factorization of an HSS-compressed SPD kernel matrix.
///
/// Produced by [`factor`]; consumed by
/// [`solve_matrix`](HssFactor::solve_matrix) /
/// [`solve`](HssFactor::solve) together with the plan and tree it was
/// factored from.
#[derive(Debug, Clone)]
pub struct HssFactor {
    /// Problem size `N`.
    pub n: usize,
    /// One factor per node, indexed by node id.
    pub nodes: Vec<NodeFactor>,
    /// Wall-clock breakdown of the factorization (zeroed after
    /// deserialization, like the inspector timings).
    pub timings: FactorTimings,
}

impl HssFactor {
    /// Bytes of factor payload (every node's inverse and map) — the storage
    /// the solver adds on top of the CDS buffers.
    pub fn storage_bytes(&self) -> usize {
        let values: usize = self.nodes.iter().map(|f| f.inv.len() + f.map.len()).sum();
        values * std::mem::size_of::<f64>()
    }
}

/// The blocks of a validated HSS plan by node id: what the factorization
/// and the solve sweeps index instead of searching the CDS tables, with the
/// [`ValidPlan`] proof the solve hands the tree-sweep driver.  Only
/// [`HssFactor::validate`] and [`factor_with_ridge`] build one, and building
/// it is the one definition of an HSS plan the merge recursion can fold —
/// on top of [`EvalPlan::validate`] (T1–T6, P2–P6):
///
/// * **F1** every near block is the diagonal block of a leaf and every
///   leaf stores exactly one;
/// * **F2** every coupling block links a node to its sibling and every
///   node but the root has exactly one coupling entry, stored or
///   transposed.
pub struct HssIndex<'a> {
    /// The `(plan, tree)` pair [`EvalPlan::validate`] accepted.
    pub(crate) valid: ValidPlan<'a>,
    /// `diag[id]`: the dense diagonal block `D_id` of leaf `id` (empty for
    /// internal nodes).
    pub(crate) diag: Vec<&'a [f64]>,
    /// `coupling[id]`: the entry of `B_{id, sibling(id)}`,
    /// `srank(id) x srank(sibling)`, with its window (the sibling's block
    /// `B_{sibling(id), id}` when the entry is transposed); `None` for the
    /// root.
    coupling: Vec<Option<(&'a CdsBlockEntry, &'a [f64])>>,
}

impl<'a> HssIndex<'a> {
    /// Check `(tree, plan)` (see the type) and index its blocks:
    /// [`FactorError::PlanMismatch`] for a malformed plan,
    /// [`FactorError::UnsupportedStructure`] for a well-formed one that is
    /// not HSS (weak admissibility).
    pub(crate) fn build(plan: &'a EvalPlan, tree: &'a ClusterTree) -> Result<Self, FactorError> {
        let valid = ValidPlan::new(plan, tree).map_err(FactorError::PlanMismatch)?;
        let (cds, nodes) = (&plan.cds, &tree.nodes);
        let unsupported = FactorError::UnsupportedStructure;
        let mut diag = vec![None; nodes.len()];
        for e in &cds.d_entries {
            let (t, s) = (e.target, e.source);
            ensure(t == s, || {
                unsupported(format!(
                    "near block ({t}, {s}) is off-diagonal; the ULV factorization requires \
                     the HSS (weak admissibility) structure"
                ))
            })?;
            ensure(diag[t].replace(cds.d_block(e)).is_none(), || {
                unsupported(format!("leaf node {t} stores two diagonal blocks"))
            })?;
        }
        let mut coupling = vec![None; nodes.len()];
        for e in &cds.b_entries {
            let (t, s) = (e.target, e.source);
            let siblings =
                t != s && nodes[t].parent.is_some() && nodes[t].parent == nodes[s].parent;
            ensure(siblings, || {
                unsupported(format!(
                    "coupling block ({t}, {s}) links non-sibling nodes; the merge recursion \
                     requires HSS sibling coupling only"
                ))
            })?;
            ensure(coupling[t].replace((e, cds.b_block(e))).is_none(), || {
                unsupported(format!(
                    "node {t} stores two coupling blocks to its sibling"
                ))
            })?;
        }
        for (id, node) in nodes.iter().enumerate() {
            ensure(!node.is_leaf() || diag[id].is_some(), || {
                unsupported(format!("leaf node {id} has no stored diagonal block"))
            })?;
            ensure(id == 0 || coupling[id].is_some(), || {
                unsupported(format!(
                    "node {id} has no stored coupling block to its sibling"
                ))
            })?;
        }
        Ok(HssIndex {
            valid,
            diag: diag.into_iter().map(Option::unwrap_or_default).collect(),
            coupling,
        })
    }

    /// `s += B_{id, sibling(id)} t` for a `q`-column `t`, on `disp`, as
    /// [`CdsBlockEntry::apply`] reads the block.
    pub(crate) fn apply_coupling(
        &self,
        disp: KernelDispatch,
        id: usize,
        t: &[f64],
        q: usize,
        s: &mut [f64],
    ) {
        if let Some((e, window)) = self.coupling[id] {
            e.apply(disp, window, t, q, s);
        }
    }

    /// Write `G_id B_{id, sibling(id)}` into `mm` at row `r0`, column `c0`,
    /// from `gt = G_id^T`.  A stored block is the right operand of
    /// `gt^T B`; a twin's window `B_{sibling(id), id}` is the left operand of
    /// `window gt`, the block's transpose, which is written transposed.
    /// Either way each entry is the same products, `p` ascending.
    fn write_coupled(
        &self,
        disp: KernelDispatch,
        id: usize,
        gt: &[f64],
        mm: &mut Matrix,
        (r0, c0): (usize, usize),
    ) {
        let Some((e, window)) = self.coupling[id] else {
            return;
        };
        let (k, ks) = (e.rows, e.cols);
        let mut prod = vec![0.0; k * ks];
        if e.transposed {
            disp.gemm(window, ks, k, gt, k, &mut prod);
            for (j, row) in prod.chunks_exact(k).enumerate() {
                for (i, &x) in row.iter().enumerate() {
                    mm.set(r0 + i, c0 + j, x);
                }
            }
        } else {
            disp.gemm_tn(gt, k, k, window, ks, &mut prod);
            for (i, row) in prod.chunks_exact(ks).enumerate() {
                mm.row_mut(r0 + i)[c0..c0 + ks].copy_from_slice(row);
            }
        }
    }
}

impl HssFactor {
    /// The one definition of a factor that belongs to `(plan, tree)`; returns
    /// the block index it checked against.  On top of [`HssIndex`]
    /// (T1–T6, P2–P6, F1–F2):
    ///
    /// * **F3** `n` is the tree's point count and there is one
    ///   [`NodeFactor`] per node;
    /// * **F4** with `m` the rows the node's basis stacks (a leaf's points,
    ///   an internal node's children's summed sranks), `inv` is `m x m` and
    ///   `map` is `m x srank`;
    /// * **F5** every diagonal entry of a leaf's `inv` is finite and
    ///   positive, as it is in the inverse of any SPD block (and in what
    ///   [`cholesky_inverse`] returns: sums of squares).  Nothing divides by
    ///   a stored entry, so the merge inverses carry no such condition.
    ///
    /// # Errors
    /// [`FactorError::PlanMismatch`] for a malformed plan and for F3 – F5,
    /// [`FactorError::UnsupportedStructure`] for F1 / F2.
    pub fn validate<'a>(
        &self,
        plan: &'a EvalPlan,
        tree: &'a ClusterTree,
    ) -> Result<HssIndex<'a>, FactorError> {
        let index = HssIndex::build(plan, tree)?;
        let mismatch = FactorError::PlanMismatch;
        let (n, n_nodes, sranks) = (tree.perm.len(), tree.num_nodes(), &plan.cds.sranks);
        ensure(self.n == n, || {
            let own = self.n;
            mismatch(format!(
                "factor was computed for N = {own} but the tree orders N = {n} points"
            ))
        })?;
        ensure(self.nodes.len() == n_nodes, || {
            let own = self.nodes.len();
            mismatch(format!(
                "factor stores {own} node factors but the tree has {n_nodes} nodes"
            ))
        })?;
        for (id, (node, f)) in tree.nodes.iter().zip(&self.nodes).enumerate() {
            let m = (node.children).map_or(node.num_points(), |(l, r)| sranks[l] + sranks[r]);
            let kind = if node.is_leaf() { "leaf" } else { "merge" };
            ensure(
                f.inv.shape() == (m, m) && f.map.shape() == (m, sranks[id]),
                || {
                    mismatch(format!(
                        "{kind} factor of node {id} is not of the shape this plan needs; was \
                         this factor computed from a different plan or tree?"
                    ))
                },
            )?;
            let positive = !node.is_leaf()
                || (0..m).all(|i| {
                    let d = f.inv.get(i, i);
                    d.is_finite() && d > 0.0
                });
            ensure(positive, || {
                mismatch(format!(
                    "leaf factor of node {id} has a zero, negative or non-finite diagonal entry \
                     in its inverse"
                ))
            })?;
        }
        Ok(index)
    }
}

/// Compute the ULV-style factorization of an HSS-compressed SPD matrix.
///
/// `opts.lowering.coarsen_tree` selects the level-parallel sweeps (the
/// per-node arithmetic is identical either way, so results are bitwise
/// independent of the choice and of the pool width), and every product,
/// Cholesky, LU and inverse runs on the [`KernelDispatch`] `opts.kernel`
/// resolves, as the executor's do.
pub fn factor(
    plan: &EvalPlan,
    tree: &ClusterTree,
    opts: &ExecOptions,
) -> Result<HssFactor, FactorError> {
    factor_with_ridge(plan, tree, opts, 0.0)
}

/// [`factor`] with a diagonal shift: factors `K~ + ridge I` by adding
/// `ridge` to the diagonal of every leaf diagonal block before its Cholesky.
///
/// In the HSS form the identity only touches the leaf diagonal blocks —
/// off-diagonal content lives in the low-rank coupling factors — so shifting
/// the leaves shifts the whole operator.  This is the primitive behind the
/// breakdown-recovery loop in `matrox_core::HMatrix::factorize`, which
/// escalates `ridge` when a barely-non-SPD kernel matrix makes a leaf
/// Cholesky fail.  A negative or non-finite ridge is rejected as a
/// [`FactorError::PlanMismatch`].
pub fn factor_with_ridge(
    plan: &EvalPlan,
    tree: &ClusterTree,
    opts: &ExecOptions,
    ridge: f64,
) -> Result<HssFactor, FactorError> {
    if !ridge.is_finite() || ridge < 0.0 {
        return Err(FactorError::PlanMismatch(format!(
            "ridge shift must be finite and non-negative, got {ridge:e}"
        )));
    }
    let index = HssIndex::build(plan, tree)?;
    let disp = KernelDispatch::for_choice(opts.kernel);
    let n_nodes = tree.num_nodes();
    let parallel = opts.lowering.coarsen_tree;
    let empty = NodeFactor {
        inv: Matrix::zeros(0, 0),
        map: Matrix::zeros(0, 0),
    };
    let mut nodes = vec![empty; n_nodes];
    // Transposed reduced matrices G_i^T, G_i = V_i^T K_i^{-1} U_i, alive
    // only during the factorization (the solve never needs them: they are
    // folded into the merge systems and T_p maps).
    let mut gt: Vec<Matrix> = vec![Matrix::zeros(0, 0); n_nodes];
    // The node step of every node in `ids`, none of them another's parent.
    let mut step_all = |ids: &[usize]| -> Result<(), FactorError> {
        let done = map_nodes(ids, parallel, |id| {
            factor_node(disp, plan, tree, &index, &gt, id, ridge)
        });
        for (&id, r) in ids.iter().zip(done) {
            (nodes[id], gt[id]) = r?;
        }
        Ok(())
    };

    // ---- leaf phase -------------------------------------------------------
    let t0 = Instant::now();
    step_all(&tree.leaves())?;
    let leaf_cholesky = t0.elapsed();

    // ---- merge phase: internal nodes, deepest level first ----------------
    let t0 = Instant::now();
    for level in (0..=tree.height).rev() {
        let ids = tree.level(level);
        let internal: Vec<usize> = ids.filter(|&id| !tree.nodes[id].is_leaf()).collect();
        step_all(&internal)?;
    }
    let merge = t0.elapsed();

    Ok(HssFactor {
        n: tree.perm.len(),
        nodes,
        timings: FactorTimings {
            leaf_cholesky,
            merge,
            ridge_attempts: 0,
            applied_ridge: ridge,
        },
    })
}

/// `f` of every node in `ids`, in order: on the pool, split as the pool
/// decides, when `parallel`, else one after another on the calling thread.
fn map_nodes<T: Send>(
    ids: &[usize],
    parallel: bool,
    f: impl Fn(usize) -> T + Send + Sync,
) -> Vec<T> {
    if parallel {
        ids.par_iter().map(|&id| f(id)).collect()
    } else {
        ids.iter().map(|&id| f(id)).collect()
    }
}

/// The node step, one for every node: factor the system of the rows the
/// node's basis stacks, form its inverse for the solve and the map by
/// substitution against the factorization, then `G^T = map^T V` (the same
/// products per entry as `G = V^T map`).  `gt` holds the children's `G^T`.
///
/// * A leaf's system is its diagonal block `D_i` (plus the ridge),
///   Cholesky-factored; its map is `E_i = D_i^{-1} U_i`.
/// * An internal node `p`'s is `M_p = [I, G_l B_{l,r}; G_r B_{r,l}, I]`,
///   LU-factored; its map is `T_p = M_p^{-1} [G_l R_l; G_r R_r]`, and
///   `G_p = W_p^T T_p` pushes the reduced matrix through the transfer
///   matrices.
///
/// Each branch forms the inverse before the map: with the two swapped, the
/// merge phase measured 10–15 % slower on `sci_solve`'s model.
fn factor_node(
    disp: KernelDispatch,
    plan: &EvalPlan,
    tree: &ClusterTree,
    index: &HssIndex<'_>,
    gt: &[Matrix],
    id: usize,
    ridge: f64,
) -> Result<(NodeFactor, Matrix), FactorError> {
    let cds = &plan.cds;
    let (v, rows, k) = cds.v(id);
    let (inv, map) = match tree.nodes[id].children {
        None => {
            let ni = tree.nodes[id].num_points();
            let mut d = Matrix::from_vec(ni, ni, index.diag[id].to_vec());
            if ridge > 0.0 {
                for i in 0..ni {
                    let v = d.get(i, i) + ridge;
                    d.set(i, i, v);
                }
            }
            let chol = cholesky(&d, disp).map_err(|e| FactorError::NotPositiveDefinite {
                node: id,
                pivot: e.pivot,
                value: e.value,
            })?;
            let inv = cholesky_inverse(&chol, disp);
            let mut e = Matrix::zeros(ni, k);
            if k > 0 {
                e.as_mut_slice().copy_from_slice(v);
                cholesky_solve_in_place(&chol, e.as_mut_slice(), k);
            }
            (inv, e)
        }
        Some((l, r)) => {
            let (kl, kr) = (cds.sranks[l], cds.sranks[r]);
            let m = kl + kr;
            let mut mm = Matrix::identity(m);
            if kl > 0 && kr > 0 {
                // Top-right block G_l B_{l,r}, bottom-left block G_r B_{r,l}.
                index.write_coupled(disp, l, gt[l].as_slice(), &mut mm, (0, kl));
                index.write_coupled(disp, r, gt[r].as_slice(), &mut mm, (kl, 0));
            }
            let lu = lu_factor(&mm, disp).map_err(|_| FactorError::SingularMerge { node: id })?;
            let inv = lu_inverse(&lu, disp);
            // T_p's right-hand side [G_l R_l; G_r R_r], stacked by child.
            let mut t = Matrix::zeros(m, k);
            if k > 0 {
                let (t_l, t_r) = t.as_mut_slice().split_at_mut(kl * k);
                if kl > 0 {
                    disp.gemm_tn(gt[l].as_slice(), kl, kl, &v[..kl * k], k, t_l);
                }
                if kr > 0 {
                    disp.gemm_tn(gt[r].as_slice(), kr, kr, &v[kl * k..], k, t_r);
                }
                lu_solve_in_place(&lu, t.as_mut_slice(), k);
            }
            (inv, t)
        }
    };
    let mut gt = Matrix::zeros(k, k);
    if k > 0 {
        debug_assert_eq!(rows, map.rows(), "basis rows must match the stacked rows");
        disp.gemm_tn(map.as_slice(), rows, k, v, k, gt.as_mut_slice());
    }
    Ok((NodeFactor { inv, map }, gt))
}
