//! The ULV-style HSS factorization (leaf Cholesky + sibling merges).

use matrox_analysis::{CdsBlockEntry, EvalPlan};
use matrox_exec::{ExecOptions, LevelSchedule, ValidPlan};
use matrox_linalg::{
    cholesky, cholesky_inverse, cholesky_solve_in_place, lu_factor, lu_inverse, lu_solve_in_place,
    KernelDispatch, Matrix,
};
use matrox_tree::{ensure, ClusterTree};
use rayon::prelude::*;
use std::borrow::Cow;
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

/// Per-leaf factors: the inverse of the diagonal block and the pre-solved
/// basis `E_i = D_i^{-1} U_i` reused by every solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafFactor {
    /// Leaf node id.
    pub node: usize,
    /// `D_i^{-1}` (`n_i x n_i`, symmetric), formed from the Cholesky factor
    /// of the (ridge-shifted) leaf diagonal block: the upward sweep's
    /// `y_i = D_i^{-1} b_i` is one product.
    pub dinv: Matrix,
    /// `E_i = D_i^{-1} U_i` (`n_i x srank_i`), by substitution against the
    /// Cholesky factor.
    pub e: Matrix,
}

/// Per-internal-node factors of the sibling merge system.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeFactor {
    /// Internal node id `p` (children `l`, `r`).
    pub node: usize,
    /// `M_p^{-1}` of `M_p = [I, G_l B_{l,r}; G_r B_{r,l}, I]`
    /// (`(k_l + k_r)` square), formed from its partial-pivoted LU: the
    /// upward sweep's `t_p = M_p^{-1} [bhat_l; bhat_r]` is one product.
    pub minv: Matrix,
    /// `T_p = M_p^{-1} [G_l R_l; G_r R_r]` (`(k_l + k_r) x k_p`), by
    /// substitution against the LU: maps the outer skeleton load `s_p` to
    /// the correction of the children's skeleton coefficients during the
    /// downward sweep.
    pub t: Matrix,
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
    /// Leaf factors, indexed by node id (`None` for internal nodes).
    pub leaves: Vec<Option<LeafFactor>>,
    /// Merge factors, indexed by node id (`None` for leaves).
    pub merges: Vec<Option<MergeFactor>>,
    /// Wall-clock breakdown of the factorization (zeroed after
    /// deserialization, like the inspector timings).
    pub timings: FactorTimings,
}

impl HssFactor {
    /// Bytes of factor payload (the inverses of the leaf blocks and merge
    /// systems, the pre-solved bases and `T_p` maps) — the storage the
    /// solver adds on top of the CDS buffers.
    pub fn storage_bytes(&self) -> usize {
        let leaf: usize = self
            .leaves
            .iter()
            .flatten()
            .map(|l| l.dinv.len() + l.e.len())
            .sum();
        let merge: usize = self
            .merges
            .iter()
            .flatten()
            .map(|m| m.minv.len() + m.t.len())
            .sum();
        (leaf + merge) * std::mem::size_of::<f64>()
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

    /// `B_{id, sibling(id)}` as a row-major block for the merge's `G B`
    /// products, which take it as the right operand, where no product reads
    /// a window transposed: the stored window, or an exact transposed copy
    /// of the sibling's.
    fn coupling_block(&self, id: usize) -> Cow<'a, [f64]> {
        match self.coupling[id] {
            Some((e, window)) if e.transposed => {
                let mut b = vec![0.0; window.len()];
                for (j, col) in window.chunks_exact(e.rows).enumerate() {
                    for (i, &x) in col.iter().enumerate() {
                        b[i * e.cols + j] = x;
                    }
                }
                Cow::Owned(b)
            }
            Some((_, window)) => Cow::Borrowed(window),
            None => Cow::Borrowed(&[]),
        }
    }
}

impl HssFactor {
    /// The one definition of a factor that belongs to `(plan, tree)`; returns
    /// the block index it checked against.  On top of [`HssIndex`]
    /// (T1–T6, P2–P6, F1–F2):
    ///
    /// * **F3** `n` is the tree's point count and there is one leaf and one
    ///   merge slot per node; a leaf holds exactly a [`LeafFactor`], an
    ///   internal node exactly a [`MergeFactor`], each naming its node;
    /// * **F4** shapes: `dinv` is `points x points` and `e` is
    ///   `points x srank`; with `m` the children's summed sranks, `minv` is
    ///   `m x m` and `t` is `m x srank`;
    /// * **F5** every diagonal entry of a `dinv` is finite and positive, as
    ///   it is in the inverse of any SPD block (and in what
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
        ensure(
            self.leaves.len() == n_nodes && self.merges.len() == n_nodes,
            || {
                let (l, m) = (self.leaves.len(), self.merges.len());
                mismatch(format!(
                    "factor stores {l} leaf / {m} merge slots but the tree has {n_nodes} nodes"
                ))
            },
        )?;
        for (id, node) in tree.nodes.iter().enumerate() {
            let k = sranks[id];
            let fits = match (node.children, &self.leaves[id], &self.merges[id]) {
                (None, Some(lf), None) => {
                    let ni = node.num_points();
                    lf.node == id && lf.dinv.shape() == (ni, ni) && lf.e.shape() == (ni, k)
                }
                (Some((l, r)), None, Some(mf)) => {
                    let m = sranks[l] + sranks[r];
                    mf.node == id && mf.minv.shape() == (m, m) && mf.t.shape() == (m, k)
                }
                _ => false,
            };
            let kind = if node.is_leaf() { "leaf" } else { "merge" };
            ensure(fits, || {
                mismatch(format!(
                    "node {id} has no {kind} factor of the shape this plan needs; was this \
                     factor computed from a different plan or tree?"
                ))
            })?;
            let positive = self.leaves[id].as_ref().is_none_or(|lf| {
                (0..lf.dinv.rows()).all(|i| {
                    let d = lf.dinv.get(i, i);
                    d.is_finite() && d > 0.0
                })
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
/// `opts.parallel_tree` selects the level-parallel sweeps (the per-node
/// arithmetic is identical either way, so results are bitwise independent of
/// the choice and of the pool width); `opts.grain` is honored exactly as in
/// the executor, and every product, Cholesky, LU and inverse runs on the
/// [`KernelDispatch`] `opts.kernel` resolves, as the executor's do.
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
    let parallel = opts.parallel_tree;
    let grain = opts.grain.max(1);

    let mut leaves: Vec<Option<LeafFactor>> = vec![None; n_nodes];
    let mut merges: Vec<Option<MergeFactor>> = vec![None; n_nodes];
    // Reduced matrices G_i = V_i^T K_i^{-1} U_i, alive only during the
    // factorization (the solve never needs them: they are folded into the
    // merge systems and T_p maps).
    let mut g: Vec<Matrix> = vec![Matrix::zeros(0, 0); n_nodes];

    // ---- leaf phase -------------------------------------------------------
    let t0 = Instant::now();
    let leaf = |id| factor_leaf(disp, plan, tree, &index, id, ridge);
    for r in map_nodes(&tree.leaves(), parallel, grain, leaf) {
        let (id, lf, gi) = r?;
        leaves[id] = Some(lf);
        g[id] = gi;
    }
    let leaf_cholesky = t0.elapsed();

    // ---- merge phase: internal nodes, deepest level first ----------------
    let t0 = Instant::now();
    let sched = LevelSchedule::new(tree, &plan.cds.sranks);
    for level in (0..sched.num_levels()).rev() {
        let merged = map_nodes(sched.nodes(sched.level(level)), parallel, grain, |id| {
            let internal = !tree.nodes[id].is_leaf();
            internal.then(|| factor_internal(disp, plan, tree, &index, &g, id))
        });
        for r in merged.into_iter().flatten() {
            let (id, mf, gp) = r?;
            merges[id] = Some(mf);
            g[id] = gp;
        }
    }
    let merge = t0.elapsed();

    Ok(HssFactor {
        n: tree.perm.len(),
        leaves,
        merges,
        timings: FactorTimings {
            leaf_cholesky,
            merge,
            ridge_attempts: 0,
            applied_ridge: ridge,
        },
    })
}

/// `f` of every node in `ids`, in order: on the pool, at least `grain` nodes
/// to a job, when `parallel`, else one after another on the calling thread.
fn map_nodes<T: Send>(
    ids: &[usize],
    parallel: bool,
    grain: usize,
    f: impl Fn(usize) -> T + Send + Sync,
) -> Vec<T> {
    if parallel {
        ids.par_iter()
            .with_min_len(grain)
            .map(|&id| f(id))
            .collect()
    } else {
        ids.iter().map(|&id| f(id)).collect()
    }
}

/// Leaf step: Cholesky of the diagonal block, `E_i = D_i^{-1} U_i` by
/// substitution against it, `G_i = V_i^T E_i`, and `D_i^{-1}` for the
/// solve.
fn factor_leaf(
    disp: KernelDispatch,
    plan: &EvalPlan,
    tree: &ClusterTree,
    index: &HssIndex<'_>,
    id: usize,
    ridge: f64,
) -> Result<(usize, LeafFactor, Matrix), FactorError> {
    let cds = &plan.cds;
    let node = &tree.nodes[id];
    let ni = node.num_points();
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
    let dinv = cholesky_inverse(&chol, disp);
    let (v, rows, k) = cds.v(id);
    let (e, gi) = if k == 0 {
        (Matrix::zeros(ni, 0), Matrix::zeros(0, 0))
    } else {
        debug_assert_eq!(rows, ni, "leaf basis rows must match leaf size");
        let mut e = Matrix::from_vec(rows, k, v.to_vec());
        cholesky_solve_in_place(&chol, e.as_mut_slice(), k);
        let mut gi = Matrix::zeros(k, k);
        disp.gemm_tn(v, rows, k, e.as_slice(), k, gi.as_mut_slice());
        (e, gi)
    };
    Ok((id, LeafFactor { node: id, dinv, e }, gi))
}

/// Merge step for internal node `p`: assemble and LU-factor
/// `M_p = [I, G_l B_{l,r}; G_r B_{r,l}, I]`, push the reduced matrix
/// through the transfer matrices, `G_p = W_p^T T_p` with
/// `T_p = M_p^{-1} [G_l R_l; G_r R_r]` by substitution against the LU, and
/// form `M_p^{-1}` for the solve.
fn factor_internal(
    disp: KernelDispatch,
    plan: &EvalPlan,
    tree: &ClusterTree,
    index: &HssIndex<'_>,
    g: &[Matrix],
    id: usize,
) -> Result<(usize, MergeFactor, Matrix), FactorError> {
    let cds = &plan.cds;
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: `factor_internal` is only called on ids that `tree.nodes[id].is_leaf()` filtered out, i.e. nodes with children"
    )]
    let (l, r) = tree.nodes[id].children.expect("internal node has children");
    let kl = cds.sranks[l];
    let kr = cds.sranks[r];
    let m = kl + kr;

    let mut mm = Matrix::identity(m);
    if kl > 0 && kr > 0 {
        let b_lr = index.coupling_block(l);
        let b_rl = index.coupling_block(r);
        debug_assert_eq!(b_lr.len(), kl * kr);
        debug_assert_eq!(b_rl.len(), kr * kl);
        // Top-right block: G_l * B_{l,r}.
        let mut tr = Matrix::zeros(kl, kr);
        disp.gemm(g[l].as_slice(), kl, kl, &b_lr, kr, tr.as_mut_slice());
        for i in 0..kl {
            mm.row_mut(i)[kl..m].copy_from_slice(tr.row(i));
        }
        // Bottom-left block: G_r * B_{r,l}.
        let mut bl = Matrix::zeros(kr, kl);
        disp.gemm(g[r].as_slice(), kr, kr, &b_rl, kl, bl.as_mut_slice());
        for i in 0..kr {
            mm.row_mut(kl + i)[0..kl].copy_from_slice(bl.row(i));
        }
    }
    let lu = lu_factor(&mm, disp).map_err(|_| FactorError::SingularMerge { node: id })?;
    let minv = lu_inverse(&lu, disp);

    let kp = cds.sranks[id];
    let (t, gp) = if kp == 0 {
        (Matrix::zeros(m, 0), Matrix::zeros(0, 0))
    } else {
        let (rgen, rrows, rcols) = cds.v(id);
        debug_assert_eq!(rrows, m, "transfer rows must equal children sranks");
        debug_assert_eq!(rcols, kp);
        // RHS = [G_l R_l; G_r R_r] stacked by child.
        let mut rhs = Matrix::zeros(m, kp);
        if kl > 0 {
            disp.gemm(
                g[l].as_slice(),
                kl,
                kl,
                &rgen[0..kl * kp],
                kp,
                &mut rhs.as_mut_slice()[0..kl * kp],
            );
        }
        if kr > 0 {
            disp.gemm(
                g[r].as_slice(),
                kr,
                kr,
                &rgen[kl * kp..],
                kp,
                &mut rhs.as_mut_slice()[kl * kp..],
            );
        }
        lu_solve_in_place(&lu, rhs.as_mut_slice(), kp);
        let t = rhs;
        let (w, wrows, wcols) = cds.v(id);
        debug_assert_eq!((wrows, wcols), (m, kp));
        let mut gp = Matrix::zeros(kp, kp);
        disp.gemm_tn(w, wrows, wcols, t.as_slice(), kp, gp.as_mut_slice());
        (t, gp)
    };
    Ok((id, MergeFactor { node: id, minv, t }, gp))
}
