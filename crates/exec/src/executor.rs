//! The MatRox executor: parallel HMatrix-matrix multiplication over CDS.
//!
//! The executor interprets an [`EvalPlan`] (the "generated code") with the
//! two loop shapes of Figure 1e, each run twice per panel:
//!
//! * **the blocked loop** over blockset groups, which by construction never
//!   write the same output rows, so no reductions or atomics are needed.
//!   It runs the near blocks, `Y_i += D_ij W_j` over leaf rows of the
//!   permuted panels, and the coupling blocks, `S_i += B_ij T_j` over rank
//!   slots; a transposed twin reads its window through the `A^T B` product
//!   ([`CdsBlockEntry::apply`]);
//! * **the coarsened loop** over the `V` generators, one product per node
//!   between `V_i` and the rows it stacks: a leaf's rows of the permuted
//!   panel, or its children's stacked pair of rank slots `[l; r]`, which
//!   lie side by side in `V_i`'s row order.  Rank slots are laid out in
//!   node-id order ([`rank_offsets`]), and ids are the breadth-first walk
//!   (`ClusterTree::validate`'s T7), so a node's two children own adjacent
//!   slots.
//!   Upward it sets `T_i = V_i^T stack`; downward it adds `V_i S_i` into the
//!   stack (the operator is symmetric: `V` applied plain is the row basis).
//!
//! Two drivers carry both operators over a plan, the evaluation here and
//! the ULV solve (`matrox-factor`), each with bodies of its own:
//!
//! * [`panel_loop`], the one panel driver: it gathers each panel of
//!   right-hand-side columns into tree order, zeroes the scratch its caller
//!   names, runs the body and scatters the panel back;
//! * [`tree_sweep`], the one tree-sweep driver and the coarsened loop's
//!   skeleton: sequential over coarsen levels (in order upward, reversed
//!   downward) and parallel over their load-balanced sub-trees, the root
//!   visited on its own — last upward, first downward.  It hands each node
//!   its disjoint parts of caller-owned scratch buffers.
//!
//! Each loop's body runs on the pool when the corresponding lowering of
//! [`ExecOptions::lowering`] is on and in the same order on the calling
//! thread when it is off — because code generation decided the lowering is
//! not profitable, or for the Figure 5 ablation (`CDS(seq)`,
//! `CDS + coarsen`, `CDS + block`, ...).  The `peel_root` lowering applies
//! the paper's low-level specialization: the root-most coarsen level is
//! executed with block-level (parallel GEMM) parallelism because task-level
//! parallelism has run out near the root.
//!
//! All intermediate state is kept in the permuted (tree) ordering so that a
//! node's rows of `W` and `Y` are contiguous; the input is permuted on entry
//! and the output is un-permuted on exit.
//!
//! # Memory discipline
//!
//! Everything a panel iteration needs is derived once: the plan-dependent
//! state (panel width, kernel dispatch, the rank slots) lives in
//! [`PreparedExec`], which the solve builds too, and the scratch (for an
//! evaluation, the permuted input/output panels plus the flat `T`/`S`
//! coefficient buffers) is allocated once per [`panel_loop`] call.  The
//! panel loop itself allocates **nothing** — every GEMM writes into a
//! precomputed offset range, and the loops hand tasks raw disjoint
//! sub-slices (the private `RawSlots` helper) instead of rebuilding hash
//! maps.
//!
//! The disjointness that makes those raw slices sound is not assumed: it is
//! the paper's conflict-free-scheduling invariant (blockset groups own
//! their target nodes, coarsen partitions own their sub-trees, every child
//! has one parent, leaves tile the permuted rows).  This module does not
//! define it: [`EvalPlan::validate`] does, once, for the model readers, the
//! solver and this executor alike (its items T1–T7 for the tree and P2–P6
//! for the plan are what the `SAFETY:` comments below cite).  Its proof is
//! a [`ValidPlan`], whose one constructor runs it and which borrows the
//! pair it checked: [`panel_loop`] and [`tree_sweep`] take one.
//! [`PreparedExec::new`] and every [`execute_prepared`] call build one from
//! the pair they are handed and panic on a malformed one rather than race
//! on it ([`execute`], which prepares and evaluates the same pair, builds
//! it once).

#![expect(
    unsafe_code,
    reason = "RawSlots disjoint raw slicing for the allocation-free loops: blockset groups own their targets' rows and slots, the tree sweep hands each node its rows, slot and children's pair, checked by EvalPlan::validate through ValidPlan (DESIGN.md unsafe inventory)"
)]

use matrox_analysis::{CdsBlockEntry, EvalPlan, GroupRange, LoweringDecisions};
use matrox_linalg::{KernelChoice, KernelDispatch, Matrix};
use matrox_tree::ClusterTree;
use rayon::prelude::*;
use std::ops::Range;

/// How an evaluation runs: which loops go on the pool, the panel width and
/// the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Which loops run blocked or coarsened on the pool: the plan's own
    /// lowering decisions ([`ExecOptions::from_plan`]), or an ablation's
    /// (the Figure 5 bars switch them one at a time).  `block_near` and
    /// `block_far` put the near and the coupling loop's groups on the pool,
    /// `coarsen_tree` the tree loops' partitions, and `peel_root` (with
    /// `coarsen_tree`) runs the root-most coarsen level with parallel GEMMs
    /// instead (low-level specialization).
    pub lowering: LoweringDecisions,
    /// Width (in RHS columns) of the panels the four phases operate on; a
    /// multi-column evaluation `Y = K~ W` is processed `panel_width` columns
    /// at a time so a block's submatrix plus its input/output panels fit in
    /// L2.  `0` means auto: [`choose_panel_width`] sized from the CDS block
    /// extents.  Results are bitwise independent of the panel width (every
    /// output column accumulates in the same order regardless of panel
    /// grouping).
    pub panel_width: usize,
    /// GEMM kernel selection for every product the executor issues, and the
    /// factor and the solve (`matrox-factor`) given these options: each
    /// resolves it once with [`KernelDispatch::for_choice`].
    /// [`KernelChoice::Auto`] (the default) defers to the process-wide
    /// selection (`MATROX_KERNEL` env var, then CPU feature detection: the
    /// AVX-512 arm where the CPU has it, else AVX2); the explicit choices
    /// pin a kernel for ablations and tests (`Avx2` the 256-bit arm).  For a
    /// fixed selection, results are bitwise identical across thread counts,
    /// lowerings and panel widths.  The two SIMD arms share one chain and
    /// return the same bits; switching between scalar and SIMD is the one
    /// choice that moves results (within kernel-accuracy tolerance).
    pub kernel: KernelChoice,
}

impl ExecOptions {
    /// Follow the lowering decisions recorded in the plan.
    pub fn from_plan(plan: &EvalPlan) -> Self {
        Self::lowered(plan.decisions)
    }

    /// Fully sequential execution over CDS (the `CDS(seq)` ablation bar).
    pub fn sequential() -> Self {
        Self::lowered(LoweringDecisions {
            block_near: false,
            block_far: false,
            coarsen_tree: false,
            peel_root: false,
        })
    }

    /// All optimizations on, regardless of the plan's thresholds.
    pub fn full() -> Self {
        Self::lowered(LoweringDecisions {
            block_near: true,
            block_far: true,
            coarsen_tree: true,
            peel_root: true,
        })
    }

    fn lowered(lowering: LoweringDecisions) -> Self {
        ExecOptions {
            lowering,
            panel_width: 0,
            kernel: KernelChoice::Auto,
        }
    }

    /// Set the RHS panel width (see [`ExecOptions::panel_width`]).
    pub fn with_panel_width(mut self, panel_width: usize) -> Self {
        self.panel_width = panel_width;
        self
    }

    /// Pin the GEMM kernel (see [`ExecOptions::kernel`]).
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }
}

/// Default L2 working-set budget (bytes) assumed by the automatic panel-width
/// selection: half of the kernel layer's per-core L2 model
/// ([`matrox_linalg::kernel::L2_BYTES`], the one the AVX2 block sizes are
/// derived from), leaving the other half for the streamed CDS values and
/// the stack.
pub const DEFAULT_L2_BYTES: usize = matrox_linalg::kernel::L2_BYTES / 2;

/// Bounds on the automatically chosen panel width.  The lower bound keeps
/// tiny panels from multiplying the per-panel permutation/scheduling
/// overhead; the upper bound caps the panel footprint once blocks are small
/// enough that cache residency is no longer the constraint.
const PANEL_MIN: usize = 8;
/// The widest automatically chosen panel, for the executor and the solver.
pub const PANEL_MAX: usize = 256;

/// Choose the RHS panel width for a plan: the widest panel `q` such that the
/// largest single block any phase touches (dense near block, coupling block,
/// or generator — the CDS [`worst_block_extent`](matrox_analysis::Cds::worst_block_extent))
/// still fits in the `l2_bytes` budget together with its `q`-column input and
/// output panels.  Clamped to `[8, 256]` and rounded down to a multiple of 8.
///
/// The choice only affects performance, never results: the executor's output
/// is bitwise identical for every panel width.
pub fn choose_panel_width(plan: &EvalPlan, l2_bytes: usize) -> usize {
    let ext = plan.cds.worst_block_extent();
    if ext.is_empty() {
        return PANEL_MAX;
    }
    let f64_bytes = std::mem::size_of::<f64>();
    let block_bytes = ext.max_elems * f64_bytes;
    // Per RHS column a block multiply reads `max_cols` input rows and writes
    // `max_rows` output rows (or vice versa for the transposed upward pass).
    let per_col_bytes = (ext.max_rows + ext.max_cols) * f64_bytes;
    let budget = l2_bytes.saturating_sub(block_bytes);
    let qp = budget
        .checked_div(per_col_bytes)
        .unwrap_or(PANEL_MAX)
        .clamp(PANEL_MIN, PANEL_MAX);
    qp - qp % PANEL_MIN
}

/// The panel width the caller asked for ([`ExecOptions::panel_width`]), if
/// any; `None` means auto, which the executor and the solver resolve
/// differently.
pub fn requested_panel_width(opts: &ExecOptions) -> Option<usize> {
    (opts.panel_width > 0).then_some(opts.panel_width)
}

/// Resolve the executor's panel width: [`requested_panel_width`], else
/// [`choose_panel_width`] with the default L2 budget.
pub fn effective_panel_width(opts: &ExecOptions, plan: &EvalPlan) -> usize {
    requested_panel_width(opts).unwrap_or_else(|| choose_panel_width(plan, DEFAULT_L2_BYTES))
}

/// Per-plan executor state derived once and reused across evaluations: the
/// resolved options, panel width and kernel dispatch and the per-node
/// offsets into the flat `T`/`S` scratch buffers.
///
/// [`execute`] derives this on every call; an evaluation session
/// (`matrox_core::EvalSession`) builds it once next to the inspector output
/// and serves every subsequent `evaluate(W)` without re-walking the plan.
/// `plan` and `tree` passed to [`execute_prepared`] must be the ones this
/// was prepared from.
#[derive(Debug, Clone)]
pub struct PreparedExec {
    /// The options (lowering, panel width, kernel) the plan was prepared
    /// with.
    pub opts: ExecOptions,
    /// Resolved RHS panel width (see [`ExecOptions::panel_width`]).
    pub panel_width: usize,
    /// Resolved GEMM kernel (see [`ExecOptions::kernel`]).
    dispatch: KernelDispatch,
    /// Per-node rank slots into the flat `T`/`S` buffers (scaled by the
    /// panel width at evaluation time): the [`rank_offsets`] of the plan's
    /// sranks, the layout the solver's sweeps carve their scratch by too.
    rank_off: Vec<usize>,
}

impl PreparedExec {
    /// Derive the executor state for a plan (the "inspector side" of the
    /// executor: everything per-evaluation calls would otherwise recompute).
    ///
    /// # Panics
    /// Panics with [`EvalPlan::validate`]'s message when `(tree, plan)` is
    /// malformed (a blockset target claimed by two groups, a child computed
    /// after its parent, overlapping leaves, ...).  A plan the inspector
    /// produced, or a model reader returned, always validates.
    pub fn new(plan: &EvalPlan, tree: &ClusterTree, opts: &ExecOptions) -> Self {
        Self::from_valid(&verify_plan(plan, tree), opts)
    }

    /// [`PreparedExec::new`] for a pair validated already, such as the one
    /// the solve's block index keeps.
    pub fn from_valid(valid: &ValidPlan<'_>, opts: &ExecOptions) -> Self {
        let plan = valid.plan;
        PreparedExec {
            opts: *opts,
            panel_width: effective_panel_width(opts, plan),
            dispatch: KernelDispatch::for_choice(opts.kernel),
            rank_off: rank_offsets(&plan.cds.sranks),
        }
    }

    /// The resolved GEMM kernel every product of this plan runs on.
    pub fn dispatch(&self) -> KernelDispatch {
        self.dispatch
    }
}

/// A `(plan, tree)` pair that passed [`EvalPlan::validate`] — the
/// invariants every `SAFETY:` comment below cites.  The one constructor runs
/// it, and the proof borrows the pair it checked, so neither can change
/// while the proof lives.  The loops that slice raw take one instead of
/// trusting their caller.
#[derive(Debug, Clone, Copy)]
pub struct ValidPlan<'a> {
    plan: &'a EvalPlan,
    tree: &'a ClusterTree,
}

impl<'a> ValidPlan<'a> {
    /// Validate `(tree, plan)`.  Cost is `O(plan structure)` and
    /// [`EvalPlan::validate`]'s three allocations.
    ///
    /// # Errors
    /// [`EvalPlan::validate`]'s message naming the first violated item.
    pub fn new(plan: &'a EvalPlan, tree: &'a ClusterTree) -> Result<Self, String> {
        plan.validate(tree)?;
        Ok(ValidPlan { plan, tree })
    }

    /// The validated plan.
    pub fn plan(&self) -> &'a EvalPlan {
        self.plan
    }

    /// The tree the plan was validated against.
    pub fn tree(&self) -> &'a ClusterTree {
        self.tree
    }
}

/// Each node's rank slot in a flat coefficient buffer: the prefix sums of
/// `sranks` in node-id order (`sranks.len() + 1` entries), so node `id` owns
/// `off[id]..off[id + 1]`.  Ids are the breadth-first walk (T7), so an
/// internal node's children `(l, l + 1)` own adjacent slots, the **stacked
/// pair** `off[l]..off[l + 2]`; the last entry is the total rank.
pub fn rank_offsets(sranks: &[usize]) -> Vec<usize> {
    let mut off = Vec::with_capacity(sranks.len() + 1);
    off.push(0);
    for (id, &k) in sranks.iter().enumerate() {
        off.push(off[id] + k);
    }
    off
}

/// Are `off` the [`rank_offsets`] of `sranks`?  `O(nodes)`, allocates
/// nothing.
fn offsets_match(off: &[usize], sranks: &[usize]) -> bool {
    off.len() == sranks.len() + 1
        && off[0] == 0
        && (off.windows(2).zip(sranks)).all(|(w, &k)| w[1].checked_sub(w[0]) == Some(k))
}

/// [`ValidPlan::new`], panicking with its message.  Every public entry point
/// runs it exactly once on the pair it is handed before any raw slicing:
/// `plan` and `tree` are loose arguments with public fields, so state
/// prepared earlier proves nothing about the pair passed now.
fn verify_plan<'a>(plan: &'a EvalPlan, tree: &'a ClusterTree) -> ValidPlan<'a> {
    ValidPlan::new(plan, tree)
        .unwrap_or_else(|why| panic!("execute: malformed evaluation plan: {why}"))
}

/// Evaluate `Y = K~ * W` using the generated plan.
///
/// `w` must have one row per point (`N x Q`); the result has the same shape.
/// This derives the per-plan [`PreparedExec`] state on every call; repeated
/// evaluations should prepare once and use [`execute_prepared`] (or the
/// session API in `matrox-core`).
///
/// # Panics
/// As [`PreparedExec::new`], and when `w` has the wrong number of rows.
pub fn execute(plan: &EvalPlan, tree: &ClusterTree, w: &Matrix, opts: &ExecOptions) -> Matrix {
    let valid = verify_plan(plan, tree);
    evaluate(&valid, &PreparedExec::from_valid(&valid, opts), w)
}

/// Evaluate `Y = K~ * W` with previously prepared executor state, processing
/// the RHS in panels of [`PreparedExec::panel_width`] columns.
///
/// Beyond the output matrix, the only allocations are the four scratch
/// buffers sized for one panel (permuted input/output plus the flat `T`/`S`
/// coefficient stores) and the plan re-validation's scratch, made once up
/// front — the panel loop itself is allocation-free (asserted by
/// `crates/exec/tests/alloc_free.rs`).
///
/// # Panics
/// Panics when `w` has the wrong number of rows, when `prep` was prepared
/// for a different tree or a plan with different skeleton ranks, or when
/// `(tree, plan)` fails [`EvalPlan::validate`].  The passed pair is
/// re-validated on every call (cheap relative to one panel's products)
/// precisely because the phases slice raw disjoint sub-ranges from it: a
/// mismatched or malformed plan must fail loudly here, never scribble.
pub fn execute_prepared(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    w: &Matrix,
) -> Matrix {
    evaluate(&verify_plan(plan, tree), prep, w)
}

/// The evaluation proper, behind both entry points: one [`panel_loop`]
/// whose body runs the blocked and the coarsened loop twice each, over the
/// permuted input `w_perm` (gathered), the permuted output `y_perm`
/// (scattered) and the flat `T` / `S` coefficient slots.
fn evaluate(valid: &ValidPlan<'_>, prep: &PreparedExec, w: &Matrix) -> Matrix {
    let (lowering, cds, tree) = (&prep.opts.lowering, &valid.plan.cds, valid.tree);
    // `[w_perm, y_perm, t, s]`: the panel is gathered into `w_perm` and
    // scattered from `y_perm`; the products accumulate into the other three.
    let rows = [Rows::Points, Rows::Points, Rows::Ranks, Rows::Ranks];
    panel_loop(valid, prep, w, rows, 0, &[1, 2, 3], 1, |q, bufs| {
        let [w_perm, y_perm, t, s] = bufs;
        // Near: `Y_i += D_ij W_j`, the blocked loop over leaf rows.
        blocked_phase(
            prep,
            &cds.d_groups,
            &cds.d_entries,
            |e| cds.d_block(e),
            |id| tree.nodes[id].start..tree.nodes[id].end,
            lowering.block_near,
            w_perm,
            y_perm,
            q,
        );
        // Upward: `T_i = V_i^T [W_i | T_l; T_r]`, the coarsened loop.
        coarsened_phase(valid, prep, true, w_perm, t, q);
        // Coupling: `S_i += B_ij T_j`, the blocked loop over rank slots.
        blocked_phase(
            prep,
            &cds.b_groups,
            &cds.b_entries,
            |e| cds.b_block(e),
            |id| prep.rank_off[id]..prep.rank_off[id + 1],
            lowering.block_far,
            t,
            s,
            q,
        );
        // Downward: `[Y_i | S_l; S_r] += V_i S_i`, the coarsened loop reversed.
        coarsened_phase(valid, prep, false, y_perm, s, q);
    })
}

/// What the rows of one [`panel_loop`] or [`tree_sweep`] buffer are; each
/// row holds one value per column of the panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    /// One row per point, in tree order: `N` rows.
    Points,
    /// One row per rank unit, laid out by the [`rank_offsets`]: `total_rank`
    /// rows.
    Ranks,
}

impl Rows {
    /// The row count of a buffer of this kind over `n` points and the rank
    /// slots `rank_off`.
    fn count(self, n: usize, rank_off: &[usize]) -> usize {
        match self {
            Rows::Points => n,
            Rows::Ranks => rank_off.last().copied().unwrap_or(0),
        }
    }
}

/// The one panel driver, behind the executor's evaluation and the ULV
/// solve: apply a tree operator to `input` (`N x Q`, one row per point)
/// `prep.panel_width` columns at a time and return the `N x Q` result.
///
/// It allocates the result and one buffer per entry of `rows`, sized for
/// one panel, and nothing after.  For each panel of columns `j0..j1` it
/// gathers those columns of `input` into buffer `gather` in tree order,
/// zeroes the buffers `zeroed` names, calls `body(j1 - j0, buffers)` with
/// every buffer cut to that width, and scatters buffer `scatter` back into
/// the same columns of the result.  The gather and the scatter are copies;
/// they run on the pool when any lowering of `prep.opts` is on and a panel
/// holds at least `PERM_PAR_ELEMS` values, and on the calling thread
/// otherwise.
///
/// # Panics
/// When `input` does not have one row per point, `prep` was laid out for
/// other sranks than `valid`'s, or `gather` / `scatter` is not a
/// [`Rows::Points`] buffer.
pub fn panel_loop<const K: usize>(
    valid: &ValidPlan<'_>,
    prep: &PreparedExec,
    input: &Matrix,
    rows: [Rows; K],
    gather: usize,
    zeroed: &[usize],
    scatter: usize,
    mut body: impl FnMut(usize, [&mut [f64]; K]),
) -> Matrix {
    let tree = valid.tree;
    let (n, q) = (tree.perm.len(), input.cols());
    assert_eq!(input.rows(), n, "panel_loop: input needs N = {n} rows");
    assert!(
        offsets_match(&prep.rank_off, &valid.plan.cds.sranks),
        "panel_loop: PreparedExec belongs to a plan with different skeleton ranks"
    );
    assert!(
        rows[gather] == Rows::Points && rows[scatter] == Rows::Points,
        "panel_loop: only a point buffer is gathered or scattered"
    );
    let mut out = Matrix::zeros(n, q);
    if q == 0 {
        return out;
    }
    let qp = prep.panel_width.max(1).min(q);
    let row_count = |r: Rows| r.count(n, &prep.rank_off);
    // One allocation per buffer serves every panel: the gather overwrites
    // the active part of its buffer, the zeroed ones are re-zeroed, and the
    // body owns what the rest hold.
    let mut bufs = rows.map(|r| (r, vec![0.0f64; row_count(r) * qp]));
    // The copies are pure memory traffic: below ~PERM_PAR_ELEMS elements a
    // fork costs more than it saves.
    let l = &prep.opts.lowering;
    let any_parallel = l.block_near || l.block_far || l.coarsen_tree;
    for j0 in (0..q).step_by(qp) {
        let j1 = (j0 + qp).min(q);
        let cur = j1 - j0;
        let par = any_parallel && n * cur >= PERM_PAR_ELEMS;
        let rows_per_task = PERM_PAR_ELEMS.div_ceil(cur);
        // Gather the panel into tree order so every node's rows are
        // contiguous.  Each destination row is written once, so the copy
        // splits over row blocks.
        let dst = &mut bufs[gather].1[..n * cur];
        if par {
            dst.par_chunks_mut(cur)
                .with_min_len(rows_per_task)
                .enumerate()
                .for_each(|(p, row)| row.copy_from_slice(&input.row(tree.perm[p])[j0..j1]));
        } else {
            for (row, &i) in dst.chunks_exact_mut(cur).zip(&tree.perm) {
                row.copy_from_slice(&input.row(i)[j0..j1]);
            }
        }
        for &z in zeroed {
            let (r, buf) = &mut bufs[z];
            buf[..row_count(*r) * cur].fill(0.0);
        }
        let parts = bufs
            .each_mut()
            .map(|(r, buf)| &mut buf[..row_count(*r) * cur]);
        body(cur, parts);
        // Scatter the panel into the result's columns.  In parallel, each
        // task owns a block of *destination* rows and reads its rows through
        // the inverse permutation, so the copy needs no synchronization.
        let res = &bufs[scatter].1[..n * cur];
        if par {
            out.as_mut_slice()
                .par_chunks_mut(q)
                .with_min_len(rows_per_task)
                .enumerate()
                .for_each(|(i, row)| {
                    let p = tree.pos[i];
                    row[j0..j1].copy_from_slice(&res[p * cur..(p + 1) * cur]);
                });
        } else {
            for (row, &i) in res.chunks_exact(cur).zip(&tree.perm) {
                out.row_mut(i)[j0..j1].copy_from_slice(row);
            }
        }
    }
    out
}

/// Element count below which the entry/exit permutation copies stay
/// sequential: the copies are pure memory traffic, so small problems gain
/// nothing from forking.
const PERM_PAR_ELEMS: usize = 64 * 1024;

/// Minimum multiply-add count for which the peeled (block-level parallel)
/// GEMM path is worthwhile; below this the sequential kernel is used even
/// when peeling is enabled, because thread fan-out costs more than it saves.
/// Retuned for the real work-stealing pool: the peeled GEMM runs while the
/// rest of the pool is idle (task parallelism has run out at the root), so a
/// fork is profitable already at ~256k multiply-adds, a quarter of the value
/// assumed under the sequential stub.  Switching between the peeled and
/// sequential kernel never changes results: for a fixed dispatch the two are
/// bitwise identical.
const PEEL_PAR_THRESHOLD: usize = 1 << 18;

/// Raw shared view of one scratch buffer, handed to the two loops so tasks
/// can slice their own disjoint sub-ranges without per-panel splitting
/// machinery.
///
/// # Safety contract
///
/// Every `slice_mut` range handed out concurrently must be disjoint from
/// every other concurrently live range of the same buffer.  Both users hold
/// a [`ValidPlan`] for the very `(tree, plan)` they read, and the items of
/// [`EvalPlan::validate`] it proves give the disjointness (a loop whose
/// lowering is off runs its tasks one after another on the calling thread,
/// where the same ranges are trivially unshared):
///
/// * blocked loop: a target node belongs to exactly one blockset group
///   (P4); distinct target leaves own disjoint `y_perm` rows (T6) and
///   distinct nodes disjoint `S` slots (the prefix sums of `sranks`), and a
///   block is exactly as tall as the range it is multiplied into (P3);
/// * tree sweep ([`tree_sweep`]): every node but the root is in exactly one
///   coarsen partition and the root, in none, is visited on its own, so
///   each node is visited once; a node's children come before it, earlier
///   in the partition or on an earlier level (P6; the loop over a level's
///   partitions is a barrier).  A visit is handed the node's rows (a
///   leaf's, T6), its slot, and its children's pair — their two slots,
///   adjacent since the children of a node are `(l, l + 1)` (T7) and the
///   slots are the [`rank_offsets`] of the plan's own sranks, and theirs
///   alone, since each child has one parent (T3).  So a slot is handed out
///   only to its node and to its parent, which are visited by one task or
///   on either side of a barrier.
#[derive(Clone, Copy)]
struct RawSlots {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: RawSlots is a capability to disjoint slicing whose disjointness
// `EvalPlan::validate` established (see the type-level contract); the
// pointer itself may cross threads freely (the data is plain f64).
unsafe impl Send for RawSlots {}
// SAFETY: sharing `&RawSlots` across threads only shares the (ptr, len)
// pair; actual accesses go through `slice_mut`, whose disjointness
// contract (`EvalPlan::validate`, items as listed on the type) is what
// prevents data races.
unsafe impl Sync for RawSlots {}

impl RawSlots {
    fn new(buf: &mut [f64]) -> Self {
        RawSlots {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// # Safety
    /// `range` must not be concurrently aliased (see the type-level
    /// contract).  Bounds are checked unconditionally — the check is trivial
    /// next to the product the slice feeds, and it turns an
    /// invariant-violation bug into a panic instead of an out-of-bounds
    /// write.
    unsafe fn slice_mut<'a>(&self, range: Range<usize>) -> &'a mut [f64] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "RawSlots: slice out of bounds"
        );
        // SAFETY: in bounds by the assert (`ptr..ptr+len` is one live
        // allocation — the scratch Vec borrowed by `RawSlots::new`);
        // non-aliasing is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// Run `body` on every task of a phase — blockset groups, or the partitions
/// of one coarsen level: on the pool, split as the pool decides, when the
/// phase's lowering is on, and in order on the calling thread when it is
/// off.  One body serves both, so a sequential ablation is the parallel
/// loop minus the pool.  Returns once every task has finished.
fn for_each_task<T: Sync>(tasks: &[T], parallel: bool, body: impl Fn(&T) + Send + Sync) {
    if parallel {
        tasks.par_iter().for_each(body);
    } else {
        tasks.iter().for_each(body);
    }
}

/// The blocked loop, for the near and the coupling blocks alike: every
/// entry of `entries` adds `block * src[at(source)]` into `dst[at(target)]`
/// over its window, the groups on the pool when `parallel`.  `at` maps a
/// node to its range of `src` / `dst` rows: a leaf's rows of the permuted
/// panels for the near blocks, a node's rank slot for the coupling blocks.
/// `groups` and `entries` are one of the block tables of the
/// [`ValidPlan`] its caller holds.
fn blocked_phase<'a>(
    prep: &PreparedExec,
    groups: &[GroupRange],
    entries: &[CdsBlockEntry],
    window: impl Fn(&CdsBlockEntry) -> &'a [f64] + Sync,
    at: impl Fn(usize) -> Range<usize> + Sync,
    parallel: bool,
    src: &[f64],
    dst: &mut [f64],
    q: usize,
) {
    let out = RawSlots::new(dst);
    for_each_task(groups, parallel, |g| {
        for e in &entries[g.start..g.end] {
            if e.rows == 0 || e.cols == 0 {
                continue;
            }
            let (to, from) = (at(e.target), at(e.source));
            debug_assert_eq!((to.len(), from.len()), (e.rows, e.cols));
            // SAFETY: this group is the sole owner of node `e.target`
            // (`EvalPlan::validate` P4), whose range is as tall as the block
            // (P3) and disjoint from every other target's: near targets are
            // leaves (P3), which own disjoint rows (T6), and distinct nodes
            // own disjoint rank slots.  A group's entries run one after
            // another on this task.
            let dst = unsafe { out.slice_mut(to.start * q..to.end * q) };
            e.apply(
                prep.dispatch,
                window(e),
                &src[from.start * q..from.end * q],
                q,
                dst,
            );
        }
    });
}

/// What one visit of [`tree_sweep`] owns of one buffer.
#[derive(Debug)]
pub struct Part<'a> {
    /// Of a [`Rows::Points`] buffer, a leaf's rows (empty for an internal
    /// node); of a [`Rows::Ranks`] buffer, the node's slot.
    pub own: &'a mut [f64],
    /// Of a `Ranks` buffer, the children's stacked pair `[l; r]` (empty for
    /// a leaf); of a `Points` buffer, empty.
    pub pair: &'a mut [f64],
}

/// The one tree-sweep driver, behind the executor's coarsened loop and the
/// ULV solve's two passes: visit every node of `valid`'s tree once, calling
/// `body(id, peeled, parts)` with the node's [`Part`] of each of the `K`
/// caller-owned buffers, `q` values a row, whose rank slots are `prep`'s.
/// Allocates nothing.
///
/// Upward, the coarsen levels run in order and each partition's nodes in
/// order, then the root; downward, the root first, then the levels and each
/// partition's nodes reversed.  So a node's children are visited before it
/// upward and its parent before it downward.  A level's partitions run on
/// the pool when `prep`'s lowering has `coarsen_tree`, and in order on the
/// calling thread otherwise.  With `peel_root` too, the root-most level runs
/// its partitions one after another instead and its visits, and the
/// root's, are `peeled`: the body may run a product on the pool there.
///
/// # Panics
/// When `prep` was laid out for other sranks than `valid`'s, or a buffer
/// does not hold `q` values per row of its kind.
pub fn tree_sweep<const K: usize>(
    valid: &ValidPlan<'_>,
    prep: &PreparedExec,
    upward: bool,
    q: usize,
    bufs: [(Rows, &mut [f64]); K],
    body: impl Fn(usize, bool, [Part<'_>; K]) + Send + Sync,
) {
    let (plan, tree, rank_off) = (valid.plan, valid.tree, prep.rank_off.as_slice());
    assert!(
        offsets_match(rank_off, &plan.cds.sranks),
        "tree_sweep: the rank offsets were laid out for other sranks"
    );
    let bufs = bufs.map(|(rows, buf)| {
        let len = rows.count(tree.perm.len(), rank_off) * q;
        assert_eq!(buf.len(), len, "tree_sweep: scratch of the wrong size");
        (rows == Rows::Points, RawSlots::new(buf))
    });
    let visit = |id: usize, peeled: bool| {
        let node = &tree.nodes[id];
        // The rows the node's basis stacks: a leaf's points, or its children
        // `(l, l + 1)`'s adjacent slots (T7).
        let (rows, pair) = match node.children {
            None => (node.start..node.end, 0..0),
            Some((l, _)) => (0..0, rank_off[l]..rank_off[l + 2]),
        };
        let slot = rank_off[id]..rank_off[id + 1];
        let at = |r: &Range<usize>| r.start * q..r.end * q;
        let parts = bufs.map(|(points, buf)| {
            let (own, pair) = if points {
                (&rows, &(0..0))
            } else {
                (&slot, &pair)
            };
            // SAFETY: this is the one visit of node `id` in this sweep
            // (`EvalPlan::validate` P6: every node but the root in exactly
            // one partition, the root in none and visited here alone).
            // `own` is its rows, a leaf's alone (T6), or its slot; `pair`
            // its children's two slots (adjacent by T7, the offsets match
            // the sranks) or empty; the two are disjoint.  A slot is handed
            // out only to its node and to the node's one parent (T3), and
            // the two are visited by one task or on either side of a
            // barrier between levels (P6); the parts live only for this
            // `body` call.
            unsafe {
                Part {
                    own: buf.slice_mut(at(own)),
                    pair: buf.slice_mut(at(pair)),
                }
            }
        });
        body(id, peeled, parts);
    };
    // Node 0 is the root (T2).
    let lowering = &prep.opts.lowering;
    let (root, peel) = (0, lowering.coarsen_tree && lowering.peel_root);
    let levels = &plan.coarsenset.levels;
    let ordered = |i: usize, len: usize| if upward { i } else { len - 1 - i };
    if !upward {
        visit(root, peel);
    }
    for i in 0..levels.len() {
        let cl = ordered(i, levels.len());
        let peeled = peel && cl + 1 == levels.len();
        for_each_task(&levels[cl], lowering.coarsen_tree && !peeled, |part| {
            for j in 0..part.len() {
                visit(part[ordered(j, part.len())], peeled);
            }
        });
    }
    if upward {
        visit(root, peel);
    }
}

/// The coarsened loop, for the upward and the downward pass alike: one
/// [`tree_sweep`] visit per node, one product between its basis `V_i` and
/// the rows `V_i` stacks — a leaf's rows of `panel`, an internal node's
/// children's pair of `coef` slots.  Upward (`panel` the permuted input,
/// `coef` the `T` slots) it sets `T_i = V_i^T stack`; downward (`panel` the
/// permuted output, `coef` the `S` slots) it adds `V_i S_i` into the stack.
/// A peeled visit runs a large product on the pool (`peel_root`).
fn coarsened_phase(
    valid: &ValidPlan<'_>,
    prep: &PreparedExec,
    upward: bool,
    panel: &mut [f64],
    coef: &mut [f64],
    q: usize,
) {
    let (cds, tree) = (&valid.plan.cds, valid.tree);
    let bufs = [(Rows::Points, panel), (Rows::Ranks, coef)];
    tree_sweep(valid, prep, upward, q, bufs, |id, peeled, [rows, slots]| {
        let (v, vrows, cols) = cds.v(id);
        if cols == 0 {
            return;
        }
        let stack = if tree.nodes[id].is_leaf() {
            rows.own
        } else {
            slots.pair
        };
        let own = slots.own;
        debug_assert_eq!((stack.len(), own.len()), (vrows * q, cols * q));
        let product = match (upward, peeled && vrows * cols * q >= PEEL_PAR_THRESHOLD) {
            (true, false) => KernelDispatch::gemm_tn,
            (true, true) => KernelDispatch::par_gemm_tn,
            (false, false) => KernelDispatch::gemm,
            (false, true) => KernelDispatch::par_gemm,
        };
        let (src, dst) = if upward {
            (&*stack, own)
        } else {
            (&*own, stack)
        };
        product(&prep.dispatch, v, vrows, cols, src, q, dst);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_analysis::{
        build_blockset, build_cds, build_coarsenset, generate_plan, CoarsenParams, CodegenParams,
    };
    use matrox_compress::{compress, reference_evaluate, CompressionParams};
    use matrox_linalg::kernel::NR;
    use matrox_linalg::relative_error;
    use matrox_points::{dense_kernel_matmul, generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{HTree, PartitionMethod, Structure};
    use rand::SeedableRng;

    struct Fixture {
        tree: ClusterTree,
        plan: EvalPlan,
        y_ref: Matrix,
        y_exact: Matrix,
        w: Matrix,
    }

    fn fixture(dataset: DatasetId, n: usize, structure: Structure, q: usize) -> Fixture {
        let pts = generate(dataset, n, 77);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        let htree = HTree::build(&tree, structure);
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams {
                bacc: 1e-7,
                max_rank: 256,
                grain: 0,
            },
        );
        let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
        let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
        let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
        let cds = build_cds(&tree, &c, &near, &far, &cs);
        let plan = generate_plan(
            near,
            far,
            cs,
            cds,
            tree.height,
            tree.leaves().len(),
            &CodegenParams::default(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let w = Matrix::random_uniform(n, q, &mut rng);
        let y_ref = reference_evaluate(&c, &tree, &htree, &w);
        let y_exact = dense_kernel_matmul(&pts, &kernel, &w);
        Fixture {
            tree,
            plan,
            y_ref,
            y_exact,
            w,
        }
    }

    #[test]
    fn executor_matches_reference_hss() {
        let f = fixture(DatasetId::Grid, 512, Structure::Hss, 6);
        let y = execute(&f.plan, &f.tree, &f.w, &ExecOptions::from_plan(&f.plan));
        assert!(relative_error(&y, &f.y_ref) < 1e-12);
        assert!(relative_error(&y, &f.y_exact) < 1e-4);
    }

    #[test]
    fn executor_matches_reference_geometric() {
        let f = fixture(
            DatasetId::Random,
            512,
            Structure::Geometric { tau: 0.65 },
            5,
        );
        let y = execute(&f.plan, &f.tree, &f.w, &ExecOptions::from_plan(&f.plan));
        assert!(relative_error(&y, &f.y_ref) < 1e-12);
        assert!(relative_error(&y, &f.y_exact) < 1e-4);
    }

    #[test]
    fn executor_matches_reference_budget_high_dim() {
        let f = fixture(DatasetId::Susy, 512, Structure::h2b(), 4);
        let y = execute(&f.plan, &f.tree, &f.w, &ExecOptions::from_plan(&f.plan));
        assert!(relative_error(&y, &f.y_ref) < 1e-12);
        assert!(relative_error(&y, &f.y_exact) < 1e-3);
    }

    /// Bitwise equality between two matrices.
    fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn all_ablation_variants_agree() {
        let f = fixture(DatasetId::Grid, 512, Structure::Geometric { tau: 0.65 }, 3);
        // `(block_near, block_far, coarsen_tree, peel_root)`.
        let lowered = |(block_near, block_far, coarsen_tree, peel_root)| ExecOptions {
            lowering: LoweringDecisions {
                block_near,
                block_far,
                coarsen_tree,
                peel_root,
            },
            ..ExecOptions::sequential()
        };
        let variants = [
            ExecOptions::sequential(),
            lowered((true, false, false, false)),
            lowered((false, false, true, false)),
            lowered((false, false, true, true)),
            lowered((true, true, false, false)),
            ExecOptions::full(),
            ExecOptions::from_plan(&f.plan),
        ];
        let baseline = execute(&f.plan, &f.tree, &f.w, &variants[0]);
        for v in &variants[1..] {
            let y = execute(&f.plan, &f.tree, &f.w, v);
            assert!(bitwise_eq(&y, &baseline), "variant {v:?} diverged");
        }
    }

    #[test]
    fn hss_ablations_agree_too() {
        let f = fixture(DatasetId::Unit, 512, Structure::Hss, 2);
        let seq = execute(&f.plan, &f.tree, &f.w, &ExecOptions::sequential());
        for v in [ExecOptions::full(), ExecOptions::from_plan(&f.plan)] {
            let y = execute(&f.plan, &f.tree, &f.w, &v);
            assert!(bitwise_eq(&y, &seq), "variant {v:?} diverged");
        }
    }

    #[test]
    fn panel_width_never_changes_results() {
        let f = fixture(DatasetId::Grid, 512, Structure::Geometric { tau: 0.65 }, 33);
        let full = execute(
            &f.plan,
            &f.tree,
            &f.w,
            &ExecOptions::full().with_panel_width(usize::MAX),
        );
        // Every width up to NR + 1 reaches each narrow (`q < NR`) arm of
        // the kernel layer, against the full-width evaluation.
        for panel in (1..=NR + 1).chain([16, 32, 33, 100]) {
            let opts = ExecOptions::full().with_panel_width(panel);
            let y = execute(&f.plan, &f.tree, &f.w, &opts);
            assert!(bitwise_eq(&y, &full), "panel width {panel} changed results");
            let seq = ExecOptions::sequential().with_panel_width(panel);
            let y_seq = execute(&f.plan, &f.tree, &f.w, &seq);
            assert!(
                bitwise_eq(&y_seq, &full),
                "sequential panel width {panel} changed results"
            );
        }
    }

    #[test]
    fn panel_width_never_changes_results_per_kernel() {
        // The same panel-independence, pinned per explicit kernel choice
        // (the scalar fallback must hold it even on AVX2 hosts).
        let f = fixture(DatasetId::Grid, 384, Structure::Hss, 19);
        for kernel in [KernelChoice::Scalar, KernelChoice::Avx2] {
            let full = execute(
                &f.plan,
                &f.tree,
                &f.w,
                &ExecOptions::full()
                    .with_panel_width(usize::MAX)
                    .with_kernel(kernel),
            );
            for panel in (1..=NR + 1).chain([16]) {
                let y = execute(
                    &f.plan,
                    &f.tree,
                    &f.w,
                    &ExecOptions::full()
                        .with_panel_width(panel)
                        .with_kernel(kernel),
                );
                assert!(
                    bitwise_eq(&y, &full),
                    "kernel {kernel:?}: panel width {panel} changed results"
                );
            }
        }
    }

    #[test]
    fn kernel_choices_agree_within_tolerance() {
        let f = fixture(DatasetId::Unit, 512, Structure::h2b(), 9);
        let scalar = execute(
            &f.plan,
            &f.tree,
            &f.w,
            &ExecOptions::full().with_kernel(KernelChoice::Scalar),
        );
        let simd = execute(
            &f.plan,
            &f.tree,
            &f.w,
            &ExecOptions::full().with_kernel(KernelChoice::Avx2),
        );
        assert!(relative_error(&simd, &scalar) < 1e-12);
        assert!(relative_error(&scalar, &f.y_ref) < 1e-12);
    }

    #[test]
    fn mismatched_plan_panics_instead_of_scribbling() {
        // `execute_prepared` re-validates the passed plan and cross-checks
        // its sranks against the prepared offsets: state prepared from one
        // plan must never silently slice another plan's extents.
        let pts = generate(DatasetId::Grid, 256, 77);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        let htree = HTree::build(&tree, Structure::Hss);
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let plan_for = |bacc: f64| {
            let c = compress(
                &pts,
                &tree,
                &htree,
                &kernel,
                &sampling,
                &CompressionParams {
                    bacc,
                    max_rank: 256,
                    grain: 0,
                },
            );
            let near = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
            let far = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
            let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
            let cds = build_cds(&tree, &c, &near, &far, &cs);
            generate_plan(
                near,
                far,
                cs,
                cds,
                tree.height,
                tree.leaves().len(),
                &CodegenParams::default(),
            )
        };
        let plan_a = plan_for(1e-7);
        let plan_b = plan_for(1e-2); // much looser accuracy -> smaller sranks
        assert_ne!(plan_a.cds.sranks, plan_b.cds.sranks, "fixture too weak");
        let prep_a = PreparedExec::new(&plan_a, &tree, &ExecOptions::full());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = Matrix::random_uniform(256, 4, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_prepared(&plan_b, &tree, &prep_a, &w)
        }));
        assert!(result.is_err(), "mismatched plan must panic");
    }

    #[test]
    fn prepared_executor_matches_unprepared_and_is_reusable() {
        let f = fixture(DatasetId::Unit, 512, Structure::Hss, 7);
        let opts = ExecOptions::from_plan(&f.plan);
        let prep = PreparedExec::new(&f.plan, &f.tree, &opts);
        let direct = execute(&f.plan, &f.tree, &f.w, &opts);
        for _ in 0..3 {
            let y = execute_prepared(&f.plan, &f.tree, &prep, &f.w);
            assert!(bitwise_eq(&y, &direct));
        }
    }

    #[test]
    fn chosen_panel_width_is_bounded_and_aligned() {
        let f = fixture(DatasetId::Grid, 512, Structure::Hss, 1);
        for l2 in [16 * 1024usize, 256 * 1024, 4 * 1024 * 1024] {
            let qp = choose_panel_width(&f.plan, l2);
            assert!((8..=256).contains(&qp), "panel width {qp} out of bounds");
            assert_eq!(qp % 8, 0, "panel width {qp} not 8-aligned");
        }
        // A larger budget can never shrink the panel.
        assert!(
            choose_panel_width(&f.plan, 4 * 1024 * 1024) >= choose_panel_width(&f.plan, 64 * 1024)
        );
        // A budget a full-width panel would overflow must shrink it.
        let h2b = fixture(DatasetId::Grid, 1024, Structure::h2b(), 1);
        let qp = choose_panel_width(&h2b.plan, 64 * 1024);
        assert!(qp < 256, "small budget must shrink the panel ({qp})");
    }

    /// One [`tree_sweep`] over a `stamp` and a `count` rank buffer and a
    /// point buffer, `q` = 2.  Every visit adds 1 to its own count slot and
    /// 16 to its children's, so a count of 17 says a node was visited once
    /// and so was its parent.  Upward a node checks its children stamped
    /// their slots (their id + 1) before it stamps its own, a leaf its rows;
    /// the root negates its pair.  Downward a node checks its parent
    /// stamped its slot before it stamps its children's.  Since each node
    /// waits for its children (upward) or its parent (downward), the root
    /// comes last upward and first downward.
    fn sweep_stamps(f: &Fixture, opts: &ExecOptions, upward: bool) {
        const Q: usize = 2;
        let (tree, sranks) = (&f.tree, &f.plan.cds.sranks);
        let valid = ValidPlan::new(&f.plan, tree).expect("a valid plan");
        let prep = PreparedExec::from_valid(&valid, opts);
        let off = rank_offsets(sranks);
        let total_rank = off[tree.num_nodes()];
        let fill = |id: usize, n: usize| vec![id as f64 + 1.0; n * Q];
        let (mut rows, mut stamp, mut count) = (
            vec![0.0; tree.perm.len() * Q],
            vec![0.0; total_rank * Q],
            vec![0.0; total_rank * Q],
        );
        let bufs = [
            (Rows::Points, &mut rows[..]),
            (Rows::Ranks, &mut stamp[..]),
            (Rows::Ranks, &mut count[..]),
        ];
        tree_sweep(
            &valid,
            &prep,
            upward,
            Q,
            bufs,
            |id, peeled, [rows, stamp, count]| {
                assert!(
                    !peeled || opts.lowering.peel_root,
                    "peeled without peel_root"
                );
                count.own.iter_mut().for_each(|c| *c += 1.0);
                count.pair.iter_mut().for_each(|c| *c += 16.0);
                let node = &tree.nodes[id];
                let kids = node.children.map_or(vec![], |(l, r)| {
                    [fill(l, sranks[l]), fill(r, sranks[r])].concat()
                });
                if upward {
                    assert_eq!(stamp.pair, kids, "node {id} before its children");
                    if node.is_leaf() {
                        assert!(rows.own.iter().all(|&x| x == 0.0), "leaf {id} twice");
                        rows.own.fill(id as f64 + 1.0);
                    } else {
                        assert!(rows.own.is_empty());
                    }
                    stamp.own.fill(id as f64 + 1.0);
                    if node.parent.is_none() {
                        stamp.pair.iter_mut().for_each(|x| *x = -*x);
                    }
                } else {
                    let own = if node.parent.is_some() {
                        fill(id, sranks[id])
                    } else {
                        vec![]
                    };
                    assert_eq!(stamp.own, own, "node {id} before its parent");
                    stamp.pair.copy_from_slice(&kids);
                }
            },
        );
        for node in &tree.nodes[1..] {
            let at = off[node.id] * Q..off[node.id + 1] * Q;
            assert!(
                count[at.clone()].iter().all(|&c| c == 17.0),
                "node {}",
                node.id
            );
            let root_child = node.parent == Some(0) && upward;
            let sign = if root_child { -1.0 } else { 1.0 };
            let want = sign * (node.id as f64 + 1.0);
            assert!(stamp[at].iter().all(|&x| x == want), "node {}", node.id);
        }
        if upward {
            for leaf in tree.leaves() {
                let (a, b) = (tree.nodes[leaf].start * Q, tree.nodes[leaf].end * Q);
                assert!(rows[a..b].iter().all(|&x| x == leaf as f64 + 1.0));
            }
        }
    }

    #[test]
    fn tree_sweep_visits_each_node_once_children_or_parent_first() {
        // Under Miri (CI), 256 points in 32-point leaves still give two
        // coarsen levels.
        let n = if cfg!(miri) { 256 } else { 512 };
        let f = fixture(DatasetId::Grid, n, Structure::Hss, 1);
        assert_eq!(f.plan.cds.sranks[0], 0);
        assert!(
            f.plan.cds.sranks[1..].iter().all(|&k| k > 0),
            "every non-root slot must be observable"
        );
        assert!(f.plan.coarsenset.num_levels() > 1, "fixture too shallow");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("a two-wide pool");
        for upward in [true, false] {
            sweep_stamps(&f, &ExecOptions::sequential(), upward);
            pool.install(|| sweep_stamps(&f, &ExecOptions::full(), upward));
            let mut no_peel = ExecOptions::full();
            no_peel.lowering.peel_root = false;
            pool.install(|| sweep_stamps(&f, &no_peel, upward));
        }
    }

    #[test]
    fn matvec_case_q1_works() {
        let f = fixture(
            DatasetId::Sunflower,
            384,
            Structure::Geometric { tau: 0.65 },
            1,
        );
        let y = execute(&f.plan, &f.tree, &f.w, &ExecOptions::full());
        assert!(relative_error(&y, &f.y_ref) < 1e-12);
    }
}
