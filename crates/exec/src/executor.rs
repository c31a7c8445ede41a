//! The MatRox executor: parallel HMatrix-matrix multiplication over CDS.
//!
//! The executor interprets an [`EvalPlan`] (the "generated code") in four
//! phases, mirroring the specialized loops of Figure 1e:
//!
//! 1. **near phase** — the blocked loop over the dense `D` blocks,
//!    parallel over blockset groups (which by construction never write the
//!    same output rows, so no reductions/atomics are needed);
//! 2. **upward phase** — the coarsened loop over the `V` generators,
//!    sequential over coarsen levels, parallel over load-balanced sub-trees;
//! 3. **coupling phase** — the blocked loop over the `B` blocks;
//! 4. **downward phase** — the coarsened loop over the same `V`
//!    generators (the operator is symmetric: `V` applied plain is the row
//!    basis) in reverse coarsen-level order, scattering into the output.
//!
//! Each phase is one loop over its structure set (blockset groups, coarsen
//! partitions) whose body runs on the pool when the corresponding lowering is
//! on and in the same order on the calling thread when it is off — because
//! code generation decided the lowering is not profitable, or for the Figure 5
//! ablation (`CDS(seq)`, `CDS + coarsen`, `CDS + block`, ...).
//! The `peel_root` option applies the paper's low-level specialization: the
//! root-most coarsen level is executed with block-level (parallel GEMM)
//! parallelism because task-level parallelism has run out near the root.
//!
//! All intermediate state is kept in the permuted (tree) ordering so that a
//! node's rows of `W` and `Y` are contiguous; the input is permuted on entry
//! and the output is un-permuted on exit.
//!
//! # Memory discipline
//!
//! Everything a panel iteration needs is derived once: the plan-dependent
//! state (panel width, kernel dispatch, per-node scratch offsets) lives in
//! [`PreparedExec`], and the per-evaluation scratch
//! (permuted input/output panels plus the flat `T`/`S` coefficient buffers)
//! is allocated once per [`execute_prepared`] call.  The panel loop itself
//! allocates **nothing** — every GEMM writes into a precomputed offset range,
//! and the phases hand tasks raw disjoint sub-slices (the private `RawSlots`
//! helper) instead of rebuilding hash maps.
//!
//! The disjointness that makes those raw slices sound is not assumed: it is
//! the paper's conflict-free-scheduling invariant (blockset groups own
//! their target nodes, coarsen partitions own their sub-trees, every child
//! has one parent, leaves tile the permuted rows).  This module does not
//! define it: [`EvalPlan::validate`] does, once, for the model readers, the
//! solver and this executor alike (its items T1–T6 for the tree and P2–P6
//! for the plan are what the `SAFETY:` comments below cite).
//! [`PreparedExec::new`] and every [`execute_prepared`] call run it on the
//! pair they are handed and panic on a malformed one rather than race on it
//! ([`execute`], which prepares and evaluates the same pair, runs it once).

#![expect(
    unsafe_code,
    reason = "RawSlots disjoint raw slicing for the allocation-free panel loop: blockset groups and coarsen partitions own disjoint slots, checked by EvalPlan::validate at prepare time and per call (DESIGN.md unsafe inventory)"
)]

use crate::schedule::LevelSchedule;
use matrox_analysis::{CdsBlockEntry, EvalPlan};
use matrox_linalg::{KernelChoice, KernelDispatch, Matrix};
use matrox_tree::ClusterTree;
use rayon::prelude::*;

/// Which phases run in parallel; derived from the plan's lowering decisions
/// or overridden for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Run the near loop blocked & parallel (block lowering).
    pub parallel_near: bool,
    /// Run the coupling loop blocked & parallel (block lowering, far).
    pub parallel_far: bool,
    /// Run the tree loops coarsened & parallel (coarsen lowering).
    pub parallel_tree: bool,
    /// Peel the root-most coarsen level and use parallel GEMM inside it
    /// (low-level specialization).
    pub peel_root: bool,
    /// Minimum number of work items (blockset groups, coarsen partitions) a
    /// parallel task may own; `0` means auto (1: the pool's own split
    /// heuristic decides).  Larger grains trade load balance for lower
    /// scheduling overhead — useful when groups are many and tiny.  Within a
    /// panel-blocked evaluation the grain applies to every panel's parallel
    /// loops individually.
    pub grain: usize,
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
    /// grains and panel widths.  The two SIMD arms share one chain and
    /// return the same bits; switching between scalar and SIMD is the one
    /// choice that moves results (within kernel-accuracy tolerance).
    pub kernel: KernelChoice,
}

impl ExecOptions {
    /// Follow the lowering decisions recorded in the plan.
    pub fn from_plan(plan: &EvalPlan) -> Self {
        ExecOptions {
            parallel_near: plan.decisions.block_near,
            parallel_far: plan.decisions.block_far,
            parallel_tree: plan.decisions.coarsen_tree,
            peel_root: plan.decisions.peel_root,
            grain: 0,
            panel_width: 0,
            kernel: KernelChoice::Auto,
        }
    }

    /// Fully sequential execution over CDS (the `CDS(seq)` ablation bar).
    pub fn sequential() -> Self {
        ExecOptions {
            parallel_near: false,
            parallel_far: false,
            parallel_tree: false,
            peel_root: false,
            grain: 0,
            panel_width: 0,
            kernel: KernelChoice::Auto,
        }
    }

    /// All optimizations on, regardless of the plan's thresholds.
    pub fn full() -> Self {
        ExecOptions {
            parallel_near: true,
            parallel_far: true,
            parallel_tree: true,
            peel_root: true,
            grain: 0,
            panel_width: 0,
            kernel: KernelChoice::Auto,
        }
    }

    /// Set the minimum work items per parallel task (see [`ExecOptions::grain`]).
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain;
        self
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
    /// The options (lowerings + grain + kernel) the plan was prepared with.
    pub opts: ExecOptions,
    /// Resolved RHS panel width (see [`ExecOptions::panel_width`]).
    pub panel_width: usize,
    /// Resolved GEMM kernel (see [`ExecOptions::kernel`]).
    dispatch: KernelDispatch,
    /// Per-node rank slots into the flat `T`/`S` buffers (scaled by the
    /// panel width at evaluation time) — laid out by the same
    /// [`LevelSchedule`] the solver's sweeps are driven by; the executor's
    /// own order of nodes is the plan's coarsen set.
    sched: LevelSchedule,
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
        verify_plan(plan, tree);
        PreparedExec {
            opts: *opts,
            panel_width: effective_panel_width(opts, plan),
            dispatch: KernelDispatch::for_choice(opts.kernel),
            sched: LevelSchedule::new(tree, &plan.cds.sranks),
        }
    }

    /// The resolved GEMM kernel every product of this plan runs on.
    pub fn dispatch(&self) -> KernelDispatch {
        self.dispatch
    }

    /// Rank offset of a node's `T`/`S` coefficient slot.
    fn rank_off(&self, id: usize) -> usize {
        self.sched.slot(id).start
    }

    /// Skeleton rank of a node (width of its `T`/`S` coefficient slot).
    fn srank(&self, id: usize) -> usize {
        self.sched.slot(id).len()
    }
}

/// Hold `(tree, plan)` to [`EvalPlan::validate`] — the invariants every
/// `SAFETY:` comment below cites — and panic with its message.  Every public
/// entry point runs it exactly once on the pair it is handed before any raw
/// slicing: `plan` and `tree` are loose arguments with public fields, so
/// state prepared earlier proves nothing about the pair passed now.  Cost is
/// `O(plan structure)`, far below one panel's products.
fn verify_plan(plan: &EvalPlan, tree: &ClusterTree) {
    if let Err(why) = plan.validate(tree) {
        panic!("execute: malformed evaluation plan: {why}");
    }
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
    // `PreparedExec::new` validated this very pair; no second walk.
    run_panels(plan, tree, &PreparedExec::new(plan, tree, opts), w)
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
    assert!(
        prep.sched.matches(tree.num_nodes(), &plan.cds.sranks),
        "execute: PreparedExec belongs to a different tree or a plan with different skeleton ranks"
    );
    verify_plan(plan, tree);
    run_panels(plan, tree, prep, w)
}

/// The evaluation proper, behind both entry points.  The caller has run
/// [`verify_plan`] on `(tree, plan)` and `prep` was laid out for them.
fn run_panels(plan: &EvalPlan, tree: &ClusterTree, prep: &PreparedExec, w: &Matrix) -> Matrix {
    let n = tree.perm.len();
    let q = w.cols();
    assert_eq!(w.rows(), n, "execute: W must have N = {n} rows");
    let mut y = Matrix::zeros(n, q);
    if q == 0 {
        return y;
    }
    let qp = prep.panel_width.max(1).min(q);
    let total_rank = prep.sched.total_rank();
    // Scratch shared by every panel: the gather fully overwrites the active
    // slice of `w_perm`, and `execute_panel` re-zeroes the other three, so
    // four allocations serve the whole evaluation.
    let mut w_perm = vec![0.0f64; n * qp];
    let mut y_perm = vec![0.0f64; n * qp];
    let mut t_buf = vec![0.0f64; total_rank * qp];
    let mut s_buf = vec![0.0f64; total_rank * qp];
    let mut j0 = 0;
    while j0 < q {
        let j1 = (j0 + qp).min(q);
        let cur = j1 - j0;
        execute_panel(
            plan,
            tree,
            prep,
            w,
            j0,
            j1,
            &mut w_perm[..n * cur],
            &mut y_perm[..n * cur],
            &mut t_buf[..total_rank * cur],
            &mut s_buf[..total_rank * cur],
            &mut y,
        );
        j0 = j1;
    }
    y
}

/// Run the four executor phases for the RHS columns `[j0, j1)`, writing the
/// result into the same columns of `y`.  All scratch slices are caller-owned
/// and reused across panels.
fn execute_panel(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    w: &Matrix,
    j0: usize,
    j1: usize,
    w_perm: &mut [f64],
    y_perm: &mut [f64],
    t_buf: &mut [f64],
    s_buf: &mut [f64],
    y: &mut Matrix,
) {
    let opts = &prep.opts;
    let n = tree.perm.len();
    let q = w.cols();
    let qp = j1 - j0;
    debug_assert_eq!(w_perm.len(), n * qp);
    debug_assert_eq!(y_perm.len(), n * qp);

    // Permute the panel of W into tree order so every node's rows are
    // contiguous.  The gather writes disjoint contiguous destination rows, so
    // it parallelizes over row blocks; below ~PERM_PAR_ELEMS elements the
    // copy is too memory-bound and short for a fork to pay off.
    let any_parallel = opts.parallel_near || opts.parallel_far || opts.parallel_tree;
    let perm_rows_per_task = PERM_PAR_ELEMS.div_ceil(qp).max(1);
    if any_parallel && n * qp >= PERM_PAR_ELEMS {
        w_perm
            .par_chunks_mut(qp)
            .with_min_len(perm_rows_per_task)
            .enumerate()
            .for_each(|(p, row)| row.copy_from_slice(&w.row(tree.perm[p])[j0..j1]));
    } else {
        for p in 0..n {
            w_perm[p * qp..(p + 1) * qp].copy_from_slice(&w.row(tree.perm[p])[j0..j1]);
        }
    }
    y_perm.fill(0.0);
    t_buf.fill(0.0);
    s_buf.fill(0.0);

    // Phase 1: near (dense) contributions.
    near_phase(plan, tree, prep, w_perm, y_perm, qp);

    // Phase 2: upward pass producing the skeleton coefficients T.
    upward_phase(plan, tree, prep, w_perm, t_buf, qp);

    // Phase 3: coupling through the B blocks.
    coupling_phase(plan, prep, t_buf, s_buf, qp);

    // Phase 4: downward pass scattering V * S into the output.
    downward_phase(plan, tree, prep, s_buf, y_perm, qp);

    // Un-permute the panel into the output columns.  Iterate over the
    // *destination* rows (each task owns a contiguous block of `y`) and
    // gather from the permuted buffer via the inverse permutation, so the
    // parallel copy needs no synchronization.
    if any_parallel && n * qp >= PERM_PAR_ELEMS {
        y.as_mut_slice()
            .par_chunks_mut(q)
            .with_min_len(perm_rows_per_task)
            .enumerate()
            .for_each(|(i, row)| {
                let p = tree.pos[i];
                row[j0..j1].copy_from_slice(&y_perm[p * qp..(p + 1) * qp]);
            });
    } else {
        for p in 0..n {
            y.row_mut(tree.perm[p])[j0..j1].copy_from_slice(&y_perm[p * qp..(p + 1) * qp]);
        }
    }
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

/// Raw shared view of one scratch buffer, handed to the phase loops so tasks
/// can slice their own disjoint sub-ranges without per-panel splitting
/// machinery (the old implementation rebuilt per-group `HashMap`s of `&mut`
/// slices on every RHS panel).
///
/// # Safety contract
///
/// Every `slice_mut` range handed out concurrently must be disjoint from
/// every other concurrently live range (mutable or shared) of the same
/// buffer.  The executor guarantees this through the items of
/// [`EvalPlan::validate`], which both entry points have run on the very
/// `(tree, plan)` the phases read (a phase whose lowering is off runs its
/// tasks one after another on the calling thread, where the same ranges are
/// trivially unshared):
///
/// * near/coupling: a target node belongs to exactly one blockset group
///   (P4); distinct target leaves own disjoint `y_perm` rows (T6) and
///   distinct nodes disjoint `S` slots (the prefix sums of `sranks`), and a
///   block is exactly as tall as the range it is multiplied into (P3);
/// * upward: a node is in at most one coarsen partition, so one task writes
///   its `T` slot, and the child slots it reads were written either earlier
///   by the same task or on an earlier coarsen level (P6; the loop over a
///   level's partitions is a barrier); a generator is as wide as its slot
///   and as tall as what it reads (P2);
/// * downward: a node's children each have exactly one parent (T3), so no
///   two tasks push into the same `S` slot within a level, and a leaf (the
///   `y_perm` writes) belongs to exactly one partition (P6) and owns its
///   rows alone (T6).
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
// pair; actual accesses go through `slice`/`slice_mut`, whose disjointness
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
    /// `[off, off + len)` must not be concurrently aliased (see the
    /// type-level contract).  Bounds are checked unconditionally — the
    /// check is trivial next to the product the slice feeds, and it turns
    /// an invariant-violation bug into a panic instead of an
    /// out-of-bounds write.
    unsafe fn slice_mut<'a>(&self, off: usize, len: usize) -> &'a mut [f64] {
        assert!(off + len <= self.len, "RawSlots: slice out of bounds");
        // SAFETY: in bounds by the assert (`ptr..ptr+len` is one live
        // allocation — the scratch Vec borrowed by `RawSlots::new`);
        // non-aliasing is the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(off), len) }
    }

    /// # Safety
    /// `[off, off + len)` must not be concurrently written (see the
    /// type-level contract); bounds are checked unconditionally.
    unsafe fn slice<'a>(&self, off: usize, len: usize) -> &'a [f64] {
        assert!(off + len <= self.len, "RawSlots: slice out of bounds");
        // SAFETY: in bounds by the assert; no concurrent writer is the
        // caller's contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), len) }
    }
}

/// Run `body` on every task of a phase — blockset groups, or the partitions
/// of one coarsen level: on the pool, at least `opts.grain` tasks to a job,
/// when the phase's lowering is on, and in order on the calling thread when it
/// is off.  One body serves both, so a sequential ablation is the parallel
/// loop minus the pool.  Returns once every task has finished.
fn for_each_task<T: Sync>(
    tasks: &[T],
    parallel: bool,
    opts: &ExecOptions,
    body: impl Fn(&T) + Send + Sync,
) {
    if parallel {
        tasks
            .par_iter()
            .with_min_len(opts.grain.max(1))
            .for_each(body);
    } else {
        tasks.iter().for_each(body);
    }
}

// --------------------------------------------------------------------------
// Phase 1: near contributions
// --------------------------------------------------------------------------

fn near_phase(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    w_perm: &[f64],
    y_perm: &mut [f64],
    q: usize,
) {
    let cds = &plan.cds;
    // Blocked loop: every group owns the output slices of its target nodes
    // exclusively (Algorithm 1 guarantees disjoint targets across groups;
    // `EvalPlan::validate` P4), so each task writes its targets' `y_perm`
    // rows directly.  The groups tile `d_entries` in order (P4), so run
    // sequentially this is the plain loop over the entry table.
    let y = RawSlots::new(y_perm);
    for_each_task(&cds.d_groups, prep.opts.parallel_near, &prep.opts, |g| {
        for e in &cds.d_entries[g.start..g.end] {
            let tn = &tree.nodes[e.target];
            // SAFETY: this group is the sole owner of node `e.target`
            // (`EvalPlan::validate` P4), targets are leaves (P3) and
            // distinct leaves own disjoint row ranges (T6), and entries
            // within a group run sequentially on this task.
            let dst = unsafe { y.slice_mut(tn.start * q, (tn.end - tn.start) * q) };
            let sn = &tree.nodes[e.source];
            let src = &w_perm[sn.start * q..sn.end * q];
            apply_block(&prep.dispatch, e, cds.d_block(e), src, q, dst);
        }
    });
}

/// `dst += block * src` for one near or coupling entry over its stored
/// window: a transposed twin (`EvalPlan::validate` P3) reads the window of
/// the block it mirrors through the `A^T B` product, which returns bit for
/// bit what the plain product over a stored copy of its transpose would.
fn apply_block(
    dispatch: &KernelDispatch,
    e: &CdsBlockEntry,
    window: &[f64],
    src: &[f64],
    q: usize,
    dst: &mut [f64],
) {
    if e.transposed {
        dispatch.gemm_tn(window, e.cols, e.rows, src, q, dst);
    } else {
        dispatch.gemm(window, e.rows, e.cols, src, q, dst);
    }
}

// --------------------------------------------------------------------------
// Phase 2: upward pass (T = V^T * ...)
// --------------------------------------------------------------------------

/// Compute node `id`'s skeleton coefficients `T_i` into its `t` slot.
///
/// # Safety
/// The caller must guarantee exclusive access to `id`'s slot and that the
/// children's slots are fully written (same task earlier, or an earlier
/// coarsen level) — see [`RawSlots`].
unsafe fn compute_t_into(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    id: usize,
    w_perm: &[f64],
    q: usize,
    t: RawSlots,
    peel: bool,
) {
    let cds = &plan.cds;
    let (v, rows, cols) = cds.v(id);
    if cols == 0 {
        return;
    }
    debug_assert_eq!(cols, prep.srank(id), "generator width != srank at {id}");
    // SAFETY: `[rank_off[id], rank_off[id] + srank(id)) * q` is node `id`'s
    // own T slot (slots of distinct nodes are disjoint by the prefix-sum
    // construction, and `cols == srank(id)` by `EvalPlan::validate` P2 plus
    // `execute_prepared`'s sranks cross-check); exclusive access to it is
    // the fn contract.
    let out = unsafe { t.slice_mut(prep.rank_off(id) * q, cols * q) };
    let node = &tree.nodes[id];
    let par = peel && rows * cols * q >= PEEL_PAR_THRESHOLD;
    if node.is_leaf() {
        debug_assert_eq!(rows, node.num_points());
        let src = &w_perm[node.start * q..node.end * q];
        if par {
            prep.dispatch.par_gemm_tn(v, rows, cols, src, q, out);
        } else {
            prep.dispatch.gemm_tn(v, rows, cols, src, q, out);
        }
    } else {
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: non-leaf ClusterTree nodes always carry a child pair by construction"
        )]
        let (l, r) = node.children.unwrap();
        let rl = prep.srank(l);
        let rr = prep.srank(r);
        debug_assert_eq!(rows, rl + rr, "transfer matrix rows mismatch at node {id}");
        if rl > 0 {
            // SAFETY: the children's T slots are disjoint from `out` (per
            // the prefix-sum layout) and fully written before this call —
            // by this task earlier or on an earlier level (fn contract).
            let tl = unsafe { t.slice(prep.rank_off(l) * q, rl * q) };
            prep.dispatch
                .gemm_tn(&v[0..rl * cols], rl, cols, tl, q, out);
        }
        if rr > 0 {
            // SAFETY: as for the left child.
            let tr = unsafe { t.slice(prep.rank_off(r) * q, rr * q) };
            prep.dispatch.gemm_tn(&v[rl * cols..], rr, cols, tr, q, out);
        }
    }
}

fn upward_phase(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    w_perm: &[f64],
    t_buf: &mut [f64],
    q: usize,
) {
    let opts = &prep.opts;
    let t = RawSlots::new(t_buf);
    let levels = &plan.coarsenset.levels;
    for (cl, parts) in levels.iter().enumerate() {
        // Root-most coarsen level: little task parallelism left, so run its
        // partitions one after another and use block-level parallelism
        // inside each node instead.
        let peel = opts.parallel_tree && opts.peel_root && cl + 1 == levels.len();
        for_each_task(parts, opts.parallel_tree && !peel, opts, |part| {
            for &id in part {
                // SAFETY: partitions own disjoint node sets and a node's
                // children are in this partition, earlier (already computed
                // by this task), or on an earlier level (completed before
                // this level's loop started) — `EvalPlan::validate` P6.
                unsafe { compute_t_into(plan, tree, prep, id, w_perm, q, t, peel) };
            }
        });
    }
}

// --------------------------------------------------------------------------
// Phase 3: coupling (S_i += B_{i,j} * T_j)
// --------------------------------------------------------------------------

fn coupling_phase(
    plan: &EvalPlan,
    prep: &PreparedExec,
    t_buf: &[f64],
    s_buf: &mut [f64],
    q: usize,
) {
    let cds = &plan.cds;
    // Blocked loop over far groups; each group owns its target nodes' S
    // slots exclusively (`EvalPlan::validate` P4), and the groups tile
    // `b_entries` in order.
    let s = RawSlots::new(s_buf);
    for_each_task(&cds.b_groups, prep.opts.parallel_far, &prep.opts, |g| {
        for e in &cds.b_entries[g.start..g.end] {
            if e.rows == 0 || e.cols == 0 {
                continue;
            }
            debug_assert_eq!(e.cols, prep.srank(e.source));
            debug_assert_eq!(e.rows, prep.srank(e.target));
            let src = &t_buf[prep.rank_off(e.source) * q..][..e.cols * q];
            // SAFETY: this group is the sole owner of node `e.target`'s
            // S slot (`EvalPlan::validate` P4), `e.rows` is that slot's
            // height (P3), and slots of distinct nodes are disjoint.
            let dst = unsafe { s.slice_mut(prep.rank_off(e.target) * q, e.rows * q) };
            apply_block(&prep.dispatch, e, cds.b_block(e), src, q, dst);
        }
    });
}

// --------------------------------------------------------------------------
// Phase 4: downward pass (Y += V * S, pushed through the transfer matrices)
// --------------------------------------------------------------------------

/// Process one node of the downward pass: a leaf adds `V_i * S_i` into its
/// contiguous `y_perm` rows; an internal node accumulates the expanded
/// contribution directly into its children's `S` slots (the two halves of
/// `V_i` hit the two children).
///
/// # Safety
/// Caller must guarantee (via `EvalPlan::validate` P6 and T3) that no
/// other task concurrently touches `id`'s `S` slot, its children's `S`
/// slots, or its `y_perm` rows — see [`RawSlots`].
unsafe fn down_node(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    id: usize,
    s: RawSlots,
    y: RawSlots,
    q: usize,
    peel: bool,
) {
    let cds = &plan.cds;
    let (v, rows, cols) = cds.v(id);
    if cols == 0 {
        return;
    }
    debug_assert_eq!(cols, prep.srank(id));
    // SAFETY: node `id`'s S slot is fully written before this node is
    // processed (its parent ran earlier — same task or an earlier level)
    // and nothing concurrently writes it (fn contract).
    let s_i = unsafe { s.slice(prep.rank_off(id) * q, cols * q) };
    let node = &tree.nodes[id];
    let par = peel && rows * cols * q >= PEEL_PAR_THRESHOLD;
    if node.is_leaf() {
        debug_assert_eq!(rows, node.num_points());
        // SAFETY: leaves tile `y_perm` disjointly (`ClusterTree::validate`
        // T6: `[start, start + rows)` belongs to this leaf alone, and
        // `rows` is its point count by `EvalPlan::validate` P2) and each
        // leaf belongs to exactly one partition (fn contract).
        let dst = unsafe { y.slice_mut(node.start * q, rows * q) };
        if par {
            prep.dispatch.par_gemm(v, rows, cols, s_i, q, dst);
        } else {
            prep.dispatch.gemm(v, rows, cols, s_i, q, dst);
        }
    } else {
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: non-leaf ClusterTree nodes always carry a child pair by construction"
        )]
        let (l, r) = node.children.unwrap();
        let rl = prep.srank(l);
        let rr = prep.srank(r);
        debug_assert_eq!(rows, rl + rr);
        if rl > 0 {
            // SAFETY: every child has exactly one parent (T3), so this task
            // is the only writer of the child's S slot at this level; the
            // child itself reads it only after this node completes
            // (in-partition ordering or the next level's barrier).
            let dst = unsafe { s.slice_mut(prep.rank_off(l) * q, rl * q) };
            if par {
                prep.dispatch
                    .par_gemm(&v[0..rl * cols], rl, cols, s_i, q, dst);
            } else {
                prep.dispatch.gemm(&v[0..rl * cols], rl, cols, s_i, q, dst);
            }
        }
        if rr > 0 {
            // SAFETY: as for the left child.
            let dst = unsafe { s.slice_mut(prep.rank_off(r) * q, rr * q) };
            if par {
                prep.dispatch
                    .par_gemm(&v[rl * cols..rows * cols], rr, cols, s_i, q, dst);
            } else {
                prep.dispatch
                    .gemm(&v[rl * cols..rows * cols], rr, cols, s_i, q, dst);
            }
        }
    }
}

fn downward_phase(
    plan: &EvalPlan,
    tree: &ClusterTree,
    prep: &PreparedExec,
    s_buf: &mut [f64],
    y_perm: &mut [f64],
    q: usize,
) {
    let opts = &prep.opts;
    let s = RawSlots::new(s_buf);
    let y = RawSlots::new(y_perm);
    let levels = &plan.coarsenset.levels;
    for (cl, parts) in levels.iter().enumerate().rev() {
        // Root-most level: sequential over its few nodes, parallel inside
        // the GEMMs (see `upward_phase`).
        let peel = opts.parallel_tree && opts.peel_root && cl + 1 == levels.len();
        // A task pushes into the S slots of its nodes' children: a child
        // inside the partition is processed later by the same task (reverse
        // order, `EvalPlan::validate` P6); a child on a deeper coarsen level
        // is untouched until the next `cl` iteration (the loop below is a
        // barrier); and every child has exactly one parent, so no two tasks
        // push into the same slot.  Leaves (the y_perm writes) belong to
        // exactly one partition.
        for_each_task(parts, opts.parallel_tree && !peel, opts, |part| {
            for &id in part.iter().rev() {
                // SAFETY: see the loop comment above.
                unsafe { down_node(plan, tree, prep, id, s, y, q, peel) };
            }
        });
    }
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
        let variants = [
            ExecOptions::sequential(),
            ExecOptions {
                parallel_near: true,
                ..ExecOptions::sequential()
            },
            ExecOptions {
                parallel_tree: true,
                ..ExecOptions::sequential()
            },
            ExecOptions {
                parallel_tree: true,
                peel_root: true,
                ..ExecOptions::sequential()
            },
            ExecOptions {
                parallel_near: true,
                parallel_far: true,
                ..ExecOptions::sequential()
            },
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
