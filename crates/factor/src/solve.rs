//! Forward/backward solve sweeps over an [`HssFactor`].
//!
//! One solve is two passes over the levels of the tree — up from the deepest
//! level, then down from the root — over flat scratch sized for one panel of
//! right-hand-side columns and laid out by the executor's
//! [`LevelSchedule`]:
//!
//! * `xp`, the permuted panel: a leaf's rows hold `b_i`, then
//!   `y_i = D_i^{-1} b_i` (solved in place), then `x_i = y_i - E_i s_i`;
//! * `tb`, one rank slot per node: node `c` writes `bhat_c = V_c^T y_c` into
//!   its slot, which is its half of its parent's **stacked pair**
//!   `[bhat_l; bhat_r]`; the parent solves `M_p` in place there (the pair now
//!   holds `t_p`), and the downward pass corrects it in place to
//!   `t'_p = t_p - T_p s_p`;
//! * `sb`, the same slots: `s_c`, the outer skeleton load of node `c`;
//! * `cx` / `ct`: where a product is formed before it is subtracted.
//!
//! Nothing is allocated per node, per level or per panel.  Within a level
//! every node owns its rows, its slot and its children's pair, and along the
//! schedule those ascend without overlap, so a parallel level hands each task
//! its part by `split_at_mut` (`LevelCarve`) — no `unsafe`.
//!
//! The arithmetic per node and per column is fixed (the substitution chains
//! of `matrox_linalg::solve`, the products on the one `KernelDispatch` that
//! `ExecOptions::kernel` resolves), so for a fixed kernel a solution column is
//! bitwise independent of the pool width, the grain, the panel width, the
//! number of columns solved with it and its position among them.

use crate::factor::{FactorError, HssFactor, HssIndex};
use matrox_analysis::{Cds, EvalPlan};
use matrox_exec::{requested_panel_width, ExecOptions, LevelSchedule, PANEL_MAX};
use matrox_linalg::{cholesky_solve_in_place, lu_solve_in_place, KernelDispatch, Matrix};
use matrox_tree::ClusterTree;
use rayon::prelude::*;
use std::ops::Range;

/// The part `[base, base + buf.len())` of a flat scratch buffer.
#[derive(Default)]
struct Window<'a> {
    buf: &'a mut [f64],
    base: usize,
}

impl<'a> Window<'a> {
    /// `buf` as the part of its buffer that starts at offset `base`.
    fn at(buf: &'a mut [f64], base: usize) -> Self {
        Window { buf, base }
    }

    /// Split at the (absolute) offset `at`.
    fn split_at(self, at: usize) -> (Self, Self) {
        let (lo, hi) = self.buf.split_at_mut(at - self.base);
        (Window::at(lo, self.base), Window::at(hi, at))
    }

    /// Detach `[off, off + len)`; the window keeps what lies behind it.
    fn take(&mut self, off: usize, len: usize) -> &'a mut [f64] {
        let (head, rest) = std::mem::take(&mut self.buf).split_at_mut(off + len - self.base);
        let taken = &mut head[off - self.base..];
        *self = Window::at(rest, off + len);
        taken
    }
}

/// The nodes at positions `range` of one level with the `K` scratch windows
/// they own.  `span(p)` names, per window, the `(offset, len)` that belongs
/// to the node at position `p`; along a level these ascend and never
/// overlap (rows: T5; slots and pairs: [`LevelSchedule`]), so the nodes from
/// `mid` on own exactly what lies at or behind `span(mid)`'s offsets.  As a
/// parallel iterator it splits there; sequentially it yields each node with
/// its `K` slices.  A span that broke the ordering would fail a slice bound,
/// never alias.
struct LevelCarve<'a, const K: usize, S> {
    range: Range<usize>,
    wins: [Window<'a>; K],
    span: &'a S,
}

impl<'a, const K: usize, S> ParallelIterator for LevelCarve<'a, K, S>
where
    S: Fn(usize) -> [(usize, usize); K] + Sync,
{
    type Item = (usize, [&'a mut [f64]; K]);
    type Seq = CarveIter<'a, K, S>;

    fn par_len(&self) -> usize {
        self.range.len()
    }

    fn par_split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        let cuts = if mid < self.range.end {
            (self.span)(mid).map(|(off, _)| off)
        } else {
            std::array::from_fn(|k| self.wins[k].base + self.wins[k].buf.len())
        };
        let mut left = self.wins;
        let right = std::array::from_fn(|k| {
            let (lo, hi) = std::mem::take(&mut left[k]).split_at(cuts[k]);
            left[k] = lo;
            hi
        });
        let part = |range, wins| LevelCarve {
            range,
            wins,
            span: self.span,
        };
        (
            part(self.range.start..mid, left),
            part(mid..self.range.end, right),
        )
    }

    fn par_seq(self) -> Self::Seq {
        CarveIter(self)
    }
}

/// [`LevelCarve`] as a sequential iterator.
struct CarveIter<'a, const K: usize, S>(LevelCarve<'a, K, S>);

impl<'a, const K: usize, S> Iterator for CarveIter<'a, K, S>
where
    S: Fn(usize) -> [(usize, usize); K],
{
    type Item = (usize, [&'a mut [f64]; K]);

    fn next(&mut self) -> Option<Self::Item> {
        let p = self.0.range.next()?;
        let span = (self.0.span)(p);
        Some((
            p,
            std::array::from_fn(|k| self.0.wins[k].take(span[k].0, span[k].1)),
        ))
    }
}

/// `x -= c`, element by element.
fn sub_assign(x: &mut [f64], c: &[f64]) {
    for (a, b) in x.iter_mut().zip(c) {
        *a -= *b;
    }
}

/// What the two passes read: the validated factor, plan and tree, the level
/// schedule, the kernel every product runs on, and how to run a level.
struct Sweeps<'a> {
    factor: &'a HssFactor,
    cds: &'a Cds,
    tree: &'a ClusterTree,
    index: HssIndex<'a>,
    sched: LevelSchedule,
    disp: KernelDispatch,
    parallel: bool,
    grain: usize,
}

impl Sweeps<'_> {
    /// Run `body` on every node of a level, in parallel when asked to.
    fn for_each_node<const K: usize, S>(
        &self,
        carve: LevelCarve<'_, K, S>,
        body: impl Fn(usize, [&mut [f64]; K]) + Send + Sync,
    ) where
        S: Fn(usize) -> [(usize, usize); K] + Sync,
    {
        if self.parallel {
            carve
                .with_min_len(self.grain)
                .for_each(|(p, wins)| body(p, wins));
        } else {
            carve.par_seq().for_each(|(p, wins)| body(p, wins));
        }
    }

    /// What the node at position `p` owns, in elements of a `q`-column
    /// panel: its rows (a leaf's; none for an internal node), its rank slot,
    /// and its children's stacked pair (none for a leaf).
    fn spans(&self, p: usize, q: usize) -> [(usize, usize); 3] {
        let (s, node) = (&self.sched, &self.tree.nodes[self.sched.node(p)]);
        let (rows, kids) = match node.children {
            None => (node.num_points(), 0),
            Some(_) => (0, 2),
        };
        let c = s.children(p);
        let ranks =
            |from: usize, to: usize| (s.rank_at(from) * q, (s.rank_at(to) - s.rank_at(from)) * q);
        [
            (node.start * q, rows * q),
            ranks(p, p + 1),
            ranks(c, c + kids),
        ]
    }

    /// Upward pass, deepest level first.  A leaf solves `y_i = D_i^{-1} b_i`
    /// in its rows; an internal node solves `M_p t_p = [bhat_l; bhat_r]` in
    /// its children's pair; either then writes `bhat = V^T (that solution)`
    /// into its own slot.
    fn up(&self, q: usize, xp: &mut [f64], tb: &mut [f64]) {
        let s = &self.sched;
        for level in (0..s.num_levels()).rev() {
            let range = s.level(level);
            let cut = s.rank_at(range.end) * q;
            let (own, kids) = tb.split_at_mut(cut);
            let span = |p: usize| self.spans(p, q);
            let wins = [Window::at(xp, 0), Window::at(own, 0), Window::at(kids, cut)];
            let carve = LevelCarve {
                range,
                wins,
                span: &span,
            };
            self.for_each_node(carve, |p, [rows, bhat, pair]| {
                let id = s.node(p);
                let solved = if self.tree.nodes[id].is_leaf() {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: `HssFactor::validate` (F3) found a leaf factor at every leaf and a merge factor at every internal node before the sweeps started"
                    )]
                    let lf = self.factor.leaves[id].as_ref().expect("leaf factor");
                    cholesky_solve_in_place(&lf.chol, rows, q);
                    rows
                } else {
                    #[expect(clippy::expect_used, reason = "INVARIANT: F3, as above")]
                    let mf = self.factor.merges[id].as_ref().expect("merge factor");
                    lu_solve_in_place(&mf.lu, pair, q);
                    pair
                };
                let (v, vrows, vcols) = self.cds.v(id);
                if vcols > 0 {
                    self.disp.gemm_tn(v, vrows, vcols, solved, q, bhat);
                }
            });
        }
    }

    /// Downward pass, root first.  `s_i` is the far-field load imposed on
    /// node `i` from outside its subtree (none at the root).  An internal
    /// node corrects `t'_p = t_p - T_p s_p` and hands each child
    /// `s_c = B_{c,sib} t'_sib + R_c s_p`; a leaf finishes
    /// `x_i = y_i - E_i s_i`.
    fn down(&self, q: usize, [xp, cx, tb, ct, sb]: [&mut [f64]; 5]) {
        let s = &self.sched;
        for level in 0..s.num_levels() {
            let range = s.level(level);
            let cut = s.rank_at(range.end) * q;
            let (s_own, s_kids) = sb.split_at_mut(cut);
            let s_own = &*s_own;
            let span = |p: usize| {
                let [rows, _, pair] = self.spans(p, q);
                [rows, rows, pair, pair, pair]
            };
            let wins = [
                Window::at(xp, 0),
                Window::at(cx, 0),
                Window::at(&mut tb[cut..], cut),
                Window::at(&mut ct[cut..], cut),
                Window::at(s_kids, cut),
            ];
            let carve = LevelCarve {
                range,
                wins,
                span: &span,
            };
            self.for_each_node(carve, |p, [x, cx, t, ct, s_kids]| {
                let (id, s_p) = (s.node(p), &s_own[s.rank_at(p) * q..s.rank_at(p + 1) * q]);
                let kp = s_p.len() / q;
                let Some((l, r)) = self.tree.nodes[id].children else {
                    #[expect(clippy::expect_used, reason = "INVARIANT: F3, as in `up`")]
                    let lf = self.factor.leaves[id].as_ref().expect("leaf factor");
                    if kp > 0 {
                        cx.fill(0.0);
                        self.disp.gemm(lf.e.as_slice(), lf.e.rows(), kp, s_p, q, cx);
                        sub_assign(x, cx);
                    }
                    return;
                };
                let (kl, kr) = (self.cds.sranks[l], self.cds.sranks[r]);
                if kp > 0 {
                    #[expect(clippy::expect_used, reason = "INVARIANT: F3, as in `up`")]
                    let mf = self.factor.merges[id].as_ref().expect("merge factor");
                    ct.fill(0.0);
                    self.disp.gemm(mf.t.as_slice(), kl + kr, kp, s_p, q, ct);
                    sub_assign(t, ct);
                }
                let (t_l, t_r) = t.split_at(kl * q);
                let (s_l, s_r) = s_kids.split_at_mut(kl * q);
                let (r_l, r_r) = self.cds.v(id).0.split_at(kl * kp);
                if kl > 0 {
                    if kr > 0 {
                        self.index
                            .apply_coupling(self.disp, l, (kl, kr), t_r, q, s_l);
                    }
                    if kp > 0 {
                        self.disp.gemm(r_l, kl, kp, s_p, q, s_l);
                    }
                }
                if kr > 0 {
                    if kl > 0 {
                        self.index
                            .apply_coupling(self.disp, r, (kr, kl), t_l, q, s_r);
                    }
                    if kp > 0 {
                        self.disp.gemm(r_r, kr, kp, s_p, q, s_r);
                    }
                }
            });
        }
    }
}

impl HssFactor {
    /// Solve `K~ X = B` for a multi-column right-hand side, one panel of
    /// columns per pass over the factor: [`ExecOptions::panel_width`] columns
    /// when set, otherwise up to [`PANEL_MAX`].  Like the executor's, the
    /// width never changes a bit of the result.  Every product runs on the
    /// [`KernelDispatch`] [`ExecOptions::kernel`] resolves.
    ///
    /// `plan` and `tree` must be the ones this factorization was computed
    /// from (the sweeps re-read the bases, transfer and coupling blocks from
    /// the CDS buffers instead of duplicating them in the factor).
    ///
    /// Allocates the solution, five scratch buffers and what validation and
    /// the level schedule need — a count independent of the number of
    /// nodes, columns and panels (`tests/alloc_free.rs`).
    ///
    /// # Errors
    /// [`FactorError::PlanMismatch`] when `b` has the wrong row count, and
    /// whatever [`HssFactor::validate`] reports for `(plan, tree)` — the
    /// sweeps index unchecked on exactly what it establishes.
    pub fn solve_matrix(
        &self,
        plan: &EvalPlan,
        tree: &ClusterTree,
        b: &Matrix,
        opts: &ExecOptions,
    ) -> Result<Matrix, FactorError> {
        let n = tree.perm.len();
        let q = b.cols();
        if b.rows() != n {
            return Err(FactorError::PlanMismatch(format!(
                "right-hand side has {} rows but the tree orders N = {n} points",
                b.rows()
            )));
        }
        let sweeps = Sweeps {
            index: self.validate(plan, tree)?,
            factor: self,
            cds: &plan.cds,
            tree,
            sched: LevelSchedule::new(tree, &plan.cds.sranks),
            disp: KernelDispatch::for_choice(opts.kernel),
            parallel: opts.parallel_tree,
            grain: opts.grain.max(1),
        };
        let mut x = Matrix::zeros(n, q);
        if q == 0 {
            return Ok(x);
        }
        // Every panel streams the whole factor once, so auto takes as many
        // columns per pass as the executor's widest panel; the executor's own
        // auto width is sized for CDS blocks to stay in L2 across panels,
        // which nothing here does.
        let qp = requested_panel_width(opts).unwrap_or(PANEL_MAX).clamp(1, q);
        let ranks = sweeps.sched.total_rank();
        let (rows, slots) = (|| vec![0.0f64; n * qp], || vec![0.0f64; ranks * qp]);
        let (mut xp, mut cx) = (rows(), rows());
        let (mut tb, mut ct, mut sb) = (slots(), slots(), slots());
        for j0 in (0..q).step_by(qp) {
            let j1 = (j0 + qp).min(q);
            let cur = j1 - j0;
            // Permute the panel into tree order so every node's rows are
            // contiguous; the GEMMs accumulate, so slots start from zero.
            let xp = &mut xp[..n * cur];
            for (row, &i) in xp.chunks_exact_mut(cur).zip(&tree.perm) {
                row.copy_from_slice(&b.row(i)[j0..j1]);
            }
            let (tb, sb) = (&mut tb[..ranks * cur], &mut sb[..ranks * cur]);
            tb.fill(0.0);
            sb.fill(0.0);
            sweeps.up(cur, xp, tb);
            let (cx, ct) = (&mut cx[..n * cur], &mut ct[..ranks * cur]);
            sweeps.down(cur, [xp, cx, tb, ct, sb]);
            for (row, &i) in xp.chunks_exact(cur).zip(&tree.perm) {
                x.row_mut(i)[j0..j1].copy_from_slice(row);
            }
        }
        Ok(x)
    }

    /// Solve `K~ x = b` for a single right-hand-side vector.
    ///
    /// # Errors
    /// Same contract as [`solve_matrix`](HssFactor::solve_matrix).
    pub fn solve(
        &self,
        plan: &EvalPlan,
        tree: &ClusterTree,
        b: &[f64],
        opts: &ExecOptions,
    ) -> Result<Vec<f64>, FactorError> {
        let bm = Matrix::from_vec(b.len(), 1, b.to_vec());
        Ok(self.solve_matrix(plan, tree, &bm, opts)?.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use crate::factor::{factor, FactorError};
    use matrox_analysis::{generate_plan, CodegenParams, EvalPlan};
    use matrox_compress::{compress, CompressionParams};
    use matrox_exec::{execute, ExecOptions};
    use matrox_linalg::{relative_error, Matrix};
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};
    use rand::SeedableRng;

    fn fixture(n: usize, structure: Structure, bandwidth: f64) -> (ClusterTree, EvalPlan) {
        use matrox_analysis::{build_blockset, build_cds, build_coarsenset, CoarsenParams};
        let pts = generate(DatasetId::Grid, n, 3);
        let kernel = Kernel::Gaussian { bandwidth };
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
                bacc: 1e-9,
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
        (tree, plan)
    }

    /// Grid spacing for an `n`-point 2-d grid: bandwidths around this value
    /// give a well-conditioned SPD Gaussian kernel matrix.
    fn grid_spacing(n: usize) -> f64 {
        1.0 / (n as f64).sqrt()
    }

    #[test]
    fn solve_inverts_the_compressed_operator() {
        let n = 512;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let f = factor(&plan, &tree, &ExecOptions::full()).expect("factor");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let b = Matrix::random_uniform(n, 4, &mut rng);
        let x = f
            .solve_matrix(&plan, &tree, &b, &ExecOptions::full())
            .expect("solve");
        // Applying the compressed operator to the solution must reproduce b
        // to near machine precision: the sweeps invert K~ exactly.
        let back = execute(&plan, &tree, &x, &ExecOptions::sequential());
        let err = relative_error(&back, &b);
        assert!(err < 1e-10, "K~ x != b (err {err})");
    }

    #[test]
    fn vector_and_matrix_solves_agree() {
        let n = 256;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let f = factor(&plan, &tree, &ExecOptions::sequential()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let xv = f
            .solve(&plan, &tree, &b, &ExecOptions::sequential())
            .unwrap();
        let bm = Matrix::from_vec(n, 1, b.clone());
        let xm = f
            .solve_matrix(&plan, &tree, &bm, &ExecOptions::sequential())
            .unwrap();
        assert_eq!(xv, xm.into_vec(), "q = 1 paths must agree bitwise");
    }

    #[test]
    fn parallel_and_sequential_sweeps_are_bitwise_identical() {
        let n = 512;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let f_seq = factor(&plan, &tree, &ExecOptions::sequential()).unwrap();
        let f_par = factor(&plan, &tree, &ExecOptions::full()).unwrap();
        assert_eq!(f_seq.leaves, f_par.leaves);
        assert_eq!(f_seq.merges, f_par.merges);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let b = Matrix::random_uniform(n, 3, &mut rng);
        let x_seq = f_seq
            .solve_matrix(&plan, &tree, &b, &ExecOptions::sequential())
            .unwrap();
        let x_par = f_par
            .solve_matrix(&plan, &tree, &b, &ExecOptions::full())
            .unwrap();
        assert_eq!(x_seq.as_slice(), x_par.as_slice());
    }

    #[test]
    fn non_hss_structures_are_rejected() {
        let n = 256;
        let (tree, plan) = fixture(n, Structure::Geometric { tau: 0.65 }, 0.5);
        match factor(&plan, &tree, &ExecOptions::full()) {
            Err(FactorError::UnsupportedStructure(_)) => {}
            other => panic!("expected UnsupportedStructure, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_single_leaf_plan_is_rejected_not_mis_solved() {
        // 24 points with leaf size 32: the tree is one node.  The blocking
        // stage stores no blocks at all for a single-node tree (the executor
        // is equally degenerate there), so the factorization must surface a
        // structure error instead of silently returning a wrong solution.
        use matrox_analysis::{build_blockset, build_cds, build_coarsenset, CoarsenParams};
        let pts = generate(DatasetId::Grid, 24, 3);
        let kernel = Kernel::Gaussian { bandwidth: 0.2 };
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        let htree = HTree::build(&tree, Structure::Hss);
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
        let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 2, agg: 2 });
        let cds = build_cds(&tree, &c, &near, &far, &cs);
        let plan = generate_plan(
            near,
            far,
            cs,
            cds,
            tree.height,
            1,
            &CodegenParams::default(),
        );
        match factor(&plan, &tree, &ExecOptions::sequential()) {
            Err(FactorError::UnsupportedStructure(m)) => {
                assert!(m.contains("no stored diagonal block"), "message: {m}");
            }
            other => panic!("expected UnsupportedStructure, got {other:?}"),
        }
    }

    #[test]
    fn factor_reports_timings_and_storage() {
        let n = 256;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let f = factor(&plan, &tree, &ExecOptions::sequential()).unwrap();
        assert!(f.timings.total().as_nanos() > 0);
        assert!(f.storage_bytes() > 0);
        assert_eq!(f.n, n);
        assert_eq!(f.timings.ridge_attempts, 0);
        assert_eq!(f.timings.applied_ridge, 0.0);
    }

    #[test]
    fn mismatched_rhs_and_factor_sizes_are_plan_mismatches() {
        let n = 256;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let f = factor(&plan, &tree, &ExecOptions::sequential()).unwrap();
        let short = Matrix::zeros(n / 2, 1);
        match f.solve_matrix(&plan, &tree, &short, &ExecOptions::sequential()) {
            Err(FactorError::PlanMismatch(m)) => assert!(m.contains("rows"), "message: {m}"),
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
        // A factor whose inventory does not match the tree is rejected
        // before any sweep touches it.
        let mut broken = f.clone();
        let leaf = tree.leaves()[0];
        broken.leaves[leaf] = None;
        let b = Matrix::zeros(n, 1);
        match broken.solve_matrix(&plan, &tree, &b, &ExecOptions::sequential()) {
            Err(FactorError::PlanMismatch(m)) => {
                assert!(m.contains("leaf factor"), "message: {m}");
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }
    }

    #[test]
    fn ridge_shift_regularizes_the_operator() {
        use crate::factor::factor_with_ridge;
        let n = 256;
        let (tree, plan) = fixture(n, Structure::Hss, grid_spacing(n));
        let ridge = 1e-3;
        let f = factor_with_ridge(&plan, &tree, &ExecOptions::sequential(), ridge).unwrap();
        assert_eq!(f.timings.applied_ridge, ridge);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
        let x = f
            .solve(&plan, &tree, &b, &ExecOptions::sequential())
            .unwrap();
        // x solves (K~ + ridge I) x = b, so K~ x = b - ridge * x.
        let xm = Matrix::from_vec(n, 1, x.clone());
        let back = execute(&plan, &tree, &xm, &ExecOptions::sequential());
        let expected = Matrix::from_vec(
            n,
            1,
            b.iter().zip(&x).map(|(bi, xi)| bi - ridge * xi).collect(),
        );
        let err = relative_error(&back, &expected);
        assert!(err < 1e-10, "(K~ + ridge I) x != b (err {err})");
        // Negative and non-finite shifts are rejected.
        assert!(matches!(
            factor_with_ridge(&plan, &tree, &ExecOptions::sequential(), -1.0),
            Err(FactorError::PlanMismatch(_))
        ));
        assert!(matches!(
            factor_with_ridge(&plan, &tree, &ExecOptions::sequential(), f64::NAN),
            Err(FactorError::PlanMismatch(_))
        ));
    }
}
