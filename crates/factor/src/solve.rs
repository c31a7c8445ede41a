//! Forward/backward solve sweeps over an [`HssFactor`].
//!
//! A solve runs on the executor's two drivers, as an evaluation does.  The
//! panel driver ([`panel_loop`]) gathers each panel of right-hand-side
//! columns into tree order, hands it to the two passes and scatters the
//! solution back; the tree-sweep driver ([`tree_sweep`]) runs each pass, up
//! the plan's coarsen levels and then the root, and down from the root
//! through the levels reversed.  Each pass is one body the driver calls per
//! node with its parts of flat scratch sized for one panel, one row per
//! point or per rank unit with the slots at the
//! [`rank_offsets`](matrox_exec::rank_offsets) of the sranks (node-id
//! order):
//!
//! * `xp`, the permuted panel: a leaf's rows hold `b_i`, then
//!   `y_i = D_i^{-1} b_i`, then `x_i = y_i - E_i s_i`;
//! * `tb`, one rank slot per node: node `c` writes `bhat_c = V_c^T y_c` into
//!   its slot, which is its half of its parent's **stacked pair**
//!   `[bhat_l; bhat_r]` (siblings have adjacent ids, `ClusterTree::validate`'s
//!   T7, hence adjacent slots); the parent replaces the pair with
//!   `t_p = M_p^{-1} [bhat_l; bhat_r]`, and the downward pass corrects it in
//!   place to `t'_p = t_p - T_p s_p`;
//! * `sb`, the same slots: `s_c`, the outer skeleton load of node `c`;
//! * `cx` / `ct`, shaped like `xp` / `tb`: where a product is formed before
//!   it replaces (upward) or is subtracted from (downward) its target.
//!
//! The panel driver allocates these once per solve; nothing is allocated
//! per node, per level or per panel.  The tree-sweep driver hands each
//! visit its rows, its slot and its children's pair under the
//! [`ValidPlan`](matrox_exec::ValidPlan) that [`HssIndex`] keeps, so this
//! crate slices nothing itself and has no `unsafe`.
//!
//! Every step is a product with a stored block — `D_i^{-1}`, `M_p^{-1}`,
//! `V`, `E_i`, `T_p`, `R`, `B` — on the one `KernelDispatch` that
//! `ExecOptions::kernel` resolves; there is no substitution.  A product's
//! per-element chain does not depend on the other columns, so for a fixed
//! kernel a solution column is bitwise independent of the pool width, the
//! lowering, the panel width, the number of columns solved with it and its
//! position among them.

use crate::factor::{FactorError, HssFactor, HssIndex};
use matrox_analysis::EvalPlan;
use matrox_exec::{
    panel_loop, requested_panel_width, tree_sweep, ExecOptions, Part, PreparedExec, Rows, PANEL_MAX,
};
use matrox_linalg::Matrix;
use matrox_tree::ClusterTree;

/// `x -= c`, element by element.
fn sub_assign(x: &mut [f64], c: &[f64]) {
    for (a, b) in x.iter_mut().zip(c) {
        *a -= *b;
    }
}

/// What the two passes read: the factor, the block index with the validated
/// plan and tree it keeps, and the executor state prepared from that pair
/// (the rank slots, the kernel every product runs on, how the driver runs a
/// level).
struct Sweeps<'a> {
    factor: &'a HssFactor,
    index: HssIndex<'a>,
    prep: PreparedExec,
}

impl Sweeps<'_> {
    /// Upward pass, children before parents.  Every node replaces the rows
    /// its basis stacks with its factor's `inv` times them (a leaf's `b_i`
    /// becomes `y_i = D_i^{-1} b_i`, an internal node's pair becomes
    /// `t_p = M_p^{-1} [bhat_l; bhat_r]`), forming the product in `cx` /
    /// `ct` first, and writes `bhat = V^T (that solution)` into its slot.
    fn up(&self, q: usize, [xp, cx, tb, ct]: [&mut [f64]; 4]) {
        let valid = &self.index.valid;
        let (cds, tree, disp) = (&valid.plan().cds, valid.tree(), self.prep.dispatch());
        let bufs = [
            (Rows::Points, xp),
            (Rows::Points, cx),
            (Rows::Ranks, tb),
            (Rows::Ranks, ct),
        ];
        tree_sweep(valid, &self.prep, true, q, bufs, |id, _, parts| {
            let [rows, cx, Part { own: bhat, pair }, ct] = parts;
            let (stack, product) = if tree.nodes[id].is_leaf() {
                (rows.own, cx.own)
            } else {
                (pair, ct.pair)
            };
            let inv = &self.factor.nodes[id].inv;
            let m = inv.rows();
            product.fill(0.0);
            disp.gemm(inv.as_slice(), m, m, stack, q, product);
            stack.copy_from_slice(product);
            let (v, vrows, vcols) = cds.v(id);
            if vcols > 0 {
                disp.gemm_tn(v, vrows, vcols, stack, q, bhat);
            }
        });
    }

    /// Downward pass, parents before children.  `s_i` is the far-field load
    /// imposed on node `i` from outside its subtree (none at the root).
    /// Every node subtracts its factor's `map` times `s` from the rows its
    /// basis stacks (a leaf finishes `x_i = y_i - E_i s_i`, an internal
    /// node corrects `t'_p = t_p - T_p s_p`); an internal node then hands
    /// each child `s_c = B_{c,sib} t'_sib + R_c s_p`, the `R` half for both
    /// children at once.
    fn down(&self, q: usize, [xp, cx, tb, ct, sb]: [&mut [f64]; 5]) {
        let valid = &self.index.valid;
        let (cds, tree, disp) = (&valid.plan().cds, valid.tree(), self.prep.dispatch());
        let bufs = [
            (Rows::Points, xp),
            (Rows::Points, cx),
            (Rows::Ranks, tb),
            (Rows::Ranks, ct),
            (Rows::Ranks, sb),
        ];
        tree_sweep(valid, &self.prep, false, q, bufs, |id, _, parts| {
            let [x, cx, t, ct, s] = parts;
            let s_p = &*s.own;
            let kp = s_p.len() / q;
            let (stack, product) = if tree.nodes[id].is_leaf() {
                (x.own, cx.own)
            } else {
                (t.pair, ct.pair)
            };
            if kp > 0 {
                let map = &self.factor.nodes[id].map;
                product.fill(0.0);
                disp.gemm(map.as_slice(), map.rows(), kp, s_p, q, product);
                sub_assign(stack, product);
            }
            let Some((l, r)) = tree.nodes[id].children else {
                return;
            };
            let (kl, kr) = (cds.sranks[l], cds.sranks[r]);
            let s_kids = s.pair;
            if kl > 0 && kr > 0 {
                let (t_l, t_r) = stack.split_at(kl * q);
                let (s_l, s_r) = s_kids.split_at_mut(kl * q);
                self.index.apply_coupling(disp, l, t_r, q, s_l);
                self.index.apply_coupling(disp, r, t_l, q, s_r);
            }
            // `[s_l; s_r] += R s_p`: one product over the pair, which
            // continues each child's chain where its coupling left it.
            if kp > 0 {
                let v = cds.v(id).0;
                disp.gemm(v, kl + kr, kp, s_p, q, s_kids);
            }
        });
    }
}

impl HssFactor {
    /// Solve `K~ X = B` for a multi-column right-hand side, one panel of
    /// columns per pass over the factor: [`ExecOptions::panel_width`] columns
    /// when set, otherwise up to [`PANEL_MAX`].  Like the executor's, the
    /// width never changes a bit of the result.  Every product runs on the
    /// [`KernelDispatch`](matrox_linalg::KernelDispatch)
    /// [`ExecOptions::kernel`] resolves.  The panels run on the executor's
    /// [`panel_loop`], on the executor state prepared from the pair
    /// [`HssFactor::validate`] checked.
    ///
    /// `plan` and `tree` must be the ones this factorization was computed
    /// from (the sweeps re-read the bases, transfer and coupling blocks from
    /// the CDS buffers instead of duplicating them in the factor).
    ///
    /// Allocates the solution, five scratch buffers, the rank offsets and
    /// what validation needs — a count independent of the number of nodes,
    /// columns and panels (`tests/alloc_free.rs`).
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
        if b.rows() != n {
            return Err(FactorError::PlanMismatch(format!(
                "right-hand side has {} rows but the tree orders N = {n} points",
                b.rows()
            )));
        }
        // Every panel streams the whole factor once, so auto takes as many
        // columns per pass as the executor's widest panel; the executor's own
        // auto width is sized for CDS blocks to stay in L2 across panels,
        // which nothing here does.
        let width = requested_panel_width(opts).unwrap_or(PANEL_MAX);
        let index = self.validate(plan, tree)?;
        let prep = PreparedExec::from_valid(&index.valid, &opts.with_panel_width(width));
        let sweeps = Sweeps {
            factor: self,
            index,
            prep,
        };
        use Rows::{Points, Ranks};
        // `[xp, cx, tb, ct, sb]`: the panel is gathered into `xp` and
        // scattered back from it; the products accumulate into `tb` and
        // `sb`, so those start from zero (`cx` / `ct` are zeroed where used).
        let rows = [Points, Points, Ranks, Ranks, Ranks];
        let valid = &sweeps.index.valid;
        let x = panel_loop(valid, &sweeps.prep, b, rows, 0, &[2, 4], 0, |q, bufs| {
            let [xp, cx, tb, ct, sb] = bufs;
            sweeps.up(q, [xp, cx, tb, ct]);
            sweeps.down(q, [xp, cx, tb, ct, sb]);
        });
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
        assert_eq!(f_seq.nodes, f_par.nodes);
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
        broken.nodes[leaf].inv = Matrix::zeros(0, 0);
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
