//! Forward/backward solve sweeps over an [`HssFactor`].

use crate::factor::{FactorError, HssFactor};
use matrox_codegen::EvalPlan;
use matrox_exec::{effective_grain, ExecOptions};
use matrox_linalg::{cholesky_solve_matrix, gemm_slices, gemm_tn_slices, lu_solve_matrix, Matrix};
use matrox_tree::ClusterTree;
use rayon::prelude::*;

impl HssFactor {
    /// Solve `K~ X = B` for a multi-column right-hand side.
    ///
    /// `plan` and `tree` must be the ones this factorization was computed
    /// from (the sweeps re-read the bases, transfer and coupling blocks from
    /// the CDS buffers instead of duplicating them in the factor).
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
        let index = self.validate(plan, tree)?;
        let cds = &plan.cds;
        let n_nodes = tree.num_nodes();
        let parallel = opts.parallel_tree;
        let grain = effective_grain(opts);

        // Permute B into tree order so every node's rows are contiguous.
        let mut b_perm = vec![0.0f64; n * q];
        for p in 0..n {
            b_perm[p * q..(p + 1) * q].copy_from_slice(b.row(tree.perm[p]));
        }

        // ---- upward sweep: leaves -----------------------------------------
        // y_i = D_i^{-1} b_i (kept for the final combine) and
        // bhat_i = V_i^T y_i.
        let mut y: Vec<Matrix> = vec![Matrix::zeros(0, 0); n_nodes];
        let mut bhat: Vec<Matrix> = vec![Matrix::zeros(0, q); n_nodes];
        let leaf_ids = tree.leaves();
        let leaf_up = |&id: &usize| -> (usize, Matrix, Matrix) {
            let node = &tree.nodes[id];
            let ni = node.num_points();
            // INVARIANT: `self.validate` above (F3) found a leaf factor at
            // every leaf id.
            let lf = self.leaves[id]
                .as_ref()
                .expect("every leaf has a leaf factor");
            let bi = Matrix::from_vec(ni, q, b_perm[node.start * q..node.end * q].to_vec());
            let yi = cholesky_solve_matrix(&lf.chol, &bi);
            let (v, vrows, vcols) = cds.v(id);
            let mut bh = Matrix::zeros(vcols, q);
            if vcols > 0 {
                gemm_tn_slices(v, vrows, vcols, yi.as_slice(), q, bh.as_mut_slice());
            }
            (id, yi, bh)
        };
        let leaf_results: Vec<(usize, Matrix, Matrix)> = if parallel {
            leaf_ids
                .par_iter()
                .with_min_len(grain)
                .map(leaf_up)
                .collect()
        } else {
            leaf_ids.iter().map(leaf_up).collect()
        };
        for (id, yi, bh) in leaf_results {
            y[id] = yi;
            bhat[id] = bh;
        }

        // ---- upward sweep: internal levels, deepest first -----------------
        // One small M_p solve per internal node yields the skeleton
        // coefficients t_p of K_p^{-1} b_p; bhat_p follows from the transfer.
        let mut tcoef: Vec<Matrix> = vec![Matrix::zeros(0, q); n_nodes];
        for level in (0..tree.height).rev() {
            let ids: Vec<usize> = tree
                .nodes_at_level(level)
                .into_iter()
                .filter(|&id| !tree.nodes[id].is_leaf())
                .collect();
            if ids.is_empty() {
                continue;
            }
            let up = |&id: &usize| -> (usize, Matrix, Matrix) {
                // INVARIANT: ids are filtered to non-leaves, which are the
                // nodes that carry children.
                let (l, r) = tree.nodes[id].children.unwrap();
                // INVARIANT: `self.validate` above (F3) found a merge factor
                // at every internal id.
                let mf = self.merges[id]
                    .as_ref()
                    .expect("every internal node has a merge factor");
                let rhs = bhat[l].vstack(&bhat[r]);
                let t = lu_solve_matrix(&mf.lu, &rhs);
                let kp = cds.sranks[id];
                let bh = if kp > 0 {
                    let (w, wrows, wcols) = cds.v(id);
                    let mut bh = Matrix::zeros(wcols, q);
                    gemm_tn_slices(w, wrows, wcols, t.as_slice(), q, bh.as_mut_slice());
                    bh
                } else {
                    Matrix::zeros(0, q)
                };
                (id, t, bh)
            };
            let results: Vec<(usize, Matrix, Matrix)> = if parallel {
                ids.par_iter().with_min_len(grain).map(up).collect()
            } else {
                ids.iter().map(up).collect()
            };
            for (id, t, bh) in results {
                tcoef[id] = t;
                bhat[id] = bh;
            }
        }

        // ---- downward sweep: propagate outer skeleton loads ---------------
        // s_i is the far-field load imposed on node i from outside its
        // subtree; the root has none.  t'_p = t_p - T_p s_p corrects the
        // upward coefficients, then each child receives
        // s_c = B_{c,sib} t'_sib + R_c s_p.
        let mut s: Vec<Matrix> = (0..n_nodes)
            .map(|id| Matrix::zeros(cds.sranks[id], q))
            .collect();
        for level in 0..tree.height {
            let ids: Vec<usize> = tree
                .nodes_at_level(level)
                .into_iter()
                .filter(|&id| !tree.nodes[id].is_leaf())
                .collect();
            if ids.is_empty() {
                continue;
            }
            let down = |&id: &usize| -> [(usize, Matrix); 2] {
                // INVARIANT: same as the upward sweep — non-leaf ids carry
                // children and (`self.validate`, F3) a merge factor.
                let (l, r) = tree.nodes[id].children.unwrap();
                let kl = cds.sranks[l];
                let kr = cds.sranks[r];
                let m = kl + kr;
                let kp = cds.sranks[id];
                // INVARIANT: internal ids carry merge factors (F3, above).
                let mf = self.merges[id].as_ref().unwrap();
                let mut t = tcoef[id].clone();
                if kp > 0 {
                    // t -= T_p * s_p.
                    let mut corr = Matrix::zeros(m, q);
                    gemm_slices(
                        mf.t.as_slice(),
                        m,
                        kp,
                        s[id].as_slice(),
                        q,
                        corr.as_mut_slice(),
                    );
                    t.sub_assign(&corr);
                }
                let t_l = &t.as_slice()[0..kl * q];
                let t_r = &t.as_slice()[kl * q..];
                let rgen = if kp > 0 { cds.u(id).0 } else { &[][..] };
                let mut s_l = Matrix::zeros(kl, q);
                if kl > 0 {
                    if kr > 0 {
                        gemm_slices(index.coupling[l], kl, kr, t_r, q, s_l.as_mut_slice());
                    }
                    if kp > 0 {
                        gemm_slices(
                            &rgen[0..kl * kp],
                            kl,
                            kp,
                            s[id].as_slice(),
                            q,
                            s_l.as_mut_slice(),
                        );
                    }
                }
                let mut s_r = Matrix::zeros(kr, q);
                if kr > 0 {
                    if kl > 0 {
                        gemm_slices(index.coupling[r], kr, kl, t_l, q, s_r.as_mut_slice());
                    }
                    if kp > 0 {
                        gemm_slices(
                            &rgen[kl * kp..],
                            kr,
                            kp,
                            s[id].as_slice(),
                            q,
                            s_r.as_mut_slice(),
                        );
                    }
                }
                [(l, s_l), (r, s_r)]
            };
            let results: Vec<[(usize, Matrix); 2]> = if parallel {
                ids.par_iter().with_min_len(grain).map(down).collect()
            } else {
                ids.iter().map(down).collect()
            };
            for pushes in results {
                for (child, sc) in pushes {
                    s[child] = sc;
                }
            }
        }

        // ---- leaf combine: x_i = y_i - E_i s_i ----------------------------
        let combine = |&id: &usize| -> (usize, Matrix) {
            // INVARIANT: leaf ids all carry a leaf factor (`self.validate`
            // above, F3).
            let lf = self.leaves[id].as_ref().unwrap();
            let mut xi = y[id].clone();
            let k = lf.e.cols();
            if k > 0 {
                let ni = lf.e.rows();
                let mut corr = Matrix::zeros(ni, q);
                gemm_slices(
                    lf.e.as_slice(),
                    ni,
                    k,
                    s[id].as_slice(),
                    q,
                    corr.as_mut_slice(),
                );
                xi.sub_assign(&corr);
            }
            (id, xi)
        };
        let finals: Vec<(usize, Matrix)> = if parallel {
            leaf_ids
                .par_iter()
                .with_min_len(grain)
                .map(combine)
                .collect()
        } else {
            leaf_ids.iter().map(combine).collect()
        };
        let mut x_perm = vec![0.0f64; n * q];
        for (id, xi) in finals {
            let node = &tree.nodes[id];
            x_perm[node.start * q..node.end * q].copy_from_slice(xi.as_slice());
        }

        // Un-permute the solution back to the input ordering.
        let mut x = Matrix::zeros(n, q);
        for p in 0..n {
            x.row_mut(tree.perm[p])
                .copy_from_slice(&x_perm[p * q..(p + 1) * q]);
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
    use matrox_codegen::{generate_plan, CodegenParams, EvalPlan};
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
