//! The user-facing [`HMatrix`] handle and its evaluation entry points.

use crate::error::{guard, MatroxError};
use crate::failpoint;
use crate::timings::InspectorTimings;
use matrox_analysis::EvalPlan;
use matrox_exec::{execute, ExecOptions};
use matrox_factor::{factor_with_ridge, FactorError, HssFactor};
use matrox_linalg::{frobenius_norm, relative_error, KernelChoice, Matrix};
use matrox_points::{dense_kernel_matmul, Kernel, PointSet};
use matrox_tree::{ClusterTree, Structure};

/// Maximum number of ridge-escalation retries after a Cholesky breakdown.
const MAX_RIDGE_RETRIES: u32 = 3;

/// Growth factor of the diagonal shift between retries.
const RIDGE_GROWTH: f64 = 10.0;

/// A compressed kernel matrix ready for evaluation.
///
/// Produced by the inspector ([`crate::inspector()`] / [`crate::inspector_p2`]);
/// consumed by [`matmul`](HMatrix::matmul), which runs the MatRox executor
/// over the generated plan and CDS storage.
#[derive(Debug, Clone)]
pub struct HMatrix {
    /// The cluster tree the matrix was compressed over.
    pub tree: ClusterTree,
    /// The generated evaluation plan (lowering decisions + structure sets +
    /// CDS payload).
    pub plan: EvalPlan,
    /// The structure / admissibility mode used for compression.
    pub structure: Structure,
    /// The kernel the submatrices were evaluated with.
    pub kernel: Kernel,
    /// Block accuracy the matrix was compressed to.
    pub bacc: f64,
    /// Inspector timing breakdown (compression, structure analysis, codegen).
    pub timings: InspectorTimings,
    /// RHS panel width requested at inspection time
    /// ([`MatRoxParams::panel_width`](crate::MatRoxParams)); `0` = auto.
    /// A runtime tuning knob like `timings` — not serialized; reloaded
    /// matrices fall back to auto.
    pub panel_width: usize,
    /// GEMM kernel selection requested at inspection time
    /// ([`MatRoxParams::kernel`](crate::MatRoxParams)), carried by
    /// [`HMatrix::default_exec_options`] to every product derived from this
    /// matrix: evaluation ([`HMatrix::matmul`], [`HMatrix::matvec`],
    /// sessions), [`HMatrix::factorize`] and the solves of its factor.  A
    /// runtime knob like `panel_width` — machine-specific, so not
    /// serialized; reloaded matrices fall back to [`KernelChoice::Auto`].
    pub gemm_kernel: KernelChoice,
}

impl HMatrix {
    /// Problem size `N` (number of points / matrix dimension).
    pub fn dim(&self) -> usize {
        self.tree.perm.len()
    }

    /// Evaluate `Y = K~ * W` with the generated (optimized) code.
    ///
    /// This is the one-shot path: it derives the executor's per-plan state
    /// and runs the same panel-blocked evaluation an
    /// [`EvalSession`](crate::EvalSession) serves — there is no separate
    /// executor implementation.  Repeated evaluations should build a
    /// session once so the state derivation is not paid per call.
    ///
    /// # Errors
    /// [`MatroxError::InvalidInput`] when `W` has the wrong row count or
    /// contains NaN/Inf entries, [`MatroxError::PoolPanic`] when the
    /// evaluation panicked (contained), [`MatroxError::NumericalBreakdown`]
    /// when the output is not finite.
    pub fn matmul(&self, w: &Matrix) -> Result<Matrix, MatroxError> {
        self.matmul_with(w, &self.default_exec_options())
    }

    /// The executor options every default evaluation path derives from this
    /// matrix: the plan's lowering decisions plus the inspection-time panel
    /// width and kernel selection.
    pub fn default_exec_options(&self) -> ExecOptions {
        ExecOptions::from_plan(&self.plan)
            .with_panel_width(self.panel_width)
            .with_kernel(self.gemm_kernel)
    }

    /// Evaluate with explicit executor options (used by the ablation and
    /// scalability harnesses).
    ///
    /// # Errors
    /// Same contract as [`matmul`](HMatrix::matmul).
    pub fn matmul_with(&self, w: &Matrix, opts: &ExecOptions) -> Result<Matrix, MatroxError> {
        guard(w, self.dim(), "right-hand side W", || {
            Ok(execute(&self.plan, &self.tree, w, opts))
        })
    }

    /// Evaluate a matrix-vector product (`Q = 1`); a thin wrapper over the
    /// same session path as [`matmul`](HMatrix::matmul).
    ///
    /// # Errors
    /// Same contract as [`matmul`](HMatrix::matmul).
    pub fn matvec(&self, w: &[f64]) -> Result<Vec<f64>, MatroxError> {
        let wm = Matrix::from_vec(w.len(), 1, w.to_vec());
        Ok(self.matmul(&wm)?.into_vec())
    }

    /// Promote this matrix into a batched evaluation session (plan once /
    /// evaluate many); see [`EvalSession`](crate::EvalSession).
    pub fn into_session(self) -> crate::EvalSession {
        crate::EvalSession::from_hmatrix(self)
    }

    /// Overall accuracy `eps_f = ||K~W - KW||_F / ||KW||_F` against the exact
    /// kernel product (Figure 9's measure).  `O(N^2 Q)` — intended for the
    /// scaled-down experiment sizes.
    ///
    /// # Errors
    /// Same contract as [`matmul`](HMatrix::matmul).
    pub fn overall_accuracy(&self, points: &PointSet, w: &Matrix) -> Result<f64, MatroxError> {
        let approx = self.matmul(w)?;
        let exact = dense_kernel_matmul(points, &self.kernel, w);
        Ok(relative_error(&approx, &exact))
    }

    /// Flops of one evaluation with `q` columns (for GFLOP/s reporting).
    pub fn flops(&self, q: usize) -> u64 {
        self.plan.flops(q)
    }

    /// Compression ratio versus the dense `N x N` matrix.
    pub fn compression_ratio(&self) -> f64 {
        let dense = (self.dim() * self.dim() * std::mem::size_of::<f64>()) as f64;
        dense / self.plan.storage_bytes().max(1) as f64
    }

    /// The starting diagonal shift of the breakdown-recovery loop, scaled
    /// to the magnitude of the stored leaf diagonal blocks so the first
    /// retry perturbs the operator by roughly one part in `1e8`.
    fn initial_ridge(&self) -> f64 {
        let scale = self
            .plan
            .cds
            .d_values
            .iter()
            .fold(0.0f64, |a, &x| a.max(x.abs()));
        if scale > 0.0 {
            scale * 1e-8
        } else {
            1e-8
        }
    }

    /// Compute the ULV-style factorization of this (HSS-compressed, SPD)
    /// matrix, enabling direct solves of `K~ x = b`.
    ///
    /// A Cholesky breakdown (a leaf diagonal block that is numerically not
    /// positive definite) does not fail the call immediately: the
    /// factorization is retried with an escalating diagonal shift
    /// `K~ + lambda I` (`lambda` starting near the operator's magnitude
    /// times `1e-8` and growing tenfold, at most three retries).  The attempt count and the shift that succeeded are
    /// recorded in the returned factor's
    /// [`timings`](matrox_factor::FactorTimings) — a nonzero
    /// `applied_ridge` means solves invert the shifted operator.
    ///
    /// # Errors
    /// [`MatroxError::PlanMismatch`] for non-HSS structures and
    /// [`MatroxError::NumericalBreakdown`] when the matrix still breaks
    /// down after the final escalation.
    pub fn factorize(&self) -> Result<FactoredHMatrix, MatroxError> {
        self.factorize_with(&self.default_exec_options())
    }

    /// [`factorize`](HMatrix::factorize) with explicit executor options:
    /// parallel sweeps or not (results are bitwise identical either way)
    /// and the kernel every product runs on (`opts.kernel`; scalar and SIMD
    /// factors differ in the last bits, the two SIMD arms do not).
    pub fn factorize_with(&self, opts: &ExecOptions) -> Result<FactoredHMatrix, MatroxError> {
        let mut ridge = 0.0f64;
        let mut attempts = 0u32;
        loop {
            // The `chol-breakdown` failpoint stands in for a barely-non-SPD
            // matrix: the attempt it fires on reports a breakdown without
            // running, so the escalation path below is exercised for real.
            let result = if failpoint::should_fire(failpoint::names::CHOL_BREAKDOWN) {
                Err(FactorError::NotPositiveDefinite {
                    node: 0,
                    pivot: 0,
                    value: -1.0,
                })
            } else {
                factor_with_ridge(&self.plan, &self.tree, opts, ridge)
            };
            match result {
                Ok(mut factor) => {
                    factor.timings.ridge_attempts = attempts;
                    factor.timings.applied_ridge = ridge;
                    return Ok(FactoredHMatrix {
                        hmatrix: self.clone(),
                        factor,
                    });
                }
                Err(e @ FactorError::NotPositiveDefinite { .. }) => {
                    if attempts >= MAX_RIDGE_RETRIES {
                        return Err(MatroxError::NumericalBreakdown(format!(
                            "{e}; still not positive definite after {attempts} ridge \
                             escalations (final shift {ridge:e})"
                        )));
                    }
                    attempts += 1;
                    ridge = if ridge == 0.0 {
                        self.initial_ridge()
                    } else {
                        ridge * RIDGE_GROWTH
                    };
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Solve `K~ x = b` for one right-hand-side vector.
    ///
    /// Convenience entry that factors on every call; factor once with
    /// [`factorize`](HMatrix::factorize) when solving repeatedly.
    ///
    /// # Errors
    /// The union of the [`factorize`](HMatrix::factorize) and
    /// [`FactoredHMatrix::solve`] contracts.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatroxError> {
        self.factorize()?.solve(b)
    }

    /// Solve `K~ X = B` for a multi-column right-hand side (see
    /// [`solve`](HMatrix::solve) for the factorization caveat).
    ///
    /// # Errors
    /// Same contract as [`solve`](HMatrix::solve).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, MatroxError> {
        self.factorize()?.solve_matrix(b)
    }
}

/// An [`HMatrix`] together with its ULV-style factorization: the handle the
/// solver scenarios (regression, kernel ridge, preconditioning) hold on to.
///
/// Produced by [`HMatrix::factorize`]; solved with
/// [`solve`](FactoredHMatrix::solve) / [`solve_matrix`](FactoredHMatrix::solve_matrix);
/// stored and reloaded with [`crate::io::save_factored`] /
/// [`crate::io::load_factored`].
#[derive(Debug, Clone)]
pub struct FactoredHMatrix {
    /// The compressed matrix (tree + plan + CDS buffers the sweeps read).
    pub hmatrix: HMatrix,
    /// The factorization (leaf Cholesky factors + sibling merge systems).
    pub factor: HssFactor,
}

impl FactoredHMatrix {
    /// Problem size `N`.
    pub fn dim(&self) -> usize {
        self.hmatrix.dim()
    }

    /// Solve `K~ x = b` for one right-hand-side vector.
    ///
    /// # Errors
    /// [`MatroxError::InvalidInput`] when `b` has the wrong length or
    /// contains NaN/Inf, [`MatroxError::PlanMismatch`] when the factor does
    /// not belong to this matrix, [`MatroxError::PoolPanic`] when the sweeps
    /// panicked (contained), [`MatroxError::NumericalBreakdown`] when the
    /// solution is not finite.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatroxError> {
        let bm = Matrix::from_vec(b.len(), 1, b.to_vec());
        Ok(self.solve_matrix(&bm)?.into_vec())
    }

    /// Solve `K~ X = B` for a multi-column right-hand side.
    ///
    /// # Errors
    /// Same contract as [`solve`](FactoredHMatrix::solve).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, MatroxError> {
        self.solve_matrix_with(b, &self.hmatrix.default_exec_options())
    }

    /// [`solve_matrix`](FactoredHMatrix::solve_matrix) with explicit
    /// executor options (used by the ablation and determinism harnesses).
    ///
    /// # Errors
    /// Same contract as [`solve`](FactoredHMatrix::solve).
    pub fn solve_matrix_with(&self, b: &Matrix, opts: &ExecOptions) -> Result<Matrix, MatroxError> {
        guard(b, self.dim(), "right-hand side B", || {
            Ok(self
                .factor
                .solve_matrix(&self.hmatrix.plan, &self.hmatrix.tree, b, opts)?)
        })
    }

    /// Relative residual `||K x - b||_F / ||b||_F` of a solution against the
    /// *exact* kernel matrix (`O(N^2 Q)`, like
    /// [`HMatrix::overall_accuracy`]): the solver's end-to-end accuracy
    /// measure.
    pub fn relative_residual(&self, points: &PointSet, x: &Matrix, b: &Matrix) -> f64 {
        let mut r = dense_kernel_matmul(points, &self.hmatrix.kernel, x);
        r.sub_assign(b);
        let denom = frobenius_norm(b);
        if denom == 0.0 {
            frobenius_norm(&r)
        } else {
            frobenius_norm(&r) / denom
        }
    }
}
