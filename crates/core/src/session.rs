//! Plan-once / evaluate-many: the batched evaluation session.
//!
//! The inspector is MatRox's expensive step; its output (the tree, the
//! compression, the CDS buffers and the blocking plan) is a *plan* that
//! every evaluation `Y = K~ W` reuses.  An [`EvalSession`] makes that
//! economics explicit: it runs the inspector once, derives the executor's
//! per-plan state ([`matrox_exec::PreparedExec`]: resolved panel width,
//! leaf ordering, blockset group targets) once, and then serves any number
//! of [`evaluate`](EvalSession::evaluate) calls without re-walking the
//! plan.
//!
//! Every evaluation is processed in RHS *panels* of
//! [`panel_width`](EvalSession::panel_width) columns so a block's submatrix
//! plus its input/output panels stay L2-resident; the result is bitwise
//! identical to evaluating column by column.  The session keeps running
//! [`SessionStats`] so harnesses can report the amortized per-query cost
//! (Figure 4's measure) without instrumenting their own loops.

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: SessionStats counters are monotonic AtomicU64s (Relaxed: they order nothing, they only count) so concurrent `evaluate` calls on a shared session never contend on a lock in the hot path"
)]

use crate::config::MatRoxParams;
use crate::error::{guard, MatroxError};
use crate::failpoint;
use crate::hmatrix::{FactoredHMatrix, HMatrix};
use crate::inspector::inspector;
use crate::timings::SessionStats;
use matrox_exec::{execute_prepared, ExecOptions, PreparedExec};
use matrox_linalg::Matrix;
use matrox_points::{Kernel, PointSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A compressed kernel matrix prepared for repeated batched evaluation.
///
/// Build one with [`EvalSession::build`] (runs the inspector) or wrap an
/// existing [`HMatrix`] with [`EvalSession::from_hmatrix`]; then call
/// [`evaluate`](EvalSession::evaluate) as often as needed.  `evaluate`
/// takes `&self`, so a session can be shared across threads (statistics are
/// kept in atomics).
#[derive(Debug)]
pub struct EvalSession {
    hmatrix: HMatrix,
    prep: PreparedExec,
    inspect_seconds: f64,
    evaluations: AtomicU64,
    queries: AtomicU64,
    eval_nanos: AtomicU64,
    invalid_inputs: AtomicU64,
    contained_panics: AtomicU64,
    ridge_attempts: AtomicU64,
}

// The serving layer (`matrox-serve`) hands one session per model to a
// reactor thread while callers hold `Arc` clones for stats snapshots, so the
// `&self` evaluate contract above must come with thread-shareability.  Hold
// that guarantee at compile time: if a future field loses `Send + Sync`
// (e.g. an `Rc` or a raw pointer without the wrapper types' auto traits),
// this fails to build rather than failing the serving crate downstream.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<EvalSession>();
};

impl Clone for EvalSession {
    fn clone(&self) -> Self {
        let stats = self.stats();
        EvalSession {
            hmatrix: self.hmatrix.clone(),
            prep: self.prep.clone(),
            inspect_seconds: self.inspect_seconds,
            evaluations: AtomicU64::new(stats.evaluations),
            queries: AtomicU64::new(stats.queries),
            eval_nanos: AtomicU64::new(self.eval_nanos.load(Ordering::Relaxed)),
            invalid_inputs: AtomicU64::new(stats.invalid_inputs),
            contained_panics: AtomicU64::new(stats.contained_panics),
            ridge_attempts: AtomicU64::new(u64::from(stats.ridge_attempts)),
        }
    }
}

impl EvalSession {
    /// Run the inspector once and prepare the executor for many evaluations.
    ///
    /// # Errors
    ///
    /// [`MatroxError::InvalidInput`] when the points, kernel parameters or
    /// accuracy request fail the inspector's input screen (empty point set,
    /// NaN/Inf coordinates, non-positive bandwidth or accuracy, ...).
    pub fn build(
        points: &PointSet,
        kernel: &Kernel,
        params: &MatRoxParams,
    ) -> Result<Self, MatroxError> {
        let t0 = Instant::now();
        let h = inspector(points, kernel, params)?;
        let inspect_seconds = t0.elapsed().as_secs_f64();
        let opts = h.default_exec_options();
        Ok(Self::assemble(h, opts, inspect_seconds))
    }

    /// Wrap an already-inspected matrix (the inspector cost is taken from
    /// its recorded timings, the panel width and kernel selection from its
    /// inspection-time request).
    pub fn from_hmatrix(hmatrix: HMatrix) -> Self {
        let opts = hmatrix.default_exec_options();
        let inspect = hmatrix.timings.total().as_secs_f64();
        Self::assemble(hmatrix, opts, inspect)
    }

    fn assemble(hmatrix: HMatrix, opts: ExecOptions, inspect_seconds: f64) -> Self {
        let prep = PreparedExec::new(&hmatrix.plan, &hmatrix.tree, &opts);
        EvalSession {
            hmatrix,
            prep,
            inspect_seconds,
            evaluations: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            eval_nanos: AtomicU64::new(0),
            invalid_inputs: AtomicU64::new(0),
            contained_panics: AtomicU64::new(0),
            ridge_attempts: AtomicU64::new(0),
        }
    }

    /// Evaluate `Y = K~ W` for an `N x Q` right-hand-side matrix, panel by
    /// panel, over the prepared plan.
    ///
    /// The call runs through the crate's one evaluation boundary: the
    /// right-hand side is screened up front (shape, NaN/Inf), and an
    /// internal invariant panic — including one raised on a pool worker —
    /// is contained and surfaced as [`MatroxError::PoolPanic`] instead of
    /// unwinding into the caller.  A rejected or contained call leaves the
    /// session fully usable; the next clean call is bitwise identical to
    /// what it would have been without the failure.
    ///
    /// # Errors
    ///
    /// * [`MatroxError::InvalidInput`] — `w` has the wrong row count or
    ///   contains NaN/Inf entries (counted in
    ///   [`SessionStats::invalid_inputs`]).
    /// * [`MatroxError::PoolPanic`] — a panic escaped an evaluation job and
    ///   was contained (counted in [`SessionStats::contained_panics`]).
    /// * [`MatroxError::NumericalBreakdown`] — the output failed the
    ///   finiteness screen.
    pub fn evaluate(&self, w: &Matrix) -> Result<Matrix, MatroxError> {
        let t0 = Instant::now();
        // The executor only reads `&self` state, so re-entering it after a
        // contained panic observes the same prepared plan every time.
        let result = guard(w, self.dim(), "right-hand side", || {
            if failpoint::should_fire(failpoint::names::EVAL_PANIC) {
                panic!("injected failpoint `{}`", failpoint::names::EVAL_PANIC);
            }
            let mut y = execute_prepared(&self.hmatrix.plan, &self.hmatrix.tree, &self.prep, w);
            if failpoint::should_fire(failpoint::names::EVAL_POISON) {
                y.set(0, 0, f64::NAN);
            }
            Ok(y)
        });
        match &result {
            Ok(_) => {
                self.eval_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.evaluations.fetch_add(1, Ordering::Relaxed);
                self.queries.fetch_add(w.cols() as u64, Ordering::Relaxed);
            }
            Err(MatroxError::InvalidInput(_)) => {
                self.invalid_inputs.fetch_add(1, Ordering::Relaxed);
            }
            Err(MatroxError::PoolPanic(_)) => {
                self.contained_panics.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        result
    }

    /// Evaluate a single query (`Q = 1`) given as a vector.
    ///
    /// # Errors
    ///
    /// Same contract as [`evaluate`](EvalSession::evaluate).
    pub fn evaluate_vec(&self, w: &[f64]) -> Result<Vec<f64>, MatroxError> {
        let wm = Matrix::from_vec(w.len(), 1, w.to_vec());
        Ok(self.evaluate(&wm)?.into_vec())
    }

    /// ULV-factorize the session's matrix for direct solves, recording the
    /// ridge-escalation effort in the session's [`SessionStats`].
    ///
    /// # Errors
    ///
    /// Same contract as [`HMatrix::factorize`]: `PlanMismatch` for non-HSS
    /// structures, `NumericalBreakdown` when the escalation budget runs out.
    pub fn factorize(&self) -> Result<FactoredHMatrix, MatroxError> {
        let factored = self.hmatrix.factorize()?;
        self.ridge_attempts.store(
            u64::from(factored.factor.timings.ridge_attempts),
            Ordering::Relaxed,
        );
        Ok(factored)
    }

    /// Problem size `N`.
    pub fn dim(&self) -> usize {
        self.hmatrix.dim()
    }

    /// The resolved RHS panel width the executor phases operate on.
    pub fn panel_width(&self) -> usize {
        self.prep.panel_width
    }

    /// The executor options the session was prepared with.
    pub fn options(&self) -> &ExecOptions {
        &self.prep.opts
    }

    /// The underlying compressed matrix.
    pub fn hmatrix(&self) -> &HMatrix {
        &self.hmatrix
    }

    /// Snapshot of the session's cost accounting (inspection, accumulated
    /// evaluation time, evaluations and queries served).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            inspect_seconds: self.inspect_seconds,
            eval_seconds: self.eval_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            evaluations: self.evaluations.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            invalid_inputs: self.invalid_inputs.load(Ordering::Relaxed),
            contained_panics: self.contained_panics.load(Ordering::Relaxed),
            ridge_attempts: self.ridge_attempts.load(Ordering::Relaxed) as u32,
            inspector: self.hmatrix.timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};
    use rand::SeedableRng;

    fn session(n: usize) -> (PointSet, EvalSession) {
        let pts = generate(DatasetId::Grid, n, 11);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
        let s = EvalSession::build(&pts, &kernel, &params).expect("session build");
        (pts, s)
    }

    #[test]
    fn session_matches_direct_matmul_bitwise() {
        let (_, s) = session(512);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let w = Matrix::random_uniform(512, 9, &mut rng);
        let direct = s.hmatrix().matmul(&w).expect("matmul");
        let via_session = s.evaluate(&w).expect("evaluate");
        assert_eq!(direct.shape(), via_session.shape());
        assert!(direct
            .as_slice()
            .iter()
            .zip(via_session.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn stats_accumulate_and_amortize() {
        let (_, s) = session(256);
        assert_eq!(s.stats().evaluations, 0);
        assert!(s.stats().inspect_seconds > 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let w = Matrix::random_uniform(256, 4, &mut rng);
        for _ in 0..3 {
            let _ = s.evaluate(&w).expect("evaluate");
        }
        let stats = s.stats();
        assert_eq!(stats.evaluations, 3);
        assert_eq!(stats.queries, 12);
        assert!(stats.eval_seconds > 0.0);
        assert!(stats.amortized_per_query() < stats.inspect_seconds + stats.eval_seconds);
    }

    #[test]
    fn rejected_inputs_are_counted_and_leave_the_session_clean() {
        let (_, s) = session(256);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let w = Matrix::random_uniform(256, 3, &mut rng);
        let baseline = s.evaluate(&w).expect("clean evaluate");

        // Wrong shape and poisoned values are rejected up front.
        let short = Matrix::filled(128, 3, 1.0);
        assert!(matches!(
            s.evaluate(&short),
            Err(MatroxError::InvalidInput(_))
        ));
        let mut poisoned = w.clone();
        poisoned.set(5, 1, f64::NAN);
        assert!(matches!(
            s.evaluate(&poisoned),
            Err(MatroxError::InvalidInput(_))
        ));
        let mut infinite = w.clone();
        infinite.set(0, 0, f64::INFINITY);
        assert!(matches!(
            s.evaluate(&infinite),
            Err(MatroxError::InvalidInput(_))
        ));
        assert!(matches!(
            s.evaluate_vec(&[f64::NAN; 256]),
            Err(MatroxError::InvalidInput(_))
        ));

        // Rejections are counted but do not count as served evaluations,
        // and the next clean call is bitwise identical to the first.
        let stats = s.stats();
        assert_eq!(stats.invalid_inputs, 4);
        assert_eq!(stats.contained_panics, 0);
        assert_eq!(stats.evaluations, 1);
        let again = s.evaluate(&w).expect("evaluate after rejections");
        assert!(baseline
            .as_slice()
            .iter()
            .zip(again.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn kernel_choice_reaches_the_prepared_executor() {
        use matrox_linalg::KernelChoice;
        let pts = generate(DatasetId::Grid, 256, 11);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let base = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
        let s_scalar = EvalSession::build(&pts, &kernel, &base.with_kernel(KernelChoice::Scalar))
            .expect("session build");
        assert_eq!(s_scalar.options().kernel, KernelChoice::Scalar);
        assert_eq!(s_scalar.prep.dispatch().name(), "scalar");
        let s_auto = EvalSession::build(&pts, &kernel, &base).expect("session build");
        assert_eq!(s_auto.options().kernel, KernelChoice::Auto);
        // Different kernels may differ in rounding but must agree tightly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let w = Matrix::random_uniform(256, 5, &mut rng);
        let a = s_scalar.evaluate(&w).expect("evaluate");
        let b = s_auto.evaluate(&w).expect("evaluate");
        assert!(matrox_linalg::relative_error(&a, &b) < 1e-12);
    }

    #[test]
    fn panel_width_is_resolved_and_overridable() {
        let (pts, s) = session(256);
        assert!(s.panel_width() >= 8, "auto width {}", s.panel_width());
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::h2b()
            .with_bacc(1e-5)
            .with_leaf_size(32)
            .with_panel_width(16);
        let s16 = EvalSession::build(&pts, &kernel, &params).expect("session build");
        assert_eq!(s16.panel_width(), 16);
        // The requested width also survives the inspector -> HMatrix ->
        // session route (it is carried on the HMatrix, not just the params).
        let via_hmatrix = crate::inspector(&pts, &kernel, &params)
            .expect("inspector")
            .into_session();
        assert_eq!(via_hmatrix.panel_width(), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let w = Matrix::random_uniform(256, 33, &mut rng);
        let a = s.evaluate(&w).expect("evaluate");
        let b = s16.evaluate(&w).expect("evaluate");
        assert!(a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
