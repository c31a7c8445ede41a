//! # matrox-core
//!
//! The user-facing MatRox API: the inspector (modular compression +
//! structure analysis + code generation), the executor entry points on the
//! resulting [`HMatrix`], the inspector-p1/p2 split that enables reuse when
//! the kernel function or the accuracy change (Section 5 of the paper), and
//! HMatrix serialization (the `hmat.cds` artifact of Figure 2).
//!
//! ## Quick start
//!
//! ```
//! use matrox_core::{inspector, MatRoxParams};
//! use matrox_points::{generate, DatasetId, Kernel};
//! use matrox_linalg::Matrix;
//!
//! // Points, kernel, accuracy -> inspector -> HMatrix.
//! let points = generate(DatasetId::Grid, 512, 0);
//! let kernel = Kernel::Gaussian { bandwidth: 5.0 };
//! let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(64);
//! let h = inspector(&points, &kernel, &params).expect("clean inputs");
//!
//! // Executor: multiply the compressed matrix with a dense matrix W.
//! let w = Matrix::filled(points.len(), 8, 1.0);
//! let y = h.matmul(&w).expect("finite RHS");
//! assert_eq!(y.shape(), (points.len(), 8));
//! ```
//!
//! ## Batched evaluation (plan once, evaluate many)
//!
//! Repeated evaluations should go through an [`EvalSession`]: the inspector
//! runs once, the executor's per-plan state (panel width, blocking-plan
//! targets) is derived once, and every `evaluate(W)` processes the RHS in
//! cache-sized column panels.  The session tracks the amortized per-query
//! cost:
//!
//! ```
//! use matrox_core::{EvalSession, MatRoxParams};
//! use matrox_points::{generate, DatasetId, Kernel};
//! use matrox_linalg::Matrix;
//!
//! let points = generate(DatasetId::Grid, 512, 0);
//! let kernel = Kernel::Gaussian { bandwidth: 5.0 };
//! let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(64);
//! let session = EvalSession::build(&points, &kernel, &params).expect("clean inputs");
//! for batch in 0..3 {
//!     let w = Matrix::filled(points.len(), 16, 1.0 + batch as f64);
//!     let y = session.evaluate(&w).expect("finite RHS"); // panel-blocked, no plan re-walk
//!     assert_eq!(y.shape(), (points.len(), 16));
//! }
//! assert_eq!(session.stats().queries, 48);
//! assert!(session.stats().amortized_per_query().is_finite());
//! ```
//!
//! ## Solving
//!
//! An SPD kernel matrix compressed with the HSS structure can be
//! ULV-factored and solved directly (`K~ x = b`); the `GaussianRidge`
//! kernel is the standard `K + lambda I` kernel-ridge workload:
//!
//! ```
//! use matrox_core::{inspector, MatRoxParams};
//! use matrox_points::{generate, DatasetId, Kernel};
//!
//! let points = generate(DatasetId::Grid, 256, 0);
//! let kernel = Kernel::GaussianRidge { bandwidth: 0.125, ridge: 8.0 };
//! let params = MatRoxParams::hss().with_bacc(1e-6).with_leaf_size(32);
//! let factored = inspector(&points, &kernel, &params)
//!     .expect("clean inputs")
//!     .factorize()
//!     .expect("HSS + SPD: factorization succeeds");
//! let b = vec![1.0; points.len()];
//! let x = factored.solve(&b).expect("finite RHS");
//! assert_eq!(x.len(), points.len());
//! ```
//!
//! ## Error handling
//!
//! Every fallible entry point returns [`MatroxError`], the crate-wide
//! taxonomy: `InvalidInput` (caller-fixable: NaN/Inf data, shape
//! mismatches, bad parameters), `PlanMismatch` (a factor or plan applied
//! to the wrong operator), `NumericalBreakdown` (the math failed: Cholesky
//! breakdown past the ridge-escalation budget, non-finite output),
//! `Format`/`Io` (untrusted model bytes rejected by the hardened readers),
//! and `PoolPanic` (an internal invariant panic contained at the
//! [`EvalSession`] boundary).  Failures never poison the session: the next
//! clean call returns bitwise-identical results.  DESIGN.md documents the
//! recovery semantics; the `MATROX_FAILPOINT` knob (see
//! [`failpoint`]) injects each failure class deterministically.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod error;
pub mod hmatrix;
pub mod inspector;
pub mod io;
pub mod session;
pub mod timings;
pub mod wire;

pub use config::MatRoxParams;
pub use error::MatroxError;
pub use hmatrix::{FactoredHMatrix, HMatrix};
pub use inspector::{inspector, inspector_p1, inspector_p2, InspectorP1};
pub use io::{
    from_bytes, from_bytes_factored, load, load_factored, save, save_factored, to_bytes,
    to_bytes_factored,
};
pub use matrox_factor::FactorError;
/// Deterministic fault-injection harness (re-exported from `matrox_linalg`,
/// where it lives so lower layers like `matrox-compress` can host injection
/// sites; the registry, knob format and API are unchanged).
pub use matrox_linalg::failpoint;
pub use matrox_linalg::{KernelChoice, KernelDispatch};
pub use session::EvalSession;
pub use timings::{FactorTimings, InspectorTimings, SessionStats};
pub use wire::{WireReader, WireWriter};
