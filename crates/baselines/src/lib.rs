//! # matrox-baselines
//!
//! Re-implementations of the evaluation strategies of the libraries MatRox is
//! compared against — GOFMM, STRUMPACK and SMASH — plus the dense GEMM
//! comparator.  The actual C++ libraries are not available offline, so each
//! baseline reproduces the properties the paper attributes to it (storage
//! layout, scheduling policy, synchronization behaviour, supported scope)
//! over the *same* compression output and the *same* GEMM kernels as the
//! MatRox executor: every product, and the dense Cholesky, runs on the
//! process-wide `KernelDispatch::global()` — the dispatch the executor, the
//! factor and the solve resolve under their default options (`mul_acc` /
//! `mul_tn_acc` below, `gemm_panel`, `KernelDispatch::par_gemm`).
//! Performance differences measured by the benchmark
//! therefore isolate exactly the effects the paper studies: data
//! layout (CDS vs. tree-based), loop structure (blocked/coarsened vs.
//! reduction/level-by-level), and scheduling (static load-balanced partitions
//! vs. dynamic tasks / per-level barriers).  See DESIGN.md substitution S4.
//!
//! | Baseline | Storage | Near/far loops | Tree loops | Scope |
//! |---|---|---|---|---|
//! | [`GofmmEvaluator`] | tree-based | parallel over interactions, locked reductions | dynamic `rayon::join` tasks | any structure, any dimension |
//! | [`StrumpackEvaluator`] | tree-based | parallel per target | level-by-level with barriers | HSS only |
//! | [`SmashEvaluator`] | tree-based | sequential near | level-by-level | 1–3-d points, matvec only |
//! | [`DenseBaseline`] | dense `K` | — | — | exact reference / GEMM comparison |
//! | [`DenseCholeskyBaseline`] | dense `K = L L^T` | — | — | exact direct solve (`K x = b` comparison) |

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod dense;
pub mod gofmm;
pub mod smash;
pub mod strumpack;

pub use cholesky::DenseCholeskyBaseline;
pub use dense::DenseBaseline;
pub use gofmm::GofmmEvaluator;
pub use smash::{SmashEvaluator, UnsupportedInput};
pub use strumpack::{StrumpackEvaluator, UnsupportedStructure};

use matrox_linalg::{gemm_panel, KernelDispatch, Matrix};

/// `C += A * B` for the tree-based evaluators: the executor's own dispatched
/// kernel ([`gemm_panel`]) on the calling thread (never the pool — each
/// evaluator brings its own scheduling), so a timed comparison measures
/// layout and scheduling, not the microkernel.
pub(crate) fn mul_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!((b.rows(), c.shape()), (k, (m, n)), "mul_acc: shapes differ");
    gemm_panel(a.as_slice(), m, k, b.as_slice(), n, c.as_mut_slice());
}

/// `C += A^T * B` through [`KernelDispatch::gemm_tn`], as [`mul_acc`]: the
/// upward pass's `T = V^T W`, with `V` stored untransposed as in the CDS.
pub(crate) fn mul_tn_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!((b.rows(), c.shape()), (k, (m, n)), "mul_tn: shapes differ");
    KernelDispatch::global().gemm_tn(a.as_slice(), k, m, b.as_slice(), n, c.as_mut_slice());
}
