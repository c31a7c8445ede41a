//! # matrox-linalg
//!
//! Dense linear-algebra substrate for the MatRox reproduction.
//!
//! The original MatRox implementation links Intel MKL for BLAS/LAPACK
//! routines (GEMM inside the executor, pivoted QR inside the interpolative
//! decomposition used by compression).  This crate provides the equivalent
//! functionality in pure Rust so that the whole workspace is self-contained:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the small set of
//!   operations the rest of the workspace needs.
//! * [`mod@gemm`] — the front-ends of the one product: [`gemm_seq`]
//!   (`C ← α op(A) op(B) + βC` on the scalar reference) and [`matmul`] on
//!   [`Matrix`] values, [`gemm_panel`] on raw slices, and the scalar arm's
//!   strided loop.
//! * [`mod@kernel`] — the kernel layer under those products: a
//!   register-blocked AVX2+FMA microkernel (on the operands in place, or
//!   packed when they are large) with runtime feature detection,
//!   the portable scalar fallback, and the [`KernelDispatch`] every hot
//!   caller resolves once from its options (`Auto` defers to
//!   `MATROX_KERNEL=auto|scalar|avx2`, then to CPU detection).
//!   It also holds the squared-distance body under every kernel entry
//!   ([`KernelDispatch::dist2`]), bit-equal on every arm.
//!   See its module docs for the block sizes, the packing formats and the
//!   bitwise-determinism contract.
//! * [`qr`] — Householder column-pivoted QR (Businger–Golub) with adaptive
//!   rank detection; forms `R` in place and never `Q`, one pass over the
//!   trailing block a step, compiled once per kernel arm with the same
//!   bits on each ([`KernelDispatch::advance_qr`]).  It pauses at its stop
//!   and goes on to a tighter one or reads a looser one off `R`
//!   ([`ResumableQr`]).
//! * [`solve`] — the triangular substitutions under the Cholesky and LU
//!   solves and the ID, likewise one body per arm
//!   ([`KernelDispatch::substitute`]).
//! * [`chol`] — blocked dense Cholesky with a symmetric rank-`k` trailing
//!   update; factors the ULV leaf blocks and the dense solver baseline, on
//!   the [`KernelDispatch`] its caller passes.
//! * [`lu`] — partial-pivoted LU for the small nonsymmetric sibling-merge
//!   systems of the HSS factorization, likewise on the caller's dispatch.
//! * [`inverse`] — explicit inverses from those factors
//!   ([`cholesky_inverse`], [`lu_inverse`]): block substitutions whose
//!   `O(n^3)` part runs on the caller's products, so the ULV solve applies
//!   every block as one product.
//! * [`id`] — row/column interpolative decompositions built on top of the
//!   pivoted QR; this is the compression workhorse of MatRox.
//! * [`norms`] — Frobenius norms and relative-error helpers used by the
//!   accuracy experiments (Figure 9 of the paper).
//!
//! All evaluation strategies in the workspace (MatRox itself as well as the
//! GOFMM-, STRUMPACK- and SMASH-style baselines) run the same kernel layer:
//! MatRox's executor, factor and solve on the [`KernelDispatch`] their
//! `ExecOptions` resolve (by default the process-wide one), the baselines on
//! the process-wide [`KernelDispatch::global`], so the relative performance
//! the benchmark reports is not skewed by different BLAS backends.  The scalar reference [`gemm_seq`]
//! is the tests' oracle (and `matrox_compress::reference`'s kernel), never a
//! timed evaluator's.
//!
//! # Example: a dispatched product
//!
//! [`matmul`] routes through the process-wide kernel selection (AVX2
//! microkernel where available, scalar otherwise) and stays within `1e-12`
//! relative error of the scalar reference [`gemm_seq`]:
//!
//! ```
//! use matrox_linalg::{gemm_seq, matmul, GemmOp, Matrix};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
//! let b = Matrix::from_rows(&[vec![0.5, 0.0], vec![-1.0, 2.0]]);
//! let c = matmul(&a, &b);
//! let mut c_ref = Matrix::zeros(2, 2);
//! gemm_seq(1.0, &a, GemmOp::NoTrans, &b, GemmOp::NoTrans, 0.0, &mut c_ref);
//! for i in 0..2 {
//!     for j in 0..2 {
//!         assert!((c.get(i, j) - c_ref.get(i, j)).abs() < 1e-12);
//!     }
//! }
//! ```

pub mod chol;
pub mod failpoint;
pub mod gemm;
pub mod id;
pub mod inverse;
pub mod kernel;
pub mod lu;
pub mod matrix;
pub mod norms;
pub mod qr;
pub mod solve;

pub use chol::{
    cholesky, cholesky_solve, cholesky_solve_in_place, cholesky_solve_matrix, NotPositiveDefinite,
};
pub use gemm::{gemm_panel, gemm_seq, matmul, GemmOp};
pub use id::{column_id, row_id, row_id_of_qr, row_id_of_transpose, IdResult};
pub use inverse::{cholesky_inverse, lu_inverse};
pub use kernel::{simd_available, KernelChoice, KernelDispatch};
pub use lu::{lu_factor, lu_solve_in_place, LuFactors, SingularMatrix};
pub use matrix::{all_finite, Matrix};
pub use norms::{frobenius_norm, relative_error};
pub use qr::{pivoted_qr, PivotedQr, QrStop, ResumableQr};
pub use solve::{
    solve_lower_in_place, solve_lower_transpose_in_place, solve_upper_in_place, Substitution,
};
