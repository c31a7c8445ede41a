//! # matrox-compress
//!
//! The low-rank-approximation module of MatRox's modularized compression
//! (Section 3.1 of the paper), plus a sequential reference evaluator used to
//! validate every optimized evaluation strategy in the workspace.
//!
//! Compression in MatRox is split into four modules — tree construction,
//! interaction computation, sampling, and low-rank approximation.  The first
//! two live in `matrox-tree`, sampling lives in `matrox-sampling`, and this
//! crate implements the fourth: interpolative-decomposition-based
//! skeletonization that produces the `V` generators (one per node; the
//! kernels are symmetric, so the row basis is the same matrix), the adaptive
//! `sranks`, the dense near blocks `D` and the coupling blocks `B`.

#![forbid(unsafe_code)]

pub mod lowrank;
pub mod reference;

pub use lowrank::{compress, Compression, CompressionParams, NodeBasis};
pub use reference::evaluate as reference_evaluate;
