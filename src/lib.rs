//! # matrox
//!
//! A Rust reproduction of **MatRox** (Liu, Cheshmi, Soori, Strout, Mehri
//! Dehnavi — PPoPP 2020): a modular inspector–executor framework for
//! hierarchical (H²/HSS) kernel-matrix approximation that improves data
//! locality and load balance of HMatrix-matrix multiplication.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`core`] — the inspector / executor API ([`inspector()`], [`HMatrix`],
//!   the batched [`EvalSession`], [`inspector_p1`]/[`inspector_p2`] reuse,
//!   serialization);
//! * [`points`] — point sets, kernels and the Table 1 dataset
//!   generators;
//! * [`linalg`] — the dense kernels (GEMM, pivoted QR, ID);
//! * [`tree`], [`sampling`], [`compress`], [`analysis`] (structure sets, CDS
//!   and the evaluation plan), [`exec`] — the pipeline stages;
//! * [`factor`] — the ULV-style HSS factor + solve
//!   subsystem behind [`HMatrix::factorize`] / `solve` (`K x = b`);
//! * [`baselines`] — GOFMM-, STRUMPACK- and SMASH-style
//!   evaluators plus the dense GEMM comparator.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! substitutions, and `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use matrox_analysis as analysis;
pub use matrox_baselines as baselines;
// Compatibility path for the frozen `benchmark/`, which imports
// `matrox::codegen::generate_plan`; the plan lives in `matrox-analysis`.
pub use matrox_analysis::plan as codegen;
pub use matrox_compress as compress;
pub use matrox_core as core;
pub use matrox_exec as exec;
pub use matrox_factor as factor;
pub use matrox_linalg as linalg;
pub use matrox_points as points;
pub use matrox_sampling as sampling;
pub use matrox_tree as tree;

pub use matrox_core::{
    inspector, inspector_p1, inspector_p2, EvalSession, FactorError, FactoredHMatrix, HMatrix,
    InspectorP1, MatRoxParams, SessionStats,
};
pub use matrox_exec::ExecOptions;
pub use matrox_linalg::Matrix;
pub use matrox_points::{generate, DatasetId, Kernel, PointSet};
pub use matrox_tree::{PartitionMethod, Structure};
