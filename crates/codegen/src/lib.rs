//! # matrox-codegen
//!
//! MatRox code generation (Section 3.3 of the paper): lowering decisions
//! and the specialized evaluation plan.
//!
//! Code generation consumes the structure sets produced by structure analysis
//! and decides — via the block-threshold and coarsen-threshold — whether the
//! blocked near/far loops and the coarsened tree loops are worth generating,
//! plus low-level specializations such as root peeling.  The result is an
//! [`EvalPlan`] interpreted by `matrox-exec`, which stands in for the
//! `matmul.h` source the original system writes to disk (see DESIGN.md
//! substitution S3).

#![forbid(unsafe_code)]

pub mod plan;

pub use plan::{generate_plan, lower, CodegenParams, EvalPlan, LoweringDecisions};
