//! # matrox-exec
//!
//! The MatRox executor: it runs the specialized HMatrix-matrix multiplication
//! described by an evaluation plan over the Compressed Data-Sparse storage
//! (both from `matrox-analysis`), using rayon for the parallel blocked and
//! coarsened loops.
//!
//! The [`ExecOptions`] switches expose each lowering independently so the
//! Figure 5 ablation (CDS(seq), CDS + coarsen, CDS + block, CDS + block +
//! coarsen + low-level) can be reproduced, and so thread-count sweeps
//! (Figure 7) can pin execution to custom rayon pools.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod executor;

pub use executor::{
    choose_panel_width, effective_panel_width, execute, execute_prepared, rank_offsets,
    requested_panel_width, tree_sweep, ExecOptions, Part, PreparedExec, Scratch, ValidPlan,
    DEFAULT_L2_BYTES, PANEL_MAX,
};
pub use matrox_linalg::{KernelChoice, KernelDispatch};
