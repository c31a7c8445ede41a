//! # matrox-exec
//!
//! The MatRox executor: it runs the specialized HMatrix-matrix multiplication
//! described by an evaluation plan over the Compressed Data-Sparse storage
//! (both from `matrox-analysis`), using rayon for the parallel blocked and
//! coarsened loops.
//!
//! [`ExecOptions`] carries the plan's
//! [`LoweringDecisions`](matrox_analysis::LoweringDecisions), or an
//! ablation's, so each lowering can be switched independently for the
//! Figure 5 ablation (CDS(seq), CDS + coarsen, CDS + block, CDS + block +
//! coarsen + low-level), and thread-count sweeps (Figure 7) can pin
//! execution to custom rayon pools.
//!
//! The executor's two drivers, [`panel_loop`] over panels of right-hand-side
//! columns and [`tree_sweep`] over the tree, are public: the ULV solve
//! (`matrox-factor`) runs its passes on both, with bodies of its own.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod executor;

pub use executor::{
    choose_panel_width, effective_panel_width, execute, execute_prepared, panel_loop, rank_offsets,
    requested_panel_width, tree_sweep, ExecOptions, Part, PreparedExec, Rows, ValidPlan,
    DEFAULT_L2_BYTES, PANEL_MAX,
};
pub use matrox_linalg::{KernelChoice, KernelDispatch};
