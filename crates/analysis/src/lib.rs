//! # matrox-analysis
//!
//! MatRox structure analysis and code generation (Sections 3.2 and 3.3 of
//! the paper): the blocking and coarsening algorithms that turn the structure
//! information produced by compression into the *structure sets*, the
//! Compressed Data-Sparse (CDS) data-layout construction, and the lowering of
//! both into the evaluation plan the executor interprets.
//!
//! * [`blocking`] — Algorithm 1: groups near/far interactions into a
//!   `blockset` whose groups can execute in parallel without reductions.
//! * [`coarsen`] — Algorithm 2: the LBC-based coarsening of the CTree into
//!   coarsen levels and load-balanced sub-trees (`coarsenset`), using a cost
//!   model over the sranks.
//! * [`cds`] — stores every submatrix in flat buffers following the order of
//!   the blocked and coarsened loops.
//! * [`plan`] — the code-generation stage: the block/coarsen lowering
//!   decisions, the [`EvalPlan`] holding them together with the structure
//!   sets and the CDS (DESIGN.md substitution S3), and
//!   [`EvalPlan::validate`], the one definition of a well-formed plan.

#![forbid(unsafe_code)]

pub mod blocking;
pub mod cds;
pub mod coarsen;
pub mod plan;

pub use blocking::{build_blockset, BlockSet};
pub use cds::{
    build_cds, build_cds_with_grain, BlockExtent, Cds, CdsBlockEntry, GeneratorEntry, GroupRange,
    SharedValues,
};
pub use coarsen::{build_coarsenset, CoarsenParams, CoarsenSet};
pub use plan::{generate_plan, lower, CodegenParams, EvalPlan, LoweringDecisions};
