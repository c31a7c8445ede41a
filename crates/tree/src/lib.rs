//! # matrox-tree
//!
//! Cluster-tree construction and interaction computation for MatRox.
//!
//! These are the first two modules of MatRox's modularized compression
//! (Section 3.1 of the paper):
//!
//! * **Tree construction** ([`ctree`]): builds the binary cluster tree
//!   (CTree) from the points with kd-tree partitioning for low-dimensional
//!   data and two-means partitioning for high-dimensional data.
//! * **Interaction computation** ([`htree`]): applies the admissibility
//!   condition (or GOFMM's budget, or the HSS weak-admissibility rule) to the
//!   CTree to find near and far interacting node pairs, producing the HTree.
//!
//! The structure information produced here is consumed by the sampling and
//! low-rank-approximation modules (`matrox-sampling`, `matrox-compress`) and
//! by the structure-analysis phase (`matrox-analysis`).

#![forbid(unsafe_code)]

pub mod ctree;
pub mod htree;

pub use ctree::{
    ensure, invert_permutation, median_split_by_keys, ClusterTree, PartitionMethod, TreeNode,
};
pub use htree::{HTree, Ladder, LadderCounts, NearBlocks, NearSet, NodeTask, Structure};
