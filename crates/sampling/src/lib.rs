//! # matrox-sampling
//!
//! The sampling module of MatRox's modularized compression (Section 3.1).
//!
//! Interpolative decomposition of a node's full far-field block can be very
//! expensive, so MatRox — like ASKIT and GOFMM — samples the far field:
//! approximate k-nearest-neighbour lists are computed for every point with
//! random-projection trees ([`knn`]), the lists are merged per cluster-tree
//! node, and importance sampling selects the final per-node sample set
//! ([`node_sampling`]).
//!
//! Sampling depends only on the points and the CTree — not on the kernel
//! parameters or the requested accuracy — which is why it belongs to
//! *inspector-p1* and can be reused when the kernel or `bacc` change
//! (Section 5 of the paper).  The kernel passed to [`sample_nodes`] is used
//! only to rank candidates by importance, mirroring the role the
//! nearest-neighbour lists play in GOFMM.

#![forbid(unsafe_code)]

pub mod knn;
pub mod node_sampling;
mod scratch;

pub use knn::{approximate_knn, exact_knn, KnnParams, LeafDistances, RpForest};
pub use node_sampling::{
    sample_nodes, sample_nodes_exhaustive, sample_nodes_from_knn, SamplingInfo, SamplingParams,
};
