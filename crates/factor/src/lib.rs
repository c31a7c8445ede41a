//! # matrox-factor
//!
//! A structured **factor + solve** subsystem over the inspector's compressed
//! representation: given an SPD kernel matrix compressed with the HSS (weak
//! admissibility) structure, [`factor()`] computes a ULV-style factorization
//! and [`HssFactor::solve_matrix`] runs forward/backward sweeps so
//! `K~ x = b` is solved directly — the workload STRUMPACK exists for, and
//! the scenario family (kernel regression, preconditioning) the executor's
//! `Y = K~ W` product alone cannot express.
//!
//! ## Algorithm
//!
//! The compressed matrix is exactly the telescoping HSS form the inspector
//! already stores in CDS: dense leaf diagonal blocks `D_i`, nested bases
//! `U_i = V_i` (leaf interpolation / internal transfer matrices) and sibling
//! coupling blocks `B_{l,r} = K(skel_l, skel_r)`.  Writing `K_i` for the
//! subtree operator of node `i` (its diagonal block including all coupling
//! *below* `i`), the factorization computes bottom-up, per node, the small
//! reduced matrix `G_i = V_i^T K_i^{-1} U_i` (`srank x srank`):
//!
//! * **leaf** — Cholesky `D_i = L_i L_i^T`, then `E_i = D_i^{-1} U_i` by
//!   substitution and `G_i = V_i^T E_i`;
//! * **merge (internal node `p`, children `l`, `r`)** — eliminating both
//!   children's interiors reduces `K_p z = c` to the `(k_l + k_r)`-square
//!   system `M_p = [I, G_l B_{l,r}; G_r B_{r,l}, I]` in the children's
//!   skeleton coefficients; `M_p` is factored with partial-pivoted LU,
//!   `T_p = M_p^{-1} [G_l R_l; G_r R_r]` follows by substitution and
//!   `G_p = W_p^T T_p` from the transfer matrices alone — no large dense
//!   algebra above the leaves.
//!
//! Both are one node step over the rows the node's basis stacks (a leaf's
//! points, or its children's stacked pair), and the factor keeps one
//! [`NodeFactor`] `{ inv, map }` per node: the explicit inverse of its
//! system (`D_i^{-1}` or `M_p^{-1}`) and its map (`E_i` or `T_p`).
//!
//! The solve is two tree sweeps made of products only, reading every
//! node's factor the same way: an **upward sweep** replaces each node's
//! stacked rows with `inv` times them (`y_i = D_i^{-1} b_i` at the leaves,
//! `t_p = M_p^{-1} [bhat_l; bhat_r]` above), and a **downward sweep**
//! propagates outer skeleton loads `s_i` back down, subtracting `map s`
//! from each node's stacked rows and finishing with `x_i = y_i - E_i s_i`
//! at the leaves.  The factorization is parallel over the nodes of a tree
//! level and each solve sweep over the partitions of a coarsen level, on
//! the executor's tree-sweep driver, both on the workspace's work-stealing
//! pool; every node's arithmetic is sequential and identical at any pool
//! width, so factor and solve are *bitwise deterministic* across thread
//! counts, mirroring the executor's conflict-free-scheduling guarantee.
//!
//! Non-HSS structures (geometric or budget admissibility produce
//! off-diagonal dense blocks the merge step cannot fold) are rejected with
//! [`FactorError::UnsupportedStructure`], exactly like the STRUMPACK
//! baseline's scope.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod factor;
pub mod solve;

pub use factor::{
    factor, factor_with_ridge, FactorError, FactorTimings, HssFactor, HssIndex, NodeFactor,
};
