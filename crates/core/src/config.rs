//! User-facing configuration.
//!
//! Mirrors the inputs of Figure 2: the admissibility/structure selection, the
//! kernel (passed separately so inspector-p1 stays kernel-independent), the
//! block-approximation accuracy `bacc`, plus the internal knobs the paper
//! lists in Section 4.1 (leaf size, sampling size, maximum rank, blocksizes,
//! `agg`, `p`, the lowering thresholds).

use matrox_analysis::{CoarsenParams, CodegenParams};
use matrox_linalg::KernelChoice;
use matrox_sampling::SamplingParams;
use matrox_tree::{PartitionMethod, Structure};

/// All parameters of the MatRox inspector.
#[derive(Debug, Clone, Copy)]
pub struct MatRoxParams {
    /// HMatrix structure / admissibility selection (HSS, H²-b budget, or
    /// geometric τ).
    pub structure: Structure,
    /// Cluster-tree partitioning method (the paper's rule is kd-tree for
    /// `d <= 3`, two-means otherwise; `Auto` applies that rule).
    pub partition: PartitionMethod,
    /// Leaf size `m` of the cluster tree.
    pub leaf_size: usize,
    /// Sampling-module parameters (k-NN size, sampling size, ...).
    pub sampling: SamplingParams,
    /// Block approximation accuracy `bacc`.
    pub bacc: f64,
    /// Maximum submatrix rank (paper default 256).
    pub max_rank: usize,
    /// Blocksize for near-interaction blocking (paper default 2).
    pub near_blocksize: usize,
    /// Blocksize for far-interaction blocking (paper default 4).
    pub far_blocksize: usize,
    /// Coarsening parameters (`p`, `agg`).
    pub coarsen: CoarsenParams,
    /// Code-generation thresholds.
    pub codegen: CodegenParams,
    /// Seed controlling tree construction and sampling randomness.
    pub seed: u64,
    /// RHS panel width for the panel-blocked executor; `0` = auto (sized
    /// from the CDS block extents so a block plus its panels fit in L2).
    /// Results are bitwise independent of this knob.
    pub panel_width: usize,
    /// GEMM kernel selection for the matrix built from these parameters
    /// ([`KernelChoice::Auto`] defers to the `MATROX_KERNEL` env var, then
    /// CPU feature detection).  Reaches every product the matrix issues:
    /// evaluation (`matmul`, sessions), the factorization and the solve.
    /// A runtime/perf knob like `panel_width`: it is not serialized with
    /// the HMatrix, and for a fixed selection results are bitwise
    /// reproducible across thread counts and panel widths.
    pub kernel: KernelChoice,
    /// Minimum work items per parallel task across the inspector's parallel
    /// phases (tree partitioning, kNN, sampling, compression, CDS packing);
    /// `0` = auto (1).  Like `panel_width`, grain only changes task
    /// chunking: the inspector output is bitwise independent of it and of
    /// the pool width.
    pub grain: usize,
}

impl Default for MatRoxParams {
    fn default() -> Self {
        MatRoxParams {
            structure: Structure::h2b(),
            partition: PartitionMethod::Auto,
            leaf_size: 64,
            sampling: SamplingParams::default(),
            bacc: 1e-5,
            max_rank: 256,
            near_blocksize: 2,
            far_blocksize: 4,
            // `p` is a *plan* parameter: it shapes the coarsened level sets
            // that end up in the CDS, so it must never be derived from the
            // pool width at hand or the same inputs would produce different
            // plan bytes on different machines (or across the determinism
            // suite's width sweep).  Fixed at the paper's reference socket
            // width; tune per machine with `with_partitions`.
            coarsen: CoarsenParams { p: 8, agg: 2 },
            codegen: CodegenParams::default(),
            seed: 0,
            panel_width: 0,
            kernel: KernelChoice::Auto,
            grain: 0,
        }
    }
}

impl MatRoxParams {
    /// The paper's HSS configuration (STRUMPACK comparison).
    pub fn hss() -> Self {
        MatRoxParams {
            structure: Structure::Hss,
            ..Default::default()
        }
    }

    /// The paper's H²-b configuration (GOFMM budget 0.03).
    pub fn h2b() -> Self {
        MatRoxParams {
            structure: Structure::h2b(),
            ..Default::default()
        }
    }

    /// The SMASH comparison configuration (geometric admissibility τ = 0.65).
    pub fn smash_setting() -> Self {
        MatRoxParams {
            structure: Structure::Geometric { tau: 0.65 },
            ..Default::default()
        }
    }

    /// Builder-style override of the block accuracy.
    pub fn with_bacc(mut self, bacc: f64) -> Self {
        self.bacc = bacc;
        self
    }

    /// Builder-style override of the leaf size.
    pub fn with_leaf_size(mut self, m: usize) -> Self {
        self.leaf_size = m;
        self
    }

    /// Builder-style override of the number of coarsening partitions `p`.
    pub fn with_partitions(mut self, p: usize) -> Self {
        self.coarsen.p = p.max(1);
        self
    }

    /// Builder-style override of the executor's RHS panel width
    /// (see [`MatRoxParams::panel_width`]).
    pub fn with_panel_width(mut self, panel_width: usize) -> Self {
        self.panel_width = panel_width;
        self
    }

    /// Builder-style override of the GEMM kernel selection
    /// (see [`MatRoxParams::kernel`]).
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style override of the inspector's parallel grain
    /// (see [`MatRoxParams::grain`]).
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let p = MatRoxParams::default();
        assert_eq!(p.bacc, 1e-5);
        assert_eq!(p.max_rank, 256);
        assert_eq!(p.near_blocksize, 2);
        assert_eq!(p.far_blocksize, 4);
        assert_eq!(p.coarsen.agg, 2);
        assert_eq!(p.sampling.sampling_size, 32);
        assert_eq!(p.panel_width, 0, "panel width defaults to auto");
        assert_eq!(p.kernel, KernelChoice::Auto, "kernel defaults to auto");
        assert_eq!(p.grain, 0, "grain defaults to auto");
        assert_eq!(
            p.coarsen.p, 8,
            "coarsening p is a fixed plan parameter, never the pool width"
        );
    }

    #[test]
    fn builders_override_fields() {
        let p = MatRoxParams::hss()
            .with_bacc(1e-3)
            .with_leaf_size(128)
            .with_partitions(7);
        assert_eq!(p.structure, Structure::Hss);
        assert_eq!(p.bacc, 1e-3);
        assert_eq!(p.leaf_size, 128);
        assert_eq!(p.coarsen.p, 7);
    }
}
