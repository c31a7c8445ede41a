//! # matrox-points
//!
//! Point sets, kernel functions, and synthetic dataset generators.
//!
//! MatRox never assembles the full kernel matrix `K`; it only ever evaluates
//! `K(x_i, x_j)` for the point pairs required by the compression phase (near
//! blocks, coupling blocks, sampled far-field blocks).  This crate provides:
//!
//! * [`PointSet`] — an `N x d` collection of points with distance helpers.
//! * [`Kernel`] — the kernel functions used in the paper's evaluation
//!   (Gaussian with bandwidth `h`, the inverse-distance kernel used by the
//!   SMASH comparison, plus a Laplace kernel).
//! * [`datasets`] — synthetic generators standing in for the Table 1
//!   datasets (UCI machine-learning sets and low-dimensional scientific point
//!   clouds).  See DESIGN.md substitution S2.
//! * [`block`] — dense kernel and distance sub-blocks, evaluated across
//!   pairs with each pair's own chain (used by sampling, compression and
//!   the accuracy/GEMM baselines).

#![forbid(unsafe_code)]

pub mod block;
pub mod datasets;
pub mod kernel;
pub mod pointset;

pub use block::{
    dist2_block_symmetric, dist2_block_to, kernel_block, kernel_block_par, kernel_block_symmetric,
    kernel_block_twins,
};
pub use datasets::{generate, DatasetId, DatasetSpec, TABLE1};
pub use kernel::Kernel;
pub use pointset::PointSet;

use matrox_linalg::Matrix;
use rayon::prelude::*;

/// Compute the exact product `K * W` without assembling `K`, in parallel over
/// row blocks.  Used as the reference for the overall-accuracy measure
/// `eps_f = ||K~W - KW||_F / ||KW||_F` (Figure 9) and as the un-approximated
/// GEMM baseline discussed in Sections 2.2 and 4.2.
pub fn dense_kernel_matmul(points: &PointSet, kernel: &Kernel, w: &Matrix) -> Matrix {
    let n = points.len();
    assert_eq!(w.rows(), n, "dense_kernel_matmul: W must have N rows");
    let q = w.cols();
    let mut y = Matrix::zeros(n, q);
    y.as_mut_slice()
        .par_chunks_mut(q.max(1))
        .enumerate()
        .for_each(|(i, yrow)| {
            let pi = points.point(i);
            for j in 0..n {
                let k = kernel.eval(pi, points.point(j));
                if k == 0.0 {
                    continue;
                }
                let wrow = w.row(j);
                for c in 0..q {
                    yrow[c] += k * wrow[c];
                }
            }
        });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kernel_block_is_symmetric_for_symmetric_kernels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts = PointSet::random_uniform(20, 3, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 2.0 };
        let idx: Vec<usize> = (0..20).collect();
        let block = kernel_block(&pts, &k, &idx, &idx);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(block.get(i, j).to_bits(), block.get(j, i).to_bits());
            }
        }
    }

    #[test]
    fn kernel_block_par_matches_seq() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pts = PointSet::random_uniform(50, 4, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 1.0 };
        let rows: Vec<usize> = (0..50).step_by(2).collect();
        let cols: Vec<usize> = (1..50).step_by(3).collect();
        let a = kernel_block(&pts, &k, &rows, &cols);
        let b = kernel_block_par(&pts, &k, &rows, &cols);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_matmul_matches_explicit_assembly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pts = PointSet::random_uniform(30, 2, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 0.5 };
        let idx: Vec<usize> = (0..30).collect();
        let kmat = kernel_block(&pts, &k, &idx, &idx);
        let w = Matrix::random_uniform(30, 4, &mut rng);
        let expected = matrox_linalg::matmul(&kmat, &w);
        let got = dense_kernel_matmul(&pts, &k, &w);
        assert!(matrox_linalg::relative_error(&got, &expected) < 1e-12);
    }
}
