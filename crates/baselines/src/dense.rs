//! Dense (un-approximated) GEMM baseline.
//!
//! Sections 2.2 and 4.2 compare MatRox against computing `K * W` directly
//! with GEMM (MKL in the paper).  This module provides two flavours:
//!
//! * [`DenseBaseline::evaluate_implicit`] — never assembles `K`, evaluating
//!   kernel entries on the fly (memory-friendly; used for accuracy
//!   references);
//! * [`DenseBaseline::evaluate_assembled`] — assembles the full `N x N`
//!   kernel matrix once and multiplies it with the parallel GEMM kernel
//!   (the true "GEMM baseline": its `O(N^2 Q)` flop count is what HMatrix
//!   evaluation beats by the factors reported in the paper).

use matrox_linalg::{KernelDispatch, Matrix};
use matrox_points::{dense_kernel_matmul, kernel_block_par, Kernel, PointSet};

/// The dense GEMM comparator.
pub struct DenseBaseline<'a> {
    points: &'a PointSet,
    kernel: Kernel,
}

impl<'a> DenseBaseline<'a> {
    /// Create a dense baseline for the given points and kernel.
    pub fn new(points: &'a PointSet, kernel: Kernel) -> Self {
        DenseBaseline { points, kernel }
    }

    /// `K * W` without assembling `K`.
    pub fn evaluate_implicit(&self, w: &Matrix) -> Matrix {
        dense_kernel_matmul(self.points, &self.kernel, w)
    }

    /// Assemble `K` explicitly and multiply with parallel GEMM.
    pub fn evaluate_assembled(&self, w: &Matrix) -> Matrix {
        let n = self.points.len();
        let idx: Vec<usize> = (0..n).collect();
        let k = kernel_block_par(self.points, &self.kernel, &idx, &idx);
        let q = w.cols();
        let mut y = Matrix::zeros(n, q);
        KernelDispatch::global().par_gemm(k.as_slice(), n, n, w.as_slice(), q, y.as_mut_slice());
        y
    }

    /// Flop count of the dense product (for GFLOP/s reporting).
    pub fn flops(&self, q: usize) -> u64 {
        2 * (self.points.len() as u64) * (self.points.len() as u64) * q as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_linalg::relative_error;
    use matrox_points::{generate, DatasetId};
    use rand::SeedableRng;

    #[test]
    fn implicit_and_assembled_agree() {
        let pts = generate(DatasetId::Random, 300, 5);
        let baseline = DenseBaseline::new(&pts, Kernel::Gaussian { bandwidth: 1.0 });
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = Matrix::random_uniform(300, 6, &mut rng);
        let a = baseline.evaluate_implicit(&w);
        let b = baseline.evaluate_assembled(&w);
        assert!(relative_error(&a, &b) < 1e-12);
    }

    #[test]
    fn flops_scale_quadratically() {
        let pts = generate(DatasetId::Random, 100, 5);
        let baseline = DenseBaseline::new(&pts, Kernel::paper_gaussian());
        assert_eq!(baseline.flops(2), 2 * 100 * 100 * 2);
    }
}
