//! Dense Cholesky solver baseline.
//!
//! The solver-side analogue of [`crate::DenseBaseline`]: it assembles the
//! full `N x N` kernel matrix and factors it with the same dense Cholesky
//! kernel the structured factorization uses for its *leaf* blocks
//! (`matrox_linalg::cholesky`, on the process-wide `KernelDispatch`, which
//! is the factor's under its default options).  Because factorization and
//! triangular solves are shared code, the time and accuracy gap measured
//! against `HMatrix::solve` isolates exactly the effect of the rank
//! structure — `O(N^3)` dense elimination versus the ULV sweeps — mirroring
//! how the GEMM baseline isolates the structure effect for `matmul`.

use matrox_linalg::{
    cholesky, cholesky_solve, cholesky_solve_matrix, KernelDispatch, Matrix, NotPositiveDefinite,
};
use matrox_points::{kernel_block_par, Kernel, PointSet};

/// Dense Cholesky comparator: assembled `K = L L^T`, direct solves.
pub struct DenseCholeskyBaseline {
    l: Matrix,
}

impl DenseCholeskyBaseline {
    /// Assemble the kernel matrix over all points and factor it.
    ///
    /// Fails with [`NotPositiveDefinite`] when the assembled matrix has a
    /// non-positive pivot (e.g. a kernel bandwidth that makes `K`
    /// numerically rank deficient).
    pub fn new(points: &PointSet, kernel: &Kernel) -> Result<Self, NotPositiveDefinite> {
        let idx: Vec<usize> = (0..points.len()).collect();
        let k = kernel_block_par(points, kernel, &idx, &idx);
        let l = cholesky(&k, KernelDispatch::global())?;
        Ok(DenseCholeskyBaseline { l })
    }

    /// Problem size `N`.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `K x = b` for one right-hand side.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        cholesky_solve(&self.l, b)
    }

    /// Solve `K X = B` for a multi-column right-hand side.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        cholesky_solve_matrix(&self.l, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{dense_kernel_matmul, generate, DatasetId};
    use rand::SeedableRng;

    #[test]
    fn solves_the_exact_kernel_system() {
        let pts = generate(DatasetId::Grid, 144, 3);
        // Bandwidth at the grid spacing keeps the kernel matrix SPD and
        // well conditioned.
        let kernel = Kernel::Gaussian {
            bandwidth: 1.0 / 12.0,
        };
        let baseline = DenseCholeskyBaseline::new(&pts, &kernel).expect("SPD");
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x_true = Matrix::random_uniform(144, 3, &mut rng);
        let b = dense_kernel_matmul(&pts, &kernel, &x_true);
        let x = baseline.solve_matrix(&b);
        assert!(matrox_linalg::relative_error(&x, &x_true) < 1e-9);
        // Vector path agrees with the matrix path.
        let bv = b.col(0);
        let xv = baseline.solve(&bv);
        for (i, v) in xv.iter().enumerate() {
            assert!((v - x.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_deficient_kernel_is_rejected() {
        // Two coincident points give an exactly singular kernel matrix.
        let pts = matrox_points::PointSet::new(2, vec![0.1, 0.2, 0.1, 0.2, 0.5, 0.5]);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        assert!(DenseCholeskyBaseline::new(&pts, &kernel).is_err());
    }
}
