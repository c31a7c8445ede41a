//! Kernel functions.
//!
//! The paper evaluates with a Gaussian kernel (bandwidth 5) against GOFMM and
//! STRUMPACK, and with the inverse-distance kernel `1 / ||x - y||` (SMASH's
//! default) against SMASH.  Changing the kernel is one of the two triggers
//! for inspector reuse (Section 5), so the kernel is a first-class value here
//! rather than a compile-time choice.

/// A symmetric positive-(semi)definite kernel function on point pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Gaussian / RBF kernel `exp(-||x - y||^2 / (2 h^2))`.
    Gaussian {
        /// Bandwidth `h`.
        bandwidth: f64,
    },
    /// Diagonally regularized Gaussian kernel: `exp(-||x - y||^2 / (2 h^2))
    /// + lambda * [dist(x, y) == 0]` — the kernel-ridge matrix
    /// `K + lambda I` for point sets without duplicates.
    ///
    /// This is the standard SPD *solver* workload: plain Gaussian kernel
    /// matrices are numerically rank deficient once the bandwidth exceeds a
    /// few point spacings, so direct factorizations need the shift.
    ///
    /// Like [`Kernel::InverseDistance`]'s `diag`, the shift keys on *zero
    /// distance*, not on point identity (the kernel only ever sees
    /// coordinates), so two coincident **distinct** points both receive it
    /// and their 2x2 block is exactly singular.  Deduplicate inputs before
    /// factoring; coincident duplicates are rejected by the Cholesky pivot
    /// check rather than silently regularized.
    GaussianRidge {
        /// Bandwidth `h`.
        bandwidth: f64,
        /// Diagonal shift `lambda > 0`.
        ridge: f64,
    },
    /// Inverse-distance kernel `1 / ||x - y||` with a regularized diagonal
    /// (SMASH's default setting).  `K(x, x)` is defined as `diag`.
    InverseDistance {
        /// Value returned on the diagonal, where the kernel is singular.
        diag: f64,
    },
    /// Laplace / exponential kernel `exp(-||x - y|| / h)`.
    Laplace {
        /// Bandwidth `h`.
        bandwidth: f64,
    },
    /// Polynomial-decay kernel `1 / (1 + ||x - y||^2 / h^2)` (inverse
    /// multiquadric squared); useful as an extra, cheaper test kernel.
    Cauchy {
        /// Bandwidth `h`.
        bandwidth: f64,
    },
}

impl Kernel {
    /// The paper's default machine-learning kernel: Gaussian with bandwidth 5.
    pub fn paper_gaussian() -> Self {
        Kernel::Gaussian { bandwidth: 5.0 }
    }

    /// The SMASH comparison kernel: `1 / ||x - y||`.
    pub fn smash_default() -> Self {
        Kernel::InverseDistance { diag: 1.0 }
    }

    /// Evaluate the kernel on two coordinate slices.
    #[inline]
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let mut d2 = 0.0;
        for k in 0..x.len() {
            let d = x[k] - y[k];
            d2 += d * d;
        }
        self.eval_dist2(d2)
    }

    /// Evaluate the kernel from a squared distance.
    #[inline]
    pub fn eval_dist2(&self, d2: f64) -> f64 {
        match *self {
            Kernel::Gaussian { bandwidth } => (-d2 / (2.0 * bandwidth * bandwidth)).exp(),
            Kernel::GaussianRidge { bandwidth, ridge } => {
                let g = (-d2 / (2.0 * bandwidth * bandwidth)).exp();
                if d2 == 0.0 {
                    g + ridge
                } else {
                    g
                }
            }
            Kernel::InverseDistance { diag } => {
                if d2 == 0.0 {
                    diag
                } else {
                    1.0 / d2.sqrt()
                }
            }
            Kernel::Laplace { bandwidth } => (-d2.sqrt() / bandwidth).exp(),
            Kernel::Cauchy { bandwidth } => 1.0 / (1.0 + d2 / (bandwidth * bandwidth)),
        }
    }

    /// A short, stable name used in reports and generated-code comments.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Gaussian { .. } => "gaussian",
            Kernel::GaussianRidge { .. } => "gaussian-ridge",
            Kernel::InverseDistance { .. } => "inverse-distance",
            Kernel::Laplace { .. } => "laplace",
            Kernel::Cauchy { .. } => "cauchy",
        }
    }

    /// The variant and its parameters by bits, for exact comparison:
    /// `PartialEq` takes `-0.0` for `0.0`, which an `InverseDistance`
    /// diagonal or a Laplace bandwidth tells apart in the entries.
    pub fn to_bits(&self) -> (u8, [u64; 2]) {
        match *self {
            Kernel::Gaussian { bandwidth } => (0, [bandwidth.to_bits(), 0]),
            Kernel::GaussianRidge { bandwidth, ridge } => {
                (1, [bandwidth.to_bits(), ridge.to_bits()])
            }
            Kernel::InverseDistance { diag } => (2, [diag.to_bits(), 0]),
            Kernel::Laplace { bandwidth } => (3, [bandwidth.to_bits(), 0]),
            Kernel::Cauchy { bandwidth } => (4, [bandwidth.to_bits(), 0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_is_one_at_zero_distance() {
        let k = Kernel::Gaussian { bandwidth: 5.0 };
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn gaussian_decays_with_distance() {
        let k = Kernel::Gaussian { bandwidth: 1.0 };
        let near = k.eval(&[0.0], &[0.5]);
        let far = k.eval(&[0.0], &[3.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn gaussian_ridge_shifts_the_diagonal_only() {
        let g = Kernel::Gaussian { bandwidth: 2.0 };
        let r = Kernel::GaussianRidge {
            bandwidth: 2.0,
            ridge: 3.5,
        };
        assert_eq!(r.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0 + 3.5);
        let x = [0.0, 0.0];
        let y = [0.7, -0.3];
        assert_eq!(r.eval(&x, &y), g.eval(&x, &y));
    }

    #[test]
    fn inverse_distance_uses_diag_value() {
        let k = Kernel::InverseDistance { diag: 7.5 };
        assert_eq!(k.eval(&[1.0], &[1.0]), 7.5);
        assert!((k.eval(&[0.0], &[2.0]) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn kernels_are_symmetric() {
        let kernels = [
            Kernel::Gaussian { bandwidth: 2.0 },
            Kernel::GaussianRidge {
                bandwidth: 2.0,
                ridge: 0.5,
            },
            Kernel::InverseDistance { diag: 1.0 },
            Kernel::Laplace { bandwidth: 1.5 },
            Kernel::Cauchy { bandwidth: 0.7 },
        ];
        let x = [0.3, -1.2, 2.0];
        let y = [1.0, 0.5, -0.25];
        for k in kernels {
            assert_eq!(k.eval(&x, &y), k.eval(&y, &x), "{} not symmetric", k.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Kernel::paper_gaussian().name(), "gaussian");
        assert_eq!(Kernel::smash_default().name(), "inverse-distance");
    }
}
