//! Norms and error measures.
//!
//! The overall accuracy reported in Figure 9 of the paper is
//! `eps_f = ||K~ W - K W||_F / ||K W||_F`; [`relative_error`] implements that
//! measure for arbitrary matrix pairs.

use crate::matrix::Matrix;

/// Frobenius norm of a matrix.
pub fn frobenius_norm(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Relative Frobenius error `||a - b||_F / ||b||_F`.
///
/// When `b` is exactly zero the absolute error `||a||_F` is returned instead,
/// so the function is total.
pub fn relative_error(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "relative_error: shape mismatch");
    let mut diff = 0.0;
    let mut base = 0.0;
    for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
        let d = x - y;
        diff += d * d;
        base += y * y;
    }
    if base == 0.0 {
        diff.sqrt()
    } else {
        (diff / base).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_identity() {
        let m = Matrix::identity(4);
        assert!((frobenius_norm(&m) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn relative_error_of_equal_matrices_is_zero() {
        let m = Matrix::from_fn(5, 5, |i, j| (i + j) as f64);
        assert_eq!(relative_error(&m, &m), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        let a = Matrix::filled(2, 2, 1.1);
        let b = Matrix::filled(2, 2, 1.0);
        let e = relative_error(&a, &b);
        assert!((e - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_base_falls_back_to_absolute() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::zeros(2, 2);
        assert!((relative_error(&a, &b) - 6.0).abs() < 1e-12);
    }
}
