//! The scale law, bitwise: a metamorphic oracle that needs no golden.
//!
//! Scale every coordinate by `s = 2^k` and every kernel length by `s`.  Each
//! coordinate difference, distance and squared distance then scales by an
//! exact power of two, so `d² / h²` and `d / h` are the same bits, and so are
//! the tree, the samples, the ranks, every stored block and every value a
//! model serves or solves.  `InverseDistance` has no length: it takes
//! `diag / s`, every entry of its matrix scales by exactly `1 / s`, and its
//! served values times `s` are the unscaled model's bits.
//!
//! Pinned for all five kernels on both structures the benchmark serves
//! (H²-b and HSS) at `k` in {−3, 1, 10}: the values `matmul` and a batched
//! `EvalSession::evaluate` serve, the values `solve_matrix` solves (HSS with
//! `GaussianRidge`, the SPD kernel), and the length of the image after a
//! `to_bytes` / `from_bytes` round trip (its bytes differ: an image stores
//! its input points).  A scale of 3 is not exact, and there the bits must
//! move, so the law cannot hold vacuously.  A failure names an absolute
//! constant (a tolerance, an epsilon, a cap) in a path that should be
//! relative.
//!
//! N = 512 keeps the 42 debug-build inspector runs of this suite within a
//! few seconds of tier-1; every kernel and structure is kept.

use matrox::core::io::{from_bytes, to_bytes};
use matrox::{
    generate, inspector, DatasetId, EvalSession, HMatrix, Kernel, MatRoxParams, Matrix, PointSet,
    Structure,
};
use rand::SeedableRng;

const N: usize = 512;
/// Right-hand-side columns of every served and solved product.
const Q: usize = 3;
/// The exponents `k` of the exact scales `s = 2^k`.
const EXPONENTS: [i32; 3] = [-3, 1, 10];

/// The five kernels, at lengths that suit `N` uniform points in the unit
/// square.
fn kernels() -> [Kernel; 5] {
    [
        Kernel::Gaussian { bandwidth: 0.2 },
        Kernel::GaussianRidge {
            bandwidth: 0.2,
            ridge: 1.0,
        },
        Kernel::InverseDistance { diag: 1.0 },
        Kernel::Laplace { bandwidth: 0.2 },
        Kernel::Cauchy { bandwidth: 0.2 },
    ]
}

/// The kernel that sees points scaled by `s` as `kernel` sees the unscaled
/// ones, and the factor that maps its values back onto `kernel`'s.
fn scaled_kernel(kernel: &Kernel, s: f64) -> (Kernel, f64) {
    match *kernel {
        Kernel::Gaussian { bandwidth } => (
            Kernel::Gaussian {
                bandwidth: bandwidth * s,
            },
            1.0,
        ),
        Kernel::GaussianRidge { bandwidth, ridge } => (
            Kernel::GaussianRidge {
                bandwidth: bandwidth * s,
                ridge,
            },
            1.0,
        ),
        Kernel::InverseDistance { diag } => (Kernel::InverseDistance { diag: diag / s }, s),
        Kernel::Laplace { bandwidth } => (
            Kernel::Laplace {
                bandwidth: bandwidth * s,
            },
            1.0,
        ),
        Kernel::Cauchy { bandwidth } => (
            Kernel::Cauchy {
                bandwidth: bandwidth * s,
            },
            1.0,
        ),
    }
}

/// What a model serves, by label: the bits of its values times `unscale`,
/// and the length of its round-tripped image.
fn served(h: HMatrix, w: &Matrix, unscale: f64, solve: bool) -> Vec<(&'static str, Vec<u64>)> {
    let bits = |m: &Matrix| {
        m.as_slice()
            .iter()
            .map(|v| (v * unscale).to_bits())
            .collect()
    };
    let mut out = vec![("matmul", bits(&h.matmul(w).expect("matmul")))];
    if solve {
        // `K~ X = W`: the solution scales by `1 / unscale`.
        let x = h
            .factorize()
            .expect("factorize")
            .solve_matrix(w)
            .expect("solve");
        let back: Vec<u64> = x
            .as_slice()
            .iter()
            .map(|v| (v / unscale).to_bits())
            .collect();
        out.push(("solve_matrix", back));
    }
    let image = from_bytes(to_bytes(&h)).expect("the image reads back");
    out.push(("image length", vec![to_bytes(&image).len() as u64]));
    let session = EvalSession::from_hmatrix(h);
    out.push((
        "session evaluate",
        bits(&session.evaluate(w).expect("evaluate")),
    ));
    out
}

fn model(pts: &PointSet, kernel: &Kernel, structure: Structure) -> HMatrix {
    let params = MatRoxParams {
        structure,
        ..MatRoxParams::default()
    }
    .with_leaf_size(32);
    inspector(pts, kernel, &params).expect("inspector")
}

fn scaled(pts: &PointSet, s: f64) -> PointSet {
    PointSet::new(pts.dim(), pts.coords().iter().map(|x| x * s).collect())
}

#[test]
fn exact_scales_serve_and_solve_the_same_bits() {
    let pts = generate(DatasetId::Random, N, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let w = Matrix::random_uniform(N, Q, &mut rng);
    for structure in [Structure::h2b(), Structure::Hss] {
        for kernel in kernels() {
            let solve =
                structure == Structure::Hss && matches!(kernel, Kernel::GaussianRidge { .. });
            let base = served(model(&pts, &kernel, structure), &w, 1.0, solve);
            for k in EXPONENTS {
                let s = 2f64.powi(k);
                let (scaled_kernel, unscale) = scaled_kernel(&kernel, s);
                let h = model(&scaled(&pts, s), &scaled_kernel, structure);
                for ((what, want), (_, got)) in base.iter().zip(served(h, &w, unscale, solve)) {
                    assert!(
                        *want == got,
                        "{} {kernel:?}, scale 2^{k}: {what} moved",
                        structure.name()
                    );
                }
            }
        }
    }
}

/// A scale of 3 rounds every coordinate, so the served bits move: the law
/// above is not comparing a model with itself.
#[test]
fn an_inexact_scale_moves_the_bits() {
    let pts = generate(DatasetId::Random, N, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let w = Matrix::random_uniform(N, Q, &mut rng);
    let kernel = Kernel::Gaussian { bandwidth: 0.2 };
    for structure in [Structure::h2b(), Structure::Hss] {
        let base = model(&pts, &kernel, structure).matmul(&w).expect("matmul");
        let (kernel3, _) = scaled_kernel(&kernel, 3.0);
        let y = model(&scaled(&pts, 3.0), &kernel3, structure)
            .matmul(&w)
            .expect("matmul");
        let same =
            (base.as_slice().iter().zip(y.as_slice())).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            !same,
            "{}: a scale of 3 served the same bits",
            structure.name()
        );
    }
}
