//! Cross-crate integration tests: the full inspector/executor pipeline
//! against exact dense products, agreement between every evaluation strategy,
//! serialization, and inspector reuse.

use matrox::baselines::{DenseBaseline, GofmmEvaluator, SmashEvaluator, StrumpackEvaluator};
use matrox::compress::{compress, reference_evaluate, CompressionParams};
use matrox::linalg::{relative_error, KernelChoice, KernelDispatch};
use matrox::points::dense_kernel_matmul;
use matrox::sampling::sample_nodes;
use matrox::tree::{ClusterTree, HTree};
use matrox::{
    generate, inspector, inspector_p1, inspector_p2, DatasetId, ExecOptions, Kernel, MatRoxParams,
    Matrix, Structure,
};
use matrox_bench::solve_setting;
use rand::SeedableRng;

fn rhs(n: usize, q: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::random_uniform(n, q, &mut rng)
}

#[test]
fn hmatrix_matches_dense_product_on_all_structures() {
    let n = 1024;
    let points = generate(DatasetId::Grid, n, 0);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let w = rhs(n, 8, 1);
    let exact = dense_kernel_matmul(&points, &kernel, &w);
    for structure in [
        Structure::Hss,
        Structure::h2b(),
        Structure::Geometric { tau: 0.65 },
    ] {
        let params = MatRoxParams {
            structure,
            bacc: 1e-6,
            ..MatRoxParams::default()
        }
        .with_leaf_size(64);
        let h = inspector(&points, &kernel, &params).expect("inspector");
        let y = h.matmul(&w).expect("matmul");
        let err = relative_error(&y, &exact);
        assert!(err < 5e-2, "{} structure: error {err}", structure.name());
    }
}

#[test]
fn all_evaluation_strategies_agree_exactly() {
    // Same compression -> every evaluator must produce the same Y, bit-for-bit
    // up to floating-point associativity.
    let n = 1024;
    let points = generate(DatasetId::Unit, n, 3);
    let kernel = Kernel::smash_default();
    let params = MatRoxParams::smash_setting().with_leaf_size(64);
    let tree = ClusterTree::build(&points, params.partition, params.leaf_size, params.seed);
    let htree = HTree::build(&tree, params.structure);
    let sampling = sample_nodes(&points, &tree, &kernel, &params.sampling);
    let c = compress(
        &points,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: 1e-6,
            max_rank: 256,
            grain: 0,
        },
    );
    let w = rhs(n, 4, 2);
    let y_ref = reference_evaluate(&c, &tree, &htree, &w);

    // MatRox executor through the public API.
    let p1 = inspector_p1(&points, &kernel, &params).expect("inspector p1");
    let h = inspector_p2(&points, &p1, &kernel, 1e-6).expect("inspector p2");
    // Note: p1/p2 rebuild compression internally with the same inputs, so the
    // result must agree with the reference built above to the compression
    // accuracy (not bit-exactly, because sampling RNG streams are identical
    // but rayon summation order differs).
    let y_matrox = h.matmul(&w).expect("matmul");
    assert!(relative_error(&y_matrox, &y_ref) < 1e-10);

    // Baselines over the same compression object.
    let gofmm = GofmmEvaluator::new(&tree, &htree, &c);
    assert!(relative_error(&gofmm.evaluate(&w), &y_ref) < 1e-12);
    assert!(relative_error(&gofmm.evaluate_sequential(&w), &y_ref) < 1e-12);

    let smash = SmashEvaluator::new(&tree, &htree, &c, points.dim()).unwrap();
    let wv: Vec<f64> = (0..n).map(|i| w.get(i, 0)).collect();
    let y_smash = smash.evaluate(&wv);
    let w1 = Matrix::from_vec(n, 1, wv);
    let y_ref1 = reference_evaluate(&c, &tree, &htree, &w1);
    let err: f64 = y_smash
        .iter()
        .enumerate()
        .map(|(i, v)| (v - y_ref1.get(i, 0)).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(err < 1e-10 * (1.0 + matrox::linalg::frobenius_norm(&y_ref1)));
}

#[test]
fn strumpack_baseline_agrees_on_hss() {
    let n = 1024;
    let points = generate(DatasetId::Sunflower, n, 4);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let params = MatRoxParams::hss().with_leaf_size(64);
    let tree = ClusterTree::build(&points, params.partition, params.leaf_size, params.seed);
    let htree = HTree::build(&tree, Structure::Hss);
    let sampling = sample_nodes(&points, &tree, &kernel, &params.sampling);
    let c = compress(
        &points,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: 1e-6,
            max_rank: 256,
            grain: 0,
        },
    );
    let w = rhs(n, 3, 5);
    let y_ref = reference_evaluate(&c, &tree, &htree, &w);
    let strumpack = StrumpackEvaluator::new(&tree, &htree, &c).unwrap();
    assert!(relative_error(&strumpack.evaluate(&w), &y_ref) < 1e-12);
}

#[test]
fn executor_ablations_are_numerically_identical_through_public_api() {
    let n = 1024;
    let points = generate(DatasetId::Higgs, n, 1);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let h =
        inspector(&points, &kernel, &MatRoxParams::h2b().with_leaf_size(64)).expect("inspector");
    let w = rhs(n, 4, 7);
    let seq = h
        .matmul_with(&w, &ExecOptions::sequential())
        .expect("matmul");
    let full = h.matmul_with(&w, &ExecOptions::full()).expect("matmul");
    let plan = h.matmul(&w).expect("matmul");
    assert!(relative_error(&full, &seq) < 1e-12);
    assert!(relative_error(&plan, &seq) < 1e-12);
}

#[test]
fn compression_ratio_exceeds_one_at_moderate_size() {
    let n = 4096;
    let points = generate(DatasetId::Grid, n, 2);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let h = inspector(&points, &kernel, &MatRoxParams::hss()).expect("inspector");
    assert!(
        h.compression_ratio() > 2.0,
        "compression ratio {} too small at N = {n}",
        h.compression_ratio()
    );
}

#[test]
fn serialization_roundtrip_through_facade() {
    let n = 512;
    let points = generate(DatasetId::Pen, n, 9);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let h =
        inspector(&points, &kernel, &MatRoxParams::h2b().with_leaf_size(32)).expect("inspector");
    let bytes = matrox::core::to_bytes(&h);
    let h2 = matrox::core::from_bytes(bytes).unwrap();
    let w = rhs(n, 2, 11);
    assert!(
        relative_error(
            &h2.matmul(&w).expect("matmul"),
            &h.matmul(&w).expect("matmul")
        ) < 1e-14
    );
}

#[test]
fn inspector_reuse_changes_accuracy_without_p1() {
    let n = 1024;
    let points = generate(DatasetId::Dino, n, 6);
    let kernel = Kernel::smash_default();
    let params = MatRoxParams::smash_setting().with_leaf_size(64);
    let p1 = inspector_p1(&points, &kernel, &params).expect("inspector p1");
    let w = rhs(n, 4, 13);
    let exact = dense_kernel_matmul(&points, &kernel, &w);
    let mut errors = Vec::new();
    for bacc in [1e-2, 1e-5] {
        let h = inspector_p2(&points, &p1, &kernel, bacc).expect("inspector p2");
        errors.push(relative_error(&h.matmul(&w).expect("matmul"), &exact));
    }
    assert!(
        errors[1] <= errors[0],
        "tighter bacc must not be less accurate: {errors:?}"
    );
}

#[test]
fn q_column_counts_from_one_to_many_work() {
    let n = 512;
    let points = generate(DatasetId::Random, n, 8);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let h =
        inspector(&points, &kernel, &MatRoxParams::h2b().with_leaf_size(32)).expect("inspector");
    for q in [1usize, 3, 17, 64] {
        let w = rhs(n, q, q as u64);
        let y = h.matmul(&w).expect("matmul");
        assert_eq!(y.shape(), (n, q));
    }
    // matvec helper agrees with Q = 1 matmul
    let w = rhs(n, 1, 99);
    let y1 = h.matmul(&w).expect("matmul");
    let yv = h.matvec(w.as_slice()).expect("matvec");
    assert_eq!(yv.len(), n);
    for (i, &yvi) in yv.iter().enumerate() {
        assert!((y1.get(i, 0) - yvi).abs() < 1e-12);
    }
}

#[test]
fn dense_baseline_matches_hmatrix_within_accuracy() {
    let n = 768;
    let points = generate(DatasetId::Hepmass, n, 12);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let h = inspector(
        &points,
        &kernel,
        &MatRoxParams::h2b().with_bacc(1e-7).with_leaf_size(64),
    )
    .expect("inspector");
    let dense = DenseBaseline::new(&points, kernel);
    let w = rhs(n, 4, 17);
    let err = relative_error(
        &h.matmul(&w).expect("matmul"),
        &dense.evaluate_assembled(&w),
    );
    assert!(err < 1e-2, "error vs dense {err}");
}

/// The factor and the solve run on the kernel their options name, as the
/// executor does: under `with_kernel(Scalar)` both return other bits than
/// under `with_kernel(Avx2)`, while the two SIMD arms (`Auto` on an AVX-512
/// host, and `Avx2`) return the same ones.  Skips where `Avx2` resolves to
/// the scalar arm (Miri, or a host without AVX2+FMA).
#[test]
fn factor_and_solve_run_on_the_kernel_their_options_name() {
    if !KernelDispatch::resolve(KernelChoice::Avx2).is_simd() {
        println!("avx2 resolves to scalar here: one arm, nothing to compare");
        return;
    }
    let n = 512;
    let points = generate(DatasetId::Grid, n, 3);
    let (kernel, params) = solve_setting(n, 1e-7);
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let b = rhs(n, 3, 5);
    let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let opts = |kernel| ExecOptions::full().with_kernel(kernel);
    let factor_bits = |kernel| {
        let f = h.factorize_with(&opts(kernel)).expect("factor").factor;
        let leaves = f.leaves.into_iter().flatten();
        let parts = leaves.flat_map(|l| [l.chol, l.e]);
        let parts = parts.chain(f.merges.into_iter().flatten().flat_map(|m| [m.lu.lu, m.t]));
        parts.flat_map(|m| bits(&m)).collect::<Vec<_>>()
    };
    let on_avx2 = h.factorize_with(&opts(KernelChoice::Avx2)).expect("factor");
    let solve_bits = |kernel| bits(&on_avx2.solve_matrix_with(&b, &opts(kernel)).expect("solve"));
    assert_ne!(
        factor_bits(KernelChoice::Scalar),
        factor_bits(KernelChoice::Avx2),
        "the factor ignored with_kernel(Scalar)"
    );
    assert_ne!(
        solve_bits(KernelChoice::Scalar),
        solve_bits(KernelChoice::Avx2),
        "the solve ignored with_kernel(Scalar)"
    );
    if KernelDispatch::for_choice(KernelChoice::Auto).is_simd() {
        assert!(factor_bits(KernelChoice::Auto) == factor_bits(KernelChoice::Avx2));
        assert!(solve_bits(KernelChoice::Auto) == solve_bits(KernelChoice::Avx2));
    }
}
