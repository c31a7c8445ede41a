//! Property-based robustness tests: poisoned inputs (NaN/Inf in a
//! right-hand side or a point set) must surface as
//! [`MatroxError::InvalidInput`] — never a panic, never a silently wrong
//! answer — and a rejected request must leave the session in a state where
//! the next clean call returns bit-for-bit the same result it would have
//! without the rejection.  A model that panics the executor or the solver,
//! or makes them produce NaN, fails the request the same way
//! (`PoolPanic` / `NumericalBreakdown`) on every evaluate and solve entry
//! point.  A model image whose block-entry flag is corrupt is a `Format`
//! error.

use matrox::core::io::{from_bytes, to_bytes};
use matrox::core::MatroxError;
use matrox::{
    generate, inspector, DatasetId, EvalSession, HMatrix, Kernel, MatRoxParams, Matrix, PointSet,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 128;
const Q: usize = 4;

/// One session + its clean-baseline answer, built once: session
/// construction dominates the per-case cost and the properties under test
/// are about the session's behavior *after* construction.
fn shared_session() -> &'static (EvalSession, Matrix) {
    static SESSION: OnceLock<(EvalSession, Matrix)> = OnceLock::new();
    SESSION.get_or_init(|| {
        let points = generate(DatasetId::Grid, N, 0);
        let kernel = Kernel::Gaussian { bandwidth: 2.0 };
        let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
        let session = EvalSession::build(&points, &kernel, &params).expect("session build");
        let w = clean_rhs(1.0);
        let baseline = session.evaluate(&w).expect("baseline evaluate");
        (session, baseline)
    })
}

fn clean_rhs(scale: f64) -> Matrix {
    let mut w = Matrix::zeros(N, Q);
    for i in 0..N {
        for j in 0..Q {
            w.set(i, j, scale * ((i + 1) as f64) / ((j + 2) as f64));
        }
    }
    w
}

fn arb_poison() -> impl Strategy<Value = f64> {
    (0usize..3).prop_map(|k| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single poisoned RHS entry, anywhere, is rejected as InvalidInput
    /// and the very next clean evaluation is bitwise identical to the
    /// pre-rejection baseline.
    #[test]
    fn poisoned_rhs_is_rejected_and_does_not_poison_the_session(
        row in 0usize..N,
        col in 0usize..Q,
        poison in arb_poison(),
    ) {
        let (session, baseline) = shared_session();
        let mut w = clean_rhs(1.0);
        w.set(row, col, poison);
        let err = session.evaluate(&w).expect_err("poisoned RHS must be rejected");
        prop_assert!(
            matches!(err, MatroxError::InvalidInput(_)),
            "wrong error for poisoned RHS: {err:?}"
        );
        let again = session.evaluate(&clean_rhs(1.0)).expect("clean evaluate");
        prop_assert_eq!(again.as_slice(), baseline.as_slice());
    }

    /// A wrong-shaped RHS is rejected the same way.
    #[test]
    fn mis_shaped_rhs_is_rejected(
        rows in (1usize..256).prop_map(|r| if r == N { N + 1 } else { r }),
    ) {
        let (session, baseline) = shared_session();
        let err = session
            .evaluate(&Matrix::filled(rows, Q, 1.0))
            .expect_err("mis-shaped RHS must be rejected");
        prop_assert!(matches!(err, MatroxError::InvalidInput(_)));
        let again = session.evaluate(&clean_rhs(1.0)).expect("clean evaluate");
        prop_assert_eq!(again.as_slice(), baseline.as_slice());
    }

    /// A point set with one poisoned coordinate is rejected by the
    /// inspector (and therefore by session construction) as InvalidInput,
    /// and inspecting the clean twin of the same set still succeeds.
    #[test]
    fn poisoned_point_sets_are_rejected_by_the_inspector(
        n in 16usize..96,
        dim in 1usize..4,
        index_seed in 0usize..4096,
        poison in arb_poison(),
    ) {
        let kernel = Kernel::Gaussian { bandwidth: 2.0 };
        let params = MatRoxParams::h2b().with_bacc(1e-4).with_leaf_size(16);
        let mut coords: Vec<f64> = (0..n * dim).map(|i| (i % 17) as f64 * 0.25).collect();
        inspector(&PointSet::new(dim, coords.clone()), &kernel, &params)
            .expect("clean point set must inspect");
        let poison_at = index_seed % coords.len();
        coords[poison_at] = poison;
        let err = inspector(&PointSet::new(dim, coords), &kernel, &params)
            .expect_err("poisoned point set must be rejected");
        prop_assert!(
            matches!(err, MatroxError::InvalidInput(_)),
            "wrong error for poisoned points: {err:?}"
        );
    }
}

/// Finite coordinates whose squared distances overflow — a covtype-like set
/// or a grid scaled by 1e160 — are rejected up front as InvalidInput under
/// both structures, instead of a split key turning into `inf - inf` inside
/// the tree build (a contained panic) or the model holding infinite
/// distances.  The same sets at 1e100 still inspect.
#[test]
fn points_whose_distances_overflow_are_rejected() {
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    for base in [
        generate(DatasetId::Covtype, 512, 1),
        generate(DatasetId::Grid, 512, 1),
    ] {
        let scaled =
            |s: f64| PointSet::new(base.dim(), base.coords().iter().map(|x| x * s).collect());
        for params in [MatRoxParams::h2b(), MatRoxParams::hss()] {
            let err = inspector(&scaled(1e160), &kernel, &params)
                .expect_err("overflowing distances must be rejected");
            assert!(
                matches!(err, MatroxError::InvalidInput(_)),
                "wrong error: {err:?}"
            );
        }
        inspector(&scaled(1e100), &kernel, &MatRoxParams::h2b()).expect("finite distances inspect");
    }
}

/// A small ridge-regularized HSS model (it factors).
fn hss_model() -> &'static HMatrix {
    static MODEL: OnceLock<HMatrix> = OnceLock::new();
    MODEL.get_or_init(|| {
        let points = generate(DatasetId::Grid, N, 0);
        let kernel = Kernel::GaussianRidge {
            bandwidth: 0.125,
            ridge: 8.0,
        };
        let params = MatRoxParams::hss().with_bacc(1e-3).with_leaf_size(16);
        inspector(&points, &kernel, &params).expect("inspector")
    })
}

/// A plan whose near groups no longer tile the near entries makes the
/// executor panic; `matmul` contains it instead of unwinding.
#[test]
fn an_executor_panic_comes_back_as_pool_panic() {
    let h = hss_model();
    let w = clean_rhs(1.0);
    let mut broken = h.clone();
    let last = broken.plan.cds.d_groups.len() - 1;
    broken.plan.cds.d_groups[last].end -= 1;
    let got = broken.matmul(&w);
    assert!(matches!(got, Err(MatroxError::PoolPanic(_))), "{got:?}");
    // The clean model is untouched by the contained panic.
    h.matmul(&w).expect("clean matmul");
}

/// A NaN in a stored near block reaches the output of every evaluation
/// path; each reports it as `NumericalBreakdown` instead of `Ok` with NaN.
#[test]
fn a_non_finite_evaluation_is_a_numerical_breakdown() {
    let w = clean_rhs(1.0);
    let mut poisoned = hss_model().clone();
    poisoned.plan.cds.d_values[0] = f64::NAN;
    let got = poisoned.matmul(&w);
    assert!(
        matches!(got, Err(MatroxError::NumericalBreakdown(_))),
        "matmul: {got:?}"
    );
    let session = EvalSession::from_hmatrix(poisoned);
    let got = session.evaluate(&w);
    assert!(
        matches!(got, Err(MatroxError::NumericalBreakdown(_))),
        "evaluate: {got:?}"
    );
    assert_eq!(session.stats().evaluations, 0);
}

/// A NaN off the diagonal of a leaf's `D_i^{-1}` (which factor validation
/// does not look at) poisons the solution; `solve` reports it as
/// `NumericalBreakdown`.
#[test]
fn a_non_finite_solve_is_a_numerical_breakdown() {
    let mut factored = hss_model().factorize().expect("factorize");
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.3).cos()).collect();
    factored.solve(&b).expect("clean solve");
    let nodes = &factored.hmatrix.tree.nodes;
    let leaf = nodes.iter().position(|n| n.is_leaf()).expect("a leaf");
    let dinv = &mut factored.factor.nodes[leaf].inv;
    assert!(
        dinv.rows() >= 2,
        "leaf too small to have an off-diagonal part"
    );
    dinv.set(1, 0, f64::NAN);
    let got = factored.solve(&b);
    assert!(
        matches!(got, Err(MatroxError::NumericalBreakdown(_))),
        "{got:?}"
    );
}

/// The block-entry flag byte takes 0 (stored) or 1 (transposed twin) only;
/// a reader handed any other value reports a corrupt model.  The byte is
/// located as the one that differs between the images of a model and of
/// its copy with the first coupling entry's flag flipped.
#[test]
fn a_reserved_block_flag_byte_is_a_format_error() {
    let h = hss_model();
    let image = to_bytes(h);
    let mut flipped = h.clone();
    let e = &mut flipped.plan.cds.b_entries[0];
    assert!(!e.transposed && e.target != e.source);
    e.transposed = true;
    let other = to_bytes(&flipped);
    assert_eq!(image.len(), other.len());
    let mut diff = (0..image.len()).filter(|&i| image[i] != other[i]);
    let at = diff.next().expect("the flag byte");
    assert_eq!((diff.next(), image[at], other[at]), (None, 0, 1));
    from_bytes(&other).expect("a transposed off-diagonal entry is well formed");
    let mut corrupt = image;
    corrupt[at] = 2;
    let got = from_bytes(&corrupt);
    assert!(
        matches!(&got, Err(MatroxError::Format(m)) if m.contains("reserved block flag")),
        "{got:?}"
    );
}

/// A diagonal near block cannot be anyone's twin: a model marking one
/// transposed fails validation, at the reader as everywhere else.
#[test]
fn a_transposed_diagonal_block_is_a_format_error() {
    let mut broken = hss_model().clone();
    broken.plan.cds.d_entries[0].transposed = true;
    let got = from_bytes(to_bytes(&broken));
    assert!(
        matches!(&got, Err(MatroxError::Format(m)) if m.contains("diagonal but marked transposed")),
        "{got:?}"
    );
}
