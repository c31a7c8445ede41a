//! End-to-end fault-injection tests driven by the `matrox_core::failpoint`
//! harness — the deterministic twin of the CI leg that runs the suite with
//! `MATROX_FAILPOINT` set.
//!
//! The failpoint registry is process-global, so these tests live in their
//! own integration binary and are arranged so no two test functions touch
//! the same injection *operation*: one factorizes, one evaluates, one
//! loads.  Within a function, scenarios run sequentially with bounded
//! counts, so a concurrently running sibling cannot consume another test's
//! armed fire.

use matrox_core::{failpoint, inspector, EvalSession, MatRoxParams, MatroxError};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use std::path::PathBuf;

fn spd_setup() -> (PointSet, Kernel, MatRoxParams) {
    let points = generate(DatasetId::Grid, 256, 0);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.125,
        ridge: 8.0,
    };
    let params = MatRoxParams::hss().with_bacc(1e-6).with_leaf_size(32);
    (points, kernel, params)
}

/// A forced Cholesky breakdown is absorbed by the ridge-escalation retry:
/// the factorization succeeds with a recorded shift, the solve recovers,
/// and exhausting the retry budget surfaces `NumericalBreakdown`.
#[test]
fn chol_breakdown_is_recovered_by_ridge_escalation() {
    let (points, kernel, params) = spd_setup();
    let session = EvalSession::build(&points, &kernel, &params).expect("session build");
    let b = vec![1.0; points.len()];

    // Baseline: no failpoint, no ridge needed.
    let clean = session.factorize().expect("clean factorize");
    assert_eq!(clean.factor.timings.ridge_attempts, 0);
    assert_eq!(clean.factor.timings.applied_ridge, 0.0);
    let x_clean = clean.solve(&b).expect("clean solve");

    // One forced breakdown: the first attempt fails, the retry applies the
    // initial ridge and succeeds; the recovery is visible in the factor
    // timings and in the session statistics.
    failpoint::set(failpoint::names::CHOL_BREAKDOWN, 1);
    let recovered = session
        .factorize()
        .expect("ridge escalation must recover a forced breakdown");
    assert!(!failpoint::armed(failpoint::names::CHOL_BREAKDOWN));
    assert_eq!(recovered.factor.timings.ridge_attempts, 1);
    assert!(recovered.factor.timings.applied_ridge > 0.0);
    assert_eq!(session.stats().ridge_attempts, 1);

    // The recovered factor still solves: the shift is ~1e-8 * |K|, so the
    // solution stays close to the clean one.
    let x_rec = recovered.solve(&b).expect("recovered solve");
    assert_eq!(x_rec.len(), x_clean.len());
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (a, b) in x_rec.iter().zip(&x_clean) {
        assert!(a.is_finite());
        diff += (a - b) * (a - b);
        norm += b * b;
    }
    assert!(
        diff.sqrt() <= 1e-5 * norm.sqrt(),
        "ridge-recovered solution drifted: rel err {:e}",
        diff.sqrt() / norm.sqrt()
    );

    // Breakdown on every attempt: the escalation budget (initial try + 3
    // retries) is exhausted and the call reports NumericalBreakdown.
    failpoint::set(failpoint::names::CHOL_BREAKDOWN, u64::MAX);
    let err = session.factorize().expect_err("budget exhausted");
    failpoint::clear(failpoint::names::CHOL_BREAKDOWN);
    assert!(
        matches!(err, MatroxError::NumericalBreakdown(_)),
        "wrong error: {err:?}"
    );
    assert!(err.to_string().contains("ridge"), "message: {err}");

    // The failures left the session usable and deterministic.
    let x_again = session
        .factorize()
        .expect("factorize after failures")
        .solve(&b)
        .expect("solve after failures");
    assert_eq!(x_again, x_clean);
}

/// An injected pool-job panic is contained at the session boundary as
/// `PoolPanic`, an injected NaN in the output surfaces as
/// `NumericalBreakdown`, and neither poisons subsequent evaluations.
#[test]
fn evaluation_faults_are_contained_and_do_not_poison_the_session() {
    let points = generate(DatasetId::Grid, 512, 0);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(64);
    let session = EvalSession::build(&points, &kernel, &params).expect("session build");
    let w = Matrix::filled(points.len(), 4, 1.0);
    let baseline = session.evaluate(&w).expect("baseline evaluate");

    failpoint::set(failpoint::names::EVAL_PANIC, 1);
    let err = session.evaluate(&w).expect_err("injected panic");
    assert!(!failpoint::armed(failpoint::names::EVAL_PANIC));
    match &err {
        MatroxError::PoolPanic(msg) => assert!(
            msg.contains(failpoint::names::EVAL_PANIC),
            "payload should be preserved: {msg}"
        ),
        other => panic!("wrong error: {other:?}"),
    }

    failpoint::set(failpoint::names::EVAL_POISON, 1);
    let err = session.evaluate(&w).expect_err("injected NaN");
    assert!(!failpoint::armed(failpoint::names::EVAL_POISON));
    assert!(
        matches!(err, MatroxError::NumericalBreakdown(_)),
        "wrong error: {err:?}"
    );

    // Contained faults are visible in the statistics but do not count as
    // evaluations, and the next clean call is bitwise identical.
    let stats = session.stats();
    assert_eq!(stats.contained_panics, 1);
    assert_eq!(stats.evaluations, 1);
    let again = session.evaluate(&w).expect("evaluate after faults");
    assert_eq!(again.as_slice(), baseline.as_slice());
    assert_eq!(session.stats().evaluations, 2);
}

/// End-to-end proof of the `MATROX_FAILPOINT` *environment* path: run with
/// `MATROX_FAILPOINT=chol-breakdown=1` (the CI fault-injection leg does),
/// and the armed breakdown must be recovered by ridge escalation without
/// any programmatic arming.  Ignored by default because it requires the
/// environment to be set before the process starts.
#[test]
#[ignore = "requires MATROX_FAILPOINT=chol-breakdown=1 in the environment (CI fault-injection leg)"]
fn env_armed_chol_breakdown_is_recovered() {
    assert_eq!(
        std::env::var("MATROX_FAILPOINT").as_deref(),
        Ok("chol-breakdown=1"),
        "run this test with MATROX_FAILPOINT=chol-breakdown=1"
    );
    let (points, kernel, params) = spd_setup();
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let recovered = h
        .factorize()
        .expect("env-armed breakdown must be recovered by ridge escalation");
    assert_eq!(recovered.factor.timings.ridge_attempts, 1);
    assert!(recovered.factor.timings.applied_ridge > 0.0);
    let x = recovered
        .solve(&vec![1.0; points.len()])
        .expect("recovered solve");
    assert!(x.iter().all(|v| v.is_finite()));
}

/// The `io-truncate` / `io-flip` failpoints corrupt the stream between the
/// filesystem and the parser; the hardened reader rejects both with
/// `Format` and an un-corrupted reload still round-trips.
#[test]
fn io_failpoints_exercise_the_hardened_reader() {
    let (points, kernel, params) = spd_setup();
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let dir = std::env::temp_dir().join("matrox_failpoints_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path: PathBuf = dir.join("model.cds");
    matrox_core::save(&h, &path).expect("save");

    failpoint::set(failpoint::names::IO_TRUNCATE, 1);
    let err = matrox_core::load(&path).expect_err("truncated stream");
    assert!(!failpoint::armed(failpoint::names::IO_TRUNCATE));
    assert!(
        matches!(err, MatroxError::Format(_)),
        "wrong error: {err:?}"
    );

    // A single flipped bit mid-stream either fails structural validation
    // (`Format`) or lands in a value payload — in which case the parse must
    // be lossless: re-encoding reproduces the corrupted stream exactly (the
    // corruption-fuzz suite sweeps this property over every byte).
    failpoint::set(failpoint::names::IO_FLIP, 1);
    let flip_result = matrox_core::load(&path);
    assert!(!failpoint::armed(failpoint::names::IO_FLIP));
    match flip_result {
        Err(MatroxError::Format(_)) => {}
        Err(other) => panic!("wrong error for a flipped stream: {other:?}"),
        Ok(h2) => {
            let mut flipped = std::fs::read(&path).expect("reread");
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x01;
            assert_eq!(
                matrox_core::to_bytes(&h2),
                flipped,
                "accepted a corrupted stream without representing it losslessly"
            );
        }
    }

    // Disarmed, the same file loads and re-encodes identically.
    let reloaded = matrox_core::load(&path).expect("clean reload");
    assert_eq!(matrox_core::to_bytes(&reloaded), matrox_core::to_bytes(&h));
    std::fs::remove_file(&path).ok();
}
