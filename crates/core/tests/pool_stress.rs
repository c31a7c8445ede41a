//! Pool-stress tests for the parallel inspector: pathological grain and
//! node-count settings, and fault containment when a pool job dies in the
//! middle of the compression phase.
//!
//! Both tests run inspectors, and one of them arms the process-global
//! `compress-panic` failpoint, so they serialize on a mutex: an armed fire
//! must never be consumed by the sibling's innocent compression pass.

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: a process-wide Mutex serializing the two test functions — both run inspectors (and thus compression), and one arms the global `compress-panic` failpoint, so interleaving could misdeliver the fire"
)]

use matrox_core::{failpoint, inspector, EvalSession, MatRoxParams, MatroxError};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use std::sync::Mutex;

// Lock poisoning is expected (assertion failures unwind while holding the
// guard) and harmless: the guard protects no data, so `into_inner` is safe.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny_node_setup() -> (PointSet, Kernel, MatRoxParams) {
    let points = generate(DatasetId::Grid, 2048, 3);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    // leaf_size 2 on n = 2048 produces ~2k nodes, so every parallel phase
    // sees a work list three orders of magnitude wider than the pool.
    let params = MatRoxParams::h2b().with_bacc(1e-3).with_leaf_size(2);
    (points, kernel, params)
}

/// grain = 1 on thousands of near-empty nodes: the scheduler floods the
/// pool with minimal work items and the output must still match the
/// auto-grain build bit for bit.
#[test]
fn grain_one_with_thousands_of_tiny_nodes_is_bitwise_stable() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (points, kernel, params) = tiny_node_setup();

    let auto = inspector(&points, &kernel, &params).expect("auto-grain inspector");
    assert!(
        auto.tree.nodes.len() > 1000,
        "stress setup is not stressful: only {} nodes",
        auto.tree.nodes.len()
    );
    let fine = inspector(&points, &kernel, &params.with_grain(1)).expect("grain-1 inspector");
    assert_eq!(
        matrox_core::to_bytes(&auto),
        matrox_core::to_bytes(&fine),
        "grain 1 changed the serialized image on a {}-node tree",
        auto.tree.nodes.len()
    );

    // The flood-scheduled plan still evaluates.
    let w = Matrix::filled(points.len(), 3, 0.5);
    let y = fine.matmul(&w).expect("matmul");
    assert!(y.as_slice().iter().all(|v| v.is_finite()));
}

/// A panic injected into a compression pool job surfaces as `PoolPanic`
/// at the inspector boundary — the call returns instead of hanging the
/// pool — and the process stays usable: a clean rebuild succeeds and is
/// bitwise identical to a pre-fault baseline.
#[test]
fn compression_panic_is_contained_and_leaves_the_process_usable() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let points = generate(DatasetId::Grid, 512, 0);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    let params = MatRoxParams::hss().with_bacc(1e-5).with_leaf_size(32);

    let baseline = EvalSession::build(&points, &kernel, &params).expect("baseline session");
    let w = Matrix::filled(points.len(), 2, 1.0);
    let y_baseline = baseline.evaluate(&w).expect("baseline evaluate");

    failpoint::set(failpoint::names::COMPRESS_PANIC, 1);
    let err = EvalSession::build(&points, &kernel, &params)
        .expect_err("injected compression panic must fail the build");
    assert!(
        !failpoint::armed(failpoint::names::COMPRESS_PANIC),
        "the failpoint should have fired exactly once"
    );
    match &err {
        MatroxError::PoolPanic(msg) => assert!(
            msg.contains(failpoint::names::COMPRESS_PANIC),
            "panic payload should be preserved: {msg}"
        ),
        other => panic!("wrong error: {other:?}"),
    }

    // The pool survived the contained panic: a clean rebuild works and
    // reproduces the baseline bitwise.
    let rebuilt = EvalSession::build(&points, &kernel, &params).expect("rebuild after fault");
    let y_rebuilt = rebuilt.evaluate(&w).expect("evaluate after fault");
    assert_eq!(y_rebuilt.as_slice(), y_baseline.as_slice());
}
