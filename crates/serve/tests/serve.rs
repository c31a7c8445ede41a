//! Serving-layer correctness: coalesced responses are bitwise identical to
//! per-query evaluation, the registry honors its memory budget with LRU
//! eviction, and a failed batch retries query-by-query so poison inputs
//! only fail their own query.

use matrox_core::{inspector, save, EvalSession, MatRoxParams, MatroxError};
use matrox_points::{generate, DatasetId, Kernel};
use matrox_serve::{Model, Op, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn matvec_session(n: usize, seed: u64) -> EvalSession {
    let points = generate(DatasetId::Grid, n, seed);
    let kernel = Kernel::Gaussian { bandwidth: 2.0 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
    EvalSession::build(&points, &kernel, &params).expect("clean inputs")
}

/// Deterministic, query-distinct right-hand side.
fn rhs(n: usize, j: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 31 + j * 7 + 1) as f64).sin())
        .collect()
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn coalesced_matvec_replies_are_bitwise_identical_to_per_query() {
    let n = 256;
    let session = matvec_session(n, 11);
    let reference = session.clone();

    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(8)
            .with_coalesce_window(Duration::from_millis(100)),
    )
    .expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");

    let pending: Vec<_> = (0..8).map(|j| handle.query("m", "t", rhs(n, j))).collect();
    for (j, p) in pending.into_iter().enumerate() {
        let reply = p.wait().expect("served");
        // The whole point of coalescing being safe: the batched answer is
        // the bitwise-identical answer the query would have gotten alone.
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(bitwise_eq(&reply.y, &expected), "column {j} differs");
        assert_eq!(reply.batch_width, 8, "all 8 queries coalesced into one");
    }

    let stats = server.shutdown().expect("shutdown");
    let t = stats.tenant("t").expect("tenant recorded");
    assert_eq!(t.queries, 8);
    assert_eq!(t.batches, 1);
    assert_eq!(t.errors, 0);
    assert!((t.mean_batch_width() - 8.0).abs() < 1e-12);
    assert_eq!(stats.sessions.queries, 8);
    assert_eq!(stats.sessions.evaluations, 1);
}

#[test]
fn coalesced_solve_replies_are_bitwise_identical_to_per_query() {
    let n = 256;
    let points = generate(DatasetId::Grid, n, 3);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.125,
        ridge: 8.0,
    };
    let params = MatRoxParams::hss().with_bacc(1e-6).with_leaf_size(32);
    let factored = Arc::new(
        inspector(&points, &kernel, &params)
            .expect("clean inputs")
            .factorize()
            .expect("SPD"),
    );

    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(4)
            .with_coalesce_window(Duration::from_millis(100)),
    )
    .expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("ridge", Model::Solve(factored.clone()))
        .expect("insert");

    let pending: Vec<_> = (0..4)
        .map(|j| handle.solve("ridge", "t", rhs(n, j)))
        .collect();
    for (j, p) in pending.into_iter().enumerate() {
        let reply = p.wait().expect("served");
        let expected = factored.solve(&rhs(n, j)).expect("reference");
        assert!(bitwise_eq(&reply.y, &expected), "solve column {j} differs");
        assert_eq!(reply.batch_width, 4);
    }
}

#[test]
fn op_model_mismatch_is_a_plan_mismatch_error() {
    let n = 128;
    let session = matvec_session(n, 5);
    let server = Server::spawn(ServeConfig::default().with_max_batch(1)).expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");
    let err = handle
        .solve("m", "t", rhs(n, 0))
        .wait()
        .expect_err("solve on matvec model");
    assert!(matches!(err, MatroxError::PlanMismatch(_)), "got {err}");
}

#[test]
fn unknown_model_and_bad_shape_fail_only_their_own_query() {
    let n = 128;
    let session = matvec_session(n, 7);
    let reference = session.clone();
    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(4)
            .with_coalesce_window(Duration::from_millis(50)),
    )
    .expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");

    // Unknown model: clean error, server keeps serving.
    let err = handle
        .query_wait("nope", "t", rhs(n, 0))
        .expect_err("unknown model");
    assert!(matches!(err, MatroxError::InvalidInput(_)), "got {err}");

    // One short RHS coalesced with three good ones: the short one is
    // rejected before the batch is assembled, the good ones are served.
    let bad = handle.query("m", "t", vec![1.0; n - 3]);
    let good: Vec<_> = (0..3).map(|j| handle.query("m", "t", rhs(n, j))).collect();
    let err = bad.wait().expect_err("short rhs");
    assert!(matches!(err, MatroxError::InvalidInput(_)), "got {err}");
    for (j, p) in good.into_iter().enumerate() {
        let reply = p.wait().expect("served despite the bad neighbor");
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(bitwise_eq(&reply.y, &expected));
    }
}

#[test]
fn poison_rhs_fails_alone_after_batch_retry() {
    let n = 128;
    let session = matvec_session(n, 9);
    let reference = session.clone();
    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(4)
            .with_coalesce_window(Duration::from_millis(50)),
    )
    .expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");

    // A NaN column poisons the whole assembled panel (the session screens
    // the full batch), so the reactor must fall back to per-query retries:
    // only the poisoned query fails.
    let mut poison = rhs(n, 0);
    poison[n / 2] = f64::NAN;
    let bad = handle.query("m", "t", poison);
    let good: Vec<_> = (1..4).map(|j| handle.query("m", "t", rhs(n, j))).collect();

    let err = bad.wait().expect_err("poison rhs");
    assert!(matches!(err, MatroxError::InvalidInput(_)), "got {err}");
    for (j, p) in good.into_iter().enumerate() {
        let reply = p.wait().expect("served despite the poisoned neighbor");
        let expected = reference.evaluate_vec(&rhs(n, j + 1)).expect("reference");
        assert!(bitwise_eq(&reply.y, &expected), "column {j} differs");
        assert_eq!(reply.batch_width, 1, "served via individual retry");
    }

    let stats = server.shutdown().expect("shutdown");
    let t = stats.tenant("t").expect("tenant recorded");
    assert_eq!(t.errors, 1);
    assert_eq!(t.retried_queries, 4, "whole failed batch retried");
    assert!(stats.sessions.invalid_inputs >= 1);
}

#[test]
fn lru_eviction_honors_the_memory_budget_and_reloads_from_disk() {
    let n = 256;
    let dir = std::env::temp_dir().join(format!("matrox-serve-lru-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut paths: Vec<PathBuf> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut references: Vec<EvalSession> = Vec::new();
    for (i, seed) in [21u64, 22, 23].iter().enumerate() {
        let points = generate(DatasetId::Grid, n, *seed);
        let kernel = Kernel::Gaussian {
            bandwidth: 1.5 + i as f64 * 0.5,
        };
        let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
        let h = inspector(&points, &kernel, &params).expect("clean inputs");
        sizes.push(h.plan.storage_bytes());
        let path = dir.join(format!("model-{i}.cds"));
        save(&h, &path).expect("save");
        references.push(EvalSession::from_hmatrix(h));
        paths.push(path);
    }

    // A budget of (total - smallest/2) can hold any two of the three models
    // but never all three, so registering all three must evict exactly the
    // LRU one regardless of how the per-model sizes came out.
    let total: usize = sizes.iter().sum();
    let smallest = sizes.iter().copied().min().unwrap_or(0);
    let budget = total - smallest / 2;
    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(1)
            .with_memory_budget_bytes(budget),
    )
    .expect("spawn");
    let handle = server.handle();
    for (i, p) in paths.iter().enumerate() {
        handle
            .load_model(&format!("model-{i}"), p.clone())
            .expect("load");
    }

    let stats = handle.stats().expect("stats");
    assert!(
        stats.registry.resident_bytes <= budget,
        "resident {} > budget {budget}",
        stats.registry.resident_bytes
    );
    assert!(stats.registry.evictions >= 1, "three models cannot all fit");
    assert_eq!(stats.registry.loads, 3);

    // The evicted model (model-0 is the coldest) still serves: the registry
    // reloads it from its backing file on demand — and the answer is the
    // same bitwise.
    for i in 0..3 {
        let reply = handle
            .query_wait(&format!("model-{i}"), "t", rhs(n, i))
            .expect("served after eviction");
        let expected = references[i].evaluate_vec(&rhs(n, i)).expect("reference");
        assert!(bitwise_eq(&reply.y, &expected), "model {i} differs");
    }
    let stats = handle.stats().expect("stats");
    assert!(
        stats.registry.loads > 3,
        "eviction forced at least one reload"
    );
    assert!(stats.registry.resident_bytes <= budget);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_model_file_is_refused_and_the_reactor_keeps_serving() {
    let n = 256;
    let dir = std::env::temp_dir().join(format!("matrox-serve-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let healthy = matvec_session(n, 31);
    let reference = healthy.clone();
    // One near group range copied over its neighbour: every table is
    // self-consistent, but two groups now claim the same target nodes.  The
    // registry prepares a loaded model on the reactor thread, so a reader
    // that lets this through takes every tenant down with it.
    let mut hostile = healthy.hmatrix().clone();
    let groups = &mut hostile.plan.cds.d_groups;
    assert!(groups.len() >= 2, "fixture needs two near groups");
    groups[1] = groups[0];
    let path = dir.join("hostile.cds");
    save(&hostile, &path).expect("save");

    let server = Server::spawn(ServeConfig::default().with_max_batch(1)).expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("healthy", Model::Matvec(Arc::new(healthy)))
        .expect("insert");
    let err = handle
        .load_model("hostile", path)
        .expect_err("malformed model");
    assert!(matches!(err, MatroxError::Format(_)), "got {err}");

    let reply = handle
        .query_wait("healthy", "t", rhs(n, 0))
        .expect("the other model is still served");
    let expected = reference.evaluate_vec(&rhs(n, 0)).expect("reference");
    assert!(bitwise_eq(&reply.y, &expected));
    server.shutdown().expect("the reactor never panicked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_batch_flushes_without_waiting_out_the_window() {
    let n = 128;
    let session = matvec_session(n, 13);
    let server = Server::spawn(
        ServeConfig::default()
            .with_max_batch(4)
            // A window far longer than the test: replies arriving at all
            // proves the width-4 flush path, not the timer.
            .with_coalesce_window(Duration::from_secs(30)),
    )
    .expect("spawn");
    let handle = server.handle();
    handle
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");

    let pending: Vec<_> = (0..8).map(|j| handle.query("m", "t", rhs(n, j))).collect();
    for p in pending {
        let reply = p.wait().expect("served");
        assert_eq!(reply.batch_width, 4);
    }
    let stats = server.shutdown().expect("shutdown");
    let t = stats.tenant("t").expect("tenant recorded");
    assert_eq!(t.queries, 8);
    assert_eq!(t.batches, 2);
}

#[test]
fn op_enum_displays_for_error_messages() {
    assert_eq!(Op::Matvec.to_string(), "matvec");
    assert_eq!(Op::Solve.to_string(), "solve");
}
