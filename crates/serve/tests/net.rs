//! Network front-end lifecycle and backpressure: wire replies are bitwise
//! identical to in-process replies, admission caps shed with explicit
//! `Overloaded` responses, latency budgets expire queued work, idle
//! connections are reaped, decode errors leave the connection usable, and
//! shutdown drains in-flight requests.

use matrox_core::{save, EvalSession, MatRoxParams, MatroxError};
use matrox_points::{generate, DatasetId, Kernel};
use matrox_serve::proto::{encode_frame, Request, Response};
use matrox_serve::{Model, NetClient, NetConfig, NetServer, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Spawn a server with one resident matvec model plus its net front-end.
fn serve_net(n: usize, serve: ServeConfig, net: NetConfig) -> (Server, NetServer, EvalSession) {
    let session = matvec_session(n, 11);
    let reference = session.clone();
    let server = Server::spawn(serve).expect("spawn server");
    server
        .handle()
        .insert_model("m", Model::Matvec(Arc::new(session)))
        .expect("insert");
    let net = NetServer::spawn(server.handle(), net).expect("spawn net");
    (server, net, reference)
}

#[test]
fn wire_replies_are_bitwise_identical_to_in_process_replies() {
    let n = 256;
    let (server, net, reference) = serve_net(
        n,
        ServeConfig::default()
            .with_max_batch(8)
            .with_coalesce_window(Duration::from_millis(5)),
        NetConfig::default(),
    );
    let handle = server.handle();

    // Two connections pipelining queries concurrently with in-process
    // queries: every reply must be bitwise identical to the reference
    // evaluation (and therefore to each other).
    let mut c1 = NetClient::connect(net.addr()).expect("connect");
    let mut c2 = NetClient::connect(net.addr()).expect("connect");
    let corr1: Vec<u64> = (0..4)
        .map(|j| {
            c1.send(&Request::Query {
                model: "m".into(),
                tenant: "wire-a".into(),
                rhs: rhs(n, j),
            })
            .expect("send")
        })
        .collect();
    let corr2: Vec<u64> = (0..4)
        .map(|j| {
            c2.send(&Request::Query {
                model: "m".into(),
                tenant: "wire-b".into(),
                rhs: rhs(n, j),
            })
            .expect("send")
        })
        .collect();
    let inproc: Vec<_> = (0..4)
        .map(|j| handle.query("m", "proc", rhs(n, j)))
        .collect();

    for (j, corr) in corr1.into_iter().enumerate() {
        let reply = c1
            .recv(corr)
            .expect("recv")
            .into_query_result()
            .expect("served");
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(
            bitwise_eq(&reply.y, &expected),
            "wire c1 column {j} differs"
        );
        assert!(reply.batch_width >= 1);
    }
    for (j, corr) in corr2.into_iter().enumerate() {
        let reply = c2
            .recv(corr)
            .expect("recv")
            .into_query_result()
            .expect("served");
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(
            bitwise_eq(&reply.y, &expected),
            "wire c2 column {j} differs"
        );
    }
    for (j, p) in inproc.into_iter().enumerate() {
        let reply = p.wait().expect("served");
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(
            bitwise_eq(&reply.y, &expected),
            "in-process column {j} differs"
        );
    }

    // The ergonomic wrapper goes through the same path.
    let reply = c1.query("m", "wire-a", rhs(n, 9)).expect("query");
    let expected = reference.evaluate_vec(&rhs(n, 9)).expect("reference");
    assert!(bitwise_eq(&reply.y, &expected));

    // Stats over the wire see the wire tenants.
    let stats = c2.stats().expect("stats");
    assert_eq!(stats.tenant("wire-a").map(|t| t.queries), Some(5));
    assert_eq!(stats.tenant("wire-b").map(|t| t.queries), Some(4));
    assert_eq!(stats.tenant("proc").map(|t| t.queries), Some(4));

    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.accepted, 2);
    assert_eq!(net_stats.served, 10, "9 queries + 1 stats over the wire");
    assert_eq!(net_stats.shed, 0);
    assert_eq!(net_stats.decode_errors, 0);
    server.shutdown().expect("server shutdown");
}

#[test]
fn load_model_and_flush_round_trip_over_the_wire() {
    let n = 128;
    let dir = std::env::temp_dir().join(format!("matrox-net-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.cds");
    let points = generate(DatasetId::Grid, n, 3);
    let kernel = Kernel::Gaussian { bandwidth: 1.5 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
    let h = matrox_core::inspector(&points, &kernel, &params).expect("inspector");
    save(&h, &path).expect("save");
    let reference = EvalSession::from_hmatrix(h);

    let server = Server::spawn(ServeConfig::default().with_max_batch(1)).expect("spawn");
    let net = NetServer::spawn(server.handle(), NetConfig::default()).expect("net");
    let mut client = NetClient::connect(net.addr()).expect("connect");

    client
        .load_model("disk", path.to_string_lossy().as_ref())
        .expect("load over the wire");
    client.flush().expect("flush over the wire");
    let reply = client.query("disk", "t", rhs(n, 0)).expect("query");
    let expected = reference.evaluate_vec(&rhs(n, 0)).expect("reference");
    assert!(bitwise_eq(&reply.y, &expected));

    // A bad path comes back as the reader's error, not a dead connection.
    let err = client
        .load_model("nope", "/does/not/exist.cds")
        .expect_err("missing file");
    assert!(matches!(err, MatroxError::Io(_)), "got {err}");

    net.shutdown().expect("net shutdown");
    server.shutdown().expect("server shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_connection_inflight_cap_sheds_with_explicit_overloaded() {
    let n = 128;
    // A long window plus a wide batch keeps admitted queries in flight,
    // so the pipelined burst overruns the per-connection cap.
    let (server, net, _) = serve_net(
        n,
        ServeConfig::default()
            .with_max_batch(64)
            .with_coalesce_window(Duration::from_millis(300)),
        NetConfig::default().with_max_inflight_per_conn(2),
    );
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let corrs: Vec<u64> = (0..5)
        .map(|j| {
            client
                .send(&Request::Query {
                    model: "m".into(),
                    tenant: "t".into(),
                    rhs: rhs(n, j),
                })
                .expect("send")
        })
        .collect();

    let mut served = 0;
    let mut shed = 0;
    for corr in corrs {
        match client.recv(corr).expect("recv").into_query_result() {
            Ok(_) => served += 1,
            Err(MatroxError::Overloaded(reason)) => {
                shed += 1;
                assert!(
                    reason.contains("per-connection"),
                    "shed reason names the cap: {reason}"
                );
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(served, 2, "exactly the cap is admitted");
    assert_eq!(shed, 3, "the overflow is shed, not buffered");

    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.shed, 3);
    assert_eq!(net_stats.served, 2);
    server.shutdown().expect("server shutdown");
}

#[test]
fn paced_flood_against_total_cap_sheds_and_answers_everything() {
    let n = 128;
    let (server, net, _) = serve_net(
        n,
        ServeConfig::default()
            .with_max_batch(64)
            .with_coalesce_window(Duration::from_millis(300)),
        NetConfig::default()
            .with_max_inflight_per_conn(16)
            .with_max_inflight_total(2),
    );
    // Two connections flooding: the *total* cap (the bounded dispatch
    // queue) is what sheds.  Every request still gets an answer.
    let mut c1 = NetClient::connect(net.addr()).expect("connect");
    let mut c2 = NetClient::connect(net.addr()).expect("connect");
    let mut corrs: Vec<(usize, u64)> = Vec::new();
    for j in 0..3 {
        let req = |t: &str| Request::Query {
            model: "m".into(),
            tenant: t.into(),
            rhs: rhs(n, j),
        };
        corrs.push((1, c1.send(&req("t1")).expect("send")));
        corrs.push((2, c2.send(&req("t2")).expect("send")));
    }
    let mut served = 0;
    let mut shed = 0;
    for (who, corr) in corrs {
        let client = if who == 1 { &mut c1 } else { &mut c2 };
        match client.recv(corr).expect("recv").into_query_result() {
            Ok(_) => served += 1,
            Err(MatroxError::Overloaded(_)) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(served + shed, 6, "every request is answered");
    assert_eq!(served, 2, "the bounded queue admits exactly its capacity");
    assert_eq!(shed, 4);

    net.shutdown().expect("net shutdown");
    server.shutdown().expect("server shutdown");
}

#[test]
fn latency_budget_expires_queued_work() {
    let n = 128;
    // The coalesce window is far longer than the budget and the batch never
    // fills, so the query sits queued until the budget expires it.
    let (server, net, _) = serve_net(
        n,
        ServeConfig::default()
            .with_max_batch(64)
            .with_coalesce_window(Duration::from_secs(30)),
        NetConfig::default().with_latency_budget(Duration::from_millis(50)),
    );
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let t0 = Instant::now();
    let err = client
        .query("m", "t", rhs(n, 0))
        .expect_err("budget must expire the queued query");
    let waited = t0.elapsed();
    match err {
        MatroxError::Overloaded(reason) => {
            assert!(reason.contains("latency budget"), "reason: {reason}");
        }
        e => panic!("expected Overloaded, got {e}"),
    }
    assert!(
        waited < Duration::from_secs(10),
        "expired in {waited:?}, long before the 30s window"
    );

    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.expired, 1);
    server.shutdown().expect("server shutdown");
}

#[test]
fn idle_connections_are_reaped() {
    let n = 128;
    let (server, net, _) = serve_net(
        n,
        ServeConfig::default().with_max_batch(1),
        NetConfig::default().with_idle_timeout(Duration::from_millis(100)),
    );
    let mut client = NetClient::connect(net.addr()).expect("connect");
    client
        .query("m", "t", rhs(n, 0))
        .expect("first query works");

    // Go quiet past the idle timeout; the server closes the connection.
    std::thread::sleep(Duration::from_millis(400));
    let gone = match client.query("m", "t", rhs(n, 1)) {
        Err(MatroxError::Io(_)) => true, // send hit EPIPE or recv hit EOF
        other => panic!("expected a dead connection, got {other:?}"),
    };
    assert!(gone);

    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.idle_closed, 1);
    server.shutdown().expect("server shutdown");
}

#[test]
fn decode_error_replies_cleanly_and_the_connection_survives() {
    let n = 128;
    let (server, net, reference) = serve_net(
        n,
        ServeConfig::default().with_max_batch(1),
        NetConfig::default(),
    );
    let addr = net.addr();
    let mut raw = TcpStream::connect(addr).expect("connect");

    // A well-framed frame whose payload is garbage: the server answers
    // with a Format error and keeps the connection.
    raw.write_all(&encode_frame(99, b"this is not MATROXS1"))
        .expect("write");
    let resp = read_one_frame(&mut raw);
    let (corr, resp) = resp.expect("an error reply, not a closed connection");
    assert_eq!(corr, 99, "the reply is correlated to the bad request");
    match Response::decode(&resp).expect("decodable") {
        Response::Error { message, .. } => {
            assert!(message.contains("magic"), "message: {message}")
        }
        other => panic!("expected Error, got {}", other.name()),
    }

    // The same connection still serves a valid query afterwards.
    let req = Request::Query {
        model: "m".into(),
        tenant: "t".into(),
        rhs: rhs(n, 0),
    };
    raw.write_all(&encode_frame(100, &req.encode()))
        .expect("write");
    let (corr, payload) = read_one_frame(&mut raw).expect("served");
    assert_eq!(corr, 100);
    let reply = Response::decode(&payload)
        .expect("decodable")
        .into_query_result()
        .expect("served");
    let expected = reference.evaluate_vec(&rhs(n, 0)).expect("reference");
    assert!(bitwise_eq(&reply.y, &expected));

    // Broken framing (length shorter than its correlation id) is
    // unrecoverable: error reply, then the server closes.
    raw.write_all(&[3, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9])
        .expect("write");
    let (_, payload) = read_one_frame(&mut raw).expect("final error reply");
    assert!(matches!(
        Response::decode(&payload).expect("decodable"),
        Response::Error { .. }
    ));
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "connection closed after the framing error");

    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.decode_errors, 2);
    server.shutdown().expect("server shutdown");
}

#[test]
fn an_oversized_request_is_refused_before_it_is_sent() {
    let n = 128;
    let (server, net, reference) = serve_net(
        n,
        ServeConfig::default().with_max_batch(1),
        NetConfig::default(),
    );
    let mut client = NetClient::connect(net.addr()).expect("connect");
    // 17 MiB of right-hand side: over the 16 MiB frame payload cap.
    let huge = vec![0.5; (17 << 20) / 8];
    match client.query("m", "t", huge) {
        Err(MatroxError::InvalidInput(_)) => {}
        other => panic!("expected InvalidInput, got {other:?}"),
    }
    // Nothing reached the socket, so the same connection still serves.
    let reply = client.query("m", "t", rhs(n, 0)).expect("served");
    let expected = reference.evaluate_vec(&rhs(n, 0)).expect("reference");
    assert!(bitwise_eq(&reply.y, &expected));
    net.shutdown().expect("net shutdown");
    server.shutdown().expect("server shutdown");
}

/// Read exactly one `[len][corr][payload]` frame off a blocking socket.
fn read_one_frame(stream: &mut TcpStream) -> Option<(u64, Vec<u8>)> {
    let mut header = [0u8; 12];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let corr = u64::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    let mut payload = vec![0u8; len - 8];
    stream.read_exact(&mut payload).ok()?;
    Some((corr, payload))
}

#[test]
fn shutdown_drains_inflight_requests() {
    let n = 128;
    let (server, net, reference) = serve_net(
        n,
        ServeConfig::default()
            .with_max_batch(8)
            .with_coalesce_window(Duration::from_millis(100)),
        NetConfig::default(),
    );
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let corrs: Vec<u64> = (0..4)
        .map(|j| {
            client
                .send(&Request::Query {
                    model: "m".into(),
                    tenant: "t".into(),
                    rhs: rhs(n, j),
                })
                .expect("send")
        })
        .collect();

    // Give the event loop a moment to admit the queries, then shut down
    // while they are still queued behind the coalesce window.  Drain must
    // flush their replies before closing.
    std::thread::sleep(Duration::from_millis(20));
    let net_stats = net.shutdown().expect("net shutdown");
    assert_eq!(net_stats.served, 4, "drain answered the in-flight queries");

    for (j, corr) in corrs.into_iter().enumerate() {
        let reply = client
            .recv(corr)
            .expect("reply was flushed before close")
            .into_query_result()
            .expect("served");
        let expected = reference.evaluate_vec(&rhs(n, j)).expect("reference");
        assert!(
            bitwise_eq(&reply.y, &expected),
            "drained column {j} differs"
        );
    }
    server.shutdown().expect("server shutdown");
}
