//! Protocol corruption fuzz: the wire decoders must survive *any*
//! single-byte corruption of an encoded `Request` / `Response`.
//!
//! Same contract as the model-reader fuzz (`tests/corruption_fuzz.rs` at
//! the root), extended to the serving protocol: for every byte position
//! (every seventh in debug builds) and several XOR masks, the corrupted
//! message must either
//!
//! * be rejected with an `Err` (never a panic), or
//! * decode into a message whose re-encoding is bitwise identical to the
//!   corrupted bytes (the flip landed in a value payload and the decode is
//!   lossless);
//!
//! and decoding must never allocate more than 16 MiB in one request no
//! matter what the corrupted length fields claim.  The sweep and the
//! allocation probe behind it are the ones the model-reader fuzz uses
//! (`crates/core/tests/support/alloc_probe.rs`).  The framing layer
//! (`take_frame`) is swept too: a corrupted frame header is either "wait
//! for more bytes", a clean error, or a complete frame whose payload then
//! faces the same message sweep.

use matrox_serve::proto::{encode_frame, take_frame, Request, Response};
use matrox_serve::{ErrorKind, ServerStats, TenantStats};

#[path = "../../core/tests/support/alloc_probe.rs"]
mod alloc_probe;
use alloc_probe::fuzz_single_byte_flips;

fn sample_requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "Request::Query",
            Request::Query {
                model: "demo".into(),
                tenant: "tenant-a".into(),
                rhs: vec![1.0, -2.5, f64::MIN_POSITIVE, 0.0],
            },
        ),
        (
            "Request::LoadModel",
            Request::LoadModel {
                id: "ridge".into(),
                path: "/models/ridge.cds".into(),
            },
        ),
        ("Request::Stats", Request::Stats),
    ]
}

fn sample_responses() -> Vec<(&'static str, Response)> {
    vec![
        (
            "Response::Reply",
            Response::Reply {
                y: vec![0.25, -1.0, 3.75],
                queue_wait_ns: 150_000,
                service_ns: 2_000_000,
                batch_width: 8,
            },
        ),
        (
            "Response::Error",
            Response::Error {
                kind: ErrorKind::InvalidInput,
                message: "unknown model 'x'".into(),
            },
        ),
        (
            "Response::Overloaded",
            Response::Overloaded {
                reason: "dispatch queue full".into(),
            },
        ),
        (
            "Response::Stats",
            Response::Stats(ServerStats {
                tenants: vec![(
                    "tenant-a".into(),
                    TenantStats {
                        queries: 9,
                        batches: 2,
                        queue_wait_seconds: 0.125,
                        service_seconds: 0.5,
                        errors: 1,
                        contained_panics: 0,
                        retried_queries: 3,
                    },
                )],
                ..Default::default()
            }),
        ),
    ]
}

#[test]
fn every_single_byte_request_corruption_is_rejected_or_lossless() {
    for (label, req) in sample_requests() {
        fuzz_single_byte_flips(label, &req.encode(), &|data| {
            Request::decode(data).ok().map(|r| r.encode())
        });
    }
}

#[test]
fn every_single_byte_response_corruption_is_rejected_or_lossless() {
    for (label, resp) in sample_responses() {
        fuzz_single_byte_flips(label, &resp.encode(), &|data| {
            Response::decode(data).ok().map(|r| r.encode())
        });
    }
}

#[test]
fn every_single_byte_frame_corruption_is_contained() {
    // Sweep the whole framed message: header flips must never panic,
    // over-allocate, or mis-deliver — a complete frame either errors out
    // (unsyncable stream), still decodes, or the buffer waits for bytes
    // that will never come (the event loop's idle timeout reaps those).
    let req = Request::Query {
        model: "m".into(),
        tenant: "t".into(),
        rhs: vec![4.0, 5.0],
    };
    let framed = encode_frame(7, &req.encode());
    let max_frame = 16 << 20;
    fuzz_single_byte_flips("frame", &framed, &|data| {
        let mut buf = data.to_vec();
        match take_frame(&mut buf, max_frame) {
            Err(_) => None,   // framing rejected: connection would close
            Ok(None) => None, // incomplete: loop keeps waiting
            // A fully-accepted frame must be the corrupted bytes, re-framed
            // losslessly.
            Ok(Some((corr, payload))) => Request::decode(&payload)
                .ok()
                .map(|r| encode_frame(corr, &r.encode())),
        }
    });
}
