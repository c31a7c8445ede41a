//! The versioned serving protocol: one request/response vocabulary shared
//! by in-process callers and the network front-end.
//!
//! PR 8's `ServeHandle` took ad-hoc `(&str, &str, Vec<f64>)` tuples, which
//! cannot be framed onto a socket.  This module is the API redesign that
//! fixes it: every operation the server supports is a [`Request`] variant,
//! every outcome is a [`Response`] variant, and both have one canonical
//! byte encoding.  `ServeHandle::{query, solve, load_model, stats, flush}`
//! are now thin wrappers over `submit(Request)`, so an in-process call and
//! a socket frame exercise the same type — any drift between the two
//! surfaces is a compile error, not a protocol bug.
//!
//! ## Encoding
//!
//! A message is `MATROXS1` (8-byte magic) + version byte + tag byte + body,
//! little-endian throughout, built on the hardened wire primitives
//! ([`matrox_core::wire`]).  Strings are `u64` length + UTF-8 bytes; `f64`
//! vectors are `u64` count + bit patterns (bitwise lossless, NaN payloads
//! included); durations travel as `u64` nanoseconds.  Decoding validates
//! magic, version, tags, every length against the bytes remaining, UTF-8,
//! and rejects trailing bytes — the corruption-fuzz suite
//! (`tests/proto_fuzz.rs`) pins that every single-byte flip either decodes
//! to a re-encodable message or errors cleanly without a panic or an
//! oversized allocation.
//!
//! The version byte is `1`.  A decoder that sees a higher version returns
//! [`MatroxError::Format`] — old servers reject new clients loudly instead
//! of misparsing them.

use crate::server::QueryReply;
use crate::stats::{ServerStats, TenantStats};
use matrox_core::{MatroxError, WireReader, WireWriter};
use std::time::Duration;

/// Protocol magic: `MATROXS1` ("S" for serve, 1 for the format family).
pub const MAGIC: &[u8; 8] = b"MATROXS1";
/// Current protocol version.
pub const VERSION: u8 = 1;

/// Frame header: `u32` length (of everything after the length field) plus
/// the `u64` correlation id that pairs a response with its request.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Frame an encoded message for the socket:
/// `[u32 len][u64 corr_id][payload]`, little-endian, where `len` counts the
/// correlation id plus the payload.
///
/// # Panics
/// Panics if that length does not fit the `u32` field (a payload of 4 GiB
/// or more), rather than wrap it and desynchronize the stream.
pub fn encode_frame(corr_id: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() + 8;
    assert!(
        u32::try_from(len).is_ok(),
        "frame of {len} bytes does not fit the u32 length field"
    );
    let mut w = WireWriter::with_capacity(FRAME_HEADER_BYTES + payload.len());
    w.put_u32(len as u32);
    w.put_u64(corr_id);
    w.put_bytes(payload);
    w.into_bytes()
}

/// Pop one complete frame off the front of a receive buffer.
///
/// Returns `Ok(None)` while the frame is still incomplete, and
/// `Ok(Some((corr_id, payload)))` once it is.  A frame whose declared
/// length is shorter than the correlation id or longer than
/// `max_frame_bytes` is unrecoverable (the stream cannot be resynced) and
/// returns [`MatroxError::Format`]; the caller should close the connection
/// after flushing an error reply.
pub fn take_frame(
    buf: &mut Vec<u8>,
    max_frame_bytes: usize,
) -> Result<Option<(u64, Vec<u8>)>, MatroxError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let mut r = WireReader::new(buf);
    let len = r.take_u32("frame length")? as usize;
    if len < 8 {
        return Err(MatroxError::Format(format!(
            "frame length {len} is shorter than its correlation id"
        )));
    }
    if len - 8 > max_frame_bytes {
        return Err(MatroxError::Format(format!(
            "frame payload of {} bytes exceeds the {max_frame_bytes}-byte limit",
            len - 8
        )));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let corr_id = r.take_u64("correlation id")?;
    let payload = buf[FRAME_HEADER_BYTES..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some((corr_id, payload)))
}

/// Every operation the server accepts, in-process or over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate `K * rhs` against a resident matvec model.
    Query {
        /// Registry id of the model.
        model: String,
        /// Tenant the query is accounted (and coalesced) under.
        tenant: String,
        /// Right-hand-side column; length must match the model dimension.
        rhs: Vec<f64>,
    },
    /// Solve `K~ x = rhs` against a resident factored model.
    Solve {
        /// Registry id of the model.
        model: String,
        /// Tenant the query is accounted (and coalesced) under.
        tenant: String,
        /// Right-hand-side column; length must match the model dimension.
        rhs: Vec<f64>,
    },
    /// Register a path-backed model (`MATROX2` or `MATROXF3` file).
    LoadModel {
        /// Registry id to serve the model under.
        id: String,
        /// Server-side filesystem path of the model file.
        path: String,
    },
    /// Snapshot the server's counters.
    Stats,
    /// Flush every pending coalescing queue immediately.
    Flush,
}

impl Request {
    /// The tenant this request is accounted under, when it has one.
    /// Admission control keys per-tenant in-flight caps on this.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Query { tenant, .. } | Request::Solve { tenant, .. } => Some(tenant),
            _ => None,
        }
    }

    /// Canonical byte encoding (magic + version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        w.put_bytes(MAGIC);
        w.put_u8(VERSION);
        match self {
            Request::Query { model, tenant, rhs } => {
                w.put_u8(0);
                w.put_str(model);
                w.put_str(tenant);
                w.put_f64_slice(rhs);
            }
            Request::Solve { model, tenant, rhs } => {
                w.put_u8(1);
                w.put_str(model);
                w.put_str(tenant);
                w.put_f64_slice(rhs);
            }
            Request::LoadModel { id, path } => {
                w.put_u8(2);
                w.put_str(id);
                w.put_str(path);
            }
            Request::Stats => w.put_u8(3),
            Request::Flush => w.put_u8(4),
        }
        w.into_bytes()
    }

    /// Decode a canonical request, rejecting malformed input with
    /// [`MatroxError::Format`] (never a panic, never an allocation larger
    /// than the input).
    pub fn decode(bytes: &[u8]) -> Result<Self, MatroxError> {
        let mut r = WireReader::new(bytes);
        r.expect_magic(MAGIC, "request")?;
        let version = r.take_u8("request version")?;
        if version != VERSION {
            return Err(MatroxError::Format(format!(
                "unsupported protocol version {version} (this build speaks {VERSION})"
            )));
        }
        let tag = r.take_u8("request tag")?;
        let req = match tag {
            0 | 1 => {
                let model = r.take_str("model id")?;
                let tenant = r.take_str("tenant id")?;
                let rhs = r.take_f64_vec("rhs")?;
                if tag == 0 {
                    Request::Query { model, tenant, rhs }
                } else {
                    Request::Solve { model, tenant, rhs }
                }
            }
            2 => Request::LoadModel {
                id: r.take_str("model id")?,
                path: r.take_str("model path")?,
            },
            3 => Request::Stats,
            4 => Request::Flush,
            t => {
                return Err(MatroxError::Format(format!("unknown request tag {t}")));
            }
        };
        r.finish("request")?;
        Ok(req)
    }
}

/// Wire classification of a [`MatroxError`].  `Overloaded` is deliberately
/// not a kind: load shedding has its own [`Response::Overloaded`] variant so
/// clients can branch on it without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Underlying I/O failure (model file unreadable, …).
    Io,
    /// Malformed model or protocol bytes.
    Format,
    /// The math failed (non-SPD, non-finite output, …).
    NumericalBreakdown,
    /// Caller-fixable input problem (unknown model, bad shape, NaN rhs, …).
    InvalidInput,
    /// Operation applied to the wrong kind of model/plan.
    PlanMismatch,
    /// A contained internal panic.
    PoolPanic,
}

impl ErrorKind {
    fn tag(self) -> u8 {
        match self {
            ErrorKind::Io => 0,
            ErrorKind::Format => 1,
            ErrorKind::NumericalBreakdown => 2,
            ErrorKind::InvalidInput => 3,
            ErrorKind::PlanMismatch => 4,
            ErrorKind::PoolPanic => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, MatroxError> {
        Ok(match tag {
            0 => ErrorKind::Io,
            1 => ErrorKind::Format,
            2 => ErrorKind::NumericalBreakdown,
            3 => ErrorKind::InvalidInput,
            4 => ErrorKind::PlanMismatch,
            5 => ErrorKind::PoolPanic,
            t => return Err(MatroxError::Format(format!("unknown error kind {t}"))),
        })
    }
}

/// Split a [`MatroxError`] into its wire kind and bare message (no Display
/// prefix, so a round trip does not stack prefixes).  `Overloaded` maps to
/// `None`: it becomes [`Response::Overloaded`], not an error kind.
fn error_parts(e: &MatroxError) -> Option<(ErrorKind, String)> {
    Some(match e {
        MatroxError::Io(i) => (ErrorKind::Io, i.to_string()),
        MatroxError::Format(m) => (ErrorKind::Format, m.clone()),
        MatroxError::NumericalBreakdown(m) => (ErrorKind::NumericalBreakdown, m.clone()),
        MatroxError::InvalidInput(m) => (ErrorKind::InvalidInput, m.clone()),
        MatroxError::PlanMismatch(m) => (ErrorKind::PlanMismatch, m.clone()),
        MatroxError::PoolPanic(m) => (ErrorKind::PoolPanic, m.clone()),
        MatroxError::Overloaded(_) => return None,
    })
}

/// Reassemble a [`MatroxError`] from its wire kind and message.
fn error_from_parts(kind: ErrorKind, message: String) -> MatroxError {
    match kind {
        ErrorKind::Io => MatroxError::Io(std::io::Error::other(message)),
        ErrorKind::Format => MatroxError::Format(message),
        ErrorKind::NumericalBreakdown => MatroxError::NumericalBreakdown(message),
        ErrorKind::InvalidInput => MatroxError::InvalidInput(message),
        ErrorKind::PlanMismatch => MatroxError::PlanMismatch(message),
        ErrorKind::PoolPanic => MatroxError::PoolPanic(message),
    }
}

/// Every outcome the server produces, in-process or over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A served query, with the serving telemetry the reactor stamped.
    Reply {
        /// The evaluated/solved column (bitwise identical to a standalone
        /// evaluation — the coalescing determinism contract).
        y: Vec<f64>,
        /// Time the query waited in its coalescing queue, nanoseconds.
        queue_wait_ns: u64,
        /// Service time of the batch that carried it, nanoseconds.
        service_ns: u64,
        /// Width of the coalesced batch that served it.
        batch_width: u64,
    },
    /// The request failed; the kind mirrors the [`MatroxError`] taxonomy.
    Error {
        /// Wire classification of the failure.
        kind: ErrorKind,
        /// Bare error message (no taxonomy prefix).
        message: String,
    },
    /// The request was shed by admission control before evaluation:
    /// in-flight caps hit, dispatch queue full, or latency budget expired.
    /// Retrying after backoff is safe — the request never ran.
    Overloaded {
        /// Which limit shed the request.
        reason: String,
    },
    /// Snapshot of the server's counters.
    Stats(ServerStats),
    /// Acknowledgement for `LoadModel` / `Flush`.
    Done,
}

impl Response {
    /// Build the response for a finished query.
    pub fn from_query_result(result: Result<QueryReply, MatroxError>) -> Self {
        match result {
            Ok(reply) => Response::Reply {
                y: reply.y,
                queue_wait_ns: reply.queue_wait.as_nanos() as u64,
                service_ns: reply.service.as_nanos() as u64,
                batch_width: reply.batch_width as u64,
            },
            Err(e) => Response::from_error(&e),
        }
    }

    /// Build the error/overloaded response for a failed request.
    pub fn from_error(e: &MatroxError) -> Self {
        match error_parts(e) {
            Some((kind, message)) => Response::Error { kind, message },
            None => Response::Overloaded {
                reason: e.to_string(),
            },
        }
    }

    /// Interpret this response as a query outcome.  `Reply` becomes the
    /// [`QueryReply`] it carried; `Error` / `Overloaded` map back onto the
    /// [`MatroxError`] taxonomy; `Stats` / `Done` are protocol misuse
    /// (a query was submitted, something else came back) and surface as
    /// `PlanMismatch`.
    pub fn into_query_result(self) -> Result<QueryReply, MatroxError> {
        match self {
            Response::Reply {
                y,
                queue_wait_ns,
                service_ns,
                batch_width,
            } => Ok(QueryReply {
                y,
                queue_wait: Duration::from_nanos(queue_wait_ns),
                service: Duration::from_nanos(service_ns),
                batch_width: usize::try_from(batch_width).unwrap_or(usize::MAX),
            }),
            Response::Error { kind, message } => Err(error_from_parts(kind, message)),
            Response::Overloaded { reason } => Err(MatroxError::Overloaded(reason)),
            other => Err(MatroxError::PlanMismatch(format!(
                "expected a query reply, got a {} response",
                other.name()
            ))),
        }
    }

    /// Interpret this response as a `LoadModel` / `Flush` acknowledgement.
    pub fn into_ack_result(self) -> Result<(), MatroxError> {
        match self {
            Response::Done => Ok(()),
            Response::Error { kind, message } => Err(error_from_parts(kind, message)),
            Response::Overloaded { reason } => Err(MatroxError::Overloaded(reason)),
            other => Err(MatroxError::PlanMismatch(format!(
                "expected an acknowledgement, got a {} response",
                other.name()
            ))),
        }
    }

    /// Interpret this response as a `Stats` snapshot.
    pub fn into_stats_result(self) -> Result<ServerStats, MatroxError> {
        match self {
            Response::Stats(s) => Ok(s),
            Response::Error { kind, message } => Err(error_from_parts(kind, message)),
            Response::Overloaded { reason } => Err(MatroxError::Overloaded(reason)),
            other => Err(MatroxError::PlanMismatch(format!(
                "expected a stats snapshot, got a {} response",
                other.name()
            ))),
        }
    }

    /// Variant name, for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Response::Reply { .. } => "reply",
            Response::Error { .. } => "error",
            Response::Overloaded { .. } => "overloaded",
            Response::Stats(_) => "stats",
            Response::Done => "done",
        }
    }

    /// Canonical byte encoding (magic + version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(64);
        w.put_bytes(MAGIC);
        w.put_u8(VERSION);
        match self {
            Response::Reply {
                y,
                queue_wait_ns,
                service_ns,
                batch_width,
            } => {
                w.put_u8(0);
                w.put_f64_slice(y);
                w.put_u64(*queue_wait_ns);
                w.put_u64(*service_ns);
                w.put_u64(*batch_width);
            }
            Response::Error { kind, message } => {
                w.put_u8(1);
                w.put_u8(kind.tag());
                w.put_str(message);
            }
            Response::Overloaded { reason } => {
                w.put_u8(2);
                w.put_str(reason);
            }
            Response::Stats(stats) => {
                w.put_u8(3);
                encode_stats(&mut w, stats);
            }
            Response::Done => w.put_u8(4),
        }
        w.into_bytes()
    }

    /// Decode a canonical response; same hardening contract as
    /// [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, MatroxError> {
        let mut r = WireReader::new(bytes);
        r.expect_magic(MAGIC, "response")?;
        let version = r.take_u8("response version")?;
        if version != VERSION {
            return Err(MatroxError::Format(format!(
                "unsupported protocol version {version} (this build speaks {VERSION})"
            )));
        }
        let tag = r.take_u8("response tag")?;
        let resp = match tag {
            0 => Response::Reply {
                y: r.take_f64_vec("reply column")?,
                queue_wait_ns: r.take_u64("queue wait")?,
                service_ns: r.take_u64("service time")?,
                batch_width: r.take_u64("batch width")?,
            },
            1 => Response::Error {
                kind: ErrorKind::from_tag(r.take_u8("error kind")?)?,
                message: r.take_str("error message")?,
            },
            2 => Response::Overloaded {
                reason: r.take_str("shed reason")?,
            },
            3 => Response::Stats(decode_stats(&mut r)?),
            4 => Response::Done,
            t => {
                return Err(MatroxError::Format(format!("unknown response tag {t}")));
            }
        };
        r.finish("response")?;
        Ok(resp)
    }
}

fn encode_stats(w: &mut WireWriter, s: &ServerStats) {
    w.put_usize(s.tenants.len());
    for (id, t) in &s.tenants {
        w.put_str(id);
        w.put_u64(t.queries);
        w.put_u64(t.batches);
        w.put_f64(t.queue_wait_seconds);
        w.put_f64(t.service_seconds);
        w.put_u64(t.errors);
        w.put_u64(t.contained_panics);
        w.put_u64(t.retried_queries);
    }
    w.put_usize(s.registry.resident_models);
    w.put_usize(s.registry.resident_bytes);
    w.put_usize(s.registry.budget_bytes);
    w.put_u64(s.registry.loads);
    w.put_u64(s.registry.evictions);
    w.put_f64(s.sessions.inspect_seconds);
    w.put_f64(s.sessions.eval_seconds);
    w.put_u64(s.sessions.evaluations);
    w.put_u64(s.sessions.queries);
    w.put_u64(s.sessions.invalid_inputs);
    w.put_u64(s.sessions.contained_panics);
    w.put_u64(s.sessions.ridge_attempts as u64);
}

fn decode_stats(r: &mut WireReader<'_>) -> Result<ServerStats, MatroxError> {
    // Each tenant entry is at least 64 bytes (8-byte id length + 7 fields),
    // so the count is capped by the bytes remaining before any allocation.
    let n_tenants = r.take_len(64, "tenant count")?;
    let mut tenants = Vec::with_capacity(n_tenants);
    for _ in 0..n_tenants {
        let id = r.take_str("tenant id")?;
        let t = TenantStats {
            queries: r.take_u64("tenant queries")?,
            batches: r.take_u64("tenant batches")?,
            queue_wait_seconds: r.take_f64("tenant queue wait")?,
            service_seconds: r.take_f64("tenant service")?,
            errors: r.take_u64("tenant errors")?,
            contained_panics: r.take_u64("tenant contained panics")?,
            retried_queries: r.take_u64("tenant retries")?,
        };
        tenants.push((id, t));
    }
    let mut stats = ServerStats {
        tenants,
        ..ServerStats::default()
    };
    stats.registry.resident_models = r.take_usize("resident models")?;
    stats.registry.resident_bytes = r.take_usize("resident bytes")?;
    stats.registry.budget_bytes = r.take_usize("budget bytes")?;
    stats.registry.loads = r.take_u64("registry loads")?;
    stats.registry.evictions = r.take_u64("registry evictions")?;
    stats.sessions.inspect_seconds = r.take_f64("inspect seconds")?;
    stats.sessions.eval_seconds = r.take_f64("eval seconds")?;
    stats.sessions.evaluations = r.take_u64("session evaluations")?;
    stats.sessions.queries = r.take_u64("session queries")?;
    stats.sessions.invalid_inputs = r.take_u64("session invalid inputs")?;
    stats.sessions.contained_panics = r.take_u64("session contained panics")?;
    let ridge = r.take_u64("ridge attempts")?;
    stats.sessions.ridge_attempts = u32::try_from(ridge)
        .map_err(|_| MatroxError::Format(format!("ridge attempts {ridge} does not fit in u32")))?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryStats;
    use matrox_core::SessionStats;

    fn sample_stats() -> ServerStats {
        ServerStats {
            tenants: vec![
                (
                    "alpha".into(),
                    TenantStats {
                        queries: 12,
                        batches: 3,
                        queue_wait_seconds: 0.25,
                        service_seconds: 1.5,
                        errors: 1,
                        contained_panics: 0,
                        retried_queries: 4,
                    },
                ),
                (
                    "beta".into(),
                    TenantStats {
                        queries: 7,
                        ..Default::default()
                    },
                ),
            ],
            registry: RegistryStats {
                resident_models: 2,
                resident_bytes: 1 << 20,
                budget_bytes: 1 << 22,
                loads: 5,
                evictions: 3,
            },
            sessions: SessionStats {
                inspect_seconds: 2.0,
                eval_seconds: 0.5,
                evaluations: 3,
                queries: 19,
                invalid_inputs: 1,
                contained_panics: 0,
                ridge_attempts: 2,
                // Phase breakdown is session-local diagnostics; the wire
                // format deliberately omits it, so the fixture keeps it
                // default for the bitwise round-trip comparison.
                inspector: Default::default(),
            },
        }
    }

    #[test]
    fn requests_round_trip_bitwise() {
        let reqs = vec![
            Request::Query {
                model: "m".into(),
                tenant: "t".into(),
                rhs: vec![1.0, -0.0, f64::NAN, f64::MIN_POSITIVE],
            },
            Request::Solve {
                model: "ridge".into(),
                tenant: "tenant-β".into(),
                rhs: vec![],
            },
            Request::LoadModel {
                id: "m2".into(),
                path: "/models/m2.cds".into(),
            },
            Request::Stats,
            Request::Flush,
        ];
        for req in reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).expect("round trip");
            // PartialEq on f64 treats NaN != NaN, so compare re-encodings:
            // decode-then-encode must be byte-identical.
            assert_eq!(back.encode(), bytes, "lossless re-encode for {back:?}");
        }
    }

    #[test]
    fn responses_round_trip_bitwise() {
        let resps = vec![
            Response::Reply {
                y: vec![3.5, f64::INFINITY, -0.0],
                queue_wait_ns: 12_345,
                service_ns: 9_999_999,
                batch_width: 8,
            },
            Response::Error {
                kind: ErrorKind::InvalidInput,
                message: "rhs length 7 != model dim 256".into(),
            },
            Response::Overloaded {
                reason: "dispatch queue full".into(),
            },
            Response::Stats(sample_stats()),
            Response::Done,
        ];
        for resp in resps {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).expect("round trip");
            assert_eq!(
                back.encode(),
                bytes,
                "lossless re-encode for {}",
                back.name()
            );
        }
    }

    #[test]
    fn stats_payload_survives_field_by_field() {
        let bytes = Response::Stats(sample_stats()).encode();
        let Response::Stats(s) = Response::decode(&bytes).expect("decode") else {
            panic!("wrong variant");
        };
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenant("alpha").map(|t| t.retried_queries), Some(4));
        assert_eq!(s.registry.resident_bytes, 1 << 20);
        assert_eq!(s.registry.evictions, 3);
        assert_eq!(s.sessions.ridge_attempts, 2);
        assert!((s.sessions.inspect_seconds - 2.0).abs() < 1e-15);
    }

    #[test]
    fn error_taxonomy_round_trips_through_responses() {
        let errors = vec![
            MatroxError::Io(std::io::Error::other("disk gone")),
            MatroxError::Format("truncated".into()),
            MatroxError::NumericalBreakdown("pivot -1".into()),
            MatroxError::InvalidInput("unknown model".into()),
            MatroxError::PlanMismatch("solve on matvec".into()),
            MatroxError::PoolPanic("index 9 out of bounds".into()),
        ];
        for e in errors {
            let display = e.to_string();
            let resp = Response::from_error(&e);
            let bytes = resp.encode();
            let back = Response::decode(&bytes).expect("decode");
            let err = back.into_query_result().expect_err("still an error");
            assert_eq!(
                err.to_string(),
                display,
                "taxonomy + message survive the wire"
            );
        }
        // Overloaded travels as its own variant, not an error kind.
        let resp = Response::from_error(&MatroxError::Overloaded("tenant cap".into()));
        assert!(matches!(resp, Response::Overloaded { .. }));
        let err = resp.into_query_result().expect_err("overloaded");
        assert!(matches!(err, MatroxError::Overloaded(_)));
    }

    #[test]
    fn version_and_tag_corruption_is_rejected() {
        let mut bytes = Request::Stats.encode();
        bytes[8] = 2; // version byte
        assert!(matches!(
            Request::decode(&bytes),
            Err(MatroxError::Format(_))
        ));

        let mut bytes = Request::Stats.encode();
        bytes[9] = 200; // tag byte
        assert!(Request::decode(&bytes).is_err());

        let mut bytes = Response::Done.encode();
        bytes[0] ^= 0xff; // magic
        assert!(Response::decode(&bytes).is_err());

        // Trailing garbage after a valid message is rejected.
        let mut bytes = Request::Flush.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn stats_response_is_protocol_misuse_as_a_query_result() {
        let err = Response::Done.into_query_result().expect_err("not a reply");
        assert!(matches!(err, MatroxError::PlanMismatch(_)), "got {err}");
    }
}
