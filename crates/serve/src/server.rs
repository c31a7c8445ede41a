//! The serving reactor: one thread, one channel, all mutable state.
//!
//! CONCURRENCY: this file is the serving layer's entire concurrency
//! surface, kept deliberately minimal.  A single reactor thread owns the
//! model registry, the coalescing queues and the statistics; clients only
//! ever touch `mpsc` endpoints.  Requests flow in over one shared sender
//! ([`ServeHandle`] is a cheap clone of it) and every reply flows back over
//! a per-request one-shot channel carrying the [`Response`] it serves (the
//! [`PendingResponse`] ticket is its receiving end).  There are no locks
//! anywhere, so there is nothing to poison and no ordering to get wrong:
//! the channel *is* the synchronization.  Parallelism inside an evaluation
//! still belongs to the executor's rayon pool; the reactor only decides
//! *what* to evaluate together.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "CONCURRENCY: mpsc request / reply channels are the reactor's whole concurrency surface; one thread owns all mutable state (module docs)"
)]

use crate::proto::{ErrorKind, Request, Response};
use crate::registry::{Model, ModelRegistry};
use crate::stats::{ServerStats, TenantStats};
use crate::ServeConfig;
use matrox_core::MatroxError;
use matrox_linalg::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// The operation a query asks of its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `y = K~ w` through the model's shared evaluation session.
    Matvec,
    /// `K~ x = b` through the model's ULV factorization.
    Solve,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Matvec => write!(f, "matvec"),
            Op::Solve => write!(f, "solve"),
        }
    }
}

/// A served answer plus the latency breakdown the reactor observed for it.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// The answer column (`y` for matvec, `x` for solve), `N` entries.
    pub y: Vec<f64>,
    /// Time the query sat in a coalescing queue before dispatch.
    pub queue_wait: Duration,
    /// Wall-clock of the evaluate/solve call that served it (the whole
    /// batch's call — that is the latency this query experienced).
    pub service: Duration,
    /// Width of the coalesced batch it was served in (1 = alone).
    pub batch_width: usize,
}

impl QueryReply {
    /// Reactor-side latency: queue wait plus service time.  Excludes the
    /// channel hops, which the load generator measures end to end.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.service
    }
}

struct QueryMsg {
    model: String,
    tenant: String,
    op: Op,
    rhs: Vec<f64>,
    enqueued: Instant,
    reply: Sender<Response>,
}

enum Msg {
    /// Every protocol request, answered on `reply` with the [`Response`]
    /// it serves.
    Request {
        req: Request,
        enqueued: Instant,
        reply: Sender<Response>,
    },
    /// An in-memory [`Model`] has no [`Request`] form.
    Insert {
        id: String,
        model: Model,
        reply: Sender<()>,
    },
    Shutdown,
}

/// The response a ticket reads when the reactor dropped its reply channel
/// unanswered: the submitter gets a clean protocol-level error instead of
/// a hang.
fn reactor_gone() -> Response {
    Response::from_error(&MatroxError::PoolPanic(
        "serve reactor is shut down".to_string(),
    ))
}

/// A ticket for one submitted [`Request`]: the single pending-reply type
/// every submission path returns, in-process or wire.  Redeem it blocking
/// with [`wait`](PendingResponse::wait) or poll it with
/// [`try_take`](PendingResponse::try_take) (what the network event loop
/// does between epoll wakeups).  Dropping it abandons the answer; the
/// reactor still serves the request.
#[derive(Debug)]
pub struct PendingResponse {
    /// The reply channel; `None` once [`try_take`](PendingResponse::try_take)
    /// has handed the response out.
    rx: Option<Receiver<Response>>,
}

impl PendingResponse {
    /// Block until the response arrives.  Never fails: a vanished reactor
    /// becomes a [`Response::Error`] of kind `PoolPanic`.
    pub fn wait(self) -> Response {
        self.rx
            .and_then(|rx| rx.recv().ok())
            .unwrap_or_else(reactor_gone)
    }

    /// Non-blocking poll: `Some(response)` once the reactor has answered,
    /// `None` while the request is still in flight.  After the response has
    /// been taken once, subsequent polls return `None`.
    pub fn try_take(&mut self) -> Option<Response> {
        let resp = match self.rx.as_ref()?.try_recv() {
            Ok(r) => r,
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => reactor_gone(),
        };
        self.rx = None;
        Some(resp)
    }
}

/// A ticket for one submitted query; redeem it with [`PendingQuery::wait`].
/// Dropping it abandons the answer (the reactor still serves the batch).
/// This is the ergonomic layer over [`PendingResponse`] for callers that
/// know they submitted a query and want a [`QueryReply`] back.
#[derive(Debug)]
pub struct PendingQuery {
    inner: PendingResponse,
}

impl PendingQuery {
    /// Block until the reply arrives.
    ///
    /// # Errors
    /// The query's own failure ([`MatroxError::InvalidInput`],
    /// [`MatroxError::PoolPanic`], ...), or [`MatroxError::PoolPanic`] if
    /// the reactor went away before answering.
    pub fn wait(self) -> Result<QueryReply, MatroxError> {
        self.inner.wait().into_query_result()
    }
}

/// A cheap, cloneable client endpoint for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    tx: Sender<Msg>,
}

impl ServeHandle {
    /// Submit one protocol [`Request`] and get a [`PendingResponse`] ticket
    /// back immediately.  This is the single entry point every submission
    /// path funnels through — the ergonomic methods below and the network
    /// front-end are thin adapters over it, so an in-process call and a
    /// socket frame exercise exactly the same server surface.
    pub fn submit(&self, req: Request) -> PendingResponse {
        let (reply, rx) = channel();
        // A send to a stopped reactor drops the message and with it `reply`,
        // so the ticket reads `reactor_gone()` instead of hanging.
        let _ = self.tx.send(Msg::Request {
            req,
            enqueued: Instant::now(),
            reply,
        });
        PendingResponse { rx: Some(rx) }
    }

    /// Submit a matvec query (`y = K~ w`) for `model` on behalf of
    /// `tenant`; returns immediately.  Queries submitted concurrently for
    /// the same `(model, tenant)` pair coalesce into one evaluation.
    pub fn query(&self, model: &str, tenant: &str, rhs: Vec<f64>) -> PendingQuery {
        PendingQuery {
            inner: self.submit(Request::Query {
                model: model.to_string(),
                tenant: tenant.to_string(),
                rhs,
            }),
        }
    }

    /// Submit a solve query (`K~ x = b`); same coalescing contract as
    /// [`query`](ServeHandle::query).
    pub fn solve(&self, model: &str, tenant: &str, rhs: Vec<f64>) -> PendingQuery {
        PendingQuery {
            inner: self.submit(Request::Solve {
                model: model.to_string(),
                tenant: tenant.to_string(),
                rhs,
            }),
        }
    }

    /// [`query`](ServeHandle::query) and wait for the answer.
    ///
    /// # Errors
    /// See [`PendingQuery::wait`].
    pub fn query_wait(
        &self,
        model: &str,
        tenant: &str,
        rhs: Vec<f64>,
    ) -> Result<QueryReply, MatroxError> {
        self.query(model, tenant, rhs).wait()
    }

    /// Load a model file (either on-disk format) and register it under
    /// `id`, blocking until it is resident.  See
    /// [`ModelRegistry::register_path`].
    ///
    /// # Errors
    /// Reader errors verbatim; [`MatroxError::PoolPanic`] if the reactor is
    /// gone.
    pub fn load_model(&self, id: &str, path: impl Into<PathBuf>) -> Result<(), MatroxError> {
        self.submit(Request::LoadModel {
            id: id.to_string(),
            path: path.into().to_string_lossy().into_owned(),
        })
        .wait()
        .into_ack_result()
    }

    /// Register an in-memory model under `id`, blocking until resident.
    /// This is the one operation with no [`Request`] form: an in-memory
    /// [`Model`] cannot cross a process boundary, so it stays a native
    /// in-process call.
    ///
    /// # Errors
    /// [`MatroxError::PoolPanic`] if the reactor is gone.
    pub fn insert_model(&self, id: &str, model: Model) -> Result<(), MatroxError> {
        let gone = || MatroxError::PoolPanic("serve reactor is shut down".to_string());
        let (reply, rx) = channel();
        self.tx
            .send(Msg::Insert {
                id: id.to_string(),
                model,
                reply,
            })
            .map_err(|_| gone())?;
        rx.recv().map_err(|_| gone())
    }

    /// Snapshot the server's statistics.
    ///
    /// # Errors
    /// [`MatroxError::PoolPanic`] if the reactor is gone.
    pub fn stats(&self) -> Result<ServerStats, MatroxError> {
        self.submit(Request::Stats).wait().into_stats_result()
    }

    /// Barrier: dispatch every queued query immediately (ignoring the
    /// remaining coalesce window) and return once all replies preceding
    /// this call have been sent.
    ///
    /// # Errors
    /// [`MatroxError::PoolPanic`] if the reactor is gone.
    pub fn flush(&self) -> Result<(), MatroxError> {
        self.submit(Request::Flush).wait().into_ack_result()
    }
}

/// A running serving process: the reactor thread plus a [`ServeHandle`]
/// factory.  Dropping the server shuts the reactor down gracefully (every
/// already-submitted query is still served).
pub struct Server {
    handle: ServeHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start the reactor thread with the given configuration.
    ///
    /// # Errors
    /// [`MatroxError::Io`] if the OS refuses to spawn the thread.
    pub fn spawn(cfg: ServeConfig) -> Result<Server, MatroxError> {
        let (tx, rx) = channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "CONCURRENCY: the serve reactor is a long-lived named service thread, not a parallel worker; the pool cannot host it"
        )]
        let thread = std::thread::Builder::new()
            .name("matrox-serve".to_string())
            .spawn(move || Reactor::new(rx, cfg).run())
            .map_err(MatroxError::Io)?;
        Ok(Server {
            handle: ServeHandle { tx },
            thread: Some(thread),
        })
    }

    /// A new client endpoint.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Graceful shutdown: serve everything already submitted, snapshot the
    /// final statistics, stop the reactor, and join its thread.
    ///
    /// # Errors
    /// [`MatroxError::PoolPanic`] if the reactor died early (it propagates
    /// the panic context via the join).
    pub fn shutdown(mut self) -> Result<ServerStats, MatroxError> {
        // Flush first: queries still waiting out their coalescing window are
        // served before the snapshot, so the statistics count them.
        let stats = self.handle.flush().and_then(|()| self.handle.stats());
        let _ = self.handle.tx.send(Msg::Shutdown);
        if let Some(t) = self.thread.take() {
            if t.join().is_err() {
                return Err(MatroxError::PoolPanic(
                    "serve reactor thread panicked".to_string(),
                ));
            }
        }
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.handle.tx.send(Msg::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    model: String,
    tenant: String,
    op: Op,
}

struct PendingBatch {
    items: Vec<QueryMsg>,
    /// Flush-by time: set when the first query arrived, never extended.
    deadline: Instant,
}

struct Reactor {
    rx: Receiver<Msg>,
    cfg: ServeConfig,
    registry: ModelRegistry,
    queues: HashMap<BatchKey, PendingBatch>,
    tenants: BTreeMap<String, TenantStats>,
}

impl Reactor {
    fn new(rx: Receiver<Msg>, cfg: ServeConfig) -> Self {
        Reactor {
            rx,
            cfg: ServeConfig {
                max_batch: cfg.max_batch.max(1),
                ..cfg
            },
            registry: ModelRegistry::new(cfg.memory_budget_bytes),
            queues: HashMap::new(),
            tenants: BTreeMap::new(),
        }
    }

    fn run(mut self) {
        loop {
            let msg = if let Some(deadline) = self.earliest_deadline() {
                let now = Instant::now();
                if now >= deadline {
                    self.flush_due(now);
                    continue;
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        self.flush_due(Instant::now());
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match self.rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            };
            if !self.handle_msg(msg) {
                // Graceful shutdown: drain what is already in the channel
                // so every submitted query is still served, then stop.
                while let Ok(m) = self.rx.try_recv() {
                    self.handle_msg(m);
                }
                break;
            }
        }
        self.flush_all();
    }

    /// Process one message; `false` means shutdown was requested.
    fn handle_msg(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Request {
                req,
                enqueued,
                reply,
            } => self.serve(req, enqueued, reply),
            Msg::Insert { id, model, reply } => {
                self.registry.insert(&id, model);
                let _ = reply.send(());
            }
            Msg::Shutdown => return false,
        }
        true
    }

    /// Answer one protocol request: queries join their coalescing queue,
    /// everything else is answered here.
    fn serve(&mut self, req: Request, enqueued: Instant, reply: Sender<Response>) {
        let (model, tenant, op, rhs) = match req {
            Request::Query { model, tenant, rhs } => (model, tenant, Op::Matvec, rhs),
            Request::Solve { model, tenant, rhs } => (model, tenant, Op::Solve, rhs),
            Request::LoadModel { id, path } => {
                let resp = match self.registry.register_path(&id, PathBuf::from(path)) {
                    Ok(()) => Response::Done,
                    Err(e) => Response::from_error(&e),
                };
                let _ = reply.send(resp);
                return;
            }
            Request::Stats => {
                let _ = reply.send(Response::Stats(self.snapshot()));
                return;
            }
            Request::Flush => {
                self.flush_all();
                let _ = reply.send(Response::Done);
                return;
            }
        };
        self.enqueue(QueryMsg {
            model,
            tenant,
            op,
            rhs,
            enqueued,
            reply,
        });
    }

    fn enqueue(&mut self, q: QueryMsg) {
        let key = BatchKey {
            model: q.model.clone(),
            tenant: q.tenant.clone(),
            op: q.op,
        };
        if self.cfg.max_batch == 1 || self.cfg.coalesce_window.is_zero() {
            self.dispatch(&key, vec![q]);
            return;
        }
        let deadline = q.enqueued + self.cfg.coalesce_window;
        let max_batch = self.cfg.max_batch;
        let batch = self
            .queues
            .entry(key.clone())
            .or_insert_with(|| PendingBatch {
                items: Vec::with_capacity(max_batch),
                deadline,
            });
        batch.items.push(q);
        if batch.items.len() >= self.cfg.max_batch {
            if let Some(b) = self.queues.remove(&key) {
                self.dispatch(&key, b.items);
            }
        }
    }

    fn earliest_deadline(&self) -> Option<Instant> {
        self.queues.values().map(|b| b.deadline).min()
    }

    /// Dispatch every queue whose window has elapsed, oldest first.
    fn flush_due(&mut self, now: Instant) {
        let mut due: Vec<(Instant, BatchKey)> = self
            .queues
            .iter()
            .filter(|(_, b)| b.deadline <= now)
            .map(|(k, b)| (b.deadline, k.clone()))
            .collect();
        due.sort_by_key(|(d, _)| *d);
        for (_, key) in due {
            if let Some(b) = self.queues.remove(&key) {
                self.dispatch(&key, b.items);
            }
        }
    }

    /// Dispatch everything, window or not (flush barrier / shutdown).
    fn flush_all(&mut self) {
        let mut keys: Vec<(Instant, BatchKey)> = self
            .queues
            .iter()
            .map(|(k, b)| (b.deadline, k.clone()))
            .collect();
        keys.sort_by_key(|(d, _)| *d);
        for (_, key) in keys {
            if let Some(b) = self.queues.remove(&key) {
                self.dispatch(&key, b.items);
            }
        }
    }

    /// Serve one coalesced batch: assemble the RHS panel, run one
    /// evaluate/solve, split the answer back out.  A failed multi-query
    /// batch is retried query-by-query so the failure lands only on the
    /// query that caused it.
    fn dispatch(&mut self, key: &BatchKey, items: Vec<QueryMsg>) {
        let t0 = Instant::now();
        let model = match self.registry.get(&key.model) {
            Ok(m) => m,
            Err(e) => {
                let resp = Response::from_error(&e);
                for q in items {
                    self.reply_one(q, Err(resp.clone()), t0, Duration::ZERO, 1);
                }
                return;
            }
        };
        let n = model.dim();
        let mut good = Vec::with_capacity(items.len());
        for q in items {
            if q.rhs.len() == n {
                good.push(q);
            } else {
                let e = MatroxError::InvalidInput(format!(
                    "query for model '{}' has {} rows but the model is N = {n}",
                    key.model,
                    q.rhs.len()
                ));
                self.reply_one(q, Err(Response::from_error(&e)), t0, Duration::ZERO, 1);
            }
        }
        if good.is_empty() {
            return;
        }
        let b = good.len();
        let mut data = vec![0.0; n * b];
        for (j, q) in good.iter().enumerate() {
            for (i, &v) in q.rhs.iter().enumerate() {
                data[i * b + j] = v;
            }
        }
        let w = Matrix::from_vec(n, b, data);
        let result = eval_model(&model, key.op, &w);
        let service = t0.elapsed();
        match result {
            Ok(y) => {
                self.bump_batches(&key.tenant, 1);
                for (j, q) in good.into_iter().enumerate() {
                    self.reply_one(q, Ok(y.col(j)), t0, service, b);
                }
            }
            Err(e) if b == 1 => {
                self.bump_batches(&key.tenant, 1);
                if let Some(q) = good.into_iter().next() {
                    self.reply_one(q, Err(Response::from_error(&e)), t0, service, 1);
                }
            }
            Err(_) => {
                // The batch as a whole failed (poison column, contained
                // panic, breakdown).  Retry each member alone: only the
                // offending queries fail, their co-batched neighbors get
                // the answer they would have gotten without coalescing.
                for q in good {
                    let t1 = Instant::now();
                    let single = Matrix::from_vec(n, 1, q.rhs.clone());
                    let r = eval_model(&model, key.op, &single)
                        .map(|y| y.into_vec())
                        .map_err(|e| Response::from_error(&e));
                    let service1 = t1.elapsed();
                    self.bump_batches(&q.tenant, 1);
                    if let Some(t) = self.tenants.get_mut(&q.tenant) {
                        t.retried_queries += 1;
                    }
                    self.reply_one(q, r, t0, service1, 1);
                }
            }
        }
    }

    fn bump_batches(&mut self, tenant: &str, by: u64) {
        self.tenants.entry(tenant.to_string()).or_default().batches += by;
    }

    /// Account one answered query to its tenant and send its
    /// [`Response`]: the answer column, or the failure already in wire
    /// form.  `dispatched` is when its batch left the queue (queue wait is
    /// `dispatched - enqueued`); `service`/`width` describe the evaluation
    /// that served it.
    fn reply_one(
        &mut self,
        q: QueryMsg,
        result: Result<Vec<f64>, Response>,
        dispatched: Instant,
        service: Duration,
        width: usize,
    ) {
        let queue_wait = dispatched.saturating_duration_since(q.enqueued);
        let t = self.tenants.entry(q.tenant.clone()).or_default();
        t.queries += 1;
        t.queue_wait_seconds += queue_wait.as_secs_f64();
        t.service_seconds += service.as_secs_f64();
        let resp = match result {
            Ok(y) => Response::from_query_result(Ok(QueryReply {
                y,
                queue_wait,
                service,
                batch_width: width,
            })),
            Err(resp) => {
                t.errors += 1;
                if matches!(
                    resp,
                    Response::Error {
                        kind: ErrorKind::PoolPanic,
                        ..
                    }
                ) {
                    t.contained_panics += 1;
                }
                resp
            }
        };
        let _ = q.reply.send(resp);
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            tenants: self
                .tenants
                .iter()
                .map(|(id, s)| (id.clone(), *s))
                .collect(),
            registry: self.registry.stats(),
            sessions: self.registry.aggregate_session_stats(),
        }
    }
}

/// Run one coalesced evaluation for `op` against `model`.
fn eval_model(model: &Model, op: Op, w: &Matrix) -> Result<Matrix, MatroxError> {
    match (model, op) {
        (Model::Matvec(s), Op::Matvec) => s.evaluate(w),
        (Model::Solve(f), Op::Solve) => f.solve_matrix(w),
        (Model::Matvec(_), Op::Solve) => Err(MatroxError::PlanMismatch(
            "model is a compressed operator (matvec); load a factored model (MATROXF3) to solve"
                .to_string(),
        )),
        (Model::Solve(_), Op::Matvec) => Err(MatroxError::PlanMismatch(
            "model is a factored operator (solve); load a compressed model (MATROX2) for matvecs"
                .to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_core::{EvalSession, MatRoxParams};
    use matrox_points::{generate, DatasetId, Kernel};
    use std::sync::Arc;

    fn is_reactor_gone(r: &Response) -> bool {
        matches!(
            r,
            Response::Error {
                kind: ErrorKind::PoolPanic,
                ..
            }
        )
    }

    #[test]
    fn try_take_yields_a_live_reply_once_then_none() {
        let n = 64;
        let points = generate(DatasetId::Grid, n, 3);
        let kernel = Kernel::Gaussian { bandwidth: 2.0 };
        let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
        let session = EvalSession::build(&points, &kernel, &params).expect("session");
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let handle = server.handle();
        handle
            .insert_model("m", Model::Matvec(Arc::new(session)))
            .expect("insert");
        let mut ticket = handle.submit(Request::Query {
            model: "m".to_string(),
            tenant: "t".to_string(),
            rhs: vec![1.0; n],
        });
        let first = loop {
            if let Some(r) = ticket.try_take() {
                break r;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(first, Response::Reply { .. }), "{first:?}");
        // The reactor is still running: the answered ticket stays empty.
        for _ in 0..3 {
            assert_eq!(ticket.try_take(), None);
        }
        handle.flush().expect("reactor alive");
    }

    #[test]
    fn a_ticket_submitted_after_shutdown_reads_reactor_gone() {
        let server = Server::spawn(ServeConfig::default()).expect("spawn");
        let handle = server.handle();
        server.shutdown().expect("shutdown");
        let waited = handle.submit(Request::Flush).wait();
        assert!(is_reactor_gone(&waited), "{waited:?}");
        let mut ticket = handle.submit(Request::Flush);
        let taken = ticket.try_take().expect("answered at once");
        assert!(is_reactor_gone(&taken), "{taken:?}");
        assert_eq!(ticket.try_take(), None);
    }
}
