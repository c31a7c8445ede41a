//! The serving reactor: one thread, one channel, all mutable state.
//!
//! CONCURRENCY: this file is the serving layer's entire concurrency
//! surface, kept deliberately minimal.  A single reactor thread owns the
//! model registry, the coalescing queues and the statistics; clients only
//! ever touch `mpsc` endpoints.  Requests flow in over one shared sender
//! ([`ServeHandle`] is a cheap clone of it) and every reply flows back over
//! a per-request one-shot channel ([`PendingQuery`]).  There are no locks
//! anywhere, so there is nothing to poison and no ordering to get wrong:
//! the channel *is* the synchronization.  Parallelism inside an evaluation
//! still belongs to the executor's rayon pool; the reactor only decides
//! *what* to evaluate together.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "CONCURRENCY: mpsc request / reply channels are the reactor's whole concurrency surface; one thread owns all mutable state (module docs)"
)]

use crate::proto::{Request, Response};
use crate::registry::{Model, ModelRegistry};
use crate::stats::{ServerStats, TenantStats};
use crate::ServeConfig;
use matrox_core::MatroxError;
use matrox_linalg::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    reply: Sender<Result<QueryReply, MatroxError>>,
}

enum Msg {
    Query(QueryMsg),
    LoadPath {
        id: String,
        path: PathBuf,
        reply: Sender<Result<(), MatroxError>>,
    },
    Insert {
        id: String,
        model: Model,
        reply: Sender<()>,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    Flush {
        reply: Sender<()>,
    },
    Shutdown,
}

/// The response the reactor produces for a dropped channel: the submitter
/// gets a clean protocol-level error instead of a hang.
fn reactor_gone() -> Response {
    Response::from_error(&MatroxError::PoolPanic(
        "serve reactor is shut down".to_string(),
    ))
}

#[derive(Debug)]
enum PendingInner {
    Query(Receiver<Result<QueryReply, MatroxError>>),
    Ack(Receiver<Result<(), MatroxError>>),
    Stats(Receiver<ServerStats>),
    Flush(Receiver<()>),
    /// Already answered at submit time (reactor gone); `None` after
    /// [`PendingResponse::try_take`] hands it out.  Boxed: this cold
    /// variant would otherwise set the size of every ticket.
    Ready(Option<Box<Response>>),
}

/// A ticket for one submitted [`Request`]: the single pending-reply type
/// every submission path returns, in-process or wire.  Redeem it blocking
/// with [`wait`](PendingResponse::wait) or poll it with
/// [`try_take`](PendingResponse::try_take) (what the network event loop
/// does between epoll wakeups).  Dropping it abandons the answer; the
/// reactor still serves the request.
#[derive(Debug)]
pub struct PendingResponse {
    inner: PendingInner,
}

impl PendingResponse {
    fn ready(resp: Response) -> Self {
        PendingResponse {
            inner: PendingInner::Ready(Some(Box::new(resp))),
        }
    }

    /// Block until the response arrives.  Never fails: a vanished reactor
    /// becomes a [`Response::Error`] of kind `PoolPanic`.
    pub fn wait(self) -> Response {
        match self.inner {
            PendingInner::Query(rx) => match rx.recv() {
                Ok(r) => Response::from_query_result(r),
                Err(_) => reactor_gone(),
            },
            PendingInner::Ack(rx) => match rx.recv() {
                Ok(Ok(())) => Response::Done,
                Ok(Err(e)) => Response::from_error(&e),
                Err(_) => reactor_gone(),
            },
            PendingInner::Stats(rx) => match rx.recv() {
                Ok(s) => Response::Stats(s),
                Err(_) => reactor_gone(),
            },
            PendingInner::Flush(rx) => match rx.recv() {
                Ok(()) => Response::Done,
                Err(_) => reactor_gone(),
            },
            PendingInner::Ready(resp) => resp.map_or_else(reactor_gone, |r| *r),
        }
    }

    /// Non-blocking poll: `Some(response)` once the reactor has answered,
    /// `None` while the request is still in flight.  After the response has
    /// been taken once, subsequent polls return `None`.
    pub fn try_take(&mut self) -> Option<Response> {
        fn poll<T>(rx: &Receiver<T>, ok: impl FnOnce(T) -> Response) -> Option<Response> {
            match rx.try_recv() {
                Ok(v) => Some(ok(v)),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(reactor_gone()),
            }
        }
        match &mut self.inner {
            PendingInner::Query(rx) => poll(rx, Response::from_query_result),
            PendingInner::Ack(rx) => poll(rx, |r| match r {
                Ok(()) => Response::Done,
                Err(e) => Response::from_error(&e),
            }),
            PendingInner::Stats(rx) => poll(rx, Response::Stats),
            PendingInner::Flush(rx) => poll(rx, |()| Response::Done),
            PendingInner::Ready(resp) => resp.take().map(|r| *r),
        }
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
        match req {
            Request::Query { model, tenant, rhs } => {
                self.submit_query(model, tenant, Op::Matvec, rhs)
            }
            Request::Solve { model, tenant, rhs } => {
                self.submit_query(model, tenant, Op::Solve, rhs)
            }
            Request::LoadModel { id, path } => {
                let (reply, rx) = channel();
                match self.tx.send(Msg::LoadPath {
                    id,
                    path: PathBuf::from(path),
                    reply,
                }) {
                    Ok(()) => PendingResponse {
                        inner: PendingInner::Ack(rx),
                    },
                    Err(_) => PendingResponse::ready(reactor_gone()),
                }
            }
            Request::Stats => {
                let (reply, rx) = channel();
                match self.tx.send(Msg::Stats { reply }) {
                    Ok(()) => PendingResponse {
                        inner: PendingInner::Stats(rx),
                    },
                    Err(_) => PendingResponse::ready(reactor_gone()),
                }
            }
            Request::Flush => {
                let (reply, rx) = channel();
                match self.tx.send(Msg::Flush { reply }) {
                    Ok(()) => PendingResponse {
                        inner: PendingInner::Flush(rx),
                    },
                    Err(_) => PendingResponse::ready(reactor_gone()),
                }
            }
        }
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

    fn submit_query(
        &self,
        model: String,
        tenant: String,
        op: Op,
        rhs: Vec<f64>,
    ) -> PendingResponse {
        let (reply, rx) = channel();
        let msg = Msg::Query(QueryMsg {
            model,
            tenant,
            op,
            rhs,
            enqueued: Instant::now(),
            reply,
        });
        if self.tx.send(msg).is_err() {
            // Reactor already gone: answer the ticket ourselves so `wait`
            // reports a clean error instead of a hung channel.
            return PendingResponse::ready(reactor_gone());
        }
        PendingResponse {
            inner: PendingInner::Query(rx),
        }
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
        let stats = self.handle.stats();
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
            Msg::Query(q) => self.enqueue(q),
            Msg::LoadPath { id, path, reply } => {
                let _ = reply.send(self.registry.register_path(&id, path));
            }
            Msg::Insert { id, model, reply } => {
                self.registry.insert(&id, model);
                let _ = reply.send(());
            }
            Msg::Stats { reply } => {
                let _ = reply.send(self.snapshot());
            }
            Msg::Flush { reply } => {
                self.flush_all();
                let _ = reply.send(());
            }
            Msg::Shutdown => return false,
        }
        true
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
                for q in items {
                    self.reply_one(q, Err(clone_error(&e)), t0, Duration::ZERO, 1);
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
                self.reply_one(q, Err(e), t0, Duration::ZERO, 1);
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
                    let col = y.col(j);
                    self.reply_one(
                        q,
                        Ok(QueryReply {
                            y: col,
                            queue_wait: Duration::ZERO, // patched in reply_one
                            service,
                            batch_width: b,
                        }),
                        t0,
                        service,
                        b,
                    );
                }
            }
            Err(e) if b == 1 => {
                self.bump_batches(&key.tenant, 1);
                if let Some(q) = good.into_iter().next() {
                    self.reply_one(q, Err(e), t0, service, 1);
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
                    let r = eval_model(&model, key.op, &single).map(|y| QueryReply {
                        y: y.col(0),
                        queue_wait: Duration::ZERO,
                        service: t1.elapsed(),
                        batch_width: 1,
                    });
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

    /// Account one answered query to its tenant and send the reply.
    /// `dispatched` is when its batch left the queue (queue wait is
    /// `dispatched - enqueued`); `service`/`width` describe the evaluation
    /// that served it.
    fn reply_one(
        &mut self,
        q: QueryMsg,
        result: Result<QueryReply, MatroxError>,
        dispatched: Instant,
        service: Duration,
        width: usize,
    ) {
        let queue_wait = dispatched.saturating_duration_since(q.enqueued);
        let t = self.tenants.entry(q.tenant.clone()).or_default();
        t.queries += 1;
        t.queue_wait_seconds += queue_wait.as_secs_f64();
        t.service_seconds += service.as_secs_f64();
        let result = match result {
            Ok(mut r) => {
                r.queue_wait = queue_wait;
                r.batch_width = width;
                Ok(r)
            }
            Err(e) => {
                t.errors += 1;
                if matches!(e, MatroxError::PoolPanic(_)) {
                    t.contained_panics += 1;
                }
                Err(e)
            }
        };
        let _ = q.reply.send(result);
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
        (Model::Solve(f), Op::Solve) => {
            // The session boundary contains matvec panics; give solves the
            // same "a request can fail; the process cannot" contract here.
            match catch_unwind(AssertUnwindSafe(|| f.solve_matrix(w))) {
                Ok(r) => r,
                Err(payload) => Err(MatroxError::PoolPanic(panic_message(&payload))),
            }
        }
        (Model::Matvec(_), Op::Solve) => Err(MatroxError::PlanMismatch(
            "model is a compressed operator (matvec); load a factored model (MATROXF2) to solve"
                .to_string(),
        )),
        (Model::Solve(_), Op::Matvec) => Err(MatroxError::PlanMismatch(
            "model is a factored operator (solve); load a compressed model (MATROX2) for matvecs"
                .to_string(),
        )),
    }
}

/// Duplicate an error for fan-out to every member of a failed batch
/// (`MatroxError` holds `std::io::Error` and so cannot be `Clone`).
fn clone_error(e: &MatroxError) -> MatroxError {
    match e {
        MatroxError::Io(io) => MatroxError::Io(std::io::Error::new(io.kind(), io.to_string())),
        MatroxError::Format(m) => MatroxError::Format(m.clone()),
        MatroxError::NumericalBreakdown(m) => MatroxError::NumericalBreakdown(m.clone()),
        MatroxError::InvalidInput(m) => MatroxError::InvalidInput(m.clone()),
        MatroxError::PlanMismatch(m) => MatroxError::PlanMismatch(m.clone()),
        MatroxError::PoolPanic(m) => MatroxError::PoolPanic(m.clone()),
        MatroxError::Overloaded(m) => MatroxError::Overloaded(m.clone()),
    }
}

/// Best-effort extraction of a panic payload's message (same policy as the
/// session boundary: `&str` and `String` payloads verbatim, anything else a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
