//! The network front-end: a single-threaded epoll event loop that frames
//! [`proto::Request`](crate::proto::Request)s off TCP connections into the
//! serving reactor.
//!
//! CONCURRENCY: the net thread ("matrox-net") owns every socket — the
//! listener, all connections, their buffers, the epoll instance — and is
//! the only thread that touches them.  It talks to the rest of the process
//! through exactly two already-audited surfaces: the [`ServeHandle`] it
//! submits requests into (mpsc under the hood, owned by server.rs) and one
//! `AtomicBool` stop flag that [`NetServer::shutdown`] sets.  There are no
//! locks; a [`PendingResponse`] is polled with its non-blocking `try_take`
//! between epoll wakeups, so the net thread never blocks on the reactor and
//! the reactor never knows the network exists.
//!
//! ## Shape of the loop
//!
//! Level-triggered epoll over the non-blocking listener plus every
//! connection.  Each wakeup: accept whatever is pending, read every
//! readable connection to `WouldBlock`, pop complete frames, run admission
//! control, submit admitted requests, poll in-flight tickets, write
//! finished responses back (registering `EPOLLOUT` only while a write
//! buffer is non-empty), expire requests past their latency budget, and
//! sweep idle connections.
//!
//! ## Admission control — shed, never buffer
//!
//! Three caps bound the work the loop will hold, checked before a request
//! is submitted ([`NetConfig::max_inflight_per_conn`], `_per_tenant`,
//! `_total`).  A request over any cap is answered immediately with
//! [`Response::Overloaded`] naming the cap — the dispatch queue is bounded
//! by construction, so a paced flood degrades into explicit sheds instead
//! of unbounded memory growth and collapsing tail latency.

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: the net thread owns every socket and buffer; the only state it shares is one AtomicBool stop flag that `NetServer::shutdown` sets (module docs)"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "CONCURRENCY: the epoll event loop is a long-lived named service thread, not a parallel worker; the pool cannot host it"
)]

use crate::net::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::proto::{encode_frame, take_frame, Request, Response};
use crate::server::{PendingResponse, ServeHandle};
use matrox_core::MatroxError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod epoll;

/// Configuration of the network front-end; same builder idiom as
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// TCP port to bind on loopback (`0` = OS-assigned ephemeral port;
    /// read the result from [`NetServer::addr`]).
    pub port: u16,
    /// Maximum simultaneous connections; further accepts are answered with
    /// a best-effort `Overloaded` frame and closed.
    pub max_conns: usize,
    /// In-flight request cap per connection.
    pub max_inflight_per_conn: usize,
    /// In-flight request cap per tenant, across connections.
    pub max_inflight_per_tenant: usize,
    /// Total in-flight cap — the bounded dispatch queue between the socket
    /// front-end and the reactor.
    pub max_inflight_total: usize,
    /// Close connections with no traffic and no in-flight work for this
    /// long.  `Duration::ZERO` disables the sweep.
    pub idle_timeout: Duration,
    /// Expire a request still unanswered after this long with an
    /// `Overloaded` reply (it may still complete server-side; the client
    /// has stopped waiting).  `Duration::ZERO` disables expiry.
    pub latency_budget: Duration,
    /// Largest accepted frame payload; a frame declaring more is a framing
    /// error and closes the connection.
    pub max_frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            port: 0,
            max_conns: 64,
            max_inflight_per_conn: 32,
            max_inflight_per_tenant: 64,
            max_inflight_total: 256,
            idle_timeout: Duration::from_secs(30),
            latency_budget: Duration::ZERO,
            max_frame_bytes: 16 << 20,
        }
    }
}

impl NetConfig {
    /// Set the TCP port (`0` = ephemeral).
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Set the connection limit (clamped up to 1).
    pub fn with_max_conns(mut self, n: usize) -> Self {
        self.max_conns = n.max(1);
        self
    }

    /// Set the per-connection in-flight cap (clamped up to 1).
    pub fn with_max_inflight_per_conn(mut self, n: usize) -> Self {
        self.max_inflight_per_conn = n.max(1);
        self
    }

    /// Set the per-tenant in-flight cap (clamped up to 1).
    pub fn with_max_inflight_per_tenant(mut self, n: usize) -> Self {
        self.max_inflight_per_tenant = n.max(1);
        self
    }

    /// Set the total in-flight cap (clamped up to 1).
    pub fn with_max_inflight_total(mut self, n: usize) -> Self {
        self.max_inflight_total = n.max(1);
        self
    }

    /// Set the idle-connection timeout (`ZERO` disables).
    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Set the per-request latency budget (`ZERO` disables).
    pub fn with_latency_budget(mut self, t: Duration) -> Self {
        self.latency_budget = t;
        self
    }

    /// Set the frame payload limit (clamped up to 1 KiB).
    pub fn with_max_frame_bytes(mut self, n: usize) -> Self {
        self.max_frame_bytes = n.max(1024);
        self
    }
}

/// Counters the event loop accumulated over its lifetime, returned by
/// [`NetServer::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted (including ones immediately shed).
    pub accepted: u64,
    /// Responses written back (every admitted request produces exactly one,
    /// unless its connection died first).
    pub served: u64,
    /// Requests (or connections) answered with `Overloaded` by admission
    /// control.
    pub shed: u64,
    /// Admitted requests expired by the latency budget before the reactor
    /// answered.
    pub expired: u64,
    /// Connections closed by the idle sweep.
    pub idle_closed: u64,
    /// Frames that decoded to garbage (the connection survives) or broke
    /// framing entirely (the connection closes after an error reply).
    pub decode_errors: u64,
}

const LISTENER_TOKEN: u64 = u64::MAX;
/// epoll timeout while requests are in flight: the reactor cannot wake the
/// net thread (mpsc has no fd), so in-flight tickets are polled at this
/// cadence.
const INFLIGHT_POLL: Duration = Duration::from_millis(1);
/// epoll timeout when fully idle: bounds stop-flag and idle-sweep latency.
const IDLE_POLL: Duration = Duration::from_millis(25);
/// How long shutdown keeps draining in-flight work and unflushed writes.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// A running network front-end: the "matrox-net" event-loop thread plus
/// the address it bound.  Dropping it stops the loop (in-flight work is
/// drained, see [`NetServer::shutdown`]).
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<NetStats>>,
}

impl NetServer {
    /// Bind `127.0.0.1:port` and start the event loop, forwarding decoded
    /// requests into `handle`'s server.
    ///
    /// # Errors
    /// [`MatroxError::Io`]: the bind, the epoll setup, or the thread spawn
    /// failed.
    pub fn spawn(handle: ServeHandle, cfg: NetConfig) -> Result<NetServer, MatroxError> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        let stop = Arc::new(AtomicBool::new(false));
        let event_loop = EventLoop {
            epoll,
            listener: Some(listener),
            handle,
            cfg: NetConfig {
                max_conns: cfg.max_conns.max(1),
                max_inflight_per_conn: cfg.max_inflight_per_conn.max(1),
                max_inflight_per_tenant: cfg.max_inflight_per_tenant.max(1),
                max_inflight_total: cfg.max_inflight_total.max(1),
                ..cfg
            },
            stop: stop.clone(),
            conns: HashMap::new(),
            next_token: 0,
            tenant_inflight: HashMap::new(),
            total_inflight: 0,
            stats: NetStats::default(),
        };
        let thread = std::thread::Builder::new()
            .name("matrox-net".to_string())
            .spawn(move || event_loop.run())
            .map_err(MatroxError::Io)?;
        Ok(NetServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests (bounded by an internal
    /// deadline), flush replies, close every connection, and return the
    /// loop's counters.
    ///
    /// # Errors
    /// [`MatroxError::PoolPanic`] if the event-loop thread panicked.
    pub fn shutdown(mut self) -> Result<NetStats, MatroxError> {
        self.stop.store(true, Ordering::Release);
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| MatroxError::PoolPanic("matrox-net event loop panicked".to_string())),
            None => Ok(NetStats::default()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One admitted request awaiting its reactor response.
struct Inflight {
    corr: u64,
    pending: PendingResponse,
    tenant: Option<String>,
    since: Instant,
}

/// Per-connection state, owned exclusively by the event loop.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    inflight: Vec<Inflight>,
    last_activity: Instant,
    /// Registered for `EPOLLOUT` (only while `write_buf` has a backlog).
    wants_write: bool,
    /// Peer EOF or unrecoverable framing error: flush `write_buf`, then
    /// close.  No new frames are read.
    closing: bool,
}

impl Conn {
    fn write_backlog(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    handle: ServeHandle,
    cfg: NetConfig,
    stop: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    tenant_inflight: HashMap<String, usize>,
    total_inflight: usize,
    stats: NetStats,
}

impl EventLoop {
    fn run(mut self) -> NetStats {
        let mut events = vec![EpollEvent::default(); 64];
        while !self.stop.load(Ordering::Acquire) {
            let timeout = if self.total_inflight > 0 {
                INFLIGHT_POLL
            } else {
                IDLE_POLL
            };
            let ready: Vec<(u64, u32)> = match self.epoll.wait(&mut events, Some(timeout)) {
                Ok(evs) => evs.iter().map(|e| (e.data, { e.events })).collect(),
                Err(_) => break, // epoll itself failed: nothing left to drive
            };
            for (token, mask) in ready {
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                    continue;
                }
                if mask & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                    self.conn_readable(token);
                }
                if mask & EPOLLOUT != 0 {
                    self.flush_writes(token);
                }
            }
            self.poll_inflight();
            self.expire_budgets();
            self.sweep_idle();
            self.reap_closed();
        }
        self.drain()
    }

    /// Shutdown path: stop accepting, expedite the reactor's queues, keep
    /// polling in-flight tickets and flushing replies until drained or the
    /// deadline passes, then close everything.
    fn drain(mut self) -> NetStats {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.del(listener.as_raw_fd());
        }
        let _ = self.handle.flush();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            self.poll_inflight();
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.flush_writes(token);
            }
            self.reap_closed();
            let pending_writes = self.conns.values().any(Conn::write_backlog);
            if (self.total_inflight == 0 && !pending_writes) || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(INFLIGHT_POLL);
        }
        for (_, conn) in self.conns.drain() {
            let _ = self.epoll.del(conn.stream.as_raw_fd());
        }
        self.stats
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted += 1;
                    if self.conns.len() >= self.cfg.max_conns {
                        // Over the connection cap: best-effort Overloaded
                        // frame, then drop (which closes).
                        self.stats.shed += 1;
                        let payload = Response::Overloaded {
                            reason: format!("connection limit ({}) reached", self.cfg.max_conns),
                        }
                        .encode();
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&encode_frame(0, &payload));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(stream.as_raw_fd(), EPOLLIN, token).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            inflight: Vec::new(),
                            last_activity: Instant::now(),
                            wants_write: false,
                            closing: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drain a readable connection into its buffer and process every
    /// complete frame.
    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.last_activity = Instant::now();
        if conn.closing {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        self.process_frames(token);
    }

    fn process_frames(&mut self, token: u64) {
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match take_frame(&mut conn.read_buf, self.cfg.max_frame_bytes) {
                    Ok(Some(f)) => f,
                    Ok(None) => return,
                    Err(e) => {
                        // Framing itself is broken — the stream cannot be
                        // resynced.  Tell the peer why, then close.
                        self.stats.decode_errors += 1;
                        conn.closing = true;
                        self.respond(token, 0, Response::from_error(&e));
                        return;
                    }
                }
            };
            let (corr, payload) = frame;
            match Request::decode(&payload) {
                Err(e) => {
                    // The frame was well-delimited but the message inside
                    // is garbage: error reply, connection survives.
                    self.stats.decode_errors += 1;
                    self.respond(token, corr, Response::from_error(&e));
                }
                Ok(req) => self.admit(token, corr, req),
            }
        }
    }

    /// Admission control: shed with an explicit reason, or submit into the
    /// reactor and track the in-flight ticket.
    fn admit(&mut self, token: u64, corr: u64, req: Request) {
        let tenant_count = |map: &HashMap<String, usize>, t: Option<&str>| {
            t.and_then(|t| map.get(t).copied()).unwrap_or(0)
        };
        let reason = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.inflight.len() >= self.cfg.max_inflight_per_conn {
                Some(format!(
                    "per-connection in-flight cap ({}) reached",
                    self.cfg.max_inflight_per_conn
                ))
            } else if self.total_inflight >= self.cfg.max_inflight_total {
                Some(format!(
                    "dispatch queue full ({} requests in flight)",
                    self.cfg.max_inflight_total
                ))
            } else if tenant_count(&self.tenant_inflight, req.tenant())
                >= self.cfg.max_inflight_per_tenant
            {
                Some(format!(
                    "tenant '{}' in-flight cap ({}) reached",
                    req.tenant().unwrap_or(""),
                    self.cfg.max_inflight_per_tenant
                ))
            } else {
                None
            }
        };
        if let Some(reason) = reason {
            self.stats.shed += 1;
            self.respond(token, corr, Response::Overloaded { reason });
            return;
        }
        let tenant = req.tenant().map(str::to_string);
        if let Some(t) = &tenant {
            *self.tenant_inflight.entry(t.clone()).or_insert(0) += 1;
        }
        self.total_inflight += 1;
        let pending = self.handle.submit(req);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight.push(Inflight {
                corr,
                pending,
                tenant,
                since: Instant::now(),
            });
        }
    }

    /// Poll every in-flight ticket; completed ones become response frames.
    fn poll_inflight(&mut self) {
        let mut done: Vec<(u64, u64, Response)> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let mut i = 0;
            while i < conn.inflight.len() {
                match conn.inflight[i].pending.try_take() {
                    Some(resp) => {
                        let inf = conn.inflight.swap_remove(i);
                        release_inflight(
                            &mut self.tenant_inflight,
                            &mut self.total_inflight,
                            inf.tenant.as_deref(),
                        );
                        done.push((token, inf.corr, resp));
                    }
                    None => i += 1,
                }
            }
        }
        for (token, corr, resp) in done {
            self.stats.served += 1;
            self.respond(token, corr, resp);
        }
    }

    /// Expire admitted requests that outlived the latency budget: the
    /// client gets `Overloaded` now; the reactor's eventual answer is
    /// abandoned.
    fn expire_budgets(&mut self) {
        if self.cfg.latency_budget.is_zero() {
            return;
        }
        let budget = self.cfg.latency_budget;
        let mut expired: Vec<(u64, u64)> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let mut i = 0;
            while i < conn.inflight.len() {
                if conn.inflight[i].since.elapsed() > budget {
                    let inf = conn.inflight.swap_remove(i);
                    release_inflight(
                        &mut self.tenant_inflight,
                        &mut self.total_inflight,
                        inf.tenant.as_deref(),
                    );
                    expired.push((token, inf.corr));
                } else {
                    i += 1;
                }
            }
        }
        for (token, corr) in expired {
            self.stats.expired += 1;
            self.respond(
                token,
                corr,
                Response::Overloaded {
                    reason: format!("latency budget ({budget:?}) expired while queued"),
                },
            );
        }
    }

    /// Close connections that have been completely quiet past the idle
    /// timeout (no traffic, nothing in flight, nothing left to write).
    fn sweep_idle(&mut self) {
        if self.cfg.idle_timeout.is_zero() {
            return;
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.inflight.is_empty()
                    && !c.write_backlog()
                    && c.last_activity.elapsed() > self.cfg.idle_timeout
            })
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.stats.idle_closed += 1;
            self.drop_conn(token);
        }
    }

    /// Close `closing` connections whose write buffer has drained (their
    /// remaining in-flight work is abandoned).
    fn reap_closed(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.closing && !c.write_backlog())
            .map(|(&t, _)| t)
            .collect();
        for token in done {
            self.drop_conn(token);
        }
    }

    /// Frame a response onto a connection's write buffer and push bytes.
    fn respond(&mut self, token: u64, corr: u64, resp: Response) {
        let payload = resp.encode();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.write_buf
                .extend_from_slice(&encode_frame(corr, &payload));
        }
        self.flush_writes(token);
    }

    /// Write as much of the backlog as the socket accepts; arm `EPOLLOUT`
    /// exactly while a backlog remains.
    fn flush_writes(&mut self, token: u64) {
        let epoll = &self.epoll;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    conn.closing = true;
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    break;
                }
                Ok(n) => conn.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closing = true;
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    break;
                }
            }
        }
        if conn.write_backlog() {
            if !conn.wants_write {
                conn.wants_write = epoll
                    .modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLOUT, token)
                    .is_ok();
            }
        } else {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.wants_write {
                let _ = epoll.modify(conn.stream.as_raw_fd(), EPOLLIN, token);
                conn.wants_write = false;
            }
        }
    }

    /// Remove a connection entirely, releasing its in-flight accounting.
    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            for inf in &conn.inflight {
                release_inflight(
                    &mut self.tenant_inflight,
                    &mut self.total_inflight,
                    inf.tenant.as_deref(),
                );
            }
            let _ = self.epoll.del(conn.stream.as_raw_fd());
        }
    }
}

/// Release one in-flight slot (free function so callers can split borrows
/// of the event loop's fields).
fn release_inflight(
    tenant_inflight: &mut HashMap<String, usize>,
    total_inflight: &mut usize,
    tenant: Option<&str>,
) {
    if let Some(t) = tenant {
        if let Some(n) = tenant_inflight.get_mut(t) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                tenant_inflight.remove(t);
            }
        }
    }
    *total_inflight = total_inflight.saturating_sub(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = NetConfig::default();
        assert_eq!(c.port, 0, "ephemeral by default");
        assert!(c.max_inflight_per_conn >= 1);
        assert!(c.max_inflight_total >= c.max_inflight_per_conn);
        assert!(c.idle_timeout > Duration::ZERO);
        assert!(c.latency_budget.is_zero(), "no budget unless asked");
        assert!(c.max_frame_bytes >= 1 << 20);
    }

    #[test]
    fn builders_clamp_and_compose() {
        let c = NetConfig::default()
            .with_port(9999)
            .with_max_conns(0)
            .with_max_inflight_per_conn(0)
            .with_max_inflight_per_tenant(0)
            .with_max_inflight_total(0)
            .with_idle_timeout(Duration::from_secs(1))
            .with_latency_budget(Duration::from_millis(5))
            .with_max_frame_bytes(0);
        assert_eq!(c.port, 9999);
        assert_eq!(c.max_conns, 1);
        assert_eq!(c.max_inflight_per_conn, 1);
        assert_eq!(c.max_inflight_per_tenant, 1);
        assert_eq!(c.max_inflight_total, 1);
        assert_eq!(c.idle_timeout, Duration::from_secs(1));
        assert_eq!(c.latency_budget, Duration::from_millis(5));
        assert_eq!(c.max_frame_bytes, 1024, "frame cap clamps to 1 KiB");
    }

    #[test]
    fn release_inflight_is_saturating_and_prunes() {
        let mut tenants = HashMap::new();
        let mut total = 2usize;
        tenants.insert("t".to_string(), 1usize);
        release_inflight(&mut tenants, &mut total, Some("t"));
        assert!(tenants.is_empty(), "zeroed tenant entries are pruned");
        assert_eq!(total, 1);
        release_inflight(&mut tenants, &mut total, Some("missing"));
        release_inflight(&mut tenants, &mut total, None);
        assert_eq!(total, 0);
        release_inflight(&mut tenants, &mut total, None);
        assert_eq!(total, 0, "saturating at zero");
    }
}
