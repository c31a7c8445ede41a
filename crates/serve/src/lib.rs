//! # matrox-serve
//!
//! A multi-model serving layer over the MatRox inspector–executor core.
//!
//! The paper's economics are "plan once, evaluate many": the inspector is
//! expensive, the prepared executor is cheap, and *batched* evaluation is
//! an order of magnitude cheaper per query than one-column matvecs (10–11x at
//! a batch of 16, EXPERIMENTS.md "Fig 4"; the benchmark's `ml_wide` tracks
//! the batched side as `op_s` at Q = 256 and `alt_s` at Q = 16).
//! A serving process sees the opposite shape of traffic — many independent
//! clients each asking for one right-hand side at a time — so this crate
//! closes the gap with **request coalescing**: concurrently-arriving single-query
//! requests against the same model are gathered into one RHS panel and fed
//! through the model's shared [`EvalSession`](matrox_core::EvalSession) in a
//! single panel-blocked
//! evaluation.  The executor's determinism contract (output is bitwise
//! independent of panel grouping) is what makes this safe: a coalesced
//! response is bitwise identical to the response the query would have
//! received alone.
//!
//! ## Architecture
//!
//! One reactor thread owns everything mutable — a model registry, the
//! per-`(model, tenant, op)` coalescing queues, and the per-tenant
//! statistics — and consumes a channel of messages ([`Server::spawn`]).
//! Clients hold a cheap, cloneable [`ServeHandle`] and get a
//! [`PendingQuery`] future-like ticket back per request.  There are no
//! locks on the request path and the reactor never blocks on a client.
//!
//! * **Coalescing** — a query waits at most [`ServeConfig::coalesce_window`]
//!   for co-batchable queries (same model, same tenant, same operation); a
//!   queue that reaches [`ServeConfig::max_batch`] flushes immediately.
//!   Batches never mix tenants, so one tenant's poison input or contained
//!   panic can only ever delay — never fail — another tenant's queries.
//! * **Registry** — models are keyed by id and backed by the MatRox model
//!   format ([`matrox_core::load`] / [`matrox_core::load_factored`]); the
//!   registry enforces a per-process memory budget with LRU eviction and
//!   transparently reloads evicted path-backed models on the next request.
//! * **Fault containment** — the PR 7 taxonomy rides along: a batch that
//!   fails (poison input, contained panic) is retried query-by-query so the
//!   failure lands only on the query that caused it, and the counters
//!   ([`TenantStats`]) record what happened.
//!
//! ## Quick start
//!
//! ```
//! use matrox_core::{EvalSession, MatRoxParams};
//! use matrox_points::{generate, DatasetId, Kernel};
//! use matrox_serve::{Model, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let points = generate(DatasetId::Grid, 256, 0);
//! let kernel = Kernel::Gaussian { bandwidth: 5.0 };
//! let params = MatRoxParams::h2b().with_bacc(1e-4).with_leaf_size(64);
//! let session = EvalSession::build(&points, &kernel, &params)?;
//!
//! let server = Server::spawn(ServeConfig::default())?;
//! let handle = server.handle();
//! handle.insert_model("demo", Model::Matvec(Arc::new(session)))?;
//!
//! // Submit without waiting; concurrently-arriving queries coalesce.
//! let pending: Vec<_> = (0..8)
//!     .map(|i| handle.query("demo", "tenant-a", vec![i as f64; 256]))
//!     .collect();
//! for p in pending {
//!     let reply = p.wait()?;
//!     assert_eq!(reply.y.len(), 256);
//! }
//! let stats = server.shutdown()?;
//! assert_eq!(stats.tenant("tenant-a").map(|t| t.queries), Some(8));
//! # Ok::<(), matrox_core::MatroxError>(())
//! ```

// No `forbid(unsafe_code)` here: the workspace-wide `unsafe_code = "deny"`
// covers the crate, and the epoll FFI module (`net::epoll`) is its one
// audited `#![expect(unsafe_code)]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod net;
pub mod proto;
pub mod registry;
pub mod server;
pub mod stats;

pub use client::NetClient;
pub use net::{NetConfig, NetServer, NetStats};
pub use proto::{ErrorKind, Request, Response};
pub use registry::{Model, ModelRegistry, RegistryStats};
pub use server::{Op, PendingQuery, PendingResponse, QueryReply, ServeHandle, Server};
pub use stats::{ServerStats, TenantStats};

use std::time::Duration;

/// Serving-layer configuration: the coalescing policy and the registry's
/// memory budget.  [`ServeConfig::default`] is tuned for interactive
/// workloads; the `with_*` builders are the one way to change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Upper bound (bytes) on resident model payload before the registry
    /// evicts least-recently-used models.  `0` means unlimited.  A single
    /// model larger than the whole budget is still admitted (and evicts
    /// everything else): serving must keep working, the budget is a target.
    pub memory_budget_bytes: usize,
    /// Maximum RHS columns coalesced into one evaluation; a queue that
    /// reaches this width flushes without waiting out the window.  `1`
    /// disables coalescing.
    pub max_batch: usize,
    /// How long a query may wait for co-batchable companions before its
    /// queue is flushed.  The window starts when the queue's *first* query
    /// arrives and is never extended, so a steady trickle cannot starve a
    /// waiting query.
    pub coalesce_window: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            memory_budget_bytes: 0,
            max_batch: 16,
            coalesce_window: Duration::from_micros(200),
        }
    }
}

impl ServeConfig {
    /// Set the memory budget (bytes; `0` = unlimited).
    pub fn with_memory_budget_bytes(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = bytes;
        self
    }

    /// Set the maximum coalesced batch width (clamped up to 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Set the coalesce window.
    pub fn with_coalesce_window(mut self, window: Duration) -> Self {
        self.coalesce_window = window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.memory_budget_bytes, 0);
        assert!(c.max_batch > 1, "coalescing on by default");
        assert!(c.coalesce_window > Duration::ZERO);
    }

    #[test]
    fn builders_clamp_and_compose() {
        let c = ServeConfig::default()
            .with_max_batch(0)
            .with_memory_budget_bytes(1 << 20)
            .with_coalesce_window(Duration::from_millis(1));
        assert_eq!(c.max_batch, 1, "max_batch 0 would deadlock the flush loop");
        assert_eq!(c.memory_budget_bytes, 1 << 20);
        assert_eq!(c.coalesce_window, Duration::from_millis(1));
    }
}
