//! Serving-layer statistics: per-tenant queueing/serving accumulators plus
//! the registry and session counters they ride on.

use crate::registry::RegistryStats;
use matrox_core::SessionStats;

/// Accumulated serving counters for one tenant.  All durations are
/// reactor-side (stamped when the query is enqueued and when its batch is
/// dispatched/finished), so a slow client draining replies does not inflate
/// another tenant's numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStats {
    /// Queries answered (successfully or not).
    pub queries: u64,
    /// Coalesced evaluations dispatched on this tenant's behalf.  Batch
    /// retries after a failure count once per retried query.
    pub batches: u64,
    /// Total time queries spent waiting in a coalescing queue.
    pub queue_wait_seconds: f64,
    /// Total time spent inside evaluate/solve calls for this tenant's
    /// batches (each query in a batch is charged the full batch service
    /// time — that is the latency it observed).
    pub service_seconds: f64,
    /// Queries answered with an error.
    pub errors: u64,
    /// Errors that were contained panics (`MatroxError::PoolPanic`): an
    /// internal invariant blew up, the session boundary caught it, and only
    /// the offending query failed.
    pub contained_panics: u64,
    /// Queries re-evaluated individually after their coalesced batch
    /// failed; the retry isolates the poisoned column so its co-batched
    /// neighbors still succeed.
    pub retried_queries: u64,
}

impl TenantStats {
    /// Mean coalesced batch width this tenant achieved (`0.0` before the
    /// first batch).  Width 1 means coalescing never found companions.
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// A point-in-time snapshot of everything the server counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Per-tenant serving counters, sorted by tenant id.
    pub tenants: Vec<(String, TenantStats)>,
    /// Registry occupancy and load/eviction history.
    pub registry: RegistryStats,
    /// Sum of the resident matvec sessions' stats (inspector/executor cost,
    /// invalid-input / contained-panic / ridge counters).
    pub sessions: SessionStats,
}

impl ServerStats {
    /// Look up one tenant's counters.
    pub fn tenant(&self, id: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|(t, _)| t == id).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_batch_width_is_queries_over_batches() {
        let t = TenantStats {
            queries: 20,
            batches: 4,
            ..Default::default()
        };
        assert!((t.mean_batch_width() - 5.0).abs() < 1e-12);
        let empty = TenantStats::default();
        assert_eq!(empty.mean_batch_width(), 0.0);
    }

    #[test]
    fn tenant_looks_up_by_id() {
        let b = TenantStats {
            queries: 5,
            ..Default::default()
        };
        let s = ServerStats {
            tenants: vec![("a".into(), TenantStats::default()), ("b".into(), b)],
            ..Default::default()
        };
        assert_eq!(s.tenant("b").map(|x| x.queries), Some(5));
        assert!(s.tenant("zzz").is_none());
    }
}
