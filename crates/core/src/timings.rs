//! Inspector timing breakdown.
//!
//! Figure 4 and Figure 10 report the inspector time split into compression,
//! structure analysis, and code generation — and, for the reuse experiments,
//! into inspector-p1 vs inspector-p2.  The inspector records wall-clock time
//! per module in this struct so the benchmark harnesses can print the same
//! breakdown.

use std::time::Duration;

/// Wall-clock breakdown of the ULV-style factorization (leaf Cholesky vs
/// sibling merges), re-exported here so `matrox_core::timings` is the one
/// stop for every phase breakdown the harnesses report (inspector, factor).
pub use matrox_factor::FactorTimings;

/// Wall-clock time of every inspector module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InspectorTimings {
    /// Tree construction (compression module 1).
    pub tree_construction: Duration,
    /// Interaction computation (compression module 2).
    pub interaction: Duration,
    /// Sampling (compression module 3).
    pub sampling: Duration,
    /// Low-rank approximation (compression module 4).
    pub low_rank: Duration,
    /// Blocking (structure analysis).
    pub blocking: Duration,
    /// Coarsening (structure analysis).
    pub coarsening: Duration,
    /// CDS data-layout construction (structure analysis).
    pub cds: Duration,
    /// Code generation (lowering decisions + plan assembly).
    pub codegen: Duration,
}

impl InspectorTimings {
    /// Total compression time (the four compression modules).
    pub fn compression(&self) -> Duration {
        self.tree_construction + self.interaction + self.sampling + self.low_rank
    }

    /// Total structure-analysis time.
    pub fn structure_analysis(&self) -> Duration {
        self.blocking + self.coarsening + self.cds
    }

    /// Total inspector time.
    pub fn total(&self) -> Duration {
        self.compression() + self.structure_analysis() + self.codegen
    }

    /// Time attributable to inspector-p1 (kernel/accuracy independent:
    /// tree construction, interaction computation, sampling, blocking).
    pub fn inspector_p1(&self) -> Duration {
        self.tree_construction + self.interaction + self.sampling + self.blocking
    }

    /// Time attributable to inspector-p2 (low-rank approximation,
    /// coarsening, CDS construction, code generation — the plan is assembled
    /// from the p2 CDS, so `inspector_p2` runs it).
    pub fn inspector_p2(&self) -> Duration {
        self.low_rank + self.coarsening + self.cds + self.codegen
    }

    /// Fraction of the inspector spent outside compression (the paper reports
    /// structure analysis + code generation at ~8.1% on average).
    pub fn analysis_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.assemble().as_secs_f64() / total
        }
    }

    /// Cluster-tree partitioning plus interaction computation: the first of
    /// the four coarse phases (`partition`, [`sampling`](Self::sampling),
    /// [`low_rank`](Self::low_rank), [`assemble`](Self::assemble)) that map
    /// onto the parallel pipeline and partition [`total`](Self::total).
    pub fn partition(&self) -> Duration {
        self.tree_construction + self.interaction
    }

    /// The sequential-spine tail of an inspection: blocking, coarsening, CDS
    /// assembly and code generation.
    pub fn assemble(&self) -> Duration {
        self.structure_analysis() + self.codegen
    }
}

/// Running cost accounting of an evaluation session ([`crate::EvalSession`]):
/// the one-time inspector cost plus the accumulated executor cost, and the
/// amortized per-query view of both — the economics Figure 4 is about
/// (inspection pays for itself once enough queries ride on the plan).
///
/// A *query* is one right-hand-side column; a batched `evaluate(W)` with
/// `Q` columns counts as one evaluation and `Q` queries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// One-time inspector wall-clock (tree + compression + CDS + plan).
    pub inspect_seconds: f64,
    /// Accumulated executor wall-clock over every `evaluate` call.
    pub eval_seconds: f64,
    /// Number of `evaluate` calls served.
    pub evaluations: u64,
    /// Total right-hand-side columns served.
    pub queries: u64,
    /// `evaluate` calls rejected up front (`InvalidInput`: wrong shape or
    /// NaN/Inf in the right-hand side).  Rejected calls do not count as
    /// evaluations and leave the session fully usable.
    pub invalid_inputs: u64,
    /// Panics that escaped an evaluation job and were contained at the
    /// evaluation boundary (`PoolPanic`).
    pub contained_panics: u64,
    /// Ridge-escalation retries the most recent factorization needed before
    /// the leaf Cholesky succeeded (0 = first attempt was clean).
    pub ridge_attempts: u32,
    /// Per-module breakdown of the one-time inspection
    /// (`inspector.total() ≈ inspect_seconds`).
    pub inspector: InspectorTimings,
}

impl SessionStats {
    /// Total session cost so far (inspection + evaluations).
    pub fn total_seconds(&self) -> f64 {
        self.inspect_seconds + self.eval_seconds
    }

    /// Amortized cost per query: `(inspect + eval) / queries`.  This is the
    /// quantity that must drop below the baselines' per-query cost as `Q`
    /// grows; `f64::INFINITY` before the first query.
    pub fn amortized_per_query(&self) -> f64 {
        if self.queries == 0 {
            f64::INFINITY
        } else {
            self.total_seconds() / self.queries as f64
        }
    }

    /// Mean right-hand-side columns per `evaluate` call — the coalescing
    /// width a serving layer achieved on this session.  `0.0` before the
    /// first evaluation.
    pub fn mean_batch_width(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.queries as f64 / self.evaluations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InspectorTimings {
        InspectorTimings {
            tree_construction: Duration::from_millis(10),
            interaction: Duration::from_millis(5),
            sampling: Duration::from_millis(20),
            low_rank: Duration::from_millis(100),
            blocking: Duration::from_millis(1),
            coarsening: Duration::from_millis(2),
            cds: Duration::from_millis(3),
            codegen: Duration::from_millis(4),
        }
    }

    #[test]
    fn aggregates_add_up() {
        let t = sample();
        assert_eq!(t.compression(), Duration::from_millis(135));
        assert_eq!(t.structure_analysis(), Duration::from_millis(6));
        assert_eq!(t.total(), Duration::from_millis(145));
        assert_eq!(t.inspector_p1() + t.inspector_p2(), t.total());
    }

    #[test]
    fn codegen_is_charged_to_p2() {
        let t = InspectorTimings {
            codegen: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(t.inspector_p1(), Duration::ZERO);
        assert_eq!(t.inspector_p2(), Duration::from_millis(4));
        assert_eq!(t.inspector_p1() + t.inspector_p2(), t.total());
    }

    #[test]
    fn phase_view_partitions_the_total() {
        let t = sample();
        assert_eq!(t.partition(), Duration::from_millis(15));
        assert_eq!(t.assemble(), Duration::from_millis(10));
        assert_eq!(
            t.partition() + t.sampling + t.low_rank + t.assemble(),
            t.total()
        );
    }

    #[test]
    fn analysis_fraction_is_small_for_compression_heavy_runs() {
        let t = sample();
        let f = t.analysis_fraction();
        assert!(f > 0.0 && f < 0.2, "fraction {f}");
    }

    #[test]
    fn session_stats_amortize_the_inspector() {
        let mut s = SessionStats {
            inspect_seconds: 10.0,
            ..Default::default()
        };
        assert!(s.amortized_per_query().is_infinite());
        s.eval_seconds = 2.0;
        s.evaluations = 2;
        s.queries = 100;
        assert!((s.total_seconds() - 12.0).abs() < 1e-12);
        assert!((s.amortized_per_query() - 0.12).abs() < 1e-12);
        assert!((s.mean_batch_width() - 50.0).abs() < 1e-12);
        assert_eq!(SessionStats::default().mean_batch_width(), 0.0);
        // More queries on the same plan only ever lower the amortized cost
        // (eval time grows at the marginal rate, inspection is sunk).
        let before = s.amortized_per_query();
        s.eval_seconds += 0.02 * 100.0;
        s.queries += 100;
        assert!(s.amortized_per_query() < before);
    }
}
