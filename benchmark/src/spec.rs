//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics named after the crates.  `BENCHMARK.json`
//! at the repository root carries the same names; `--self-test` compares.

/// Nominal length of one run's timed regions; the sample counts in the
/// workloads are what fits at this value and scale with `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen (rule R5).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "alt_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "rel_err",
        unit: "ratio",
        bound: 0.20,
    },
    EndToEnd {
        name: "model_bytes",
        unit: "B",
        bound: 0.02,
    },
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `rel_err` above this fails the run whatever the parent measured.
    pub rel_err_ceiling: f64,
    /// Layers this workload never enters; their per-layer metrics read 0.
    pub bypasses: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ml_wide",
        why: "54-d N=16384 H2-b, Q=256 then Q=16: 150 MB of CDS and large near/coupling GEMMs, so exec and the linalg microkernel do the work",
        rel_err_ceiling: 0.25,
        bypasses: &["factor", "serve", "net", "loadgen"],
    },
    Workload {
        name: "sci_solve",
        why: "2-d grid N=16384 HSS ridge: matvec, model out of cache, streams 56 MB for 14 MFLOP so layout and per-phase overhead bound it; factor and solve use chol/lu that nothing else does",
        rel_err_ceiling: 1e-4,
        bypasses: &["serve", "net", "loadgen", "baselines"],
    },
    Workload {
        name: "reuse_sweep",
        why: "one p1 reused by five p2 at bacc 1e-1..1e-5 (the paper's reuse claim): sampling, compress, analysis, codegen work and exec does not; alt is the MATROX1 image round trip",
        rel_err_ceiling: 0.25,
        bypasses: &["factor", "serve", "net", "loadgen", "baselines"],
    },
    Workload {
        name: "serve_wire",
        why: "open loop of 50 req/s, 75% Query 25% Solve, 4 tenants over 2 TCP connections to Server+NetServer: the only workload where serve and serve::net do the work",
        rel_err_ceiling: 1e-4,
        bypasses: &["baselines"],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics; the prefix before the dot is the crate.  No bounds:
/// they explain a move of an end-to-end metric, they are not gated.
pub const PER_LAYER: [Layer; 77] = [
    layer("points.generate_s", "s", LOWER),
    layer("tree.ctree_s", "s", LOWER),
    layer("tree.htree_s", "s", LOWER),
    layer("tree.nodes", "count", LOWER),
    layer("tree.near_pairs", "count", LOWER),
    layer("tree.far_pairs", "count", LOWER),
    layer("sampling.sample_s", "s", LOWER),
    layer("sampling.total_samples", "count", LOWER),
    layer("compress.compress_s", "s", LOWER),
    layer("compress.rank_sum", "count", LOWER),
    layer("compress.rank_max", "count", LOWER),
    layer("compress.bytes", "B", LOWER),
    layer("analysis.blocking_s", "s", LOWER),
    layer("analysis.coarsen_s", "s", LOWER),
    layer("analysis.cds_s", "s", LOWER),
    layer("analysis.cds_bytes", "B", LOWER),
    layer("analysis.near_groups", "count", LOWER),
    layer("analysis.far_groups", "count", LOWER),
    layer("codegen.plan_s", "s", LOWER),
    layer("codegen.flops_per_col", "count", LOWER),
    layer("exec.prepare_s", "s", LOWER),
    layer("exec.execute_s", "s", LOWER),
    layer("exec.execute_seq_s", "s", LOWER),
    layer("exec.execute_scalar_s", "s", LOWER),
    layer("exec.execute_w2_s", "s", LOWER),
    layer("exec.scaling_w2", "ratio", HIGHER),
    layer("exec.panel_width", "count", HIGHER),
    layer("exec.gflops", "GF/s", HIGHER),
    layer("exec.bytes_per_eval", "B", LOWER),
    layer("exec.flops_per_byte", "flop/B", HIGHER),
    layer("exec.frac_of_gemm", "ratio", HIGHER),
    layer("linalg.gemm_near_gflops", "GF/s", HIGHER),
    layer("linalg.gemm_far_gflops", "GF/s", HIGHER),
    layer("linalg.gemm_peak_gflops", "GF/s", HIGHER),
    layer("linalg.gemm_scalar_gflops", "GF/s", HIGHER),
    layer("core.inspect_s", "s", LOWER),
    layer("core.p1_s", "s", LOWER),
    layer("core.p2_s", "s", LOWER),
    layer("core.session_overhead_s", "s", LOWER),
    layer("core.to_bytes_s", "s", LOWER),
    layer("core.from_bytes_s", "s", LOWER),
    layer("core.image_bytes", "B", LOWER),
    layer("core.cold_first_build_s", "s", LOWER),
    layer("factor.factor_s", "s", LOWER),
    layer("factor.leaf_s", "s", LOWER),
    layer("factor.merge_s", "s", LOWER),
    layer("factor.solve_s", "s", LOWER),
    layer("factor.solve16_s", "s", LOWER),
    layer("factor.bytes", "B", LOWER),
    layer("factor.ridge_attempts", "count", LOWER),
    layer("factor.residual", "ratio", LOWER),
    layer("serve.inproc_p50_ms", "ms", LOWER),
    layer("serve.queue_wait_ms", "ms", LOWER),
    layer("serve.service_ms", "ms", LOWER),
    layer("serve.mean_batch_width", "count", HIGHER),
    layer("serve.load_model_ms", "ms", LOWER),
    layer("serve.registry_loads", "count", LOWER),
    layer("serve.evictions", "count", LOWER),
    layer("serve.resident_bytes", "B", LOWER),
    layer("net.p50_ms", "ms", LOWER),
    layer("net.p95_ms", "ms", LOWER),
    layer("net.p50_ms_2x", "ms", LOWER),
    layer("net.p95_ms_2x", "ms", LOWER),
    layer("net.wire_minus_inproc_ms", "ms", LOWER),
    layer("net.served", "count", HIGHER),
    layer("net.shed", "count", LOWER),
    layer("net.expired", "count", LOWER),
    layer("net.decode_errors", "count", LOWER),
    layer("net.bytes_per_query", "B", LOWER),
    layer("baselines.gofmm_eval_s", "s", LOWER),
    layer("baselines.speedup_vs_gofmm", "ratio", HIGHER),
    layer("loadgen.lateness_p95_ms", "ms", LOWER),
    layer("loadgen.achieved_rps", "1/s", HIGHER),
    layer("host.calibration_s", "s", LOWER),
    layer("host.pretouch_s", "s", LOWER),
    layer("host.peak_rss_mb", "MiB", LOWER),
    layer("host.trace_overhead", "ratio", LOWER),
];

/// The crate a per-layer metric belongs to.
pub fn layer_of(metric: &str) -> &str {
    metric.split('.').next().unwrap_or(metric)
}

/// `--self-test`: `BENCHMARK.json` in the current directory names the same
/// workloads, metrics, units, directions and bounds as this file.
pub fn self_test() -> Vec<(&'static str, bool)> {
    use crate::json::{parse, Json};
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| parse(&t).ok());
    let Some(doc) = doc else {
        return vec![(
            "spec.benchmark_json_readable_from_the_current_directory",
            false,
        )];
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    vec![
        (
            "spec.benchmark_json_readable_from_the_current_directory",
            true,
        ),
        (
            "spec.workloads_match",
            workloads
                == WORKLOADS
                    .iter()
                    .map(|w| (w.name.to_string(), w.why.to_string()))
                    .collect::<Vec<_>>(),
        ),
        (
            "spec.end_to_end_match",
            end_to_end
                == END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            m.unit.to_string(),
                            LOWER.to_string(),
                            m.bound,
                        )
                    })
                    .collect::<Vec<_>>(),
        ),
        (
            "spec.per_layer_match",
            per_layer
                == PER_LAYER
                    .iter()
                    .map(|l| (l.name.to_string(), l.unit.to_string(), l.better.to_string()))
                    .collect::<Vec<_>>(),
        ),
        (
            "spec.run_seconds_match",
            doc.get("run_seconds").and_then(Json::as_f64) == Some(RUN_SECONDS as f64),
        ),
        (
            "spec.setup_s_has_the_largest_bound",
            END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound)
                && END_TO_END[0].name == "setup_s",
        ),
        (
            "spec.whys_fit_200_characters",
            WORKLOADS.iter().all(|w| w.why.len() <= 200),
        ),
    ]
}
