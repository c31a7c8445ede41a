//! Per-layer measurements every traced run takes on its model: the executor
//! under each of its options, the GEMM kernel at the plan's block shapes,
//! and the MATROX1 image.  All of it through public functions.

use crate::report::Run;
use crate::stats::median;
use crate::trace::Recorder;
use matrox::core::{from_bytes, to_bytes, KernelChoice, KernelDispatch};
use matrox::exec::{execute_prepared, ExecOptions, PreparedExec};
use matrox::linalg::{gemm_panel, Matrix};
use matrox::{EvalSession, FactoredHMatrix, HMatrix};
use std::time::Instant;

fn repeat(rec: &mut Recorder, name: &'static str, k: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..k).map(|_| rec.call(name, &mut f).1).collect();
    median(&times)
}

/// GF/s of `C += A B` with `A` `m x k` and `B` `k x n`, repeated until about
/// 20 ms have passed, best of three.
fn gemm_rate(m: usize, k: usize, n: usize, gemm: impl Fn(&[f64], &[f64], &mut [f64])) -> f64 {
    if m * k * n == 0 {
        return 0.0;
    }
    let a: Vec<f64> = (0..m * k)
        .map(|i| ((i % 13) as f64 - 6.0) * 0.125)
        .collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i % 7) as f64 - 3.0) * 0.25).collect();
    let mut c = vec![0.0; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut calls = 0u32;
        while t0.elapsed().as_secs_f64() < 0.02 {
            gemm(&a, &b, &mut c);
            calls += 1;
        }
        best = best.max(flops * f64::from(calls) / t0.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(c[0]);
    }
    best
}

/// The `exec.*`, `linalg.*` and `core.session_overhead_s` metrics for
/// `y = session.evaluate(w)`, `k` samples each.  Returns `exec.execute_s`.
pub fn exec_and_linalg(
    run: &mut Run,
    rec: &mut Recorder,
    session: &EvalSession,
    w: &Matrix,
    k: usize,
) -> f64 {
    let h = session.hmatrix();
    let (plan, tree) = (&h.plan, &h.tree);
    let q = w.cols();
    let span = rec.begin("probe.exec");
    rec.next_work();

    let opts = h.default_exec_options();
    let mut prep = PreparedExec::new(plan, tree, &opts);
    let prepare_s = repeat(rec, "exec.prepare", k, || {
        prep = PreparedExec::new(plan, tree, &opts)
    });
    let run_with = |rec: &mut Recorder, name: &'static str, prep: &PreparedExec| {
        repeat(rec, name, k, || {
            std::hint::black_box(execute_prepared(plan, tree, prep, w));
        })
    };
    let execute_s = run_with(rec, "exec.execute_prepared", &prep);

    let with_plan_knobs =
        |o: ExecOptions| o.with_panel_width(h.panel_width).with_kernel(h.gemm_kernel);
    let seq = PreparedExec::new(plan, tree, &with_plan_knobs(ExecOptions::sequential()));
    let execute_seq_s = run_with(rec, "exec.execute_prepared.sequential", &seq);
    let scalar = PreparedExec::new(plan, tree, &opts.with_kernel(KernelChoice::Scalar));
    let execute_scalar_s = run_with(rec, "exec.execute_prepared.scalar", &scalar);

    // Width 2 is measured, never gated: the second vCPU is shared (rule R1).
    let execute_w2_s = match rayon::ThreadPoolBuilder::new().num_threads(2).build() {
        Ok(pool) => pool.install(|| run_with(rec, "exec.execute_prepared.w2", &prep)),
        Err(e) => {
            run.fail("exec.two_wide_pool_built", e);
            f64::NAN
        }
    };
    let evaluate_s = repeat(rec, "core.evaluate", k, || {
        std::hint::black_box(session.evaluate(w).is_ok());
    });
    rec.end(span);

    let flops = plan.flops(q) as f64;
    let bytes = (plan.storage_bytes() + 2 * h.dim() * q * 8) as f64;
    let gflops = flops / execute_s / 1e9;
    run.set("exec.prepare_s", prepare_s);
    run.set("exec.execute_s", execute_s);
    run.set("exec.execute_seq_s", execute_seq_s);
    run.set("exec.execute_scalar_s", execute_scalar_s);
    run.set("exec.execute_w2_s", execute_w2_s);
    run.set("exec.scaling_w2", execute_s / execute_w2_s);
    run.set("exec.panel_width", prep.panel_width as f64);
    run.set("exec.gflops", gflops);
    run.set("exec.bytes_per_eval", bytes);
    run.set("exec.flops_per_byte", flops / bytes);
    run.set("codegen.flops_per_col", plan.flops(1) as f64);
    run.set("core.session_overhead_s", evaluate_s - execute_s);

    // The kernel at the shapes the executor hands it: the largest near block
    // and the largest coupling block, times one RHS panel.
    let span = rec.begin("probe.linalg");
    let panel = q.min(prep.panel_width).max(1);
    let near = plan.cds.near_extent();
    let far = plan.cds.far_extent();
    let panel_gemm =
        |m: usize, k: usize| gemm_rate(m, k, panel, |a, b, c| gemm_panel(a, m, k, b, panel, c));
    let near_rate = panel_gemm(near.max_rows, near.max_cols);
    let far_rate = panel_gemm(far.max_rows, far.max_cols);
    let peak = gemm_rate(256, 256, 256, |a, b, c| gemm_panel(a, 256, 256, b, 256, c));
    let scalar_peak = gemm_rate(256, 256, 256, |a, b, c| {
        KernelDispatch::scalar().gemm(a, 256, 256, b, 256, c)
    });
    rec.end(span);
    run.set("linalg.gemm_near_gflops", near_rate);
    run.set("linalg.gemm_far_gflops", far_rate);
    run.set("linalg.gemm_peak_gflops", peak);
    run.set("linalg.gemm_scalar_gflops", scalar_peak);

    // Flop-weighted kernel rate: near-block flops at the near rate, coupling
    // and generator flops (both srank-sized) at the far rate.
    let near_flops: f64 = plan
        .cds
        .d_entries
        .iter()
        .map(|e| 2.0 * (e.rows * e.cols * q) as f64)
        .sum();
    let rest_flops = flops - near_flops;
    let kernel_seconds = near_flops / (near_rate * 1e9)
        + if rest_flops > 0.0 {
            rest_flops / (far_rate * 1e9)
        } else {
            0.0
        };
    run.set("exec.frac_of_gemm", gflops / (flops / kernel_seconds / 1e9));
    execute_s
}

/// `core.to_bytes_s`, `core.from_bytes_s`, `core.image_bytes`, and the check
/// that a decoded image re-encodes to the same bytes.
pub fn image_round_trip(run: &mut Run, rec: &mut Recorder, h: &HMatrix, k: usize) {
    let span = rec.begin("probe.image");
    rec.next_work();
    let mut image = to_bytes(h);
    let to_s = repeat(rec, "core.to_bytes", k, || image = to_bytes(h));
    let mut decoded = None;
    let mut from_times = Vec::with_capacity(k);
    for _ in 0..k {
        // The vendored `Bytes` clones by copying; keep the copy untimed.
        let copy = image.clone();
        let (d, t) = rec.call("core.from_bytes", || from_bytes(copy).ok());
        decoded = d;
        from_times.push(t);
    }
    let from_s = median(&from_times);
    rec.end(span);
    run.set("core.to_bytes_s", to_s);
    run.set("core.from_bytes_s", from_s);
    run.set("core.image_bytes", image.len() as f64);
    let same = decoded.is_some_and(|d| to_bytes(&d) == image);
    run.check(
        "core.image_reencodes_identically",
        same,
        format!(
            "to_bytes(from_bytes(image)) against the {}-byte image",
            image.len()
        ),
    );
}

/// The `factor.*` metrics for a factored model: single and 16-column solves,
/// the factor's own leaf/merge breakdown, its size, and the residual of the
/// served solution of the accuracy probe.
pub fn factor_layer(
    run: &mut Run,
    rec: &mut Recorder,
    factored: &FactoredHMatrix,
    factorize_s: Vec<f64>,
    b: &[f64],
    b16: &Matrix,
    probe: &crate::workloads::Probe,
) {
    let span = rec.begin("probe.factor");
    rec.next_work();
    let mut x = Vec::new();
    let solve_s = repeat(rec, "factor.solve", 9, || {
        x = factored.solve(b).unwrap_or_default()
    });
    let again = factored.solve(b).unwrap_or_default();
    let solve16_s = repeat(rec, "factor.solve_matrix", 3, || {
        std::hint::black_box(factored.solve_matrix(b16).is_ok());
    });
    rec.end(span);
    let timings = factored.factor.timings;
    run.set_timed("factor.factor_s", factorize_s);
    run.set("factor.leaf_s", timings.leaf_cholesky.as_secs_f64());
    run.set("factor.merge_s", timings.merge.as_secs_f64());
    run.set("factor.solve_s", solve_s);
    run.set("factor.solve16_s", solve16_s);
    run.set("factor.bytes", factored.factor.storage_bytes() as f64);
    run.set("factor.ridge_attempts", f64::from(timings.ridge_attempts));
    match factored.solve_matrix(&probe.w) {
        Ok(px) => run.set("factor.residual", probe.residual(&px)),
        Err(e) => run.fail("probe.solved", e),
    }
    run.check(
        "factor.solve_repeats_bitwise",
        !x.is_empty() && crate::workloads::bitwise_eq(&x, &again),
        "two solves of the same right-hand side".to_string(),
    );
}
