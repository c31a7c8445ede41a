//! Solve-scenario harness: ULV factor + solve versus the dense Cholesky
//! baseline.
//!
//! The paper's evaluation stops at `Y = K~ W`; this harness measures the new
//! factor/solve subsystem the STRUMPACK baseline exists for.  For each `N`
//! it compresses an SPD kernel-ridge Gaussian matrix with HSS structure
//! (the canonical [`matrox_bench::solve_setting`]), ULV-factors it, solves
//! a single- and a multi-RHS system, and reports:
//!
//! * inspector / factor / solve wall-clock (with the leaf-vs-merge factor
//!   breakdown),
//! * the relative residual `||K x~ - b|| / ||b||` against the *exact*
//!   kernel matrix (`O(N^2)`),
//! * for `N <= --dense-max` (default 2048): the dense Cholesky baseline's
//!   factor + solve time and the solution difference, isolating the
//!   structure effect with shared kernels.
//!
//! Besides the table, the sweep is written to `BENCH_solve.json` so later
//! performance work has a machine-readable trajectory to compare against.
//!
//! ```bash
//! cargo run -p matrox-bench --release --bin fig_solve [--n 4096] [--q 16] [--dense-max 2048]
//! ```

use matrox_baselines::DenseCholeskyBaseline;
use matrox_bench::{
    doubling_sweep, json_f64, json_opt, solve_setting, time_best, write_bench_json, HarnessArgs,
};
use matrox_core::{inspector, MatroxError};
use matrox_linalg::{frobenius_norm, Matrix};
use matrox_points::{generate, DatasetId};
use std::fmt::Write as _;

struct SolveRow {
    n: usize,
    inspector_s: f64,
    factor_s: f64,
    factor_leaf_s: f64,
    factor_merge_s: f64,
    solve1_s: f64,
    solveq_s: f64,
    residual: f64,
    factor_bytes: usize,
    dense_factor_s: Option<f64>,
    dense_solve_s: Option<f64>,
    dense_diff: Option<f64>,
}

fn main() -> Result<(), MatroxError> {
    let args = HarnessArgs::parse(4096, 16);
    let n_max = args.n;
    let q = args.q;
    let dense_max = args.usize_flag("--dense-max", 2048);
    let bacc = 1e-7;

    let ns = doubling_sweep(512, n_max);

    println!(
        "==== fig_solve: HSS ULV factor + solve, kernel-ridge Gaussian on grid (bacc = {bacc:e}, Q = {q}) ===="
    );
    println!(
        "{:>6} | {:>9} {:>9} {:>9} | {:>9} {:>9} | {:>10} | {:>10} {:>10} {:>10}",
        "N",
        "insp(s)",
        "factor(s)",
        "solve(s)",
        "leaf(s)",
        "merge(s)",
        "residual",
        "dchol(s)",
        "dsolve(s)",
        "diff"
    );

    let mut rows: Vec<SolveRow> = Vec::new();
    for &n in &ns {
        let points = generate(DatasetId::Grid, n, 0);
        let (kernel, params) = solve_setting(n, bacc);

        let (h, t_insp) = time_best(|| inspector(&points, &kernel, &params), 1);
        let h = h?;
        let (fh, t_factor) = time_best(|| h.factorize(), 1);
        let fh = fh?;

        let b1: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) * 0.25).collect();
        let (x1, t_solve1) = time_best(|| fh.solve(&b1), 2);
        let x1 = x1?;
        let bq = matrox_bench::random_w(n, q, 7);
        let (yq, t_solveq) = time_best(|| fh.solve_matrix(&bq), 1);
        yq?;

        let x1m = Matrix::from_vec(n, 1, x1.clone());
        let b1m = Matrix::from_vec(n, 1, b1.clone());
        let residual = fh.relative_residual(&points, &x1m, &b1m);

        let (dense_factor_s, dense_solve_s, dense_diff) = if n <= dense_max {
            let (baseline, t_dfac) = time_best(|| DenseCholeskyBaseline::new(&points, &kernel), 1);
            let baseline = baseline?;
            let (xd, t_dsol) = time_best(|| baseline.solve(&b1), 2);
            let mut diff = Matrix::from_vec(n, 1, xd);
            diff.sub_assign(&x1m);
            let rel = frobenius_norm(&diff) / frobenius_norm(&x1m).max(f64::MIN_POSITIVE);
            (Some(t_dfac), Some(t_dsol), Some(rel))
        } else {
            (None, None, None)
        };

        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:>10.4}"),
            None => format!("{:>10}", "n/a"),
        };
        let fmt_opt_e = |v: Option<f64>| match v {
            Some(v) => format!("{v:>10.2e}"),
            None => format!("{:>10}", "n/a"),
        };
        println!(
            "{n:>6} | {t_insp:>9.3} {t_factor:>9.3} {t_solve1:>9.4} | {:>9.4} {:>9.4} | {residual:>10.2e} | {} {} {}",
            fh.factor.timings.leaf_cholesky.as_secs_f64(),
            fh.factor.timings.merge.as_secs_f64(),
            fmt_opt(dense_factor_s),
            fmt_opt(dense_solve_s),
            fmt_opt_e(dense_diff),
        );
        rows.push(SolveRow {
            n,
            inspector_s: t_insp,
            factor_s: t_factor,
            factor_leaf_s: fh.factor.timings.leaf_cholesky.as_secs_f64(),
            factor_merge_s: fh.factor.timings.merge.as_secs_f64(),
            solve1_s: t_solve1,
            solveq_s: t_solveq,
            residual,
            factor_bytes: fh.factor.storage_bytes(),
            dense_factor_s,
            dense_solve_s,
            dense_diff,
        });
    }

    let json = render_json(q, bacc, &rows);
    write_bench_json("BENCH_solve.json", &json)
}

/// Hand-rolled JSON (no serde in the offline vendor set).  Schema:
/// `{q, bacc, rows: [{n, inspector_s, factor_s, factor_leaf_s,
/// factor_merge_s, solve1_s, solveq_s, residual, factor_bytes,
/// dense_factor_s, dense_solve_s, dense_diff}], summary: {...}}` with
/// `null` where the dense baseline was skipped.
fn render_json(q: usize, bacc: f64, rows: &[SolveRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"q\": {q},");
    let _ = writeln!(out, "  \"bacc\": {},", json_f64(bacc));
    out.push_str("  \"rows\": [\n");
    for (ri, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"n\": {}, \"inspector_s\": {}, \"factor_s\": {}, \"factor_leaf_s\": {}, \
             \"factor_merge_s\": {}, \"solve1_s\": {}, \"solveq_s\": {}, \"residual\": {}, \
             \"factor_bytes\": {}, \"dense_factor_s\": {}, \"dense_solve_s\": {}, \
             \"dense_diff\": {}}}",
            r.n,
            json_f64(r.inspector_s),
            json_f64(r.factor_s),
            json_f64(r.factor_leaf_s),
            json_f64(r.factor_merge_s),
            json_f64(r.solve1_s),
            json_f64(r.solveq_s),
            json_f64(r.residual),
            r.factor_bytes,
            json_opt(r.dense_factor_s),
            json_opt(r.dense_solve_s),
            json_opt(r.dense_diff),
        );
        out.push_str(if ri + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let max_residual = rows.iter().map(|r| r.residual).fold(0.0f64, f64::max);
    let last = rows.last();
    let _ = writeln!(
        out,
        "  \"summary\": {{\"max_residual\": {}, \"last_n\": {}, \"last_solve1_s\": {}, \
         \"last_solveq_s\": {}, \"last_solveq_per_rhs_s\": {}}}",
        json_f64(max_residual),
        last.map_or(0, |r| r.n),
        json_opt(last.map(|r| r.solve1_s)),
        json_opt(last.map(|r| r.solveq_s)),
        json_opt(last.map(|r| r.solveq_s / q.max(1) as f64)),
    );
    out.push_str("}\n");
    out
}
