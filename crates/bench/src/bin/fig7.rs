//! Figure 7: strong scalability of the executor on covtype and unit.
//!
//! The paper sweeps 1–12 cores on Haswell and 1–68 cores on KNL; this harness
//! sweeps 1, 2, 4, ... up to the host's available parallelism (DESIGN.md
//! substitution S6) and reports speedup over the single-thread run for the
//! MatRox executor, the GOFMM-style baseline, and (HSS / low-d only) the
//! STRUMPACK- and SMASH-style baselines.  Expected shape: MatRox keeps
//! scaling; the baselines flatten earlier because of synchronization and
//! load imbalance.
//!
//! Before sweeping, the harness runs a pool self-check (a trivially parallel
//! region timed at 1 vs N threads) and reports the observed pool width, so a
//! misconfigured or oversubscribed host is visible in the output instead of
//! silently flattening every curve.
//!
//! Besides the table, the sweep is written to `BENCH_fig7.json` in the
//! working directory (threads -> wall-clock -> speedup per dataset) so later
//! performance work has a machine-readable trajectory to compare against.
//!
//! ```bash
//! cargo run -p matrox-bench --release --bin fig7 [--n 4096] [--q 256] [--datasets covtype,unit]
//! ```

use matrox_baselines::{GofmmEvaluator, SmashEvaluator, StrumpackEvaluator};
use matrox_bench::*;
use matrox_core::{inspector, MatroxError};
use matrox_exec::ExecOptions;
use matrox_points::{generate, DatasetId};
use matrox_tree::Structure;
use std::fmt::Write as _;

struct SweepRow {
    threads: usize,
    matrox: f64,
    gofmm: f64,
    strumpack: Option<f64>,
    smash: Option<f64>,
}

struct Sweep {
    dataset: String,
    structure: String,
    rows: Vec<SweepRow>,
}

fn main() -> Result<(), MatroxError> {
    let args = HarnessArgs::parse(4096, DEFAULT_Q);
    let check = pool_banner()?;
    let datasets = if args.datasets.is_empty() {
        vec![DatasetId::Covtype, DatasetId::Unit]
    } else {
        args.datasets.clone()
    };
    let max_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);
    let mut threads = vec![1usize];
    let mut next = 2usize;
    while next <= max_threads {
        threads.push(next);
        next *= 2;
    }
    if threads.last().copied() != Some(max_threads) {
        threads.push(max_threads);
    }

    let mut sweeps: Vec<Sweep> = Vec::new();
    for &dataset in &datasets {
        let structure = Structure::h2b();
        println!(
            "\n==== Figure 7: {} (N = {}, Q = {}, structure {}) ====",
            dataset.name(),
            args.n,
            args.q,
            structure.name()
        );
        println!(
            "{:>8} | {:>11} {:>8} | {:>11} {:>8} | {:>11} {:>8} | {:>11} {:>8}",
            "threads",
            "MatRox(s)",
            "speedup",
            "GOFMM(s)",
            "speedup",
            "STRUM(s)",
            "speedup",
            "SMASH(s)",
            "speedup"
        );
        let points = generate(dataset, args.n, 0);
        let kernel = kernel_for(dataset);
        let w = random_w(args.n, args.q, 5);
        let wv: Vec<f64> = (0..args.n).map(|i| w.get(i, 0)).collect();

        let mut sweep = Sweep {
            dataset: dataset.name().to_string(),
            structure: structure.name().to_string(),
            rows: Vec::new(),
        };
        let mut base: Option<(f64, f64, Option<f64>, Option<f64>)> = None;
        for &nt in &threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(nt)
                .build()
                .map_err(|e| MatroxError::PoolPanic(format!("thread pool build failed: {e}")))?;
            let row = pool.install(|| -> Result<_, MatroxError> {
                let params = params_for(structure).with_partitions(nt);
                let h = inspector(&points, &kernel, &params)?;
                let opts = if nt == 1 {
                    ExecOptions::sequential()
                } else {
                    ExecOptions::from_plan(&h.plan)
                };
                let (y, t_matrox) = time_best(|| h.matmul_with(&w, &opts), 1);
                y?;

                let setup = build_baseline(&points, dataset, structure, 1e-5);
                let gofmm = GofmmEvaluator::new(&setup.tree, &setup.htree, &setup.compression);
                let (_, t_gofmm) = time_best(
                    || {
                        if nt == 1 {
                            gofmm.evaluate_sequential(&w)
                        } else {
                            gofmm.evaluate(&w)
                        }
                    },
                    1,
                );

                // STRUMPACK needs HSS; build that separately (HSS always supported).
                let hss_setup = build_baseline(&points, dataset, Structure::Hss, 1e-5);
                let t_strum = StrumpackEvaluator::new(
                    &hss_setup.tree,
                    &hss_setup.htree,
                    &hss_setup.compression,
                )
                .ok()
                .map(|s| {
                    time_best(
                        || {
                            if nt == 1 {
                                s.evaluate_sequential(&w)
                            } else {
                                s.evaluate(&w)
                            }
                        },
                        1,
                    )
                    .1
                });

                // SMASH: 1-3 d only, matvec only.
                let t_smash = SmashEvaluator::new(
                    &setup.tree,
                    &setup.htree,
                    &setup.compression,
                    points.dim(),
                )
                .ok()
                .map(|s| {
                    time_best(
                        || {
                            if nt == 1 {
                                s.evaluate_sequential(&wv)
                            } else {
                                s.evaluate(&wv)
                            }
                        },
                        1,
                    )
                    .1
                });
                Ok((t_matrox, t_gofmm, t_strum, t_smash))
            })?;
            if nt == 1 {
                base = Some(row);
            }
            // The sweep starts at 1 thread, so `base` is always set by now;
            // fall back to the row itself (speedup 1.0) if that ever changes.
            let b = base.unwrap_or(row);
            let fmt_opt = |t: Option<f64>, b: Option<f64>| match (t, b) {
                (Some(t), Some(b)) => format!("{t:>11.3} {:>8.2}", b / t),
                _ => format!("{:>11} {:>8}", "n/a", "-"),
            };
            println!(
                "{nt:>8} | {:>11.3} {:>8.2} | {:>11.3} {:>8.2} | {} | {}",
                row.0,
                b.0 / row.0,
                row.1,
                b.1 / row.1,
                fmt_opt(row.2, b.2),
                fmt_opt(row.3, b.3)
            );
            sweep.rows.push(SweepRow {
                threads: nt,
                matrox: row.0,
                gofmm: row.1,
                strumpack: row.2,
                smash: row.3,
            });
        }
        sweeps.push(sweep);
    }

    let json = render_json(&check, args.n, args.q, &sweeps);
    write_bench_json("BENCH_fig7.json", &json)
}

/// Hand-rolled JSON (no serde in the offline vendor set).  Schema:
/// `{self_check, n, q, sweeps: [{dataset, structure, rows: [{threads,
/// <series>_s, <series>_speedup}]}]}` with `null` for unsupported baselines.
fn render_json(check: &PoolSelfCheck, n: usize, q: usize, sweeps: &[Sweep]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"self_check\": {},", self_check_json(check));
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"q\": {q},");
    out.push_str("  \"sweeps\": [\n");
    for (si, sweep) in sweeps.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"dataset\": \"{}\", \"structure\": \"{}\", \"rows\": [",
            sweep.dataset, sweep.structure
        );
        let base = sweep.rows.first();
        for (ri, row) in sweep.rows.iter().enumerate() {
            let speedup = |t: f64, b: Option<f64>| json_opt(b.map(|b| b / t));
            let opt_speedup = |t: Option<f64>, b: Option<Option<f64>>| {
                json_opt(t.and_then(|t| b.flatten().map(|b| b / t)))
            };
            let _ = write!(
                out,
                "      {{\"threads\": {}, \"matrox_s\": {}, \"matrox_speedup\": {}, \
                 \"gofmm_s\": {}, \"gofmm_speedup\": {}, \"strumpack_s\": {}, \
                 \"strumpack_speedup\": {}, \"smash_s\": {}, \"smash_speedup\": {}}}",
                row.threads,
                json_f64(row.matrox),
                speedup(row.matrox, base.map(|b| b.matrox)),
                json_f64(row.gofmm),
                speedup(row.gofmm, base.map(|b| b.gofmm)),
                json_opt(row.strumpack),
                opt_speedup(row.strumpack, base.map(|b| b.strumpack)),
                json_opt(row.smash),
                opt_speedup(row.smash, base.map(|b| b.smash)),
            );
            out.push_str(if ri + 1 < sweep.rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("    ]}");
        out.push_str(if si + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
