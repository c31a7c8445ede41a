//! The repository's benchmark: four workloads, five end-to-end metrics that
//! every workload reports, and per-layer metrics named after the crates.
//! See `README.md` next to `Cargo.toml` and `BENCHMARK.json` at the root.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! benchmark --smoke [--workload <name>]
//! benchmark --compare <dirA> <dirB>
//! benchmark --self-test
//! ```

#![forbid(unsafe_code)]

mod compare;
mod host;
mod json;
mod loadgen;
mod measure;
mod pipeline;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use measure::Scale;
use report::Run;
use std::path::PathBuf;

const DEFAULT_SEED: u64 = 6;
const DEFAULT_OUT: &str = "target/benchmark";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
    self_test: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
        smoke: false,
        self_test: false,
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("whole seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

type EndToEnd = fn(&mut Run);
type Traced = fn(&mut Run) -> trace::Recorder;

/// One workload in one mode; returns the process exit code.
fn run_workload(name: &str, args: &Args, scale: Scale, traced: bool, pool_width: usize) -> i32 {
    let Some(workload) = spec::workload(name) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload `{name}`; the workloads are {names:?}");
        return 2;
    };
    let (end_to_end, traced_run): (EndToEnd, Traced) = match name {
        "ml_wide" => (
            workloads::ml_wide::run_end_to_end,
            workloads::ml_wide::run_traced,
        ),
        "sci_solve" => (
            workloads::sci_solve::run_end_to_end,
            workloads::sci_solve::run_traced,
        ),
        "reuse_sweep" => (
            workloads::reuse_sweep::run_end_to_end,
            workloads::reuse_sweep::run_traced,
        ),
        "serve_wire" => (
            workloads::serve_wire::run_end_to_end,
            workloads::serve_wire::run_traced,
        ),
        _ => unreachable!("spec::workload() knows only the four names above"),
    };
    let mut run = Run::new(
        workload,
        args.seed,
        scale,
        traced,
        args.out.clone(),
        pool_width,
    );
    let recorder = if traced {
        Some(traced_run(&mut run))
    } else {
        end_to_end(&mut run);
        None
    };
    run.finish(recorder.as_ref())
}

fn self_test() -> i32 {
    let mut results = stats::self_test();
    results.extend(json::self_test());
    results.extend(loadgen::self_test());
    results.extend(compare::self_test());
    results.extend(spec::self_test());
    let mut failed = 0;
    for (name, ok) in &results {
        println!("[{}] {name}", if *ok { "ok" } else { "FAILED" });
        failed += i32::from(!ok);
    }
    println!("{} self-tests, {failed} failed", results.len());
    i32::from(failed > 0)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee benchmark/README.md for the command line");
            std::process::exit(2);
        }
    };
    if args.self_test {
        std::process::exit(self_test());
    }
    if let Some((a, b)) = &args.compare {
        std::process::exit(compare::compare_dirs(a, b));
    }

    // Rule R1, before anything touches the pool.
    let pool_width = host::pin_pool_width_1();
    let code = if args.smoke {
        let scale = Scale {
            n_div: 8,
            factor: 1.0,
            smoke: true,
        };
        let names: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        };
        names
            .into_iter()
            .map(|name| run_workload(name, &args, scale, args.traced, pool_width))
            .max()
            .unwrap_or(0)
    } else {
        let Some(name) = &args.workload else {
            eprintln!("--workload <name> is required (or --smoke, --compare, --self-test)");
            std::process::exit(2);
        };
        let scale = Scale {
            n_div: 1,
            factor: args.seconds as f64 / spec::RUN_SECONDS as f64,
            smoke: false,
        };
        run_workload(name, &args, scale, args.traced, pool_width)
    };
    std::process::exit(code);
}
