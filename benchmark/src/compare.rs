//! `--compare <dirA> <dirB>`: two sets of run files, side by side, per
//! workload and end-to-end metric, against the bounds of rule R5.

use crate::json::{self, Json};
use crate::report::RUN_SCHEMA;
use crate::spec;
use crate::stats::median;
use std::path::Path;

/// What `--compare` needs from one run file.
struct RunFile {
    path: String,
    workload: String,
    noisy: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Run files under `dir`, at any depth.  Files that are not untraced,
/// non-smoke run files of this benchmark are skipped; a smoke file is an
/// error, since its timings are not comparable.
fn load_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                if let Some(run) = parse_run(&path.display().to_string(), &text)? {
                    runs.push(run);
                }
            }
        }
    }
    Ok(runs)
}

fn parse_run(path: &str, text: &str) -> Result<Option<RunFile>, String> {
    let Ok(doc) = json::parse(text) else {
        return Ok(None);
    };
    if doc.get("schema").and_then(Json::as_str) != Some(RUN_SCHEMA)
        || doc.get("traced").and_then(Json::as_bool) != Some(false)
    {
        return Ok(None);
    }
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path} is a --smoke run; its timings are not comparable"
        ));
    }
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("{path}: no `{k}`"));
    let metrics = match field("metrics")? {
        Json::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
            })
            .collect(),
        _ => return Err(format!("{path}: `metrics` is not an object")),
    };
    Ok(Some(RunFile {
        path: path.to_string(),
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        noisy: field("noisy")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    }))
}

fn values(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

fn failed_share(set: &[RunFile], workload: &str) -> f64 {
    let (failed, attempted) = set
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

fn range(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("[{lo:.6e} .. {hi:.6e}]")
}

/// The comparison as text and whether B stays within every bound.  All five
/// end-to-end metrics are better when lower.
fn compare_sets(a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = String::new();
    let mut within = true;
    for w in &spec::WORKLOADS {
        let (na, nb) = (
            values(a, w.name, "setup_s").len(),
            values(b, w.name, "setup_s").len(),
        );
        if na == 0 && nb == 0 {
            continue;
        }
        out.push_str(&format!("{} ({na} runs in A, {nb} in B)\n", w.name));
        if na == 0 || nb == 0 {
            out.push_str("  EXCEEDED: one set has no run of this workload\n");
            within = false;
            continue;
        }
        for m in &spec::END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let mut verdict = if change > m.bound { "EXCEEDED" } else { "ok" };
            if m.name == "rel_err" && mb > w.rel_err_ceiling {
                verdict = "EXCEEDED (over the workload's ceiling)";
            }
            within &= verdict == "ok";
            out.push_str(&format!(
                "  {:<12} A {ma:.6e} {}  B {mb:.6e} {}  change {:+.2}%  bound +{:.0}%  {verdict}\n",
                m.name,
                range(&va),
                range(&vb),
                change * 100.0,
                m.bound * 100.0
            ));
        }
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        let rose = fb > fa;
        within &= !rose;
        out.push_str(&format!(
            "  failed share A {fa:.4}  B {fb:.4}  {}\n",
            if rose { "EXCEEDED (rose)" } else { "ok" }
        ));
    }
    for r in a.iter().chain(b).filter(|r| r.noisy) {
        out.push_str(&format!("noisy run: {}\n", r.path));
    }
    (out, within)
}

pub fn compare_dirs(a: &Path, b: &Path) -> i32 {
    match (load_set(a), load_set(b)) {
        (Ok(sa), Ok(sb)) if !sa.is_empty() && !sb.is_empty() => {
            println!(
                "A = {} ({} runs), B = {} ({} runs)",
                a.display(),
                sa.len(),
                b.display(),
                sb.len()
            );
            let (text, within) = compare_sets(&sa, &sb);
            print!("{text}");
            println!(
                "{}",
                if within {
                    "B is within every bound of A"
                } else {
                    "B exceeds a bound of A"
                }
            );
            i32::from(!within)
        }
        (Ok(_), Ok(_)) => {
            eprintln!("no untraced run files of this benchmark under one of the directories");
            2
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            2
        }
    }
}

/// `--self-test`: the comparison on hand-made run files.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let file = |workload: &str, op: f64, failed: f64, smoke: bool| {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str("s"))]);
        Json::obj(vec![
            ("schema", Json::str(RUN_SCHEMA)),
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(false)),
            ("smoke", Json::Bool(smoke)),
            ("noisy", Json::Bool(false)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj(vec![
                    ("setup_s", metric(1.0)),
                    ("op_s", metric(op)),
                    ("alt_s", metric(0.1)),
                    ("rel_err", metric(0.05)),
                    ("model_bytes", metric(1e6)),
                ]),
            ),
        ])
        .pretty()
    };
    let set = |ops: &[f64], failed: f64| -> Vec<RunFile> {
        ops.iter()
            .filter_map(|&op| {
                parse_run("mem", &file("ml_wide", op, failed, false))
                    .ok()
                    .flatten()
            })
            .collect()
    };
    let base = set(&[1.0, 1.02, 0.98], 0.0);
    let op_bound = spec::END_TO_END
        .iter()
        .find(|m| m.name == "op_s")
        .map_or(0.0, |m| m.bound);
    vec![
        (
            "compare.same_sets_within",
            compare_sets(&base, &set(&[1.01, 0.99, 1.0], 0.0)).1,
        ),
        (
            "compare.slower_op_exceeds",
            !compare_sets(&base, &set(&[1.0 + 2.0 * op_bound; 3], 0.0)).1,
        ),
        (
            "compare.faster_op_within",
            compare_sets(&base, &set(&[0.5; 3], 0.0)).1,
        ),
        (
            "compare.risen_failed_share_exceeds",
            !compare_sets(&base, &set(&[1.0; 3], 1.0)).1,
        ),
        (
            "compare.refuses_smoke",
            parse_run("mem", &file("ml_wide", 1.0, 0.0, true)).is_err(),
        ),
        (
            "compare.skips_other_json",
            matches!(parse_run("mem", "{\"schema\": \"other\"}"), Ok(None)),
        ),
    ]
}
