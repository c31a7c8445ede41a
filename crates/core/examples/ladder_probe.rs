//! What each rung of an accuracy ladder still computes: one `inspector_p1`
//! reused by five `inspector_p2` at `bacc` 1e-1 .. 1e-5, on a one-worker
//! pool (as the benchmark's `reuse_sweep` runs it).
//!
//! ```bash
//! cargo run --release -p matrox-core --example ladder_probe [dataset] [n] [reps]
//! ```
//!
//! `dataset` is a Table 1 name (default `covtype`), `n` the point count
//! (default 8192), `reps` the sweeps, each over a fresh p1 (default 3).
//! First the p1's ms and minor faults, then per rung, medians over the
//! sweeps:
//!
//! * **p2**, **low_rank**, **cds** — ms of the call and of its
//!   `HMatrix::timings` stages;
//! * **D** — `new` when the rung's `D` buffer is its own, `shared` when it
//!   is an earlier rung's;
//! * **minflt** — minor page faults during the call (`/proc/self/stat`);
//! * **resumed**, **read**, **fresh** — the nodes whose ID went on from the
//!   QR the rung before kept, read a looser stop off it, or factored
//!   afresh, and **steps** the QR steps they ran; **evaluated** and
//!   **copied** — the coupling entries evaluated and copied from a kept
//!   block; **kept MB** — what the HTree keeps after the rung.  All read
//!   from `HTree::ladder_counts` after the rung (last sweep): the first p2
//!   on a p1 keeps nothing, so its row reads zero.
//!
//! The tracked numbers are the benchmark's `reuse_sweep` `op_s` and, in a
//! traced run, `compress.compress_s` / `analysis.cds_s`.

use matrox_core::{inspector_p1, inspector_p2, MatRoxParams};
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_tree::LadderCounts;
use std::time::Instant;

const LADDER: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// Milliseconds `f` takes, and its result.
fn ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// This process's minor page faults so far (field 10 of `/proc/self/stat`);
/// 0 where there is no such file.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    rest.split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// One rung's numbers: p2, low_rank, cds (ms), minor faults, whether its
/// `D` buffer is shared, and the kept work's counts after it.
struct Rung {
    ms: [f64; 3],
    minflt: u64,
    shared: bool,
    kept: LadderCounts,
}

/// A fresh p1 (its ms and minor faults) and the ladder's rungs over it.
fn sweep(points: &PointSet, kernel: &Kernel, params: &MatRoxParams) -> ([f64; 2], Vec<Rung>) {
    let faults = minor_faults();
    let (p1_ms, p1) = ms(|| inspector_p1(points, kernel, params).expect("inspector_p1"));
    let p1_faults = (minor_faults() - faults) as f64;
    let mut models = Vec::new();
    let mut rungs = Vec::new();
    for &bacc in &LADDER {
        let faults = minor_faults();
        let (p2_ms, h) = ms(|| inspector_p2(points, &p1, kernel, bacc).expect("inspector_p2"));
        let minflt = minor_faults() - faults;
        let d = &h.plan.cds.d_values;
        let shared = models
            .iter()
            .any(|m: &matrox_core::HMatrix| m.plan.cds.d_values.shares(d));
        let t = h.timings;
        rungs.push(Rung {
            ms: [
                p2_ms,
                t.low_rank.as_secs_f64() * 1e3,
                t.cds.as_secs_f64() * 1e3,
            ],
            minflt,
            shared,
            kept: p1.htree.ladder_counts(),
        });
        models.push(h);
    }
    ([p1_ms, p1_faults], rungs)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let id = args
        .get(1)
        .and_then(|s| DatasetId::from_name(s))
        .unwrap_or(DatasetId::Covtype);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8192);
    let reps: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3).max(1);
    let points = generate(id, n, 6);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    println!(
        "accuracy ladder: {} N = {n} d = {}, H2-b, one worker, {reps} sweeps (ms: medians)",
        id.name(),
        points.dim()
    );
    let (p1, sweeps): (Vec<[f64; 2]>, Vec<Vec<Rung>>) =
        pool.install(|| (0..reps).map(|_| sweep(&points, &kernel, &params)).unzip());
    println!(
        "  p1 {:.1} ms, {:.0} minflt",
        median(p1.iter().map(|p| p[0]).collect()),
        median(p1.iter().map(|p| p[1]).collect())
    );
    println!(
        "  {:<6} {:>7} {:>8} {:>7} {:>6} {:>8} {:>7} {:>5} {:>5} {:>6} {:>9} {:>9} {:>7}",
        "bacc",
        "p2",
        "low_rank",
        "cds",
        "D",
        "minflt",
        "resumed",
        "read",
        "fresh",
        "steps",
        "evaluated",
        "copied",
        "kept MB"
    );
    let mut totals = [0.0; 3];
    let (mut evaluated, mut copied) = (0, 0);
    for (r, bacc) in LADDER.iter().enumerate() {
        let col = |c: usize| median(sweeps.iter().map(|s| s[r].ms[c]).collect());
        let cols: Vec<f64> = (0..3).map(col).collect();
        for (t, c) in totals.iter_mut().zip(&cols) {
            *t += c;
        }
        let faults = median(sweeps.iter().map(|s| s[r].minflt as f64).collect());
        let last = &sweeps[reps - 1][r];
        let k = last.kept;
        evaluated += k.entries_evaluated;
        copied += k.entries_copied;
        println!(
            "  {bacc:<6.0e} {:>7.1} {:>8.1} {:>7.1} {:>6} {faults:>8.0} {:>7} {:>5} {:>5} {:>6} {:>9} {:>9} {:>7.1}",
            cols[0],
            cols[1],
            cols[2],
            if last.shared { "shared" } else { "new" },
            k.nodes_resumed,
            k.nodes_read,
            k.nodes_fresh,
            k.qr_steps,
            k.entries_evaluated,
            k.entries_copied,
            k.bytes as f64 / 1e6,
        );
    }
    println!(
        "  {:<6} {:>7.1} {:>8.1} {:>7.1} {:>6} {:>8} {:>7} {:>5} {:>5} {:>6} {evaluated:>9} {copied:>9}",
        "sweep", totals[0], totals[1], totals[2], "", "", "", "", "", ""
    );
}
