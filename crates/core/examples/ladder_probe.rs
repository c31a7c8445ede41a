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
//! * **leaf kept** — the leaf sample blocks the p1's HTree holds after the
//!   rung (`HTree::kept_leaf_blocks`): a rung that finds them all kept
//!   evaluates none;
//! * **minflt** — minor page faults during the call (`/proc/self/stat`);
//! * **leaf blk**, **leaf ID**, **leaf cpl** — the leaf level redone
//!   outside the library with the same public calls: every leaf's sample
//!   block (`kernel_block`), its ID (`row_id_of_transpose`) and the
//!   leaf-leaf coupling blocks over those skeletons (`pair_blocks`);
//! * **prefix** — whether every leaf skeleton of the rung begins with the
//!   previous rung's.
//!
//! The tracked numbers are the benchmark's `reuse_sweep` `op_s` and, in a
//! traced run, `compress.compress_s` / `analysis.cds_s`.

use matrox_core::{inspector_p1, inspector_p2, MatRoxParams};
use matrox_linalg::row_id_of_transpose;
use matrox_points::{generate, kernel_block, pair_blocks, DatasetId, Kernel, PointSet};
use matrox_tree::ClusterTree;
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

/// The leaf level redone by hand: ms of the sample blocks, of the IDs and
/// of the leaf-leaf coupling blocks, and every node's skeleton (leaves
/// only).
fn leaf_level(
    points: &PointSet,
    kernel: &Kernel,
    tree: &ClusterTree,
    samples: &[Vec<usize>],
    far: &[Vec<usize>],
    bacc: f64,
    max_rank: usize,
) -> ([f64; 3], Vec<Vec<usize>>) {
    let leaves: Vec<usize> = tree
        .leaves()
        .into_iter()
        .filter(|&l| !samples[l].is_empty())
        .collect();
    let (blk_ms, blocks) = ms(|| {
        let block = |&l: &usize| kernel_block(points, kernel, &samples[l], tree.indices(l));
        leaves.iter().map(block).collect::<Vec<_>>()
    });
    let mut skeletons = vec![Vec::new(); tree.num_nodes()];
    let (id_ms, ()) = ms(|| {
        for (&l, block) in leaves.iter().zip(blocks) {
            let id = row_id_of_transpose(block, bacc, max_rank);
            skeletons[l] = id.skeleton.iter().map(|&r| tree.indices(l)[r]).collect();
        }
    });
    let is_leaf = |i: usize| tree.nodes[i].is_leaf();
    let leaf_far: Vec<Vec<usize>> = (0..far.len())
        .map(|i| match is_leaf(i) {
            true => far[i].iter().copied().filter(|&j| is_leaf(j)).collect(),
            false => Vec::new(),
        })
        .collect();
    let (cpl_ms, _) = ms(|| pair_blocks(points, kernel, &leaf_far, 1, |i| &skeletons[i]));
    ([blk_ms, id_ms, cpl_ms], skeletons)
}

/// One rung's numbers: p2, low_rank, cds, leaf blk, leaf ID, leaf cpl (ms),
/// minor faults, whether its `D` buffer is shared, the leaf blocks kept,
/// and whether its leaf skeletons extend the previous rung's.
struct Rung {
    ms: [f64; 6],
    minflt: u64,
    shared: bool,
    kept: usize,
    prefix: Option<bool>,
}

/// A fresh p1 (its ms and minor faults) and the ladder's rungs over it.
fn sweep(points: &PointSet, kernel: &Kernel, params: &MatRoxParams) -> ([f64; 2], Vec<Rung>) {
    let faults = minor_faults();
    let (p1_ms, p1) = ms(|| inspector_p1(points, kernel, params).expect("inspector_p1"));
    let p1_faults = (minor_faults() - faults) as f64;
    let (tree, samples) = (&p1.tree, &p1.sampling.samples);
    let mut models = Vec::new();
    let mut rungs = Vec::new();
    let mut previous: Option<Vec<Vec<usize>>> = None;
    for &bacc in &LADDER {
        let faults = minor_faults();
        let (p2_ms, h) = ms(|| inspector_p2(points, &p1, kernel, bacc).expect("inspector_p2"));
        let minflt = minor_faults() - faults;
        let d = &h.plan.cds.d_values;
        let shared = models
            .iter()
            .any(|m: &matrox_core::HMatrix| m.plan.cds.d_values.shares(d));
        let (leaf, skeletons) = leaf_level(
            points,
            kernel,
            tree,
            samples,
            &p1.htree.far,
            bacc,
            params.max_rank,
        );
        let prefix = previous.as_ref().map(|prev| {
            let extends = |(p, s): (&Vec<usize>, &Vec<usize>)| s.starts_with(p);
            prev.iter().zip(&skeletons).all(extends)
        });
        let t = h.timings;
        rungs.push(Rung {
            ms: [
                p2_ms,
                t.low_rank.as_secs_f64() * 1e3,
                t.cds.as_secs_f64() * 1e3,
                leaf[0],
                leaf[1],
                leaf[2],
            ],
            minflt,
            shared,
            kept: p1.htree.kept_leaf_blocks(),
            prefix,
        });
        previous = Some(skeletons);
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
        "  {:<6} {:>7} {:>8} {:>7} {:>6} {:>9} {:>8} {:>8} {:>7} {:>8} {:>6}",
        "bacc",
        "p2",
        "low_rank",
        "cds",
        "D",
        "leaf kept",
        "minflt",
        "leaf blk",
        "leaf ID",
        "leaf cpl",
        "prefix"
    );
    let mut totals = [0.0; 6];
    for (r, bacc) in LADDER.iter().enumerate() {
        let col = |c: usize| median(sweeps.iter().map(|s| s[r].ms[c]).collect());
        let cols: Vec<f64> = (0..6).map(col).collect();
        for (t, c) in totals.iter_mut().zip(&cols) {
            *t += c;
        }
        let faults = median(sweeps.iter().map(|s| s[r].minflt as f64).collect());
        let last = &sweeps[reps - 1][r];
        let prefix = match last.prefix {
            None => "-",
            Some(true) => "yes",
            Some(false) => "no",
        };
        println!(
            "  {bacc:<6.0e} {:>7.1} {:>8.1} {:>7.1} {:>6} {:>9} {faults:>8.0} {:>8.1} {:>7.1} {:>8.1} {prefix:>6}",
            cols[0],
            cols[1],
            cols[2],
            if last.shared { "shared" } else { "new" },
            last.kept,
            cols[3],
            cols[4],
            cols[5],
        );
    }
    println!(
        "  {:<6} {:>7.1} {:>8.1} {:>7.1} {:>6} {:>9} {:>8} {:>8.1} {:>7.1} {:>8.1}",
        "sweep", totals[0], totals[1], totals[2], "", "", "", totals[3], totals[4], totals[5]
    );
}
