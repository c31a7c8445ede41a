//! The determinism wall for the level-parallel inspector.
//!
//! The inspector runs tree partitioning, neighbor/skeleton sampling,
//! per-level compression and CDS packing on the work-stealing pool.  The
//! contract pinned here is strict **bitwise** reproducibility: the pool
//! width may change the schedule, but never a single bit of the output.
//! Concretely, for every structure x accuracy combination:
//!
//! * the serialized `MATROX2` image is byte-identical at 1/2/4 threads;
//! * the CDS value buffers (generators, near blocks, coupling blocks)
//!   match bit for bit, as do the sranks and the tree permutation;
//! * the explicit `grain` knob changes scheduling only — never bytes;
//! * a parallel-inspected HSS matrix factorizes and solves to the same
//!   bits as the width-1 run, end to end.
//!
//! Under Miri the matrix shrinks (fewer combinations, smaller N) but the
//! same assertions run, so the pool-parallel phases stay under the
//! interpreter's aliasing checks.

use matrox_core::{inspector, to_bytes, HMatrix, MatRoxParams};
use matrox_points::{generate, DatasetId, Kernel, PointSet};

fn problem(n: usize) -> (PointSet, Kernel) {
    let pts = generate(DatasetId::Grid, n, 21);
    let kernel = Kernel::Gaussian { bandwidth: 1.0 };
    (pts, kernel)
}

fn settings() -> Vec<(&'static str, MatRoxParams)> {
    let mut out = Vec::new();
    let baccs: &[f64] = if cfg!(miri) {
        &[1.0e-3]
    } else {
        &[1.0e-3, 1.0e-7]
    };
    for &bacc in baccs {
        out.push(("hss", MatRoxParams::hss().with_bacc(bacc)));
        out.push(("h2b", MatRoxParams::h2b().with_bacc(bacc)));
        if !cfg!(miri) {
            out.push(("geometric", MatRoxParams::smash_setting().with_bacc(bacc)));
        }
    }
    for (_, p) in out.iter_mut() {
        *p = p.with_leaf_size(32);
    }
    out
}

fn inspect_at_width(
    pts: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
    threads: usize,
) -> HMatrix {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| inspector(pts, kernel, params).expect("inspector"))
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Assert every determinism-relevant artifact of `h` matches `reference`,
/// with a separate message per artifact so a failure names the phase that
/// diverged (perm -> partitioning, sranks -> sampling/compression, value
/// buffers -> compression/packing, image -> anything serialized).
fn assert_bitwise_same(reference: &HMatrix, h: &HMatrix, what: &str) {
    assert_eq!(
        reference.tree.perm, h.tree.perm,
        "{what}: tree permutation diverged"
    );
    assert_eq!(
        reference.tree.pos, h.tree.pos,
        "{what}: inverse permutation diverged"
    );
    assert_eq!(
        reference.plan.cds.sranks, h.plan.cds.sranks,
        "{what}: sranks diverged"
    );
    assert!(
        bits_eq(&reference.plan.cds.gen_values, &h.plan.cds.gen_values),
        "{what}: generator values diverged"
    );
    assert!(
        bits_eq(&reference.plan.cds.d_values, &h.plan.cds.d_values),
        "{what}: near-block values diverged"
    );
    assert!(
        bits_eq(&reference.plan.cds.b_values, &h.plan.cds.b_values),
        "{what}: coupling-block values diverged"
    );
    assert_eq!(
        to_bytes(reference),
        to_bytes(h),
        "{what}: serialized MATROX2 image diverged"
    );
}

#[test]
fn inspector_is_bitwise_identical_across_pool_widths() {
    let n = if cfg!(miri) { 64 } else { 384 };
    let (pts, kernel) = problem(n);
    let widths: &[usize] = if cfg!(miri) { &[1, 2] } else { &[1, 2, 4] };
    for (name, params) in settings() {
        let reference = inspect_at_width(&pts, &kernel, &params, widths[0]);
        for &w in &widths[1..] {
            let h = inspect_at_width(&pts, &kernel, &params, w);
            assert_bitwise_same(
                &reference,
                &h,
                &format!("{name} bacc={:.0e} at {w} threads", params.bacc),
            );
        }
    }
}

#[test]
fn grain_changes_scheduling_not_bytes() {
    let n = if cfg!(miri) { 64 } else { 384 };
    let (pts, kernel) = problem(n);
    let params = MatRoxParams::h2b().with_bacc(1.0e-5).with_leaf_size(32);
    let reference = inspect_at_width(&pts, &kernel, &params, 4);
    for grain in [1usize, 7, 64, 100_000] {
        let h = inspect_at_width(&pts, &kernel, &params.with_grain(grain), 4);
        assert_bitwise_same(&reference, &h, &format!("grain={grain}"));
    }
}

#[test]
fn parallel_inspect_factorize_solve_matches_width_one() {
    let n = if cfg!(miri) { 64 } else { 384 };
    let (pts, kernel) = problem(n);
    let params = MatRoxParams::hss().with_bacc(1.0e-6).with_leaf_size(32);
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();

    let solve_at = |threads: usize| -> Vec<f64> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let h = inspector(&pts, &kernel, &params).expect("inspector");
            let f = h.factorize().expect("factorize");
            f.solve(&b).expect("solve")
        })
    };

    let reference = solve_at(1);
    let widths: &[usize] = if cfg!(miri) { &[2] } else { &[2, 4] };
    for &w in widths {
        let x = solve_at(w);
        assert!(
            bits_eq(&reference, &x),
            "inspect->factorize->solve at {w} threads is not bitwise identical to 1 thread"
        );
    }
}
