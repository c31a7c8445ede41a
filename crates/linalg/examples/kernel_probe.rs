//! Quick probe of the kernel layer: GF/s of every arm this host runs
//! (scalar, and avx2 / avx512 where the CPU has them) at a few shapes, then
//! each arm's squared-distance body in ns per pair.
//!
//! ```bash
//! cargo run --release -p matrox-linalg --example kernel_probe
//! ```
//!
//! The tracked numbers are the benchmark's `ml_wide` per-layer metrics
//! (`linalg.gemm_*_gflops`, `exec.execute_scalar_s`, `exec.frac_of_gemm`);
//! this example exists for fast iteration on the microkernels themselves.
//! The first three shapes are the executor's: 64 x 64 near and coupling
//! blocks against a 16-column and a 184-column RHS panel, and a 40 x 40
//! block against a 184-column one.
//!
//! The distance lines time [`KernelDispatch::dist2`] on 64 x 64 blocks
//! (the inspector's leaf size) at d = 2 (`sci_solve`'s grid) and d = 54
//! (`ml_wide`'s covtype-like set), alone and followed by a Gaussian's
//! `exp` per entry — what a kernel entry costs, and how much of it the
//! `exp` is.

use matrox_linalg::kernel::{DistPanels, KC, MC, NC};
use matrox_linalg::{simd_available, KernelChoice, KernelDispatch};
use std::time::Instant;

fn gflops(disp: KernelDispatch, m: usize, k: usize, n: usize) -> f64 {
    let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut c = vec![0.0; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let reps = ((2e8 / flops) as usize).max(4);
    // Warm up (packs buffers, faults pages).
    disp.gemm(&a, m, k, &b, n, &mut c);
    let t0 = Instant::now();
    for _ in 0..reps {
        disp.gemm(&a, m, k, &b, n, &mut c);
    }
    let dt = t0.elapsed().as_secs_f64();
    flops * reps as f64 / dt / 1e9
}

/// Nanoseconds per pair of a 64 x 64 distance block at dimension `dim`:
/// the squared distance alone, and with an `exp` per entry.
fn dist_ns(disp: KernelDispatch, dim: usize) -> (f64, f64) {
    const N: usize = 64;
    // Sixteen blocks of 64 points, so the working set stays in L2 and the
    // rows are not the columns.
    let coords: Vec<f64> = (0..16 * N * dim).map(|i| (i as f64 * 0.37).sin()).collect();
    let blocks: Vec<(Vec<usize>, DistPanels)> = (0..16)
        .map(|b| {
            let idx: Vec<usize> = (b * N..(b + 1) * N).collect();
            let cols: Vec<usize> = idx.iter().map(|&i| (i + 5 * N) % (16 * N)).collect();
            (idx, DistPanels::gather(&coords, dim, &cols))
        })
        .collect();
    let mut out = vec![0.0; N * N];
    let reps = ((4e8 / (16 * N * N * dim) as f64) as usize).max(4);
    let mut time = |with_exp: bool| {
        let t0 = Instant::now();
        for _ in 0..reps {
            for (rows, panels) in &blocks {
                disp.dist2(&coords, rows, panels, 0, &mut out, N);
                if with_exp {
                    out.iter_mut().for_each(|v| *v = (-*v / 50.0).exp());
                }
            }
        }
        t0.elapsed().as_secs_f64() * 1e9 / (reps * 16 * N * N) as f64
    };
    time(false);
    (time(false), time(true))
}

fn main() {
    let auto = KernelDispatch::resolve(KernelChoice::Auto);
    println!(
        "simd_available = {}, auto kernel = {}, MC = {MC}, KC = {KC}, NC = {NC}",
        simd_available(),
        auto.name(),
    );
    // Every distinct arm: `Avx2` degrades to scalar without the features,
    // and `Auto` is `Avx2` without AVX-512.
    let mut arms = vec![
        KernelDispatch::scalar(),
        KernelDispatch::resolve(KernelChoice::Avx2),
        auto,
    ];
    arms.dedup();
    for &(m, k, n) in &[
        (64usize, 64usize, 16usize),
        (64, 64, 184),
        (40, 40, 184),
        (64, 64, 8),
        (32, 32, 64),
        (256, 256, 256),
        (1024, 64, 128),
    ] {
        let row: Vec<String> = arms
            .iter()
            .map(|&d| format!("{} {:6.2}", d.name(), gflops(d, m, k, n)))
            .collect();
        println!("{m:>5} x {k:>4} x {n:>4}: {} GF/s", row.join(", "));
    }
    for dim in [2usize, 54] {
        let row: Vec<String> = arms
            .iter()
            .map(|&d| {
                let (dist, entry) = dist_ns(d, dim);
                format!("{} {dist:5.2} / {entry:5.2}", d.name())
            })
            .collect();
        println!(
            "dist2 64 x 64, d = {dim:>2}: {} ns per pair (distance / with exp)",
            row.join(", ")
        );
    }
}
