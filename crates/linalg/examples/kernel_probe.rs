//! Quick probe of the kernel layer: GF/s of every arm this host runs
//! (scalar, and avx2 / avx512 where the CPU has them) at a few shapes.
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

use matrox_linalg::kernel::{KC, MC, NC};
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
}
