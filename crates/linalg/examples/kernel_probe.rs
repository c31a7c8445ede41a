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
//!
//! The QR lines time [`KernelDispatch::pivoted_qr`] on Gaussian sample
//! blocks of the ID's shapes (512 x 64 and 512 x 160 on `sci_solve`,
//! 64 x 64 on `reuse_sweep`, tolerance 1e-7), in ms per factorization and
//! GF/s of its reflector dots and updates; the LU line times the two
//! substitutions of an LU solve ([`KernelDispatch::substitute`], unit `L`
//! then `U`) at a 160 x 160 sibling merge with 48 right-hand sides.
//!
//! Every line is also a bit check, and the probe exits non-zero on a
//! mismatch: at each GEMM shape the two SIMD arms (one chain) must return
//! the same bits, and on the distance, QR and LU lines every arm must
//! return the scalar arm's.

use matrox_linalg::kernel::{DistPanels, KC, MC, NC};
use matrox_linalg::{
    lu_factor, simd_available, KernelChoice, KernelDispatch, Matrix, PivotedQr, Substitution,
};
use std::time::Instant;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// GF/s of `C += A * B` at `m x k x n`, with the bits of one product from
/// `C = 0`.
fn gflops(disp: KernelDispatch, m: usize, k: usize, n: usize) -> (f64, Vec<u64>) {
    let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut c = vec![0.0; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let reps = ((2e8 / flops) as usize).max(4);
    // Warm up (packs buffers, faults pages).
    disp.gemm(&a, m, k, &b, n, &mut c);
    let first = bits(&c);
    let t0 = Instant::now();
    for _ in 0..reps {
        disp.gemm(&a, m, k, &b, n, &mut c);
    }
    let dt = t0.elapsed().as_secs_f64();
    (flops * reps as f64 / dt / 1e9, first)
}

/// Nanoseconds per pair of a 64 x 64 distance block at dimension `dim`:
/// the squared distance alone, and with an `exp` per entry; with the bits
/// of every block's distances.
fn dist_ns(disp: KernelDispatch, dim: usize) -> (f64, f64, Vec<u64>) {
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
    let mut first = Vec::new();
    for (rows, panels) in &blocks {
        disp.dist2(&coords, rows, panels, 0, &mut out, N);
        first.extend(bits(&out));
    }
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
    (time(false), time(true), first)
}

/// A Gaussian sample block of `sci_solve`'s kind: `m` sample points (every
/// other one near the patch, the rest spread wide) against a patch of `n`
/// grid points 16 wide, bandwidth 8 spacings.
fn qr_block(m: usize, n: usize) -> Matrix {
    let patch = |c: usize| ((c % 16) as f64, (c / 16) as f64);
    let sample = |s: usize| {
        let (a, b) = (((s * 37) % 97) as f64, ((s * 61) % 89) as f64);
        if s.is_multiple_of(2) {
            (a * 0.4 - 12.0, b * 0.4 - 12.0)
        } else {
            (a * 1.3 - 60.0, b * 1.4 - 60.0)
        }
    };
    Matrix::from_fn(m, n, |s, c| {
        let ((x0, y0), (x1, y1)) = (sample(s), patch(c));
        (-((x0 - x1).powi(2) + (y0 - y1).powi(2)) / 128.0).exp()
    })
}

/// Milliseconds per factorization of `a` and GF/s of its `4 (m - k)(n - k
/// - 1)` flops a step, with the factorization (for the cross-arm check).
fn qr_time(disp: KernelDispatch, a: &Matrix) -> (f64, f64, PivotedQr) {
    let f = disp.pivoted_qr(a.clone(), 1e-7, 256);
    let (m, n) = a.shape();
    let flops: f64 = (0..f.rank)
        .map(|k| 4.0 * ((m - k) * (n - k - 1)) as f64)
        .sum();
    let reps = ((4e8 / flops.max(1.0)) as usize).clamp(4, 4000);
    let copies: Vec<Matrix> = (0..reps).map(|_| a.clone()).collect();
    let t0 = Instant::now();
    for c in copies {
        std::hint::black_box(disp.pivoted_qr(c, 1e-7, 256));
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    (dt * 1e3, flops / dt / 1e9, f)
}

/// Milliseconds per LU solve (unit `L`, then `U`) at an `n x n` merge with
/// `q` right-hand sides, with the solution.
fn lu_time(disp: KernelDispatch, n: usize, q: usize) -> (f64, Vec<f64>) {
    let a = Matrix::from_fn(n, n, |i, j| {
        let off = ((i * 7 + j * 13) as f64).sin() * 0.1;
        if i == j {
            4.0 + off
        } else {
            off
        }
    });
    let Ok(f) = lu_factor(&a, KernelDispatch::scalar()) else {
        unreachable!("a diagonally dominant matrix factors")
    };
    let b: Vec<f64> = (0..n * q).map(|i| (i as f64 * 0.3).cos()).collect();
    let solve = |x: &mut [f64]| {
        disp.substitute(Substitution::UnitLower, &f.lu, n, x, q);
        disp.substitute(Substitution::Upper, &f.lu, n, x, q);
    };
    let mut x = b.clone();
    solve(&mut x);
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut y = b.clone();
        solve(&mut y);
        std::hint::black_box(&y);
    }
    (t0.elapsed().as_secs_f64() * 1e3 / reps as f64, x)
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
    let mut mismatch = false;
    // `want` holds the first result seen; every later one must equal it.
    let mut check = |what: &str, name: &str, want: &mut Option<Vec<u64>>, got: Vec<u64>| {
        if *want.get_or_insert_with(|| got.clone()) != got {
            eprintln!("{what}: the {name} arm's bits differ");
            mismatch = true;
        }
    };
    for &(m, k, n) in &[
        (64usize, 64usize, 16usize),
        (64, 64, 184),
        (40, 40, 184),
        (64, 64, 8),
        (32, 32, 64),
        (256, 256, 256),
        (1024, 64, 128),
    ] {
        // The SIMD arms share one chain; the scalar arm has its own.
        let mut want = None;
        let row: Vec<String> = arms
            .iter()
            .map(|&d| {
                let (gf, got) = gflops(d, m, k, n);
                if d.is_simd() {
                    check(&format!("gemm {m} x {k} x {n}"), d.name(), &mut want, got);
                }
                format!("{} {gf:6.2}", d.name())
            })
            .collect();
        println!("{m:>5} x {k:>4} x {n:>4}: {} GF/s", row.join(", "));
    }
    for dim in [2usize, 54] {
        let mut want = None;
        let row: Vec<String> = arms
            .iter()
            .map(|&d| {
                let (dist, entry, got) = dist_ns(d, dim);
                check(&format!("dist2 d = {dim}"), d.name(), &mut want, got);
                format!("{} {dist:5.2} / {entry:5.2}", d.name())
            })
            .collect();
        println!(
            "dist2 64 x 64, d = {dim:>2}: {} ns per pair (distance / with exp)",
            row.join(", ")
        );
    }
    // The QR and the substitutions return the scalar arm's bits on every
    // arm; anything else is a broken build of the bodies.
    for (m, n) in [(512usize, 64usize), (512, 160), (64, 64)] {
        let a = qr_block(m, n);
        let (mut want, mut rank) = (None, 0);
        let mut row = Vec::new();
        for &d in &arms {
            let (ms, gf, f) = qr_time(d, &a);
            row.push(format!("{} {ms:6.3} ms {gf:5.2}", d.name()));
            rank = f.rank;
            let got = std::iter::once(&f.rank)
                .chain(&f.perm)
                .map(|&p| p as u64)
                .chain(bits(f.r.as_slice()))
                .collect();
            check(&format!("pivoted_qr {m} x {n}"), d.name(), &mut want, got);
        }
        println!(
            "pivoted_qr {m:>3} x {n:>3}: {} GF/s (rank {rank})",
            row.join(", ")
        );
    }
    let mut want = None;
    let mut row = Vec::new();
    for &d in &arms {
        let (ms, x) = lu_time(d, 160, 48);
        row.push(format!("{} {ms:6.3}", d.name()));
        check("lu solve", d.name(), &mut want, bits(&x));
    }
    println!("lu solve 160 x 160, q = 48: {} ms", row.join(", "));
    if mismatch {
        std::process::exit(1);
    }
}
