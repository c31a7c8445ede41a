//! Property coverage for the kernel-dispatch layer.
//!
//! Three pins, each per dispatchable architecture (scalar always; AVX2 when
//! the host has it — requesting it elsewhere must degrade to scalar):
//!
//! 1. **accuracy** — every dispatch path (NoTrans/TN, sequential/parallel)
//!    stays within `1e-12` relative error of the scalar reference
//!    [`gemm_seq`] on random shapes, including the microkernel edge shapes
//!    (`m < MR`, `n < NR`, `k = 0`, tall-skinny);
//! 2. **bitwise determinism** — for a fixed dispatch the result is bitwise
//!    identical across 1/2/4-thread pools and across RHS panel groupings;
//! 3. **fallback totality** — every [`KernelChoice`] resolves to a runnable
//!    kernel on every host;
//! 4. **the narrow arm** — on AVX2, a product with `n < NR` columns runs
//!    unpacked; it must equal the packed path bit for bit (the same product
//!    with `B` zero-padded to `NR` columns, first `n` columns kept).

use matrox_linalg::kernel::NR;
use matrox_linalg::{gemm_seq, simd_available, GemmOp, KernelChoice, KernelDispatch, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;

/// The dispatches that must all be exercised on this host: the scalar
/// fallback unconditionally, the SIMD microkernel when present.  (On a
/// non-AVX2 host `resolve(Avx2)` degrades to scalar, so the scalar path is
/// what "requesting avx2" runs — covered either way.)
fn dispatches() -> Vec<KernelDispatch> {
    let mut d = vec![
        KernelDispatch::scalar(),
        KernelDispatch::resolve(KernelChoice::Avx2),
    ];
    d.dedup_by_key(|k| k.is_simd());
    d
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::random_uniform(rows, cols, &mut rng)
}

/// Reference `A * B` through the never-dispatched scalar kernel.
fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_seq(1.0, a, GemmOp::NoTrans, b, GemmOp::NoTrans, 0.0, &mut c);
    c
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (x, y) in got.iter().zip(want) {
        assert!(
            (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
            "{what}: {x} vs reference {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pin every dispatch path against `gemm_seq` on random shapes,
    /// including degenerate and microkernel-edge ones.
    #[test]
    fn all_dispatch_paths_match_gemm_seq(
        m in 1usize..48,
        k in 0usize..48,
        n in 1usize..48,
        seed in 0u64..10_000,
        stretch in 0u8..4,
    ) {
        // Occasionally stretch one dimension well past the pack-block sizes
        // so the kc/mc/nc loops run more than one iteration.  Under Miri
        // skip the stretch and clamp shapes: interpreted O(mkn) is where
        // the time goes, and small shapes reach the same unsafe code.
        let (m, k, n) = if cfg!(miri) {
            (m.min(6), k.min(6), n.min(6))
        } else {
            match stretch {
                1 => (m + 200, k, n),
                2 => (m, k + 200, n),
                3 => (m, k, n + 200),
                _ => (m, k, n),
            }
        };
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let want = reference(&a, &b);

        for disp in dispatches() {
            let name = disp.name();
            let mut c = vec![0.0; m * n];
            disp.gemm(a.as_slice(), m, k, b.as_slice(), n, &mut c);
            assert_close(&c, want.as_slice(), &format!("{name} gemm {m}x{k}x{n}"));

            let mut c_par = vec![0.0; m * n];
            disp.par_gemm(a.as_slice(), m, k, b.as_slice(), n, &mut c_par);
            assert!(
                c.iter().zip(&c_par).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: par_gemm not bitwise equal to gemm at {m}x{k}x{n}"
            );

            // TN path: A stored transposed (k x m) must give the same
            // product, bitwise equal between sequential and parallel.
            let at = a.transpose();
            let mut t = vec![0.0; m * n];
            disp.gemm_tn(at.as_slice(), k, m, b.as_slice(), n, &mut t);
            assert_close(&t, want.as_slice(), &format!("{name} gemm_tn {m}x{k}x{n}"));
            let mut t_par = vec![0.0; m * n];
            disp.par_gemm_tn(at.as_slice(), k, m, b.as_slice(), n, &mut t_par);
            assert!(
                t.iter().zip(&t_par).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: par_gemm_tn not bitwise equal to gemm_tn at {m}x{k}x{n}"
            );
        }
    }

    /// Accumulating a product in RHS column panels must be bitwise
    /// identical to the full-width product for a fixed dispatch (the
    /// executor's panel-blocking contract).
    #[test]
    fn panel_grouping_is_bitwise_neutral(
        m in 1usize..32,
        k in 1usize..32,
        n in 2usize..40,
        panel in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 7);
        for disp in dispatches() {
            let mut full = vec![0.25; m * n];
            disp.gemm(a.as_slice(), m, k, b.as_slice(), n, &mut full);
            let mut out = vec![0.25; m * n];
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + panel).min(n);
                let w = j1 - j0;
                let bp: Vec<f64> = (0..k)
                    .flat_map(|p| b.as_slice()[p * n + j0..p * n + j1].to_vec())
                    .collect();
                let mut cp: Vec<f64> = (0..m)
                    .flat_map(|i| out[i * n + j0..i * n + j1].to_vec())
                    .collect();
                disp.gemm(a.as_slice(), m, k, &bp, w, &mut cp);
                for i in 0..m {
                    out[i * n + j0..i * n + j1].copy_from_slice(&cp[i * w..(i + 1) * w]);
                }
                j0 = j1;
            }
            assert!(
                full.iter().zip(&out).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: panel {panel} changed results at {m}x{k}x{n}",
                disp.name()
            );
        }
    }
}

/// The parallel kernels must be bitwise independent of the pool width for a
/// fixed dispatch (row chunks own disjoint output rows, and the per-row
/// accumulation chain never depends on the chunking).
#[test]
fn par_kernels_bitwise_identical_across_pool_widths() {
    let (m, k, n) = if cfg!(miri) {
        (19usize, 7usize, 5usize)
    } else {
        (173usize, 67usize, 29usize)
    };
    let a = random_matrix(m, k, 5);
    let b = random_matrix(k, n, 6);
    let at = a.transpose();
    for disp in dispatches() {
        let mut runs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
        let widths: &[usize] = if cfg!(miri) { &[1, 2] } else { &[1, 2, 4] };
        for &nt in widths {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(nt)
                .build()
                .unwrap();
            let out = pool.install(|| {
                let mut c = vec![0.0; m * n];
                disp.par_gemm(a.as_slice(), m, k, b.as_slice(), n, &mut c);
                let mut t = vec![0.0; m * n];
                disp.par_gemm_tn(at.as_slice(), k, m, b.as_slice(), n, &mut t);
                (c, t)
            });
            runs.push(out);
        }
        for (c, t) in &runs[1..] {
            assert_eq!(
                c,
                &runs[0].0,
                "{}: par_gemm varies with pool width",
                disp.name()
            );
            assert_eq!(
                t,
                &runs[0].1,
                "{}: par_gemm_tn varies with pool width",
                disp.name()
            );
        }
    }
}

/// Requesting the SIMD kernel must be safe everywhere: on hosts without the
/// features it silently resolves to the scalar fallback and still computes
/// correct products.
#[test]
fn avx2_request_always_resolves_and_computes() {
    let d = KernelDispatch::resolve(KernelChoice::Avx2);
    assert_eq!(d.is_simd(), simd_available());
    let a = random_matrix(9, 11, 1);
    let b = random_matrix(11, 5, 2);
    let want = reference(&a, &b);
    let mut c = vec![0.0; 9 * 5];
    d.gemm(a.as_slice(), 9, 11, b.as_slice(), 5, &mut c);
    assert_close(&c, want.as_slice(), "resolve(Avx2)");
    // The explicit scalar fallback is always available and non-SIMD, even
    // on hosts where auto picks the microkernel.
    assert!(!KernelDispatch::scalar().is_simd());
    assert_eq!(
        KernelDispatch::for_choice(KernelChoice::Scalar).name(),
        "scalar"
    );
}

/// The packed-path oracle for the narrow arm: `C0 + op(A) * B` computed at
/// width `NR` with `B` and `C0` zero-padded, first `n` columns kept.  The
/// padded product takes the packed microkernel, and columns never interact,
/// so a narrow result must match it bit for bit.  `a` is `m x k` (NoTrans)
/// or stored `k x m` (`trans`).
fn padded_packed(
    disp: KernelDispatch,
    trans: bool,
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c0: &[f64],
) -> Vec<f64> {
    let pad = |src: &[f64], rows: usize| -> Vec<f64> {
        (0..rows)
            .flat_map(|r| (0..NR).map(move |j| if j < n { src[r * n + j] } else { 0.0 }))
            .collect()
    };
    let bp = pad(b, k);
    let mut cp = pad(c0, m);
    if trans {
        disp.gemm_tn(a, k, m, &bp, NR, &mut cp);
    } else {
        disp.gemm(a, m, k, &bp, NR, &mut cp);
    }
    (0..m)
        .flat_map(|i| cp[i * NR..i * NR + n].to_vec())
        .collect()
}

/// Operands for one narrow check: `A` with exact zeros in it (the AVX2
/// chain never skips them), `B`, and a `C0` holding non-zero values, `-0.0`
/// and a subnormal, which a chain that starts anywhere but `C` would lose.
fn narrow_operands(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut a = random_matrix(m.max(1), k.max(1), seed).as_slice()[..m * k].to_vec();
    a.iter_mut().step_by(7).for_each(|v| *v = 0.0);
    let b = random_matrix(k.max(1), n, seed + 1).as_slice()[..k * n].to_vec();
    let mut c0 = random_matrix(m, n, seed + 2).as_slice().to_vec();
    for (i, v) in c0.iter_mut().enumerate() {
        match i % 5 {
            0 => *v = -0.0,
            1 => *v = f64::from_bits(1),
            _ => {}
        }
    }
    (a, b, c0)
}

/// `gemm` and `gemm_tn` at width `n` against [`padded_packed`], by `to_bits`.
fn assert_narrow_matches_packed(disp: KernelDispatch, m: usize, k: usize, n: usize, seed: u64) {
    let (a, b, c0) = narrow_operands(m, k, n, seed);
    for trans in [false, true] {
        let want = padded_packed(disp, trans, &a, m, k, &b, n, &c0);
        let mut c = c0.clone();
        if trans {
            disp.gemm_tn(&a, k, m, &b, n, &mut c);
        } else {
            disp.gemm(&a, m, k, &b, n, &mut c);
        }
        assert!(
            c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
            "narrow {} at m={m} k={k} n={n} differs from the packed path",
            if trans { "gemm_tn" } else { "gemm" }
        );
    }
}

/// The SIMD dispatch, or `None` on hosts (and under Miri) without it: the
/// narrow arm exists only there.
fn simd_dispatch() -> Option<KernelDispatch> {
    simd_available().then(|| KernelDispatch::resolve(KernelChoice::Avx2))
}

/// Every narrow width at row counts around the 4-row groups and at depths
/// around the packed path's `kc` split.
#[test]
fn narrow_arm_matches_padded_packed() {
    let Some(disp) = simd_dispatch() else { return };
    let kc = disp.blocking().kc;
    for n in 1..NR {
        for m in [1usize, 3, 4, 5, 63, 64, 65] {
            for k in [0, 1, kc - 1, kc, kc + 1, 2 * kc + 3] {
                assert_narrow_matches_packed(disp, m, k, n, (m * 1000 + k * 10 + n) as u64);
            }
        }
    }
}

/// `par_gemm` / `par_gemm_tn` hand each row chunk the whole `A` at an offset
/// `i0`; at every narrow width they must equal the sequential product at
/// pool widths 1, 2 and 3.
#[test]
fn narrow_par_paths_match_sequential_across_pool_widths() {
    let Some(disp) = simd_dispatch() else { return };
    let (m, k) = (65usize, 2 * disp.blocking().kc + 3);
    for n in 1..NR {
        let (a, b, c0) = narrow_operands(m, k, n, 90 + n as u64);
        let mut seq = c0.clone();
        disp.gemm(&a, m, k, &b, n, &mut seq);
        let mut seq_tn = c0.clone();
        disp.gemm_tn(&a, k, m, &b, n, &mut seq_tn);
        for nt in [1usize, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(nt)
                .build()
                .unwrap();
            let (par, par_tn) = pool.install(|| {
                let mut par = c0.clone();
                disp.par_gemm(&a, m, k, &b, n, &mut par);
                let mut par_tn = c0.clone();
                disp.par_gemm_tn(&a, k, m, &b, n, &mut par_tn);
                (par, par_tn)
            });
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&par), bits(&seq), "par_gemm n={n} at {nt} threads");
            assert_eq!(
                bits(&par_tn),
                bits(&seq_tn),
                "par_gemm_tn n={n} at {nt} threads"
            );
        }
    }
}

/// The exhaustive sweep at the executor's block shapes (release CI step:
/// `cargo test --release -p matrox-linalg -- --ignored narrow_matches_packed`):
/// every `(m, k)` in `1..=96` squared, plus depths straddling `kc` and
/// `2 * kc`, at every narrow width, both forms.
#[test]
#[ignore = "exhaustive; run in release"]
fn narrow_matches_packed_at_executor_shapes() {
    let Some(disp) = simd_dispatch() else { return };
    let kc = disp.blocking().kc;
    let straddle = [kc - 1, kc, kc + 1, 2 * kc - 1, 2 * kc, 2 * kc + 1];
    for m in 1..=96usize {
        for k in (1..=96usize).chain(straddle) {
            for n in 1..NR {
                assert_narrow_matches_packed(disp, m, k, n, (m * 1000 + k) as u64);
            }
        }
    }
}
