//! Property coverage for the kernel-dispatch layer.
//!
//! Four pins, each per dispatchable architecture (scalar always; AVX2 when
//! the host has it — requesting it elsewhere must degrade to scalar):
//!
//! 1. **accuracy** — every dispatch path (NoTrans/TN, sequential/parallel)
//!    stays within `1e-12` relative error of the scalar reference
//!    [`gemm_seq`] on random shapes, including the microkernel edge shapes
//!    (`m < MR`, `n < NR`, `k = 0`, tall-skinny);
//! 2. **bitwise determinism** — for a fixed dispatch the result is bitwise
//!    identical across 1/2/4-thread pools and across RHS panel groupings;
//! 3. **fallback totality** — every [`KernelChoice`] resolves to a runnable
//!    kernel on every host, and a short `C` panics on every arm before
//!    anything is written past it;
//! 4. **the chain** — on each arm, every route (scalar: across its
//!    64 x 128 x 256 loop blocking; AVX2: in place or packed, full tiles,
//!    row and column remainders; sequential or parallel) must equal, bit
//!    for bit, an independent reference that runs the arm's step for `p`
//!    ascending from `C0`: `c = a_ip.mul_add(b_pj, c)` for AVX2,
//!    `c = c + a_ip * b_pj` with `a_ip == 0` skipped for scalar.

use matrox_linalg::kernel::{KC, MC};
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

/// A short `C` must panic before the product writes anything, on every arm
/// and entry point: the AVX2 arm stores through raw pointers, so a length
/// check that exists only in debug builds would let it write past the
/// slice in release.
#[test]
fn short_c_panics_and_leaves_memory_past_it_untouched() {
    let (m, k, n) = (8usize, 8usize, 8usize);
    let a = vec![1.0; m * k];
    let b = vec![1.0; k * n];
    type Entry = fn(&KernelDispatch, &[f64], usize, usize, &[f64], usize, &mut [f64]);
    let entries: [(&str, Entry); 4] = [
        ("gemm", |d, a, m, k, b, n, c| d.gemm(a, m, k, b, n, c)),
        ("gemm_tn", |d, a, m, k, b, n, c| d.gemm_tn(a, k, m, b, n, c)),
        ("par_gemm", |d, a, m, k, b, n, c| {
            d.par_gemm(a, m, k, b, n, c)
        }),
        ("par_gemm_tn", |d, a, m, k, b, n, c| {
            d.par_gemm_tn(a, k, m, b, n, c)
        }),
    ];
    for disp in dispatches() {
        for (name, entry) in entries {
            // `c` is the first 8 values of a 64-value buffer; the rest is a
            // guard region the product must never reach.
            let mut buf = vec![0.0; m * n];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                entry(&disp, &a, m, k, &b, n, &mut buf[..n]);
            }));
            assert!(
                result.is_err(),
                "{} {name}: a {n}-value C for an {m} x {n} product did not panic",
                disp.name()
            );
            assert!(
                buf[n..].iter().all(|&v| v == 0.0),
                "{} {name}: the product wrote past the end of C",
                disp.name()
            );
        }
    }
}

/// One arm's chain step: what every output element does per depth step.
type Step = fn(f64, f64, f64) -> f64;

/// The scalar arm's step: `c + a * b` (`mul` then `add`, two roundings),
/// exact zeros of `A` skipped.
fn scalar_step(a: f64, b: f64, c: f64) -> f64 {
    if a != 0.0 {
        c + a * b
    } else {
        c
    }
}

/// The AVX2 arm's step: one `fma`.  `f64::mul_add` rounds once, exactly as
/// `vfmadd` does.
fn fma_step(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

/// Every arm this host runs, with its chain step and the depth its loops
/// block by (the scalar loop's 128, the AVX2 packed route's [`KC`]), which
/// the oracles straddle.  Empty under Miri: the sweeps are far too large to
/// interpret, and the scalar arm holds no unsafe code.
fn arms() -> Vec<(KernelDispatch, Step, usize)> {
    let mut arms = vec![(KernelDispatch::scalar(), scalar_step as Step, 128)];
    if simd_available() {
        arms.push((KernelDispatch::resolve(KernelChoice::Avx2), fma_step, KC));
    }
    if cfg!(miri) {
        arms.clear();
    }
    arms
}

/// The largest operands of a family of sub-products: every `(m, k, n)` up
/// to `(rows, depth, cols)` reads the leading `m x k` block of `a`, the
/// leading `k x n` block of `b` and the leading `m x n` block of `c0`.
/// `a` holds exact zeros (which the scalar chain skips and the AVX2 chain
/// does not) and `c0` holds `-0.0` and a subnormal, which a chain that
/// starts anywhere but `C`, or adds a skipped zero, would lose.
struct Family {
    rows: usize,
    depth: usize,
    cols: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c0: Vec<f64>,
    /// `c0` advanced by the chain over the first `k` depth steps.
    chain: Vec<f64>,
    k: usize,
    step: Step,
}

impl Family {
    fn new(rows: usize, depth: usize, cols: usize, seed: u64, step: Step) -> Self {
        let mut a = random_matrix(rows, depth.max(1), seed).as_slice().to_vec();
        a.iter_mut().step_by(7).for_each(|v| *v = 0.0);
        let b = random_matrix(depth.max(1), cols, seed + 1)
            .as_slice()
            .to_vec();
        let mut c0 = random_matrix(rows, cols, seed + 2).as_slice().to_vec();
        for (i, v) in c0.iter_mut().enumerate() {
            match i % 5 {
                0 => *v = -0.0,
                1 => *v = f64::from_bits(1),
                _ => {}
            }
        }
        let chain = c0.clone();
        Family {
            rows,
            depth: depth.max(1),
            cols,
            a,
            b,
            c0,
            chain,
            k: 0,
            step,
        }
    }

    /// The independent oracle at depth `k` (never below the last one): one
    /// `c = step(a_ip, b_pj, c)` per step, `p` ascending, from `C0`.  Every
    /// sub-product's elements are this chain's leading rows and columns.
    fn advance_to(&mut self, k: usize) {
        assert!(self.k <= k && k <= self.depth);
        for p in self.k..k {
            for i in 0..self.rows {
                let aip = self.a[i * self.depth + p];
                let row = &mut self.chain[i * self.cols..][..self.cols];
                for (cv, &bpj) in row.iter_mut().zip(&self.b[p * self.cols..][..self.cols]) {
                    *cv = (self.step)(aip, bpj, *cv);
                }
            }
        }
        self.k = k;
    }

    /// Leading `rows x cols` block of a row-major buffer of leading
    /// dimension `ld`.
    fn block(src: &[f64], ld: usize, rows: usize, cols: usize) -> Vec<f64> {
        (0..rows)
            .flat_map(|i| src[i * ld..][..cols].iter().copied())
            .collect()
    }

    /// `A` of sub-products `(m, self.k, _)`, and `A` stored transposed.
    fn a_blocks(&self, m: usize) -> [Vec<f64>; 2] {
        let k = self.k;
        let a = Self::block(&self.a, self.depth, m, k);
        let at = (0..k)
            .flat_map(|p| a.iter().skip(p).step_by(k.max(1)).copied())
            .collect();
        [a, at]
    }

    /// `B`, `C0` and the oracle's result of sub-product `(m, self.k, n)`.
    fn bc_blocks(&self, m: usize, n: usize) -> [Vec<f64>; 3] {
        [
            Self::block(&self.b, self.cols, self.k, n),
            Self::block(&self.c0, self.cols, m, n),
            Self::block(&self.chain, self.cols, m, n),
        ]
    }
}

/// `gemm` and `gemm_tn` of sub-products `(m, fam.k, n)`, for every `n` in
/// `ns`, against the oracle, by `to_bits`.
fn assert_matches_chain(disp: KernelDispatch, fam: &Family, m: usize, ns: &[usize]) {
    let k = fam.k;
    let [a, at] = fam.a_blocks(m);
    for &n in ns {
        let [b, c0, want] = fam.bc_blocks(m, n);
        for trans in [false, true] {
            let mut c = c0.clone();
            if trans {
                disp.gemm_tn(&at, k, m, &b, n, &mut c);
            } else {
                disp.gemm(&a, m, k, &b, n, &mut c);
            }
            assert!(
                c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} {} at m={m} k={k} n={n} differs from its chain",
                disp.name(),
                if trans { "gemm_tn" } else { "gemm" }
            );
        }
    }
}

/// Every route of both arms against its chain: row counts around the
/// microkernel's 4-row tiles and the scalar loop's 64-row blocks, every
/// column remainder of the 8-column tiles, the executor's wide panels and
/// the scalar loop's 256-column blocks, depths around each arm's depth
/// blocking, and shapes on both sides of the AVX2 in-place / packed rule
/// (`k * n` against `KC * NC` in the first family, `m * k` against
/// `MC * KC` in the second).
#[test]
fn every_path_matches_its_chain() {
    let ns: Vec<usize> = (1..=17)
        .chain([183, 184, 192, 193, 255, 256, 257])
        .collect();
    for (disp, step, kc) in arms() {
        let mut fam = Family::new(65, 2 * kc + 1, 257, 11, step);
        for k in [0, 1, kc - 1, kc, kc + 1, 2 * kc + 1] {
            fam.advance_to(k);
            for m in [1usize, 3, 4, 5, 63, 64, 65] {
                assert_matches_chain(disp, &fam, m, &ns);
            }
        }
        let mut fam = Family::new(MC + 1, KC + 1, 17, 12, step);
        for k in [KC, KC + 1] {
            fam.advance_to(k);
            for m in [MC - 1, MC, MC + 1] {
                assert_matches_chain(disp, &fam, m, &[7, 8, 9, 17]);
            }
        }
    }
}

/// `par_gemm` / `par_gemm_tn` hand each row chunk the whole `A` at an offset
/// `i0`; at pool widths 1, 2 and 3 they must match the chain too.
#[test]
fn par_paths_match_the_chain_across_pool_widths() {
    for (disp, step, kc) in arms() {
        let (m, k) = (65usize, 2 * kc + 1);
        let mut fam = Family::new(m, k, 184, 90, step);
        fam.advance_to(k);
        let [a, at] = fam.a_blocks(m);
        for n in (1..=17).chain([184]) {
            let [b, c0, want] = fam.bc_blocks(m, n);
            for nt in [1usize, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(nt)
                    .build()
                    .unwrap();
                let (par, par_tn) = pool.install(|| {
                    let mut par = c0.clone();
                    disp.par_gemm(&a, m, k, &b, n, &mut par);
                    let mut par_tn = c0.clone();
                    disp.par_gemm_tn(&at, k, m, &b, n, &mut par_tn);
                    (par, par_tn)
                });
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let name = disp.name();
                assert_eq!(
                    bits(&par),
                    bits(&want),
                    "{name} par_gemm n={n} at {nt} threads"
                );
                assert_eq!(
                    bits(&par_tn),
                    bits(&want),
                    "{name} par_gemm_tn n={n} at {nt} threads"
                );
            }
        }
    }
}

/// The exhaustive sweep at the executor's block shapes (release CI step:
/// `cargo test --release -p matrox-linalg -- --ignored chain_oracle`):
/// every `(m, k)` in `1..=96` squared (across the scalar loop's 64-row
/// blocks), plus depths straddling each arm's depth blocking and twice it,
/// at every width `1..=17` and the executor's 184- and 256-column panels,
/// both forms, both arms.
#[test]
#[ignore = "exhaustive; run in release"]
fn chain_oracle_at_executor_shapes() {
    let ns: Vec<usize> = (1..=17).chain([184, 256]).collect();
    for (disp, step, kc) in arms() {
        let straddle = [kc - 1, kc, kc + 1, 2 * kc - 1, 2 * kc, 2 * kc + 1];
        let mut fam = Family::new(96, 2 * kc + 1, 256, 7, step);
        for k in (1..=96usize).chain(straddle) {
            fam.advance_to(k);
            for m in 1..=96usize {
                assert_matches_chain(disp, &fam, m, &ns);
            }
        }
    }
}
