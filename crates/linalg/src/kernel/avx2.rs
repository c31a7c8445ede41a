//! The AVX2 + FMA arm: the `Ymm` lane impl (four `f64` a `ymm` register),
//! the packed route and the narrow bodies only this arm has, its route rule,
//! and its trampolines.
//!
//! The core is the shared GEMM tile ([`lanes::tile`]) at [`MR`] x [`NR`] =
//! 4 x 8: 8 `ymm` accumulators, one broadcast and two `B` loads — 11 of 16
//! registers; 8 fused multiply-adds per depth step against 12 loaded
//! values.  It reads `A` through row pointers that advance by a column
//! stride and `B` through a row stride, so it serves both routes of
//! [`gemm_blocked`]:
//!
//! * **in place** ([`lanes::in_place`] on `Ymm`, 4-row tiles, then
//!   [`narrow_columns`] for the `n % NR` rest) — when the `A` block fits
//!   the packed-`A` buffer (`m * k <= MC * KC`) and `B` the packed-`B` one
//!   (`k * n <= KC * NC`), or when `n < NR`.  Every product the executor,
//!   the ULV factor and the solve issue: CDS blocks and RHS panels are small
//!   and contiguous, so copying them costs more than their strides do;
//! * **packed** ([`packed`]) — larger operands (the dense baseline, the
//!   256^3 probes), whose strided reads would alias L1 sets.
//!
//! # Bitwise-determinism contract
//!
//! Every output element is the tile's chain ([`lanes::tile`]): loaded from
//! `C`, `c = fma(a_ip, b_pj, c)` for `p` ascending, no zero-skipping,
//! stored.  The packed route's `KC`-blocking only inserts value-neutral
//! round trips through `C`, its edge tiles run against a zero-padded stack
//! tile whose padded lanes are discarded, and the narrow bodies run the
//! same chain per element, so a product's bits depend only on its logical
//! operands — not on the route, row chunking, column grouping or the block
//! sizes.
//!
//! # The instances
//!
//! Each body runs inside a `#[target_feature]` function of its own, which
//! makes the lane token and compiles the `#[inline(always)]` body at
//! 256-bit width: the in-place and packed routes, `dot`, `axpy` and the
//! distance driver ([`lanes::dist2`], two `ymm` a row) under `avx2` +
//! `fma`, and the QR and substitution bodies of `qr.rs` and `solve.rs`
//! under `avx2` alone ([`advance_qr`], [`substitute`]).  Those two form no
//! `fma` (Rust contracts nothing), so they run the scalar arm's chains and
//! return its bits.  (One generic runner that calls a closure inside the
//! features is not enough: the code generator did not inline every closure
//! into it, and a body left outside calls each intrinsic out of line — `dot`
//! ran 23–32× slower, the QR at the scalar arm's rate.)
#![cfg(target_arch = "x86_64")]
#![expect(
    unsafe_code,
    reason = "the Ymm lane impl calls AVX2 + FMA intrinsics, and a Ymm is made only by an avx2 + fma target_feature fn; the packed route's tile sweep writes C through raw pointers behind lanes::assert_operands, with pack-buffer lengths from the same (MC, KC, NC, MR, NR) the tile loops use; dot and axpy reslice y to x.len() and then touch only [0, x.len()) through pointers; gemm_blocked and the trampolines call target_feature fns, reached only behind simd_available() (DESIGN.md unsafe inventory)"
)]

use super::lanes::{self, lane_type, Lanes};
use super::pack::{pack_a, pack_a_trans, pack_b, packed_a_len, packed_b_len, KC, MC, MR, NC, NR};
use crate::matrix::Matrix;
use crate::qr::{QrStop, ResumableQr};
use crate::solve::Substitution;
use core::arch::x86_64::*;
use std::cell::RefCell;

lane_type! {
    /// The AVX2 + FMA lanes: four `f64` a `ymm` register.
    Ymm(__m256d, 4, "avx2,fma"): _mm256_setzero_pd, _mm256_set1_pd, _mm256_fmadd_pd,
    _mm256_loadu_pd, _mm256_storeu_pd,
    sub: _mm256_sub_pd, mul: _mm256_mul_pd, add: _mm256_add_pd
}

thread_local! {
    /// Per-thread packing scratch (`A` buffer, `B` buffer).  Sized by the
    /// block sizes on first use and reused for every subsequent
    /// packed product on the same thread, so steady-state GEMM calls
    /// allocate nothing.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Sweep the tile over one packed `mb x kb` A-block and `kb x nb` B-block,
/// updating `c[ic.., jc..]` (leading dimension `ldc`).  A partial tile is
/// staged through a zero-padded stack tile, so every *valid* element runs
/// the full tile's chain.
///
/// # Safety
/// `apack`/`bpack` must hold `packed_a_len(mb, kb)` / `packed_b_len(nb, kb)`
/// values; `c` must cover rows `[ic, ic + mb)` x columns `[jc, jc + nb)`.
#[inline(always)]
unsafe fn tile_sweep(
    l: Ymm,
    kb: usize,
    mb: usize,
    nb: usize,
    apack: &[f64],
    bpack: &[f64],
    c: &mut [f64],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    // SAFETY: panel `ti` of the packed A block starts at `ti * MR * kb`
    // (zero-padded to a whole panel by the packers, so full-panel reads stay
    // in bounds even when `mr < MR`); likewise `tj * NR * kb` for B.  The C
    // tile sits at row `ic + ti * MR`, column `jc + tj * NR`: a full tile
    // writes its `MR x NR` there, a partial one only its `mr x nr` valid
    // elements (through the stack tile, a full `MR x NR` at ld `NR`) — all
    // within the `[ic, ic + mb) x [jc, jc + nb)` region the fn contract covers.
    unsafe {
        for ti in 0..mb.div_ceil(MR) {
            let mr = MR.min(mb - ti * MR);
            let a = apack.as_ptr().add(ti * MR * kb);
            for tj in 0..nb.div_ceil(NR) {
                let nr = NR.min(nb - tj * NR);
                let b = bpack.as_ptr().add(tj * NR * kb);
                let ct = c.as_mut_ptr().add((ic + ti * MR) * ldc + jc + tj * NR);
                if mr == MR && nr == NR {
                    lanes::tile::<_, MR, 2>(l, kb, a, 1, MR, b, NR, ct, ldc);
                    continue;
                }
                let mut tile = [0.0f64; MR * NR];
                for i in 0..mr {
                    std::ptr::copy_nonoverlapping(ct.add(i * ldc), tile[i * NR..].as_mut_ptr(), nr);
                }
                lanes::tile::<_, MR, 2>(l, kb, a, 1, MR, b, NR, tile.as_mut_ptr(), NR);
                for i in 0..mr {
                    std::ptr::copy_nonoverlapping(tile[i * NR..].as_ptr(), ct.add(i * ldc), nr);
                }
            }
        }
    }
}

/// The packed route of [`gemm_blocked`] (same operand conventions, `m, k,
/// n >= 1`): `KC x NC` blocks of `B` and `MC x KC` blocks of `A` are copied
/// into the thread's pack buffers, then swept by the tile.
///
/// # Panics
/// Panics, before any raw-pointer access, if `a`, `b` or `c` is too short
/// ([`lanes::assert_operands`]).
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
fn packed(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    lanes::assert_operands(trans_a, a, lda, i0, m, k, b, n, c);
    let l = Ymm::new();
    PACK_BUFS.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let (abuf, bbuf) = &mut *bufs;
        let amax = packed_a_len(MC.min(m), KC.min(k));
        let bmax = packed_b_len(NC.min(n), KC.min(k));
        if abuf.len() < amax {
            abuf.resize(amax, 0.0);
        }
        if bbuf.len() < bmax {
            bbuf.resize(bmax, 0.0);
        }
        for jc in (0..n).step_by(NC) {
            let nb = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kb = KC.min(k - pc);
                pack_b(b, n, pc, kb, jc, nb, bbuf);
                for ic in (0..m).step_by(MC) {
                    let mb = MC.min(m - ic);
                    if trans_a {
                        pack_a_trans(a, lda, i0 + ic, mb, pc, kb, abuf);
                    } else {
                        pack_a(a, lda, i0 + ic, mb, pc, kb, abuf);
                    }
                    // SAFETY: the packed buffers were filled for exactly
                    // (mb, kb) / (nb, kb); c holds m x n (asserted above),
                    // so it covers rows [ic, ic+mb) x cols [jc, jc+nb) at
                    // leading dimension n.
                    unsafe { tile_sweep(l, kb, mb, nb, abuf, bbuf, c, n, ic, jc) }
                }
            }
        }
    });
}

/// The in-place route of [`gemm_blocked`] (same operand conventions): the
/// shared driver on `Ymm` in 4-row tiles over every whole 8-column panel,
/// then the `n % NR` remainder columns through [`narrow_columns`].  A
/// product with `n < NR` is the case with no whole panel.
///
/// # Panics
/// Panics, before any raw-pointer access, if `a`, `b` or `c` is too short
/// ([`lanes::assert_operands`]).
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
fn in_place(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    let n8 = lanes::in_place::<_, MR>(Ymm::new(), trans_a, a, lda, i0, m, k, b, n, c);
    narrow_columns(trans_a, a, lda, i0, m, k, b, n, c, n8);
}

/// The `n - n8 < NR` columns of `C += op(A) * B` from column `n8` on (none
/// when `n8 == n`), through [`narrow`] at leading dimensions `n`: the
/// column remainder of the in-place routes of both SIMD arms (`n8` is a
/// multiple of [`NR`]).  Every access is bounds-checked slice indexing.
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn narrow_columns(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
    n8: usize,
) {
    if n8 == n {
        return;
    }
    let (b, c) = (&b[n8..], &mut c[n8..]);
    match n - n8 {
        1 => narrow::<1>(trans_a, a, lda, i0, m, k, b, n, c, n),
        2 => narrow::<2>(trans_a, a, lda, i0, m, k, b, n, c, n),
        3 => narrow::<3>(trans_a, a, lda, i0, m, k, b, n, c, n),
        4 => narrow::<4>(trans_a, a, lda, i0, m, k, b, n, c, n),
        5 => narrow::<5>(trans_a, a, lda, i0, m, k, b, n, c, n),
        6 => narrow::<6>(trans_a, a, lda, i0, m, k, b, n, c, n),
        // n - n8 == 7: zero returned above, and n - n8 < NR.
        _ => narrow::<7>(trans_a, a, lda, i0, m, k, b, n, c, n),
    }
}

/// `C += op(A) * B` on `N < NR` columns of `B` (`k x N` at leading dimension
/// `ldb`) into `N` columns of `C` (`m x N` at `ldc`), with `A` as in
/// [`gemm_blocked`].  The in-place route's column remainder; a product
/// with `n < NR` is nothing else.
///
/// Every output element runs the tile's chain: loaded from `C`, then
/// `c = fma(a_ip, b_pj, c)` for `p` ascending over all of `k`, then stored
/// (a store after every `p` would be the same chain too).  `N` is a
/// constant so the accumulators are fixed-size arrays the compiler keeps in
/// registers.  Only the loop order differs by form, so that each stored
/// block is read once, in contiguous runs ([`narrow_nn`], [`narrow_tn`]).
/// Under `avx2` + `fma`, `f64::mul_add` lowers to `vfmadd` (without them it
/// is a libm call); every memory access is slice indexing.
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
// Out of line: inlined into `in_place` next to the tile instances, some
// widths ran up to 2x slower.
#[target_feature(enable = "avx2", enable = "fma")]
#[inline(never)]
fn narrow<const N: usize>(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    let b = &b[..(k - 1) * ldb + N];
    let c = &mut c[..(m - 1) * ldc + N];
    // A whole narrow product (contiguous `B` and `C`) gets its own instance:
    // exact `B` rows and a constant leading dimension of `C` let the compiler
    // vectorise across the rows of `C` (up to 1.4x faster at some widths).
    let exact = || b.chunks_exact(N);
    let strided = || b.chunks(ldb).map(|r| &r[..N]);
    match (trans_a, ldb == N && ldc == N) {
        (true, true) => narrow_tn::<N, _>(a, lda, i0, m, exact, c, N),
        (true, false) => narrow_tn::<N, _>(a, lda, i0, m, strided, c, ldc),
        (false, true) => narrow_nn::<N, _>(a, lda, i0, m, k, exact, c, N),
        (false, false) => narrow_nn::<N, _>(a, lda, i0, m, k, strided, c, ldc),
    }
}

/// NoTrans body of [`narrow`]: rows in groups of 4, each row of `A` read
/// contiguously, `4 * N` chains live across the whole depth; tail rows one
/// at a time.  `brows` yields the `k` rows of `B`, `N` values each.
/// `#[inline(always)]` puts it inside [`narrow`]'s `target_feature`
/// context.
#[inline(always)]
fn narrow_nn<'b, const N: usize, I: Iterator<Item = &'b [f64]>>(
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    brows: impl Fn() -> I,
    c: &mut [f64],
    ldc: usize,
) {
    let row = |i: usize| &a[(i0 + i) * lda..][..k];
    let mut i = 0;
    while i + 4 <= m {
        let cq = &mut c[i * ldc..][..3 * ldc + N];
        let mut acc: [[f64; N]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|j| cq[r * ldc + j]));
        let rows = row(i)
            .iter()
            .zip(row(i + 1))
            .zip(row(i + 2))
            .zip(row(i + 3));
        for ((((&x0, &x1), &x2), &x3), brow) in rows.zip(brows()) {
            for j in 0..N {
                acc[0][j] = x0.mul_add(brow[j], acc[0][j]);
                acc[1][j] = x1.mul_add(brow[j], acc[1][j]);
                acc[2][j] = x2.mul_add(brow[j], acc[2][j]);
                acc[3][j] = x3.mul_add(brow[j], acc[3][j]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            cq[r * ldc..][..N].copy_from_slice(accr);
        }
        i += 4;
    }
    for i in i..m {
        let crow = &mut c[i * ldc..][..N];
        let mut acc: [f64; N] = std::array::from_fn(|j| crow[j]);
        for (&x, brow) in row(i).iter().zip(brows()) {
            for j in 0..N {
                acc[j] = x.mul_add(brow[j], acc[j]);
            }
        }
        crow.copy_from_slice(&acc);
    }
}

/// Trans body of [`narrow`].  Row `p` of the stored `A` is contiguous
/// across the `m` outputs.  At `N = 1` with a contiguous `C` the outer loop
/// is `p` (an axpy per row, `C` a few KB in L1); otherwise outputs go in
/// groups of 8 whose `8 * N` chains live across the depth, each reading 8
/// contiguous values of every row `p` (a per-`p` store of `m x N` would
/// cost more than it streams); tail outputs one at a time.  `brows` yields
/// the `k` rows of `B`, `N` values each.  `#[inline(always)]` puts it
/// inside [`narrow`]'s `target_feature` context.
#[inline(always)]
fn narrow_tn<'b, const N: usize, I: Iterator<Item = &'b [f64]>>(
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    brows: impl Fn() -> I,
    c: &mut [f64],
    ldc: usize,
) {
    if N == 1 && ldc == 1 {
        for (p, brow) in brows().enumerate() {
            for (cv, &x) in c.iter_mut().zip(&a[p * lda + i0..][..m]) {
                *cv = x.mul_add(brow[0], *cv);
            }
        }
        return;
    }
    let mut i = 0;
    while i + 8 <= m {
        let co = &mut c[i * ldc..][..7 * ldc + N];
        let mut acc: [[f64; N]; 8] =
            std::array::from_fn(|r| std::array::from_fn(|j| co[r * ldc + j]));
        for (p, brow) in brows().enumerate() {
            let xs = &a[p * lda + i0 + i..][..8];
            for (accr, &x) in acc.iter_mut().zip(xs) {
                for j in 0..N {
                    accr[j] = x.mul_add(brow[j], accr[j]);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            co[r * ldc..][..N].copy_from_slice(accr);
        }
        i += 8;
    }
    for i in i..m {
        let crow = &mut c[i * ldc..][..N];
        let mut acc: [f64; N] = std::array::from_fn(|j| crow[j]);
        for (p, brow) in brows().enumerate() {
            let x = a[p * lda + i0 + i];
            for j in 0..N {
                acc[j] = x.mul_add(brow[j], acc[j]);
            }
        }
        crow.copy_from_slice(&acc);
    }
}

// `narrow_columns`'s `match n - n8` has one arm per narrow width below `NR`,
// and the 4 x 8 tile is `MR` rows by two four-lane vectors.
const _: () = assert!(NR == 8 && MR == 4);

/// Whether [`gemm_blocked`] reads the operands in place: the product has no
/// full 8-column tile, or both blocks fit the pack buffers they would be
/// copied into (`m * k <= MC * KC`, `k * n <= KC * NC`).
pub(super) fn reads_in_place(m: usize, k: usize, n: usize) -> bool {
    let fits = |rows: usize, block: usize| rows.saturating_mul(k) <= block * KC;
    n < NR || (fits(m, MC) && fits(n, NC))
}

/// Cache-blocked `C += op(A) * B` over raw row-major slices through the
/// 4x8 tile, in place or packed (see the module docs).
///
/// * `trans_a = false`: `A` is `m x k` row-major with leading dimension
///   `lda` and the product reads logical rows `[i0, i0 + m)` (so a parallel
///   caller can hand each row chunk the full `a` slice).
/// * `trans_a = true`: `A` is stored `k x lda` row-major and the product
///   uses columns `[i0, i0 + m)` of it as the rows of `A^T`.
///
/// `b` is `k x n` row-major, `c` is `m x n` row-major (the chunk's own
/// rows).  Caller guarantees the `avx2`/`fma` features are present (checked
/// once at dispatch resolution).
///
/// # Panics
/// Panics, before any raw-pointer access, if `a`, `b` or `c` is too short
/// for the last element the product touches in it.
pub fn gemm_blocked(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // SAFETY: dispatch resolution verified avx2+fma (`simd_available()`)
    // before any dispatch could reach this function; both routes assert
    // their operands' bounds themselves.
    unsafe {
        if reads_in_place(m, k, n) {
            in_place(trans_a, a, lda, i0, m, k, b, n, c);
        } else {
            packed(trans_a, a, lda, i0, m, k, b, n, c);
        }
    }
}

/// AVX2 dot product: four independent 4-lane accumulators over 16-element
/// strides, then a 4-element stride into the first, then a fixed-order
/// horizontal reduction, then an fma tail.  The summation tree depends only
/// on `x.len()`, so the result is deterministic for a given input length.
///
/// Caller guarantees `avx2`/`fma` (checked at dispatch resolution) and
/// `x.len() == y.len()`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: dispatch resolution verified avx2+fma before any dispatch
    // could reach this function; the instance is safe code.
    unsafe { dot_instance(x, y) }
}

/// [`dot`]'s body, compiled for `avx2` + `fma`.
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
fn dot_instance(x: &[f64], y: &[f64]) -> f64 {
    let (l, n, y) = (Ymm::new(), x.len(), &y[..x.len()]);
    let (xp, yp) = (x.as_ptr(), y.as_ptr());
    // Pointer loops, as `axpy`'s (a chunk walk cost the short rows).
    // SAFETY: every load reads `[i, i + 4)` with `i + 4 <= n` (or
    // `[i, i + 16)` with `i + 16 <= n`) and the tail `i < n`, inside `x`
    // and `y` (`n` values each).
    unsafe {
        let mut acc = [l.zero(); 4];
        let mut i = 0;
        while i + 16 <= n {
            for (v, a) in acc.iter_mut().enumerate() {
                *a = l.fma(l.load(xp.add(i + 4 * v)), l.load(yp.add(i + 4 * v)), *a);
            }
            i += 16;
        }
        while i + 4 <= n {
            acc[0] = l.fma(l.load(xp.add(i)), l.load(yp.add(i)), acc[0]);
            i += 4;
        }
        let v = l.add(l.add(acc[0], acc[1]), l.add(acc[2], acc[3]));
        let mut lanes = [0.0f64; 4];
        l.put(&mut lanes, v);
        let mut s = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
        while i < n {
            s = (*xp.add(i)).mul_add(*yp.add(i), s);
            i += 1;
        }
        s
    }
}

/// AVX2 `y += alpha * x` (element-wise fma).  Caller guarantees
/// `avx2`/`fma` and `x.len() == y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: dispatch resolution verified avx2+fma before any dispatch
    // could reach this function; the instance is safe code.
    unsafe { axpy_instance(alpha, x, y) }
}

/// [`axpy`]'s body, compiled for `avx2` + `fma`.
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
fn axpy_instance(alpha: f64, x: &[f64], y: &mut [f64]) {
    let l = Ymm::new();
    let (n, av) = (x.len(), l.splat(alpha));
    let y = &mut y[..n];
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    // Pointer loops: a chunk walk's bounds and its remainder's masked moves
    // made the LU's short rows slower (EXPERIMENTS.md).
    // SAFETY: the vector loads / stores cover `[i, i + 4)` with
    // `i + 4 <= n`, the tail `i < n`, inside `x` and `y` (`n` values each);
    // `x` and `y` are distinct borrows, so a store never aliases a load.
    unsafe {
        let mut i = 0;
        while i + 4 <= n {
            l.store(yp.add(i), l.fma(av, l.load(xp.add(i)), l.load(yp.add(i))));
            i += 4;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// The AVX2 distance arm ([`super::dist`]): the shared driver
/// ([`lanes::dist2`]) at two `ymm` a row — bitwise the scalar arm's.
/// Caller guarantees `avx2` + `fma` (checked once at dispatch resolution).
///
/// # Panics
/// Panics, before any raw-pointer access, if an operand does not hold what
/// [`super::dist::assert_operands`] checks.
pub fn dist2(
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &mut [f64],
    ldo: usize,
) {
    // SAFETY: dispatch resolution verified avx2+fma before any dispatch
    // could reach this function; the driver asserts its operands.
    unsafe { dist2_instance(coords, dim, rows, panels, n, out, ldo) }
}

/// [`dist2`]'s body, compiled for `avx2` + `fma`.
///
/// # Safety
/// Callable only where the CPU has `avx2` and `fma`.
#[target_feature(enable = "avx2", enable = "fma")]
fn dist2_instance(
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &mut [f64],
    ldo: usize,
) {
    lanes::dist2::<_, 2>(Ymm::new(), coords, dim, rows, panels, n, out, ldo);
}

/// The one-pass pivoted QR's steps ([`crate::qr`], [`ResumableQr::advance`]) compiled for AVX2: the scalar
/// arm's bits.  Caller guarantees avx2 + fma (checked once at dispatch
/// resolution).
pub fn advance_qr(qr: &mut ResumableQr, tol: f64, max_rank: usize) -> QrStop {
    // SAFETY: dispatch resolution verified avx2+fma before any dispatch
    // could reach this function; the instance itself is safe code.
    unsafe { advance_qr_instance(qr, tol, max_rank) }
}

/// The QR steps' instance: safe code throughout.
///
/// # Safety
/// Callable only where the CPU has `avx2` (the trampoline's dispatch
/// checked it).  No `fma`, so nothing can be contracted.
#[target_feature(enable = "avx2")]
fn advance_qr_instance(qr: &mut ResumableQr, tol: f64, max_rank: usize) -> QrStop {
    qr.advance_body(tol, max_rank)
}

/// The triangular substitutions ([`crate::solve`]) compiled for AVX2: the
/// scalar arm's bits.  Caller guarantees avx2 + fma (checked once at
/// dispatch resolution).
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
pub fn substitute(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    // SAFETY: dispatch resolution verified avx2+fma before any dispatch
    // could reach this function; the instance itself is safe code.
    unsafe { substitute_instance(kind, t, k, x, q) }
}

/// The substitution body's instance: safe code throughout.
///
/// # Safety
/// Callable only where the CPU has `avx2` (the trampoline's dispatch
/// checked it).  No `fma`, so nothing can be contracted.
#[target_feature(enable = "avx2")]
fn substitute_instance(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    crate::solve::substitute(kind, t, k, x, q);
}
