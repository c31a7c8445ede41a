//! AVX2 + FMA GEMM paths: the packed 4x8 microkernel, and an unpacked
//! narrow arm for products with fewer than [`NR`] right-hand-side columns.
//!
//! The computational core is a 4x8 register tile ([`pack::MR`] x
//! [`pack::NR`]): 8 `ymm` accumulators (4 rows x 2 four-lane column
//! vectors), one broadcast register for `A` and two load registers for `B` —
//! 11 of the 16 architectural `ymm` registers, leaving slack for the
//! address arithmetic.  Per iteration of the depth loop the kernel issues 8
//! fused multiply-adds on 4-lane `f64` vectors, i.e. 32 flops against 12
//! loaded values, which is what moves a dense product from memory-bound to
//! FMA-port-bound.
//!
//! # Bitwise-determinism contract
//!
//! Every output element accumulates as a single chain of
//! `c = fma(a_ip, b_pj, c)` operations with `p` strictly ascending in
//! storage order:
//!
//! * the accumulators are **loaded from `C`** before the depth loop and
//!   stored back after it, so `kc`-blocking by the caller merely inserts
//!   value-neutral memory round-trips into the chain;
//! * edge tiles (`m % MR != 0`, `n % NR != 0`) run the **same full-width
//!   microkernel** against a zero-padded stack tile; padded lanes are
//!   discarded, real lanes see the identical fma chain;
//! * there is **no zero-skipping** (the scalar kernel's `a == 0` shortcut
//!   cannot be applied per-lane), so the chain's shape depends only on `kc`;
//! * products with `n < NR` columns run **unpacked** ([`narrow`]): no pack
//!   buffer and no zero padding, each stored block streamed once, row by
//!   row, with the same load-`C`, `p`-ascending fma, store chain per
//!   element.  A 1-column product would otherwise pay 8 FMAs per useful
//!   one and copy every `A` block before reading it.
//!
//! Consequently the result of a product depends only on the logical
//! operands and the depth `k` — not on row chunking (thread count), column
//! grouping (RHS panel width), or the cache-derived `mc`/`nc` blocking.
#![cfg(target_arch = "x86_64")]
#![expect(
    unsafe_code,
    reason = "packed 4x8 AVX2+FMA microkernel on raw-pointer tiles: pack-buffer lengths come from the same (mc, kc, nc, MR, NR) the tile loops use; the narrow arm indexes slices; the target_feature fns are reached only behind simd_available() (DESIGN.md unsafe inventory)"
)]

use super::pack::{pack_a, pack_a_trans, pack_b, packed_a_len, packed_b_len, MR, NR};
use super::params::GemmBlocking;
use core::arch::x86_64::*;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing scratch (`A` buffer, `B` buffer).  Sized by the
    /// blocking parameters on first use and reused for every subsequent
    /// product on the same thread, so steady-state GEMM calls allocate
    /// nothing.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The 4x8 microkernel: `C[0..4, 0..8] = fma-chain over the packed panels`.
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features.  `a` must point to `kc * MR`
/// packed-A values, `b` to `kc * NR` packed-B values, and `c` to a tile with
/// 4 rows of 8 `f64`s at leading dimension `ldc` (all rows fully in bounds).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mkernel_4x8(kc: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
    // SAFETY: per the fn contract every pointer access below is in bounds —
    // `a` strides `p * MR + i` with `p < kc`, `i < MR` (a packed panel of
    // exactly `kc * MR` values), `b` strides `p * NR + {0,4}` within
    // `kc * NR`, and `c` is accessed at `i * ldc + {0..8}` with all four
    // rows fully in bounds.  Loads/stores are `loadu`/`storeu`, so no
    // alignment requirement beyond `f64`'s.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_pd(c.add(i * ldc));
            row[1] = _mm256_loadu_pd(c.add(i * ldc + 4));
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_pd(b.add(p * NR));
            let b1 = _mm256_loadu_pd(b.add(p * NR + 4));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*a.add(p * MR + i));
                row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
                row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
            }
        }
        for (i, row) in acc.iter().enumerate() {
            _mm256_storeu_pd(c.add(i * ldc), row[0]);
            _mm256_storeu_pd(c.add(i * ldc + 4), row[1]);
        }
    }
}

/// Run the microkernel on a possibly partial tile (`mr_eff x nr_eff` valid
/// elements).  Partial tiles are staged through a zero-padded stack tile so
/// the fma chain of every *valid* element is identical to the full-tile
/// path (see the module docs).
///
/// # Safety
/// Same as [`mkernel_4x8`], except `c` only needs `mr_eff` rows x `nr_eff`
/// columns in bounds.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mkernel_tile(
    kc: usize,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    if mr_eff == MR && nr_eff == NR {
        // SAFETY: full tile — the fn contract is exactly `mkernel_4x8`'s.
        unsafe { mkernel_4x8(kc, a, b, c, ldc) };
        return;
    }
    let mut tile = [0.0f64; MR * NR];
    // SAFETY: partial tile — only the `mr_eff x nr_eff` valid elements of
    // `c` are touched (in bounds per the fn contract); the microkernel runs
    // against the stack tile, which is a full `MR x NR` at ld `NR`.
    unsafe {
        for i in 0..mr_eff {
            for j in 0..nr_eff {
                tile[i * NR + j] = *c.add(i * ldc + j);
            }
        }
        mkernel_4x8(kc, a, b, tile.as_mut_ptr(), NR);
        for i in 0..mr_eff {
            for j in 0..nr_eff {
                *c.add(i * ldc + j) = tile[i * NR + j];
            }
        }
    }
}

/// Sweep the microkernel over one packed `mb x kb` A-block and `kb x nb`
/// B-block, updating `c[ic.., jc..]` (leading dimension `ldc`).
///
/// # Safety
/// Requires `avx2`/`fma`; `apack`/`bpack` must hold `packed_a_len(mb, kb)` /
/// `packed_b_len(nb, kb)` values; `c` must cover rows `[ic, ic + mb)` x
/// columns `[jc, jc + nb)`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_sweep(
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
    // in bounds even when `mr_eff < MR`); likewise `tj * NR * kb` for B.
    // The C tile pointer sits at row `ic + ti*MR`, col `jc + tj*NR`, and
    // `mkernel_tile` only touches its `mr_eff x nr_eff` valid elements —
    // within the `[ic, ic+mb) x [jc, jc+nb)` region the fn contract covers.
    unsafe {
        for ti in 0..mb.div_ceil(MR) {
            let mr_eff = MR.min(mb - ti * MR);
            let apanel = apack.as_ptr().add(ti * MR * kb);
            for tj in 0..nb.div_ceil(NR) {
                let nr_eff = NR.min(nb - tj * NR);
                let bpanel = bpack.as_ptr().add(tj * NR * kb);
                let ctile = c.as_mut_ptr().add((ic + ti * MR) * ldc + jc + tj * NR);
                mkernel_tile(kb, apanel, bpanel, ctile, ldc, mr_eff, nr_eff);
            }
        }
    }
}

/// Unpacked `C += op(A) * B` for `N < NR` right-hand-side columns, with the
/// operand conventions of [`gemm_blocked`] (`b` is `k x N`, `c` is `m x N`).
///
/// Every output element runs the packed microkernel's chain: loaded from
/// `C`, then `c = fma(a_ip, b_pj, c)` for `p` ascending over all of `k`,
/// then stored (the packed path's `kc` split only inserts value-neutral
/// stores, so one pass is the same chain, and so is a store after every
/// `p`).  `N` is a constant so the accumulators are fixed-size arrays the
/// compiler keeps in registers.  Only the loop order differs by form, so
/// that each stored block is read once, in contiguous runs ([`narrow_nn`],
/// [`narrow_tn`]).
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features: under them `f64::mul_add`
/// lowers to `vfmadd` (without them it is a libm call).  Every memory access
/// is safe slice indexing.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn narrow<const N: usize>(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    c: &mut [f64],
) {
    let b = &b[..k * N];
    let c = &mut c[..m * N];
    if trans_a {
        narrow_tn::<N>(a, lda, i0, m, b, c);
    } else {
        narrow_nn::<N>(a, lda, i0, k, b, c);
    }
}

/// NoTrans body of [`narrow`]: rows in groups of 4, each row of `A` read
/// contiguously, `4 * N` chains live across the whole depth; tail rows one
/// at a time.  `#[inline(always)]` puts it inside [`narrow`]'s
/// `target_feature` context.
#[inline(always)]
fn narrow_nn<const N: usize>(a: &[f64], lda: usize, i0: usize, k: usize, b: &[f64], c: &mut [f64]) {
    let row = |i: usize| &a[(i0 + i) * lda..][..k];
    let mut quads = c.chunks_exact_mut(4 * N);
    let mut i = 0;
    for cq in quads.by_ref() {
        let mut acc: [[f64; N]; 4] =
            std::array::from_fn(|r| std::array::from_fn(|j| cq[r * N + j]));
        let rows = row(i)
            .iter()
            .zip(row(i + 1))
            .zip(row(i + 2))
            .zip(row(i + 3));
        for ((((&x0, &x1), &x2), &x3), brow) in rows.zip(b.chunks_exact(N)) {
            for j in 0..N {
                acc[0][j] = x0.mul_add(brow[j], acc[0][j]);
                acc[1][j] = x1.mul_add(brow[j], acc[1][j]);
                acc[2][j] = x2.mul_add(brow[j], acc[2][j]);
                acc[3][j] = x3.mul_add(brow[j], acc[3][j]);
            }
        }
        for (crow, accr) in cq.chunks_exact_mut(N).zip(&acc) {
            crow.copy_from_slice(accr);
        }
        i += 4;
    }
    for crow in quads.into_remainder().chunks_exact_mut(N) {
        let mut acc: [f64; N] = std::array::from_fn(|j| crow[j]);
        for (&x, brow) in row(i).iter().zip(b.chunks_exact(N)) {
            for j in 0..N {
                acc[j] = x.mul_add(brow[j], acc[j]);
            }
        }
        crow.copy_from_slice(&acc);
        i += 1;
    }
}

/// Trans body of [`narrow`].  Row `p` of the stored `A` is contiguous
/// across the `m` outputs.  At `N = 1` the outer loop is `p` (an axpy per
/// row, `C` a few KB in L1); wider, outputs go in groups of 8 whose `8 * N`
/// chains live across the depth, each reading 8 contiguous values of every
/// row `p` (a per-`p` store of `m x N` would cost more than it streams);
/// tail outputs one at a time.  `#[inline(always)]` puts it inside
/// [`narrow`]'s `target_feature` context.
#[inline(always)]
fn narrow_tn<const N: usize>(a: &[f64], lda: usize, i0: usize, m: usize, b: &[f64], c: &mut [f64]) {
    if N == 1 {
        for (p, &bp) in b.iter().enumerate() {
            for (cv, &x) in c.iter_mut().zip(&a[p * lda + i0..][..m]) {
                *cv = x.mul_add(bp, *cv);
            }
        }
        return;
    }
    let mut octs = c.chunks_exact_mut(8 * N);
    let mut i = i0;
    for co in octs.by_ref() {
        let mut acc: [[f64; N]; 8] =
            std::array::from_fn(|r| std::array::from_fn(|j| co[r * N + j]));
        for (p, brow) in b.chunks_exact(N).enumerate() {
            let xs = &a[p * lda + i..][..8];
            for (accr, &x) in acc.iter_mut().zip(xs) {
                for j in 0..N {
                    accr[j] = x.mul_add(brow[j], accr[j]);
                }
            }
        }
        for (crow, accr) in co.chunks_exact_mut(N).zip(&acc) {
            crow.copy_from_slice(accr);
        }
        i += 8;
    }
    for crow in octs.into_remainder().chunks_exact_mut(N) {
        let mut acc: [f64; N] = std::array::from_fn(|j| crow[j]);
        for (p, brow) in b.chunks_exact(N).enumerate() {
            let x = a[p * lda + i];
            for j in 0..N {
                acc[j] = x.mul_add(brow[j], acc[j]);
            }
        }
        crow.copy_from_slice(&acc);
        i += 1;
    }
}

// `gemm_blocked`'s `match n` has one arm per narrow width below `NR`.
const _: () = assert!(NR == 8);

/// Cache-blocked `C += op(A) * B` over raw row-major slices: packed through
/// the 4x8 microkernel for `n >= NR`, unpacked through [`narrow`] for
/// `n < NR`.
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
pub fn gemm_blocked(
    blk: GemmBlocking,
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
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n < NR {
        // SAFETY: `narrow` needs only avx2+fma, which dispatch resolution
        // verified (`simd_available()`) before any dispatch could reach
        // this function; its accesses are bounds-checked slice indexing.
        unsafe {
            match n {
                1 => narrow::<1>(trans_a, a, lda, i0, m, k, b, c),
                2 => narrow::<2>(trans_a, a, lda, i0, m, k, b, c),
                3 => narrow::<3>(trans_a, a, lda, i0, m, k, b, c),
                4 => narrow::<4>(trans_a, a, lda, i0, m, k, b, c),
                5 => narrow::<5>(trans_a, a, lda, i0, m, k, b, c),
                6 => narrow::<6>(trans_a, a, lda, i0, m, k, b, c),
                // n == 7: zero returned above, and n < NR.
                _ => narrow::<7>(trans_a, a, lda, i0, m, k, b, c),
            }
        }
        return;
    }
    PACK_BUFS.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let (abuf, bbuf) = &mut *bufs;
        let amax = packed_a_len(blk.mc.min(m), blk.kc.min(k));
        let bmax = packed_b_len(blk.nc.min(n), blk.kc.min(k));
        if abuf.len() < amax {
            abuf.resize(amax, 0.0);
        }
        if bbuf.len() < bmax {
            bbuf.resize(bmax, 0.0);
        }
        for jc in (0..n).step_by(blk.nc) {
            let nb = blk.nc.min(n - jc);
            for pc in (0..k).step_by(blk.kc) {
                let kb = blk.kc.min(k - pc);
                pack_b(b, n, pc, kb, jc, nb, bbuf);
                for ic in (0..m).step_by(blk.mc) {
                    let mb = blk.mc.min(m - ic);
                    if trans_a {
                        pack_a_trans(a, lda, i0 + ic, mb, pc, kb, abuf);
                    } else {
                        pack_a(a, lda, i0 + ic, mb, pc, kb, abuf);
                    }
                    // SAFETY: dispatch resolution verified avx2+fma; the
                    // packed buffers were filled for exactly (mb, kb) /
                    // (nb, kb); c covers rows [ic, ic+mb) x cols [jc, jc+nb)
                    // at leading dimension n.
                    unsafe { tile_sweep(kb, mb, nb, abuf, bbuf, c, n, ic, jc) }
                }
            }
        }
    });
}

/// AVX2 dot product: four independent 4-lane accumulators over 16-element
/// strides, then a fixed-order horizontal reduction, then an fma tail.  The
/// summation tree depends only on `x.len()`, so the result is deterministic
/// for a given input length.
///
/// Caller guarantees `avx2`/`fma` (checked at dispatch resolution) and
/// `x.len() == y.len()`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: feature presence is the dispatch's invariant; slices are
    // equal-length and all loads below stay in bounds.
    unsafe { dot_inner(x, y) }
}

/// # Safety
/// Requires the `avx2`/`fma` CPU features and `x.len() == y.len()` (the
/// safe wrapper [`dot`] checks the latter and dispatch resolution the
/// former).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_inner(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    // SAFETY: every load below reads `[i, i + 4)` with `i + 4 <= n` (or
    // `[i, i + 16)` with `i + 16 <= n`), inside both equal-length slices;
    // the scalar tail dereferences `i < n` one element at a time.
    unsafe {
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut i = 0;
        while i + 16 <= n {
            for (lane, a) in acc.iter_mut().enumerate() {
                let xv = _mm256_loadu_pd(xp.add(i + 4 * lane));
                let yv = _mm256_loadu_pd(yp.add(i + 4 * lane));
                *a = _mm256_fmadd_pd(xv, yv, *a);
            }
            i += 16;
        }
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            acc[0] = _mm256_fmadd_pd(xv, yv, acc[0]);
            i += 4;
        }
        let v = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
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
    // SAFETY: feature presence is the dispatch's invariant; loads/stores
    // stay within the equal-length slices.
    unsafe { axpy_inner(alpha, x, y) }
}

/// # Safety
/// Requires the `avx2`/`fma` CPU features and `x.len() == y.len()` (the
/// safe wrapper [`axpy`] checks the latter and dispatch resolution the
/// former).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    // SAFETY: vector loads/stores cover `[i, i + 4)` with `i + 4 <= n`,
    // the scalar tail `i < n` — all inside the equal-length slices; `x`
    // and `y` are distinct borrows, so the store never aliases the load.
    unsafe {
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(av, xv, yv));
            i += 4;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}
