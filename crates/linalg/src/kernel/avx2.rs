//! AVX2 + FMA GEMM paths: one 4x8 microkernel, run on the operands where
//! they lie whenever they fit in cache, and on packed copies otherwise.
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
//! [`mkernel_4x8`] reads `A` through row pointers that each advance by a
//! column stride and `B` through a row stride, so the same function serves
//! both layouts:
//!
//! * **in place** ([`in_place`]) — when the `A` block fits the packed-`A`
//!   buffer (`m * k <= MC * KC`) and `B` fits the packed-`B` one
//!   (`k * n <= KC * NC`), or when `n < NR` (no full tile to pack for).
//!   Every product the executor, the ULV factor and the solve issue takes
//!   this route: CDS blocks and RHS panels are already small and
//!   contiguous, so copying them costs more than their strides do;
//! * **packed** ([`packed`]) — larger operands (the dense baseline, the
//!   256^3 probes), whose strided reads would alias L1 sets.
//!
//! # Bitwise-determinism contract
//!
//! Every output element accumulates as a single chain of
//! `c = fma(a_ip, b_pj, c)` operations with `p` strictly ascending in
//! storage order:
//!
//! * the accumulators are **loaded from `C`** before the depth loop and
//!   stored back after it, so `KC`-blocking by the packed path merely
//!   inserts value-neutral memory round-trips into the chain, and the
//!   in-place route's single pass over `k` is the same chain;
//! * in place, row remainders (`m % MR`) run fewer-row instances of the
//!   same microkernel and column remainders (`n % NR`) run [`narrow`],
//!   whose per-element chain is the microkernel's; packed, edge tiles run
//!   the full microkernel against a zero-padded stack tile whose padded
//!   lanes are discarded;
//! * there is **no zero-skipping** (the scalar kernel's `a == 0` shortcut
//!   cannot be applied per-lane), so the chain's shape depends only on `k`.
//!
//! Consequently the result of a product depends only on the logical
//! operands and the depth `k` — not on the route, row chunking (thread
//! count), column grouping (RHS panel width), or the block sizes
//! `MC` / `KC` / `NC`.
#![cfg(target_arch = "x86_64")]
#![expect(
    unsafe_code,
    reason = "4x8 AVX2+FMA microkernel on raw-pointer tiles, in place or packed: gemm_blocked asserts in release that the last element every access pattern touches lies inside its slice, pack-buffer lengths come from the same (MC, KC, NC, MR, NR) the tile loops use, and the narrow bodies index slices; the target_feature fns are reached only behind simd_available() (DESIGN.md unsafe inventory)"
)]

use super::pack::{pack_a, pack_a_trans, pack_b, packed_a_len, packed_b_len, KC, MC, MR, NC, NR};
use core::arch::x86_64::*;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing scratch (`A` buffer, `B` buffer).  Sized by the
    /// block sizes on first use and reused for every subsequent
    /// packed product on the same thread, so steady-state GEMM calls
    /// allocate nothing.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The microkernel: `C[0..R, 0..8] = fma-chain over p in 0..k`, `R <= MR`.
///
/// Row `i` of `A` is read at `a + i * rs_a`, advancing by `cs_a` per depth
/// step; row `p` of `B` at `b + p * ldb`; row `i` of `C` at `c + i * ldc`.
/// Packed `A` is `(rs_a, cs_a) = (1, MR)` and packed `B` has `ldb = NR`;
/// in place, NoTrans `A` is `(lda, 1)`, TN `A` is `(1, lda)` and
/// `ldb = n`.  Fewer rows than [`MR`] run the same chain on fewer
/// accumulators.
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features.  For every `i < R` and
/// `p < k`, `a + i * rs_a + p * cs_a` must be readable, `b + p * ldb + j`
/// readable for `j < NR`, and `c + i * ldc + j` readable and writable for
/// `j < NR`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mkernel_4x8<const R: usize>(
    k: usize,
    a: *const f64,
    rs_a: usize,
    cs_a: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
) {
    // SAFETY: every access below is one the fn contract lists — `a` at
    // `i * rs_a + p * cs_a`, `b` at `p * ldb + {0..8}` and `c` at
    // `i * ldc + {0..8}` with `i < R`, `p < k`.  Loads/stores are
    // `loadu`/`storeu`, so no alignment requirement beyond `f64`'s.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; R];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_pd(c.add(i * ldc));
            row[1] = _mm256_loadu_pd(c.add(i * ldc + 4));
        }
        for p in 0..k {
            let b0 = _mm256_loadu_pd(b.add(p * ldb));
            let b1 = _mm256_loadu_pd(b.add(p * ldb + 4));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*a.add(i * rs_a + p * cs_a));
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

/// Run the microkernel on one packed tile with `mr_eff x nr_eff` valid
/// elements.  Partial tiles are staged through a zero-padded stack tile so
/// the fma chain of every *valid* element is identical to the full-tile
/// path (see the module docs).
///
/// # Safety
/// Requires `avx2`/`fma`; `a` must point to `kc * MR` packed-A values, `b`
/// to `kc * NR` packed-B values, and `c` to `mr_eff` rows x `nr_eff`
/// columns in bounds at leading dimension `ldc`.
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
        // SAFETY: full tile — `MR` packed rows at `(1, MR)`, `kc` packed
        // `B` rows of `NR` at `ldb = NR`, and `MR x NR` of `c` in bounds.
        unsafe { mkernel_4x8::<MR>(kc, a, 1, MR, b, NR, c, ldc) };
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
        mkernel_4x8::<MR>(kc, a, 1, MR, b, NR, tile.as_mut_ptr(), NR);
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

/// The packed route of [`gemm_blocked`] (same operand conventions):
/// `KC x NC` blocks of `B` and `MC x KC` blocks of `A` are copied into the
/// thread's pack buffers, then swept by the microkernel.
///
/// # Safety
/// Requires `avx2`/`fma`; `c` must hold `m * n` values (the packers index
/// `a` and `b` as slices).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn packed(
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
                    // SAFETY: avx2+fma per the fn contract; the packed
                    // buffers were filled for exactly (mb, kb) / (nb, kb);
                    // c holds m x n, so it covers rows [ic, ic+mb) x cols
                    // [jc, jc+nb) at leading dimension n.
                    unsafe { tile_sweep(kb, mb, nb, abuf, bbuf, c, n, ic, jc) }
                }
            }
        }
    });
}

/// The in-place route of [`gemm_blocked`] (same operand conventions): the
/// microkernel reads `A`, `B` and `C` where they lie.  Full 8-column tiles
/// run column tile by column tile, every row quad under it, then the
/// `m % MR` remainder rows through a fewer-row instance; the `n % NR`
/// remainder columns run [`narrow`] at leading dimensions `n`.  A product
/// with `n < NR` is the case with no full tile.
///
/// # Safety
/// Requires `avx2`/`fma`, `m, k >= 1`, `b.len() >= k * n`,
/// `c.len() >= m * n`, and `a` holding the last element the form reads:
/// `(i0 + m - 1) * lda + k - 1` (NoTrans) or `(k - 1) * lda + i0 + m - 1`
/// (TN).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn in_place(
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
    // Offset of element (0, 0) of op(A), and its row / column strides.
    let (a00, rs, cs) = if trans_a {
        (i0, 1, lda)
    } else {
        (i0 * lda, lda, 1)
    };
    let m4 = m - m % MR;
    let n8 = n - n % NR;
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    for j in (0..n8).step_by(NR) {
        // SAFETY: avx2+fma per the fn contract.  The tile at rows
        // `[i, i + R)`, columns `[j, j + NR)` reads `A` up to
        // `a00 + (i + R - 1) * rs + (k - 1) * cs`, at most the last `A`
        // element of the fn contract (`i + R <= m`); `B` up to
        // `(k - 1) * n + j + NR - 1 < k * n` (`j + NR <= n8 <= n`); and `C`
        // up to `(i + R - 1) * n + j + NR - 1 < m * n`.
        unsafe {
            for i in (0..m4).step_by(MR) {
                let (at, ct) = (ap.add(a00 + i * rs), cp.add(i * n + j));
                mkernel_4x8::<MR>(k, at, rs, cs, bp.add(j), n, ct, n);
            }
            if m4 < m {
                let (at, ct) = (ap.add(a00 + m4 * rs), cp.add(m4 * n + j));
                match m - m4 {
                    1 => mkernel_4x8::<1>(k, at, rs, cs, bp.add(j), n, ct, n),
                    2 => mkernel_4x8::<2>(k, at, rs, cs, bp.add(j), n, ct, n),
                    // m - m4 == 3: m4 < m and m - m4 < MR.
                    _ => mkernel_4x8::<3>(k, at, rs, cs, bp.add(j), n, ct, n),
                }
            }
        }
    }
    // SAFETY: avx2+fma per the fn contract.
    unsafe { narrow_columns(trans_a, a, lda, i0, m, k, b, n, c, n8) }
}

/// The `n - n8 < NR` columns of `C += op(A) * B` from column `n8` on (none
/// when `n8 == n`), through [`narrow`] at leading dimensions `n`: the
/// column remainder of the in-place routes of both SIMD arms (`n8` is a
/// multiple of [`NR`]).
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features; every access is
/// bounds-checked slice indexing.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn narrow_columns(
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
    // SAFETY: `narrow` needs only avx2+fma (the fn contract); its accesses
    // are bounds-checked slice indexing.
    unsafe {
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
}

/// `C += op(A) * B` on `N < NR` columns of `B` (`k x N` at leading dimension
/// `ldb`) into `N` columns of `C` (`m x N` at `ldc`), with `A` as in
/// [`gemm_blocked`].  The in-place route's column remainder; a product
/// with `n < NR` is nothing else.
///
/// Every output element runs the microkernel's chain: loaded from `C`, then
/// `c = fma(a_ip, b_pj, c)` for `p` ascending over all of `k`, then stored
/// (a store after every `p` would be the same chain too).  `N` is a
/// constant so the accumulators are fixed-size arrays the compiler keeps in
/// registers.  Only the loop order differs by form, so that each stored
/// block is read once, in contiguous runs ([`narrow_nn`], [`narrow_tn`]).
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features: under them `f64::mul_add`
/// lowers to `vfmadd` (without them it is a libm call).  Every memory access
/// is safe slice indexing.
// Out of line: inlined into `in_place` next to the microkernel instances,
// some widths ran up to 2x slower.
#[target_feature(enable = "avx2", enable = "fma")]
#[inline(never)]
unsafe fn narrow<const N: usize>(
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
// and `in_place`'s `match m - m4` one per row count below `MR`.
const _: () = assert!(NR == 8 && MR == 4);

/// Whether [`gemm_blocked`] reads the operands in place: the product has no
/// full 8-column tile, or both blocks fit the pack buffers they would be
/// copied into (`m * k <= MC * KC`, `k * n <= KC * NC`).
pub(super) fn reads_in_place(m: usize, k: usize, n: usize) -> bool {
    let fits = |rows: usize, block: usize| rows.saturating_mul(k) <= block * KC;
    n < NR || (fits(m, MC) && fits(n, NC))
}

/// Index of the last element of `A` a product reads (see [`gemm_blocked`]),
/// or `None` if it overflows; `m, k >= 1`.
fn last_a_index(trans_a: bool, lda: usize, i0: usize, m: usize, k: usize) -> Option<usize> {
    let (outer, inner) = if trans_a {
        (k - 1, i0.checked_add(m - 1)?)
    } else {
        (i0.checked_add(m - 1)?, k - 1)
    };
    outer.checked_mul(lda)?.checked_add(inner)
}

/// Cache-blocked `C += op(A) * B` over raw row-major slices through the
/// 4x8 microkernel, in place or packed (see the module docs).
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
    assert_operands(trans_a, a, lda, i0, m, k, b, n, c);
    if reads_in_place(m, k, n) {
        // SAFETY: dispatch resolution verified avx2+fma
        // (`simd_available()`) before any dispatch could reach this
        // function; `m, k >= 1` and the three slice bounds were asserted
        // just above.
        unsafe { in_place(trans_a, a, lda, i0, m, k, b, n, c) }
    } else {
        // SAFETY: avx2+fma as above; `c` holds `m * n` (asserted above).
        unsafe { packed(trans_a, a, lda, i0, m, k, b, n, c) }
    }
}

/// The release bounds check both SIMD arms run before any raw-pointer
/// access: `a` holds the last element the product reads in it, `b` holds
/// `k * n` values and `c` `m * n`; `m, k >= 1`.
///
/// # Panics
/// Panics if one of the three is too short.
pub(super) fn assert_operands(
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &[f64],
) {
    assert!(
        last_a_index(trans_a, lda, i0, m, k).is_some_and(|last| last < a.len()),
        "gemm: A ({} values) is too short for a {m} x {k} operand at lda {lda}, i0 {i0}",
        a.len()
    );
    assert!(
        k.checked_mul(n).is_some_and(|len| len <= b.len()),
        "gemm: B ({} values) is shorter than {k} x {n}",
        b.len()
    );
    assert!(
        m.checked_mul(n).is_some_and(|len| len <= c.len()),
        "gemm: C ({} values) is shorter than {m} x {n}",
        c.len()
    );
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
