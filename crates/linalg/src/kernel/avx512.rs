//! AVX-512 GEMM path: one 8x16 `zmm` tile for the in-place products with at
//! least [`NR`] right-hand-side columns, on the AVX2 arm's chain.
//!
//! The tile is [`ROWS`] = 8 rows x `V` eight-lane column vectors of `C`:
//! `V = 2` (16 columns, 16 `zmm` accumulators, one broadcast register for
//! `A` and two load registers for `B` — 19 of the 32 architectural `zmm`
//! registers) for the full tiles, `V = 1` for an `n % 16 >= 8` remainder,
//! and fewer-row instances for the `m % 8` remainder rows.  Per depth step
//! the full tile issues 16 fused multiply-adds on 8-lane `f64` vectors,
//! 256 flops against 24 loaded values, twice the AVX2 4x8 tile's work per
//! load.  An 8x16 tile measured best among 4x16, 6x16, 8x16, 4x24 and 8x8.
//!
//! [`gemm_blocked`] has two routes:
//!
//! * **the tile** — `n >= NR` and the operands are read in place by the
//!   AVX2 arm's rule ([`avx2::reads_in_place`]): every near, coupling,
//!   upward and downward product of a wide evaluation and the factor's
//!   panel products.  The last `n % 8` columns run the AVX2 arm's narrow
//!   bodies ([`avx2::narrow_columns`]);
//! * **everything else** — products with fewer than [`NR`] columns and the
//!   packed large operands — is the AVX2 arm ([`avx2::gemm_blocked`]),
//!   unchanged.
//!
//! # Bitwise-determinism contract
//!
//! The tile keeps the AVX2 arm's per-element chain exactly: the
//! accumulators are loaded from `C`, then `c = fma(a_ip, b_pj, c)` runs
//! for `p` ascending over all of `k`, with no zero-skipping, and the result
//! is stored.  A `zmm` lane rounds each fma once, as a `ymm` lane does, so
//! this arm returns the AVX2 arm's bits on every product — whatever the
//! route, row chunking or column grouping.
#![cfg(target_arch = "x86_64")]
#![expect(
    unsafe_code,
    reason = "8x16 AVX-512 tile on raw-pointer in-place operands: gemm_blocked runs the AVX2 arm's release bounds asserts (avx2::assert_operands) before any raw-pointer access, and every tile access lies inside the region those asserts cover; the target_feature fns are reached only behind avx512_available() (DESIGN.md unsafe inventory)"
)]

use super::avx2;
use super::pack::NR;
use core::arch::x86_64::*;

/// Rows of `C` per tile.
const ROWS: usize = 8;
/// `f64` lanes of one `zmm` register.
const LANES: usize = 8;
/// Columns of `C` per full tile: two `zmm` vectors.
const COLS: usize = 2 * LANES;

// The `V = 1` stripe covers exactly one `NR`-column remainder, the AVX2
// narrow bodies take the `n % NR` rest, and `stripe`'s `match m - m8` has one
// arm per row count below `ROWS`.
const _: () = assert!(LANES == NR && ROWS == 8);

/// The tile: `C[0..R, 0..8 V] = fma-chain over p in 0..k`, `R <= ROWS`.
///
/// Row `i` of `A` is read at `a + i * rs_a`, advancing by `cs_a` per depth
/// step (NoTrans `(lda, 1)`, TN `(1, lda)`); row `p` of `B` at
/// `b + p * ldb`; row `i` of `C` at `c + i * ldc`.
///
/// # Safety
/// Requires the `avx512f` CPU feature.  For every `i < R` and `p < k`,
/// `a + i * rs_a + p * cs_a` must be readable, `b + p * ldb + j` readable
/// for `j < 8 V`, and `c + i * ldc + j` readable and writable for
/// `j < 8 V`.
#[target_feature(enable = "avx512f")]
unsafe fn tile<const R: usize, const V: usize>(
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
    // `i * rs_a + p * cs_a`, `b` at `p * ldb + {0..8 V}` and `c` at
    // `i * ldc + {0..8 V}` with `i < R`, `p < k`.  Loads/stores are
    // `loadu`/`storeu`, so no alignment requirement beyond `f64`'s.
    unsafe {
        let mut acc = [[_mm512_setzero_pd(); V]; R];
        for (i, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm512_loadu_pd(c.add(i * ldc + v * LANES));
            }
        }
        for p in 0..k {
            let bp: [__m512d; V] =
                std::array::from_fn(|v| _mm512_loadu_pd(b.add(p * ldb + v * LANES)));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_pd(*a.add(i * rs_a + p * cs_a));
                for (x, &bv) in row.iter_mut().zip(&bp) {
                    *x = _mm512_fmadd_pd(ai, bv, *x);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                _mm512_storeu_pd(c.add(i * ldc + v * LANES), x);
            }
        }
    }
}

/// One `8 V`-column stripe of `C` over all `m` rows: full 8-row tiles, then
/// the `m % 8` remainder rows through a fewer-row instance.  `a` points at
/// element `(0, 0)` of `op(A)` with strides `(rs, cs)`; `b` and `c` at the
/// stripe's first column, leading dimension `n`.
///
/// # Safety
/// Requires `avx512f`; [`tile`]'s contract for `R = m` rows (`m >= 1`).
#[target_feature(enable = "avx512f")]
unsafe fn stripe<const V: usize>(
    k: usize,
    a: *const f64,
    rs: usize,
    cs: usize,
    m: usize,
    b: *const f64,
    c: *mut f64,
    n: usize,
) {
    let m8 = m - m % ROWS;
    // SAFETY: avx512f per the fn contract; each tile covers rows
    // `[i, i + R)` with `i + R <= m`, inside the region the contract gives.
    unsafe {
        for i in (0..m8).step_by(ROWS) {
            tile::<ROWS, V>(k, a.add(i * rs), rs, cs, b, n, c.add(i * n), n);
        }
        if m8 < m {
            let (a, c) = (a.add(m8 * rs), c.add(m8 * n));
            match m - m8 {
                1 => tile::<1, V>(k, a, rs, cs, b, n, c, n),
                2 => tile::<2, V>(k, a, rs, cs, b, n, c, n),
                3 => tile::<3, V>(k, a, rs, cs, b, n, c, n),
                4 => tile::<4, V>(k, a, rs, cs, b, n, c, n),
                5 => tile::<5, V>(k, a, rs, cs, b, n, c, n),
                6 => tile::<6, V>(k, a, rs, cs, b, n, c, n),
                // m - m8 == 7: m8 < m and m - m8 < ROWS.
                _ => tile::<7, V>(k, a, rs, cs, b, n, c, n),
            }
        }
    }
}

/// The tile route of [`gemm_blocked`] (the AVX2 arm's operand conventions):
/// 16-column stripes, then an 8-column one for an `n % 16 >= 8` remainder,
/// then the last `n % 8` columns through the AVX2 narrow bodies.
///
/// # Safety
/// Requires `avx512f`, `avx2` and `fma`, `m, k >= 1`, and the three slice
/// bounds [`avx2::assert_operands`] checks.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
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
    let n16 = n - n % COLS;
    let n8 = n - n % NR;
    let (bp, cp) = (b.as_ptr(), c.as_mut_ptr());
    // SAFETY: features per the fn contract.  A stripe at columns
    // `[j, j + 8 V)` with `j + 8 V <= n8 <= n` reads `A` up to
    // `a00 + (m - 1) * rs + (k - 1) * cs`, the last `A` element the
    // asserts cover; `B` up to `(k - 1) * n + j + 8 V - 1 < k * n`; and `C`
    // up to `(m - 1) * n + j + 8 V - 1 < m * n`.  `a00` itself is at most
    // that last element, so `ap` lies inside `a`.
    unsafe {
        let ap = a.as_ptr().add(a00);
        for j in (0..n16).step_by(COLS) {
            stripe::<2>(k, ap, rs, cs, m, bp.add(j), cp.add(j), n);
        }
        if n16 < n8 {
            stripe::<1>(k, ap, rs, cs, m, bp.add(n16), cp.add(n16), n);
        }
        avx2::narrow_columns(trans_a, a, lda, i0, m, k, b, n, c, n8);
    }
}

/// `C += op(A) * B` with the AVX2 arm's operand conventions
/// ([`avx2::gemm_blocked`]): the 8x16 tile for in-place products with at
/// least [`NR`] columns, the AVX2 arm for every other product.  Caller
/// guarantees `avx512f`, `avx2` and `fma` (checked once at dispatch
/// resolution).
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
    if n < NR || !avx2::reads_in_place(m, k, n) {
        avx2::gemm_blocked(trans_a, a, lda, i0, m, k, b, n, c);
        return;
    }
    avx2::assert_operands(trans_a, a, lda, i0, m, k, b, n, c);
    // SAFETY: dispatch resolution verified avx512f, avx2 and fma before any
    // dispatch could reach this function; `m, k >= 1` and the three slice
    // bounds were asserted just above.
    unsafe { in_place(trans_a, a, lda, i0, m, k, b, n, c) }
}
