//! The AVX-512 arm: the `Zmm` lane impl (eight `f64` a `zmm` register), its
//! route rule and its trampolines.  Every body it runs is written once, in
//! [`super::lanes`] or the AVX2 arm.
//!
//! Its products are the shared in-place driver ([`lanes::in_place`]) on
//! `Zmm` in 8-row tiles: 16-column stripes (16 `zmm` accumulators, one
//! broadcast and two `B` loads — 19 of 32 registers; 16 fused
//! multiply-adds per depth step against 24 loaded values, twice the AVX2
//! 4x8 tile's work per load), an 8-column stripe for an `n % 16 >= 8`
//! remainder, and the AVX2 narrow bodies for the last `n % 8` columns.  An
//! 8x16 tile measured best among 4x16, 6x16, 8x16, 4x24 and 8x8.
//!
//! The route rule ([`gemm_blocked`]): the driver takes every product with
//! `n >= NR` that the AVX2 arm reads in place ([`avx2::reads_in_place`]) —
//! the near, coupling, upward and downward products of a wide evaluation
//! and the factor's panel products; every other product is the AVX2 arm's,
//! as are `dot` and `axpy`.  A `zmm` lane rounds each fma once, as a `ymm`
//! lane does, so this arm returns the AVX2 arm's bits on every product.
//!
//! Each body runs in an `avx512f` instance of its own, as on the AVX2 arm:
//! the distance driver (one `zmm` a row) and the QR and substitution
//! bodies ([`advance_qr`], [`substitute`]), with the scalar arm's chains and
//! bits.  (`avx512f` implies `fma` to the code generator, but Rust emits no
//! contractible operations.)
#![cfg(target_arch = "x86_64")]
#![expect(
    unsafe_code,
    reason = "the Zmm lane impl calls AVX-512F intrinsics, and a Zmm is made only by an avx512f target_feature fn; gemm_blocked and the trampolines call target_feature fns, reached only behind avx512_available() (DESIGN.md unsafe inventory)"
)]

use super::avx2;
use super::lanes::{self, lane_type};
use super::pack::NR;
use crate::matrix::Matrix;
use crate::qr::{QrStop, ResumableQr};
use crate::solve::Substitution;
use core::arch::x86_64::*;

/// Rows of `C` per tile.
const ROWS: usize = 8;

lane_type! {
    /// The AVX-512F lanes: eight `f64` a `zmm` register.
    Zmm(__m512d, 8, "avx512f"): _mm512_setzero_pd, _mm512_set1_pd, _mm512_fmadd_pd,
    _mm512_loadu_pd, _mm512_storeu_pd,
    sub: _mm512_sub_pd, mul: _mm512_mul_pd, add: _mm512_add_pd
}

/// The tile route of [`gemm_blocked`] (the AVX2 arm's operand
/// conventions): the shared driver on `Zmm` in 8-row tiles, then the last
/// `n % 8` columns through the AVX2 narrow bodies.
///
/// # Panics
/// Panics, before any raw-pointer access, if `a`, `b` or `c` is too short
/// ([`lanes::assert_operands`]).
///
/// # Safety
/// Callable only where the CPU has `avx512f`, `avx2` and `fma`.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
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
    let n8 = lanes::in_place::<_, ROWS>(Zmm::new(), trans_a, a, lda, i0, m, k, b, n, c);
    avx2::narrow_columns(trans_a, a, lda, i0, m, k, b, n, c, n8);
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
    if n < NR || !avx2::reads_in_place(m, k, n) {
        avx2::gemm_blocked(trans_a, a, lda, i0, m, k, b, n, c);
        return;
    }
    // SAFETY: dispatch resolution verified avx512f, avx2 and fma before any
    // dispatch could reach this function; the driver asserts its operands.
    unsafe { in_place(trans_a, a, lda, i0, m, k, b, n, c) }
}

/// The AVX-512 distance arm ([`super::dist`]): the shared driver
/// ([`lanes::dist2`]) at one `zmm` a row — bitwise the scalar arm's.
/// Caller guarantees `avx512f` (checked once at dispatch resolution).
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
    // SAFETY: dispatch resolution verified avx512f before any dispatch
    // could reach this function; the driver asserts its operands.
    unsafe { dist2_instance(coords, dim, rows, panels, n, out, ldo) }
}

/// [`dist2`]'s body, compiled for `avx512f`.
///
/// # Safety
/// Callable only where the CPU has `avx512f`.
#[target_feature(enable = "avx512f")]
fn dist2_instance(
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &mut [f64],
    ldo: usize,
) {
    lanes::dist2::<_, 1>(Zmm::new(), coords, dim, rows, panels, n, out, ldo);
}

/// The one-pass pivoted QR's steps ([`crate::qr`], [`ResumableQr::advance`]) compiled for AVX-512: the scalar
/// arm's bits.  Caller guarantees avx512f (checked once at dispatch
/// resolution).
pub fn advance_qr(qr: &mut ResumableQr, tol: f64, max_rank: usize) -> QrStop {
    // SAFETY: dispatch resolution verified avx512f before any dispatch
    // could reach this function; the instance itself is safe code.
    unsafe { advance_qr_instance(qr, tol, max_rank) }
}

/// The QR steps' instance: safe code throughout.
///
/// # Safety
/// Callable only where the CPU has `avx512f` (the trampoline's dispatch
/// checked it).
#[target_feature(enable = "avx512f")]
fn advance_qr_instance(qr: &mut ResumableQr, tol: f64, max_rank: usize) -> QrStop {
    qr.advance_body(tol, max_rank)
}

/// The triangular substitutions ([`crate::solve`]) compiled for AVX-512: the
/// scalar arm's bits.  Caller guarantees avx512f (checked once at
/// dispatch resolution).
///
/// # Panics
/// Panics on a shape mismatch or an exactly zero diagonal entry.
pub fn substitute(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    // SAFETY: dispatch resolution verified avx512f before any dispatch
    // could reach this function; the instance itself is safe code.
    unsafe { substitute_instance(kind, t, k, x, q) }
}

/// The substitution body's instance: safe code throughout.
///
/// # Safety
/// Callable only where the CPU has `avx512f` (the trampoline's dispatch
/// checked it).
#[target_feature(enable = "avx512f")]
fn substitute_instance(kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
    crate::solve::substitute(kind, t, k, x, q);
}
