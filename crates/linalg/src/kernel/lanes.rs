//! Lane types, and the SIMD bodies written once over them.
//!
//! [`Lanes`] is one vector register of [`Lanes::W`] `f64` lanes and the
//! operations the bodies need.  Its two impls ([`lane_type`]) are the only
//! code in the workspace that names an intrinsic: `avx2::Ymm` (`__m256d`,
//! AVX2 + FMA) and `avx512::Zmm` (`__m512d`, AVX-512F).  A lane value is a
//! zero-sized token made only by a `#[target_feature]` constructor of its
//! features, so holding one means the CPU has them, and the arithmetic is
//! safe.  The trait is private to the kernel layer, so sealed.
//!
//! The bodies are `#[inline(always)]`, so each arm compiles them inside its
//! own `#[target_feature]` function at its register width: the GEMM
//! [`tile`] (4 × 8 on `Ymm`, 8 × 16 and an 8 × 8 stripe on `Zmm`), the
//! [`in_place`] driver, and the distance driver [`dist2`] ([`DIST_ROWS`]
//! rows against one [`PANEL`]-column panel a pass, [`dist2_tile`]).  Every
//! lane rounds each operation once, at either width, so a body returns the
//! same bits on both arms: the GEMM chain is the AVX2 arm's (`kernel.rs`),
//! the distance chain the scalar arm's (`dist.rs`).
#![expect(
    unsafe_code,
    reason = "the generic GEMM tile and squared-distance tile read and write raw pointers: the in-place driver runs assert_operands and the distance driver dist::assert_operands in release before any raw-pointer access, and every tile touches only rows, columns and depths inside the asserted region (a last partial distance panel through a stack row); a lane token proves its target features, and load / store / put are the only lane operations on memory (DESIGN.md unsafe inventory)"
)]

use super::dist::{self, PANEL};
use super::pack::NR;

/// One vector of [`Lanes::W`] `f64` lanes.  `self` is the token that proves
/// the CPU features the operations need.
pub(super) trait Lanes: Copy {
    /// `f64` lanes of one vector.
    const W: usize;
    /// The vector register type.
    type V: Copy;

    /// All lanes `+0.0`.
    fn zero(self) -> Self::V;
    /// All lanes `x`.
    fn splat(self, x: f64) -> Self::V;
    /// `a * b + c`, rounded once per lane.
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `a - b` per lane.
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a * b` per lane.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a + b` per lane.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;

    /// The `W` values at `p`, unaligned.
    ///
    /// # Safety
    /// `p` must be readable for `W` values.
    unsafe fn load(self, p: *const f64) -> Self::V;

    /// Store `v` to the `W` values at `p`, unaligned.
    ///
    /// # Safety
    /// `p` must be writable for `W` values.
    unsafe fn store(self, p: *mut f64, v: Self::V);

    /// Store `v` to `s[..W]`; panics if `s` holds fewer than `W` values.
    #[inline(always)]
    fn put(self, s: &mut [f64], v: Self::V) {
        let s = &mut s[..Self::W];
        // SAFETY: `s` holds exactly `W` values.
        unsafe { self.store(s.as_mut_ptr(), v) }
    }
}

/// A lane token type `$t` and its [`Lanes`] impl over the register type
/// `$v` of `$w` lanes, from its intrinsics: `zero`, `splat`, `fma`, `load`
/// and `store` (unaligned), then `sub`, `mul` and `add` by name.  The
/// token's one constructor, `$t::new`, is a `#[target_feature]` fn of
/// `$features`, the features the intrinsics need, so a token exists only
/// where they run: that is the `unsafe` of every method.
macro_rules! lane_type {
    ($(#[$doc:meta])* $t:ident($v:ty, $w:literal, $features:literal):
     $zero:ident, $splat:ident, $fma:ident, $load:ident, $store:ident,
     $($op:ident: $intr:ident),*) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        struct $t(());

        impl $t {
            /// The lane token, inside a context with its features.
            ///
            /// # Safety
            /// Callable only where the CPU has the features.
            #[target_feature(enable = $features)]
            fn new() -> Self {
                $t(())
            }
        }

        impl $crate::kernel::lanes::Lanes for $t {
            const W: usize = $w;
            type V = $v;

            #[inline(always)]
            fn zero(self) -> $v {
                // SAFETY: `self` exists only where the intrinsics' features run.
                unsafe { $zero() }
            }

            #[inline(always)]
            fn splat(self, x: f64) -> $v {
                // SAFETY: as in `zero`.
                unsafe { $splat(x) }
            }

            #[inline(always)]
            fn fma(self, a: $v, b: $v, c: $v) -> $v {
                // SAFETY: as in `zero`.
                unsafe { $fma(a, b, c) }
            }

            $(
                #[inline(always)]
                fn $op(self, a: $v, b: $v) -> $v {
                    // SAFETY: as in `zero`.
                    unsafe { $intr(a, b) }
                }
            )*

            #[inline(always)]
            unsafe fn load(self, p: *const f64) -> $v {
                // SAFETY: features as in `zero`; `p` is readable for `W`
                // values (the fn contract), and the load is unaligned.
                unsafe { $load(p) }
            }

            #[inline(always)]
            unsafe fn store(self, p: *mut f64, v: $v) {
                // SAFETY: features as in `zero`; `p` is writable for `W`
                // values (the fn contract), and the store is unaligned.
                unsafe { $store(p, v) }
            }
        }
    };
}
pub(super) use lane_type;

/// The GEMM tile: `C[0..R, 0..V W] = fma-chain over p in 0..k`.
///
/// Row `i` of `A` is read at `a + i * rs_a`, advancing by `cs_a` per depth
/// step (NoTrans in place `(lda, 1)`, TN `(1, lda)`, packed `(1, MR)`); row
/// `p` of `B` at `b + p * ldb`; row `i` of `C` at `c + i * ldc`.  The
/// accumulators are loaded from `C` and stored back, and there is no
/// zero-skipping, so every element is `c = fma(a_ip, b_pj, c)` for `p`
/// ascending whatever the tile shape.
///
/// # Safety
/// For every `i < R` and `p < k`, `a + i * rs_a + p * cs_a` must be
/// readable, `b + p * ldb + j` readable for `j < V W`, and `c + i * ldc + j`
/// readable and writable for `j < V W`.
#[inline(always)]
pub(super) unsafe fn tile<L: Lanes, const R: usize, const V: usize>(
    l: L,
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
    // `i * rs_a + p * cs_a`, `b` at `p * ldb + {0..V W}` and `c` at
    // `i * ldc + {0..V W}` with `i < R`, `p < k`.
    unsafe {
        let mut acc = [[l.zero(); V]; R];
        for (i, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = l.load(c.add(i * ldc + v * L::W));
            }
        }
        for p in 0..k {
            let bp: [L::V; V] = std::array::from_fn(|v| l.load(b.add(p * ldb + v * L::W)));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = l.splat(*a.add(i * rs_a + p * cs_a));
                for (x, &bv) in row.iter_mut().zip(&bp) {
                    *x = l.fma(ai, bv, *x);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                l.store(c.add(i * ldc + v * L::W), x);
            }
        }
    }
}

/// One `V W`-column stripe of `C` over all `m` rows: whole `ROWS`-row
/// tiles, then the `m % ROWS` remainder rows through one fewer-row tile.
/// `a` points at element `(0, 0)` of `op(A)` with strides `(rs, cs)`; `b`
/// and `c` at the stripe's first column, leading dimension `n`.
///
/// # Safety
/// [`tile`]'s contract for `R = m` rows (`m >= 1`) at `ldb = ldc = n`.
#[inline(always)]
unsafe fn stripe<L: Lanes, const ROWS: usize, const V: usize>(
    l: L,
    k: usize,
    a: *const f64,
    rs: usize,
    cs: usize,
    m: usize,
    b: *const f64,
    c: *mut f64,
    n: usize,
) {
    // One `match` arm per remainder below `ROWS`.
    const { assert!(ROWS <= 8) };
    let full = m - m % ROWS;
    // SAFETY: each tile covers rows `[i, i + R)` with `i + R <= m`, inside
    // the region the fn contract gives.  The remainder is `1..ROWS`, so the
    // last arm runs exactly 7 rows.
    unsafe {
        for i in (0..full).step_by(ROWS) {
            tile::<L, ROWS, V>(l, k, a.add(i * rs), rs, cs, b, n, c.add(i * n), n);
        }
        if full < m {
            let (a, c) = (a.add(full * rs), c.add(full * n));
            match m - full {
                1 => tile::<L, 1, V>(l, k, a, rs, cs, b, n, c, n),
                2 => tile::<L, 2, V>(l, k, a, rs, cs, b, n, c, n),
                3 => tile::<L, 3, V>(l, k, a, rs, cs, b, n, c, n),
                4 => tile::<L, 4, V>(l, k, a, rs, cs, b, n, c, n),
                5 => tile::<L, 5, V>(l, k, a, rs, cs, b, n, c, n),
                6 => tile::<L, 6, V>(l, k, a, rs, cs, b, n, c, n),
                _ => tile::<L, 7, V>(l, k, a, rs, cs, b, n, c, n),
            }
        }
    }
}

/// The in-place driver of both SIMD arms: `C += op(A) * B` on the operands
/// where they lie (`A` as in the arms' `gemm_blocked`), over the whole
/// [`NR`]-column panels of `C` — stripes of `2 W` columns, then one of `W`
/// for an `n % 2 W >= NR` remainder (`Zmm` only: on `Ymm`, `2 W = NR`), each
/// in tiles of `ROWS` rows.  Returns `n8 = n - n % NR`, the first column it
/// did not cover; the caller runs the narrow bodies from there.
///
/// # Panics
/// Panics, before any raw-pointer access, if `a`, `b` or `c` is too short
/// for the last element the product touches in it ([`assert_operands`]).
#[inline(always)]
pub(super) fn in_place<L: Lanes, const ROWS: usize>(
    l: L,
    trans_a: bool,
    a: &[f64],
    lda: usize,
    i0: usize,
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    c: &mut [f64],
) -> usize {
    // A `W` stripe is one whole `NR` panel, or there is none.
    const { assert!(2 * L::W == NR || L::W == NR) };
    if m == 0 || n == 0 || k == 0 {
        return n;
    }
    assert_operands(trans_a, a, lda, i0, m, k, b, n, c);
    // Offset of element (0, 0) of op(A), and its row / column strides.
    let (a00, rs, cs) = if trans_a {
        (i0, 1, lda)
    } else {
        (i0 * lda, lda, 1)
    };
    let wide = 2 * L::W;
    let n_wide = n - n % wide;
    let n8 = n - n % NR;
    let (bp, cp) = (b.as_ptr(), c.as_mut_ptr());
    // SAFETY: a stripe at columns `[j, j + V W)` with `j + V W <= n8 <= n`
    // reads `A` up to `a00 + (m - 1) * rs + (k - 1) * cs`, the last `A`
    // element the asserts cover; `B` up to `(k - 1) * n + j + V W - 1 <
    // k * n`; and `C` up to `(m - 1) * n + j + V W - 1 < m * n`.  `a00` is
    // at most that last element, so `ap` lies inside `a`.
    unsafe {
        let ap = a.as_ptr().add(a00);
        for j in (0..n_wide).step_by(wide) {
            stripe::<L, ROWS, 2>(l, k, ap, rs, cs, m, bp.add(j), cp.add(j), n);
        }
        if n_wide < n8 {
            stripe::<L, ROWS, 1>(l, k, ap, rs, cs, m, bp.add(n_wide), cp.add(n_wide), n);
        }
    }
    n8
}

/// The release bounds check of every SIMD product route: `a` holds the last
/// element the product reads in it, `b` holds `k * n` values and `c`
/// `m * n`; `m, k >= 1`.
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
    // The last element of `A` the product reads, unless its index overflows.
    let last_a = i0.checked_add(m - 1).and_then(|i| match trans_a {
        true => (k - 1).checked_mul(lda)?.checked_add(i),
        false => i.checked_mul(lda)?.checked_add(k - 1),
    });
    assert!(
        last_a.is_some_and(|last| last < a.len()),
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

/// Rows of the distance block per pass: four independent accumulator rows
/// per coordinate step.
const DIST_ROWS: usize = 4;

/// The distance tile: `out[i * ldo + c] = Σ_k (x_i[k] − y_c[k])²` for
/// `i < R` and the `n` columns of `panels`, `V` vectors per row and panel
/// (`V W = PANEL`), `sub`, `mul`, `add` per lane for `k` ascending from
/// `0.0` (the scalar arm's chain, [`super::dist`]).  A last partial panel
/// goes through a stack row and stores its first `n % PANEL` values only.
///
/// # Safety
/// Each `x[i]` must be readable for `dim` values, `panels` for
/// `n.div_ceil(PANEL) * dim * PANEL` values, and `out + i * ldo + c`
/// writable for `i < R`, `c < n`.
#[inline(always)]
unsafe fn dist2_tile<L: Lanes, const R: usize, const V: usize>(
    l: L,
    dim: usize,
    x: [*const f64; R],
    panels: *const f64,
    n: usize,
    out: *mut f64,
    ldo: usize,
) {
    const { assert!(V * L::W == PANEL) };
    // SAFETY: every access is one the fn contract lists — `x[i]` at
    // `k < dim`, `panels` at `p * dim * PANEL + k * PANEL + {0..PANEL}` for
    // the `n.div_ceil(PANEL)` panels, and `out` at
    // `i * ldo + p * PANEL + {0..cols}` with `p * PANEL + cols <= n`.
    unsafe {
        for p in 0..n.div_ceil(PANEL) {
            let y = panels.add(p * dim * PANEL);
            let mut acc = [[l.zero(); V]; R];
            for k in 0..dim {
                let yk: [L::V; V] = std::array::from_fn(|v| l.load(y.add(k * PANEL + v * L::W)));
                for (a, xi) in acc.iter_mut().zip(&x) {
                    let xk = l.splat(*xi.add(k));
                    for (s, &yv) in a.iter_mut().zip(&yk) {
                        let d = l.sub(xk, yv);
                        *s = l.add(*s, l.mul(d, d));
                    }
                }
            }
            let cols = (n - p * PANEL).min(PANEL);
            for (i, a) in acc.iter().enumerate() {
                let o = out.add(i * ldo + p * PANEL);
                if cols == PANEL {
                    for (v, &s) in a.iter().enumerate() {
                        l.store(o.add(v * L::W), s);
                    }
                } else {
                    let mut row = [0.0; PANEL];
                    for (v, &s) in a.iter().enumerate() {
                        l.put(&mut row[v * L::W..], s);
                    }
                    // Guarded, not a `cols`-long copy: that is a `memcpy` call
                    // a row, up to 1.4x slower than the masked store it replaced.
                    for (j, &v) in row.iter().enumerate() {
                        if j < cols {
                            *o.add(j) = v;
                        }
                    }
                }
            }
        }
    }
}

/// The SIMD distance driver ([`super::dist`]): row `i` of `out` (stride
/// `ldo`) gets the squared distances from point `rows[i]` of `coords` to
/// the `n` columns of `panels`, [`DIST_ROWS`] rows a pass, each pair its
/// own chain — bitwise the scalar arm's.
///
/// # Panics
/// Panics, before any raw-pointer access, if an operand does not hold what
/// [`dist::assert_operands`] checks.
#[inline(always)]
pub(super) fn dist2<L: Lanes, const V: usize>(
    l: L,
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &mut [f64],
    ldo: usize,
) {
    dist::assert_operands(coords, dim, rows, panels, n, out, ldo);
    if rows.is_empty() || n == 0 {
        return;
    }
    let x = |r: &usize| coords[r * dim..].as_ptr();
    let (yp, op) = (panels.as_ptr(), out.as_mut_ptr());
    let groups = rows.chunks_exact(DIST_ROWS);
    let rest = groups.remainder();
    let m4 = rows.len() - rest.len();
    // SAFETY: the asserts above give every `rows` index a whole `dim`-value
    // point in `coords` (so `x` reads `dim` values), `n.div_ceil(PANEL)`
    // panels in `panels`, and `out` rows `i < rows.len()` of `n` values at
    // stride `ldo`; each tile covers rows `[g, g + R)` with
    // `g + R <= rows.len()`.
    unsafe {
        for (g, group) in groups.enumerate() {
            let xs = std::array::from_fn(|i| x(&group[i]));
            dist2_tile::<L, DIST_ROWS, V>(l, dim, xs, yp, n, op.add(g * DIST_ROWS * ldo), ldo);
        }
        let o = op.add(m4 * ldo);
        match *rest {
            [] => {}
            [a] => dist2_tile::<L, 1, V>(l, dim, [x(&a)], yp, n, o, ldo),
            [a, b] => dist2_tile::<L, 2, V>(l, dim, [x(&a), x(&b)], yp, n, o, ldo),
            [a, b, c] => dist2_tile::<L, 3, V>(l, dim, [x(&a), x(&b), x(&c)], yp, n, o, ldo),
            _ => unreachable!("chunks_exact leaves fewer than DIST_ROWS rows"),
        }
    }
}
