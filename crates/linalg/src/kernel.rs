//! Kernel selection: the SIMD microkernel layer and its dispatch.
//!
//! Every hot product in the workspace (executor leaf/coupling/transfer
//! phases, the ULV factorization's reduced-matrix updates, its Cholesky
//! and LU, the solve sweeps, the dense baselines) funnels through a
//! [`KernelDispatch`]: a kernel *architecture* resolved from, in priority
//! order,
//!
//! 1. an explicit [`KernelChoice`] carried by the caller
//!    (`ExecOptions::kernel` / `MatRoxParams::kernel` upstream), resolved
//!    once per prepared plan, factor or solve by
//!    [`KernelDispatch::for_choice`];
//! 2. the `MATROX_KERNEL` environment variable (`auto`, `scalar`, `avx2`),
//!    read once per process ([`KernelDispatch::global`], what `Auto` and the
//!    option-less callers — the baselines, [`crate::matmul`],
//!    [`crate::gemm_panel`] — take);
//! 3. runtime CPU feature detection (`auto`).
//!
//! The dispatch is the architecture and nothing else.  Each of its four
//! products (`gemm`, `gemm_tn`, `par_gemm`, `par_gemm_tn`) checks the slice
//! lengths, then makes one call of one private product,
//! `C += op(A) * B` with `A` read as stored or transposed from a row
//! offset, which has one arm per architecture (the parallel entry points
//! split the rows of `C` over the pool first).  Three architectures exist
//! today:
//!
//! * **scalar** — one cache-blocked, strided scalar loop (`C += op(A)*B`
//!   with per-element `mul` + `add`, zero-skipping) that reads `A` as
//!   stored or transposed through a (row stride, column stride) pair.
//!   This is the portable fallback and is bitwise-identical to the
//!   pre-SIMD behaviour of the workspace.
//! * **avx2** — a register-blocked 4x8 `f64` tile on `ymm` registers
//!   (AVX2 + FMA, `kernel/avx2.rs`).  It reads the operands
//!   where they lie whenever they fit the pack buffers (`m * k <= MC * KC`
//!   and `k * n <= KC * NC`) or the product has fewer than [`NR`]
//!   right-hand-side columns — every product the executor, the factor and
//!   the solve issue — and packs larger ones first.  The block sizes are
//!   constants derived from one cache model ([`mod@crate::kernel::pack`],
//!   which also documents the panel formats).  Both routes keep one
//!   per-element chain.  Selected by `auto` when the CPU supports AVX2+FMA
//!   but not AVX-512, and by `avx2` whenever it does; requesting `avx2` on
//!   hardware without the features silently falls back to `scalar`
//!   (recorded in [`KernelDispatch::name`]).
//! * **avx512** — the same tile at 8x16 on `zmm` registers
//!   (`kernel/avx512.rs`) for every in-place product with at least [`NR`]
//!   right-hand-side columns (the executor's wide panels, the factor's
//!   panel products), on the AVX2 arm's per-element chain; products with
//!   fewer columns and packed ones run the AVX2 arm.  Selected by `auto`
//!   when the CPU has `avx512f` on top of AVX2+FMA (never under Miri); no
//!   `MATROX_KERNEL` value names it, and `avx2` pins the 256-bit arm.
//!
//! The two SIMD arms differ in register width and tile shape only, so each
//! of their bodies is written once (`kernel/lanes.rs`): the GEMM tile, the
//! in-place driver and the distance tile are generic over a lane type —
//! `Ymm` or `Zmm`, a zero-sized token made only inside a `target_feature`
//! function of its features — whose two impls are the only code that names
//! an intrinsic.  Each arm compiles the bodies inside its own
//! `target_feature` instance, with its tile shape and route rule.
//!
//! The dispatch also runs the squared-distance body under every kernel
//! entry ([`KernelDispatch::dist2`], [`mod@dist`]): column points gathered
//! transposed into [`DistPanels`], four rows against one 8-column panel a
//! pass on the SIMD arms (one `zmm`, or two `ymm`, accumulators per row),
//! one row at a time on the scalar arm.  Its chain is fixed — `k`
//! ascending from `0.0`, `mul` then `add`, no FMA — so, unlike the
//! products, **every arm returns the same bits** and the arm moves speed
//! only; `matrox_points::block` takes [`KernelDispatch::global`] for it.
//!
//! The ID's pivoted QR ([`KernelDispatch::advance_qr`]) and the triangular
//! substitutions ([`KernelDispatch::substitute`]) are the same kind of
//! routine: one `#[inline(always)]` body in plain Rust (`qr.rs`,
//! `solve.rs`), compiled once more inside an AVX2 and an AVX-512
//! `target_feature` trampoline, with FMA left off the AVX2 one.  Rust
//! never reassociates a sum or contracts `a * b + c` into an `fma` (under
//! any target feature), so the wider instances run the scalar arm's
//! chains lane by lane and every arm returns the same bits.
//!
//! # The bitwise-determinism contract
//!
//! For a **fixed** dispatch, every entry point guarantees that each output
//! element accumulates its `k` products in storage order as one fixed
//! operation chain (`mul`+`add` for scalar, `fma` for the SIMD arms).  The
//! chain depends only on the logical operands — never on thread count, row
//! chunking, RHS panel grouping, the pack-block sizes, or which route or
//! register tile of a SIMD arm ran the product.
//! That is the property the executor's "results are bitwise identical
//! across `RAYON_NUM_THREADS`, grain and panel width" tests pin.  The avx2
//! and avx512 arms share one chain (loaded from `C`, one `fma` per `p`
//! ascending, no zero-skipping), so they return the same bits; results
//! **do** differ between scalar and SIMD (FMA rounds once, mul+add rounds
//! twice).  Switching between scalar and SIMD is the one knob that moves
//! results, which is why the selection is resolved once per plan, factor
//! or solve and passed to every product it issues, never decided per call
//! site: one model's evaluation, factor and solve run on one arm.
//!
//! ```
//! use matrox_linalg::kernel::{KernelChoice, KernelDispatch};
//!
//! // Resolve explicitly (tests, ablations) ...
//! let scalar = KernelDispatch::resolve(KernelChoice::Scalar);
//! assert_eq!(scalar.name(), "scalar");
//! // ... or take the process-wide selection (MATROX_KERNEL + detection).
//! let global = KernelDispatch::global();
//!
//! // C += A * B on raw row-major slices, 2x3 * 3x2:
//! let a = [1.0, 0.0, 2.0, 0.0, 1.0, -1.0];
//! let b = [1.0, 1.0, 2.0, 0.5, 0.0, -2.0];
//! let mut c = [0.0; 4];
//! global.gemm(&a, 2, 3, &b, 2, &mut c);
//! let mut c_ref = [0.0; 4];
//! scalar.gemm(&a, 2, 3, &b, 2, &mut c_ref);
//! for (x, y) in c.iter().zip(&c_ref) {
//!     assert!((x - y).abs() < 1e-12);
//! }
//! ```

pub mod dist;
pub mod pack;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "x86_64")]
mod lanes;

use crate::gemm::scalar_product;
use crate::matrix::Matrix;
use crate::qr::{PivotedQr, QrStop, ResumableQr};
use crate::solve::{self, Substitution};
use rayon::prelude::*;
use std::sync::OnceLock;

pub use dist::{DistPanels, PANEL};
pub use pack::{KC, L2_BYTES, MC, MR, NC, NR};

/// User-facing kernel request (the `MATROX_KERNEL` values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Pick the fastest kernel the CPU supports (the default).
    #[default]
    Auto,
    /// Force the portable scalar kernel.
    Scalar,
    /// Pin the 256-bit AVX2+FMA arm, even on a CPU with AVX-512 (it returns
    /// the AVX-512 arm's bits); falls back to scalar when the CPU lacks
    /// AVX2+FMA.
    Avx2,
}

impl std::str::FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" | "" => Ok(KernelChoice::Auto),
            "scalar" => Ok(KernelChoice::Scalar),
            "avx2" => Ok(KernelChoice::Avx2),
            other => Err(format!(
                "unknown kernel '{other}' (expected auto, scalar or avx2)"
            )),
        }
    }
}

/// Resolved kernel architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelArch {
    /// The strided scalar loop (portable fallback, pre-SIMD behaviour).
    Scalar,
    /// 4x8 AVX2+FMA microkernel, on the operands in place when they fit
    /// the pack buffers or have fewer than [`NR`] columns, packed otherwise.
    Avx2,
    /// 8x16 AVX-512 tile for the in-place products with at least [`NR`]
    /// columns, the AVX2 arm for every other product; the AVX2 arm's chain.
    Avx512,
}

/// Whether the AVX2+FMA microkernel can run on this host.
pub fn simd_available() -> bool {
    // Miri interprets MIR and has no AVX2/FMA intrinsics; reporting the
    // host CPU's features would dispatch into kernels it cannot execute.
    // Forcing `false` here routes every resolution path (auto, explicit
    // avx2 via its degrade-to-scalar rule) to the scalar kernel.
    #[cfg(miri)]
    {
        false
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(all(not(target_arch = "x86_64"), not(miri)))]
    {
        false
    }
}

/// Whether the AVX-512 tile can run on this host, on top of
/// [`simd_available`] (never under Miri, for the same reason).
fn avx512_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        simd_available() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        false
    }
}

/// A resolved kernel selection: the architecture, and nothing else.  Its
/// field is private so that a SIMD dispatch exists only after
/// [`simd_available`] (and, for AVX-512, `avx512f` detection) said yes.
/// `Copy` and tiny, so callers resolve once and pass it by value into their
/// hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    arch: KernelArch,
}

static GLOBAL: OnceLock<KernelDispatch> = OnceLock::new();

/// Fewest rows of `C` a parallel product task should own.  A row of a
/// typical MatRox block is a few hundred multiply-adds; eight rows
/// comfortably amortize one deque push + steal (~a microsecond under the
/// vendored pool).
const MIN_PAR_ROWS: usize = 8;

impl KernelDispatch {
    /// Resolve a choice against the host CPU.  `Auto` picks AVX-512 when
    /// available, else AVX2 when available; `Avx2` pins the AVX2 arm and
    /// on unsupported hardware degrades to `Scalar`.
    pub fn resolve(choice: KernelChoice) -> Self {
        let arch = match choice {
            KernelChoice::Scalar => KernelArch::Scalar,
            KernelChoice::Auto if avx512_available() => KernelArch::Avx512,
            KernelChoice::Auto | KernelChoice::Avx2 => {
                if simd_available() {
                    KernelArch::Avx2
                } else {
                    KernelArch::Scalar
                }
            }
        };
        KernelDispatch { arch }
    }

    /// The process-wide selection: `MATROX_KERNEL` if set (invalid values
    /// warn once and fall back to `auto`), otherwise CPU detection.
    /// Resolved once and cached for the lifetime of the process, so every
    /// caller that does not override the kernel agrees on one selection.
    pub fn global() -> Self {
        *GLOBAL.get_or_init(|| {
            let choice = match std::env::var("MATROX_KERNEL") {
                Ok(v) => v.parse().unwrap_or_else(|e| {
                    eprintln!("MATROX_KERNEL: {e}; using auto");
                    KernelChoice::Auto
                }),
                Err(_) => KernelChoice::Auto,
            };
            Self::resolve(choice)
        })
    }

    /// Resolve an explicit choice, deferring to the process-wide selection
    /// for `Auto` (so an unset per-call knob still honours
    /// `MATROX_KERNEL`).
    pub fn for_choice(choice: KernelChoice) -> Self {
        match choice {
            KernelChoice::Auto => Self::global(),
            other => Self::resolve(other),
        }
    }

    /// The portable scalar kernel (the reference the SIMD paths are pinned
    /// against).
    pub fn scalar() -> Self {
        Self::resolve(KernelChoice::Scalar)
    }

    /// Stable name for logs and benchmark output (`"scalar"` / `"avx2"` /
    /// `"avx512"`).
    pub fn name(&self) -> &'static str {
        match self.arch {
            KernelArch::Scalar => "scalar",
            KernelArch::Avx2 => "avx2",
            KernelArch::Avx512 => "avx512",
        }
    }

    /// Whether this dispatch runs a SIMD arm (AVX2 or AVX-512), whose
    /// results are one another's bit for bit.
    pub fn is_simd(&self) -> bool {
        self.arch != KernelArch::Scalar
    }

    /// `C += A * B`: `A` is `m x k`, `B` is `k x n`, `C` is `m x n`, all
    /// row-major and densely packed.
    ///
    /// # Panics
    /// Panics if a slice length differs from its shape (checked in release:
    /// the AVX2 arm stores through raw pointers).
    pub fn gemm(&self, a: &[f64], m: usize, k: usize, b: &[f64], n: usize, c: &mut [f64]) {
        check_lengths(a, b, c, m, k, n);
        self.product(false, a, k, 0, m, k, b, n, c);
    }

    /// `C += A^T * B`: `A` is stored `k x m` row-major, `B` is `k x n`,
    /// `C` is `m x n`.  Produces results bitwise identical to the explicit
    /// transpose through [`KernelDispatch::gemm`].
    ///
    /// # Panics
    /// Panics if a slice length differs from its shape.
    pub fn gemm_tn(&self, a: &[f64], k: usize, m: usize, b: &[f64], n: usize, c: &mut [f64]) {
        check_lengths(a, b, c, m, k, n);
        self.product(true, a, m, 0, m, k, b, n, c);
    }

    /// Rayon-parallel [`KernelDispatch::gemm`], splitting the rows of `C`.
    /// Bitwise identical to the sequential version at every pool width
    /// (rows accumulate independently).
    ///
    /// # Panics
    /// Panics if a slice length differs from its shape.
    pub fn par_gemm(&self, a: &[f64], m: usize, k: usize, b: &[f64], n: usize, c: &mut [f64]) {
        check_lengths(a, b, c, m, k, n);
        self.par_product(false, a, k, m, k, b, n, c);
    }

    /// Rayon-parallel [`KernelDispatch::gemm_tn`], splitting the rows of
    /// `C` (= columns of the stored `A`).  Bitwise identical to the
    /// sequential version at every pool width.
    ///
    /// # Panics
    /// Panics if a slice length differs from its shape.
    pub fn par_gemm_tn(&self, a: &[f64], k: usize, m: usize, b: &[f64], n: usize, c: &mut [f64]) {
        check_lengths(a, b, c, m, k, n);
        self.par_product(true, a, m, m, k, b, n, c);
    }

    /// The one product under every entry point: `C += op(A) * B` on this
    /// dispatch's arm.
    ///
    /// * `trans_a = false`: `A` is row-major with leading dimension `lda`,
    ///   and the product reads its rows `[i0, i0 + m)`;
    /// * `trans_a = true`: `A` is stored `k x lda` row-major, and the
    ///   product reads its columns `[i0, i0 + m)` as the rows of `A^T`.
    ///
    /// `B` is `k x n` and `C` is `m x n` (the chunk's own rows), both
    /// row-major and dense; the offset `i0` lets a row chunk read the whole
    /// `A`.
    pub(crate) fn product(
        &self,
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
        match self.arch {
            KernelArch::Scalar => scalar_product(trans_a, a, lda, i0, m, k, b, n, c),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 => avx2::gemm_blocked(trans_a, a, lda, i0, m, k, b, n, c),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx512 => avx512::gemm_blocked(trans_a, a, lda, i0, m, k, b, n, c),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }

    /// [`KernelDispatch::product`] over all `m` rows of `C`, split into row
    /// chunks over the current rayon pool; each chunk runs the product at
    /// its own offset `i0` into `A`.
    pub(crate) fn par_product(
        &self,
        trans_a: bool,
        a: &[f64],
        lda: usize,
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
        c: &mut [f64],
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let chunk_rows = par_chunk_rows(m);
        c.par_chunks_mut(chunk_rows * n)
            .enumerate()
            .for_each(|(ci, c_chunk)| {
                let rows = c_chunk.len() / n;
                self.product(trans_a, a, lda, ci * chunk_rows, rows, k, b, n, c_chunk);
            });
    }

    /// Squared distances: row `i` of `out` (stride `ldo`) gets
    /// `‖x_{rows[i]} − y_c‖²` for the columns `c` of `panels` from panel
    /// `first` on (`out[i * ldo]` is column `first * PANEL`), where `x_r`
    /// is point `r` of the row-major `coords` (as many values a point as
    /// the gathered columns have).  Each entry is one chain, `k` ascending
    /// from `0.0` with a separate `mul` and `add` and no FMA —
    /// `PointSet::dist2`'s bits on **every** arm, so this is the one
    /// routine whose arm moves speed only ([`mod@dist`]).
    ///
    /// # Panics
    /// Panics if `first` lies past the last panel, if a row index lies
    /// past `coords`, or if `out` is shorter than `rows.len()` rows of the
    /// remaining columns at stride `ldo` (checked in release: the SIMD arms
    /// read and store through raw pointers).
    pub fn dist2(
        &self,
        coords: &[f64],
        rows: &[usize],
        panels: &DistPanels,
        first: usize,
        out: &mut [f64],
        ldo: usize,
    ) {
        let (dim, y, n) = panels.panels_from(first);
        match self.arch {
            KernelArch::Scalar => dist::scalar(coords, dim, rows, y, n, out, ldo),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 => avx2::dist2(coords, dim, rows, y, n, out, ldo),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx512 => avx512::dist2(coords, dim, rows, y, n, out, ldo),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }

    /// Column-pivoted QR of `a` in its own buffer, truncated at relative
    /// tolerance `tol` and rank `max_rank` ([`crate::qr`], the ID's
    /// factorization): one [`KernelDispatch::advance_qr`] from the start.
    /// [`crate::pivoted_qr`] takes [`KernelDispatch::global`].
    pub fn pivoted_qr(&self, a: Matrix, tol: f64, max_rank: usize) -> PivotedQr {
        let mut qr = ResumableQr::new(a);
        let stop = self.advance_qr(&mut qr, tol, max_rank);
        qr.into_factor(stop)
    }

    /// Run `qr` to the stop of `(tol, max_rank)` and pause it there
    /// ([`ResumableQr::advance`]).  The one-pass steps are compiled once
    /// per arm — the SIMD arms' instances run them at AVX2 / AVX-512
    /// width, with no FMA — so **every arm returns the same bits** (rank,
    /// permutation and `R`) and the arm moves speed only.
    pub fn advance_qr(&self, qr: &mut ResumableQr, tol: f64, max_rank: usize) -> QrStop {
        match self.arch {
            KernelArch::Scalar => qr.advance_body(tol, max_rank),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 => avx2::advance_qr(qr, tol, max_rank),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx512 => avx512::advance_qr(qr, tol, max_rank),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }

    /// Triangular substitution in place ([`crate::solve`]): solve `kind`
    /// against the leading `k x k` triangle of `t`, `x` the row-major
    /// `k x q` right-hand side on entry and the solution on return.  Like
    /// [`KernelDispatch::advance_qr`], one body compiled per arm, so
    /// **every arm returns the same bits**; the `solve_*_in_place` kernels,
    /// the Cholesky and LU solves and the ID take [`KernelDispatch::global`].
    ///
    /// # Panics
    /// Panics if the factor is smaller than `k x k`, if `x` is not `k x q`,
    /// or on an exactly zero diagonal entry.
    pub fn substitute(&self, kind: Substitution, t: &Matrix, k: usize, x: &mut [f64], q: usize) {
        match self.arch {
            KernelArch::Scalar => solve::substitute(kind, t, k, x, q),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 => avx2::substitute(kind, t, k, x, q),
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx512 => avx512::substitute(kind, t, k, x, q),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }

    /// Dot product `sum_i x[i] * y[i]` (the Cholesky trailing-update
    /// primitive).  Deterministic for a fixed dispatch and length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        match self.arch {
            KernelArch::Scalar => {
                let mut s = 0.0;
                for (a, b) in x.iter().zip(y.iter()) {
                    s += a * b;
                }
                s
            }
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 | KernelArch::Avx512 => avx2::dot(x, y),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }

    /// `y += alpha * x` (the LU elimination primitive).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        match self.arch {
            KernelArch::Scalar => {
                for (yv, xv) in y.iter_mut().zip(x.iter()) {
                    *yv += alpha * xv;
                }
            }
            #[cfg(target_arch = "x86_64")]
            KernelArch::Avx2 | KernelArch::Avx512 => avx2::axpy(alpha, x, y),
            #[cfg(not(target_arch = "x86_64"))]
            KernelArch::Avx2 | KernelArch::Avx512 => {
                unreachable!("SIMD dispatch cannot exist off x86_64")
            }
        }
    }
}

/// The length check of the four public products: `A` holds `m * k` values
/// (either orientation), `B` `k * n` and `C` `m * n`.  Checked in release:
/// the AVX2 arm stores through raw pointers.
fn check_lengths(a: &[f64], b: &[f64], c: &[f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A does not hold {m} x {k} values");
    assert_eq!(b.len(), k * n, "B is not {k} x {n}");
    assert_eq!(c.len(), m * n, "C is not {m} x {n}");
}

/// Rows of `C` per parallel task: ~2 chunks per worker, at least
/// `MIN_PAR_ROWS`.
fn par_chunk_rows(m: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    m.div_ceil(threads * 2).max(MIN_PAR_ROWS).min(m.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f64], m: usize, k: usize, b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn dispatches() -> Vec<KernelDispatch> {
        let mut d = vec![
            KernelDispatch::scalar(),
            KernelDispatch::resolve(KernelChoice::Avx2),
            KernelDispatch::resolve(KernelChoice::Auto),
        ];
        d.dedup();
        d
    }

    #[test]
    fn every_dispatch_matches_naive() {
        for disp in dispatches() {
            for &(m, k, n) in &[
                (1usize, 1usize, 1usize),
                (3, 5, 7),
                (4, 8, 8),
                (5, 9, 11),
                (64, 64, 32),
                (70, 130, 9),
                (13, 300, 17),
            ] {
                let a = rand_vec(m * k, (m * 1000 + n) as u64);
                let b = rand_vec(k * n, (k * 1000 + n) as u64);
                let naive_c = naive(&a, m, k, &b, n);
                let mut c = vec![0.0; m * n];
                disp.gemm(&a, m, k, &b, n, &mut c);
                for (x, y) in c.iter().zip(&naive_c) {
                    assert!(
                        (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                        "{} diverged at m={m} k={k} n={n}",
                        disp.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tn_matches_explicit_transpose_bitwise() {
        for disp in dispatches() {
            for &(k, m, n) in &[(5usize, 7usize, 6usize), (64, 33, 8), (130, 70, 40)] {
                let a = rand_vec(k * m, 7); // stored k x m
                let b = rand_vec(k * n, 8);
                // Explicit transpose through the NoTrans path.
                let mut at = vec![0.0; m * k];
                for p in 0..k {
                    for i in 0..m {
                        at[i * k + p] = a[p * m + i];
                    }
                }
                let mut c1 = vec![0.5; m * n];
                let mut c2 = vec![0.5; m * n];
                disp.gemm(&at, m, k, &b, n, &mut c1);
                disp.gemm_tn(&a, k, m, &b, n, &mut c2);
                assert!(
                    c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{}: TN and explicit-transpose paths diverged",
                    disp.name()
                );
            }
        }
    }

    #[test]
    fn par_paths_are_bitwise_equal_to_sequential() {
        for disp in dispatches() {
            let (m, k, n) = (137usize, 45usize, 23usize);
            let a = rand_vec(m * k, 21);
            let b = rand_vec(k * n, 22);
            let mut c_seq = vec![0.0; m * n];
            let mut c_par = vec![0.0; m * n];
            disp.gemm(&a, m, k, &b, n, &mut c_seq);
            disp.par_gemm(&a, m, k, &b, n, &mut c_par);
            assert!(c_seq
                .iter()
                .zip(&c_par)
                .all(|(x, y)| x.to_bits() == y.to_bits()));

            let at = rand_vec(k * m, 23); // k x m for the TN path
            let mut t_seq = vec![0.0; m * n];
            let mut t_par = vec![0.0; m * n];
            disp.gemm_tn(&at, k, m, &b, n, &mut t_seq);
            disp.par_gemm_tn(&at, k, m, &b, n, &mut t_par);
            assert!(t_seq
                .iter()
                .zip(&t_par)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn column_grouping_never_changes_results() {
        // The RHS-panel independence the executor relies on: computing a
        // product in column panels must equal the full-width product bit
        // for bit, for every dispatch.
        for disp in dispatches() {
            let (m, k, n) = (24usize, 40usize, 19usize);
            let a = rand_vec(m * k, 41);
            let b = rand_vec(k * n, 42);
            let mut full = vec![0.0; m * n];
            disp.gemm(&a, m, k, &b, n, &mut full);
            for panel in [1usize, 4, 8, 11] {
                let mut out = vec![0.0; m * n];
                let mut j0 = 0;
                while j0 < n {
                    let j1 = (j0 + panel).min(n);
                    let w = j1 - j0;
                    let bp: Vec<f64> = (0..k)
                        .flat_map(|p| b[p * n + j0..p * n + j1].to_vec())
                        .collect();
                    let mut cp = vec![0.0; m * w];
                    disp.gemm(&a, m, k, &bp, w, &mut cp);
                    for i in 0..m {
                        out[i * n + j0..i * n + j1].copy_from_slice(&cp[i * w..(i + 1) * w]);
                    }
                    j0 = j1;
                }
                assert!(
                    full.iter()
                        .zip(&out)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{}: panel width {panel} changed results",
                    disp.name()
                );
            }
        }
    }

    #[test]
    fn dot_and_axpy_match_scalar_within_tolerance() {
        for disp in dispatches() {
            for len in [0usize, 1, 3, 4, 15, 16, 17, 64, 100] {
                let x = rand_vec(len, len as u64 + 1);
                let y = rand_vec(len, len as u64 + 2);
                let reference: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                let d = disp.dot(&x, &y);
                assert!(
                    (d - reference).abs() <= 1e-12 * (1.0 + reference.abs()),
                    "{} dot diverged at len {len}",
                    disp.name()
                );
                let mut y1 = y.clone();
                disp.axpy(0.37, &x, &mut y1);
                for (i, v) in y1.iter().enumerate() {
                    let want = 0.37 * x[i] + y[i];
                    assert!((v - want).abs() <= 1e-14 * (1.0 + want.abs()));
                }
            }
        }
    }

    #[test]
    fn choice_parsing_and_fallback() {
        assert_eq!("auto".parse::<KernelChoice>().unwrap(), KernelChoice::Auto);
        assert_eq!(
            "SCALAR".parse::<KernelChoice>().unwrap(),
            KernelChoice::Scalar
        );
        assert_eq!("avx2".parse::<KernelChoice>().unwrap(), KernelChoice::Avx2);
        assert!("sse9".parse::<KernelChoice>().is_err());

        assert!(!KernelDispatch::scalar().is_simd());
        // Requesting AVX2 must resolve to *something* runnable everywhere:
        // the microkernel when the CPU has it, scalar otherwise.
        let d = KernelDispatch::resolve(KernelChoice::Avx2);
        assert_eq!(d.is_simd(), simd_available());
        let auto = KernelDispatch::resolve(KernelChoice::Auto);
        assert_eq!(auto.is_simd(), simd_available());
        // `Auto` takes the widest arm; `Avx2` pins the 256-bit one.
        assert_eq!(auto.name() == "avx512", avx512_available());
        assert_ne!(d.name(), "avx512");
    }
}
