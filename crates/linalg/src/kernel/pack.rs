//! Operand packing for the register-blocked microkernel.
//!
//! The AVX2 arm packs only operands too large to read in place (more than
//! the `MC x KC` / `KC x NC` buffers below hold; see the kernel-layer docs):
//! it copies a block of `A` and a block of `B` into buffers whose layout
//! matches the microkernel's register tiling, so the inner loop reads both
//! operands with stride 1 and strided rows of a wide operand cannot alias
//! L1 sets.  Smaller operands (every CDS block and RHS panel) are read
//! where they lie, by the same microkernel.  The formats (the
//! "panel-major" layouts every BLIS-style kernel uses) are:
//!
//! * **packed `A`** — the `mb x kb` block is cut into panels of [`MR`] rows;
//!   within a panel the elements are stored column-by-column (`p` major,
//!   then row-within-panel), so the microkernel reads the [`MR`] values of
//!   one `p` as one contiguous group.  Element `(i, p)` of the block lives at
//!   `(i / MR) * MR * kb + p * MR + i % MR`.
//! * **packed `B`** — the `kb x nb` block is cut into panels of [`NR`]
//!   columns; within a panel the elements are stored row-by-row, so one `p`
//!   contributes [`NR`] contiguous values.  Element `(p, j)` lives at
//!   `(j / NR) * NR * kb + p * NR + j % NR`.
//!
//! The last panel of each operand is **zero-padded** to the full [`MR`] /
//! [`NR`] width.  The microkernel always computes full `MR x NR` tiles;
//! products involving the padding multiply zeros into result lanes that are
//! never written back, so padding changes no observable value (see the
//! bitwise-determinism contract in the crate docs).
//!
//! The block sizes [`MC`] / [`KC`] / [`NC`] are constants below, derived by
//! the Goto rules from one machine model ([`L1_BYTES`], [`L2_BYTES`]).  They
//! decide which products are packed and how, never a result bit: every
//! output element accumulates its `k` products in storage order whatever
//! the blocks are.
#![cfg_attr(
    not(target_arch = "x86_64"),
    allow(dead_code, reason = "only the x86_64 AVX2 arm packs")
)]

/// Microkernel tile height (rows of `C` per register tile).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` per register tile).
pub const NR: usize = 8;

/// Per-core L1 data cache the block sizes are derived for: 32 KiB, the
/// Haswell-class testbed of the paper's Section 4.1 and a conservative fit
/// for every x86 server since.
pub const L1_BYTES: usize = 32 * 1024;
/// Per-core private L2 the block sizes are derived for: 512 KiB.
pub const L2_BYTES: usize = 512 * 1024;

const F64_BYTES: usize = std::mem::size_of::<f64>();

/// Depth of the packed `A` / `B` panels (Goto's rule): one `MR x KC` panel
/// of `A` plus one `KC x NR` panel of `B` fill at most half of L1, the
/// other half absorbing the `C` tile and stack traffic; a multiple of 4.
pub const KC: usize = {
    let raw = L1_BYTES / 2 / (F64_BYTES * (MR + NR));
    raw - raw % 4
};
/// Rows of a `KC`-deep block that fill half of L2.
const HALF_L2_ROWS: usize = L2_BYTES / 2 / (F64_BYTES * KC);
/// Rows of the packed `A` block: the whole `MC x KC` block fills at most
/// half of L2, leaving room for the streamed `B` panel; whole `MR` panels.
pub const MC: usize = HALF_L2_ROWS - HALF_L2_ROWS % MR;
/// Columns of the packed `B` block: the same half-L2 bound in columns
/// (there is no per-core L3 model, and RHS panels are narrow anyway);
/// whole `NR` panels.
pub const NC: usize = HALF_L2_ROWS - HALF_L2_ROWS % NR;

const _: () = assert!(KC * (MR + NR) * F64_BYTES <= L1_BYTES / 2);
const _: () = assert!(MC * KC * F64_BYTES <= L2_BYTES / 2);
const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));
// Deep enough to amortise the `C` tile's round trips.
const _: () = assert!(KC >= 64);

/// Length of the packed-`A` buffer for an `mb x kb` block (`mb` rounded up
/// to whole [`MR`]-row panels).
pub(crate) fn packed_a_len(mb: usize, kb: usize) -> usize {
    mb.div_ceil(MR) * MR * kb
}

/// Length of the packed-`B` buffer for a `kb x nb` block (`nb` rounded up
/// to whole [`NR`]-column panels).
pub(crate) fn packed_b_len(nb: usize, kb: usize) -> usize {
    nb.div_ceil(NR) * NR * kb
}

/// Pack rows `[i0, i0 + mb)` x columns `[p0, p0 + kb)` of the row-major
/// matrix `a` (leading dimension `lda`) into `out` in packed-`A` layout.
///
/// `out[..packed_a_len(mb, kb)]` is fully overwritten, padding included, so
/// a reused (possibly stale) scratch buffer is safe.
pub(crate) fn pack_a(
    a: &[f64],
    lda: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    out: &mut [f64],
) {
    let panels = mb.div_ceil(MR);
    for t in 0..panels {
        let rows_here = MR.min(mb - t * MR);
        let panel = &mut out[t * MR * kb..(t + 1) * MR * kb];
        for p in 0..kb {
            for r in 0..rows_here {
                panel[p * MR + r] = a[(i0 + t * MR + r) * lda + p0 + p];
            }
            for r in rows_here..MR {
                panel[p * MR + r] = 0.0;
            }
        }
    }
}

/// Like [`pack_a`], but packs a block of the *transpose* of `a`: `a` is
/// stored `k x m` row-major (leading dimension `lda = m`), and the packed
/// block covers rows `[i0, i0 + mb)` x columns `[p0, p0 + kb)` of `A^T`,
/// i.e. element `(i, p)` is read from `a[(p0 + p) * lda + i0 + i]`.
///
/// This is the upward-pass (`T_i = V_i^T W_i`) packing: `V` is stored
/// untransposed in CDS and the transpose happens for free during the copy.
pub(crate) fn pack_a_trans(
    a: &[f64],
    lda: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    out: &mut [f64],
) {
    let panels = mb.div_ceil(MR);
    for t in 0..panels {
        let rows_here = MR.min(mb - t * MR);
        let panel = &mut out[t * MR * kb..(t + 1) * MR * kb];
        for p in 0..kb {
            let arow = &a[(p0 + p) * lda..];
            for r in 0..rows_here {
                panel[p * MR + r] = arow[i0 + t * MR + r];
            }
            for r in rows_here..MR {
                panel[p * MR + r] = 0.0;
            }
        }
    }
}

/// Pack rows `[p0, p0 + kb)` x columns `[j0, j0 + nb)` of the row-major
/// matrix `b` (leading dimension `ldb`) into `out` in packed-`B` layout.
pub(crate) fn pack_b(
    b: &[f64],
    ldb: usize,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    out: &mut [f64],
) {
    let panels = nb.div_ceil(NR);
    for u in 0..panels {
        let cols_here = NR.min(nb - u * NR);
        let panel = &mut out[u * NR * kb..(u + 1) * NR * kb];
        for p in 0..kb {
            let brow = &b[(p0 + p) * ldb + j0 + u * NR..];
            for cidx in 0..cols_here {
                panel[p * NR + cidx] = brow[cidx];
            }
            for cidx in cols_here..NR {
                panel[p * NR + cidx] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read element `(i, p)` back out of a packed-A buffer.
    fn packed_a_get(buf: &[f64], kb: usize, i: usize, p: usize) -> f64 {
        buf[(i / MR) * MR * kb + p * MR + i % MR]
    }

    /// Read element `(p, j)` back out of a packed-B buffer.
    fn packed_b_get(buf: &[f64], kb: usize, p: usize, j: usize) -> f64 {
        buf[(j / NR) * NR * kb + p * NR + j % NR]
    }

    #[test]
    fn pack_a_round_trips_with_zero_padding() {
        // Deliberately awkward shapes: m < MR, m % MR != 0, k = 0.
        for (m, k) in [(1usize, 5usize), (3, 7), (6, 4), (4, 0), (9, 1)] {
            let a: Vec<f64> = (0..m * k).map(|x| x as f64 + 1.0).collect();
            let mut out = vec![f64::NAN; packed_a_len(m, k)];
            pack_a(&a, k.max(1), 0, m, 0, k, &mut out);
            for i in 0..m.div_ceil(MR) * MR {
                for p in 0..k {
                    let expect = if i < m { a[i * k.max(1) + p] } else { 0.0 };
                    assert_eq!(packed_a_get(&out, k, i, p), expect, "(i={i}, p={p})");
                }
            }
        }
    }

    #[test]
    fn pack_a_trans_reads_the_transpose() {
        let (k, m) = (5usize, 7usize); // a is k x m, block covers all of A^T
        let a: Vec<f64> = (0..k * m).map(|x| (x as f64).sin()).collect();
        let mut out = vec![f64::NAN; packed_a_len(m, k)];
        pack_a_trans(&a, m, 0, m, 0, k, &mut out);
        for i in 0..m {
            for p in 0..k {
                assert_eq!(packed_a_get(&out, k, i, p), a[p * m + i]);
            }
        }
    }

    #[test]
    fn pack_b_round_trips_with_zero_padding() {
        for (k, n) in [(4usize, 3usize), (2, 8), (5, 17), (0, 9), (1, 1)] {
            let b: Vec<f64> = (0..k * n).map(|x| x as f64 * 0.5 - 3.0).collect();
            let mut out = vec![f64::NAN; packed_b_len(n, k)];
            pack_b(&b, n.max(1), 0, k, 0, n, &mut out);
            for p in 0..k {
                for j in 0..n.div_ceil(NR) * NR {
                    let expect = if j < n { b[p * n.max(1) + j] } else { 0.0 };
                    assert_eq!(packed_b_get(&out, k, p, j), expect, "(p={p}, j={j})");
                }
            }
        }
    }

    #[test]
    fn sub_block_packing_matches_full_packing() {
        // Packing a sub-block must read exactly the sub-block's elements.
        let (m, k) = (11usize, 9usize);
        let a: Vec<f64> = (0..m * k).map(|x| x as f64).collect();
        let (i0, mb, p0, kb) = (4usize, 5usize, 2usize, 6usize);
        let mut out = vec![f64::NAN; packed_a_len(mb, kb)];
        pack_a(&a, k, i0, mb, p0, kb, &mut out);
        for i in 0..mb {
            for p in 0..kb {
                assert_eq!(packed_a_get(&out, kb, i, p), a[(i0 + i) * k + p0 + p]);
            }
        }
    }
}
