//! Squared-distance blocks: the body under every kernel entry the
//! workspace stores (`matrox_points::block`).
//!
//! `‖x − y‖²` is one chain per pair: `Σ_k (x_k − y_k)²` over `k` ascending,
//! summed from `0.0`, a separate `mul` and `add` per step and no FMA —
//! exactly `PointSet::dist2` and `Kernel::eval`.  The chains of different
//! pairs are independent, so every arm runs them *across* pairs and none
//! reassociates one:
//!
//! * the column points are gathered transposed into [`DistPanels`],
//!   [`PANEL`] columns a panel (`d × 8` values each, coordinate-major), so
//!   one coordinate of a panel's eight columns is one contiguous load;
//! * **scalar** — one row at a time, the panel's eight accumulators held
//!   across all `d` coordinates (the compiler vectorises the lanes).  It
//!   is the oracle and the arm of hosts without SIMD (and of Miri);
//! * **avx2** / **avx512** — one body over both lane types
//!   (`kernel/lanes.rs`): four rows at a time against one panel, so four
//!   independent accumulator vectors per coordinate step (one `zmm`, or two
//!   `ymm`, per row), `sub`, `mul`, `add` on every lane.
//!
//! Each lane rounds each `sub`, `mul` and `add` once, as the scalar loop
//! does, so **every arm returns the same bits** — the distance arm moves
//! speed only, which is why callers use the process-wide
//! [`KernelDispatch::global`](super::KernelDispatch::global) rather than a
//! per-model selection.  Pinned by `matrox_points::block`'s arm oracle
//! (every arm the host runs against `PointSet::dist2` / `Kernel::eval`) and
//! by `tests/kernel_dispatch.rs`'s `dist2_chain_oracle_sweep` (release).

/// Columns per panel: one `zmm` (or two `ymm`) of accumulators per row.
pub const PANEL: usize = 8;

/// Column points gathered transposed, [`PANEL`] columns a panel:
/// coordinate `k` of column `c` sits at `(c / PANEL) * d * PANEL + k *
/// PANEL + c % PANEL`.  The last panel is padded with zeros whose results
/// no arm stores.
#[derive(Debug, Clone)]
pub struct DistPanels {
    dim: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DistPanels {
    /// Gather the points `cols` of the row-major `coords` (`dim` values a
    /// point).
    ///
    /// # Panics
    /// Panics if `dim == 0` or a column index lies past `coords`.
    pub fn gather(coords: &[f64], dim: usize, cols: &[usize]) -> Self {
        assert!(dim > 0, "DistPanels: dimension must be positive");
        let mut data = vec![0.0; cols.len().div_ceil(PANEL) * dim * PANEL];
        for (panel, group) in data.chunks_exact_mut(dim * PANEL).zip(cols.chunks(PANEL)) {
            for (l, &j) in group.iter().enumerate() {
                for (k, &x) in coords[j * dim..(j + 1) * dim].iter().enumerate() {
                    panel[k * PANEL + l] = x;
                }
            }
        }
        DistPanels {
            dim,
            cols: cols.len(),
            data,
        }
    }

    /// The dimension, the panels from `first` on, and the number of columns
    /// they hold.
    ///
    /// # Panics
    /// Panics if `first` lies past the last panel.
    pub(super) fn panels_from(&self, first: usize) -> (usize, &[f64], usize) {
        let step = self.dim * PANEL;
        (
            self.dim,
            &self.data[first * step..],
            self.cols.saturating_sub(first * PANEL),
        )
    }
}

/// The release bounds check every distance arm runs before it reads a
/// point: `coords` holds whole `dim`-value points and every `rows` index
/// names one of them, `panels` holds the `n` columns it claims, and `out`
/// holds `rows.len()` rows of `n` values at stride `ldo >= n`.
///
/// # Panics
/// Panics if one of them does not hold.
pub(super) fn assert_operands(
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &[f64],
    ldo: usize,
) {
    assert!(
        dim > 0 && coords.len().is_multiple_of(dim),
        "dist2: {} coordinates are not whole {dim}-value points",
        coords.len()
    );
    let points = coords.len() / dim;
    assert!(
        rows.iter().all(|&r| r < points),
        "dist2: a row index lies past the {points} points"
    );
    assert!(
        n.div_ceil(PANEL) * dim * PANEL <= panels.len(),
        "dist2: {} panel values do not hold {n} columns",
        panels.len()
    );
    if !rows.is_empty() && n > 0 {
        assert!(
            ldo >= n
                && (rows.len() - 1)
                    .checked_mul(ldo)
                    .and_then(|x| x.checked_add(n))
                    .is_some_and(|len| len <= out.len()),
            "dist2: out ({} values) is shorter than {} rows of {n} at stride {ldo}",
            out.len(),
            rows.len()
        );
    }
}

/// The scalar arm: row `i` of `out` (stride `ldo`) gets the squared
/// distances from point `rows[i]` to the `n` columns of `panels`, one row
/// at a time, each pair its own chain.
pub(super) fn scalar(
    coords: &[f64],
    dim: usize,
    rows: &[usize],
    panels: &[f64],
    n: usize,
    out: &mut [f64],
    ldo: usize,
) {
    assert_operands(coords, dim, rows, panels, n, out, ldo);
    if rows.is_empty() || n == 0 {
        return;
    }
    let step = dim * PANEL;
    for (&r, out_row) in rows.iter().zip(out.chunks_mut(ldo)) {
        let x = &coords[r * dim..(r + 1) * dim];
        for (panel, chunk) in panels
            .chunks_exact(step)
            .zip(out_row[..n].chunks_mut(PANEL))
        {
            let mut acc = [0.0f64; PANEL];
            for (&xk, yk) in x.iter().zip(panel.chunks_exact(PANEL)) {
                for l in 0..PANEL {
                    let d = xk - yk[l];
                    acc[l] += d * d;
                }
            }
            chunk.copy_from_slice(&acc[..chunk.len()]);
        }
    }
}
