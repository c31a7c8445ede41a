//! Dense kernel and distance blocks, evaluated across pairs.
//!
//! Every kernel entry the workspace stores comes from here.  A squared
//! distance is one chain per pair — `k` ascending, summed from `0.0`, no
//! FMA — exactly [`PointSet::dist2`] and [`Kernel::eval`]'s, so each entry
//! is bitwise the one `Kernel::eval` returns.  The chains of different pairs
//! are independent, so the inner loop runs *across* them: the column points
//! are gathered transposed in panels of eight columns (`d × 8` each), and a
//! row holds one panel's accumulators in registers across all `d`
//! coordinates — no reassociation, and the compiler vectorises across
//! columns.
//!
//! Every kernel is radial and `(a − b)² == (b − a)²` exactly, so
//! `K(x, y)` and `K(y, x)` are the same bits.  The symmetric forms below
//! evaluate each unordered pair once (the upper triangle, mirrored), and the
//! inspector stores a block's transpose for its twin (`compress`).

use crate::{Kernel, PointSet};
use matrox_linalg::Matrix;
use rayon::prelude::*;

/// Columns per register block: one panel's accumulators stay in registers
/// across every coordinate.
const LANES: usize = 8;

/// Column points gathered transposed, `LANES` columns a panel: coordinate
/// `k` of column `c` sits at `(c / LANES) * d * LANES + k * LANES + c %
/// LANES`.  The last panel is padded with zeros whose results are dropped.
///
/// Each block function allocates the blocks it returns before it gathers
/// the panels, so the panels are freed above what the caller keeps and do
/// not leave holes among stored blocks.
struct Panels {
    dim: usize,
    data: Vec<f64>,
}

impl Panels {
    fn gather(points: &PointSet, cols: &[usize]) -> Self {
        let dim = points.dim();
        let mut data = vec![0.0; cols.len().div_ceil(LANES) * dim * LANES];
        for (panel, group) in data.chunks_exact_mut(dim * LANES).zip(cols.chunks(LANES)) {
            for (l, &j) in group.iter().enumerate() {
                for (k, &x) in points.point(j).iter().enumerate() {
                    panel[k * LANES + l] = x;
                }
            }
        }
        Panels { dim, data }
    }

    /// `out[c] = ‖x − y_c‖²` for the columns from panel `first` on
    /// (`out[0]` is column `first * LANES`), each as the pair's own chain.
    fn dist2_row(&self, x: &[f64], first: usize, out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim);
        let step = self.dim * LANES;
        for (panel, chunk) in self.data[first * step..]
            .chunks_exact(step)
            .zip(out.chunks_mut(LANES))
        {
            let mut acc = [0.0f64; LANES];
            for (&xk, yk) in x.iter().zip(panel.chunks_exact(LANES)) {
                for l in 0..LANES {
                    let d = xk - yk[l];
                    acc[l] += d * d;
                }
            }
            chunk.copy_from_slice(&acc[..chunk.len()]);
        }
    }

    /// One row of `K(x, cols)`.
    fn kernel_row(&self, kernel: &Kernel, x: &[f64], row: &mut [f64]) {
        self.dist2_row(x, 0, row);
        row.iter_mut().for_each(|v| *v = kernel.eval_dist2(*v));
    }
}

/// Evaluate the dense kernel block `K(rows, cols)` for the given global point
/// indices.  This is the only way the rest of the workspace touches kernel
/// entries, mirroring the "implicit" kernel matrix of the paper.  Every
/// entry is bitwise `kernel.eval(points.point(i), points.point(j))`.
pub fn kernel_block(points: &PointSet, kernel: &Kernel, rows: &[usize], cols: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    let panels = Panels::gather(points, cols);
    for (row, &i) in out.as_mut_slice().chunks_mut(cols.len().max(1)).zip(rows) {
        panels.kernel_row(kernel, points.point(i), row);
    }
    out
}

/// Parallel version of [`kernel_block`] for large blocks (used by the dense
/// GEMM baseline and the accuracy checks, where the block is `N x N`-ish).
/// The same row body, so the same bits.
pub fn kernel_block_par(
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    let panels = Panels::gather(points, cols);
    out.as_mut_slice()
        .par_chunks_mut(cols.len().max(1))
        .zip(rows.par_iter())
        .for_each(|(row, &i)| panels.kernel_row(kernel, points.point(i), row));
    out
}

/// `(K(rows, cols), K(cols, rows))` with each entry evaluated once: the
/// second block is the transpose of the first, bit for bit.
pub fn kernel_block_twins(
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> (Matrix, Matrix) {
    let (m, n) = (rows.len(), cols.len());
    let mut out = Matrix::zeros(m, n);
    let mut twin = Matrix::zeros(n, m);
    let panels = Panels::gather(points, cols);
    let twin_data = twin.as_mut_slice();
    for (r, (row, &i)) in out
        .as_mut_slice()
        .chunks_mut(n.max(1))
        .zip(rows)
        .enumerate()
    {
        panels.kernel_row(kernel, points.point(i), row);
        for (c, &v) in row.iter().enumerate() {
            twin_data[c * m + r] = v;
        }
    }
    (out, twin)
}

/// `f(‖x_a − x_b‖²)` for every pair of `idx`, each unordered pair computed
/// once: row `r` evaluates columns `r..` (from the panel holding `r`), and
/// the strict upper triangle is mirrored below it.
fn symmetric_block(points: &PointSet, idx: &[usize], f: impl Fn(f64) -> f64) -> Matrix {
    let n = idx.len();
    let mut out = Matrix::zeros(n, n);
    let panels = Panels::gather(points, idx);
    for (r, &i) in idx.iter().enumerate() {
        let first = r / LANES;
        let row = out.row_mut(r);
        panels.dist2_row(points.point(i), first, &mut row[first * LANES..]);
        row[r..].iter_mut().for_each(|v| *v = f(*v));
    }
    let data = out.as_mut_slice();
    for r in 0..n {
        for c in r + 1..n {
            data[c * n + r] = data[r * n + c];
        }
    }
    out
}

/// The squared distances `‖x_a − x_b‖²` between every pair of `idx`
/// (`idx.len()²`, row-major), each unordered pair computed once.  Entry
/// `(a, b)` is bitwise `points.dist2(idx[a], idx[b])`.
pub fn dist2_block_symmetric(points: &PointSet, idx: &[usize]) -> Matrix {
    symmetric_block(points, idx, |d2| d2)
}

/// [`kernel_block`]`(points, kernel, idx, idx)` with each unordered pair
/// evaluated once; the same bits.
pub fn kernel_block_symmetric(points: &PointSet, kernel: &Kernel, idx: &[usize]) -> Matrix {
    symmetric_block(points, idx, |d2| kernel.eval_dist2(d2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    const KERNELS: [Kernel; 5] = [
        Kernel::Gaussian { bandwidth: 0.9 },
        Kernel::GaussianRidge {
            bandwidth: 1.3,
            ridge: 0.25,
        },
        Kernel::InverseDistance { diag: 3.0 },
        Kernel::Laplace { bandwidth: 0.7 },
        Kernel::Cauchy { bandwidth: 1.1 },
    ];

    /// `n` points in `dim` dimensions, every fourth a copy of an earlier one,
    /// so distinct indices at zero distance exercise the `d2 == 0` branches.
    fn points_with_duplicates(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coords: Vec<f64> = Vec::with_capacity(n * dim);
        for i in 0..n {
            if i % 4 == 3 {
                let j = rng.gen_range(0..i);
                coords.extend_from_within(j * dim..(j + 1) * dim);
            } else {
                coords.extend((0..dim).map(|_| rng.gen_range(-2.0..2.0)));
            }
        }
        PointSet::new(dim, coords)
    }

    fn assert_entries_are_eval(pts: &PointSet, kernel: &Kernel, rows: &[usize], cols: &[usize]) {
        let what = format!(
            "{} d {} {}x{}",
            kernel.name(),
            pts.dim(),
            rows.len(),
            cols.len()
        );
        for block in [
            kernel_block(pts, kernel, rows, cols),
            kernel_block_par(pts, kernel, rows, cols),
        ] {
            assert_eq!(block.shape(), (rows.len(), cols.len()), "{what}");
            for (a, &i) in rows.iter().enumerate() {
                for (b, &j) in cols.iter().enumerate() {
                    let want = kernel.eval(pts.point(i), pts.point(j));
                    assert_eq!(
                        block.get(a, b).to_bits(),
                        want.to_bits(),
                        "{what} ({a}, {b})"
                    );
                }
            }
        }
    }

    /// Every entry is `Kernel::eval`'s, by bits: all five kernels, the
    /// dimensions the workloads use and odd ones, empty row and column
    /// sets, column counts on and off the register block, coincident points.
    #[test]
    fn kernel_block_matches_eval_bitwise() {
        for dim in [1, 2, 3, 7, 54] {
            let pts = points_with_duplicates(37, dim, dim as u64);
            let all: Vec<usize> = (0..37).collect();
            let scattered: Vec<usize> = (0..37).rev().step_by(3).collect();
            for kernel in &KERNELS {
                for (rows, cols) in [
                    (&all[..], &all[..]),
                    (&all[..0], &all[..]),
                    (&all[..], &all[..0]),
                    (&all[5..6], &all[..8]),
                    (&all[2..19], &all[11..20]),
                    (&scattered[..], &all[..]),
                    (&all[..], &scattered[..]),
                ] {
                    assert_entries_are_eval(&pts, kernel, rows, cols);
                }
            }
        }
    }

    /// The symmetric forms compute each unordered pair once and return the
    /// bits of the full evaluation.
    #[test]
    fn symmetric_blocks_match_the_full_block_bitwise() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [1, 3, 54] {
            let pts = points_with_duplicates(41, dim, 7 + dim as u64);
            for n in [0, 1, 7, 8, 9, 16, 17, 41] {
                let idx: Vec<usize> = (0..n).map(|i| (i * 17) % 41).collect();
                let d2 = dist2_block_symmetric(&pts, &idx);
                assert_eq!(d2.shape(), (n, n));
                for (a, &i) in idx.iter().enumerate() {
                    for (b, &j) in idx.iter().enumerate() {
                        assert_eq!(d2.get(a, b).to_bits(), pts.dist2(i, j).to_bits());
                    }
                }
                for kernel in &KERNELS {
                    let full = kernel_block(&pts, kernel, &idx, &idx);
                    let sym = kernel_block_symmetric(&pts, kernel, &idx);
                    assert_eq!(bits(&sym), bits(&full), "{} d {dim} n {n}", kernel.name());
                }
            }
        }
    }

    /// The twin contract the inspector stores transposes on:
    /// `K(b, a) == K(a, b)ᵀ` bit for bit.
    #[test]
    fn twin_blocks_are_transposes_bitwise() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [2, 54] {
            let pts = points_with_duplicates(40, dim, 3 * dim as u64);
            let a: Vec<usize> = (0..23).collect();
            let b: Vec<usize> = (17..40).rev().collect();
            for kernel in &KERNELS {
                let ab = kernel_block(&pts, kernel, &a, &b);
                let ba = kernel_block(&pts, kernel, &b, &a);
                assert_eq!(
                    bits(&ba),
                    bits(&ab.transpose()),
                    "{} d {dim}",
                    kernel.name()
                );
                let (ab2, ba2) = kernel_block_twins(&pts, kernel, &a, &b);
                assert_eq!(bits(&ab2), bits(&ab), "{} d {dim}", kernel.name());
                assert_eq!(bits(&ba2), bits(&ba), "{} d {dim}", kernel.name());
            }
        }
    }

    /// The oracle at the inspector's shapes on `ml_wide`'s covtype-like set
    /// (d = 54): a 64-leaf near block and its diagonal, a sample block
    /// `K(S_i, rows)`, and a benchmark-probe-like slab of rows against
    /// every point.
    #[test]
    #[ignore = "release-only: cargo test --release -p matrox-points -- --ignored matches_reference_at_workload_shapes"]
    fn kernel_block_matches_reference_at_workload_shapes() {
        let pts = crate::generate(crate::DatasetId::Covtype, 16384, 6);
        let kernel = Kernel::Gaussian { bandwidth: 5.0 };
        let all: Vec<usize> = (0..16384).collect();
        let leaf: Vec<usize> = (0..16384).step_by(256).collect();
        let samples: Vec<usize> = (7..16384).step_by(255).collect();
        assert_entries_are_eval(&pts, &kernel, &leaf, &all[64..128]);
        assert_entries_are_eval(&pts, &kernel, &samples, &leaf);
        assert_entries_are_eval(&pts, &kernel, &all[..32], &all);
        let sym = kernel_block_symmetric(&pts, &kernel, &leaf);
        assert_eq!(sym, kernel_block(&pts, &kernel, &leaf, &leaf));
    }
}
