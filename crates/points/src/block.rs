//! Dense kernel and distance blocks, evaluated across pairs.
//!
//! Every kernel entry the workspace stores comes from here.  A squared
//! distance is one chain per pair — `k` ascending, summed from `0.0`, no
//! FMA — exactly [`PointSet::dist2`] and [`Kernel::eval`]'s, so each entry
//! is bitwise the one `Kernel::eval` returns.  The chains of different pairs
//! are independent, so the kernel layer runs them *across* pairs
//! ([`KernelDispatch::dist2`]): the column points are gathered transposed
//! in panels of eight columns ([`DistPanels`]), and the SIMD arms run four
//! rows against one panel at a time, each pair's accumulator in its own
//! lane over all `d` coordinates — no reassociation.  Every distance arm
//! returns the same bits, so the blocks run on the process-wide
//! [`KernelDispatch::global`]: `MATROX_KERNEL` and the CPU move their speed,
//! never an entry.
//!
//! Every kernel is radial and `(a − b)² == (b − a)²` exactly, so
//! `K(x, y)` and `K(y, x)` are the same bits.  The symmetric forms below
//! evaluate each unordered pair once (the upper triangle, mirrored), and the
//! inspector stores a block's transpose for its twin (`compress`).
//!
//! Each block function allocates the blocks it returns before it gathers
//! the panels, so the panels are freed above what the caller keeps and do
//! not leave holes among stored blocks.

use crate::{Kernel, PointSet};
use matrox_linalg::kernel::{DistPanels, KernelDispatch, PANEL};
use matrox_linalg::Matrix;
use rayon::prelude::*;

/// Rows of `K(rows, cols)` per parallel task in [`kernel_block_par`].
const PAR_ROWS: usize = 2 * PANEL;

/// `f(‖x_i − y_j‖²)` for every pair of `rows` × `cols` on `disp`'s distance
/// arm.
fn block(
    disp: KernelDispatch,
    points: &PointSet,
    rows: &[usize],
    cols: &[usize],
    f: impl Fn(f64) -> f64,
) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), cols.len());
    let panels = DistPanels::gather(points.coords(), points.dim(), cols);
    let data = out.as_mut_slice();
    disp.dist2(points.coords(), rows, &panels, 0, data, cols.len());
    data.iter_mut().for_each(|v| *v = f(*v));
    out
}

/// Evaluate the dense kernel block `K(rows, cols)` for the given global point
/// indices.  This is the only way the rest of the workspace touches kernel
/// entries, mirroring the "implicit" kernel matrix of the paper.  Every
/// entry is bitwise `kernel.eval(points.point(i), points.point(j))`.
pub fn kernel_block(points: &PointSet, kernel: &Kernel, rows: &[usize], cols: &[usize]) -> Matrix {
    block(KernelDispatch::global(), points, rows, cols, |d2| {
        kernel.eval_dist2(d2)
    })
}

/// [`kernel_block`] on `disp`, split into [`PAR_ROWS`]-row tasks over the
/// pool.
fn block_par(
    disp: KernelDispatch,
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    let n = cols.len();
    let mut out = Matrix::zeros(rows.len(), n);
    if n == 0 {
        return out;
    }
    let panels = DistPanels::gather(points.coords(), points.dim(), cols);
    out.as_mut_slice()
        .par_chunks_mut(PAR_ROWS * n)
        .enumerate()
        .for_each(|(t, chunk)| {
            let task_rows = &rows[t * PAR_ROWS..][..chunk.len() / n];
            disp.dist2(points.coords(), task_rows, &panels, 0, chunk, n);
            chunk.iter_mut().for_each(|v| *v = kernel.eval_dist2(*v));
        });
    out
}

/// Parallel version of [`kernel_block`] for large blocks (used by the dense
/// GEMM baseline and the accuracy checks, where the block is `N x N`-ish).
/// The same chains, so the same bits.
pub fn kernel_block_par(
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    block_par(KernelDispatch::global(), points, kernel, rows, cols)
}

/// [`kernel_block_twins`] on `disp`.
fn twins(
    disp: KernelDispatch,
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> (Matrix, Matrix) {
    let (m, n) = (rows.len(), cols.len());
    let mut twin = Matrix::zeros(n, m);
    let out = block(disp, points, rows, cols, |d2| kernel.eval_dist2(d2));
    let twin_data = twin.as_mut_slice();
    for (r, row) in out.as_slice().chunks(n.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            twin_data[c * m + r] = v;
        }
    }
    (out, twin)
}

/// `(K(rows, cols), K(cols, rows))` with each entry evaluated once: the
/// second block is the transpose of the first, bit for bit.
pub fn kernel_block_twins(
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> (Matrix, Matrix) {
    twins(KernelDispatch::global(), points, kernel, rows, cols)
}

/// `f(‖x_a − x_b‖²)` for every pair of `idx` on `disp`'s distance arm,
/// each unordered pair computed once: the rows run in groups of one
/// panel's width, a group evaluates the columns from its own panel on (the
/// arms split it into row passes, the second starting mid-panel), and the
/// strict upper triangle is mirrored below it.
fn symmetric_block(
    disp: KernelDispatch,
    points: &PointSet,
    idx: &[usize],
    f: impl Fn(f64) -> f64,
) -> Matrix {
    let n = idx.len();
    let mut out = Matrix::zeros(n, n);
    let panels = DistPanels::gather(points.coords(), points.dim(), idx);
    let data = out.as_mut_slice();
    for (first, group) in idx.chunks(PANEL).enumerate() {
        let r0 = first * PANEL;
        disp.dist2(
            points.coords(),
            group,
            &panels,
            first,
            &mut data[r0 * n + r0..],
            n,
        );
        for r in r0..r0 + group.len() {
            data[r * n + r..(r + 1) * n]
                .iter_mut()
                .for_each(|v| *v = f(*v));
        }
    }
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
    symmetric_block(KernelDispatch::global(), points, idx, |d2| d2)
}

/// The squared distances from every point of `rows` to every one of
/// `targets` (row-major, `points.dim()` values a target, so `targets.len()
/// / dim` columns), on the distance body.  Entry `(a, t)` is bitwise
/// `points.dist2_to(rows[a], target t)`: the chain runs `x − t` as
/// `dist2_to` does, and for a target that is itself a point `y`,
/// `(x − y)² == (y − x)²` makes it `points.dist2(y, rows[a])` too.
///
/// # Panics
/// Panics if `targets` does not hold whole points.
pub fn dist2_block_to(points: &PointSet, rows: &[usize], targets: &[f64]) -> Matrix {
    let dim = points.dim();
    assert!(
        targets.len().is_multiple_of(dim),
        "dist2_block_to: {} target values are not whole {dim}-value points",
        targets.len()
    );
    let n = targets.len() / dim;
    let mut out = Matrix::zeros(rows.len(), n);
    let cols: Vec<usize> = (0..n).collect();
    let panels = DistPanels::gather(targets, dim, &cols);
    KernelDispatch::global().dist2(points.coords(), rows, &panels, 0, out.as_mut_slice(), n);
    out
}

/// [`kernel_block`]`(points, kernel, idx, idx)` with each unordered pair
/// evaluated once; the same bits.
pub fn kernel_block_symmetric(points: &PointSet, kernel: &Kernel, idx: &[usize]) -> Matrix {
    symmetric_block(KernelDispatch::global(), points, idx, |d2| {
        kernel.eval_dist2(d2)
    })
}

/// `((i, j), K(rows_of(i), rows_of(j)))` for every directed pair of the
/// interaction `lists`, in list order, evaluating each entry once:
///
/// * when `(j, i)` is listed too, the pair with `i < j` is evaluated and its
///   transpose stored for `(j, i)` ([`kernel_block_twins`]);
/// * a diagonal pair `(i, i)` evaluates its upper triangle and mirrors it;
/// * a pair whose twin is not listed is evaluated as it stands, so the
///   lists need not be symmetric (nor sorted, nor free of repeats).
///
/// `grain` is the fewest blocks a parallel task evaluates; it chunks the
/// work and never changes a bit.
pub fn pair_blocks<'a>(
    points: &PointSet,
    kernel: &Kernel,
    lists: &[Vec<usize>],
    grain: usize,
    rows_of: impl Fn(usize) -> &'a [usize] + Sync,
) -> Vec<((usize, usize), Matrix)> {
    pair_blocks_by(lists, grain, |_, i, j, twin| {
        let (rows, cols) = (rows_of(i), rows_of(j));
        match twin {
            true => {
                let (block, transposed) = kernel_block_twins(points, kernel, rows, cols);
                (block, Some(transposed))
            }
            false if i == j => (kernel_block_symmetric(points, kernel, rows), None),
            false => (kernel_block(points, kernel, rows, cols), None),
        }
    })
}

/// [`pair_blocks`]' walk over the pairs of `lists`, with the blocks
/// `block(at, i, j, twin)` gives: `at` is the pair's position in the
/// flattened lists, and `twin` says that `(j, i)` is listed too and takes
/// the second block, which must then be the first's transpose.  `block` is
/// called once for every pair but the second of a twin; for the result to
/// be [`pair_blocks`]', it must give `K(rows_of(i), rows_of(j))` bit for
/// bit.
pub fn pair_blocks_by(
    lists: &[Vec<usize>],
    grain: usize,
    block: impl Fn(usize, usize, usize, bool) -> (Matrix, Option<Matrix>) + Sync,
) -> Vec<((usize, usize), Matrix)> {
    let offsets: Vec<usize> = lists
        .iter()
        .scan(0, |next, list| {
            let start = *next;
            *next += list.len();
            Some(start)
        })
        .collect();
    let slot = |i: usize, j: usize| {
        let at = lists.get(i)?.iter().position(|&x| x == j)?;
        Some(offsets[i] + at)
    };
    let pairs: Vec<(usize, usize)> = lists
        .iter()
        .enumerate()
        .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
        .collect();
    // `(slot, twin's slot)` of every pair evaluated directly: all but the
    // second of a twin.  Twins are the first `(i, j)` and the first
    // `(j, i)`, so they pair up one to one even where a list repeats an
    // entry.
    let work: Vec<(usize, Option<usize>)> = pairs
        .iter()
        .enumerate()
        .filter_map(|(at, &(i, j))| {
            let first = slot(i, j) == Some(at);
            let twin = if i != j && first { slot(j, i) } else { None };
            (i < j || twin.is_none()).then_some((at, twin))
        })
        .collect();
    let evaluated: Vec<(Matrix, Option<Matrix>)> = work
        .par_iter()
        .with_min_len(grain.max(1))
        .map(|&(at, twin)| {
            let (i, j) = pairs[at];
            block(at, i, j, twin.is_some())
        })
        .collect();
    let mut blocks: Vec<Option<Matrix>> = vec![None; pairs.len()];
    for (&(at, twin), (block, transposed)) in work.iter().zip(evaluated) {
        blocks[at] = Some(block);
        if let (Some(twin), Some(transposed)) = (twin, transposed) {
            blocks[twin] = Some(transposed);
        }
    }
    pairs
        .into_iter()
        .zip(blocks)
        .map(|(pair, block)| (pair, block.expect("every pair is evaluated or is a twin")))
        .collect()
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

    /// Every distance arm this host runs (scalar, and avx2 / avx512 where
    /// the CPU has them), deduplicated by name.
    fn arms() -> Vec<KernelDispatch> {
        use matrox_linalg::KernelChoice;
        let mut arms = vec![
            KernelDispatch::scalar(),
            KernelDispatch::resolve(KernelChoice::Avx2),
            KernelDispatch::resolve(KernelChoice::Auto),
        ];
        arms.dedup_by_key(|d| d.name());
        arms
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The arm oracle: on every arm, every entry of the plain, parallel,
    /// twin and symmetric blocks is bitwise `PointSet::dist2` /
    /// `Kernel::eval`, at dimensions around the 8-lane panel and the
    /// workloads' 54, every row count through two 4-row passes and a
    /// remainder, and column counts on and off the panel.  Coincident
    /// indices and duplicate points hit the `d2 == 0` branches.  The
    /// symmetric blocks run 8-row groups whose second 4-row pass starts
    /// mid-panel.
    #[test]
    fn every_distance_arm_matches_eval_bitwise() {
        const POINTS: usize = 80;
        for dim in [1, 2, 3, 7, 8, 9, 53, 54, 55, 64] {
            let pts = points_with_duplicates(POINTS, dim, 11 + dim as u64);
            for disp in arms() {
                let what = |m: &str| format!("{} d {dim} {m}", disp.name());
                for m in 0..=9 {
                    let rows: Vec<usize> = (0..m).map(|i| (i * 7 + 3) % POINTS).collect();
                    for n in [0, 1, 7, 8, 9, 63, 64, 65] {
                        let cols: Vec<usize> = (0..n).map(|j| (j * 13 + 5) % POINTS).collect();
                        let d2 = block(disp, &pts, &rows, &cols, |d2| d2);
                        for (a, &i) in rows.iter().enumerate() {
                            for (b, &j) in cols.iter().enumerate() {
                                let want = pts.dist2(i, j).to_bits();
                                assert_eq!(d2.get(a, b).to_bits(), want, "{}", what("dist2"));
                            }
                        }
                        for kernel in &KERNELS {
                            let k = block(disp, &pts, &rows, &cols, |d2| kernel.eval_dist2(d2));
                            for (a, &i) in rows.iter().enumerate() {
                                for (b, &j) in cols.iter().enumerate() {
                                    let want = kernel.eval(pts.point(i), pts.point(j)).to_bits();
                                    assert_eq!(
                                        k.get(a, b).to_bits(),
                                        want,
                                        "{}",
                                        what(kernel.name())
                                    );
                                }
                            }
                            let (t, tt) = twins(disp, &pts, kernel, &rows, &cols);
                            assert_eq!(bits(&t), bits(&k), "{}", what("twins"));
                            assert_eq!(bits(&tt), bits(&k.transpose()), "{}", what("twins"));
                            let p = block_par(disp, &pts, kernel, &rows, &cols);
                            assert_eq!(bits(&p), bits(&k), "{}", what("par"));
                        }
                    }
                }
                for n in (0..=17).chain([63, 64, 65]) {
                    let idx: Vec<usize> = (0..n).map(|i| (i * 17) % POINTS).collect();
                    let d2 = symmetric_block(disp, &pts, &idx, |d2| d2);
                    let full = block(disp, &pts, &idx, &idx, |d2| d2);
                    assert_eq!(bits(&d2), bits(&full), "{}", what("symmetric dist2"));
                    for kernel in &KERNELS {
                        let f = |d2| kernel.eval_dist2(d2);
                        let sym = symmetric_block(disp, &pts, &idx, f);
                        assert_eq!(bits(&sym), bits(&block(disp, &pts, &idx, &idx, f)));
                    }
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

    /// Distances to free targets are `dist2_to`'s bits, and to a target
    /// that is a point, `dist2`'s from either side.
    #[test]
    fn distances_to_targets_match_the_pointset_chains() {
        for dim in [1, 3, 8, 54] {
            let pts = points_with_duplicates(29, dim, 5 + dim as u64);
            let rows: Vec<usize> = (0..29).rev().chain([3, 3]).collect();
            let centre = pts.centroid(&rows);
            for t in [0, 1, 2, 9] {
                let mut targets: Vec<f64> =
                    (0..t).flat_map(|c| pts.point(c * 3).to_vec()).collect();
                targets.extend_from_slice(&centre);
                let d2 = dist2_block_to(&pts, &rows, &targets);
                assert_eq!(d2.shape(), (rows.len(), t + 1));
                for (a, &i) in rows.iter().enumerate() {
                    for c in 0..t {
                        assert_eq!(d2.get(a, c).to_bits(), pts.dist2(c * 3, i).to_bits());
                        assert_eq!(d2.get(a, c).to_bits(), pts.dist2(i, c * 3).to_bits());
                    }
                    assert_eq!(d2.get(a, t).to_bits(), pts.dist2_to(i, &centre).to_bits());
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
