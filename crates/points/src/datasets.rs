//! Synthetic stand-ins for the Table 1 datasets of the paper.
//!
//! The paper evaluates on 8 high-dimensional machine-learning datasets from
//! the UCI repository (covtype, higgs, mnist, susy, letter, pen, hepmass,
//! gas) and 5 low-dimensional "scientific" point clouds used by SMASH (grid,
//! random, dino, sunflower, unit).  The raw UCI data is not available in this
//! offline environment, so each dataset is replaced by a synthetic generator
//! that preserves the two properties that matter for hierarchical
//! approximation: the **dimensionality** `d` and a **clustered geometric
//! structure** (Gaussian mixtures for the ML sets, analytic manifolds for the
//! scientific sets).  See DESIGN.md substitution S2.
//!
//! The paper uses `N ≈ 100k`; the default `N` values here are scaled down so
//! that the exact `K·W` reference products used by the accuracy experiments
//! stay tractable; [`generate`] takes any `n`, and the examples and the
//! benchmark pass their own.

use crate::pointset::PointSet;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};

/// Identifier for one of the 13 Table 1 datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Forest cover type, 54-d (ML).
    Covtype,
    /// HIGGS physics, 28-d (ML).
    Higgs,
    /// MNIST digits, 780-d (ML).
    Mnist,
    /// SUSY physics, 18-d (ML).
    Susy,
    /// Letter recognition, 16-d (ML).
    Letter,
    /// Pen-based digit recognition, 16-d (ML).
    Pen,
    /// HEPMASS physics, 28-d (ML).
    Hepmass,
    /// Gas sensor array, 129-d (ML).
    Gas,
    /// Regular 2-d grid (scientific).
    Grid,
    /// Uniform random 2-d points (scientific).
    Random,
    /// 3-d curve ("dino") point cloud (scientific).
    Dino,
    /// 2-d sunflower / Vogel spiral (scientific).
    Sunflower,
    /// Points on the unit circle (scientific).
    Unit,
}

impl DatasetId {
    /// All 13 datasets in Table 1 order.
    pub fn all() -> [DatasetId; 13] {
        [
            DatasetId::Covtype,
            DatasetId::Higgs,
            DatasetId::Mnist,
            DatasetId::Susy,
            DatasetId::Letter,
            DatasetId::Pen,
            DatasetId::Hepmass,
            DatasetId::Gas,
            DatasetId::Grid,
            DatasetId::Random,
            DatasetId::Dino,
            DatasetId::Sunflower,
            DatasetId::Unit,
        ]
    }

    /// Dataset name as it appears in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Covtype => "covtype",
            DatasetId::Higgs => "higgs",
            DatasetId::Mnist => "mnist",
            DatasetId::Susy => "susy",
            DatasetId::Letter => "letter",
            DatasetId::Pen => "pen",
            DatasetId::Hepmass => "hepmass",
            DatasetId::Gas => "gas",
            DatasetId::Grid => "grid",
            DatasetId::Random => "random",
            DatasetId::Dino => "dino",
            DatasetId::Sunflower => "sunflower",
            DatasetId::Unit => "unit",
        }
    }

    /// Look a dataset up by its paper name.
    pub fn from_name(name: &str) -> Option<DatasetId> {
        DatasetId::all().into_iter().find(|d| d.name() == name)
    }

    /// True for the low-dimensional scientific point clouds (problem IDs
    /// 9–13), the only ones the SMASH baseline supports.
    pub fn is_scientific(&self) -> bool {
        matches!(
            self,
            DatasetId::Grid
                | DatasetId::Random
                | DatasetId::Dino
                | DatasetId::Sunflower
                | DatasetId::Unit
        )
    }
}

/// Static description of one Table 1 row: the paper's N and d plus the
/// scaled-down default N used by this reproduction.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Dataset identifier.
    pub id: DatasetId,
    /// Problem ID (1–13) as listed in Table 1.
    pub problem_id: usize,
    /// Number of points in the paper.
    pub paper_n: usize,
    /// Point dimension (identical to the paper).
    pub dim: usize,
    /// Default number of points generated by this reproduction.
    pub default_n: usize,
}

/// Table 1 of the paper, with scaled default sizes.
pub const TABLE1: [DatasetSpec; 13] = [
    DatasetSpec {
        id: DatasetId::Covtype,
        problem_id: 1,
        paper_n: 100_000,
        dim: 54,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Higgs,
        problem_id: 2,
        paper_n: 100_000,
        dim: 28,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Mnist,
        problem_id: 3,
        paper_n: 60_000,
        dim: 780,
        default_n: 2048,
    },
    DatasetSpec {
        id: DatasetId::Susy,
        problem_id: 4,
        paper_n: 100_000,
        dim: 18,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Letter,
        problem_id: 5,
        paper_n: 20_000,
        dim: 16,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Pen,
        problem_id: 6,
        paper_n: 11_000,
        dim: 16,
        default_n: 2048,
    },
    DatasetSpec {
        id: DatasetId::Hepmass,
        problem_id: 7,
        paper_n: 100_000,
        dim: 28,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Gas,
        problem_id: 8,
        paper_n: 14_000,
        dim: 129,
        default_n: 2048,
    },
    DatasetSpec {
        id: DatasetId::Grid,
        problem_id: 9,
        paper_n: 102_000,
        dim: 2,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Random,
        problem_id: 10,
        paper_n: 66_000,
        dim: 2,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Dino,
        problem_id: 11,
        paper_n: 80_000,
        dim: 3,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Sunflower,
        problem_id: 12,
        paper_n: 80_000,
        dim: 2,
        default_n: 4096,
    },
    DatasetSpec {
        id: DatasetId::Unit,
        problem_id: 13,
        paper_n: 32_000,
        dim: 2,
        default_n: 4096,
    },
];

/// Find the Table 1 spec for a dataset.
pub fn spec(id: DatasetId) -> DatasetSpec {
    TABLE1
        .iter()
        .copied()
        .find(|s| s.id == id)
        .expect("every DatasetId has a Table 1 entry")
}

/// Generate the synthetic stand-in for dataset `id` with `n` points.
///
/// The generator is deterministic given `(id, n, seed)`.
pub fn generate(id: DatasetId, n: usize, seed: u64) -> PointSet {
    let s = spec(id);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (s.problem_id as u64) << 32);
    match id {
        // Machine-learning datasets: clustered Gaussian mixtures in the
        // dataset's native dimension.  The number of clusters loosely matches
        // the class structure of the original data (e.g. 7 cover types, 26
        // letters, 10 digits).
        DatasetId::Covtype => gaussian_mixture(n, s.dim, 7, 4.0, 1.0, &mut rng),
        DatasetId::Higgs => gaussian_mixture(n, s.dim, 2, 2.0, 1.0, &mut rng),
        DatasetId::Mnist => sparse_mixture(n, s.dim, 10, 0.1, &mut rng),
        DatasetId::Susy => gaussian_mixture(n, s.dim, 2, 2.0, 1.0, &mut rng),
        DatasetId::Letter => gaussian_mixture(n, s.dim, 26, 3.0, 0.8, &mut rng),
        DatasetId::Pen => gaussian_mixture(n, s.dim, 10, 3.0, 0.8, &mut rng),
        DatasetId::Hepmass => gaussian_mixture(n, s.dim, 2, 2.5, 1.0, &mut rng),
        DatasetId::Gas => gaussian_mixture(n, s.dim, 6, 3.5, 1.2, &mut rng),
        // Scientific point clouds.
        DatasetId::Grid => grid_2d(n),
        DatasetId::Random => PointSet::random_uniform(n, 2, &mut rng),
        DatasetId::Dino => curve_3d(n, &mut rng),
        DatasetId::Sunflower => sunflower_2d(n),
        DatasetId::Unit => unit_circle(n, &mut rng),
    }
}

/// Clustered Gaussian mixture: `clusters` centers drawn from
/// `N(0, spread^2 I)`, points drawn around a random center with standard
/// deviation `sigma`.
fn gaussian_mixture<R: Rng>(
    n: usize,
    dim: usize,
    clusters: usize,
    spread: f64,
    sigma: f64,
    rng: &mut R,
) -> PointSet {
    let normal = rand::distributions::Uniform::new(-1.0f64, 1.0);
    // Centers: uniform in a box of half-width `spread` (box-muller-free,
    // uniform centers are fine for cluster geometry).
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| normal.sample(rng) * spread).collect())
        .collect();
    let mut coords = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = &centers[i % clusters];
        for k in 0..dim {
            // Sum of three uniforms approximates a Gaussian well enough for
            // cluster shape purposes and avoids a Box-Muller dependency.
            let g = (normal.sample(rng) + normal.sample(rng) + normal.sample(rng)) / 3.0;
            coords.push(c[k] + g * sigma);
        }
    }
    PointSet::new(dim, coords)
}

/// MNIST-like generator: high-dimensional points where only a small fraction
/// of coordinates are active per cluster (mimicking the sparse pixel support
/// of digit images).
fn sparse_mixture<R: Rng>(
    n: usize,
    dim: usize,
    clusters: usize,
    density: f64,
    rng: &mut R,
) -> PointSet {
    let active_per_cluster = ((dim as f64 * density) as usize).max(4);
    // Choose active coordinate sets per cluster.
    let mut active: Vec<Vec<usize>> = Vec::with_capacity(clusters);
    for _ in 0..clusters {
        let mut set = Vec::with_capacity(active_per_cluster);
        while set.len() < active_per_cluster {
            let c = rng.gen_range(0..dim);
            if !set.contains(&c) {
                set.push(c);
            }
        }
        active.push(set);
    }
    let mut coords = vec![0.0; n * dim];
    for i in 0..n {
        let cl = i % clusters;
        for &k in &active[cl] {
            coords[i * dim + k] = rng.gen_range(0.2..1.0);
        }
        // Small dense noise so no two points coincide.
        for k in 0..dim {
            coords[i * dim + k] += rng.gen_range(0.0..0.01);
        }
    }
    PointSet::new(dim, coords)
}

/// Regular 2-d grid of approximately `n` points in the unit square.
fn grid_2d(n: usize) -> PointSet {
    let side = (n as f64).sqrt().ceil() as usize;
    let mut coords = Vec::with_capacity(n * 2);
    'outer: for i in 0..side {
        for j in 0..side {
            coords.push(i as f64 / side as f64);
            coords.push(j as f64 / side as f64);
            if coords.len() / 2 == n {
                break 'outer;
            }
        }
    }
    PointSet::new(2, coords)
}

/// 3-d curve point cloud ("dino" stand-in): a noisy trefoil-like space curve,
/// giving points that live on a 1-d manifold embedded in 3-d.
fn curve_3d<R: Rng>(n: usize, rng: &mut R) -> PointSet {
    let mut coords = Vec::with_capacity(n * 3);
    for i in 0..n {
        let t = 2.0 * std::f64::consts::PI * (i as f64 / n as f64);
        let noise = 0.02;
        coords.push((t.sin() + 2.0 * (2.0 * t).sin()) * 0.25 + rng.gen_range(-noise..noise));
        coords.push((t.cos() - 2.0 * (2.0 * t).cos()) * 0.25 + rng.gen_range(-noise..noise));
        coords.push((-(3.0 * t).sin()) * 0.25 + rng.gen_range(-noise..noise));
    }
    PointSet::new(3, coords)
}

/// Sunflower / Vogel spiral in 2-d.
fn sunflower_2d(n: usize) -> PointSet {
    let golden_angle = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    let mut coords = Vec::with_capacity(n * 2);
    for i in 0..n {
        let r = ((i + 1) as f64 / n as f64).sqrt();
        let theta = golden_angle * (i + 1) as f64;
        coords.push(r * theta.cos());
        coords.push(r * theta.sin());
    }
    PointSet::new(2, coords)
}

/// Points on (a slightly perturbed) unit circle.
fn unit_circle<R: Rng>(n: usize, rng: &mut R) -> PointSet {
    let mut coords = Vec::with_capacity(n * 2);
    for i in 0..n {
        let t = 2.0 * std::f64::consts::PI * (i as f64 / n as f64);
        let r = 1.0 + rng.gen_range(-0.01..0.01);
        coords.push(r * t.cos());
        coords.push(r * t.sin());
    }
    PointSet::new(2, coords)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_13_rows_with_paper_dimensions() {
        assert_eq!(TABLE1.len(), 13);
        assert_eq!(spec(DatasetId::Covtype).dim, 54);
        assert_eq!(spec(DatasetId::Mnist).dim, 780);
        assert_eq!(spec(DatasetId::Gas).dim, 129);
        assert_eq!(spec(DatasetId::Grid).dim, 2);
        assert_eq!(spec(DatasetId::Dino).dim, 3);
        for (i, s) in TABLE1.iter().enumerate() {
            assert_eq!(s.problem_id, i + 1);
        }
    }

    #[test]
    fn generators_produce_requested_size_and_dim() {
        for id in DatasetId::all() {
            let ps = generate(id, 200, 42);
            assert_eq!(ps.len(), 200, "{}", id.name());
            assert_eq!(ps.dim(), spec(id).dim, "{}", id.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetId::Higgs, 128, 7);
        let b = generate(DatasetId::Higgs, 128, 7);
        assert_eq!(a, b);
        let c = generate(DatasetId::Higgs, 128, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn scientific_flag_matches_dimension() {
        for id in DatasetId::all() {
            if id.is_scientific() {
                assert!(spec(id).dim <= 3, "{}", id.name());
            } else {
                assert!(spec(id).dim > 3, "{}", id.name());
            }
        }
    }

    #[test]
    fn from_name_roundtrips() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::from_name(id.name()), Some(id));
        }
        assert_eq!(DatasetId::from_name("nope"), None);
    }

    #[test]
    fn grid_points_are_distinct() {
        let ps = generate(DatasetId::Grid, 100, 0);
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert!(ps.dist2(i, j) > 0.0, "grid points {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn unit_circle_points_have_radius_near_one() {
        let ps = generate(DatasetId::Unit, 64, 3);
        for i in 0..ps.len() {
            let p = ps.point(i);
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!((r - 1.0).abs() < 0.02);
        }
    }
}
