//! SMASH-style evaluation baseline.
//!
//! SMASH (Cai et al.) supports only 1–3-dimensional point sets and only
//! HMatrix-*vector* products (`Q = 1`), and traverses the cluster tree
//! level-by-level so "synchronization overheads increase with the length of
//! the critical path" (Section 1).  Its default kernel is the
//! inverse-distance kernel `1/||x-y||` with a geometric admissibility of
//! τ = 0.65, which is also the configuration MatRox uses when comparing
//! against it (Section 4.1).
//!
//! This baseline enforces those restrictions (dimension ≤ 3, single
//! right-hand side) and otherwise evaluates level-by-level over the shared
//! compression substrate.

use matrox_compress::Compression;
use matrox_linalg::{gemm_panel, KernelDispatch, Matrix};
use matrox_tree::{ClusterTree, HTree};
use rayon::prelude::*;
use std::collections::HashMap;

/// Error for inputs outside SMASH's supported scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedInput(pub String);

impl std::fmt::Display for UnsupportedInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported input: {}", self.0)
    }
}
impl std::error::Error for UnsupportedInput {}

/// SMASH-style evaluator: matrix-vector only, low-dimensional points only,
/// level-by-level traversal.
pub struct SmashEvaluator<'a> {
    tree: &'a ClusterTree,
    compression: &'a Compression,
    far_by_target: HashMap<usize, Vec<(usize, &'a Matrix)>>,
}

impl<'a> SmashEvaluator<'a> {
    /// Wrap a compression output.  `dim` is the dimensionality of the points
    /// the tree was built over; SMASH only supports `dim <= 3`.
    pub fn new(
        tree: &'a ClusterTree,
        _htree: &'a HTree,
        compression: &'a Compression,
        dim: usize,
    ) -> Result<Self, UnsupportedInput> {
        if dim > 3 {
            return Err(UnsupportedInput(format!(
                "SMASH baseline supports 1-3 dimensional points, got d = {dim}"
            )));
        }
        let mut far_by_target: HashMap<usize, Vec<(usize, &Matrix)>> = HashMap::new();
        for ((i, j), b) in &compression.far_blocks {
            far_by_target.entry(*i).or_default().push((*j, b));
        }
        Ok(SmashEvaluator {
            tree,
            compression,
            far_by_target,
        })
    }

    /// Evaluate the matrix-vector product `y = K~ * w` (parallel per level).
    pub fn evaluate(&self, w: &[f64]) -> Vec<f64> {
        self.evaluate_impl(w, true)
    }

    /// Sequential matrix-vector product.
    pub fn evaluate_sequential(&self, w: &[f64]) -> Vec<f64> {
        self.evaluate_impl(w, false)
    }

    fn evaluate_impl(&self, w: &[f64], parallel: bool) -> Vec<f64> {
        let tree = self.tree;
        let n = tree.perm.len();
        assert_eq!(w.len(), n, "SMASH evaluates matrix-vector products only");
        let n_nodes = tree.num_nodes();

        // Upward pass over the vector, level by level.
        let mut t: Vec<Vec<f64>> = vec![Vec::new(); n_nodes];
        for level in (1..=tree.height).rev() {
            let ids = tree.nodes_at_level(level);
            let compute = |&id: &usize| -> (usize, Vec<f64>) {
                let basis = &self.compression.bases[id];
                if basis.srank == 0 {
                    return (id, Vec::new());
                }
                let node = &tree.nodes[id];
                let input: Vec<f64> = if node.is_leaf() {
                    tree.indices(id).iter().map(|&p| w[p]).collect()
                } else {
                    let (l, r) = node.children.unwrap();
                    let mut v = t[l].clone();
                    v.extend_from_slice(&t[r]);
                    v
                };
                let mut out = vec![0.0; basis.srank];
                let (v, disp) = (&basis.v, KernelDispatch::global());
                disp.gemm_tn(v.as_slice(), v.rows(), v.cols(), &input, 1, &mut out);
                (id, out)
            };
            let results: Vec<(usize, Vec<f64>)> = if parallel {
                ids.par_iter().map(compute).collect()
            } else {
                ids.iter().map(compute).collect()
            };
            for (id, v) in results {
                t[id] = v;
            }
        }

        // Coupling per target node.
        let mut s: Vec<Vec<f64>> = (0..n_nodes)
            .map(|id| vec![0.0; self.compression.sranks[id]])
            .collect();
        let coupling = |id: usize| -> Vec<f64> {
            let mut acc = vec![0.0; self.compression.sranks[id]];
            if let Some(list) = self.far_by_target.get(&id) {
                for (j, b) in list {
                    if b.rows() == 0 || b.cols() == 0 || t[*j].is_empty() {
                        continue;
                    }
                    gemm_panel(b.as_slice(), b.rows(), b.cols(), &t[*j], 1, &mut acc);
                }
            }
            acc
        };
        if parallel {
            let results: Vec<(usize, Vec<f64>)> = (0..n_nodes)
                .into_par_iter()
                .map(|id| (id, coupling(id)))
                .collect();
            for (id, v) in results {
                s[id] = v;
            }
        } else {
            for id in 0..n_nodes {
                s[id] = coupling(id);
            }
        }

        // Downward pass, level by level, plus near blocks.
        let mut y = vec![0.0; n];
        for level in 1..=tree.height {
            for id in tree.nodes_at_level(level) {
                let basis = &self.compression.bases[id];
                if basis.srank == 0 || s[id].len() != basis.srank {
                    continue;
                }
                let node = &tree.nodes[id];
                if node.is_leaf() {
                    let mut contrib = vec![0.0; node.num_points()];
                    let v = &basis.v;
                    gemm_panel(v.as_slice(), v.rows(), v.cols(), &s[id], 1, &mut contrib);
                    for (k, &p) in tree.indices(id).iter().enumerate() {
                        y[p] += contrib[k];
                    }
                } else {
                    let (l, r) = node.children.unwrap();
                    let rl = self.compression.sranks[l];
                    let rr = self.compression.sranks[r];
                    let mut expanded = vec![0.0; rl + rr];
                    let v = &basis.v;
                    gemm_panel(v.as_slice(), v.rows(), v.cols(), &s[id], 1, &mut expanded);
                    for k in 0..rl {
                        s[l][k] += expanded[k];
                    }
                    for k in 0..rr {
                        s[r][k] += expanded[rl + k];
                    }
                }
            }
        }
        for ((i, j), d) in &self.compression.near_blocks {
            let wj: Vec<f64> = self.tree.indices(*j).iter().map(|&p| w[p]).collect();
            let mut contrib = vec![0.0; d.rows()];
            gemm_panel(d.as_slice(), d.rows(), d.cols(), &wj, 1, &mut contrib);
            for (k, &p) in self.tree.indices(*i).iter().enumerate() {
                y[p] += contrib[k];
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_compress::{compress, reference_evaluate, CompressionParams};
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{PartitionMethod, Structure};
    use rand::SeedableRng;

    #[test]
    fn rejects_high_dimensional_points() {
        let pts = generate(DatasetId::Higgs, 128, 7);
        let tree = ClusterTree::build(&pts, PartitionMethod::TwoMeans, 16, 0);
        let htree = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &Kernel::smash_default(),
            &sampling,
            &CompressionParams::default(),
        );
        assert!(SmashEvaluator::new(&tree, &htree, &c, pts.dim()).is_err());
    }

    #[test]
    fn matches_reference_on_scientific_dataset() {
        let pts = generate(DatasetId::Sunflower, 512, 7);
        let kernel = Kernel::smash_default();
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 32, 0);
        let htree = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = Matrix::random_uniform(512, 1, &mut rng);
        let y_ref = reference_evaluate(&c, &tree, &htree, &w);
        let eval = SmashEvaluator::new(&tree, &htree, &c, pts.dim()).unwrap();
        let wv: Vec<f64> = w.as_slice().to_vec();
        let y = eval.evaluate(&wv);
        let y_seq = eval.evaluate_sequential(&wv);
        let mut err = 0.0;
        let mut err_seq = 0.0;
        let mut base = 0.0;
        for i in 0..512 {
            err += (y[i] - y_ref.get(i, 0)).powi(2);
            err_seq += (y_seq[i] - y_ref.get(i, 0)).powi(2);
            base += y_ref.get(i, 0).powi(2);
        }
        assert!((err / base).sqrt() < 1e-12);
        assert!((err_seq / base).sqrt() < 1e-12);
    }
}
