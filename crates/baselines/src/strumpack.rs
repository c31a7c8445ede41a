//! STRUMPACK-style evaluation baseline.
//!
//! STRUMPACK is specialized to Hierarchical Semi-Separable (HSS) structure —
//! "a very large admissibility condition in which all off-diagonal blocks are
//! low-rank approximated" (Section 4.1) — and evaluates with level-by-level
//! traversals that synchronize between levels.  The paper also notes that
//! STRUMPACK does not optimize for load balance, so within a level the nodes
//! are simply split across threads regardless of their sranks.
//!
//! This module reproduces those properties over the shared compression
//! substrate: it refuses non-HSS structures, stores blocks in the per-block
//! ("tree-based") layout, and runs every tree level as a parallel loop with
//! an implicit barrier after it.

use crate::{mul_acc, mul_tn_acc};
use matrox_compress::Compression;
use matrox_linalg::Matrix;
use matrox_tree::{ClusterTree, HTree, Structure};
use rayon::prelude::*;
use std::collections::HashMap;

/// Error returned when the baseline cannot handle the requested structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedStructure(pub String);

impl std::fmt::Display for UnsupportedStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported structure: {}", self.0)
    }
}
impl std::error::Error for UnsupportedStructure {}

/// STRUMPACK-style evaluator (HSS only, level-by-level with barriers).
pub struct StrumpackEvaluator<'a> {
    tree: &'a ClusterTree,
    compression: &'a Compression,
    far_by_target: HashMap<usize, Vec<(usize, &'a Matrix)>>,
    near_diag: Vec<(usize, &'a Matrix)>,
}

impl<'a> StrumpackEvaluator<'a> {
    /// Wrap a compression output.  Fails unless the HTree was built with the
    /// HSS (weak admissibility) structure, mirroring the library's scope.
    pub fn new(
        tree: &'a ClusterTree,
        htree: &'a HTree,
        compression: &'a Compression,
    ) -> Result<Self, UnsupportedStructure> {
        if htree.structure != Structure::Hss {
            return Err(UnsupportedStructure(format!(
                "STRUMPACK baseline supports only HSS, got {}",
                htree.structure.name()
            )));
        }
        let mut far_by_target: HashMap<usize, Vec<(usize, &Matrix)>> = HashMap::new();
        for ((i, j), b) in &compression.far_blocks {
            far_by_target.entry(*i).or_default().push((*j, b));
        }
        let near_diag = compression
            .near_blocks
            .iter()
            .map(|((i, _j), d)| (*i, d))
            .collect();
        Ok(StrumpackEvaluator {
            tree,
            compression,
            far_by_target,
            near_diag,
        })
    }

    /// Parallel level-by-level evaluation ("TB + DS" bar for STRUMPACK; the
    /// scheduling is static per level with a barrier between levels).
    pub fn evaluate(&self, w: &Matrix) -> Matrix {
        self.evaluate_impl(w, true)
    }

    /// Fully sequential evaluation ("TB (seq)").
    pub fn evaluate_sequential(&self, w: &Matrix) -> Matrix {
        self.evaluate_impl(w, false)
    }

    fn evaluate_impl(&self, w: &Matrix, parallel: bool) -> Matrix {
        let tree = self.tree;
        let q = w.cols();
        let n = tree.perm.len();
        assert_eq!(w.rows(), n);
        let n_nodes = tree.num_nodes();

        // Upward pass, one parallel loop + barrier per level.
        let mut t: Vec<Matrix> = vec![Matrix::zeros(0, q); n_nodes];
        for level in (1..=tree.height).rev() {
            let ids = tree.level(level);
            let level_t: Vec<(usize, Matrix)> = if parallel {
                ids.into_par_iter()
                    .map(|id| (id, self.compute_t(id, w, &t)))
                    .collect()
            } else {
                ids.map(|id| (id, self.compute_t(id, w, &t))).collect()
            };
            for (id, m) in level_t {
                t[id] = m;
            }
        }

        // Coupling: per node, gather contributions from its (sibling) far
        // interactions; embarrassingly parallel per target node.
        let targets: Vec<usize> = (0..n_nodes).collect();
        let compute_s = |&id: &usize| -> (usize, Matrix) {
            let srank = self.compression.sranks[id];
            let mut s_i = Matrix::zeros(srank, q);
            if let Some(list) = self.far_by_target.get(&id) {
                for (j, b) in list {
                    if b.rows() == 0 || b.cols() == 0 {
                        continue;
                    }
                    mul_acc(b, &t[*j], &mut s_i);
                }
            }
            (id, s_i)
        };
        let mut s: Vec<Matrix> = vec![Matrix::zeros(0, q); n_nodes];
        let s_list: Vec<(usize, Matrix)> = if parallel {
            targets.par_iter().map(compute_s).collect()
        } else {
            targets.iter().map(compute_s).collect()
        };
        for (id, m) in s_list {
            s[id] = m;
        }

        // Downward pass, level by level with a barrier per level.
        let mut y = Matrix::zeros(n, q);
        for level in 1..=tree.height {
            let ids = tree.level(level);
            // Compute expansions in parallel, then apply pushes/outputs
            // sequentially (the barrier).
            let expansions: Vec<(usize, Matrix)> = if parallel {
                ids.into_par_iter()
                    .map(|id| (id, self.expand(id, &s[id], q)))
                    .collect()
            } else {
                ids.map(|id| (id, self.expand(id, &s[id], q))).collect()
            };
            for (id, expanded) in expansions {
                if expanded.is_empty() {
                    continue;
                }
                let node = &tree.nodes[id];
                if node.is_leaf() {
                    y.scatter_add_rows(tree.indices(id), &expanded);
                } else {
                    let (l, r) = node.children.unwrap();
                    let rl = self.compression.sranks[l];
                    let rr = self.compression.sranks[r];
                    if rl > 0 {
                        s[l].add_assign(&expanded.submatrix(0, rl, 0, q));
                    }
                    if rr > 0 {
                        s[r].add_assign(&expanded.submatrix(rl, rl + rr, 0, q));
                    }
                }
            }
        }

        // Diagonal (near) blocks.
        let diag_contribs: Vec<(usize, Matrix)> = if parallel {
            self.near_diag
                .par_iter()
                .map(|(i, d)| {
                    let wj = w.gather_rows(tree.indices(*i));
                    let mut contrib = Matrix::zeros(d.rows(), q);
                    mul_acc(d, &wj, &mut contrib);
                    (*i, contrib)
                })
                .collect()
        } else {
            self.near_diag
                .iter()
                .map(|(i, d)| {
                    let wj = w.gather_rows(tree.indices(*i));
                    let mut contrib = Matrix::zeros(d.rows(), q);
                    mul_acc(d, &wj, &mut contrib);
                    (*i, contrib)
                })
                .collect()
        };
        for (i, contrib) in diag_contribs {
            y.scatter_add_rows(tree.indices(i), &contrib);
        }
        y
    }

    fn compute_t(&self, id: usize, w: &Matrix, t: &[Matrix]) -> Matrix {
        let q = w.cols();
        let basis = &self.compression.bases[id];
        if basis.srank == 0 {
            return Matrix::zeros(0, q);
        }
        let node = &self.tree.nodes[id];
        let input = if node.is_leaf() {
            w.gather_rows(self.tree.indices(id))
        } else {
            let (l, r) = node.children.unwrap();
            match (t[l].rows(), t[r].rows()) {
                (0, 0) => Matrix::zeros(0, q),
                (0, _) => t[r].clone(),
                (_, 0) => t[l].clone(),
                _ => t[l].vstack(&t[r]),
            }
        };
        let mut ti = Matrix::zeros(basis.srank, q);
        mul_tn_acc(&basis.v, &input, &mut ti);
        ti
    }

    fn expand(&self, id: usize, s_i: &Matrix, q: usize) -> Matrix {
        let basis = &self.compression.bases[id];
        if basis.srank == 0 || s_i.rows() != basis.srank {
            return Matrix::zeros(0, 0);
        }
        let node = &self.tree.nodes[id];
        let rows = if node.is_leaf() {
            node.num_points()
        } else {
            let (l, r) = node.children.unwrap();
            self.compression.sranks[l] + self.compression.sranks[r]
        };
        let mut expanded = Matrix::zeros(rows, q);
        mul_acc(&basis.v, s_i, &mut expanded);
        expanded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_compress::{compress, reference_evaluate, CompressionParams};
    use matrox_linalg::relative_error;
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::PartitionMethod;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_hss_structures() {
        let pts = generate(DatasetId::Grid, 128, 7);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 16, 0);
        let htree = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &Kernel::paper_gaussian(),
            &sampling,
            &CompressionParams::default(),
        );
        assert!(StrumpackEvaluator::new(&tree, &htree, &c).is_err());
    }

    #[test]
    fn matches_reference_on_hss() {
        let pts = generate(DatasetId::Unit, 512, 7);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 32, 0);
        let htree = HTree::build(&tree, Structure::Hss);
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
        let w = Matrix::random_uniform(512, 5, &mut rng);
        let y_ref = reference_evaluate(&c, &tree, &htree, &w);
        let eval = StrumpackEvaluator::new(&tree, &htree, &c).unwrap();
        assert!(relative_error(&eval.evaluate(&w), &y_ref) < 1e-12);
        assert!(relative_error(&eval.evaluate_sequential(&w), &y_ref) < 1e-12);
    }
}
