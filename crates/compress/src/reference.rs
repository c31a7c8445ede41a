//! Sequential reference evaluator.
//!
//! A deliberately simple, tree-recursive implementation of the HMatrix-matrix
//! product `Y = K~ * W` operating directly on the unordered [`Compression`]
//! output.  It follows the textbook H² evaluation (upward pass over `V^T`,
//! coupling through `B`, downward pass over `V`, dense near contributions
//! through `D`) with no blocking, no coarsening and no parallelism.
//!
//! Every optimized evaluator in the workspace — the MatRox executor and the
//! GOFMM-/STRUMPACK-/SMASH-style baselines — is validated against this
//! function, which in turn is validated against the exact dense product
//! `K * W` in the integration tests.

use crate::lowrank::Compression;
use matrox_linalg::{gemm_seq, GemmOp, Matrix};
use matrox_tree::{ClusterTree, HTree};

/// Evaluate `Y = K~ * W` sequentially from the unordered compression output.
pub fn evaluate(
    compression: &Compression,
    tree: &ClusterTree,
    _htree: &HTree,
    w: &Matrix,
) -> Matrix {
    let n = tree.perm.len();
    assert_eq!(w.rows(), n, "reference::evaluate: W must have N rows");
    let q = w.cols();
    let n_nodes = tree.num_nodes();
    let mut y = Matrix::zeros(n, q);

    // ---- upward pass: T_i = V_i^T * W_{I_i} (leaves), V_i^T * [T_lc; T_rc] (internal)
    let mut t: Vec<Matrix> = vec![Matrix::zeros(0, 0); n_nodes];
    for level in (1..=tree.height).rev() {
        for id in tree.level(level) {
            let basis = &compression.bases[id];
            if basis.srank == 0 {
                t[id] = Matrix::zeros(0, q);
                continue;
            }
            let node = &tree.nodes[id];
            let input = if node.is_leaf() {
                w.gather_rows(tree.indices(id))
            } else {
                let (l, r) = node.children.unwrap();
                stack_children(&t[l], &t[r], q)
            };
            let mut ti = Matrix::zeros(basis.srank, q);
            gemm_seq(
                1.0,
                &basis.v,
                GemmOp::Trans,
                &input,
                GemmOp::NoTrans,
                0.0,
                &mut ti,
            );
            t[id] = ti;
        }
    }

    // ---- coupling: S_i += B_{i,j} * T_j for every far pair (i, j)
    let mut s: Vec<Matrix> = compression
        .bases
        .iter()
        .map(|b| Matrix::zeros(b.srank, q))
        .collect();
    for ((i, j), b) in &compression.far_blocks {
        if b.rows() == 0 || b.cols() == 0 {
            continue;
        }
        let mut si = std::mem::replace(&mut s[*i], Matrix::zeros(0, 0));
        gemm_seq(
            1.0,
            b,
            GemmOp::NoTrans,
            &t[*j],
            GemmOp::NoTrans,
            1.0,
            &mut si,
        );
        s[*i] = si;
    }

    // ---- downward pass: push S through the transfer matrices, leaves add V_i * S_i
    for level in 1..=tree.height {
        for id in tree.level(level) {
            let basis = &compression.bases[id];
            if basis.srank == 0 {
                continue;
            }
            let node = &tree.nodes[id];
            if node.is_leaf() {
                let mut contrib = Matrix::zeros(node.num_points(), q);
                gemm_seq(
                    1.0,
                    &basis.v,
                    GemmOp::NoTrans,
                    &s[id],
                    GemmOp::NoTrans,
                    0.0,
                    &mut contrib,
                );
                y.scatter_add_rows(tree.indices(id), &contrib);
            } else {
                let (l, r) = node.children.unwrap();
                let rl = compression.bases[l].srank;
                let rr = compression.bases[r].srank;
                // V_i is (rl + rr) x srank_i; its top rows push into the left
                // child, the bottom rows into the right child.
                let mut expanded = Matrix::zeros(rl + rr, q);
                gemm_seq(
                    1.0,
                    &basis.v,
                    GemmOp::NoTrans,
                    &s[id],
                    GemmOp::NoTrans,
                    0.0,
                    &mut expanded,
                );
                if rl > 0 {
                    let top = expanded.submatrix(0, rl, 0, q);
                    s[l].add_assign(&top);
                }
                if rr > 0 {
                    let bottom = expanded.submatrix(rl, rl + rr, 0, q);
                    s[r].add_assign(&bottom);
                }
            }
        }
    }

    // ---- near contributions: Y_{I_i} += D_{i,j} * W_{I_j}
    for ((i, j), d) in compression.near_blocks.iter() {
        let wj = w.gather_rows(tree.indices(*j));
        let mut contrib = Matrix::zeros(d.rows(), q);
        gemm_seq(
            1.0,
            d,
            GemmOp::NoTrans,
            &wj,
            GemmOp::NoTrans,
            0.0,
            &mut contrib,
        );
        y.scatter_add_rows(tree.indices(*i), &contrib);
    }

    y
}

/// Stack the children's `T` matrices vertically; a child with srank 0
/// contributes no rows.
fn stack_children(tl: &Matrix, tr: &Matrix, q: usize) -> Matrix {
    match (tl.rows(), tr.rows()) {
        (0, 0) => Matrix::zeros(0, q),
        (0, _) => tr.clone(),
        (_, 0) => tl.clone(),
        _ => tl.vstack(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowrank::{compress, CompressionParams};
    use matrox_linalg::relative_error;
    use matrox_points::{dense_kernel_matmul, generate, DatasetId, Kernel};
    use matrox_sampling::{sample_nodes, sample_nodes_exhaustive, SamplingParams};
    use matrox_tree::{ClusterTree, PartitionMethod, Structure};
    use rand::SeedableRng;

    fn accuracy_for(
        dataset: DatasetId,
        n: usize,
        structure: Structure,
        bacc: f64,
        exhaustive: bool,
    ) -> f64 {
        let pts = generate(dataset, n, 33);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        let htree = HTree::build(&tree, structure);
        let sampling = if exhaustive {
            sample_nodes_exhaustive(&pts, &tree)
        } else {
            sample_nodes(&pts, &tree, &kernel, &SamplingParams::default())
        };
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams {
                bacc,
                max_rank: 256,
                grain: 0,
            },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let w = matrox_linalg::Matrix::random_uniform(n, 8, &mut rng);
        let y = evaluate(&c, &tree, &htree, &w);
        let y_exact = dense_kernel_matmul(&pts, &kernel, &w);
        relative_error(&y, &y_exact)
    }

    #[test]
    fn hss_evaluation_is_accurate_with_exhaustive_sampling() {
        let err = accuracy_for(DatasetId::Random, 512, Structure::Hss, 1e-7, true);
        assert!(err < 1e-4, "HSS error {err}");
    }

    #[test]
    fn geometric_evaluation_is_accurate() {
        let err = accuracy_for(
            DatasetId::Grid,
            512,
            Structure::Geometric { tau: 0.65 },
            1e-7,
            true,
        );
        assert!(err < 1e-4, "geometric error {err}");
    }

    #[test]
    fn budget_evaluation_is_accurate() {
        let err = accuracy_for(DatasetId::Random, 512, Structure::h2b(), 1e-7, true);
        assert!(err < 1e-4, "budget error {err}");
    }

    #[test]
    fn neighbor_sampling_is_close_to_exhaustive() {
        let err = accuracy_for(
            DatasetId::Grid,
            512,
            Structure::Geometric { tau: 0.65 },
            1e-6,
            false,
        );
        assert!(err < 1e-2, "sampled compression error {err}");
    }

    #[test]
    fn looser_bacc_gives_larger_error() {
        let tight = accuracy_for(DatasetId::Random, 256, Structure::Hss, 1e-8, true);
        let loose = accuracy_for(DatasetId::Random, 256, Structure::Hss, 1e-1, true);
        assert!(loose >= tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn high_dimensional_dataset_evaluates() {
        let err = accuracy_for(DatasetId::Letter, 384, Structure::h2b(), 1e-6, true);
        assert!(err < 1e-3, "letter error {err}");
    }
}
