//! GOFMM-style evaluation baseline.
//!
//! The paper characterizes GOFMM's evaluation as follows: submatrices live in
//! a *tree-based* storage (one allocation per block, reached by walking the
//! HTree), the reduction loops over near/far interactions are parallelized
//! with atomics on the shared output, and the tree loops are scheduled as a
//! dynamic task graph that "trades locality for load balance" (Sections 1 and
//! 4.3).  This module re-creates those properties on top of the same
//! compression output and the same dispatched GEMM kernels the MatRox
//! executor calls (`KernelDispatch::{gemm, gemm_tn}`, on the calling thread),
//! so measured differences come from scheduling, synchronization and data
//! layout — which is exactly what Figure 5 isolates.
//!
//! * near/far loops: `rayon` parallel iteration over *interactions* (not
//!   conflict-free groups), with a mutex per output node to
//!   stand in for the `#pragma omp atomic` reductions of Figure 1d;
//! * tree loops: recursive `rayon::join` task parallelism (dynamic work
//!   stealing) instead of MatRox's locality-aware coarsen partitions;
//! * storage: the unordered, per-block allocations of
//!   [`matrox_compress::Compression`] ("TB" in the figures).

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: the baseline's level-parallel sweeps accumulate into per-node cells; unlike the executor (disjoint-slot proofs + RawSlots), the baseline deliberately keeps the simple tree-based storage of the paper, so the cells are Mutex-guarded.  Contention is per-node and the baseline is measured for *time*, so the locks are part of what it models"
)]

use crate::{mul_acc, mul_tn_acc};
use matrox_compress::Compression;
use matrox_linalg::Matrix;
use matrox_tree::{ClusterTree, HTree};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a cell.  Poisoning is recovered rather than raised as a second
/// panic: the first one already unwinds through `rayon::join` / `for_each`
/// and aborts the evaluation, so a cell left mid-update never reaches a
/// result.
fn lock<T>(cell: &Mutex<T>) -> MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take a cell's value once the parallel region is over.
fn into_inner<T>(cell: Mutex<T>) -> T {
    cell.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// GOFMM-style evaluator over tree-based storage.
pub struct GofmmEvaluator<'a> {
    tree: &'a ClusterTree,
    compression: &'a Compression,
    near: Vec<((usize, usize), &'a Matrix)>,
    far: Vec<((usize, usize), &'a Matrix)>,
}

impl<'a> GofmmEvaluator<'a> {
    /// Wrap a compression output for GOFMM-style evaluation.
    pub fn new(tree: &'a ClusterTree, _htree: &'a HTree, compression: &'a Compression) -> Self {
        let near = compression
            .near_blocks
            .iter()
            .map(|((i, j), m)| ((*i, *j), m))
            .collect();
        let far = compression
            .far_blocks
            .iter()
            .map(|((i, j), m)| ((*i, *j), m))
            .collect();
        GofmmEvaluator {
            tree,
            compression,
            near,
            far,
        }
    }

    /// Evaluate `Y = K~ * W` with dynamic task scheduling ("TB + DS").
    pub fn evaluate(&self, w: &Matrix) -> Matrix {
        self.evaluate_impl(w, true)
    }

    /// Sequential evaluation over the tree-based storage ("TB (seq)").
    pub fn evaluate_sequential(&self, w: &Matrix) -> Matrix {
        self.evaluate_impl(w, false)
    }

    /// Multi-RHS evaluation processing `W` in panels of `panel_width`
    /// columns — the same batched entry point the MatRox session executor
    /// has, so plan-amortization comparisons (Figure 4) drive both systems
    /// through an identical interface.  `panel_width = 0` evaluates the
    /// whole `W` in one pass.  The result is bitwise identical to
    /// [`evaluate`](GofmmEvaluator::evaluate) column for column, since each
    /// output column accumulates independently.
    pub fn evaluate_batch(&self, w: &Matrix, panel_width: usize) -> Matrix {
        let q = w.cols();
        if panel_width == 0 || panel_width >= q {
            return self.evaluate(w);
        }
        let n = w.rows();
        let mut y = Matrix::zeros(n, q);
        let mut j0 = 0;
        while j0 < q {
            let j1 = (j0 + panel_width).min(q);
            let wp = w.submatrix(0, n, j0, j1);
            let yp = self.evaluate(&wp);
            for i in 0..n {
                y.row_mut(i)[j0..j1].copy_from_slice(yp.row(i));
            }
            j0 = j1;
        }
        y
    }

    fn evaluate_impl(&self, w: &Matrix, parallel: bool) -> Matrix {
        let tree = self.tree;
        let n = tree.perm.len();
        let q = w.cols();
        assert_eq!(w.rows(), n);
        let n_nodes = tree.num_nodes();

        // ---- upward pass: dynamic task recursion over the tree -----------
        let t: Vec<Matrix> = if parallel {
            let slots: Vec<Mutex<Matrix>> = (0..n_nodes)
                .map(|_| Mutex::new(Matrix::zeros(0, q)))
                .collect();
            if let Some((l, r)) = tree.nodes[0].children {
                rayon::join(
                    || self.upward_task(l, w, &slots),
                    || self.upward_task(r, w, &slots),
                );
            }
            slots.into_iter().map(into_inner).collect()
        } else {
            let mut t = vec![Matrix::zeros(0, q); n_nodes];
            for level in (1..=tree.height).rev() {
                for id in tree.level(level) {
                    t[id] = self.compute_t(id, w, &t);
                }
            }
            t
        };

        // ---- coupling: parallel over interactions with per-node locks ----
        let s: Vec<Matrix> = if parallel {
            let slots: Vec<Mutex<Matrix>> = self
                .compression
                .sranks
                .iter()
                .map(|&r| Mutex::new(Matrix::zeros(r, q)))
                .collect();
            self.far.par_iter().for_each(|((i, j), b)| {
                if b.rows() == 0 || b.cols() == 0 {
                    return;
                }
                let mut contrib = Matrix::zeros(b.rows(), q);
                mul_acc(b, &t[*j], &mut contrib);
                lock(&slots[*i]).add_assign(&contrib);
            });
            slots.into_iter().map(into_inner).collect()
        } else {
            let mut s: Vec<Matrix> = self
                .compression
                .sranks
                .iter()
                .map(|&r| Matrix::zeros(r, q))
                .collect();
            for ((i, j), b) in &self.far {
                if b.rows() == 0 || b.cols() == 0 {
                    continue;
                }
                let mut si = std::mem::replace(&mut s[*i], Matrix::zeros(0, 0));
                mul_acc(b, &t[*j], &mut si);
                s[*i] = si;
            }
            s
        };

        // ---- downward pass + near loop ------------------------------------
        let mut y = Matrix::zeros(n, q);
        if parallel {
            // Per-leaf output accumulators behind locks (atomic reductions).
            let leaf_acc: HashMap<usize, Mutex<Matrix>> = tree
                .leaves()
                .into_iter()
                .map(|l| (l, Mutex::new(Matrix::zeros(tree.nodes[l].num_points(), q))))
                .collect();
            // Downward: dynamic tasks pushing S to children.
            let s_cells: Vec<Mutex<Matrix>> = s.into_iter().map(Mutex::new).collect();
            if let Some((l, r)) = tree.nodes[0].children {
                rayon::join(
                    || self.downward_task(l, &s_cells, &leaf_acc, q),
                    || self.downward_task(r, &s_cells, &leaf_acc, q),
                );
            }
            // Near loop: parallel over interactions with locked accumulation.
            self.near.par_iter().for_each(|((i, j), d)| {
                let wj = w.gather_rows(tree.indices(*j));
                let mut contrib = Matrix::zeros(d.rows(), q);
                mul_acc(d, &wj, &mut contrib);
                lock(&leaf_acc[i]).add_assign(&contrib);
            });
            for (leaf, acc) in leaf_acc {
                y.scatter_add_rows(tree.indices(leaf), &into_inner(acc));
            }
        } else {
            let mut s = s;
            for level in 1..=tree.height {
                for id in tree.level(level) {
                    let s_i = std::mem::replace(&mut s[id], Matrix::zeros(0, 0));
                    self.apply_down(id, &s_i, &mut s, &mut y, q);
                }
            }
            for ((i, j), d) in &self.near {
                let wj = w.gather_rows(tree.indices(*j));
                let mut contrib = Matrix::zeros(d.rows(), q);
                mul_acc(d, &wj, &mut contrib);
                y.scatter_add_rows(tree.indices(*i), &contrib);
            }
        }
        y
    }

    fn compute_t(&self, id: usize, w: &Matrix, t: &[Matrix]) -> Matrix {
        let basis = &self.compression.bases[id];
        let q = w.cols();
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

    fn upward_task(&self, id: usize, w: &Matrix, slots: &[Mutex<Matrix>]) {
        if let Some((l, r)) = self.tree.nodes[id].children {
            rayon::join(
                || self.upward_task(l, w, slots),
                || self.upward_task(r, w, slots),
            );
        }
        // Children are complete (join is a barrier for this subtree).
        let ti = {
            // Read children's T values from their slots.
            let node = &self.tree.nodes[id];
            let q = w.cols();
            let basis = &self.compression.bases[id];
            if basis.srank == 0 {
                Matrix::zeros(0, q)
            } else if node.is_leaf() {
                let input = w.gather_rows(self.tree.indices(id));
                let mut ti = Matrix::zeros(basis.srank, q);
                mul_tn_acc(&basis.v, &input, &mut ti);
                ti
            } else {
                let (l, r) = node.children.unwrap();
                let tl = lock(&slots[l]).clone();
                let tr = lock(&slots[r]).clone();
                let input = match (tl.rows(), tr.rows()) {
                    (0, 0) => Matrix::zeros(0, q),
                    (0, _) => tr,
                    (_, 0) => tl,
                    _ => tl.vstack(&tr),
                };
                let mut ti = Matrix::zeros(basis.srank, q);
                mul_tn_acc(&basis.v, &input, &mut ti);
                ti
            }
        };
        *lock(&slots[id]) = ti;
    }

    fn downward_task(
        &self,
        id: usize,
        s_cells: &[Mutex<Matrix>],
        leaf_acc: &HashMap<usize, Mutex<Matrix>>,
        q: usize,
    ) {
        let basis = &self.compression.bases[id];
        let node = &self.tree.nodes[id];
        let s_i = lock(&s_cells[id]).clone();
        if basis.srank != 0 && s_i.rows() == basis.srank {
            if node.is_leaf() {
                let mut contrib = Matrix::zeros(node.num_points(), q);
                mul_acc(&basis.v, &s_i, &mut contrib);
                lock(&leaf_acc[&id]).add_assign(&contrib);
            } else {
                let (l, r) = node.children.unwrap();
                let rl = self.compression.bases[l].srank;
                let rr = self.compression.bases[r].srank;
                let mut expanded = Matrix::zeros(rl + rr, q);
                mul_acc(&basis.v, &s_i, &mut expanded);
                if rl > 0 {
                    lock(&s_cells[l]).add_assign(&expanded.submatrix(0, rl, 0, q));
                }
                if rr > 0 {
                    lock(&s_cells[r]).add_assign(&expanded.submatrix(rl, rl + rr, 0, q));
                }
            }
        }
        if let Some((l, r)) = node.children {
            rayon::join(
                || self.downward_task(l, s_cells, leaf_acc, q),
                || self.downward_task(r, s_cells, leaf_acc, q),
            );
        }
    }

    fn apply_down(&self, id: usize, s_i: &Matrix, s: &mut [Matrix], y: &mut Matrix, q: usize) {
        let basis = &self.compression.bases[id];
        if basis.srank == 0 || s_i.rows() != basis.srank {
            return;
        }
        let node = &self.tree.nodes[id];
        if node.is_leaf() {
            let mut contrib = Matrix::zeros(node.num_points(), q);
            mul_acc(&basis.v, s_i, &mut contrib);
            y.scatter_add_rows(self.tree.indices(id), &contrib);
        } else {
            let (l, r) = node.children.unwrap();
            let rl = self.compression.bases[l].srank;
            let rr = self.compression.bases[r].srank;
            let mut expanded = Matrix::zeros(rl + rr, q);
            mul_acc(&basis.v, s_i, &mut expanded);
            if rl > 0 {
                let top = expanded.submatrix(0, rl, 0, q);
                if s[l].rows() == rl {
                    s[l].add_assign(&top);
                } else {
                    s[l] = top;
                }
            }
            if rr > 0 {
                let bottom = expanded.submatrix(rl, rl + rr, 0, q);
                if s[r].rows() == rr {
                    s[r].add_assign(&bottom);
                } else {
                    s[r] = bottom;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_compress::{compress, reference_evaluate, CompressionParams};
    use matrox_linalg::relative_error;
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{PartitionMethod, Structure};
    use rand::SeedableRng;

    fn setup(structure: Structure) -> (ClusterTree, HTree, Compression, Matrix, Matrix) {
        let pts = generate(DatasetId::Grid, 512, 7);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 32, 0);
        let htree = HTree::build(&tree, structure);
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = Matrix::random_uniform(512, 4, &mut rng);
        let y_ref = reference_evaluate(&c, &tree, &htree, &w);
        (tree, htree, c, w, y_ref)
    }

    #[test]
    fn parallel_matches_reference_geometric() {
        let (tree, htree, c, w, y_ref) = setup(Structure::Geometric { tau: 0.65 });
        let eval = GofmmEvaluator::new(&tree, &htree, &c);
        let y = eval.evaluate(&w);
        assert!(relative_error(&y, &y_ref) < 1e-12);
    }

    #[test]
    fn batched_panels_match_full_evaluation() {
        let (tree, htree, c, w, y_ref) = setup(Structure::Geometric { tau: 0.65 });
        let eval = GofmmEvaluator::new(&tree, &htree, &c);
        let full = eval.evaluate_batch(&w, 0);
        assert!(relative_error(&full, &y_ref) < 1e-12);
        for panel in [1usize, 2, 3, 4, 16] {
            let y = eval.evaluate_batch(&w, panel);
            assert!(
                relative_error(&y, &full) < 1e-15,
                "panel {panel} diverged from full evaluation"
            );
        }
    }

    #[test]
    fn sequential_matches_reference_hss() {
        let (tree, htree, c, w, y_ref) = setup(Structure::Hss);
        let eval = GofmmEvaluator::new(&tree, &htree, &c);
        let y = eval.evaluate_sequential(&w);
        assert!(relative_error(&y, &y_ref) < 1e-12);
        let y_par = eval.evaluate(&w);
        assert!(relative_error(&y_par, &y_ref) < 1e-12);
    }
}
