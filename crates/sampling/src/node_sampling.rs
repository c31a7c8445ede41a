//! Per-node sampling information.
//!
//! After the point-wise k-NN lists are computed, MatRox "combines the lists
//! for each block using the clustering in the CTree to form a
//! nearest-neighbour list for the corresponding sub-domain/block" and then
//! applies importance sampling to select the final sample set for that block
//! (Section 3.1).  The sampled far-field points are the proxy columns against
//! which the interpolative decomposition of each node is computed.

use crate::knn::{approximate_knn, KnnParams};
use matrox_points::{Kernel, PointSet};
use matrox_tree::ClusterTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters controlling per-node sampling.
#[derive(Debug, Clone, Copy)]
pub struct SamplingParams {
    /// Number of neighbours per point fed into the node lists (paper default
    /// "sampling size = 32").
    pub knn: KnnParams,
    /// Number of importance-sampled neighbour points kept per node.
    pub sampling_size: usize,
    /// Number of additional uniformly-sampled far points per node (improves
    /// the conditioning of the ID sample; ASKIT/GOFMM do the same).
    pub uniform_samples: usize,
    /// RNG seed for the uniform far samples.
    pub seed: u64,
    /// Minimum nodes per parallel sampling task; `0` = auto (1).  Chunking
    /// only — each node's samples come from its own `(seed, id)` RNG, so the
    /// output never depends on this knob or the pool width.
    pub grain: usize,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams {
            knn: KnnParams::default(),
            sampling_size: 32,
            uniform_samples: 32,
            seed: 0xa11ce,
            grain: 0,
        }
    }
}

/// Sampling information for every cluster-tree node.
///
/// `samples[i]` holds global point indices outside node `i`'s index set that
/// serve as the far-field proxy columns for the ID of node `i`.
#[derive(Debug, Clone)]
pub struct SamplingInfo {
    /// Per-node sampled far-field point indices.
    pub samples: Vec<Vec<usize>>,
    /// The per-point k-NN lists the node lists were merged from (kept so the
    /// reuse experiments can report what inspector-p1 stores).
    pub point_knn: Vec<Vec<usize>>,
}

impl SamplingInfo {
    /// Total number of stored sample indices (a proxy for the memory the
    /// sampling module hands to inspector-p2).
    pub fn total_samples(&self) -> usize {
        self.samples.iter().map(|s| s.len()).sum()
    }
}

/// Compute sampling information for every node of the cluster tree.
///
/// The kernel is only used to rank neighbour candidates by importance
/// (kernel magnitude with respect to the node centroid); the actual kernel
/// evaluations for compression happen later in `matrox-compress`.
pub fn sample_nodes(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
) -> SamplingInfo {
    let point_knn = approximate_knn(points, &params.knn);

    // Inverse permutation: position of each point in the tree ordering, used
    // to test node membership in O(1).
    let pos = &tree.pos;

    let samples: Vec<Vec<usize>> = tree
        .nodes
        .par_iter()
        .with_min_len(params.grain.max(1))
        .map(|node| {
            let mut rng = StdRng::seed_from_u64(
                params.seed ^ (node.id as u64).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let inside = |q: usize| pos[q] >= node.start && pos[q] < node.end;

            // Merge member-point neighbour lists, excluding points inside the
            // node itself (those belong to the near field / diagonal block).
            let mut merged: Vec<usize> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for &p in tree.perm[node.start..node.end].iter() {
                for &q in &point_knn[p] {
                    if !inside(q) && seen.insert(q) {
                        merged.push(q);
                    }
                }
            }

            // Importance sampling: rank merged neighbours by kernel magnitude
            // w.r.t. the node centroid (for decaying kernels this favours the
            // strongest far interactions) and keep the top `sampling_size`.
            let mut weighted: Vec<(f64, usize)> = merged
                .iter()
                .map(|&q| {
                    let w = kernel.eval(&node.centroid, points.point(q));
                    (w, q)
                })
                .collect();
            weighted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let mut chosen: Vec<usize> = weighted
                .iter()
                .take(params.sampling_size)
                .map(|&(_, q)| q)
                .collect();

            // Top up with uniform samples from outside the node so the ID
            // sample also represents the weak, distant interactions.
            let outside_count = points.len() - node.num_points();
            let want_uniform = params
                .uniform_samples
                .min(outside_count.saturating_sub(chosen.len()));
            let mut guard = 0;
            while chosen.len() < params.sampling_size.min(outside_count) + want_uniform
                && guard < 20 * (want_uniform + 1)
            {
                guard += 1;
                let q = rng.gen_range(0..points.len());
                if !inside(q) && !chosen.contains(&q) {
                    chosen.push(q);
                }
            }
            chosen
        })
        .collect();

    SamplingInfo { samples, point_knn }
}

/// Exhaustive "sampling": every point outside the node is a sample.  This is
/// only feasible for small `N` and is used by tests and accuracy studies to
/// isolate the error of the ID itself from the sampling error.
pub fn sample_nodes_exhaustive(points: &PointSet, tree: &ClusterTree) -> SamplingInfo {
    let mut pos = vec![0usize; points.len()];
    for (p, &i) in tree.perm.iter().enumerate() {
        pos[i] = p;
    }
    let samples = tree
        .nodes
        .iter()
        .map(|node| {
            (0..points.len())
                .filter(|&q| pos[q] < node.start || pos[q] >= node.end)
                .collect()
        })
        .collect();
    SamplingInfo {
        samples,
        point_knn: vec![Vec::new(); points.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};
    use matrox_tree::PartitionMethod;

    fn setup(n: usize) -> (PointSet, ClusterTree) {
        let pts = generate(DatasetId::Random, n, 11);
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 32, 0);
        (pts, tree)
    }

    #[test]
    fn samples_exclude_node_members() {
        let (pts, tree) = setup(512);
        let info = sample_nodes(
            &pts,
            &tree,
            &Kernel::paper_gaussian(),
            &SamplingParams::default(),
        );
        assert_eq!(info.samples.len(), tree.num_nodes());
        for node in &tree.nodes {
            let members: std::collections::HashSet<_> =
                tree.perm[node.start..node.end].iter().collect();
            for q in &info.samples[node.id] {
                assert!(
                    !members.contains(q),
                    "node {} sampled its own member",
                    node.id
                );
            }
        }
    }

    #[test]
    fn samples_are_unique_per_node() {
        let (pts, tree) = setup(400);
        let info = sample_nodes(
            &pts,
            &tree,
            &Kernel::paper_gaussian(),
            &SamplingParams::default(),
        );
        for s in &info.samples {
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), s.len());
        }
    }

    #[test]
    fn root_node_has_no_far_field() {
        let (pts, tree) = setup(300);
        let info = sample_nodes(
            &pts,
            &tree,
            &Kernel::paper_gaussian(),
            &SamplingParams::default(),
        );
        assert!(
            info.samples[0].is_empty(),
            "the root has no far field to sample"
        );
    }

    #[test]
    fn sample_counts_are_bounded() {
        let (pts, tree) = setup(600);
        let p = SamplingParams {
            sampling_size: 16,
            uniform_samples: 8,
            ..Default::default()
        };
        let info = sample_nodes(&pts, &tree, &Kernel::paper_gaussian(), &p);
        for (i, s) in info.samples.iter().enumerate() {
            assert!(
                s.len() <= p.sampling_size + p.uniform_samples,
                "node {i} has {} samples",
                s.len()
            );
        }
    }

    #[test]
    fn exhaustive_sampling_covers_everything_outside() {
        let (pts, tree) = setup(128);
        let info = sample_nodes_exhaustive(&pts, &tree);
        for node in &tree.nodes {
            assert_eq!(info.samples[node.id].len(), pts.len() - node.num_points());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (pts, tree) = setup(256);
        let a = sample_nodes(
            &pts,
            &tree,
            &Kernel::paper_gaussian(),
            &SamplingParams::default(),
        );
        let b = sample_nodes(
            &pts,
            &tree,
            &Kernel::paper_gaussian(),
            &SamplingParams::default(),
        );
        assert_eq!(a.samples, b.samples);
    }
}
