//! Per-node sampling information.
//!
//! After the point-wise k-NN lists are computed, MatRox "combines the lists
//! for each block using the clustering in the CTree to form a
//! nearest-neighbour list for the corresponding sub-domain/block" and then
//! applies importance sampling to select the final sample set for that block
//! (Section 3.1).  The sampled far-field points are the proxy columns against
//! which the interpolative decomposition of each node is computed.
//!
//! The node lists cost what they hold: the nodes run level by level from
//! the deepest, a leaf merges its members' lists and an inner node its two
//! children's merged lists, repeats are dropped with an `N`-bit set per
//! pool task, and the kept samples are one selection plus a sort of only
//! the kept entries ([`sample_nodes_from_knn`]).  Every list and sample is
//! the one a per-node hash set over all member lists and a stable sort of
//! every weight give (`tests/node_sampling_oracle.rs`).

use crate::knn::{approximate_knn, KnnParams};
use crate::scratch::{task_len, Marks};
use matrox_points::{Kernel, PointSet};
use matrox_tree::{ClusterTree, TreeNode};
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
    sample_nodes_from_knn(points, tree, kernel, params, point_knn)
}

/// [`sample_nodes`] from per-point neighbour lists already computed
/// (`params.knn` is not read): the node lists, their kernel weights and the
/// samples.
///
/// A node's list is its members' neighbour lists merged in member order,
/// without points inside the node and without repeats.  The nodes run level
/// by level from the deepest, and an inner node merges its two children's
/// lists instead of its members': the children own its members in order and
/// every point outside the node is outside both, so keeping what lies
/// outside the node, first occurrences only, gives the same list from far
/// fewer entries.  Repeats are dropped with an `N`-bit set per task.
///
/// The merged points are weighed by the kernel against the node's centroid,
/// and the `sampling_size` heaviest are kept by `(weight descending,
/// first-seen position)` — the order a stable sort by weight leaves — with
/// one selection and a sort of only the kept entries.
///
/// The tree is a built (or validated) one: each node's children sit one
/// level below it (`ClusterTree::validate`'s T4).
///
/// # Panics
/// If `point_knn` does not hold one list a point or a kernel weight is NaN.
pub fn sample_nodes_from_knn(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
    point_knn: Vec<Vec<usize>>,
) -> SamplingInfo {
    let n = points.len();
    assert_eq!(
        point_knn.len(),
        n,
        "sample_nodes: one neighbour list a point"
    );
    let nodes = &tree.nodes;
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); tree.height + 1];
    for node in nodes {
        by_level[node.level].push(node.id);
    }
    // `lists[id]`: node `id`'s merged list, held until its parent merges it.
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut samples: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for ids in by_level.iter().rev() {
        let chunk = task_len(ids.len(), params.grain);
        let below = &lists;
        let done: Vec<Vec<(Vec<usize>, Vec<usize>)>> = (0..ids.len().div_ceil(chunk))
            .into_par_iter()
            .map(|c| {
                let mut seen = Marks::new(n);
                let mut weighted: Vec<(f64, usize)> = Vec::new();
                ids[c * chunk..]
                    .iter()
                    .take(chunk)
                    .map(|&id| {
                        let node = &nodes[id];
                        let merged = match node.children {
                            None => {
                                let members = tree.perm[node.start..node.end].iter();
                                let entries = members.flat_map(|&p| &point_knn[p]);
                                merge_outside(tree, node, entries, &mut seen)
                            }
                            Some((l, r)) => {
                                let entries = below[l].iter().chain(&below[r]);
                                merge_outside(tree, node, entries, &mut seen)
                            }
                        };
                        let chosen =
                            choose(points, tree, kernel, params, node, &merged, &mut weighted);
                        (merged, chosen)
                    })
                    .collect()
            })
            .collect();
        for (&id, (merged, chosen)) in ids.iter().zip(done.into_iter().flatten()) {
            if let Some((l, r)) = nodes[id].children {
                lists[l] = Vec::new();
                lists[r] = Vec::new();
            }
            lists[id] = merged;
            samples[id] = chosen;
        }
    }
    SamplingInfo { samples, point_knn }
}

/// The first occurrences of the `entries` that lie outside `node` (those
/// inside belong to the near field / diagonal block), in entry order.
/// `seen` is empty before and after.
fn merge_outside<'a>(
    tree: &ClusterTree,
    node: &TreeNode,
    entries: impl Iterator<Item = &'a usize>,
    seen: &mut Marks,
) -> Vec<usize> {
    let pos = &tree.pos;
    let mut merged = Vec::new();
    for &q in entries {
        if (pos[q] < node.start || pos[q] >= node.end) && seen.insert(q) {
            merged.push(q);
        }
    }
    merged.iter().for_each(|&q| seen.remove(q));
    merged
}

/// One node's samples from its merged list.  `weighted` is scratch.
fn choose(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
    node: &TreeNode,
    merged: &[usize],
    weighted: &mut Vec<(f64, usize)>,
) -> Vec<usize> {
    let n = points.len();
    let mut rng =
        StdRng::seed_from_u64(params.seed ^ (node.id as u64).wrapping_mul(0x9e3779b97f4a7c15));

    // Importance sampling: rank merged neighbours by kernel magnitude w.r.t.
    // the node centroid (for decaying kernels this favours the strongest far
    // interactions) and keep the top `sampling_size`, earlier-seen first
    // among equals.
    weighted.clear();
    weighted.extend(
        merged
            .iter()
            .enumerate()
            .map(|(at, &q)| (kernel.eval(&node.centroid, points.point(q)), at)),
    );
    let heavier =
        |a: &(f64, usize), b: &(f64, usize)| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1));
    let keep = params.sampling_size.min(weighted.len());
    if keep > 0 && keep < weighted.len() {
        weighted.select_nth_unstable_by(keep - 1, heavier);
    }
    weighted[..keep].sort_unstable_by(heavier);
    let mut chosen: Vec<usize> = weighted[..keep].iter().map(|&(_, at)| merged[at]).collect();

    // Top up with uniform samples from outside the node so the ID sample
    // also represents the weak, distant interactions.
    let pos = &tree.pos;
    let inside = |q: usize| pos[q] >= node.start && pos[q] < node.end;
    let outside_count = n - node.num_points();
    let want_uniform = params
        .uniform_samples
        .min(outside_count.saturating_sub(chosen.len()));
    let mut guard = 0;
    while chosen.len() < params.sampling_size.min(outside_count) + want_uniform
        && guard < 20 * (want_uniform + 1)
    {
        guard += 1;
        let q = rng.gen_range(0..n);
        if !inside(q) && !chosen.contains(&q) {
            chosen.push(q);
        }
    }
    chosen
}

/// Exhaustive "sampling": every point outside the node is a sample.  This is
/// only feasible for small `N` and is used by tests and accuracy studies to
/// isolate the error of the ID itself from the sampling error.
pub fn sample_nodes_exhaustive(points: &PointSet, tree: &ClusterTree) -> SamplingInfo {
    let pos = &tree.pos;
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
