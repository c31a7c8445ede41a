//! Low-rank approximation: the last module of MatRox's modular compression.
//!
//! For every cluster-tree node an interpolative decomposition (ID) of the
//! sampled far-field block selects a set of *skeleton* points and an
//! interpolation matrix; internal nodes are skeletonized from their
//! children's skeletons, giving the nested (H²) basis.  The rank of every
//! block — the paper's `srank` — is chosen adaptively so the ID meets the
//! requested block-approximation accuracy `bacc`, capped at `max_rank`
//! (256 in the paper's default configuration).
//!
//! The module produces the *structure information* consumed by structure
//! analysis and the executor:
//!
//! * one generator `V_i` per node (leaf interpolation or internal transfer
//!   matrix; the kernels are symmetric, so the row basis `U_i` *is* `V_i` —
//!   DESIGN.md substitution S8) and its skeleton,
//! * the `sranks` vector (used by the coarsening cost model),
//! * dense near blocks `D_{i,j}` and low-rank coupling blocks
//!   `B_{i,j} = K(skel_i, skel_j)`.

use matrox_linalg::{failpoint, Matrix};
use matrox_points::{Kernel, PointSet};
use matrox_sampling::SamplingInfo;
use matrox_tree::{ClusterTree, HTree, NearBlocks};
use rayon::prelude::*;

/// Parameters of the low-rank approximation module.
#[derive(Debug, Clone, Copy)]
pub struct CompressionParams {
    /// Block approximation accuracy `bacc`; the ID of each block stops once
    /// the relative diagonal of the pivoted QR drops below this value.
    pub bacc: f64,
    /// Hard cap on the submatrix rank (the paper's "maximum rank = 256").
    pub max_rank: usize,
    /// Minimum nodes/blocks per parallel compression task; `0` = auto (1).
    /// Chunking only — every node's basis is a pure function of the inputs,
    /// so the output never depends on this knob or the pool width.
    pub grain: usize,
}

impl Default for CompressionParams {
    fn default() -> Self {
        CompressionParams {
            bacc: 1e-5,
            max_rank: 256,
            grain: 0,
        }
    }
}

/// Per-node generators produced by the low-rank approximation.
#[derive(Debug, Clone)]
pub struct NodeBasis {
    /// Rank of this node's basis (`srank`); 0 when the node has no far field.
    pub srank: usize,
    /// Global point indices of the node's skeleton, in pivot order.
    pub skeleton: Vec<usize>,
    /// Column-basis generator.  For a leaf: `|I_i| x srank` interpolation
    /// matrix.  For an internal node: `(srank_lc + srank_rc) x srank`
    /// transfer matrix acting on the children's skeleton coefficients.
    /// Applied transposed on the way up and plain on the way down: every
    /// kernel is symmetric, so it is the row basis too.
    pub v: Matrix,
}

impl NodeBasis {
    fn empty() -> Self {
        NodeBasis {
            srank: 0,
            skeleton: Vec::new(),
            v: Matrix::zeros(0, 0),
        }
    }
}

/// Output of the compression phase: the HMatrix in unordered ("tree-based")
/// form, before structure analysis reorders it into CDS.
#[derive(Debug, Clone)]
pub struct Compression {
    /// Parameters the blocks were compressed with.
    pub params: CompressionParams,
    /// Per-node generators, indexed by node id.
    pub bases: Vec<NodeBasis>,
    /// Per-node sranks (copy of `bases[i].srank`, kept separate because the
    /// coarsening cost model of Algorithm 2 consumes exactly this vector).
    pub sranks: Vec<usize>,
    /// Dense near blocks: `((i, j), D_{i,j})` with `D_{i,j} = K(I_i, I_j)`,
    /// shared with the HTree that evaluated them ([`HTree::near_blocks`]),
    /// and with the CDS `D` buffer packed from them
    /// ([`NearSet::packed`](matrox_tree::NearSet::packed)): they do not
    /// depend on `bacc`.
    pub near_blocks: NearBlocks,
    /// Low-rank coupling blocks: `((i, j), B_{i,j})` with
    /// `B_{i,j} = K(skel_i, skel_j)`.
    pub far_blocks: Vec<((usize, usize), Matrix)>,
}

impl Compression {
    /// Total bytes of submatrix payload (used by reports and to size CDS).
    pub fn storage_bytes(&self) -> usize {
        let gen_elems: usize = self.bases.iter().map(|b| b.v.len()).sum::<usize>();
        let near_elems: usize = self.near_blocks.iter().map(|(_, m)| m.len()).sum::<usize>();
        let far_elems: usize = self.far_blocks.iter().map(|(_, m)| m.len()).sum::<usize>();
        (gen_elems + near_elems + far_elems) * std::mem::size_of::<f64>()
    }

    /// Compression ratio versus the dense `N x N` kernel matrix.
    pub fn compression_ratio(&self, n: usize) -> f64 {
        let dense = (n * n * std::mem::size_of::<f64>()) as f64;
        dense / self.storage_bytes().max(1) as f64
    }
}

/// Run the low-rank approximation module.
///
/// This corresponds to the "low-rank approximation" box of Figure 3: it takes
/// the HTree, the kernel function, the block accuracy and the sampling
/// information, and produces the sranks and submatrices.
pub fn compress(
    points: &PointSet,
    tree: &ClusterTree,
    htree: &HTree,
    kernel: &Kernel,
    sampling: &SamplingInfo,
    params: &CompressionParams,
) -> Compression {
    let n_nodes = tree.num_nodes();
    let grain = params.grain.max(1);
    let mut bases: Vec<NodeBasis> = vec![NodeBasis::empty(); n_nodes];

    // Does any node need a basis at all?  Only nodes that participate in far
    // interactions, or have an ancestor/descendant chain leading to one, do.
    // Computing bases for every non-root node is simpler and matches what
    // GOFMM does; the root never needs one (Figure 1b: "node 0 is not
    // involved in any computation").
    //
    // Bases must be built bottom-up because an internal node's sample rows
    // are its children's skeletons.
    //
    // Each node's ID and each coupling block go on from the work an
    // earlier compression over the same inputs kept, where there is any.
    // Asked for before the near blocks, so a first compression keeps none
    // (`HTree::ladder`).
    let ladder = htree.ladder(points, tree, kernel);
    for level in (1..=tree.height).rev() {
        let level_bases: Vec<(usize, NodeBasis)> = tree
            .level(level)
            .into_par_iter()
            .with_min_len(grain)
            .map(|id| {
                let node = &tree.nodes[id];
                let samples = &sampling.samples[id];
                if samples.is_empty() {
                    return (id, NodeBasis::empty());
                }
                // Candidate rows: the node's own points for a leaf, or the
                // union of the children's skeletons for an internal node.
                let candidate_rows: Vec<usize> = if node.is_leaf() {
                    tree.indices(id).to_vec()
                } else {
                    let (l, r) = node.children.unwrap();
                    let mut rows = bases[l].skeleton.clone();
                    rows.extend_from_slice(&bases[r].skeleton);
                    rows
                };
                if candidate_rows.is_empty() {
                    return (id, NodeBasis::empty());
                }
                // The ID's QR factors the block transposed, `K(S_i, rows)`
                // (bit-equal: every kernel is symmetric), or goes on from
                // the kept QR of that block.
                let task = ladder.node(id, &candidate_rows, samples);
                if failpoint::should_fire(failpoint::names::COMPRESS_PANIC) {
                    panic!("injected failpoint `{}`", failpoint::names::COMPRESS_PANIC);
                }
                let id_res = task.row_id(params.bacc, params.max_rank);
                let skeleton: Vec<usize> =
                    id_res.skeleton.iter().map(|&r| candidate_rows[r]).collect();
                (
                    id,
                    NodeBasis {
                        srank: id_res.rank,
                        skeleton,
                        v: id_res.interp,
                    },
                )
            })
            .collect();
        for (id, basis) in level_bases {
            bases[id] = basis;
        }
    }

    let sranks: Vec<usize> = bases.iter().map(|b| b.srank).collect();

    // Dense near blocks D_{i,j} = K(I_i, I_j), evaluated once per HTree and
    // kernel, and coupling blocks B_{i,j} = K(skel_i, skel_j), each twin
    // evaluated once.
    let near_blocks = htree.near_blocks(points, tree, kernel, grain);
    let far_blocks = ladder.coupling_blocks(&htree.far, grain, |i| &bases[i].skeleton);

    Compression {
        params: *params,
        bases,
        sranks,
        near_blocks,
        far_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, pair_blocks, DatasetId};
    use matrox_sampling::{sample_nodes, sample_nodes_exhaustive, SamplingParams};
    use matrox_tree::{PartitionMethod, Structure};

    fn setup(
        n: usize,
        structure: Structure,
    ) -> (PointSet, ClusterTree, HTree, SamplingInfo, Kernel) {
        let pts = generate(DatasetId::Random, n, 21);
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
        let htree = HTree::build(&tree, structure);
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        (
            pts,
            tree,
            htree,
            sampling,
            Kernel::Gaussian { bandwidth: 1.0 },
        )
    }

    #[test]
    fn sranks_respect_max_rank_and_node_size() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::Hss);
        let params = CompressionParams {
            bacc: 1e-5,
            max_rank: 16,
            grain: 0,
        };
        let c = compress(&pts, &tree, &htree, &kernel, &sampling, &params);
        for (id, b) in c.bases.iter().enumerate() {
            assert!(b.srank <= 16, "node {id} srank {}", b.srank);
            assert_eq!(b.srank, b.skeleton.len());
            assert_eq!(c.sranks[id], b.srank);
        }
    }

    #[test]
    fn leaf_skeletons_are_subsets_of_leaf_points() {
        let (pts, tree, htree, sampling, kernel) = setup(256, Structure::Hss);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        for node in &tree.nodes {
            if node.id == 0 {
                continue;
            }
            let members: std::collections::HashSet<_> = tree.indices(node.id).iter().collect();
            for s in &c.bases[node.id].skeleton {
                assert!(members.contains(s), "skeleton of node {} leaked", node.id);
            }
        }
    }

    #[test]
    fn internal_skeletons_come_from_children_skeletons() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::Hss);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        for node in &tree.nodes {
            if node.id == 0 || node.is_leaf() {
                continue;
            }
            let (l, r) = node.children.unwrap();
            let pool: std::collections::HashSet<_> = c.bases[l]
                .skeleton
                .iter()
                .chain(c.bases[r].skeleton.iter())
                .collect();
            for s in &c.bases[node.id].skeleton {
                assert!(pool.contains(s));
            }
        }
    }

    /// Every entry of every stored block is `Kernel::eval`'s on its points,
    /// by bits, and the blocks come in the HTree's pair order.
    fn assert_blocks_are_kernel_entries(
        pts: &PointSet,
        tree: &ClusterTree,
        htree: &HTree,
        kernel: &Kernel,
        c: &Compression,
    ) {
        let near: Vec<_> = c.near_blocks.iter().map(|(pair, _)| *pair).collect();
        let far: Vec<_> = c.far_blocks.iter().map(|(pair, _)| *pair).collect();
        assert_eq!(near, htree.near_pairs());
        assert_eq!(far, htree.far_pairs());
        let near = c
            .near_blocks
            .iter()
            .map(|(p, b)| (p, b, tree.indices(p.0), tree.indices(p.1)));
        let skeleton = |i: usize| &c.bases[i].skeleton[..];
        let far = c
            .far_blocks
            .iter()
            .map(|(p, b)| (p, b, skeleton(p.0), skeleton(p.1)));
        for (pair, block, rows, cols) in near.chain(far) {
            assert_eq!(block.shape(), (rows.len(), cols.len()), "{pair:?}");
            for (a, &i) in rows.iter().enumerate() {
                for (b, &j) in cols.iter().enumerate() {
                    let want = kernel.eval(pts.point(i), pts.point(j));
                    assert_eq!(
                        block.get(a, b).to_bits(),
                        want.to_bits(),
                        "{pair:?} ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn near_blocks_match_kernel_entries() {
        let (pts, tree, htree, sampling, kernel) = setup(256, Structure::Geometric { tau: 0.65 });
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        assert_blocks_are_kernel_entries(&pts, &tree, &htree, &kernel, &c);
    }

    #[test]
    fn coupling_blocks_match_kernel_entries() {
        for structure in [Structure::Hss, Structure::h2b()] {
            let (pts, tree, htree, sampling, kernel) = setup(512, structure);
            let c = compress(
                &pts,
                &tree,
                &htree,
                &kernel,
                &sampling,
                &CompressionParams::default(),
            );
            assert!(!c.far_blocks.is_empty());
            assert_blocks_are_kernel_entries(&pts, &tree, &htree, &kernel, &c);
        }
    }

    /// Twins are an optimisation, not an assumption: a pair whose twin is
    /// not listed is evaluated as it stands, whichever of the two is left,
    /// and unsorted or repeating lists still get every block.
    #[test]
    fn pairs_without_a_twin_are_evaluated_as_they_stand() {
        let (pts, tree, mut htree, sampling, kernel) = setup(512, Structure::h2b());
        for (i, list) in htree.near.iter_mut().enumerate() {
            list.retain(|&j| !(i < j && (i + j) % 3 == 0));
        }
        for (i, list) in htree.far.iter_mut().enumerate() {
            list.retain(|&j| !(i > j && (i + j) % 2 == 0));
        }
        // Unsorted lists, and a repeated entry on each side of a twin.
        for list in htree.near.iter_mut().chain(htree.far.iter_mut()) {
            list.reverse();
        }
        let twinned = |lists: &[Vec<usize>]| {
            (0..lists.len())
                .flat_map(|i| lists[i].iter().map(move |&j| (i, j)))
                .find(|&(i, j)| j < i && lists[j].contains(&i))
                .unwrap()
        };
        for lists in [&mut htree.near, &mut htree.far] {
            let (i, j) = twinned(lists);
            lists[i].push(j);
            lists[j].push(i);
        }
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        assert_blocks_are_kernel_entries(&pts, &tree, &htree, &kernel, &c);
    }

    /// The same at a covtype-like N = 4096 (d = 54) under H2-b with the
    /// inspector's default sampling and leaf size.
    #[test]
    #[ignore = "release-only: cargo test --release -p matrox-compress -- --ignored matches_reference_at_workload_shapes"]
    fn compress_matches_reference_at_workload_shapes() {
        let pts = generate(DatasetId::Covtype, 4096, 6);
        let kernel = Kernel::Gaussian { bandwidth: 5.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 64, 0);
        let htree = HTree::build(&tree, Structure::h2b());
        let sampling = sample_nodes(&pts, &tree, &kernel, &SamplingParams::default());
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        assert_blocks_are_kernel_entries(&pts, &tree, &htree, &kernel, &c);
    }

    /// Every block's pair, shape and entries by bits.
    type BlockBits = Vec<((usize, usize), (usize, usize), Vec<u64>)>;

    fn block_bits(blocks: &[((usize, usize), Matrix)]) -> BlockBits {
        blocks
            .iter()
            .map(|(pair, m)| {
                let bits = m.as_slice().iter().map(|v| v.to_bits()).collect();
                (*pair, m.shape(), bits)
            })
            .collect()
    }

    fn at_bacc(bacc: f64) -> CompressionParams {
        CompressionParams {
            bacc,
            ..CompressionParams::default()
        }
    }

    /// Two p2 on one HTree share one near field, and it is the blocks a
    /// memo-free evaluation gives.
    #[test]
    fn near_blocks_are_evaluated_once_per_tree() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::h2b());
        let coarse = compress(&pts, &tree, &htree, &kernel, &sampling, &at_bacc(1e-1));
        let fine = compress(&pts, &tree, &htree, &kernel, &sampling, &at_bacc(1e-5));
        assert!(std::sync::Arc::ptr_eq(
            &coarse.near_blocks,
            &fine.near_blocks
        ));
        let fresh = pair_blocks(&pts, &kernel, &htree.near, 1, |i| tree.indices(i));
        assert_eq!(block_bits(&fine.near_blocks), block_bits(&fresh));
        let shown = format!("{htree:?}");
        assert!(
            shown.contains("NearField(") && shown.len() < 100_000,
            "{}",
            shown.len()
        );
    }

    /// With the points kept on the HTree, the memo shares that copy: a call
    /// over the copy and one over the caller's equal set both get the kept
    /// blocks back, one coordinate moved evaluates afresh, and neither the
    /// copy nor the blocks are printed.
    #[test]
    fn the_kept_points_key_the_memo() {
        let (pts, tree, mut htree, sampling, kernel) = setup(512, Structure::h2b());
        htree.keep_points(&pts);
        let params = CompressionParams::default();
        let kept = htree.kept_points().unwrap();
        assert_eq!(htree.built_over(&pts), Some(true));
        let first = compress(kept, &tree, &htree, &kernel, &sampling, &params).near_blocks;
        for p in [kept, &pts] {
            let again = compress(p, &tree, &htree, &kernel, &sampling, &params).near_blocks;
            assert!(std::sync::Arc::ptr_eq(&again, &first));
        }
        let mut coords = pts.coords().to_vec();
        coords[pts.dim()] += 0.25;
        let moved = PointSet::new(pts.dim(), coords);
        assert_eq!(htree.built_over(&moved), Some(false));
        let got = compress(&moved, &tree, &htree, &kernel, &sampling, &params).near_blocks;
        assert!(!std::sync::Arc::ptr_eq(&got, &first));
        let fresh = pair_blocks(&moved, &kernel, &htree.near, 1, |i| tree.indices(i));
        assert_eq!(block_bits(&got), block_bits(&fresh));
        assert!(format!("{htree:?}").len() < 100_000);
    }

    /// The memo is keyed on everything the blocks read: another kernel,
    /// points that differ in one coordinate, another tree over the same
    /// points and edited near lists each evaluate afresh, to the blocks a
    /// fresh HTree gives, and the kept field still serves its own inputs.
    #[test]
    fn a_changed_input_evaluates_afresh() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::h2b());
        let params = CompressionParams::default();
        let kept = compress(&pts, &tree, &htree, &kernel, &sampling, &params).near_blocks;
        let check = |pts: &PointSet, tree: &ClusterTree, htree: &HTree, kernel: &Kernel| {
            let got = compress(pts, tree, htree, kernel, &sampling, &params).near_blocks;
            assert!(!std::sync::Arc::ptr_eq(&got, &kept));
            let mut fresh = HTree::build(tree, htree.structure);
            fresh.near = htree.near.clone();
            let want = compress(pts, tree, &fresh, kernel, &sampling, &params).near_blocks;
            assert_eq!(block_bits(&got), block_bits(&want));
            assert_ne!(block_bits(&got), block_bits(&kept));
        };

        check(&pts, &tree, &htree, &Kernel::Laplace { bandwidth: 1.0 });
        // `PartialEq` takes -0.0 for 0.0; the diagonal entries `K(x, x)` do not.
        let diag = |diag: f64| Kernel::InverseDistance { diag };
        let other_tree = HTree::build(&tree, htree.structure);
        let plus = compress(&pts, &tree, &other_tree, &diag(0.0), &sampling, &params);
        let minus = compress(&pts, &tree, &other_tree, &diag(-0.0), &sampling, &params);
        assert_ne!(
            block_bits(&plus.near_blocks),
            block_bits(&minus.near_blocks)
        );

        let mut coords = pts.coords().to_vec();
        coords[3 * pts.dim() + 1] += 0.25;
        check(&PointSet::new(pts.dim(), coords), &tree, &htree, &kernel);

        // Two points swapped between two leaves: the same shape and points,
        // other leaf index sets.
        let leaves = tree.leaves();
        let (a, b) = (tree.nodes[leaves[0]].start, tree.nodes[leaves[1]].start);
        let mut other = tree.clone();
        other.perm.swap(a, b);
        other.pos = matrox_tree::invert_permutation(&other.perm);
        check(&pts, &other, &htree, &kernel);

        let mut edited = htree.clone();
        let (i, j) = edited
            .near_pairs()
            .into_iter()
            .find(|&(i, j)| i != j)
            .unwrap();
        edited.near[i].retain(|&x| x != j);
        edited.near[j].retain(|&x| x != i);
        check(&pts, &tree, &edited, &kernel);

        let again = compress(&pts, &tree, &htree, &kernel, &sampling, &params).near_blocks;
        assert!(std::sync::Arc::ptr_eq(&again, &kept));
    }

    /// Two first calls on one HTree racing on a 2-wide pool agree bitwise.
    #[test]
    fn concurrent_first_calls_agree() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::h2b());
        let params = CompressionParams::default();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let run = || compress(&pts, &tree, &htree, &kernel, &sampling, &params);
        let (a, b) = pool.install(|| rayon::join(run, run));
        assert_eq!(block_bits(&a.near_blocks), block_bits(&b.near_blocks));
        assert_eq!(block_bits(&a.far_blocks), block_bits(&b.far_blocks));
        assert_eq!(a.sranks, b.sranks);
        let fresh = pair_blocks(&pts, &kernel, &htree.near, 1, |i| tree.indices(i));
        assert_eq!(block_bits(&a.near_blocks), block_bits(&fresh));
    }

    /// Every node's rank, skeleton and generator by bits.
    fn basis_bits(c: &Compression) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
        c.bases
            .iter()
            .map(|b| {
                let v = b.v.as_slice().iter().map(|x| x.to_bits()).collect();
                (b.srank, b.skeleton.clone(), v)
            })
            .collect()
    }

    /// The nodes below the root that have samples, so a sample block and
    /// a QR of it.
    fn sampled_nodes(tree: &ClusterTree, sampling: &SamplingInfo) -> usize {
        let sampled = |i: &usize| !sampling.samples[*i].is_empty();
        (1..tree.num_nodes()).filter(sampled).count()
    }

    /// The first compression over a tree keeps no node's QR, the second
    /// keeps every one, and each gives the bases a memo-free compression
    /// does; the third goes on from them.
    #[test]
    fn the_second_call_keeps_the_leaf_sample_blocks() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::h2b());
        let nodes = sampled_nodes(&tree, &sampling);
        assert!(nodes > 1);
        for (rung, (bacc, kept)) in [(1e-1, 0), (1e-3, nodes), (1e-5, nodes)]
            .into_iter()
            .enumerate()
        {
            let got = compress(&pts, &tree, &htree, &kernel, &sampling, &at_bacc(bacc));
            assert_eq!(htree.ladder_counts().nodes_kept, kept, "rung {rung}");
            let fresh = HTree::build(&tree, htree.structure);
            let want = compress(&pts, &tree, &fresh, &kernel, &sampling, &at_bacc(bacc));
            assert_eq!(basis_bits(&got), basis_bits(&want), "rung {rung}");
            assert_eq!(fresh.ladder_counts().nodes_kept, 0);
        }
        let shown = format!("{htree:?}");
        assert!(
            shown.contains(&format!("{nodes} node QRs")) && shown.len() < 100_000,
            "{}",
            shown.len()
        );
    }

    /// The kept QRs are keyed on everything they read: another kernel, a
    /// moved coordinate and one leaf's samples edited each give the bases a
    /// memo-free compression does, and the memo still serves its own
    /// inputs.
    #[test]
    fn a_changed_input_evaluates_its_leaf_blocks_afresh() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::h2b());
        let params = at_bacc(1e-3);
        let nodes = sampled_nodes(&tree, &sampling);
        let kept = compress(&pts, &tree, &htree, &kernel, &sampling, &params);
        compress(&pts, &tree, &htree, &kernel, &sampling, &params);
        assert_eq!(htree.ladder_counts().nodes_kept, nodes);
        let check = |pts: &PointSet, kernel: &Kernel, sampling: &SamplingInfo| {
            let got = compress(pts, &tree, &htree, kernel, sampling, &params);
            let fresh = HTree::build(&tree, htree.structure);
            let want = compress(pts, &tree, &fresh, kernel, sampling, &params);
            assert_eq!(basis_bits(&got), basis_bits(&want));
            assert_ne!(basis_bits(&got), basis_bits(&kept));
            assert_eq!(htree.ladder_counts().nodes_kept, nodes);
        };

        check(&pts, &Kernel::Laplace { bandwidth: 1.0 }, &sampling);
        let mut coords = pts.coords().to_vec();
        let leaf = tree.leaves()[0];
        coords[tree.indices(leaf)[0] * pts.dim()] += 0.25;
        check(&PointSet::new(pts.dim(), coords), &kernel, &sampling);
        let mut edited = sampling.clone();
        edited.samples[leaf].pop();
        check(&pts, &kernel, &edited);

        let again = compress(&pts, &tree, &htree, &kernel, &sampling, &params);
        assert_eq!(basis_bits(&again), basis_bits(&kept));
    }

    #[test]
    fn far_block_shapes_match_sranks() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::Hss);
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams::default(),
        );
        assert_eq!(c.far_blocks.len(), htree.num_far());
        for ((i, j), block) in &c.far_blocks {
            assert_eq!(block.shape(), (c.sranks[*i], c.sranks[*j]));
        }
    }

    #[test]
    fn tighter_bacc_gives_larger_or_equal_ranks() {
        let (pts, tree, htree, sampling, kernel) = setup(512, Structure::Hss);
        let loose = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams {
                bacc: 1e-2,
                max_rank: 256,
                grain: 0,
            },
        );
        let tight = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams {
                bacc: 1e-8,
                max_rank: 256,
                grain: 0,
            },
        );
        let sl: usize = loose.sranks.iter().sum();
        let st: usize = tight.sranks.iter().sum();
        assert!(st >= sl, "tight {st} < loose {sl}");
    }

    #[test]
    fn compression_is_much_smaller_than_dense_for_smooth_kernel() {
        let (pts, tree, htree, sampling, _) = setup(1024, Structure::Hss);
        let kernel = Kernel::Gaussian { bandwidth: 5.0 };
        let c = compress(
            &pts,
            &tree,
            &htree,
            &kernel,
            &sampling,
            &CompressionParams {
                bacc: 1e-5,
                max_rank: 256,
                grain: 0,
            },
        );
        let ratio = c.compression_ratio(pts.len());
        assert!(ratio > 2.0, "compression ratio {ratio} too small");
    }
}
