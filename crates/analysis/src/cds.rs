//! The Compressed Data-Sparse (CDS) storage format.
//!
//! CDS stores every submatrix of the HMatrix in one of three flat, contiguous
//! buffers, **in exactly the order the generated evaluation code visits
//! them**:
//!
//! * the `V` generators in coarsenset order — one window per node: every
//!   kernel is symmetric, so the `U` of Figure 1g/1h is the same matrix and
//!   is not stored (DESIGN.md substitution S8),
//! * the dense near blocks `D` in near-blockset order,
//! * the coupling blocks `B` in far-blockset order.
//!
//! Offsets are derived from the sranks, so a block's data is found with a
//! single offset lookup and consecutive blocks in the computation are
//! consecutive in memory — this is the data-layout half of MatRox's locality
//! optimization (the loop-structure half is in [`crate::plan`] and
//! `matrox-exec`).
//!
//! Each off-diagonal twin pair — `D_ij` / `D_ji`, `B_ij` / `B_ji`, exact
//! transposes of each other for a symmetric kernel — is stored once
//! (DESIGN.md substitution S9).  The entry of a pair that comes first in
//! table order owns a window; the later one is flagged
//! [`transposed`](CdsBlockEntry::transposed), points at the same window and
//! is applied through the `A^T B` product.  So every window's first use is
//! in execution order, and a twin reads the earlier window again.

//! Packing runs on the work-stealing pool with fixed combination order:
//! a sequential pass lays out every entry's offset (in blockset/coarsenset
//! order, exactly as before), the value buffer is pre-allocated, and the
//! copies land in disjoint `&mut` slices carved per entry — so the packed
//! bytes are bitwise identical at every pool width and grain.

use crate::blocking::BlockSet;
use crate::coarsen::CoarsenSet;
use matrox_compress::Compression;
use matrox_linalg::{KernelDispatch, Matrix};
use matrox_tree::ClusterTree;
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Placement of one submatrix inside a CDS value buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdsBlockEntry {
    /// Target node `i` (rows of the block scatter into this node's output).
    pub target: usize,
    /// Source node `j` (columns of the block gather from this node's input).
    pub source: usize,
    /// Offset of the first element of the block's window in the value buffer.
    pub offset: usize,
    /// Number of rows of the block (the target's extent).
    pub rows: usize,
    /// Number of columns of the block (the source's extent).
    pub cols: usize,
    /// The window at `offset` is the earlier twin `(source, target)`,
    /// stored `cols x rows`; this block is its transpose.
    pub transposed: bool,
}

impl CdsBlockEntry {
    /// `dst += block * src` for this entry's `rows x cols` block over its
    /// `window`, `src` and `dst` holding `q` columns: a transposed twin
    /// reads the window of the block it mirrors through the `A^T B`
    /// product, which returns bit for bit what the plain product over a
    /// stored copy of its transpose would.
    pub fn apply(
        &self,
        dispatch: KernelDispatch,
        window: &[f64],
        src: &[f64],
        q: usize,
        dst: &mut [f64],
    ) {
        if self.transposed {
            dispatch.gemm_tn(window, self.cols, self.rows, src, q, dst);
        } else {
            dispatch.gemm(window, self.rows, self.cols, src, q, dst);
        }
    }
}

/// Range of block entries belonging to one blockset group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRange {
    /// First entry index (inclusive).
    pub start: usize,
    /// Last entry index (exclusive).
    pub end: usize,
}

/// Placement of one node's generator inside the generator buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorEntry {
    /// Offset of `V_i` in [`Cds::gen_values`].
    pub v_offset: usize,
    /// Number of rows of the generator (leaf size or children's combined
    /// srank).
    pub rows: usize,
    /// Number of columns (the node's srank).
    pub cols: usize,
}

impl GeneratorEntry {
    /// The entry of a node that stores no generator.
    pub fn absent() -> Self {
        GeneratorEntry {
            v_offset: usize::MAX,
            rows: 0,
            cols: 0,
        }
    }

    /// True when the node has a (non-empty) stored basis.
    pub fn is_present(&self) -> bool {
        self.v_offset != usize::MAX && self.rows > 0 && self.cols > 0
    }
}

/// Size summary of a set of stored submatrices: the largest row count,
/// column count and single-block element count seen.
///
/// The panel-blocked executor sizes its right-hand-side panels from the
/// worst-case extent ([`Cds::worst_block_extent`]: a block plus its
/// input/output panels must fit in L2); the per-class queries below expose
/// the same information at finer grain for harness diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockExtent {
    /// Largest number of rows of any block in the set.
    pub max_rows: usize,
    /// Largest number of columns of any block in the set.
    pub max_cols: usize,
    /// Largest single-block element count (`rows * cols`) in the set.
    pub max_elems: usize,
}

impl BlockExtent {
    /// Fold one `rows x cols` block into the extent.
    pub fn include(&mut self, rows: usize, cols: usize) {
        self.max_rows = self.max_rows.max(rows);
        self.max_cols = self.max_cols.max(cols);
        self.max_elems = self.max_elems.max(rows * cols);
    }

    /// Union of two extents.
    pub fn merge(&self, other: &BlockExtent) -> BlockExtent {
        BlockExtent {
            max_rows: self.max_rows.max(other.max_rows),
            max_cols: self.max_cols.max(other.max_cols),
            max_elems: self.max_elems.max(other.max_elems),
        }
    }

    /// True when no block has been folded in.
    pub fn is_empty(&self) -> bool {
        self.max_elems == 0
    }
}

/// A copy-on-write value buffer: a `Vec<f64>` behind an [`Arc`].
///
/// Cloning shares the allocation.  Reading goes through `Deref`; writing
/// through `DerefMut` first gives this handle its own copy when another
/// shares it ([`Arc::make_mut`]), so a write never reaches a sibling.
#[derive(Clone)]
pub struct SharedValues(Arc<Vec<f64>>);

impl SharedValues {
    /// Whether `self` and `other` hold one allocation.
    pub fn shares(&self, other: &SharedValues) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<Vec<f64>> for SharedValues {
    /// Wraps `values` without copying them.
    fn from(values: Vec<f64>) -> Self {
        SharedValues(Arc::new(values))
    }
}

impl From<Arc<Vec<f64>>> for SharedValues {
    fn from(values: Arc<Vec<f64>>) -> Self {
        SharedValues(values)
    }
}

impl Deref for SharedValues {
    type Target = Vec<f64>;

    fn deref(&self) -> &Vec<f64> {
        &self.0
    }
}

impl DerefMut for SharedValues {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        Arc::make_mut(&mut self.0)
    }
}

impl fmt::Debug for SharedValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// The HMatrix stored in the Compressed Data-Sparse format.
#[derive(Debug, Clone)]
pub struct Cds {
    /// Flat buffer holding the `V` generators back to back in coarsenset
    /// order.
    pub gen_values: Vec<f64>,
    /// Per-node generator placement, indexed by node id.
    pub generators: Vec<GeneratorEntry>,
    /// Per-node sranks (duplicated here so the executor does not need the
    /// compression object).
    pub sranks: Vec<usize>,
    /// Flat buffer of dense near blocks in near-blockset order, shared by
    /// every model packed from the same near blocks and blockset
    /// ([`SharedValues`]).
    pub d_values: SharedValues,
    /// Near-block placements in storage order.
    pub d_entries: Vec<CdsBlockEntry>,
    /// One range of `d_entries` per near-blockset group.
    pub d_groups: Vec<GroupRange>,
    /// Flat buffer of coupling blocks in far-blockset order.
    pub b_values: Vec<f64>,
    /// Coupling-block placements in storage order.
    pub b_entries: Vec<CdsBlockEntry>,
    /// One range of `b_entries` per far-blockset group.
    pub b_groups: Vec<GroupRange>,
}

impl Cds {
    /// Total stored bytes (generators + near + far values).
    pub fn storage_bytes(&self) -> usize {
        (self.gen_values.len() + self.d_values.len() + self.b_values.len())
            * std::mem::size_of::<f64>()
    }

    /// Borrow the `V` generator of node `id` as `(data, rows, cols)`: the
    /// paper's column basis, applied transposed on the way up and plain on
    /// the way down.
    pub fn v(&self, id: usize) -> (&[f64], usize, usize) {
        let g = &self.generators[id];
        if !g.is_present() {
            return (&[], 0, 0);
        }
        (
            &self.gen_values[g.v_offset..g.v_offset + g.rows * g.cols],
            g.rows,
            g.cols,
        )
    }

    /// Borrow the window of near-block entry `e`: `e.rows x e.cols`
    /// row-major, or its transpose stored `e.cols x e.rows` when
    /// `e.transposed`.
    pub fn d_block(&self, e: &CdsBlockEntry) -> &[f64] {
        &self.d_values[e.offset..e.offset + e.rows * e.cols]
    }

    /// Borrow the window of coupling-block entry `e`, laid out as for
    /// [`Cds::d_block`].
    pub fn b_block(&self, e: &CdsBlockEntry) -> &[f64] {
        &self.b_values[e.offset..e.offset + e.rows * e.cols]
    }

    fn extent_of(entries: &[CdsBlockEntry]) -> BlockExtent {
        let mut ext = BlockExtent::default();
        for e in entries {
            ext.include(e.rows, e.cols);
        }
        ext
    }

    /// Extent of all dense near blocks.
    pub fn near_extent(&self) -> BlockExtent {
        Self::extent_of(&self.d_entries)
    }

    /// Extent of all coupling blocks.
    pub fn far_extent(&self) -> BlockExtent {
        Self::extent_of(&self.b_entries)
    }

    /// Extent of all stored (present) generators.  `max_rows` is the largest
    /// generator height (leaf size or combined child srank) and `max_cols`
    /// the largest srank.
    pub fn generator_extent(&self) -> BlockExtent {
        let mut ext = BlockExtent::default();
        for g in &self.generators {
            if g.is_present() {
                ext.include(g.rows, g.cols);
            }
        }
        ext
    }

    /// The extent of the single largest working set any executor phase
    /// touches per block: the union of the near, far and generator extents.
    pub fn worst_block_extent(&self) -> BlockExtent {
        self.near_extent()
            .merge(&self.far_extent())
            .merge(&self.generator_extent())
    }
}

/// Build the CDS representation from the compression output and the
/// structure sets (the "data layout construction" step of structure
/// analysis).
pub fn build_cds(
    tree: &ClusterTree,
    compression: &Compression,
    near_blockset: &BlockSet,
    far_blockset: &BlockSet,
    coarsenset: &CoarsenSet,
) -> Cds {
    build_cds_with_grain(
        tree,
        compression,
        near_blockset,
        far_blockset,
        coarsenset,
        0,
    )
}

/// [`build_cds`] with an explicit grain (minimum copy tasks per parallel
/// work item; `0` = auto, i.e. 1).  Grain only changes copy chunking, never
/// the packed bytes.
pub fn build_cds_with_grain(
    tree: &ClusterTree,
    compression: &Compression,
    near_blockset: &BlockSet,
    far_blockset: &BlockSet,
    coarsenset: &CoarsenSet,
    grain: usize,
) -> Cds {
    let n_nodes = tree.num_nodes();
    let grain = grain.max(1);

    // ---- generators in coarsenset order --------------------------------
    // Sequential layout pass: assign every stored node its dense offset in
    // coarsenset order, then copy the payloads in parallel into disjoint
    // per-node slices of the pre-sized buffer.
    let mut generators = vec![GeneratorEntry::absent(); n_nodes];
    let mut stored: Vec<usize> = Vec::new();
    let mut gen_total = 0usize;
    for cl in &coarsenset.levels {
        for part in cl {
            for &id in part {
                let basis = &compression.bases[id];
                if basis.srank == 0 || basis.v.is_empty() {
                    continue;
                }
                let (rows, cols) = basis.v.shape();
                generators[id] = GeneratorEntry {
                    v_offset: gen_total,
                    rows,
                    cols,
                };
                stored.push(id);
                gen_total += rows * cols;
            }
        }
    }
    let mut gen_values = vec![0.0f64; gen_total];
    {
        let mut slots: Vec<(usize, &mut [f64])> = Vec::with_capacity(stored.len());
        let mut rest: &mut [f64] = &mut gen_values;
        for &id in &stored {
            let g = &generators[id];
            let (chunk, tail) = rest.split_at_mut(g.rows * g.cols);
            slots.push((id, chunk));
            rest = tail;
        }
        slots
            .into_par_iter()
            .with_min_len(grain)
            .for_each(|(id, chunk)| chunk.copy_from_slice(compression.bases[id].v.as_slice()));
    }

    // ---- near blocks in blockset order ----------------------------------
    // The values read no `bacc`: packed once per near blocks and blockset,
    // and shared by every model packed from them (`NearSet::packed`).
    let near_map = block_map(&compression.near_blocks);
    let (d_entries, d_groups, d_len) = layout_blocks(near_blockset, &near_map);
    let d_values = compression
        .near_blocks
        .packed(&near_blockset.groups, || {
            fill_blocks(&d_entries, d_len, &near_map, grain)
        })
        .into();

    // ---- far blocks in blockset order ------------------------------------
    let far_map = block_map(&compression.far_blocks);
    let (b_entries, b_groups, b_len) = layout_blocks(far_blockset, &far_map);
    let b_values = fill_blocks(&b_entries, b_len, &far_map, grain);

    Cds {
        gen_values,
        generators,
        sranks: compression.sranks.clone(),
        d_values,
        d_entries,
        d_groups,
        b_values,
        b_entries,
        b_groups,
    }
}

/// Each block of `blocks` by its pair.
fn block_map(blocks: &[((usize, usize), Matrix)]) -> HashMap<(usize, usize), &Matrix> {
    blocks.iter().map(|((i, j), m)| ((*i, *j), m)).collect()
}

/// Lay out the blocks a blockset references in one flat buffer, in the
/// blockset's iteration order: their entries, one range of them per group,
/// and the buffer's length.  A block whose twin was met earlier gets a
/// transposed entry on the twin's window instead of a window of its own.
fn layout_blocks(
    blockset: &BlockSet,
    blocks: &HashMap<(usize, usize), &Matrix>,
) -> (Vec<CdsBlockEntry>, Vec<GroupRange>, usize) {
    let mut entries = Vec::new();
    let mut groups = Vec::with_capacity(blockset.groups.len());
    let mut windows: HashMap<(usize, usize), usize> = HashMap::new();
    let mut offset = 0usize;
    for group in &blockset.groups {
        let start = entries.len();
        for &(i, j) in group {
            let m = blocks
                .get(&(i, j))
                .unwrap_or_else(|| panic!("blockset references missing block ({i},{j})"));
            let twin = windows.get(&(j, i)).copied().filter(|_| i != j);
            entries.push(CdsBlockEntry {
                target: i,
                source: j,
                offset: twin.unwrap_or(offset),
                rows: m.rows(),
                cols: m.cols(),
                transposed: twin.is_some(),
            });
            if twin.is_none() {
                windows.insert((i, j), offset);
                offset += m.len();
            }
        }
        groups.push(GroupRange {
            start,
            end: entries.len(),
        });
    }
    (entries, groups, offset)
}

/// The `len`-long buffer `entries` lay out ([`layout_blocks`]): each
/// window's block copied in, in parallel into disjoint per-window slices.
fn fill_blocks(
    entries: &[CdsBlockEntry],
    len: usize,
    blocks: &HashMap<(usize, usize), &Matrix>,
    grain: usize,
) -> Vec<f64> {
    let mut values = vec![0.0f64; len];
    let mut work: Vec<(&CdsBlockEntry, &mut [f64])> = Vec::with_capacity(entries.len());
    let mut rest: &mut [f64] = &mut values;
    for e in entries.iter().filter(|e| !e.transposed) {
        let (chunk, tail) = rest.split_at_mut(e.rows * e.cols);
        work.push((e, chunk));
        rest = tail;
    }
    work.into_par_iter()
        .with_min_len(grain)
        .for_each(|(e, chunk)| {
            chunk.copy_from_slice(blocks[&(e.target, e.source)].as_slice());
        });
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::build_blockset;
    use crate::coarsen::{build_coarsenset, CoarsenParams};
    use matrox_compress::{compress, CompressionParams};
    use matrox_points::{generate, DatasetId, Kernel};
    use matrox_sampling::sample_nodes_exhaustive;
    use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};

    fn setup(structure: Structure) -> (ClusterTree, HTree, Compression, Cds) {
        let pts = generate(DatasetId::Grid, 512, 17);
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
        let near_bs = build_blockset(&htree.near_pairs(), tree.num_nodes(), 2);
        let far_bs = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
        let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
        let cds = build_cds(&tree, &c, &near_bs, &far_bs, &cs);
        (tree, htree, c, cds)
    }

    #[test]
    fn every_interaction_is_stored_exactly_once() {
        let (_, htree, _, cds) = setup(Structure::Geometric { tau: 0.65 });
        assert_eq!(cds.d_entries.len(), htree.num_near());
        assert_eq!(cds.b_entries.len(), htree.num_far());
        let near_keys: std::collections::HashSet<_> =
            cds.d_entries.iter().map(|e| (e.target, e.source)).collect();
        assert_eq!(near_keys.len(), cds.d_entries.len());
    }

    #[test]
    fn offsets_are_dense_and_non_overlapping() {
        for structure in [Structure::Hss, Structure::Geometric { tau: 0.65 }] {
            let (_, _, _, cds) = setup(structure);
            for (entries, len) in [
                (&cds.d_entries, cds.d_values.len()),
                (&cds.b_entries, cds.b_values.len()),
            ] {
                let mut expected = 0usize;
                for e in entries.iter().filter(|e| !e.transposed) {
                    assert_eq!(e.offset, expected);
                    expected += e.rows * e.cols;
                }
                assert_eq!(expected, len);
            }
        }
    }

    #[test]
    fn stored_blocks_match_compression_blocks() {
        let (_, _, c, cds) = setup(Structure::Geometric { tau: 0.65 });
        let map: std::collections::HashMap<_, _> = c
            .near_blocks
            .iter()
            .map(|((i, j), m)| ((*i, *j), m))
            .collect();
        for e in &cds.d_entries {
            let m = map[&(e.target, e.source)];
            assert_eq!((e.rows, e.cols), m.shape());
            let window = if e.transposed {
                map[&(e.source, e.target)]
            } else {
                m
            };
            assert_eq!(cds.d_block(e), window.as_slice());
        }
    }

    #[test]
    fn generators_match_compression_and_are_contiguous() {
        let (tree, _, c, cds) = setup(Structure::Hss);
        let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
        // Stored nodes that are consecutive in coarsenset order have
        // adjacent windows, so `gen_values` is the `V` stream and no more.
        let mut next = 0usize;
        for &id in cs.levels.iter().flatten().flatten() {
            let basis = &c.bases[id];
            let g = &cds.generators[id];
            if basis.srank == 0 {
                assert!(!g.is_present());
                continue;
            }
            assert!(g.is_present(), "node {id} missing generator");
            assert_eq!((g.rows, g.cols), basis.v.shape());
            assert_eq!(cds.v(id).0, basis.v.as_slice());
            assert_eq!(g.v_offset, next, "node {id} window is not adjacent");
            next += g.rows * g.cols;
        }
        assert_eq!(cds.gen_values.len(), next);
    }

    #[test]
    fn group_ranges_tile_the_entries() {
        let (_, _, _, cds) = setup(Structure::Geometric { tau: 0.65 });
        let mut prev_end = 0usize;
        for g in &cds.d_groups {
            assert_eq!(g.start, prev_end);
            assert!(g.end >= g.start);
            prev_end = g.end;
        }
        assert_eq!(prev_end, cds.d_entries.len());
    }

    #[test]
    fn storage_matches_compression_payload() {
        for structure in [Structure::Hss, Structure::Geometric { tau: 0.65 }] {
            let (_, _, c, cds) = setup(structure);
            // CDS stores every non-empty generator and one block of each
            // near/far twin pair, so its payload is the compression's minus
            // the later twin of every pair.
            let twins: usize = (cds.d_entries.iter().chain(&cds.b_entries))
                .filter(|e| e.transposed)
                .map(|e| e.rows * e.cols * std::mem::size_of::<f64>())
                .sum();
            assert!(twins > 0, "{}: no twin pair", structure.name());
            assert_eq!(cds.storage_bytes(), c.storage_bytes() - twins);
        }
    }

    #[test]
    fn extents_cover_every_stored_block() {
        let (_, _, c, cds) = setup(Structure::Geometric { tau: 0.65 });
        let near = cds.near_extent();
        for e in &cds.d_entries {
            assert!(e.rows <= near.max_rows && e.cols <= near.max_cols);
            assert!(e.rows * e.cols <= near.max_elems);
        }
        let far = cds.far_extent();
        for e in &cds.b_entries {
            assert!(e.rows * e.cols <= far.max_elems);
        }
        let gen = cds.generator_extent();
        for (id, g) in cds.generators.iter().enumerate() {
            if g.is_present() {
                assert!(g.rows <= gen.max_rows, "generator {id} taller than extent");
                assert!(g.cols <= gen.max_cols);
            }
        }
        let worst = cds.worst_block_extent();
        assert_eq!(
            worst.max_elems,
            near.max_elems.max(far.max_elems).max(gen.max_elems)
        );
        assert!(BlockExtent::default().is_empty());
        assert!(!near.is_empty());
        let _ = c;
    }

    /// Models packed from one tree's near blocks share one `D` buffer per
    /// near blockset: another blocksize packs afresh, to the bits a
    /// memo-free packing gives, and leaves the kept buffer alone; a write
    /// to one model's buffer gives it a copy of its own.
    #[test]
    fn near_values_are_packed_once_per_blockset() {
        let pts = generate(DatasetId::Grid, 512, 17);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let tree = ClusterTree::build(&pts, PartitionMethod::KdTree, 32, 0);
        let htree = HTree::build(&tree, Structure::Geometric { tau: 0.65 });
        let sampling = sample_nodes_exhaustive(&pts, &tree);
        let far_bs = build_blockset(&htree.far_pairs(), tree.num_nodes(), 4);
        let cds_at = |htree: &HTree, bacc: f64, near_blocksize: usize| {
            let params = CompressionParams {
                bacc,
                ..CompressionParams::default()
            };
            let c = compress(&pts, &tree, htree, &kernel, &sampling, &params);
            let near_bs = build_blockset(&htree.near_pairs(), tree.num_nodes(), near_blocksize);
            let cs = build_coarsenset(&tree, &c.sranks, &CoarsenParams { p: 4, agg: 2 });
            build_cds(&tree, &c, &near_bs, &far_bs, &cs)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let coarse = cds_at(&htree, 1e-1, 2);
        let fine = cds_at(&htree, 1e-5, 2);
        assert!(coarse.d_values.shares(&fine.d_values));
        let other = cds_at(&htree, 1e-5, 3);
        let want = cds_at(&HTree::build(&tree, htree.structure), 1e-5, 3);
        assert!(!other.d_values.shares(&fine.d_values));
        assert_eq!(bits(&other.d_values), bits(&want.d_values));
        assert_eq!(other.d_entries, want.d_entries);
        assert_ne!(bits(&other.d_values), bits(&fine.d_values));
        let again = cds_at(&htree, 1e-3, 2);
        assert!(again.d_values.shares(&fine.d_values));

        let kept = bits(&fine.d_values);
        let mut poisoned = fine.clone();
        poisoned.d_values[0] = f64::NAN;
        assert!(!poisoned.d_values.shares(&fine.d_values));
        assert!(again.d_values.shares(&fine.d_values));
        assert_eq!(bits(&fine.d_values), kept);
        assert_eq!(bits(&cds_at(&htree, 1e-2, 2).d_values), kept);
    }

    #[test]
    fn hss_has_no_near_offdiagonal_entries() {
        let (tree, _, _, cds) = setup(Structure::Hss);
        for e in &cds.d_entries {
            assert_eq!(e.target, e.source);
            assert!(tree.nodes[e.target].is_leaf());
        }
    }
}
