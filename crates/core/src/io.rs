//! HMatrix serialization (the `hmat.cds` file of Figure 2).
//!
//! The MatRox user stores the compressed matrix and the generated code to
//! disk during inspection and loads them back in the executor process.  This
//! module provides a compact, self-describing binary format for the full
//! [`HMatrix`] handle: the cluster tree, the lowering decisions, the coarsen
//! set and the CDS buffers.  The format is little-endian and versioned by a
//! magic header: this build writes and reads `MATROX2` (`MATROX02`) and
//! `MATROXF3`, which store each fact once — one generator window per node
//! (DESIGN.md substitution S8), no blockset tables beside the CDS entry
//! tables that already are them, one window per off-diagonal twin pair
//! (DESIGN.md substitution S9), the tree's height and nothing else's.
//! `MATROXF3` stores the factor as the solve applies it, in two tables of
//! one slot per node: the leaf table holds `D_i^{-1}` and `E_i` at each
//! leaf, the merge table `M_p^{-1}` and `T_p` at each internal node, and
//! every other slot is a bare absence flag.  The writer works out the
//! presence flags from the tree; the reader owns the canonical layout and
//! refuses any other (a table of another length, a flag that disagrees
//! with its node's kind, a slot naming another node), so a decoded
//! [`HssFactor`] holds one record per node.  There is no reader
//! for the `MATROX1` / `MATROXF1` / `MATROXF2` layouts (`MATROXF2` stored
//! Cholesky and LU factors with pivots); their magic is a `Format` error
//! naming it.
//!
//! A near or coupling block entry is five `u64` fields (target, source,
//! offset, rows, cols) and one flag byte: `0` for a block stored in its own
//! window, `1` for a twin read transposed from the earlier entry's window.
//! Every other value is reserved (for a per-block storage precision) and
//! rejected as a `Format` error.
//!
//! Bytes are written and read through the hardened cursor of [`crate::wire`]
//! (length fields capped by the bytes remaining, canonical bools, no panics).
//! What this module adds is the knowledge of the format: enum tags, the
//! minimum encoded size of each table's elements, finite-float screening of
//! parameters and value buffers, and canonical encodings (child pairs,
//! generator presence, HSS padding, factor slots).  What makes the decoded
//! structures a *model* — tree topology, plan tables against the tree,
//! factor shapes against the plan — is not defined here: the readers run
//! the one shared definition,
//! [`EvalPlan::validate`](matrox_analysis::EvalPlan::validate) (`MATROX2`) or [`HssFactor::validate`] (`MATROXF3`, which includes the
//! former), after the stream is consumed, and report its message as
//! `Format`.  The executor and the solver run the same functions, so the
//! contract enforced by the corruption-fuzz suite is: for any byte stream, a
//! reader either returns `Err(Format)` or a value whose re-encoding is
//! bitwise identical to the consumed input *and which prepare / evaluate /
//! solve cannot panic on* — never a panic, never an allocation larger than
//! the stream itself.

use crate::error::MatroxError;
use crate::hmatrix::{FactoredHMatrix, HMatrix};
use crate::timings::InspectorTimings;
use crate::wire::{WireReader, WireWriter};
use matrox_analysis::{
    Cds, CdsBlockEntry, CoarsenSet, EvalPlan, GeneratorEntry, GroupRange, LoweringDecisions,
};
use matrox_factor::{FactorTimings, HssFactor, NodeFactor};
use matrox_linalg::Matrix;
use matrox_points::Kernel;
use matrox_tree::{ClusterTree, Structure, TreeNode};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MATROX02";
/// Magic header of a *factored* HMatrix file (`hmat.ulv`): the compressed
/// matrix followed by its ULV-style factorization.
const MAGIC_FACTORED: &[u8; 8] = b"MATROXF3";

/// A count-prefixed value buffer.  No valid model stores a NaN or infinity,
/// and accepting one would poison every later evaluation.
fn get_values(r: &mut WireReader<'_>, what: &str) -> Result<Vec<f64>, MatroxError> {
    let v = r.take_f64_vec(what)?;
    if !matrox_linalg::all_finite(&v) {
        return Err(MatroxError::Format(format!(
            "{what} contains non-finite entries"
        )));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// component encoders
// ---------------------------------------------------------------------------

fn put_structure(w: &mut WireWriter, s: &Structure) {
    match s {
        Structure::Hss => {
            w.put_u8(0);
            w.put_f64(0.0);
        }
        Structure::Geometric { tau } => {
            w.put_u8(1);
            w.put_f64(*tau);
        }
        Structure::Budget { budget } => {
            w.put_u8(2);
            w.put_f64(*budget);
        }
    }
}

fn get_structure(r: &mut WireReader<'_>) -> Result<Structure, MatroxError> {
    let tag = r.take_u8("structure tag")?;
    let val = r.take_finite_f64("structure parameter")?;
    Ok(match tag {
        0 => {
            // HSS carries no parameter; the writer pads with +0.0 and any
            // other bit pattern would not survive a re-encode.
            if val.to_bits() != 0 {
                return Err(MatroxError::Format(
                    "non-canonical HSS structure padding".into(),
                ));
            }
            Structure::Hss
        }
        1 => Structure::Geometric { tau: val },
        2 => Structure::Budget { budget: val },
        t => return Err(MatroxError::Format(format!("unknown structure tag {t}"))),
    })
}

fn put_kernel(w: &mut WireWriter, k: &Kernel) {
    match k {
        Kernel::Gaussian { bandwidth } => {
            w.put_u8(0);
            w.put_f64(*bandwidth);
        }
        Kernel::InverseDistance { diag } => {
            w.put_u8(1);
            w.put_f64(*diag);
        }
        Kernel::Laplace { bandwidth } => {
            w.put_u8(2);
            w.put_f64(*bandwidth);
        }
        Kernel::Cauchy { bandwidth } => {
            w.put_u8(3);
            w.put_f64(*bandwidth);
        }
        Kernel::GaussianRidge { bandwidth, ridge } => {
            w.put_u8(4);
            w.put_f64(*bandwidth);
            w.put_f64(*ridge);
        }
    }
}

fn get_kernel(r: &mut WireReader<'_>) -> Result<Kernel, MatroxError> {
    let tag = r.take_u8("kernel tag")?;
    let val = r.take_finite_f64("kernel parameter")?;
    Ok(match tag {
        0 => Kernel::Gaussian { bandwidth: val },
        1 => Kernel::InverseDistance { diag: val },
        2 => Kernel::Laplace { bandwidth: val },
        3 => Kernel::Cauchy { bandwidth: val },
        4 => Kernel::GaussianRidge {
            bandwidth: val,
            ridge: r.take_finite_f64("kernel ridge")?,
        },
        t => return Err(MatroxError::Format(format!("unknown kernel tag {t}"))),
    })
}

fn put_tree(w: &mut WireWriter, tree: &ClusterTree) {
    w.put_usize(tree.leaf_size);
    w.put_usize(tree.height);
    w.put_usize_slice(&tree.perm);
    w.put_usize(tree.nodes.len());
    for n in &tree.nodes {
        w.put_usize(n.id);
        w.put_usize(n.parent.map(|p| p + 1).unwrap_or(0));
        match n.children {
            Some((l, r)) => {
                w.put_usize(l + 1);
                w.put_usize(r + 1);
            }
            None => {
                w.put_usize(0);
                w.put_usize(0);
            }
        }
        w.put_usize(n.level);
        w.put_usize(n.start);
        w.put_usize(n.end);
        w.put_f64_slice(&n.centroid);
        w.put_f64(n.diameter);
    }
}

fn get_tree(r: &mut WireReader<'_>) -> Result<ClusterTree, MatroxError> {
    let leaf_size = r.take_usize("leaf size")?;
    let height = r.take_usize("tree height")?;
    let perm = r.take_usize_vec("tree permutation")?;
    // A serialized node is at least 72 bytes (7 usizes, the centroid length
    // prefix, the diameter), which bounds the node-vector allocation.
    let n_nodes = r.take_len(72, "tree node table")?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let id = r.take_usize("node id")?;
        let parent_raw = r.take_usize("node parent")?;
        let left = r.take_usize("node left child")?;
        let right = r.take_usize("node right child")?;
        let level = r.take_usize("node level")?;
        let start = r.take_usize("node range start")?;
        let end = r.take_usize("node range end")?;
        let centroid = get_values(r, "node centroid")?;
        let diameter = r.take_finite_f64("node diameter")?;
        // Children are encoded shifted by one with 0 = absent; a lone zero
        // in either slot is corruption, not a half-present child pair.
        let children = match (left, right) {
            (0, 0) => None,
            (0, _) | (_, 0) => return Err(MatroxError::Format("half-present child pair".into())),
            (l, r) => Some((l - 1, r - 1)),
        };
        nodes.push(TreeNode {
            id,
            parent: if parent_raw == 0 {
                None
            } else {
                Some(parent_raw - 1)
            },
            children,
            level,
            start,
            end,
            centroid,
            diameter,
        });
    }
    let pos = matrox_tree::invert_permutation(&perm);
    Ok(ClusterTree {
        nodes,
        perm,
        pos,
        leaf_size,
        height,
    })
}

fn put_coarsenset(w: &mut WireWriter, cs: &CoarsenSet) {
    w.put_usize(cs.agg);
    w.put_usize(cs.levels.len());
    for (cl, parts) in cs.levels.iter().enumerate() {
        w.put_usize(parts.len());
        for (p, part) in parts.iter().enumerate() {
            w.put_usize_slice(part);
            w.put_u64(cs.costs[cl][p]);
        }
    }
}

fn get_coarsenset(r: &mut WireReader<'_>) -> Result<CoarsenSet, MatroxError> {
    let agg = r.take_usize("coarsen aggregation")?;
    let n_levels = r.take_len(8, "coarsen level table")?;
    let mut levels = Vec::with_capacity(n_levels);
    let mut costs = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        // A serialized partition is at least 16 bytes (empty node list +
        // cost), which bounds the per-level allocations.
        let n_parts = r.take_len(16, "coarsen partition table")?;
        let mut parts = Vec::with_capacity(n_parts);
        let mut part_costs = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            parts.push(r.take_usize_vec("coarsen partition")?);
            part_costs.push(r.take_u64("coarsen partition cost")?);
        }
        levels.push(parts);
        costs.push(part_costs);
    }
    Ok(CoarsenSet { levels, agg, costs })
}

fn put_cds(w: &mut WireWriter, cds: &Cds) {
    w.put_f64_slice(&cds.gen_values);
    w.put_usize(cds.generators.len());
    for g in &cds.generators {
        if g.is_present() {
            w.put_bool(true);
            w.put_usize(g.v_offset);
            w.put_usize(g.rows);
            w.put_usize(g.cols);
        } else {
            w.put_bool(false);
        }
    }
    w.put_usize_slice(&cds.sranks);
    w.put_f64_slice(&cds.d_values);
    put_block_entries(w, &cds.d_entries);
    put_group_ranges(w, &cds.d_groups);
    w.put_f64_slice(&cds.b_values);
    put_block_entries(w, &cds.b_entries);
    put_group_ranges(w, &cds.b_groups);
}

fn put_block_entries(w: &mut WireWriter, entries: &[CdsBlockEntry]) {
    w.put_usize(entries.len());
    for e in entries {
        w.put_usize(e.target);
        w.put_usize(e.source);
        w.put_usize(e.offset);
        w.put_usize(e.rows);
        w.put_usize(e.cols);
        w.put_u8(u8::from(e.transposed));
    }
}

fn get_block_entries(r: &mut WireReader<'_>) -> Result<Vec<CdsBlockEntry>, MatroxError> {
    let n = r.take_len(41, "block entry table")?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(CdsBlockEntry {
            target: r.take_usize("block target")?,
            source: r.take_usize("block source")?,
            offset: r.take_usize("block offset")?,
            rows: r.take_usize("block rows")?,
            cols: r.take_usize("block cols")?,
            transposed: match r.take_u8("block flag")? {
                0 => false,
                1 => true,
                b => {
                    return Err(MatroxError::Format(format!(
                        "reserved block flag byte {b:#04x}"
                    )))
                }
            },
        });
    }
    Ok(v)
}

fn put_group_ranges(w: &mut WireWriter, groups: &[GroupRange]) {
    w.put_usize(groups.len());
    for g in groups {
        w.put_usize(g.start);
        w.put_usize(g.end);
    }
}

fn get_group_ranges(r: &mut WireReader<'_>) -> Result<Vec<GroupRange>, MatroxError> {
    let n = r.take_len(16, "group range table")?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(GroupRange {
            start: r.take_usize("group range start")?,
            end: r.take_usize("group range end")?,
        });
    }
    Ok(v)
}

fn get_cds(r: &mut WireReader<'_>) -> Result<Cds, MatroxError> {
    let gen_values = get_values(r, "generator value buffer")?;
    // A serialized generator is at least its presence byte.
    let n_gen = r.take_len(1, "generator table")?;
    let mut generators = Vec::with_capacity(n_gen);
    for _ in 0..n_gen {
        if r.take_bool("generator presence")? {
            let g = GeneratorEntry {
                v_offset: r.take_usize("generator offset")?,
                rows: r.take_usize("generator rows")?,
                cols: r.take_usize("generator cols")?,
            };
            // A stored-as-present entry must decode as present, or the next
            // save would silently re-encode it absent.
            if !g.is_present() {
                return Err(MatroxError::Format(
                    "generator entry marked present but degenerate".into(),
                ));
            }
            generators.push(g);
        } else {
            generators.push(GeneratorEntry::absent());
        }
    }
    let sranks = r.take_usize_vec("rank array")?;
    let d_values = get_values(r, "near value buffer")?;
    let d_entries = get_block_entries(r)?;
    let d_groups = get_group_ranges(r)?;
    let b_values = get_values(r, "far value buffer")?;
    let b_entries = get_block_entries(r)?;
    let b_groups = get_group_ranges(r)?;
    Ok(Cds {
        gen_values,
        generators,
        sranks,
        d_values: d_values.into(),
        d_entries,
        d_groups,
        b_values,
        b_entries,
        b_groups,
    })
}

// ---------------------------------------------------------------------------
// public API
// ---------------------------------------------------------------------------

fn put_hmatrix_body(w: &mut WireWriter, h: &HMatrix) {
    put_structure(w, &h.structure);
    put_kernel(w, &h.kernel);
    w.put_f64(h.bacc);
    put_tree(w, &h.tree);
    // plan
    let d = &h.plan.decisions;
    w.put_bool(d.block_near);
    w.put_bool(d.block_far);
    w.put_bool(d.coarsen_tree);
    w.put_bool(d.peel_root);
    put_coarsenset(w, &h.plan.coarsenset);
    put_cds(w, &h.plan.cds);
}

/// Serialize an [`HMatrix`] to bytes.
pub fn to_bytes(h: &HMatrix) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(MAGIC);
    put_hmatrix_body(&mut w, h);
    w.into_bytes()
}

/// Deserialize an [`HMatrix`] from bytes.  Timings are not stored and come
/// back zeroed.
///
/// # Errors
/// [`MatroxError::Format`] when the stream is truncated, corrupt, or fails
/// [`EvalPlan::validate`]; the reader never panics and never allocates
/// beyond the stream length.
pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<HMatrix, MatroxError> {
    let mut r = WireReader::new(data.as_ref());
    r.expect_magic(MAGIC, "HMatrix")?;
    let h = get_hmatrix_body(&mut r)?;
    r.finish("the HMatrix payload")?;
    h.plan.validate(&h.tree).map_err(MatroxError::Format)?;
    Ok(h)
}

fn get_hmatrix_body(r: &mut WireReader<'_>) -> Result<HMatrix, MatroxError> {
    let structure = get_structure(r)?;
    let kernel = get_kernel(r)?;
    let bacc = r.take_finite_f64("blocked accuracy")?;
    if bacc <= 0.0 {
        return Err(MatroxError::Format(format!(
            "blocked accuracy must be positive, got {bacc:e}"
        )));
    }
    let tree = get_tree(r)?;
    let decisions = LoweringDecisions {
        block_near: r.take_bool("block-near decision")?,
        block_far: r.take_bool("block-far decision")?,
        coarsen_tree: r.take_bool("coarsen-tree decision")?,
        peel_root: r.take_bool("peel-root decision")?,
    };
    let plan = EvalPlan {
        decisions,
        coarsenset: get_coarsenset(r)?,
        cds: get_cds(r)?,
    };
    Ok(HMatrix {
        tree,
        plan,
        structure,
        kernel,
        bacc,
        timings: InspectorTimings::default(),
        // Like the timings, the requested panel width and kernel selection
        // are runtime tuning knobs (the kernel is machine-specific besides),
        // not part of the stored matrix; reloads use auto.
        panel_width: 0,
        gemm_kernel: matrox_linalg::KernelChoice::Auto,
    })
}

/// Store an HMatrix to a file (the `hmat.cds` artifact).
pub fn save(h: &HMatrix, path: &Path) -> Result<(), MatroxError> {
    std::fs::write(path, to_bytes(h))?;
    Ok(())
}

/// Read a model file, applying the `io-truncate` / `io-flip` failpoints so
/// the fault-injection harness can corrupt streams deterministically
/// without touching the filesystem contents.
fn read_model_file(path: &Path) -> Result<Vec<u8>, MatroxError> {
    let mut data = std::fs::read(path)?;
    if crate::failpoint::should_fire(crate::failpoint::names::IO_TRUNCATE) {
        data.truncate(data.len() / 2);
    }
    if crate::failpoint::should_fire(crate::failpoint::names::IO_FLIP) {
        let mid = data.len() / 2;
        if let Some(b) = data.get_mut(mid) {
            *b ^= 0x01;
        }
    }
    Ok(data)
}

/// Load an HMatrix from a file previously written by [`save`].
pub fn load(path: &Path) -> Result<HMatrix, MatroxError> {
    from_bytes(read_model_file(path)?)
}

// ---------------------------------------------------------------------------
// factored HMatrix (the `hmat.ulv` artifact)
// ---------------------------------------------------------------------------

fn put_matrix(w: &mut WireWriter, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    w.put_f64s(m.as_slice());
}

fn get_matrix(r: &mut WireReader<'_>) -> Result<Matrix, MatroxError> {
    let rows = r.take_usize("matrix rows")?;
    let cols = r.take_usize("matrix cols")?;
    let Some(len) = rows.checked_mul(cols) else {
        return Err(MatroxError::Format("matrix shape overflow".into()));
    };
    // The payload has no count of its own; `take_f64s` caps the run by the
    // bytes remaining before it allocates.
    let data = r.take_f64s(len, "matrix payload")?;
    if !matrox_linalg::all_finite(&data) {
        return Err(MatroxError::Format(
            "matrix payload contains non-finite entries".into(),
        ));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The factor as two tables of one slot per node, a leaf table and a merge
/// table: a slot is a presence flag, then the node id and the node's `inv`
/// and `map` where the node is of the table's kind (a leaf, an internal
/// node), and the flag alone elsewhere.
fn put_factor(w: &mut WireWriter, f: &HssFactor, tree: &ClusterTree) {
    w.put_usize(f.n);
    for leaf_table in [true, false] {
        w.put_usize(f.nodes.len());
        for (id, nf) in f.nodes.iter().enumerate() {
            let present = tree.nodes.get(id).map(TreeNode::is_leaf) == Some(leaf_table);
            w.put_bool(present);
            if present {
                w.put_usize(id);
                put_matrix(w, &nf.inv);
                put_matrix(w, &nf.map);
            }
        }
    }
}

/// Read what [`put_factor`] writes for `tree`, and nothing else: each table
/// holds one slot per node, present exactly at the nodes of its kind and
/// naming its own node.
fn get_factor(r: &mut WireReader<'_>, tree: &ClusterTree) -> Result<HssFactor, MatroxError> {
    let n = r.take_usize("factor dimension")?;
    let n_nodes = tree.num_nodes();
    let mut slots = vec![None; n_nodes];
    for kind in ["leaf", "merge"] {
        let bad = |m: String| Err(MatroxError::Format(format!("{kind} factor {m}")));
        // A serialized slot is at least its presence byte.
        let len = r.take_len(1, "factor table")?;
        if len != n_nodes {
            return bad(format!(
                "table has {len} slots but the tree has {n_nodes} nodes"
            ));
        }
        for (id, node) in tree.nodes.iter().enumerate() {
            let present = r.take_bool("factor slot presence")?;
            if present != (node.is_leaf() == (kind == "leaf")) {
                let is = if present { "present" } else { "absent" };
                let node = if node.is_leaf() { "a leaf" } else { "internal" };
                return bad(format!("slot {id} is {is} but node {id} is {node}"));
            }
            if present {
                let named = r.take_usize("factor slot node")?;
                if named != id {
                    return bad(format!("slot {id} names node {named}"));
                }
                let (inv, map) = (get_matrix(r)?, get_matrix(r)?);
                slots[id] = Some(NodeFactor { inv, map });
            }
        }
    }
    Ok(HssFactor {
        n,
        nodes: slots.into_iter().flatten().collect(),
        timings: FactorTimings::default(),
    })
}

/// Serialize a [`FactoredHMatrix`] (compressed matrix + ULV factors) to
/// bytes.
pub fn to_bytes_factored(fh: &FactoredHMatrix) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(MAGIC_FACTORED);
    put_hmatrix_body(&mut w, &fh.hmatrix);
    put_factor(&mut w, &fh.factor, &fh.hmatrix.tree);
    w.into_bytes()
}

/// Deserialize a [`FactoredHMatrix`] from bytes.  Timings (inspector and
/// factor) are not stored and come back zeroed.
///
/// # Errors
/// [`MatroxError::Format`] under the same hardening contract as
/// [`from_bytes`]; the model must pass [`HssFactor::validate`].
pub fn from_bytes_factored(data: impl AsRef<[u8]>) -> Result<FactoredHMatrix, MatroxError> {
    let mut r = WireReader::new(data.as_ref());
    r.expect_magic(MAGIC_FACTORED, "factored HMatrix")?;
    let hmatrix = get_hmatrix_body(&mut r)?;
    let factor = get_factor(&mut r, &hmatrix.tree)?;
    r.finish("the factored payload")?;
    factor
        .validate(&hmatrix.plan, &hmatrix.tree)
        .map_err(|e| MatroxError::Format(e.to_string()))?;
    Ok(FactoredHMatrix { hmatrix, factor })
}

/// Store a factored HMatrix to a file (the `hmat.ulv` artifact: solve-ready
/// across processes, no re-factorization needed).
pub fn save_factored(fh: &FactoredHMatrix, path: &Path) -> Result<(), MatroxError> {
    std::fs::write(path, to_bytes_factored(fh))?;
    Ok(())
}

/// Load a factored HMatrix from a file previously written by
/// [`save_factored`].
pub fn load_factored(path: &Path) -> Result<FactoredHMatrix, MatroxError> {
    from_bytes_factored(read_model_file(path)?)
}

/// What a model file of either format holds.
#[derive(Debug, Clone)]
pub enum ModelFile {
    /// A `MATROX2` file written by [`save`].
    Compressed(HMatrix),
    /// A `MATROXF3` file written by [`save_factored`].
    Factored(FactoredHMatrix),
}

/// Load a model file of either format: the file is read once and its magic
/// selects the reader, so a corrupt image reports its own error.
///
/// # Errors
/// [`MatroxError::Io`] from the read; [`MatroxError::Format`] from the
/// selected reader, or naming the magic found and the two accepted when it is
/// neither.
pub fn load_model(path: &Path) -> Result<ModelFile, MatroxError> {
    let data = read_model_file(path)?;
    let magic = &data[..data.len().min(MAGIC.len())];
    if magic == MAGIC {
        from_bytes(&data).map(ModelFile::Compressed)
    } else if magic == MAGIC_FACTORED {
        from_bytes_factored(&data).map(ModelFile::Factored)
    } else {
        Err(MatroxError::Format(format!(
            "{path:?} is not a model file: magic \"{}\" is neither \"{}\" (compressed) nor \"{}\" (factored)",
            magic.escape_ascii(),
            MAGIC.escape_ascii(),
            MAGIC_FACTORED.escape_ascii()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatRoxParams;
    use crate::inspector::inspector;
    use matrox_linalg::Matrix;
    use matrox_points::{generate, DatasetId};
    use rand::SeedableRng;

    fn sample_hmatrix() -> (matrox_points::PointSet, HMatrix) {
        let pts = generate(DatasetId::Grid, 256, 5);
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::smash_setting().with_leaf_size(32);
        let h = inspector(&pts, &kernel, &params).expect("inspector");
        (pts, h)
    }

    #[test]
    fn roundtrip_preserves_evaluation() {
        let (pts, h) = sample_hmatrix();
        let bytes = to_bytes(&h);
        let h2 = from_bytes(bytes).expect("deserialize");
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let w = Matrix::random_uniform(pts.len(), 3, &mut rng);
        let a = h.matmul(&w).expect("matmul");
        let b = h2.matmul(&w).expect("matmul");
        assert!(matrox_linalg::relative_error(&a, &b) < 1e-14);
        assert_eq!(h2.bacc, h.bacc);
        assert_eq!(h2.structure, h.structure);
    }

    #[test]
    fn file_roundtrip_works() {
        let (_, h) = sample_hmatrix();
        let dir = std::env::temp_dir().join("matrox_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hmat.cds");
        save(&h, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.dim(), h.dim());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let err = from_bytes(b"NOTMATROX_AT_ALL").unwrap_err();
        match err {
            MatroxError::Format(_) => {}
            other => panic!("expected format error, got {other}"),
        }
    }

    /// There is no reader for the parent formats: their magics are refused
    /// by name, by each reader and by the entry that picks the reader.
    #[test]
    fn parent_format_magics_are_refused_by_name() {
        let (_, h) = sample_hmatrix();
        let mut image = to_bytes(&h);
        let dir = std::env::temp_dir().join("matrox_io_old_magic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hmat.cds");
        for old in [b"MATROX01", b"MATROXF1", b"MATROXF2"] {
            image[..8].copy_from_slice(old);
            std::fs::write(&path, &image).unwrap();
            let refusals = [
                (from_bytes(&image).err(), &["MATROX02"][..]),
                (from_bytes_factored(&image).err(), &["MATROXF3"]),
                (load_model(&path).err(), &["MATROX02", "MATROXF3"]),
            ];
            for (err, reads) in refusals {
                let Some(MatroxError::Format(m)) = err else {
                    panic!("expected a format error, got {err:?}");
                };
                let found = std::str::from_utf8(old).unwrap();
                assert!(m.contains(found), "magic found is not named: {m}");
                assert!(reads.iter().all(|r| m.contains(r)), "message: {m}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_streams_are_rejected_at_every_prefix() {
        // Every proper prefix of either format must fail cleanly: no panic,
        // no oversized allocation, a Format error.  Step to keep the test
        // quick.
        let (_, h) = sample_hmatrix();
        let bytes = to_bytes(&h);
        for len in (0..bytes.len()).step_by(97) {
            let err = from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, MatroxError::Format(_)),
                "MATROX2 prefix {len}"
            );
        }
        let (_, fh) = factored_hmatrix();
        let bytes = to_bytes_factored(&fh);
        for len in (0..bytes.len()).step_by(97) {
            let err = from_bytes_factored(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, MatroxError::Format(_)),
                "MATROXF3 prefix {len}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, h) = sample_hmatrix();
        let mut data = to_bytes(&h);
        data.push(0);
        let err = from_bytes(data).unwrap_err();
        match err {
            MatroxError::Format(m) => assert!(m.contains("trailing"), "message: {m}"),
            other => panic!("expected format error, got {other}"),
        }
    }

    #[test]
    fn hostile_length_fields_do_not_allocate() {
        // A header whose first length field claims 2^60 elements: the
        // reader must reject it against the bytes remaining instead of
        // attempting a multi-GiB allocation.
        let mut w = WireWriter::new();
        w.put_bytes(MAGIC);
        put_structure(&mut w, &Structure::Hss);
        put_kernel(&mut w, &Kernel::Gaussian { bandwidth: 1.0 });
        w.put_f64(1e-5); // bacc
        w.put_usize(32); // leaf_size
        w.put_usize(1); // height
        w.put_usize(1 << 60); // perm length: hostile
        let err = from_bytes(w.into_bytes()).unwrap_err();
        match err {
            MatroxError::Format(m) => assert!(m.contains("exceeds"), "message: {m}"),
            other => panic!("expected format error, got {other}"),
        }
    }

    fn factored_hmatrix() -> (matrox_points::PointSet, crate::hmatrix::FactoredHMatrix) {
        // HSS structure + bandwidth at the grid spacing: a well-conditioned
        // SPD kernel matrix the ULV factorization accepts.
        let pts = generate(DatasetId::Grid, 256, 5);
        let kernel = Kernel::Gaussian {
            bandwidth: 1.0 / 16.0,
        };
        let params = MatRoxParams::hss().with_leaf_size(32).with_bacc(1e-7);
        let h = inspector(&pts, &kernel, &params).expect("inspector");
        let fh = h.factorize().expect("HSS SPD matrix must factor");
        (pts, fh)
    }

    #[test]
    fn factored_roundtrip_solves_bitwise_identically() {
        let (pts, fh) = factored_hmatrix();
        let bytes = to_bytes_factored(&fh);
        let fh2 = from_bytes_factored(bytes).expect("deserialize factored");
        let b: Vec<f64> = (0..pts.len()).map(|i| (i as f64 * 0.3).cos()).collect();
        let x1 = fh.solve(&b).expect("solve");
        let x2 = fh2.solve(&b).expect("solve");
        assert_eq!(x1, x2, "reloaded factors must solve bit-for-bit equally");
    }

    #[test]
    fn factored_magic_is_distinct_from_plain() {
        let (_, fh) = factored_hmatrix();
        let bytes = to_bytes_factored(&fh);
        assert!(from_bytes(&bytes).is_err(), "plain loader must reject");
        let plain = to_bytes(&fh.hmatrix);
        assert!(
            from_bytes_factored(plain).is_err(),
            "factored loader must reject plain files"
        );
    }

    #[test]
    fn factored_file_roundtrip_works() {
        let (pts, fh) = factored_hmatrix();
        let dir = std::env::temp_dir().join("matrox_io_factored_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hmat.ulv");
        save_factored(&fh, &path).unwrap();
        let loaded = load_factored(&path).unwrap();
        assert_eq!(loaded.dim(), fh.dim());
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let b = Matrix::random_uniform(pts.len(), 3, &mut rng);
        assert_eq!(
            loaded.solve_matrix(&b).expect("solve").as_slice(),
            fh.solve_matrix(&b).expect("solve").as_slice()
        );
        std::fs::remove_file(&path).ok();
    }
}
