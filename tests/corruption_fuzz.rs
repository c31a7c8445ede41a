//! Corruption fuzz: the hardened model readers must survive *any*
//! single-byte corruption of a saved model.
//!
//! For every byte position of a small `MATROX2` and `MATROXF3` stream (and
//! several XOR masks per byte, covering low-bit value perturbations and
//! structural byte rewrites), the corrupted stream must either
//!
//! * be rejected with an `Err` (never a panic), or
//! * parse into a model whose re-encoding is bitwise identical to the
//!   corrupted stream (the flip landed in a value payload and the parse is
//!   lossless — nothing is silently normalized or truncated) **and that
//!   can be used**: preparing and evaluating it (`MATROX2`) or solving with
//!   it (`MATROXF3`) does not panic and is not refused as a mismatch;
//!
//! and the parser must never allocate more than 16 MiB in a single request,
//! no matter what the corrupted length fields claim — the
//! remaining-bytes-capped `Vec::with_capacity` hardening, pinned with the
//! shared allocation probe (`crates/core/tests/support/alloc_probe.rs`),
//! which also owns the sweep itself; the protocol sweep
//! (`crates/serve/tests/proto_fuzz.rs`) runs the same one over `MATROXS1`.
//! Debug builds flip every seventh byte, release builds every byte (CI's
//! corruption-fuzz step).
//!
//! Single-byte flips cannot reach every malformed model, so the second half
//! of this file re-encodes *structured* mutations of a healthy model — each
//! self-consistent enough to pass any per-table check — and pins that the
//! readers refuse them with `Format` (and, for the diagonal of a leaf's
//! inverse, that an in-memory factor is refused with `PlanMismatch`): "`from_bytes` Ok" has to
//! imply "prepare / evaluate / solve cannot panic" (DESIGN.md, "Model
//! well-formedness").

use matrox::core::{
    from_bytes, from_bytes_factored, inspector, to_bytes, to_bytes_factored, FactoredHMatrix,
    HMatrix, MatRoxParams, MatroxError,
};
use matrox::linalg::Matrix;
use matrox::points::{generate, DatasetId, Kernel};

#[path = "../crates/core/tests/support/alloc_probe.rs"]
mod alloc_probe;
use alloc_probe::fuzz_single_byte_flips;

/// A small HSS model of a ridge-shifted (hence SPD, hence factorable)
/// Gaussian kernel on an `n`-point grid.
fn hss_model(n: usize, leaf_size: usize) -> HMatrix {
    let points = generate(DatasetId::Grid, n, 0);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.125,
        ridge: 8.0,
    };
    let params = MatRoxParams::hss()
        .with_bacc(1e-3)
        .with_leaf_size(leaf_size);
    inspector(&points, &kernel, &params).expect("inspector")
}

#[test]
fn every_single_byte_corruption_is_rejected_or_lossless() {
    // Small on purpose: the sweep parses the stream 3x per byte, and the
    // parse cost itself scales with the stream, so the sweep is ~quadratic.
    let h = hss_model(32, 8);
    let rhs: Vec<f64> = (0..h.dim()).map(|i| (i as f64 * 0.3).cos()).collect();
    // A panic in here is caught by the sweep and fails it; `matvec` and
    // `solve` contain their own panics, so a contained one fails it too.
    let usable = |used: Result<Vec<f64>, MatroxError>| {
        assert!(
            !matches!(
                used,
                Err(MatroxError::PlanMismatch(_) | MatroxError::PoolPanic(_))
            ),
            "the reader accepted a model its own consumer refuses: {used:?}"
        );
    };

    fuzz_single_byte_flips("MATROX2", &to_bytes(&h), &|data| {
        let h = from_bytes(data).ok()?;
        usable(h.matvec(&rhs));
        Some(to_bytes(&h))
    });

    let factored = to_bytes_factored(&h.factorize().expect("factorize"));
    fuzz_single_byte_flips("MATROXF3", &factored, &|data| {
        let fh = from_bytes_factored(data).ok()?;
        usable(fh.solve(&rhs));
        Some(to_bytes_factored(&fh))
    });
}

/// A named structured mutation of a model `M`.
type Edit<'a, M> = (&'static str, &'a dyn Fn(&mut M));

/// The names of the `edits` whose image `read` does *not* refuse with
/// `Format` (so one run reports every hole, not just the first).
fn accepted<M: Clone, T>(
    healthy: &M,
    read: impl Fn(&M) -> Result<T, MatroxError>,
    edits: &[Edit<'_, M>],
) -> Vec<&'static str> {
    let refused = |edit: &dyn Fn(&mut M)| {
        let mut bad = healthy.clone();
        edit(&mut bad);
        matches!(read(&bad), Err(MatroxError::Format(_)))
    };
    let open = edits.iter().filter(|(_, edit)| !refused(*edit));
    open.map(|&(name, _)| name).collect()
}

#[test]
fn structurally_hostile_model_images_are_refused() {
    let h = hss_model(256, 16);
    assert!(
        h.plan.cds.d_groups.len() >= 2,
        "fixture needs two near groups"
    );
    let last = h.tree.num_nodes() - 1; // a leaf, and its parent's right child
    let holes = accepted(
        &h,
        |h| from_bytes(to_bytes(h)),
        &[
            // Two groups then claim the same targets: the blocked loop's tasks
            // would write the same output rows.
            ("near group range copied over its neighbour", &|h| {
                h.plan.cds.d_groups[1] = h.plan.cds.d_groups[0];
            }),
            // Parents before children breaks the coarsened loop's order.
            ("coarsen partitions reversed", &|h| {
                let parts = h.plan.coarsenset.levels.iter_mut().flatten();
                parts.for_each(|part| part.reverse());
            }),
            ("root on a coarsen level of its own", &root_coarsen_level),
            ("node level beyond the tree height", &|h| {
                h.tree.nodes[3].level = h.tree.height + 5;
            }),
            // The factorization, compression and sampling loop by height.
            ("tree height raised", &raise_tree_height),
            // Consistent throughout the model, but no longer numbered
            // breadth-first: the rank slots and the stacked pairs are laid
            // out by id.
            ("root's children renumbered", &renumber_root_children),
            // Same point count, so every block shape still matches — but two
            // leaves now own the same rows of the permuted panel.
            ("leaf range slid onto its sibling", &|h| {
                h.tree.nodes[last].start -= 8;
                h.tree.nodes[last].end -= 8;
            }),
        ],
    );
    assert!(holes.is_empty(), "from_bytes accepted: {holes:?}");
}

#[test]
fn structurally_hostile_factor_images_are_refused() {
    let fh = hss_model(256, 16).factorize().expect("factorize");
    let (tree, cds) = (&fh.hmatrix.tree, &fh.hmatrix.plan.cds);
    let leaf = tree.leaves()[0];
    // A coupling block re-pointed at a source that is not its target's
    // sibling but has the sibling's srank, so the block's shape still fits.
    let (entry, stranger) = (cds.b_entries.iter().enumerate())
        .find_map(|(k, e)| {
            let fits = |s: &usize| {
                tree.nodes[*s].parent != tree.nodes[e.target].parent
                    && cds.sranks[*s] == cds.sranks[e.source]
            };
            (1..tree.num_nodes()).find(fits).map(|s| (k, s))
        })
        .expect("fixture has two non-sibling nodes of equal srank");
    let read = |fh: &FactoredHMatrix| from_bytes_factored(to_bytes_factored(fh));
    let holes = accepted(
        &fh,
        read,
        &[
            // Self-consistent (`inv` square, `map` as tall), but not the leaf's.
            ("leaf factor of the wrong size", &|fh| {
                let lf = &mut fh.factor.nodes[leaf];
                let (ni, k) = lf.map.shape();
                lf.inv = Matrix::identity(ni - 1);
                lf.map = Matrix::zeros(ni - 1, k);
            }),
            // The root's `M_p^{-1}` one row short.
            ("merge factor of the wrong size", &|fh| {
                let mf = &mut fh.factor.nodes[0];
                let m = mf.inv.cols();
                mf.inv = Matrix::zeros(m - 1, m);
            }),
            ("coupling block between non-siblings", &|fh| {
                fh.hmatrix.plan.cds.b_entries[entry].source = stranger;
            }),
            ("tree height raised", &|fh| {
                raise_tree_height(&mut fh.hmatrix)
            }),
            ("root on a coarsen level of its own", &|fh| {
                root_coarsen_level(&mut fh.hmatrix)
            }),
            ("leaf inverse diagonal entry zeroed", &zero_dinv_diagonal),
        ],
    );
    assert!(holes.is_empty(), "from_bytes_factored accepted: {holes:?}");
}

/// Byte offsets of a factored image's two factor tables, the leaf table
/// and then the merge table: each table's count field and the start of
/// each of its slots, one per node.  The `MATROXF3` layout after the model
/// body is `n`, then per table the count and the slots; a slot is its
/// presence byte, then, where the node is of the table's kind, the node id
/// and its `inv` and `map`, each a row count, a column count and the values.
fn factor_tables(fh: &FactoredHMatrix) -> [(usize, Vec<usize>); 2] {
    let mut at = to_bytes(&fh.hmatrix).len() + 8;
    [true, false].map(|leaf_table| {
        let count = at;
        at += 8;
        let nodes = fh.hmatrix.tree.nodes.iter().zip(&fh.factor.nodes);
        let slots = nodes
            .map(|(node, f)| {
                let slot = at;
                at += 1;
                if node.is_leaf() == leaf_table {
                    at += 8 + 16 + 8 * f.inv.len() + 16 + 8 * f.map.len();
                }
                slot
            })
            .collect();
        (count, slots)
    })
}

/// Hand edits of a factored image's slot tables: each one leaves every
/// matrix readable, so only the reader's layout checks stand between it and
/// a factor whose slots are not the tree's.
#[test]
fn hand_edited_factor_slots_are_refused() {
    let fh = hss_model(256, 16).factorize().expect("factorize");
    let tree = &fh.hmatrix.tree;
    let (leaf, last) = (tree.leaves()[0], tree.num_nodes() - 1);
    assert!(!tree.nodes[0].is_leaf() && tree.nodes[last].is_leaf());
    let bytes = to_bytes_factored(&fh);
    let [(_, leaf_slots), (merge_count, _)] = factor_tables(&fh);
    assert_eq!(bytes[leaf_slots[leaf]], 1, "the layout walk is off");
    let put_u64 = |b: &mut Vec<u8>, at: usize, v: usize| {
        b[at..at + 8].copy_from_slice(&(v as u64).to_le_bytes());
    };
    let edits: [(Edit<'_, Vec<u8>>, String); 4] = [
        (
            ("a leaf slot flagged absent", &|b| b[leaf_slots[leaf]] = 0),
            format!("leaf factor slot {leaf} is absent"),
        ),
        (
            ("a slot present at an internal node", &|b| {
                b[leaf_slots[0]] = 1
            }),
            "leaf factor slot 0 is present".into(),
        ),
        (
            ("a slot naming another node", &|b| {
                put_u64(b, leaf_slots[leaf] + 1, leaf + 1)
            }),
            format!("leaf factor slot {leaf} names node {}", leaf + 1),
        ),
        (
            // The merge table's last slot is a leaf's: its presence byte
            // alone, the image's last byte.
            ("a table one slot short", &|b| {
                put_u64(b, merge_count, last);
                b.pop();
            }),
            format!("merge factor table has {last} slots"),
        ),
    ];
    for ((name, edit), says) in edits {
        let mut bad = bytes.clone();
        edit(&mut bad);
        match from_bytes_factored(&bad).err() {
            Some(MatroxError::Format(m)) => assert!(m.contains(&says), "{name}: {m}"),
            other => panic!("{name}: expected Format, got {other:?}"),
        }
    }
}

/// A height no node reaches: nothing else in the image records the height,
/// so only T4's equality stands between this and a height-sized reservation.
fn raise_tree_height(h: &mut HMatrix) {
    h.tree.height = 1 << 40;
}

/// Swap the ids of the root's two children everywhere the model names them:
/// the tree's nodes and links, the sranks and generators, the block
/// entries and the coarsen partitions.  The result is the same model under
/// other ids, with the root's children `(2, 1)`.
fn renumber_root_children(h: &mut HMatrix) {
    let swap = |id: usize| match id {
        1 => 2,
        2 => 1,
        id => id,
    };
    h.tree.nodes.swap(1, 2);
    for node in &mut h.tree.nodes {
        node.id = swap(node.id);
        node.parent = node.parent.map(swap);
        node.children = node.children.map(|(l, r)| (swap(l), swap(r)));
    }
    let cds = &mut h.plan.cds;
    cds.sranks.swap(1, 2);
    cds.generators.swap(1, 2);
    for e in cds.d_entries.iter_mut().chain(&mut cds.b_entries) {
        (e.target, e.source) = (swap(e.target), swap(e.source));
    }
    let parts = h.plan.coarsenset.levels.iter_mut().flatten();
    parts.flatten().for_each(|id| *id = swap(*id));
}

/// The root in a partition of a last coarsen level: every child still comes
/// before its parent, but the tree sweeps visit the root on their own, so
/// the root would be visited twice.
fn root_coarsen_level(h: &mut HMatrix) {
    h.plan.coarsenset.levels.push(vec![vec![0]]);
    h.plan.coarsenset.costs.push(vec![0]);
}

/// Zero one diagonal entry of the first leaf's `D_i^{-1}`: no inverse of an
/// SPD block has one.
fn zero_dinv_diagonal(fh: &mut FactoredHMatrix) {
    let nodes = &fh.hmatrix.tree.nodes;
    let leaf = nodes.iter().position(|n| n.is_leaf()).expect("a leaf");
    fh.factor.nodes[leaf].inv.set(2, 2, 0.0);
}

/// F5 on a factor that never went through the reader: a zeroed diagonal
/// entry of a leaf's `D_i^{-1}` (the pivot of the applied inverse) is a
/// `PlanMismatch` from `solve`, not a silently wrong solution.  No
/// single-byte flip produces an exact zero, so the sweep above cannot reach
/// this.  The merge inverses carry no such condition: nothing divides by
/// their entries.
#[test]
fn zeroed_pivots_in_memory_are_plan_mismatches() {
    let healthy = hss_model(256, 16).factorize().expect("factorize");
    let rhs = vec![1.0; healthy.dim()];
    assert!(healthy.solve(&rhs).is_ok());
    let mut bad = healthy.clone();
    zero_dinv_diagonal(&mut bad);
    match bad.solve(&rhs) {
        Err(MatroxError::PlanMismatch(m)) => assert!(m.contains("diagonal"), "{m}"),
        other => panic!("leaf inverse diagonal zeroed: expected PlanMismatch, got {other:?}"),
    }
}
