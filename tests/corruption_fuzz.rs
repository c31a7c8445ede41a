//! Corruption fuzz: the hardened model readers must survive *any*
//! single-byte corruption of a saved model.
//!
//! For every byte position of a small `MATROX2` and `MATROXF2` stream (and
//! several XOR masks per byte, covering low-bit value perturbations and
//! structural byte rewrites), the corrupted stream must either
//!
//! * be rejected with an `Err` (never a panic), or
//! * parse into a model whose re-encoding is bitwise identical to the
//!   corrupted stream (the flip landed in a value payload and the parse is
//!   lossless — nothing is silently normalized or truncated) **and that
//!   can be used**: preparing and evaluating it (`MATROX2`) or solving with
//!   it (`MATROXF2`) does not panic and is not refused as a mismatch;
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
//! readers refuse them with `Format` (and, for the factor's pivots, that an
//! in-memory factor is refused with `PlanMismatch`): "`from_bytes` Ok" has to
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
    fuzz_single_byte_flips("MATROXF2", &factored, &|data| {
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
            ("node level beyond the tree height", &|h| {
                h.tree.nodes[3].level = h.tree.height + 5;
            }),
            // The schedule reserves, and the factorization loops, by height.
            ("tree height raised", &raise_tree_height),
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
            // Self-consistent (`chol` square, `e` as tall), but not the leaf's.
            ("leaf factor of the wrong size", &|fh| {
                let lf = fh.factor.leaves[leaf].as_mut().expect("leaf factor");
                let (ni, k) = lf.e.shape();
                lf.chol = Matrix::identity(ni - 1);
                lf.e = Matrix::zeros(ni - 1, k);
            }),
            ("coupling block between non-siblings", &|fh| {
                fh.hmatrix.plan.cds.b_entries[entry].source = stranger;
            }),
            ("tree height raised", &|fh| {
                raise_tree_height(&mut fh.hmatrix)
            }),
            ("Cholesky pivot zeroed", &zero_chol_pivot),
            ("LU pivot zeroed", &zero_lu_pivot),
        ],
    );
    assert!(holes.is_empty(), "from_bytes_factored accepted: {holes:?}");
}

/// A height no node reaches: nothing else in the image records the height,
/// so only T4's equality stands between this and a height-sized reservation.
fn raise_tree_height(h: &mut HMatrix) {
    h.tree.height = 1 << 40;
}

/// Zero one pivot of the first leaf's Cholesky factor: the forward
/// substitution would divide by it.
fn zero_chol_pivot(fh: &mut FactoredHMatrix) {
    let lf = fh.factor.leaves.iter_mut().flatten().next();
    lf.expect("a leaf factor").chol.set(2, 2, 0.0);
}

/// Zero one pivot of the root's merge system: the back substitution would
/// divide by it.
fn zero_lu_pivot(fh: &mut FactoredHMatrix) {
    let mf = fh.factor.merges[0].as_mut().expect("root merge factor");
    mf.lu.lu.set(1, 1, 0.0);
}

/// F5 on a factor that never went through the reader: a zeroed pivot is a
/// `PlanMismatch` from `solve`, not a panic in (or non-finite output from)
/// a substitution kernel.  No single-byte flip produces an exact zero, so
/// the sweep above cannot reach this.
#[test]
fn zeroed_pivots_in_memory_are_plan_mismatches() {
    let healthy = hss_model(256, 16).factorize().expect("factorize");
    let rhs = vec![1.0; healthy.dim()];
    assert!(healthy.solve(&rhs).is_ok());
    for (what, edit) in [
        ("Cholesky", zero_chol_pivot as fn(&mut FactoredHMatrix)),
        ("LU", zero_lu_pivot),
    ] {
        let mut bad = healthy.clone();
        edit(&mut bad);
        match bad.solve(&rhs) {
            Err(MatroxError::PlanMismatch(m)) => assert!(m.contains("pivot"), "{what}: {m}"),
            other => panic!("{what} pivot zeroed: expected PlanMismatch, got {other:?}"),
        }
    }
}
