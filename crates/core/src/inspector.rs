//! The MatRox inspector, full and split into the reusable phases p1/p2.
//!
//! The inspector (Figure 3) runs modular compression, structure analysis and
//! code generation.  [`inspector`] runs everything; [`inspector_p1`] /
//! [`inspector_p2`] implement the reuse scheme of Section 5: p1 depends only
//! on the points and the admissibility/structure selection (tree
//! construction, interaction computation, sampling, blocking and the code
//! skeleton), while p2 depends on the kernel function and the block accuracy
//! (low-rank approximation, coarsening, CDS construction).  When only the
//! kernel or `bacc` change, re-running p2 alone reuses all of p1's work —
//! this is what Figure 10 measures.
//!
//! Every phase with per-node or per-block parallelism (tree partitioning,
//! kNN, sampling, compression, CDS packing) runs on the work-stealing pool
//! with fixed combination order, so the inspector output — CDS bytes, ranks,
//! permutations, the serialized image — is bitwise identical at every pool
//! width and grain (see DESIGN.md, "Parallel inspector").  Both phases run
//! inside the crate's one containment boundary (`error::contain`): a panic on a pool worker surfaces as
//! [`MatroxError::PoolPanic`] instead of unwinding into the caller, and the
//! next clean inspection is unaffected.

use crate::config::MatRoxParams;
use crate::error::{contain, MatroxError};
use crate::hmatrix::HMatrix;
use crate::timings::InspectorTimings;
use matrox_analysis::{
    build_blockset, build_cds_with_grain, build_coarsenset, generate_plan, BlockSet,
};
use matrox_compress::{compress, CompressionParams};
use matrox_points::{Kernel, PointSet};
use matrox_sampling::{sample_nodes, SamplingInfo, SamplingParams};
use matrox_tree::{ClusterTree, HTree};
use std::time::Instant;

/// Resolve the effective sampling parameters: a sub-parameter grain of 0
/// inherits the top-level [`MatRoxParams::grain`].
fn effective_sampling(params: &MatRoxParams) -> SamplingParams {
    let mut sp = params.sampling;
    if sp.grain == 0 {
        sp.grain = params.grain;
    }
    if sp.knn.grain == 0 {
        sp.knn.grain = params.grain;
    }
    sp
}

/// Output of inspector-p1: everything that does not depend on the kernel
/// parameters or the requested accuracy.
#[derive(Debug, Clone)]
pub struct InspectorP1 {
    /// The cluster tree (tree-construction module).
    pub tree: ClusterTree,
    /// The HTree (interaction-computation module).
    pub htree: HTree,
    /// Per-node sampling information (sampling module).
    pub sampling: SamplingInfo,
    /// Near-interaction blockset (blocking, structure analysis).
    pub near_blockset: BlockSet,
    /// Far-interaction blockset (blocking, structure analysis).
    pub far_blockset: BlockSet,
    /// Parameters p1 was run with (p2 reuses them).
    pub params: MatRoxParams,
    /// Wall-clock breakdown of the p1 modules.
    pub timings: InspectorTimings,
}

/// Screen the inputs shared by every inspector entry point: a non-empty,
/// finite point set whose squared distances are finite, finite positive
/// kernel parameters, a usable leaf size.  Rejecting poison here keeps NaN
/// coordinates from silently contaminating the whole compressed
/// representation.
fn screen_inspector_inputs(
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
) -> Result<(), MatroxError> {
    if points.is_empty() {
        return Err(MatroxError::InvalidInput("empty point set".into()));
    }
    if !matrox_linalg::all_finite(points.coords()) {
        return Err(MatroxError::InvalidInput(
            "point set contains NaN or infinite coordinates".into(),
        ));
    }
    // The bounding box's squared diagonal bounds every squared distance the
    // inspector forms (between points, to centroids, to split centres).
    // Finite coordinates can still overflow it, and then the tree build's
    // split keys become `inf - inf`.
    let (lo, hi) = points.bounding_box(&(0..points.len()).collect::<Vec<_>>());
    let diag2: f64 = lo.iter().zip(&hi).map(|(l, h)| (h - l) * (h - l)).sum();
    if !diag2.is_finite() {
        return Err(MatroxError::InvalidInput(
            "point set spans too wide a range: its squared distances overflow".into(),
        ));
    }
    screen_kernel(kernel)?;
    if params.leaf_size == 0 {
        return Err(MatroxError::InvalidInput(
            "leaf size must be positive".into(),
        ));
    }
    Ok(())
}

fn screen_kernel(kernel: &Kernel) -> Result<(), MatroxError> {
    let ok = match *kernel {
        Kernel::Gaussian { bandwidth }
        | Kernel::Laplace { bandwidth }
        | Kernel::Cauchy { bandwidth } => bandwidth.is_finite() && bandwidth > 0.0,
        Kernel::InverseDistance { diag } => diag.is_finite(),
        Kernel::GaussianRidge { bandwidth, ridge } => {
            bandwidth.is_finite() && bandwidth > 0.0 && ridge.is_finite() && ridge >= 0.0
        }
    };
    if ok {
        Ok(())
    } else {
        Err(MatroxError::InvalidInput(format!(
            "kernel parameters must be finite (bandwidths positive): {kernel:?}"
        )))
    }
}

fn screen_bacc(bacc: f64) -> Result<(), MatroxError> {
    if bacc.is_finite() && bacc > 0.0 {
        Ok(())
    } else {
        Err(MatroxError::InvalidInput(format!(
            "block accuracy must be finite and positive, got {bacc:e}"
        )))
    }
}

/// Run inspector-p1: tree construction, interaction computation, sampling and
/// blocking.  The kernel passed here is only used to rank sampling
/// candidates; changing it later does **not** require re-running p1
/// (GOFMM-style neighbour sampling is geometry-driven).
///
/// # Errors
/// [`MatroxError::InvalidInput`] for empty or NaN/Inf-poisoned point sets
/// and non-finite kernel parameters.
pub fn inspector_p1(
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
) -> Result<InspectorP1, MatroxError> {
    screen_inspector_inputs(points, kernel, params)?;
    contain(|| {
        let mut timings = InspectorTimings::default();

        let t0 = Instant::now();
        let tree = ClusterTree::build_with_grain(
            points,
            params.partition,
            params.leaf_size,
            params.seed,
            params.grain,
        );
        timings.tree_construction = t0.elapsed();

        let t0 = Instant::now();
        let mut htree = HTree::build(&tree, params.structure);
        htree.keep_points(points);
        timings.interaction = t0.elapsed();

        let t0 = Instant::now();
        let sampling = sample_nodes(points, &tree, kernel, &effective_sampling(params));
        timings.sampling = t0.elapsed();

        let t0 = Instant::now();
        let near_blockset =
            build_blockset(&htree.near_pairs(), tree.num_nodes(), params.near_blocksize);
        let far_blockset =
            build_blockset(&htree.far_pairs(), tree.num_nodes(), params.far_blocksize);
        timings.blocking = t0.elapsed();

        Ok(InspectorP1 {
            tree,
            htree,
            sampling,
            near_blockset,
            far_blockset,
            params: *params,
            timings,
        })
    })
}

/// Run inspector-p2 on top of a p1 result: low-rank approximation with the
/// given kernel and accuracy, coarsening, CDS construction and code
/// generation.  Returns the ready-to-evaluate [`HMatrix`].
///
/// Three things do not depend on `bacc`.  The first p2 on a p1 evaluates
/// the dense near blocks and keeps them on `p1.htree`, with the CDS `D`
/// buffer packed from them; every later p2 with the same points and kernel
/// reuses both, and its model shares that buffer ([`HTree::near_blocks`],
/// `Cds::d_values`).  From the second p2 on, each node's pivoted QR is
/// kept paused at its stop and each far pair's coupling block is kept, and
/// the next p2 resumes or reads the QRs and grows the blocks instead of
/// redoing them ([`HTree::ladder`]).  The result is the same bits either
/// way.
///
/// # Errors
/// [`MatroxError::InvalidInput`] under the same screening as
/// [`inspector_p1`], plus [`MatroxError::PlanMismatch`] when `points` are
/// not the points `p1` was built over: [`inspector_p1`] keeps a copy on
/// `p1.htree` ([`HTree::keep_points`]), `points` is compared with it once,
/// bit for bit, and the stages then run on the copy, whose near blocks the
/// memo matches by address ([`HTree::kept_points`]).  A `p1` assembled by
/// hand around an `HTree` that kept no points is checked by its point count
/// only.
pub fn inspector_p2(
    points: &PointSet,
    p1: &InspectorP1,
    kernel: &Kernel,
    bacc: f64,
) -> Result<HMatrix, MatroxError> {
    screen_inspector_inputs(points, kernel, &p1.params)?;
    screen_bacc(bacc)?;
    if p1.tree.perm.len() != points.len() {
        return Err(MatroxError::PlanMismatch(format!(
            "p1 was built over {} points but {} were supplied",
            p1.tree.perm.len(),
            points.len()
        )));
    }
    if p1.htree.built_over(points) == Some(false) {
        return Err(MatroxError::PlanMismatch(
            "p1 was built over other points of the same count".into(),
        ));
    }
    p2_stages(p1.htree.kept_points().unwrap_or(points), p1, kernel, bacc)
}

/// The stages of [`inspector_p2`], on inputs already screened and matched
/// to `p1`.
fn p2_stages(
    points: &PointSet,
    p1: &InspectorP1,
    kernel: &Kernel,
    bacc: f64,
) -> Result<HMatrix, MatroxError> {
    contain(|| {
        let mut timings = p1.timings;
        let params = &p1.params;

        let t0 = Instant::now();
        let compression = compress(
            points,
            &p1.tree,
            &p1.htree,
            kernel,
            &p1.sampling,
            &CompressionParams {
                bacc,
                max_rank: params.max_rank,
                grain: params.grain,
            },
        );
        timings.low_rank = t0.elapsed();

        let t0 = Instant::now();
        let coarsenset = build_coarsenset(&p1.tree, &compression.sranks, &params.coarsen);
        timings.coarsening = t0.elapsed();

        let t0 = Instant::now();
        let cds = build_cds_with_grain(
            &p1.tree,
            &compression,
            &p1.near_blockset,
            &p1.far_blockset,
            &coarsenset,
            params.grain,
        );
        timings.cds = t0.elapsed();

        let t0 = Instant::now();
        let plan = generate_plan(
            p1.near_blockset.clone(),
            p1.far_blockset.clone(),
            coarsenset,
            cds,
            p1.tree.height,
            p1.tree.leaves().len(),
            &params.codegen,
        );
        timings.codegen = t0.elapsed();

        Ok(HMatrix {
            tree: p1.tree.clone(),
            plan,
            structure: params.structure,
            kernel: *kernel,
            bacc,
            timings,
            panel_width: params.panel_width,
            gemm_kernel: params.kernel,
        })
    })
}

/// Run the full inspector (Figure 2): compression, structure analysis and
/// code generation in one call.
///
/// # Errors
/// [`MatroxError::InvalidInput`] for empty or NaN/Inf-poisoned point sets,
/// non-finite kernel parameters, or a non-positive accuracy.
pub fn inspector(
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
) -> Result<HMatrix, MatroxError> {
    screen_bacc(params.bacc)?;
    let p1 = inspector_p1(points, kernel, params)?;
    // `p1` was just built over `points`, under the same screening: run on
    // the copy it kept, with nothing to compare.
    p2_stages(
        p1.htree.kept_points().unwrap_or(points),
        &p1,
        kernel,
        params.bacc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_linalg::Matrix;
    use matrox_points::{generate, DatasetId};
    use rand::SeedableRng;

    fn small_points() -> PointSet {
        generate(DatasetId::Grid, 512, 5)
    }

    #[test]
    fn full_inspector_produces_accurate_hmatrix() {
        let pts = small_points();
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::smash_setting()
            .with_bacc(1e-6)
            .with_leaf_size(32);
        let h = inspector(&pts, &kernel, &params).expect("inspect");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = Matrix::random_uniform(pts.len(), 4, &mut rng);
        let acc = h.overall_accuracy(&pts, &w).expect("accuracy");
        assert!(acc < 1e-2, "overall accuracy {acc}");
        // At this very small N the compressed form is not yet smaller than
        // the dense matrix (constant overheads dominate); just check the
        // ratio is sane.  The integration tests check >1 at larger N.
        assert!(h.compression_ratio() > 0.2);
        assert!(h.timings.total().as_nanos() > 0);
    }

    #[test]
    fn p1_plus_p2_equals_full_inspector() {
        let pts = small_points();
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::hss().with_bacc(1e-5).with_leaf_size(32);
        let full = inspector(&pts, &kernel, &params).expect("inspect");
        let p1 = inspector_p1(&pts, &kernel, &params).expect("p1");
        let reused = inspector_p2(&pts, &p1, &kernel, params.bacc).expect("p2");
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = Matrix::random_uniform(pts.len(), 3, &mut rng);
        let a = full.matmul(&w).expect("matmul");
        let b = reused.matmul(&w).expect("matmul");
        assert!(matrox_linalg::relative_error(&a, &b) < 1e-12);
    }

    #[test]
    fn p2_reuse_supports_changing_accuracy_and_kernel() {
        let pts = small_points();
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::smash_setting().with_leaf_size(32);
        let p1 = inspector_p1(&pts, &kernel, &params).expect("p1");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = Matrix::random_uniform(pts.len(), 2, &mut rng);

        let mut prev_err = f64::INFINITY;
        for bacc in [1e-2, 1e-4, 1e-6] {
            let h = inspector_p2(&pts, &p1, &kernel, bacc).expect("p2");
            let err = h.overall_accuracy(&pts, &w).expect("accuracy");
            assert!(
                err <= prev_err * 10.0,
                "accuracy did not improve: {err} after {prev_err}"
            );
            prev_err = err;
        }

        // Changing the kernel also only needs p2.
        let laplace = Kernel::Laplace { bandwidth: 1.0 };
        let h = inspector_p2(&pts, &p1, &laplace, 1e-5).expect("p2");
        let err = h.overall_accuracy(&pts, &w).expect("accuracy");
        assert!(err < 0.3, "kernel change produced error {err}");
    }

    /// An accuracy ladder through one p1 — the first p2 fills the HTree's
    /// near field, the other four reuse it — stores every model as five
    /// independent full inspections would, image byte for byte.
    #[test]
    fn ladder_through_one_p1_matches_full_inspections() {
        let pts = generate(DatasetId::Covtype, 512, 4);
        let kernel = Kernel::paper_gaussian();
        let ladder = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];
        for params in [
            MatRoxParams::h2b(),
            MatRoxParams::hss(),
            MatRoxParams::smash_setting(),
        ] {
            let params = params.with_leaf_size(32);
            let p1 = inspector_p1(&pts, &kernel, &params).expect("p1");
            for bacc in ladder {
                let reused = inspector_p2(&pts, &p1, &kernel, bacc).expect("p2");
                let full = inspector(&pts, &kernel, &params.with_bacc(bacc)).expect("inspect");
                assert!(
                    crate::io::to_bytes(&reused) == crate::io::to_bytes(&full),
                    "{} at bacc {bacc:e}",
                    params.structure.name()
                );
            }
        }
    }

    #[test]
    fn poisoned_or_empty_inputs_are_rejected() {
        use crate::error::MatroxError;
        let kernel = Kernel::Gaussian { bandwidth: 1.0 };
        let params = MatRoxParams::hss().with_leaf_size(32);
        let empty = PointSet::new(3, vec![]);
        assert!(matches!(
            inspector(&empty, &kernel, &params),
            Err(MatroxError::InvalidInput(_))
        ));
        let pts = small_points();
        let mut coords: Vec<f64> = pts.coords().to_vec();
        coords[7] = f64::NAN;
        let poisoned = PointSet::new(pts.dim(), coords);
        assert!(matches!(
            inspector(&poisoned, &kernel, &params),
            Err(MatroxError::InvalidInput(_))
        ));
        let bad_kernel = Kernel::Gaussian {
            bandwidth: f64::INFINITY,
        };
        assert!(matches!(
            inspector(&small_points(), &bad_kernel, &params),
            Err(MatroxError::InvalidInput(_))
        ));
        assert!(matches!(
            inspector(&small_points(), &kernel, &params.with_bacc(-1.0)),
            Err(MatroxError::InvalidInput(_))
        ));
        // A stale p1 handle paired with the wrong point set is a plan
        // mismatch, not a crash.
        let p1 = inspector_p1(&small_points(), &kernel, &params).expect("p1");
        let other = generate(DatasetId::Grid, 128, 9);
        assert!(matches!(
            inspector_p2(&other, &p1, &kernel, 1e-5),
            Err(MatroxError::PlanMismatch(_))
        ));
    }

    #[test]
    fn timings_partition_into_p1_and_p2() {
        let pts = small_points();
        let kernel = Kernel::paper_gaussian();
        let h = inspector(&pts, &kernel, &MatRoxParams::h2b().with_leaf_size(32)).expect("inspect");
        let t = &h.timings;
        assert_eq!(t.inspector_p1() + t.inspector_p2(), t.total());
        assert!(t.low_rank.as_nanos() > 0);
    }
}
