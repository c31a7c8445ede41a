//! The inspector taken apart: every stage called through its public function
//! with a span around the call, and the `HMatrix` assembled from the pieces.
//! `matrox::core::inspector` wires the same calls in the same order; the
//! traced run requires the two `to_bytes` images to be equal, so the stage
//! times are times of the same computation.

use crate::trace::Recorder;
use matrox::analysis::{build_blockset, build_cds_with_grain, build_coarsenset};
use matrox::codegen::generate_plan;
use matrox::compress::{compress, Compression, CompressionParams};
use matrox::core::InspectorTimings;
use matrox::points::{Kernel, PointSet};
use matrox::sampling::sample_nodes;
use matrox::tree::{ClusterTree, HTree};
use matrox::{HMatrix, InspectorP1, MatRoxParams};
use std::collections::BTreeMap;

/// Seconds per stage name, appended to on every staged build.
pub type StageTimes = BTreeMap<&'static str, Vec<f64>>;

fn note(times: &mut StageTimes, name: &'static str, secs: f64) {
    times.entry(name).or_default().push(secs);
}

/// Counts that describe the structure p1 built; they repeat exactly.
pub struct P1Counts {
    pub nodes: usize,
    pub near_pairs: usize,
    pub far_pairs: usize,
    pub total_samples: usize,
    pub near_groups: usize,
    pub far_groups: usize,
}

/// The stages of `inspector_p1`, each under its own span.
pub fn staged_p1(
    rec: &mut Recorder,
    times: &mut StageTimes,
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
) -> (InspectorP1, P1Counts) {
    let span = rec.begin("core.p1");
    let (tree, t) = rec.call("tree.ctree", || {
        ClusterTree::build_with_grain(
            points,
            params.partition,
            params.leaf_size,
            params.seed,
            params.grain,
        )
    });
    note(times, "tree.ctree_s", t);
    let (htree, t) = rec.call("tree.htree", || HTree::build(&tree, params.structure));
    note(times, "tree.htree_s", t);

    // A sub-parameter grain of 0 inherits the top-level one, as in the
    // inspector.
    let mut sp = params.sampling;
    if sp.grain == 0 {
        sp.grain = params.grain;
    }
    if sp.knn.grain == 0 {
        sp.knn.grain = params.grain;
    }
    let (sampling, t) = rec.call("sampling.sample", || {
        sample_nodes(points, &tree, kernel, &sp)
    });
    note(times, "sampling.sample_s", t);

    let ((near_blockset, far_blockset), t) = rec.call("analysis.blocking", || {
        (
            build_blockset(&htree.near_pairs(), tree.num_nodes(), params.near_blocksize),
            build_blockset(&htree.far_pairs(), tree.num_nodes(), params.far_blocksize),
        )
    });
    note(times, "analysis.blocking_s", t);
    note(times, "core.p1_s", rec.end(span));

    let counts = P1Counts {
        nodes: tree.num_nodes(),
        near_pairs: htree.num_near(),
        far_pairs: htree.num_far(),
        total_samples: sampling.total_samples(),
        near_groups: near_blockset.num_groups(),
        far_groups: far_blockset.num_groups(),
    };
    let p1 = InspectorP1 {
        tree,
        htree,
        sampling,
        near_blockset,
        far_blockset,
        params: *params,
        timings: InspectorTimings::default(),
    };
    (p1, counts)
}

/// The stages of `inspector_p2`.  Also returns the tree-based compression
/// the CDS was packed from (what the GOFMM baseline evaluates).
pub fn staged_p2(
    rec: &mut Recorder,
    times: &mut StageTimes,
    points: &PointSet,
    p1: &InspectorP1,
    kernel: &Kernel,
    bacc: f64,
) -> (HMatrix, Compression) {
    let params = &p1.params;
    let span = rec.begin("core.p2");
    let (compression, t) = rec.call("compress.compress", || {
        compress(
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
        )
    });
    note(times, "compress.compress_s", t);
    let (coarsenset, t) = rec.call("analysis.coarsen", || {
        build_coarsenset(&p1.tree, &compression.sranks, &params.coarsen)
    });
    note(times, "analysis.coarsen_s", t);
    let (cds, t) = rec.call("analysis.cds", || {
        build_cds_with_grain(
            &p1.tree,
            &compression,
            &p1.near_blockset,
            &p1.far_blockset,
            &coarsenset,
            params.grain,
        )
    });
    note(times, "analysis.cds_s", t);
    let (plan, t) = rec.call("codegen.plan", || {
        generate_plan(
            p1.near_blockset.clone(),
            p1.far_blockset.clone(),
            coarsenset,
            cds,
            p1.tree.height,
            p1.tree.leaves().len(),
            &params.codegen,
        )
    });
    note(times, "codegen.plan_s", t);
    let h = HMatrix {
        tree: p1.tree.clone(),
        plan,
        structure: params.structure,
        kernel: *kernel,
        bacc,
        timings: InspectorTimings::default(),
        panel_width: params.panel_width,
        gemm_kernel: params.kernel,
    };
    note(times, "core.p2_s", rec.end(span));
    (h, compression)
}

/// One staged build: the p1 pieces, the model, and what it was packed from.
pub struct Staged {
    pub p1: InspectorP1,
    pub h: HMatrix,
    pub compression: Compression,
    pub counts: P1Counts,
}

/// p1 then p2, as `inspector()` does.
pub fn staged_inspector(
    rec: &mut Recorder,
    times: &mut StageTimes,
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
) -> Staged {
    let span = rec.begin("core.inspect");
    let (p1, counts) = staged_p1(rec, times, points, kernel, params);
    let (h, compression) = staged_p2(rec, times, points, &p1, kernel, params.bacc);
    note(times, "core.inspect_s", rec.end(span));
    Staged {
        p1,
        h,
        compression,
        counts,
    }
}

/// Whether two models serialize to the same MATROX1 image.
pub fn same_image(a: &HMatrix, b: &HMatrix) -> bool {
    matrox::core::to_bytes(a) == matrox::core::to_bytes(b)
}
