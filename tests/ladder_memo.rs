//! What an accuracy ladder shares across its rungs.
//!
//! Every `inspector_p2` on one p1 packs its near blocks into the same `D`
//! buffer, and the second one keeps the leaves' sample blocks for the rest
//! (DESIGN.md "Inspector reuse").  Neither reads `bacc`, so every image
//! must equal a full `inspector()`'s at its accuracy, byte for byte, and a
//! write to one model's buffer must reach no other model.

use matrox::core::to_bytes;
use matrox::{
    generate, inspector, inspector_p1, inspector_p2, DatasetId, HMatrix, Kernel, MatRoxParams,
    Matrix, PointSet,
};

const LADDER: [f64; 3] = [1e-1, 1e-3, 1e-5];

fn problem() -> (PointSet, Kernel, MatRoxParams) {
    let points = generate(DatasetId::Covtype, 512, 3);
    let params = MatRoxParams::h2b().with_leaf_size(32);
    (points, Kernel::Gaussian { bandwidth: 5.0 }, params)
}

/// The full inspector's image at `bacc`.
fn reference(points: &PointSet, kernel: &Kernel, params: &MatRoxParams, bacc: f64) -> Vec<u8> {
    to_bytes(&inspector(points, kernel, &params.with_bacc(bacc)).expect("inspector"))
}

fn served_bits(h: &HMatrix, w: &Matrix) -> Vec<u64> {
    let y = h.matmul(w).expect("matmul");
    y.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The rungs share one `D` buffer; the first keeps no leaf sample block and
/// the second keeps them all; every image is the full inspector's.
#[test]
fn a_ladder_shares_its_near_values_and_leaf_blocks() {
    let (points, kernel, params) = problem();
    let p1 = inspector_p1(&points, &kernel, &params).expect("p1");
    let mut ladder = Vec::new();
    for (rung, &bacc) in LADDER.iter().enumerate() {
        let h = inspector_p2(&points, &p1, &kernel, bacc).expect("p2");
        let kept = p1.htree.kept_leaf_blocks();
        assert_eq!(kept == 0, rung == 0, "rung {rung}: {kept} leaf blocks kept");
        assert_eq!(
            to_bytes(&h),
            reference(&points, &kernel, &params, bacc),
            "rung {rung}"
        );
        ladder.push(h);
    }
    for h in &ladder[1..] {
        assert!(h.plan.cds.d_values.shares(&ladder[0].plan.cds.d_values));
    }
    let shown = format!("{:?}", p1.htree);
    assert!(
        shown.contains("leaf sample blocks") && shown.len() < 100_000,
        "{}",
        shown.len()
    );
}

/// Poisoning one model's `D` buffer leaves a sibling's served bits and a
/// later rung's model as they were.
#[test]
fn a_write_to_one_model_reaches_no_sibling() {
    let (points, kernel, params) = problem();
    let p1 = inspector_p1(&points, &kernel, &params).expect("p1");
    let mut first = inspector_p2(&points, &p1, &kernel, LADDER[0]).expect("p2");
    let sibling = inspector_p2(&points, &p1, &kernel, LADDER[1]).expect("p2");
    let w = Matrix::from_fn(points.len(), 2, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let served = served_bits(&sibling, &w);

    first.plan.cds.d_values[0] = f64::NAN;
    assert!(!first.plan.cds.d_values.shares(&sibling.plan.cds.d_values));
    assert!(first.matmul(&w).is_err());
    assert_eq!(served_bits(&sibling, &w), served);
    let later = inspector_p2(&points, &p1, &kernel, LADDER[2]).expect("p2");
    assert!(later.plan.cds.d_values.shares(&sibling.plan.cds.d_values));
    assert_eq!(
        to_bytes(&later),
        reference(&points, &kernel, &params, LADDER[2])
    );
}

/// Two first calls on one p1 racing on a 2-wide pool agree, and so do the
/// two that race to fill the leaf sample blocks after them.
#[test]
fn concurrent_first_calls_agree() {
    let (points, kernel, params) = problem();
    let p1 = inspector_p1(&points, &kernel, &params).expect("p1");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let run = |bacc: f64| to_bytes(&inspector_p2(&points, &p1, &kernel, bacc).expect("p2"));
    for (a, b) in [(LADDER[0], LADDER[2]), (LADDER[1], LADDER[2])] {
        let (got_a, got_b) = pool.install(|| rayon::join(|| run(a), || run(b)));
        assert_eq!(got_a, reference(&points, &kernel, &params, a));
        assert_eq!(got_b, reference(&points, &kernel, &params, b));
    }
    assert_eq!(
        run(LADDER[1]),
        reference(&points, &kernel, &params, LADDER[1])
    );
}
