//! What an accuracy ladder shares across its rungs.
//!
//! Every `inspector_p2` on one p1 packs its near blocks into the same `D`
//! buffer, and from the second one on each rung goes on from the pivoted
//! QRs and coupling blocks the one before it kept (DESIGN.md "Inspector
//! reuse").  Every image must equal a full `inspector()`'s at its
//! accuracy, byte for byte, in any order of rungs, and a write to one
//! model's buffer must reach no other model.
//!
//! One test arms the process-global `compress-panic` failpoint, so every
//! test holds `SERIAL`: an armed fire must never be consumed by a
//! sibling's compression.

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: a process-wide Mutex serializing the test functions — one arms the global `compress-panic` failpoint, which any sibling's compression could otherwise consume"
)]

use matrox::core::{failpoint, to_bytes, MatroxError};
use matrox::{
    generate, inspector, inspector_p1, inspector_p2, DatasetId, HMatrix, InspectorP1, Kernel,
    MatRoxParams, Matrix, PointSet,
};
use std::sync::{Mutex, MutexGuard};

// Poisoning is harmless: the guard protects no data.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The rungs share one `D` buffer; the first keeps no node's QR and the
/// second keeps them all; every image is the full inspector's.
#[test]
fn a_ladder_shares_its_near_values_and_leaf_blocks() {
    let _serial = serial();
    let (points, kernel, params) = problem();
    let p1 = inspector_p1(&points, &kernel, &params).expect("p1");
    let mut ladder = Vec::new();
    for (rung, &bacc) in LADDER.iter().enumerate() {
        let h = inspector_p2(&points, &p1, &kernel, bacc).expect("p2");
        let kept = p1.htree.ladder_counts().nodes_kept;
        assert_eq!(kept == 0, rung == 0, "rung {rung}: {kept} node QRs kept");
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
        shown.contains("node QRs") && shown.len() < 100_000,
        "{}",
        shown.len()
    );
}

/// Poisoning one model's `D` buffer leaves a sibling's served bits and a
/// later rung's model as they were.
#[test]
fn a_write_to_one_model_reaches_no_sibling() {
    let _serial = serial();
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
/// two that race to fill the kept ladder work after them.
#[test]
fn concurrent_first_calls_agree() {
    let _serial = serial();
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

/// Full inspector images, each computed once.
struct References {
    points: PointSet,
    kernel: Kernel,
    params: MatRoxParams,
    images: Vec<((u64, usize), Vec<u8>)>,
}

impl References {
    fn new() -> Self {
        let (points, kernel, params) = problem();
        References {
            points,
            kernel,
            params,
            images: Vec::new(),
        }
    }

    /// The full inspector's image at `bacc` and rank cap `max_rank`.
    fn image(&mut self, bacc: f64, max_rank: usize) -> &[u8] {
        let key = (bacc.to_bits(), max_rank);
        let at = match self.images.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let params = MatRoxParams {
                    max_rank,
                    ..self.params
                };
                let image = reference(&self.points, &self.kernel, &params, bacc);
                self.images.push((key, image));
                self.images.len() - 1
            }
        };
        &self.images[at].1
    }

    /// Every rung of `ladder`, each `(bacc, max_rank)`, over one fresh p1:
    /// its image is the full inspector's.
    fn check_ladder(&mut self, name: &str, ladder: &[(f64, usize)]) {
        let p1 = inspector_p1(&self.points, &self.kernel, &self.params).expect("p1");
        for (rung, &(bacc, max_rank)) in ladder.iter().enumerate() {
            // Once the first rung has kept the near field, a clone of the
            // HTree shares it and the ladder work kept with it.
            assert!(rung > 0 || max_rank == self.params.max_rank);
            let mut capped = p1.clone();
            capped.params.max_rank = max_rank;
            let on = if max_rank == self.params.max_rank {
                &p1
            } else {
                &capped
            };
            let h = inspector_p2(&self.points, on, &self.kernel, bacc).expect("p2");
            let what = format!("{name} ladder, rung {rung}: bacc {bacc:e}, max_rank {max_rank}");
            assert!(to_bytes(&h) == self.image(bacc, max_rank), "{what}");
        }
        let kept = p1.htree.ladder_counts();
        assert!(
            kept.nodes_kept > 0 && kept.pairs_kept > 0,
            "{name}: {kept:?}"
        );
    }
}

/// Ascending, descending, a repeated rung, interleaved, and a rank cap
/// changed mid-ladder (below the ranks, then back): every rung serves and
/// stores the full inspector's bytes.
#[test]
fn every_ladder_order_gives_the_inspectors_bytes() {
    let _serial = serial();
    let mut refs = References::new();
    let cap = refs.params.max_rank;
    let at = |baccs: &[f64]| baccs.iter().map(|&b| (b, cap)).collect::<Vec<_>>();
    refs.check_ladder("ascending", &at(&[1e-1, 1e-2, 1e-3, 1e-4, 1e-5]));
    refs.check_ladder("descending", &at(&[1e-5, 1e-4, 1e-3, 1e-2, 1e-1]));
    refs.check_ladder("repeated", &at(&[1e-3, 1e-3, 1e-5, 1e-5, 1e-3]));
    refs.check_ladder("interleaved", &at(&[1e-3, 1e-1, 1e-5, 1e-4, 1e-2]));
    refs.check_ladder(
        "max_rank",
        &[
            (1e-2, cap),
            (1e-4, cap),
            (1e-4, 6),
            (1e-5, 6),
            (1e-5, cap),
            (1e-3, 3),
        ],
    );
}

/// Two p2 calls over one p1 racing on a 2-wide pool, after two rungs have
/// filled the kept work: a cell one call holds is a miss for the other,
/// and both serve the full inspector's bytes, as does the rung after them.
#[test]
fn racing_rungs_give_the_inspectors_bytes() {
    let _serial = serial();
    let mut refs = References::new();
    let (points, kernel) = (refs.points.clone(), refs.kernel);
    let p1 = inspector_p1(&points, &kernel, &refs.params).expect("p1");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let run = |bacc: f64| to_bytes(&inspector_p2(&points, &p1, &kernel, bacc).expect("p2"));
    run(1e-1);
    run(1e-2);
    let cap = refs.params.max_rank;
    for (a, b) in [(1e-3, 1e-5), (1e-4, 1e-4), (1e-1, 1e-5), (1e-2, 1e-3)] {
        let (got_a, got_b) = pool.install(|| rayon::join(|| run(a), || run(b)));
        assert!(got_a == refs.image(a, cap), "bacc {a:e} racing {b:e}");
        assert!(got_b == refs.image(b, cap), "bacc {b:e} racing {a:e}");
    }
    assert!(run(1e-4) == refs.image(1e-4, cap));
}

/// A panic injected into a node's compression mid-ladder, while that node's
/// kept QR is taken: the rung fails with `PoolPanic`, the abandoned cell is
/// emptied rather than read, and the next rungs factor that node afresh
/// and give the full inspector's bytes.
#[test]
fn a_panic_mid_ladder_leaves_no_abandoned_cell_read() {
    let _serial = serial();
    let mut refs = References::new();
    let (points, kernel) = (refs.points.clone(), refs.kernel);
    let p1: InspectorP1 = inspector_p1(&points, &kernel, &refs.params).expect("p1");
    let cap = refs.params.max_rank;
    for bacc in [1e-1, 1e-2] {
        inspector_p2(&points, &p1, &kernel, bacc).expect("p2");
    }
    let kept = p1.htree.ladder_counts().nodes_kept;

    failpoint::set(failpoint::names::COMPRESS_PANIC, 1);
    let err = inspector_p2(&points, &p1, &kernel, 1e-3).expect_err("the injected panic");
    assert!(!failpoint::armed(failpoint::names::COMPRESS_PANIC));
    assert!(matches!(err, MatroxError::PoolPanic(_)), "{err:?}");
    let left = p1.htree.ladder_counts().nodes_kept;
    assert!(
        left < kept,
        "{left} of {kept} node QRs kept after the panic"
    );

    for bacc in [1e-3, 1e-4] {
        let h = inspector_p2(&points, &p1, &kernel, bacc).expect("p2");
        assert!(to_bytes(&h) == refs.image(bacc, cap), "bacc {bacc:e}");
        let counts = p1.htree.ladder_counts();
        assert!(counts.nodes_kept >= kept, "bacc {bacc:e}: {counts:?}");
        if bacc == 1e-3 {
            assert!(counts.nodes_fresh > 0, "{counts:?}");
        }
    }
}
