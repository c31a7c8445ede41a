//! `ml_wide`: a 54-d covtype-like set under H2-b, evaluated against a wide
//! (Q=256) and a narrow (Q=16) right-hand side.  About 150 MB of CDS and
//! large near/coupling GEMMs: `exec` and the `linalg` microkernel do nearly
//! all the work.  The narrow batch is narrower than any chosen panel width,
//! so a blocking change tuned for Q=256 that hurts narrow batches shows.

use super::{alternate_builds, check_columns_bitwise, random_matrix, Probe, DATASET_SEED};
use crate::measure::time;
use crate::pipeline::{same_image, staged_inspector, StageTimes};
use crate::probes;
use crate::report::Run;
use crate::stats::{median, Rng};
use crate::trace::Recorder;
use matrox::baselines::GofmmEvaluator;
use matrox::core::MatroxError;
use matrox::linalg::Matrix;
use matrox::points::{generate, DatasetId, Kernel, PointSet};
use matrox::{inspector, EvalSession, MatRoxParams};

const N: usize = 16384;
const Q_OP: usize = 256;
const Q_ALT: usize = 16;
/// Nominal sample counts and the rounds they are taken in (rule R3; one
/// build is about 1.8 s, one wide evaluation about 0.5 s, one narrow one
/// about 55 ms).  The wide evaluation gets the largest share of the run: a
/// half-second sample seldom falls wholly into a quiet moment of the host,
/// so it needs the most samples for some to find one.
const ROUNDS: usize = 5;
const SETUPS: usize = 5;
const OPS: usize = 25;
const ALTS: usize = 40;

struct Inputs {
    points: PointSet,
    kernel: Kernel,
    params: MatRoxParams,
    w_op: Matrix,
    w_alt: Matrix,
    rng: Rng,
    generate_s: f64,
}

fn inputs(run: &Run) -> Inputs {
    let n = run.scale.n(N);
    let (points, generate_s) = time(|| generate(DatasetId::Covtype, n, DATASET_SEED));
    let mut rng = Rng::new(run.seed);
    Inputs {
        points,
        kernel: Kernel::Gaussian { bandwidth: 5.0 },
        params: MatRoxParams::h2b().with_bacc(1e-5),
        w_op: random_matrix(&mut rng, n, Q_OP),
        w_alt: random_matrix(&mut rng, n, Q_ALT),
        rng,
        generate_s,
    }
}

fn build(inp: &Inputs) -> Result<EvalSession, MatroxError> {
    inspector(&inp.points, &inp.kernel, &inp.params).map(EvalSession::from_hmatrix)
}

pub fn run_end_to_end(run: &mut Run) {
    let mut inp = inputs(run);
    let probe = Probe::new(&inp.points, &inp.kernel);

    // Rule R2: one full untimed set-up, dropped, so the timed ones reuse
    // pages the host has already backed.
    drop(build(&inp));

    let scale = run.scale;
    let (mut setup, mut op, mut alt) = (Vec::new(), Vec::new(), Vec::new());
    let (mut session, mut y_op) = (None, None);
    for _ in 0..scale.rounds(ROUNDS) {
        setup.extend(run.meter.samples(
            "setup_s",
            0,
            scale.per_round(SETUPS, ROUNDS),
            &mut run.tally,
            || {
                session = None; // give the previous model's pages back first, untimed
                let (built, secs) = time(|| build(&inp));
                session = built.ok();
                session.as_ref().map(|_| secs)
            },
        ));
        let Some(session) = &session else {
            return run.fail("setup.built", "no build succeeded");
        };
        op.extend(run.meter.samples(
            "op_s",
            0,
            scale.per_round(OPS, ROUNDS),
            &mut run.tally,
            || {
                let (y, secs) = time(|| session.evaluate(&inp.w_op));
                y_op = y.ok();
                y_op.as_ref().map(|_| secs)
            },
        ));
        alt.extend(run.meter.samples(
            "alt_s",
            2,
            scale.per_round(ALTS, ROUNDS),
            &mut run.tally,
            || {
                let (y, secs) = time(|| session.evaluate(&inp.w_alt));
                y.ok().map(|_| secs)
            },
        ));
    }
    run.set_fast("setup_s", setup);
    run.set_fast("op_s", op);
    run.set_fast("alt_s", alt);
    let (Some(session), Some(y_op)) = (session, y_op) else {
        return run.fail("evaluate.served", "no evaluation succeeded");
    };

    run.set("model_bytes", session.hmatrix().plan.storage_bytes() as f64);
    match session.evaluate(&probe.w) {
        Ok(y) => run.set("rel_err", probe.rel_err(&y)),
        Err(e) => run.fail("probe.served", e),
    }
    check_columns_bitwise(run, &mut inp.rng, &session, &inp.w_op, &y_op);
}

pub fn run_traced(run: &mut Run) -> Recorder {
    super::pretouch(run);
    let inp = inputs(run);
    run.set("points.generate_s", inp.generate_s);
    let (_, cold_s) = time(|| drop(build(&inp)));
    run.set("core.cold_first_build_s", cold_s);

    let mut rec = super::open_trace(run);
    let mut times = StageTimes::new();
    let builds = alternate_builds(
        &mut rec,
        || build(&inp).ok(),
        |rec| {
            let staged = staged_inspector(rec, &mut times, &inp.points, &inp.kernel, &inp.params);
            let (session, _) = rec.call("core.session", || EvalSession::from_hmatrix(staged.h));
            (session, staged.p1, staged.compression, staged.counts)
        },
    );
    let (session, p1, compression, counts) = builds.staged;
    super::stage_metrics(run, &times);
    super::structure_metrics(run, &counts, &compression, session.hmatrix());
    match builds.plain {
        Some(r) => run.check(
            "trace.staged_image_equals_inspector_image",
            same_image(session.hmatrix(), r.hmatrix()),
            "to_bytes of the HMatrix assembled stage by stage against inspector()'s".to_string(),
        ),
        None => run.fail("trace.reference_built", "inspector() failed"),
    }

    let execute_s = probes::exec_and_linalg(run, &mut rec, &session, &inp.w_op, 3);
    probes::image_round_trip(run, &mut rec, session.hmatrix(), 3);

    // The paper's comparator: GOFMM-style evaluation over tree-based
    // storage, driven through the same panel width.
    let span = rec.begin("probe.baselines");
    let gofmm = GofmmEvaluator::new(&p1.tree, &p1.htree, &compression);
    let width = session.panel_width();
    let gofmm_times: Vec<f64> = (0..2)
        .map(|_| {
            rec.call("baselines.gofmm_evaluate_batch", || {
                std::hint::black_box(gofmm.evaluate_batch(&inp.w_op, width));
            })
            .1
        })
        .collect();
    rec.end(span);
    let gofmm_s = median(&gofmm_times);
    run.set("baselines.gofmm_eval_s", gofmm_s);
    run.set("baselines.speedup_vs_gofmm", gofmm_s / execute_s);

    super::close_trace(run, &rec, &builds.staged_s, &builds.plain_s);
    rec
}
