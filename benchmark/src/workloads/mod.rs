//! The four workloads and what they share: the accuracy probe against the
//! exact kernel matrix, the bitwise comparisons, and what every traced run
//! records.

pub mod ml_wide;
pub mod reuse_sweep;
pub mod sci_solve;
pub mod serve_wire;

use crate::measure::time;
use crate::pipeline::{P1Counts, StageTimes};
use crate::report::Run;
use crate::stats::{median, Rng};
use crate::trace::Recorder;
use matrox::compress::Compression;
use matrox::linalg::{frobenius_norm, matmul, Matrix};
use matrox::points::{kernel_block, Kernel, PointSet};
use matrox::{EvalSession, HMatrix};

/// Generator seed of the point sets and of the accuracy probe.  `--seed`
/// seeds what the operations are given (right-hand sides, checked columns,
/// the request stream) and never the model: a model that changed with the
/// seed would move `model_bytes`, `rel_err` and every time by several
/// percent from one seed to the next (measured: 4 % in `model_bytes`, 9 to
/// 18 % in `rel_err` on the covtype-like sets), more than the bounds allow a
/// regression to be.
pub const DATASET_SEED: u64 = 6;

/// Rows of the exact kernel matrix `rel_err` is measured on, and columns of
/// the probe's right-hand side.
const PROBE_ROWS: usize = 512;
const PROBE_COLS: usize = 32;

pub fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.symmetric())
}

pub fn random_vector(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.symmetric()).collect()
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The accuracy probe: 512 rows of the exact kernel matrix and a fixed
/// right-hand side of 32 columns.  `rel_err` is the error of the model's
/// answer to the probe, served like any other request; being the same
/// request on every run, it repeats to the bit until the model changes.
pub struct Probe {
    rows: Vec<usize>,
    block: Matrix,
    pub w: Matrix,
    /// `K[rows, :] w`.
    exact: Matrix,
}

impl Probe {
    pub fn new(points: &PointSet, kernel: &Kernel) -> Probe {
        let mut rng = Rng::new(DATASET_SEED);
        let rows = rng.distinct(points.len(), PROBE_ROWS);
        let all: Vec<usize> = (0..points.len()).collect();
        let block = kernel_block(points, kernel, &rows, &all);
        let w = random_matrix(&mut rng, points.len(), PROBE_COLS);
        Probe {
            exact: matmul(&block, &w),
            rows,
            block,
            w,
        }
    }

    /// `||y[rows, :] - K[rows, :] w||_F / ||K[rows, :] w||_F` for the served
    /// `y = K~ w`.
    pub fn rel_err(&self, y: &Matrix) -> f64 {
        let mut diff = y.gather_rows(&self.rows);
        diff.sub_assign(&self.exact);
        frobenius_norm(&diff) / frobenius_norm(&self.exact)
    }

    /// `||K[rows, :] x - w[rows, :]||_F / ||w[rows, :]||_F` for the served
    /// solution `x` of `K x = w`.
    pub fn residual(&self, x: &Matrix) -> f64 {
        let mut r = matmul(&self.block, x);
        let b_rows = self.w.gather_rows(&self.rows);
        r.sub_assign(&b_rows);
        frobenius_norm(&r) / frobenius_norm(&b_rows)
    }
}

/// Check that four seeded columns of `y = evaluate(w)` are bitwise what
/// `evaluate_vec` returns for the same column alone.
pub fn check_columns_bitwise(
    run: &mut Run,
    rng: &mut Rng,
    session: &EvalSession,
    w: &Matrix,
    y: &Matrix,
) {
    let cols = rng.distinct(w.cols(), 4);
    let mut detail = Vec::new();
    let mut all = true;
    for &c in &cols {
        let same = match session.evaluate_vec(&w.col(c)) {
            Ok(v) => bitwise_eq(&v, &y.col(c)),
            Err(e) => {
                detail.push(format!("column {c}: {e}"));
                false
            }
        };
        all &= same;
    }
    run.check(
        "exec.columns_bitwise_equal_evaluate_vec",
        all,
        format!(
            "evaluate(W)[:, j] against evaluate_vec(W[:, j]) for j in {cols:?} {}",
            detail.join("; ")
        ),
    );
}

// ---- what every traced run records -------------------------------------

/// Samples of the staged and the plain builds a traced run takes, in turn;
/// enough for a median, few enough to leave the run's time to the probes.
pub const TRACED_BUILDS: usize = 3;

/// What [`alternate_builds`] leaves: the last model of each kind and the
/// seconds of every build.
pub struct Builds<P, S> {
    pub plain: Option<P>,
    pub staged: S,
    pub plain_s: Vec<f64>,
    pub staged_s: Vec<f64>,
}

/// `TRACED_BUILDS` times in turn: the workload's set-up as the untraced run
/// does it (one span, `setup.untraced`) and the same set-up stage by stage
/// (`setup` with a child per stage).  Taking turns puts both under the same
/// host conditions; their ratio is `host.trace_overhead`.
pub fn alternate_builds<P, S>(
    rec: &mut Recorder,
    mut plain: impl FnMut() -> Option<P>,
    mut staged: impl FnMut(&mut Recorder) -> S,
) -> Builds<P, S> {
    let (mut last_plain, mut last_staged) = (None, None);
    let (mut plain_s, mut staged_s) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_BUILDS {
        drop(last_plain.take());
        rec.next_work();
        let (built, secs) = rec.call("setup.untraced", &mut plain);
        last_plain = built;
        plain_s.push(secs);

        drop(last_staged.take());
        rec.next_work();
        let span = rec.begin("setup");
        last_staged = Some(staged(rec));
        staged_s.push(rec.end(span));
    }
    Builds {
        plain: last_plain,
        staged: last_staged.expect("TRACED_BUILDS > 0"),
        plain_s,
        staged_s,
    }
}

/// `host.pretouch_s`: write one byte per page of a fresh 64 MiB buffer.  On
/// this kind of host the first touch of a page costs tens of microseconds
/// (rule R2); the metric shows what that cost was when the run started.
pub fn pretouch(run: &mut Run) {
    const BYTES: usize = 64 << 20;
    let (_, secs) = time(|| {
        let mut buf = vec![0u8; BYTES];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(buf.iter().step_by(4096).map(|b| u64::from(*b)).sum::<u64>())
    });
    run.set("host.pretouch_s", secs);
}

/// The median of every stage's samples as that stage's metric.
pub fn stage_metrics(run: &mut Run, times: &StageTimes) {
    for (name, samples) in times {
        run.set_timed(name, samples.clone());
    }
}

/// Counts and sizes of the built model; they repeat exactly.
pub fn structure_metrics(run: &mut Run, counts: &P1Counts, compression: &Compression, h: &HMatrix) {
    run.set("tree.nodes", counts.nodes as f64);
    run.set("tree.near_pairs", counts.near_pairs as f64);
    run.set("tree.far_pairs", counts.far_pairs as f64);
    run.set("sampling.total_samples", counts.total_samples as f64);
    run.set("analysis.near_groups", counts.near_groups as f64);
    run.set("analysis.far_groups", counts.far_groups as f64);
    run.set(
        "compress.rank_sum",
        compression.sranks.iter().sum::<usize>() as f64,
    );
    run.set(
        "compress.rank_max",
        compression.sranks.iter().copied().max().unwrap_or(0) as f64,
    );
    run.set("compress.bytes", compression.storage_bytes() as f64);
    run.set("analysis.cds_bytes", h.plan.storage_bytes() as f64);
}

/// Start of the traced section: a sentinel reading and a fresh recorder.
pub fn open_trace(run: &mut Run) -> Recorder {
    run.meter.reading();
    Recorder::new()
}

/// End of the traced section: the validity metrics of the run itself, and
/// the check that the spans account for the section (what ran outside any
/// top-level span is under 5 % of its wall time).
pub fn close_trace(run: &mut Run, rec: &Recorder, staged_setup: &[f64], plain_setup: &[f64]) {
    let traced_wall = rec.now();
    run.meter.reading();
    // Builds, probes and sweeps; a stream's requests are tallied one by one.
    run.tally.attempted += rec.work_units();
    run.set("host.calibration_s", median(&run.meter.calibration));
    run.set("host.peak_rss_mb", crate::host::peak_rss_mb());
    run.set(
        "host.trace_overhead",
        median(staged_setup) / median(plain_setup),
    );
    let covered = rec.top_level_seconds();
    run.check(
        "trace.top_level_spans_cover_the_traced_section",
        (covered - traced_wall).abs() <= 0.05 * traced_wall,
        format!("top-level spans sum to {covered:.4} s of {traced_wall:.4} s traced"),
    );
}
