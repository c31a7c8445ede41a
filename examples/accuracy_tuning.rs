//! Accuracy tuning with inspector reuse (Section 5 / Figure 8 of the paper).
//!
//! In practice the block accuracy `bacc` has to be retuned because the
//! overall accuracy of the HMatrix-matrix product is only loosely bounded by
//! it.  Libraries re-run the whole compression for every new `bacc`; MatRox
//! re-runs only inspector-p2 (low-rank approximation, coarsening, CDS) and
//! reuses inspector-p1 (tree, interactions, sampling, blocking).  The first
//! p2 also evaluates the dense near blocks, which depend on neither `bacc`
//! nor anything p2 computes; the later ones reuse them from p1's HTree.
//!
//! The example checks that reuse: every ladder member's image must equal the
//! full inspection's at the same `bacc`, byte for byte, or it exits non-zero.
//!
//! ```bash
//! cargo run --release --example accuracy_tuning
//! ```

use matrox::core::to_bytes;
use matrox::{
    generate, inspector, inspector_p1, inspector_p2, DatasetId, Kernel, MatRoxParams, Matrix,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let n = 2048;
    let points = generate(DatasetId::Letter, n, 3);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b().with_leaf_size(64);
    let baccs = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let w = Matrix::random_uniform(n, 16, &mut rng);

    println!("accuracy tuning over bacc = {baccs:?} on letter-like data (N = {n})\n");

    // ---- MatRox with reuse: p1 once, p2 per accuracy -----------------------
    let t0 = Instant::now();
    let p1 = inspector_p1(&points, &kernel, &params).expect("inspector p1");
    let p1_time = t0.elapsed();
    let mut reuse_total = p1_time;
    println!("inspector-p1 (reusable): {:.3} s", p1_time.as_secs_f64());
    println!(
        "{:>8}  {:>12}  {:>12}  {:>10}",
        "bacc", "p2 time (s)", "eval (s)", "eps_f"
    );
    let (mut p2_times, mut images) = (Vec::new(), Vec::new());
    for &bacc in &baccs {
        let t0 = Instant::now();
        let h = inspector_p2(&points, &p1, &kernel, bacc).expect("inspector p2");
        let p2_time = t0.elapsed();
        let t0 = Instant::now();
        let _y = h.matmul(&w).expect("matmul");
        let eval_time = t0.elapsed();
        reuse_total += p2_time + eval_time;
        p2_times.push(p2_time);
        images.push(to_bytes(&h));
        let acc = h.overall_accuracy(&points, &w).expect("accuracy probe");
        println!(
            "{bacc:>8.0e}  {:>12.3}  {:>12.3}  {acc:>10.2e}",
            p2_time.as_secs_f64(),
            eval_time.as_secs_f64()
        );
    }

    let later = &p2_times[1..];
    println!(
        "\np2 at the first rung (evaluates the near field): {:.3} s; later rungs (reuse it): {:.3} s mean",
        p2_times[0].as_secs_f64(),
        later.iter().sum::<Duration>().as_secs_f64() / later.len() as f64
    );

    // ---- library behaviour: full re-inspection per accuracy ----------------
    let mut full_total = Duration::ZERO;
    let mut mismatched = Vec::new();
    for (&bacc, image) in baccs.iter().zip(&images) {
        let t0 = Instant::now();
        let h = inspector(&points, &kernel, &params.with_bacc(bacc)).expect("inspector");
        let _y = h.matmul(&w).expect("matmul");
        full_total += t0.elapsed();
        if to_bytes(&h) != *image {
            mismatched.push(bacc);
        }
    }

    println!(
        "\ntotal with inspector-p1 reuse : {:.3} s",
        reuse_total.as_secs_f64()
    );
    println!(
        "total with full re-inspection : {:.3} s",
        full_total.as_secs_f64()
    );
    println!(
        "reuse speedup over {} accuracy changes: {:.2}x",
        baccs.len(),
        full_total.as_secs_f64() / reuse_total.as_secs_f64()
    );
    if mismatched.is_empty() {
        println!("every reused model's image equals the full inspection's");
        ExitCode::SUCCESS
    } else {
        eprintln!("reused model's image differs from the full inspection's at bacc {mismatched:?}");
        ExitCode::FAILURE
    }
}
