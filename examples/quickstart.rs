//! Quickstart: compress a kernel matrix and multiply it with a dense matrix.
//!
//! This mirrors the user code of Figure 2 in the paper: declare the inputs
//! (points, admissibility, kernel, accuracy), run the inspector to obtain the
//! HMatrix and the generated evaluation code, then run the executor.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use matrox::{generate, inspector, DatasetId, Kernel, MatRoxParams, Matrix};
use std::time::Instant;

fn main() {
    // ---- inputs (Figure 2, inspector side) --------------------------------
    let n = 4096;
    let points = generate(DatasetId::Covtype, n, 0);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b() // GOFMM budget 0.03 structure ("H2-b")
        .with_bacc(1e-5)
        .with_leaf_size(64);

    println!("dataset: covtype-like, N = {n}, d = {}", points.dim());
    println!(
        "structure: {}, bacc = {:.0e}",
        params.structure.name(),
        params.bacc
    );

    // ---- inspector: compression + structure analysis + code generation ----
    let t0 = Instant::now();
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let inspect_time = t0.elapsed();
    let t = &h.timings;
    println!("\ninspector: {:.3} s", inspect_time.as_secs_f64());
    println!(
        "  compression        {:.3} s",
        t.compression().as_secs_f64()
    );
    println!(
        "  structure analysis {:.3} s",
        t.structure_analysis().as_secs_f64()
    );
    println!("  code generation    {:.3} s", t.codegen.as_secs_f64());
    println!(
        "  compression ratio  {:.1}x vs dense",
        h.compression_ratio()
    );

    // ---- executor: Y = K~ * W ---------------------------------------------
    let q = 256;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let w = Matrix::random_uniform(n, q, &mut rng);
    let t0 = Instant::now();
    let y = h.matmul(&w).expect("matmul");
    let eval_time = t0.elapsed();
    let gflops = h.flops(q) as f64 / eval_time.as_secs_f64() / 1e9;
    println!(
        "\nexecutor: Q = {q}, {:.3} s ({gflops:.1} GFLOP/s)",
        eval_time.as_secs_f64()
    );
    println!("  Y shape = {:?}", y.shape());

    // ---- accuracy check against the exact product -------------------------
    let wq = Matrix::random_uniform(n, 8, &mut rng);
    let acc = h.overall_accuracy(&points, &wq).expect("accuracy probe");
    println!(
        "\noverall accuracy eps_f = {acc:.2e} (bacc = {:.0e})",
        h.bacc
    );
}
