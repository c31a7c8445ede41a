//! Compare the MatRox executor against the GOFMM-, STRUMPACK- and
//! SMASH-style baselines on one dataset.
//!
//! All evaluators run over the same compression output and the same GEMM
//! kernels, so the differences come from data layout (CDS vs tree-based),
//! loop structure (blocked/coarsened vs reduction/level-by-level) and
//! scheduling — the effects the paper's Figure 5 isolates.  The indented
//! rows under the MatRox line are that figure's ablation: the same CDS with
//! each lowering switched on in turn.
//!
//! ```bash
//! cargo run --release --example compare_baselines [dataset] [n] [q]
//! ```

use matrox::baselines::{DenseBaseline, GofmmEvaluator, SmashEvaluator, StrumpackEvaluator};
use matrox::compress::{compress, CompressionParams};
use matrox::linalg::relative_error;
use matrox::sampling::{sample_nodes, SamplingParams};
use matrox::tree::{ClusterTree, HTree};
use matrox::{
    generate, inspector, DatasetId, ExecOptions, Kernel, MatRoxParams, Matrix, Structure,
};
use std::time::Instant;

fn time<F: FnMut() -> Matrix>(mut f: F, reps: usize) -> (Matrix, f64) {
    let mut best = f64::INFINITY;
    let mut out = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset = args
        .get(1)
        .and_then(|s| DatasetId::from_name(s))
        .unwrap_or(DatasetId::Grid);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let q: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(512);

    let points = generate(dataset, n, 0);
    let kernel = if dataset.is_scientific() {
        Kernel::smash_default()
    } else {
        Kernel::Gaussian { bandwidth: 5.0 }
    };
    let structure = Structure::h2b();
    println!(
        "dataset = {} (N = {n}, d = {}), structure = {}, Q = {q}\n",
        dataset.name(),
        points.dim(),
        structure.name()
    );

    // MatRox pipeline.
    let params = MatRoxParams {
        structure,
        ..MatRoxParams::default()
    };
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let w = Matrix::random_uniform(n, q, &mut rng);
    let (y_matrox, t_matrox) = time(|| h.matmul(&w).expect("matmul"), 2);
    let gflops = |secs: f64| h.flops(q) as f64 / secs / 1e9;
    println!(
        "{:<28} {:>9.3} s  {:>8.1} GFLOP/s",
        "MatRox (CDS + generated code)",
        t_matrox,
        gflops(t_matrox)
    );
    // Cumulative like the paper's bars.  For HSS code generation never
    // activates block lowering, so "+ block" ~= "+ coarsen" there.
    let seq = ExecOptions::sequential();
    let mut coarsen = seq;
    coarsen.lowering.coarsen_tree = true;
    let mut block = coarsen;
    (block.lowering.block_near, block.lowering.block_far) = (true, true);
    for (label, opts) in [
        ("  CDS (seq)", seq),
        ("  + coarsen", coarsen),
        ("  + block", block),
        ("  + low-level (all on)", ExecOptions::full()),
    ] {
        let (_, t) = time(|| h.matmul_with(&w, &opts).expect("matmul"), 1);
        println!("{label:<28} {t:>9.3} s  {:>8.1} GFLOP/s", gflops(t));
    }

    // Shared compression for the baselines (tree-based storage).
    let tree = ClusterTree::build(&points, params.partition, params.leaf_size, params.seed);
    let htree = HTree::build(&tree, structure);
    let sampling = sample_nodes(&points, &tree, &kernel, &SamplingParams::default());
    let c = compress(
        &points,
        &tree,
        &htree,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: params.bacc,
            max_rank: params.max_rank,
            grain: 0,
        },
    );

    let gofmm = GofmmEvaluator::new(&tree, &htree, &c);
    let (y_gofmm, t_gofmm) = time(|| gofmm.evaluate(&w), 2);
    println!(
        "{:<28} {:>9.3} s  {:>8.1} GFLOP/s   (MatRox speedup {:.2}x)",
        "GOFMM-style (TB + DS)",
        t_gofmm,
        gflops(t_gofmm),
        t_gofmm / t_matrox
    );
    println!(
        "  agreement with MatRox: {:.2e}",
        relative_error(&y_gofmm, &y_matrox)
    );

    // STRUMPACK only supports HSS; build a second, HSS compression for it.
    let htree_hss = HTree::build(&tree, Structure::Hss);
    let c_hss = compress(
        &points,
        &tree,
        &htree_hss,
        &kernel,
        &sampling,
        &CompressionParams {
            bacc: params.bacc,
            max_rank: params.max_rank,
            grain: 0,
        },
    );
    let strumpack = StrumpackEvaluator::new(&tree, &htree_hss, &c_hss).expect("HSS");
    let (_y_s, t_strumpack) = time(|| strumpack.evaluate(&w), 2);
    println!(
        "{:<28} {:>9.3} s   (HSS structure; level-by-level with barriers)",
        "STRUMPACK-style (TB + DS)", t_strumpack
    );

    // SMASH: matvec only, low dimensions only.
    match SmashEvaluator::new(&tree, &htree, &c, points.dim()) {
        Ok(smash) => {
            let wv: Vec<f64> = (0..n).map(|i| w.get(i, 0)).collect();
            let t0 = Instant::now();
            let _y = smash.evaluate(&wv);
            println!(
                "{:<28} {:>9.3} s   (matrix-vector only, Q = 1)",
                "SMASH-style (level-by-level)",
                t0.elapsed().as_secs_f64()
            );
        }
        Err(e) => println!("{:<28} skipped: {e}", "SMASH-style (level-by-level)"),
    }

    // Dense GEMM comparator (implicit K, parallel).
    let dense = DenseBaseline::new(&points, kernel);
    let t0 = Instant::now();
    let y_dense = dense.evaluate_implicit(&w);
    let t_dense = t0.elapsed().as_secs_f64();
    println!(
        "{:<28} {:>9.3} s   (un-approximated, MatRox speedup {:.1}x)",
        "dense GEMM (K * W)",
        t_dense,
        t_dense / t_matrox
    );
    println!(
        "\noverall accuracy of MatRox vs dense product: {:.2e}",
        relative_error(&y_matrox, &y_dense)
    );
}
