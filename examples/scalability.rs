//! Strong-scaling sweep of the MatRox executor (Figure 7 style).
//!
//! Runs the same HMatrix-matrix multiplication on 1, 2, 4, ... threads using
//! dedicated rayon pools and reports the speedup over the single-thread run,
//! alongside the GOFMM-style baseline for comparison.
//!
//! ```bash
//! cargo run --release --example scalability [dataset] [n] [q]
//! ```

use matrox::baselines::GofmmEvaluator;
use matrox::compress::{compress, CompressionParams};
use matrox::sampling::{sample_nodes, SamplingParams};
use matrox::tree::{ClusterTree, HTree};
use matrox::{generate, inspector, DatasetId, ExecOptions, Kernel, MatRoxParams, Matrix};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset = args
        .get(1)
        .and_then(|s| DatasetId::from_name(s))
        .unwrap_or(DatasetId::Covtype);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let q: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(256);

    let points = generate(dataset, n, 0);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let max_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);

    println!(
        "strong scaling on {} (N = {n}, d = {}, Q = {q}), up to {max_threads} threads\n",
        dataset.name(),
        points.dim()
    );

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    let w = Matrix::random_uniform(n, q, &mut rng);

    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= max_threads {
        threads.push(threads.last().unwrap() * 2);
    }
    if *threads.last().unwrap() != max_threads {
        threads.push(max_threads);
    }

    println!(
        "{:>8}  {:>12}  {:>10}  {:>12}  {:>10}",
        "threads", "MatRox (s)", "speedup", "GOFMM (s)", "speedup"
    );
    let mut matrox_t1 = 0.0;
    let mut gofmm_t1 = 0.0;
    for &nt in &threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(nt)
            .build()
            .unwrap();
        let (t_matrox, t_gofmm) = pool.install(|| {
            // Inspector inside the pool so `p` matches the thread count.
            let params = MatRoxParams::h2b().with_partitions(nt);
            let h = inspector(&points, &kernel, &params).expect("inspector");
            let opts = if nt == 1 {
                ExecOptions::sequential()
            } else {
                ExecOptions::from_plan(&h.plan)
            };
            let t0 = Instant::now();
            let _ = h.matmul_with(&w, &opts).expect("matmul");
            let t_matrox = t0.elapsed().as_secs_f64();

            let tree = ClusterTree::build(&points, params.partition, params.leaf_size, params.seed);
            let htree = HTree::build(&tree, params.structure);
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
            let t0 = Instant::now();
            let _ = if nt == 1 {
                gofmm.evaluate_sequential(&w)
            } else {
                gofmm.evaluate(&w)
            };
            (t_matrox, t0.elapsed().as_secs_f64())
        });
        if nt == 1 {
            matrox_t1 = t_matrox;
            gofmm_t1 = t_gofmm;
        }
        println!(
            "{nt:>8}  {t_matrox:>12.3}  {:>10.2}  {t_gofmm:>12.3}  {:>10.2}",
            matrox_t1 / t_matrox,
            gofmm_t1 / t_gofmm
        );
    }
}
