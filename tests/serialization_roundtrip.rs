//! Integration coverage for HMatrix serialization (`io::{to_bytes,
//! from_bytes, save, load}`) across all three hierarchical structures the
//! inspector can produce: HSS, H²-b, and the geometric (tau-based) H².
//!
//! For each structure the round-trip must (a) succeed, (b) preserve the
//! executor's output to machine precision, (c) preserve the structural
//! metadata, and (d) be byte-stable (serialize → deserialize → serialize
//! yields identical bytes).

use matrox::analysis::{Cds, CdsBlockEntry};
use matrox::core::io::{
    from_bytes, from_bytes_factored, load, load_factored, save, save_factored, to_bytes,
    to_bytes_factored,
};
use matrox::core::KernelDispatch;
use matrox::linalg::relative_error;
use matrox::{
    generate, inspector, DatasetId, FactoredHMatrix, HMatrix, Kernel, MatRoxParams, Matrix,
    PointSet, Structure,
};
use rand::SeedableRng;

const N: usize = 384;

fn build(structure: Structure) -> (PointSet, HMatrix) {
    let pts = generate(DatasetId::Grid, N, 17);
    let kernel = Kernel::Gaussian { bandwidth: 2.0 };
    let params = MatRoxParams {
        structure,
        bacc: 1e-6,
        ..MatRoxParams::default()
    }
    .with_leaf_size(32);
    let h = inspector(&pts, &kernel, &params).expect("inspector");
    (pts, h)
}

fn all_structures() -> [Structure; 3] {
    [
        Structure::Hss,
        Structure::h2b(),
        Structure::Geometric { tau: 0.7 },
    ]
}

#[test]
fn roundtrip_preserves_evaluation_on_all_structures() {
    for structure in all_structures() {
        let (pts, h) = build(structure);
        let h2 = from_bytes(to_bytes(&h))
            .unwrap_or_else(|e| panic!("{}: deserialize failed: {e:?}", structure.name()));

        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let w = Matrix::random_uniform(pts.len(), 4, &mut rng);
        let err = relative_error(
            &h2.matmul(&w).expect("matmul"),
            &h.matmul(&w).expect("matmul"),
        );
        assert!(
            err < 1e-14,
            "{}: round-tripped evaluation differs (err = {err})",
            structure.name()
        );

        assert_eq!(h2.structure, h.structure, "{}", structure.name());
        assert_eq!(h2.bacc, h.bacc, "{}", structure.name());
        assert_eq!(h2.dim(), h.dim(), "{}", structure.name());
    }
}

#[test]
fn roundtrip_is_byte_stable_on_all_structures() {
    for structure in all_structures() {
        let (_, h) = build(structure);
        let bytes = to_bytes(&h);
        let h2 = from_bytes(&bytes).expect("deserialize");
        assert_eq!(
            to_bytes(&h2),
            bytes,
            "{}: serialize(deserialize(b)) != b",
            structure.name()
        );
    }
}

#[test]
fn file_roundtrip_on_all_structures() {
    let dir = std::env::temp_dir().join("matrox_serialization_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, structure) in all_structures().into_iter().enumerate() {
        let (pts, h) = build(structure);
        let path = dir.join(format!("hmat_{i}.cds"));
        save(&h, &path).unwrap();
        let loaded = load(&path).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let w = Matrix::random_uniform(pts.len(), 2, &mut rng);
        assert!(
            relative_error(
                &loaded.matmul(&w).expect("matmul"),
                &h.matmul(&w).expect("matmul")
            ) < 1e-14,
            "{}: file round-trip changed the evaluation",
            structure.name()
        );
        std::fs::remove_file(&path).ok();
    }
}

/// An HSS compression of a well-conditioned SPD Gaussian kernel (bandwidth
/// at the grid spacing), factored with the ULV subsystem.
fn build_factored() -> (PointSet, FactoredHMatrix) {
    let pts = generate(DatasetId::Grid, N, 17);
    let spacing = 1.0 / (N as f64).sqrt();
    let kernel = Kernel::Gaussian { bandwidth: spacing };
    let params = MatRoxParams::hss().with_bacc(1e-7).with_leaf_size(32);
    let h = inspector(&pts, &kernel, &params).expect("inspector");
    let fh = h.factorize().expect("HSS SPD kernel matrix must factor");
    (pts, fh)
}

#[test]
fn factored_roundtrip_preserves_solutions_bitwise() {
    let (pts, fh) = build_factored();
    let fh2 = from_bytes_factored(to_bytes_factored(&fh)).expect("deserialize factored");

    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let b = Matrix::random_uniform(pts.len(), 4, &mut rng);
    // The solve after reload must be bitwise identical: serialization stores
    // every factor value exactly (little-endian f64), and the sweeps are
    // deterministic.
    assert_eq!(
        fh.solve_matrix(&b).expect("solve").as_slice(),
        fh2.solve_matrix(&b).expect("solve").as_slice(),
        "reloaded factorization changed the solution"
    );
    // The embedded HMatrix must round-trip too (evaluation unchanged).
    let w = Matrix::random_uniform(pts.len(), 2, &mut rng);
    assert!(
        relative_error(
            &fh2.hmatrix.matmul(&w).expect("matmul"),
            &fh.hmatrix.matmul(&w).expect("matmul")
        ) < 1e-14
    );
}

#[test]
fn factored_roundtrip_is_byte_stable() {
    let (_, fh) = build_factored();
    let bytes = to_bytes_factored(&fh);
    let fh2 = from_bytes_factored(&bytes).expect("deserialize");
    assert_eq!(
        to_bytes_factored(&fh2),
        bytes,
        "serialize(deserialize(b)) != b for the factored format"
    );
}

#[test]
fn factored_file_roundtrip_solves_after_reload() {
    let (pts, fh) = build_factored();
    let dir = std::env::temp_dir().join("matrox_serialization_roundtrip_factored");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hmat.ulv");
    save_factored(&fh, &path).unwrap();
    let loaded = load_factored(&path).unwrap();
    let b: Vec<f64> = (0..pts.len())
        .map(|i| ((i % 13) as f64 - 6.0) * 0.5)
        .collect();
    assert_eq!(
        loaded.solve(&b).expect("solve"),
        fh.solve(&b).expect("solve"),
        "solution after file reload is not bitwise equal"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_factored_payload_is_an_error_not_a_panic() {
    let (_, fh) = build_factored();
    let bytes = to_bytes_factored(&fh);
    for keep in [9, bytes.len() / 2, bytes.len() - 8] {
        let result = std::panic::catch_unwind(|| from_bytes_factored(&bytes[..keep]));
        match result {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("truncated factored payload deserialized successfully"),
            Err(_) => panic!("truncated factored payload panicked instead of erroring"),
        }
    }
}

#[test]
fn truncated_payload_is_an_error_not_a_panic() {
    let (_, h) = build(Structure::Hss);
    let bytes = to_bytes(&h);
    // Keep the magic header but drop the tail: must surface as Err, and the
    // error must be reported before any panic-prone buffer read.
    let result = std::panic::catch_unwind(|| from_bytes(&bytes[..bytes.len() / 2]));
    match result {
        Ok(Err(_)) => {}
        Ok(Ok(_)) => panic!("truncated payload deserialized successfully"),
        Err(_) => panic!("truncated payload caused a panic instead of an error"),
    }
}

/// 64-bit FNV-1a, to pin an image without committing it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed tiny model the pins below record (the one `corruption_fuzz.rs`
/// sweeps).
fn pinned_model() -> HMatrix {
    let points = generate(DatasetId::Grid, 32, 0);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.125,
        ridge: 8.0,
    };
    let params = MatRoxParams::hss().with_bacc(1e-3).with_leaf_size(8);
    inspector(&points, &kernel, &params).expect("inspector")
}

/// FNV-1a over the bit patterns of a run of `f64` slices.
fn fnv1a_values<'a>(runs: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let bytes: Vec<u8> = runs
        .into_iter()
        .flatten()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// The logical `rows x cols` block of entry `e` in `values`, row-major: its
/// window, or the transpose of its twin's window when `e.transposed`.
fn logical_block(values: &[f64], e: &CdsBlockEntry) -> Vec<f64> {
    let window = &values[e.offset..e.offset + e.rows * e.cols];
    if !e.transposed {
        return window.to_vec();
    }
    (0..e.rows * e.cols)
        .map(|at| window[(at % e.cols) * e.rows + at / e.cols])
        .collect()
}

/// FNV-1a over what a CDS *means*, not how it lays it out: the `V` window
/// of every stored node in node-id order, then every near block in entry
/// order, then every coupling block in entry order.
fn logical_payload_hash(cds: &Cds) -> u64 {
    let windows = (0..cds.generators.len()).map(|id| cds.v(id).0.to_vec());
    let near = cds
        .d_entries
        .iter()
        .map(|e| logical_block(&cds.d_values, e));
    let far = cds
        .b_entries
        .iter()
        .map(|e| logical_block(&cds.b_values, e));
    let blocks: Vec<Vec<f64>> = windows.chain(near).chain(far).collect();
    fnv1a_values(blocks.iter().map(Vec::as_slice))
}

/// What a model *stores* is pinned apart from how the image frames it, so a
/// format bump re-records the image pins below and leaves these alone: the
/// logical CDS payload ([`logical_payload_hash`]); and the factor's `inv` /
/// `map` payload (one constant per kernel family, as for the
/// factored image).
#[test]
fn payload_values_are_pinned() {
    let h = pinned_model();
    assert_eq!(
        logical_payload_hash(&h.plan.cds),
        0x20d7_1737_6641_ab5f,
        "model payload hash"
    );

    let f = h.factorize().expect("factorize").factor;
    // Leaves first, then merges, each in node order.
    let (leaves, merges): (Vec<usize>, Vec<usize>) =
        (0..f.nodes.len()).partition(|&id| h.tree.nodes[id].is_leaf());
    let factor = (leaves.iter().chain(&merges))
        .flat_map(|&id| [f.nodes[id].inv.as_slice(), f.nodes[id].map.as_slice()]);
    let pinned: u64 = if KernelDispatch::global().is_simd() {
        0x644b_4dfa_c1bf_e04a
    } else {
        0x5ce7_3380_e56b_07ae
    };
    assert_eq!(fnv1a_values(factor), pinned, "factor payload hash");
}

/// The H²-b sibling of [`payload_values_are_pinned`]: a small Covtype
/// model whose off-diagonal near blocks come in twin pairs, so the near
/// table's logical payload is pinned too.
#[test]
fn h2b_payload_values_are_pinned() {
    let points = generate(DatasetId::Covtype, 512, 3);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
    let h = inspector(&points, &kernel, &params).expect("inspector");
    let cds = &h.plan.cds;
    assert!(
        cds.d_entries.iter().any(|e| e.target != e.source),
        "the model must store off-diagonal near blocks"
    );
    assert_eq!(
        logical_payload_hash(cds),
        0x1ab6_7051_a375_c9b4,
        "H2-b model payload hash"
    );
}

/// What a model *serves* is pinned across commits, as its payload is:
/// `matmul` of the H²-b model (twin near blocks, read transposed) and of
/// [`pinned_model`] (HSS) at one and at seven columns, and
/// [`pinned_model`]'s `solve_matrix` at seven.  One constant per kernel
/// family: the two SIMD arms share one chain, the scalar arm has its own.
/// The walls inside the executor and the solver compare variants within one
/// build; this is what holds a rewrite of either to the bits it replaced.
#[test]
fn served_values_are_pinned() {
    let rhs = |n: usize, q: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        Matrix::random_uniform(n, q, &mut rng)
    };
    // The model of `h2b_payload_values_are_pinned`.
    let points = generate(DatasetId::Covtype, 512, 3);
    let kernel = Kernel::Gaussian { bandwidth: 5.0 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
    let h2b = inspector(&points, &kernel, &params).expect("inspector");
    let hss = pinned_model();
    let mut served = Vec::new();
    for h in [&h2b, &hss] {
        for q in [1, 7] {
            served.push(h.matmul(&rhs(h.dim(), q)).expect("matmul"));
        }
    }
    let factored = hss.factorize().expect("factorize");
    served.push(factored.solve_matrix(&rhs(hss.dim(), 7)).expect("solve"));
    let pinned: u64 = if KernelDispatch::global().is_simd() {
        0x2504_d489_5fc3_2948
    } else {
        0x9404_ee13_8c6e_2291
    };
    assert_eq!(
        fnv1a_values(served.iter().map(Matrix::as_slice)),
        pinned,
        "served values hash"
    );
}

/// The byte formats are frozen: the images of [`pinned_model`] keep the
/// length and hash recorded when the `MATROX2` block entries gained their
/// flag byte and twin pairs their single window, and when `MATROXF3` came to
/// store the inverses `D_i^{-1}` / `M_p^{-1}` in place of the Cholesky and LU
/// factors.
/// The inspector is bitwise deterministic across pool widths and kernels;
/// the ULV factors are not across kernels (the SIMD microkernel fuses
/// multiply-adds), so the factored image has one recorded hash per kernel
/// family.
#[test]
fn image_bytes_of_a_fixed_model_are_pinned() {
    let h = pinned_model();

    let plain = to_bytes(&h);
    assert_eq!(plain.len(), 9455, "MATROX2 image length");
    assert_eq!(fnv1a(&plain), 0x7119_33a2_252d_7c72, "MATROX2 image hash");

    let factored = to_bytes_factored(&h.factorize().expect("factorize"));
    assert_eq!(factored.len(), 22189, "MATROXF3 image length");
    let pinned: u64 = if KernelDispatch::global().is_simd() {
        0xd877_8051_9e25_ea96
    } else {
        0x4321_2e14_2833_ea50
    };
    assert_eq!(fnv1a(&factored), pinned, "MATROXF3 image hash");
}
