//! Corruption fuzz: the hardened model readers must survive *any*
//! single-byte corruption of a saved model.
//!
//! For every byte position of a small `MATROX1` and `MATROXF1` stream (and
//! several XOR masks per byte, covering low-bit value perturbations and
//! structural byte rewrites), the corrupted stream must either
//!
//! * be rejected with an `Err` (never a panic), or
//! * parse into a model whose re-encoding is bitwise identical to the
//!   corrupted stream (the flip landed in a value payload and the parse is
//!   lossless — nothing is silently normalized or truncated);
//!
//! and the parser must never allocate more than 16 MiB in a single request,
//! no matter what the corrupted length fields claim — the
//! remaining-bytes-capped `Vec::with_capacity` hardening, pinned with the
//! shared allocation probe (`support/alloc_probe.rs`), which also owns the
//! sweep itself; the protocol sweep (`crates/serve/tests/proto_fuzz.rs`)
//! runs the same one over `MATROXS1`.

use matrox_core::{
    from_bytes, from_bytes_factored, inspector, to_bytes, to_bytes_factored, MatRoxParams,
};
use matrox_points::{generate, DatasetId, Kernel};

#[path = "support/alloc_probe.rs"]
mod alloc_probe;
use alloc_probe::fuzz_single_byte_flips;

#[test]
fn every_single_byte_corruption_is_rejected_or_lossless() {
    // Small on purpose: the sweep parses the stream 3x per byte, and the
    // parse cost itself scales with the stream, so the sweep is ~quadratic.
    let points = generate(DatasetId::Grid, 32, 0);
    let kernel = Kernel::GaussianRidge {
        bandwidth: 0.125,
        ridge: 8.0,
    };
    let params = MatRoxParams::hss().with_bacc(1e-3).with_leaf_size(8);
    let h = inspector(&points, &kernel, &params).expect("inspector");

    fuzz_single_byte_flips("MATROX1", &to_bytes(&h), &|data| {
        from_bytes(data).ok().map(|h| to_bytes(&h))
    });

    let factored = to_bytes_factored(&h.factorize().expect("factorize"));
    fuzz_single_byte_flips("MATROXF1", &factored, &|data| {
        from_bytes_factored(data)
            .ok()
            .map(|fh| to_bytes_factored(&fh))
    });
}
