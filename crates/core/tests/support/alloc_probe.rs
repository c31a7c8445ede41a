//! Dev-only allocation probe, `#[path]`-included by the test binaries that
//! pin allocation behaviour: the executor's allocation-free panel loop
//! (`crates/exec/tests/alloc_free.rs`), the solver's fixed allocation count
//! (`crates/factor/tests/alloc_free.rs`) and the two corruption sweeps
//! (`tests/corruption_fuzz.rs` at the root, `crates/serve/tests/
//! proto_fuzz.rs`).  Including this file installs the probe as the binary's
//! global allocator.
//!
//! The counters are process-global on purpose: pool workers allocate on
//! other threads and must be seen.  What keeps readings apart is
//! [`measure`], which holds one process-wide lock while it runs, so two
//! measurements in a test binary never overlap even though libtest runs
//! tests concurrently.
#![allow(dead_code, reason = "each including binary uses its own subset")]
#![expect(
    unsafe_code,
    reason = "the workspace's one counting GlobalAlloc (dev-only): a pure pass-through to System plus two Relaxed counters (DESIGN.md unsafe inventory)"
)]
#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: two Relaxed statistics — allocations are counted and the largest request tracked, never ordered.  They are reset and read only by `measure`, whose lock excludes every other reader; a reading is taken after the measured closure (and any pool job it joined) has returned"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// System allocator wrapped with an allocation counter and a high-water
/// mark of the largest single request (what an uncapped
/// `Vec::with_capacity(attacker_len)` would trip).
struct ProbeAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static MAX_REQUEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    MAX_REQUEST.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` plus two counter updates — every
// GlobalAlloc obligation (layout fitting, no unwinding, pointer validity)
// is discharged by `System` itself.
unsafe impl GlobalAlloc for ProbeAlloc {
    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarding the caller's layout contract verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarding the caller's layout contract verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarding the caller's pointer/layout contract verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's pointer/layout contract verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: ProbeAlloc = ProbeAlloc;

/// What the whole process allocated while a [`measure`]d closure ran.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Allocation calls (alloc, alloc_zeroed, realloc), on any thread.
    pub allocs: u64,
    /// Largest single request in bytes.
    pub max_request: usize,
}

static MEASURING: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread is inside a `measure` (and so holds `MEASURING`).
    static MEASURES: Cell<bool> = const { Cell::new(false) };
}

/// The outermost `measure` of a thread: holds the lock, and on the way out
/// (return or unwind) lets the thread take it again.
struct Outermost(MutexGuard<'static, ()>);

impl Drop for Outermost {
    fn drop(&mut self) {
        MEASURES.set(false);
    }
}

/// Run `f` with the process-wide measurement lock held and report what was
/// allocated meanwhile.  Calls nest on one thread: a test whose set-up must
/// not leak into another test's reading wraps its whole body in an outer
/// `measure` and takes its readings with inner ones.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Reading) {
    // The lock guards `()`: a panic under it (a failed assertion in some
    // test) leaves nothing half-updated, so a poisoned lock is taken as is.
    let _outermost = (!MEASURES.replace(true))
        .then(|| Outermost(MEASURING.lock().unwrap_or_else(PoisonError::into_inner)));
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let max_outside = MAX_REQUEST.swap(0, Ordering::Relaxed);
    let value = f();
    let reading = Reading {
        allocs: ALLOCS.load(Ordering::Relaxed) - allocs_before,
        // An enclosing `measure` must still see its own earlier maximum.
        max_request: MAX_REQUEST.fetch_max(max_outside, Ordering::Relaxed),
    };
    (value, reading)
}

/// Largest single allocation request a decode of adversarial bytes may make.
const ALLOC_CAP: usize = 16 * 1024 * 1024;

/// XOR masks swept per byte: low-bit (perturbs values in place), high-bit
/// (sign/tag flips), and full-byte inversion (structural rewrites, length
/// explosions).
const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// Byte positions between two flipped ones: every byte in release builds;
/// every seventh in debug builds, which are an order of magnitude slower.
/// Seven is coprime to 8, so the strided sweep still flips every byte lane
/// of the streams' `u64` fields.
const STRIDE: usize = if cfg!(debug_assertions) { 7 } else { 1 };

/// One decode attempt under the probe (`decode` may go on to use what it
/// accepted): it must not panic and must not ask the allocator for more
/// than [`ALLOC_CAP`] in one request.
fn decode_guarded(
    stream: &[u8],
    decode: &dyn Fn(&[u8]) -> Option<Vec<u8>>,
    what: &dyn Fn() -> String,
) -> Option<Vec<u8>> {
    let (result, reading) = measure(|| catch_unwind(AssertUnwindSafe(|| decode(stream))));
    let reencoded = result.unwrap_or_else(|_| panic!("decoding or using {} panicked", what()));
    assert!(
        reading.max_request <= ALLOC_CAP,
        "decoding {} allocated {} bytes in one request (cap {ALLOC_CAP})",
        what(),
        reading.max_request
    );
    reencoded
}

/// The corruption-fuzz property over one encoded stream.  `decode` returns
/// the re-encoding of what it accepted, `None` for a rejection.  The
/// pristine stream must re-encode bitwise; every single-byte XOR of it (at
/// every [`STRIDE`]-th position) must be rejected or re-encode to exactly the corrupted bytes (the flip landed
/// in a value payload and the decode is lossless) — with no panic and no
/// request above [`ALLOC_CAP`], whatever the corrupted length fields claim.
pub fn fuzz_single_byte_flips(
    label: &str,
    bytes: &[u8],
    decode: &dyn Fn(&[u8]) -> Option<Vec<u8>>,
) {
    let clean = decode_guarded(bytes, decode, &|| format!("pristine {label}"))
        .unwrap_or_else(|| panic!("pristine {label} must decode"));
    assert_eq!(
        clean, bytes,
        "pristine {label} re-encode must be bitwise identical"
    );

    let (mut accepted, mut tried) = (0usize, 0usize);
    let mut corrupted = bytes.to_vec();
    for pos in (0..corrupted.len()).step_by(STRIDE) {
        for mask in MASKS {
            tried += 1;
            corrupted[pos] ^= mask;
            let what = || format!("{label} with byte {pos} ^ {mask:#04x}");
            if let Some(reencoded) = decode_guarded(&corrupted, decode, &what) {
                accepted += 1;
                assert_eq!(
                    reencoded,
                    corrupted,
                    "accepted a corrupted stream without representing it losslessly: {}",
                    what()
                );
            }
            corrupted[pos] ^= mask; // restore
        }
    }
    assert_eq!(corrupted, bytes, "sweep must restore the stream");
    // Sanity on the sweep itself: structural rewrites (magic, tags, counts,
    // lengths) must actually be rejected somewhere — if nothing ever was,
    // the masks or the stream are too small to mean anything.
    assert!(
        accepted < tried,
        "{label}: every corruption was accepted; the validators are not running"
    );
}
