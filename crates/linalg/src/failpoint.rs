//! Deterministic fault-injection harness.
//!
//! A *failpoint* is a named site in the library where a fault can be forced
//! on demand: a Cholesky breakdown during factorization, a NaN poisoning the
//! evaluation output, a panic inside a pool job or a parallel compression
//! task, a truncated or byte-flipped model stream during `matrox_core::load`.
//! Production code paths call
//! [`should_fire`] at these sites; when the failpoint is armed the site
//! injects its fault, otherwise the call is a cheap hash-map miss behind a
//! short critical section.
//!
//! Failpoints are armed two ways:
//!
//! * the `MATROX_FAILPOINT` environment variable, read once on first use,
//!   with the format `name[=count][;name...]` — e.g.
//!   `MATROX_FAILPOINT=chol-breakdown=1;eval-poison` arms one forced
//!   Cholesky breakdown and an always-on evaluation poison.  An omitted
//!   count arms the failpoint permanently.  This is how the CI
//!   fault-injection leg drives whole-process tests.
//! * programmatically via [`set`] / [`clear`] / [`clear_all`] — this is what
//!   deterministic unit tests use.  Tests that arm failpoints share process
//!   globals, so they live in a dedicated integration-test binary and run
//!   single-threaded sites (see `crates/core/tests/failpoints.rs`).
//!
//! Every site fires a *bounded* number of times (the count decrements on
//! each fire and the entry disarms at zero), so recovery paths — e.g. the
//! ridge-escalation retry after a forced breakdown — are genuinely
//! exercised: the first attempt fails, the retry runs clean.
//!
//! The catalog of registered sites lives in the `names` module; DESIGN.md
//! documents what each one injects.

#![expect(
    clippy::disallowed_types,
    reason = "CONCURRENCY: the failpoint registry is process-global state shared by every thread that can hit an injection site (pool workers included), so it is guarded by a std Mutex; each critical section is a single HashMap operation, never held across an injected fault or any user code"
)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Registered failpoint names.  Arming any other name is allowed but has no
/// effect (no site checks it).
pub mod names {
    /// Forces the next `HMatrix::factorize` attempt to report a leaf
    /// Cholesky breakdown, exercising the ridge-escalation retry loop.
    pub const CHOL_BREAKDOWN: &str = "chol-breakdown";
    /// Overwrites one output element with NaN right before the evaluation
    /// output screen, exercising the `NumericalBreakdown` return.
    pub const EVAL_POISON: &str = "eval-poison";
    /// Panics inside a pool job during `EvalSession::evaluate`, exercising
    /// the `catch_unwind` containment boundary (`PoolPanic`).
    pub const EVAL_PANIC: &str = "eval-panic";
    /// Panics inside a parallel per-node low-rank compression task
    /// (`matrox_compress::compress`), exercising the inspector's
    /// `catch_unwind` containment boundary (`PoolPanic`): the panic must
    /// propagate off the worker and surface as an error, never hang the
    /// pool or poison later inspections.
    pub const COMPRESS_PANIC: &str = "compress-panic";
    /// Truncates the byte stream read by `load`/`load_factored` to half its
    /// length, exercising the hardened reader's truncation handling.
    pub const IO_TRUNCATE: &str = "io-truncate";
    /// XOR-flips one bit in the middle of the byte stream read by
    /// `load`/`load_factored`, exercising the corruption handling.
    pub const IO_FLIP: &str = "io-flip";
}

/// Fire this many times and disarm; used for names armed without `=count`.
const UNBOUNDED: u64 = u64::MAX;

static REGISTRY: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, u64>> {
    REGISTRY.get_or_init(|| {
        Mutex::new(parse(
            &std::env::var("MATROX_FAILPOINT").unwrap_or_default(),
        ))
    })
}

/// Lock the registry, recovering from poisoning: a panic injected *by* a
/// failpoint site must not disable the harness for the rest of the process.
fn lock() -> std::sync::MutexGuard<'static, HashMap<String, u64>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Parse the `MATROX_FAILPOINT` format: `name[=count][;name...]`.
/// Unparseable counts and empty segments are ignored rather than rejected —
/// a malformed knob must never take the process down.
fn parse(spec: &str) -> HashMap<String, u64> {
    let mut map = HashMap::new();
    for seg in spec.split(';') {
        let seg = seg.trim();
        if seg.is_empty() {
            continue;
        }
        match seg.split_once('=') {
            None => {
                map.insert(seg.to_string(), UNBOUNDED);
            }
            Some((name, count)) => {
                if let Ok(c) = count.trim().parse::<u64>() {
                    if c > 0 {
                        map.insert(name.trim().to_string(), c);
                    }
                }
            }
        }
    }
    map
}

/// True when the named failpoint is armed; decrements its remaining count
/// and disarms it at zero.  Injection sites call this exactly once per
/// potential fault.
pub fn should_fire(name: &str) -> bool {
    let mut reg = lock();
    match reg.get_mut(name) {
        None => false,
        Some(count) => {
            if *count != UNBOUNDED {
                *count -= 1;
                if *count == 0 {
                    reg.remove(name);
                }
            }
            true
        }
    }
}

/// Arm `name` to fire `count` times (0 disarms).  Programmatic twin of the
/// `MATROX_FAILPOINT` knob for deterministic tests.
pub fn set(name: &str, count: u64) {
    let mut reg = lock();
    if count == 0 {
        reg.remove(name);
    } else {
        reg.insert(name.to_string(), count);
    }
}

/// Disarm `name`.
pub fn clear(name: &str) {
    set(name, 0);
}

/// Disarm every failpoint (including ones armed via the environment).
pub fn clear_all() {
    lock().clear();
}

/// True when `name` is currently armed (does not consume a fire).
pub fn armed(name: &str) -> bool {
    lock().contains_key(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_counts_names_and_garbage() {
        let map = parse("chol-breakdown=2; eval-poison ;;bad=count;zero=0");
        assert_eq!(map.get("chol-breakdown"), Some(&2));
        assert_eq!(map.get("eval-poison"), Some(&UNBOUNDED));
        assert!(!map.contains_key("bad"));
        assert!(!map.contains_key("zero"));
        assert!(parse("").is_empty());
    }

    #[test]
    fn counted_failpoints_disarm_after_their_fires() {
        // A name no other test (or injection site) uses, so parallel test
        // threads cannot race on it.
        let name = "unit-test-counted-fp";
        set(name, 2);
        assert!(armed(name));
        assert!(should_fire(name));
        assert!(should_fire(name));
        assert!(!should_fire(name), "third check must find it disarmed");
        assert!(!armed(name));
    }

    #[test]
    fn clear_disarms_an_unbounded_failpoint() {
        let name = "unit-test-unbounded-fp";
        set(name, UNBOUNDED);
        assert!(should_fire(name));
        assert!(should_fire(name), "unbounded fires repeatedly");
        clear(name);
        assert!(!should_fire(name));
    }
}
