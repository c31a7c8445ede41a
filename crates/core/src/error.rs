//! The unified error taxonomy of the public MatRox API.
//!
//! Every fallible public entry point in this crate — the inspector,
//! [`HMatrix`](crate::HMatrix) evaluation and factorization,
//! [`EvalSession`](crate::EvalSession) queries, and the model (de)serializers
//! — returns [`MatroxError`].  The taxonomy encodes the fault-tolerance
//! contract "a request can fail; the process cannot":
//!
//! * **request failures** come back as `Err` (bad input, corrupt file,
//!   numerical breakdown, stale handle);
//! * **internal invariant violations** still panic, but one boundary
//!   (`contain`, the crate's only `catch_unwind`) contains them for every
//!   evaluate and solve entry point and for each inspector phase, and
//!   surfaces [`MatroxError::PoolPanic`] so a poisoned evaluation cannot
//!   take down a serving process;
//! * nothing in this crate aborts.
//!
//! Every evaluate and solve runs through `guard`: screen the right-hand
//! side (row count, NaN/Inf), run the work inside `contain`, screen the
//! output (NaN/Inf become [`MatroxError::NumericalBreakdown`]).
//!
//! The granular lower-level errors ([`FactorError`],
//! [`NotPositiveDefinite`]) are absorbed via `From` impls so `?` composes
//! across the crate boundaries.

use matrox_factor::FactorError;
use matrox_linalg::{all_finite, Matrix, NotPositiveDefinite};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Render a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` inside the crate's one `catch_unwind` containment boundary: a
/// panic — including one raised on a pool worker — comes back as
/// [`MatroxError::PoolPanic`].  AssertUnwindSafe is sound because the
/// closures only read their inputs and any partially-built output is
/// dropped with the unwind.
pub(crate) fn contain<T>(f: impl FnOnce() -> Result<T, MatroxError>) -> Result<T, MatroxError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(MatroxError::PoolPanic(panic_message(payload))),
    }
}

/// Screen a right-hand side against the matrix dimension and NaN/Inf
/// poison, so invalid requests fail up front instead of propagating poison
/// through the sweeps.
fn screen_rhs(rows: usize, data: &[f64], n: usize, what: &str) -> Result<(), MatroxError> {
    if rows != n {
        return Err(MatroxError::InvalidInput(format!(
            "{what} has {rows} rows but the matrix dimension is {n}"
        )));
    }
    if !all_finite(data) {
        return Err(MatroxError::InvalidInput(format!(
            "{what} contains NaN or infinite entries"
        )));
    }
    Ok(())
}

/// The evaluation boundary every evaluate and solve entry point runs
/// through: screen the `what` right-hand side `rhs` against dimension `n`
/// ([`MatroxError::InvalidInput`]), run `f` inside [`contain`]
/// ([`MatroxError::PoolPanic`]), and screen its output for NaN/Inf
/// ([`MatroxError::NumericalBreakdown`]).
pub(crate) fn guard(
    rhs: &Matrix,
    n: usize,
    what: &str,
    f: impl FnOnce() -> Result<Matrix, MatroxError>,
) -> Result<Matrix, MatroxError> {
    screen_rhs(rhs.rows(), rhs.as_slice(), n, what)?;
    let out = contain(f)?;
    if !all_finite(out.as_slice()) {
        return Err(MatroxError::NumericalBreakdown(
            "evaluation produced NaN or infinite output".to_string(),
        ));
    }
    Ok(out)
}

/// Unified error type returned by every public MatRox entry point.
#[derive(Debug)]
pub enum MatroxError {
    /// Underlying I/O failure while reading or writing a model file.
    Io(std::io::Error),
    /// A model stream is malformed: truncated, corrupt, or internally
    /// inconsistent.  The hardened readers return this for adversarial
    /// input instead of panicking or over-allocating.
    Format(String),
    /// A numerical computation broke down (non-SPD leaf block after ridge
    /// escalation, singular merge system, non-finite values produced during
    /// evaluation).
    NumericalBreakdown(String),
    /// The caller's input is invalid for the request: NaN/Inf poison in a
    /// right-hand side or point set, empty point sets, non-positive
    /// accuracies, shape mismatches against the session.
    InvalidInput(String),
    /// A plan, tree, factor, or right-hand side does not belong to the
    /// object it was handed to (stale or mismatched handle).
    PlanMismatch(String),
    /// A worker job panicked inside the evaluation pool; the panic was
    /// contained at the evaluation boundary and the payload preserved here.
    PoolPanic(String),
    /// A serving front-end shed the request under load (admission caps hit,
    /// dispatch queue full, or latency budget expired while queued).  The
    /// request was never evaluated; retrying after backoff is safe.
    Overloaded(String),
}

impl std::fmt::Display for MatroxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatroxError::Io(e) => write!(f, "io error: {e}"),
            MatroxError::Format(m) => write!(f, "format error: {m}"),
            MatroxError::NumericalBreakdown(m) => write!(f, "numerical breakdown: {m}"),
            MatroxError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            MatroxError::PlanMismatch(m) => write!(f, "plan mismatch: {m}"),
            MatroxError::PoolPanic(m) => write!(f, "evaluation pool job panicked: {m}"),
            MatroxError::Overloaded(m) => write!(f, "overloaded: {m}"),
        }
    }
}

impl std::error::Error for MatroxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MatroxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MatroxError {
    fn from(e: std::io::Error) -> Self {
        MatroxError::Io(e)
    }
}

impl From<NotPositiveDefinite> for MatroxError {
    fn from(e: NotPositiveDefinite) -> Self {
        MatroxError::NumericalBreakdown(e.to_string())
    }
}

impl From<FactorError> for MatroxError {
    fn from(e: FactorError) -> Self {
        match e {
            // Structure and handle mismatches are the caller pairing the
            // wrong plan/tree/factor, not arithmetic failing.
            FactorError::UnsupportedStructure(_) | FactorError::PlanMismatch(_) => {
                MatroxError::PlanMismatch(e.to_string())
            }
            FactorError::NotPositiveDefinite { .. } | FactorError::SingularMerge { .. } => {
                MatroxError::NumericalBreakdown(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_errors_map_onto_the_taxonomy() {
        let e: MatroxError = FactorError::UnsupportedStructure("geometric".into()).into();
        assert!(matches!(e, MatroxError::PlanMismatch(_)));
        let e: MatroxError = FactorError::PlanMismatch("wrong tree".into()).into();
        assert!(matches!(e, MatroxError::PlanMismatch(_)));
        let e: MatroxError = FactorError::NotPositiveDefinite {
            node: 3,
            pivot: 1,
            value: -0.5,
        }
        .into();
        assert!(matches!(e, MatroxError::NumericalBreakdown(_)));
        let e: MatroxError = FactorError::SingularMerge { node: 7 }.into();
        assert!(matches!(e, MatroxError::NumericalBreakdown(_)));
    }

    #[test]
    fn filesystem_errors_keep_their_source() {
        let e: MatroxError = std::io::Error::other("disk gone").into();
        assert!(matches!(e, MatroxError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn breakdown_absorbs_cholesky_failures() {
        let e: MatroxError = NotPositiveDefinite {
            pivot: 4,
            value: f64::NAN,
        }
        .into();
        let msg = e.to_string();
        assert!(msg.contains("numerical breakdown"), "message: {msg}");
    }
}
