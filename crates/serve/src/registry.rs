//! The model registry: loaded models keyed by id, under a memory budget.
//!
//! A *model* is either a compressed operator prepared for matvec serving
//! (an [`EvalSession`], usually from a `MATROX2` model file) or a factored
//! operator prepared for solve serving (a [`FactoredHMatrix`], usually from
//! a `MATROXF3` file).  The registry tracks the CDS payload bytes each
//! resident model pins and evicts least-recently-used models once the
//! configured budget is exceeded — the MatRox storage format is exactly
//! what makes eviction cheap to undo: a path-backed model that is evicted
//! is transparently reloaded from disk on its next request.
//!
//! The registry itself is plain single-threaded state; the reactor thread
//! ([`crate::Server`]) owns it, which is what keeps the request path
//! lock-free.

use matrox_core::io::{load_model, ModelFile};
use matrox_core::{EvalSession, FactoredHMatrix, MatroxError, SessionStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A servable model: a shared evaluation session (matvec requests) or a
/// factored operator (solve requests).  Cloning is cheap (`Arc`).
#[derive(Debug, Clone)]
pub enum Model {
    /// Serves [`Op::Matvec`](crate::Op::Matvec) through a shared
    /// [`EvalSession`] (plan prepared once, panel-blocked evaluations).
    Matvec(Arc<EvalSession>),
    /// Serves [`Op::Solve`](crate::Op::Solve) through a ULV factorization.
    Solve(Arc<FactoredHMatrix>),
}

impl Model {
    /// Problem size `N` (rows a right-hand side must have).
    pub fn dim(&self) -> usize {
        match self {
            Model::Matvec(s) => s.dim(),
            Model::Solve(f) => f.dim(),
        }
    }

    /// Resident payload bytes this model pins: the CDS buffers, plus the
    /// factor payload for solve models.  Struct and index overhead is not
    /// counted — the budget targets the dominant term, the O(N log N)
    /// submatrix data.
    pub fn storage_bytes(&self) -> usize {
        match self {
            Model::Matvec(s) => s.hmatrix().plan.storage_bytes(),
            Model::Solve(f) => f.hmatrix.plan.storage_bytes() + f.factor.storage_bytes(),
        }
    }
}

struct Resident {
    model: Model,
    bytes: usize,
    /// Logical LRU clock stamp of the most recent touch.
    last_used: u64,
}

/// Counters describing the registry's current occupancy and its history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Models currently resident.
    pub resident_models: usize,
    /// Payload bytes currently resident (see [`Model::storage_bytes`]).
    pub resident_bytes: usize,
    /// Configured budget (`0` = unlimited).
    pub budget_bytes: usize,
    /// Models loaded from disk over the registry's lifetime (initial loads
    /// plus reloads after eviction).
    pub loads: u64,
    /// Models evicted over the registry's lifetime.
    pub evictions: u64,
}

/// Loaded models keyed by id, with LRU eviction under a byte budget.
pub struct ModelRegistry {
    resident: HashMap<String, Resident>,
    /// Backing file per path-backed id — survives eviction so the model can
    /// be reloaded on demand.
    catalog: HashMap<String, PathBuf>,
    clock: u64,
    budget_bytes: usize,
    resident_bytes: usize,
    loads: u64,
    evictions: u64,
}

impl ModelRegistry {
    /// An empty registry with the given byte budget (`0` = unlimited).
    pub fn new(budget_bytes: usize) -> Self {
        ModelRegistry {
            resident: HashMap::new(),
            catalog: HashMap::new(),
            clock: 0,
            budget_bytes,
            resident_bytes: 0,
            loads: 0,
            evictions: 0,
        }
    }

    /// Register a model from a MatRox model file and make it resident.
    /// Both formats are accepted: a `MATROX2` stream becomes a
    /// [`Model::Matvec`] session, a `MATROXF3` stream a [`Model::Solve`].
    /// The path is remembered, so if the model is later evicted it reloads
    /// transparently on the next request.
    ///
    /// # Errors
    /// Propagates the hardened readers' [`MatroxError::Io`] /
    /// [`MatroxError::Format`] verbatim.
    pub fn register_path(&mut self, id: &str, path: PathBuf) -> Result<(), MatroxError> {
        let model = load_model_file(&path)?;
        self.loads += 1;
        self.catalog.insert(id.to_string(), path);
        self.admit(id, model);
        Ok(())
    }

    /// Make an in-memory model resident under `id` (no backing file: if it
    /// is evicted later, requests for it fail with
    /// [`MatroxError::InvalidInput`] until it is inserted again).
    pub fn insert(&mut self, id: &str, model: Model) {
        self.catalog.remove(id);
        self.admit(id, model);
    }

    /// Fetch the model for a request, stamping its LRU clock.  An evicted
    /// path-backed model is reloaded (which may in turn evict the coldest
    /// other residents to stay under budget).
    ///
    /// # Errors
    /// [`MatroxError::InvalidInput`] for ids never registered or evicted
    /// without a backing file; reload failures propagate the reader errors.
    pub fn get(&mut self, id: &str) -> Result<Model, MatroxError> {
        self.clock += 1;
        if let Some(r) = self.resident.get_mut(id) {
            r.last_used = self.clock;
            return Ok(r.model.clone());
        }
        let Some(path) = self.catalog.get(id).cloned() else {
            return Err(MatroxError::InvalidInput(format!(
                "unknown model '{id}' (never registered, or evicted without a backing file)"
            )));
        };
        let model = load_model_file(&path)?;
        self.loads += 1;
        self.admit(id, model.clone());
        Ok(model)
    }

    /// Occupancy and lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            resident_models: self.resident.len(),
            resident_bytes: self.resident_bytes,
            budget_bytes: self.budget_bytes,
            loads: self.loads,
            evictions: self.evictions,
        }
    }

    /// Sum of the resident matvec sessions' [`SessionStats`]: the
    /// inspector/executor cost and the taxonomy counters the serving layer
    /// reports besides its own queueing stats.  Evicted sessions take their
    /// counters with them; this is a floor, not an exact lifetime total.
    pub fn aggregate_session_stats(&self) -> SessionStats {
        let mut agg = SessionStats::default();
        for r in self.resident.values() {
            if let Model::Matvec(s) = &r.model {
                let st = s.stats();
                agg.inspect_seconds += st.inspect_seconds;
                agg.eval_seconds += st.eval_seconds;
                agg.evaluations += st.evaluations;
                agg.queries += st.queries;
                agg.invalid_inputs += st.invalid_inputs;
                agg.contained_panics += st.contained_panics;
                agg.ridge_attempts += st.ridge_attempts;
            }
        }
        agg
    }

    /// Insert `id`, replacing any previous incarnation, then evict LRU
    /// residents (never `id` itself) until the budget holds again.
    fn admit(&mut self, id: &str, model: Model) {
        self.clock += 1;
        let bytes = model.storage_bytes();
        if let Some(old) = self.resident.insert(
            id.to_string(),
            Resident {
                model,
                bytes,
                last_used: self.clock,
            },
        ) {
            self.resident_bytes -= old.bytes;
        }
        self.resident_bytes += bytes;
        if self.budget_bytes == 0 {
            return;
        }
        while self.resident_bytes > self.budget_bytes && self.resident.len() > 1 {
            let coldest = self
                .resident
                .iter()
                .filter(|(rid, _)| rid.as_str() != id)
                .min_by_key(|(_, r)| r.last_used)
                .map(|(rid, _)| rid.clone());
            let Some(coldest) = coldest else { break };
            if let Some(evicted) = self.resident.remove(&coldest) {
                self.resident_bytes -= evicted.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// Read a model file of either on-disk format (`MATROX2` or `MATROXF3`;
/// [`load_model`] reads it once and tells them apart by the magic).
fn load_model_file(path: &std::path::Path) -> Result<Model, MatroxError> {
    Ok(match load_model(path)? {
        ModelFile::Compressed(h) => Model::Matvec(Arc::new(EvalSession::from_hmatrix(h))),
        ModelFile::Factored(f) => Model::Solve(Arc::new(f)),
    })
}
