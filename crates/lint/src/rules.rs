//! The five project-specific rules. Each takes tokenized sources and
//! returns [`Diagnostic`]s; an empty return means the rule passes.
//!
//! The rules encode policy the stock toolchain cannot express:
//!
//! 1. [`unsafe_allowlist`] — `unsafe` may only appear in explicitly audited
//!    files (the compiler can `forbid(unsafe_code)` per crate, but not
//!    per *module*, and the executor/kernel crates are mixed).
//! 2. [`safety_comments`] — every `unsafe` token carries a `SAFETY:` /
//!    `# Safety` justification (clippy's `undocumented_unsafe_blocks`
//!    covers blocks and impls; this also covers `unsafe fn` declarations,
//!    and runs on the vendored crates that sit outside clippy's
//!    workspace-lints reach).
//! 3. [`concurrency_confinement`] — ad-hoc synchronization (`Mutex`,
//!    `Atomic*`, `thread::spawn`, …) is confined to the vendored pool and
//!    an audited allowlist (with a separate, stricter allowlist for
//!    service threads); everything else must route concurrency through
//!    `matrox-rayon`.
//! 4. [`knob_manifest`] — every `MATROX_*` / `RAYON_*` env knob the source
//!    mentions is registered in `KNOBS.md` and documented in `README.md`.
//! 5. [`unwrap_ban`] — non-test library code in the fault-tolerant core
//!    and the layers that sit on it
//!    (`crates/{bench,core,exec,factor,serve}/src/`) may not
//!    `.unwrap()`/`.expect()`: public entry points return
//!    `MatroxError`/`FactorError` instead.  The audited exceptions
//!    (internal invariants the type system cannot see) live on an
//!    allowlist and each site carries an `INVARIANT:` comment.

use crate::lexer::{Token, TokenKind};

/// One rule violation: a repo-relative path, a 1-based line, the rule's
/// short name, and the message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A tokenized source file, path relative to the workspace root with `/`
/// separators (normalized by the walker).
pub struct SourceFile {
    pub path: String,
    pub tokens: Vec<Token>,
}

/// Policy knobs for the rules, so the fixture tests can run each rule with
/// a tiny synthetic allowlist. [`Config::workspace`] is the shipped policy.
pub struct Config {
    /// Files allowed to contain `unsafe` at all. Additions require the
    /// DESIGN.md audit process (an invariant writeup plus a pinning test).
    pub unsafe_allowlist: Vec<String>,
    /// Non-vendor files allowed to use ad-hoc synchronization primitives;
    /// each must carry a `CONCURRENCY:` justification comment.
    pub concurrency_allowlist: Vec<String>,
    /// Non-vendor files allowed to call `thread::spawn` / `thread::Builder`
    /// (long-lived service threads that cannot come from the rayon pool,
    /// e.g. the serve reactor).  Each must carry a `CONCURRENCY:`
    /// justification comment; worker-style parallelism still belongs to
    /// matrox-rayon.
    pub thread_spawn_allowlist: Vec<String>,
    /// Path prefixes exempt from the concurrency rule (the pool itself and
    /// the other vendored stand-ins).
    pub concurrency_exempt_prefixes: Vec<String>,
    /// Path prefixes where non-test `.unwrap()`/`.expect()` is banned (the
    /// crates whose public APIs promise structured errors).
    pub unwrap_ban_prefixes: Vec<String>,
    /// Files inside the banned prefixes allowed to keep unwrap/expect for
    /// internal invariants; every such site must carry an attached
    /// `INVARIANT:` comment stating why it cannot fail.
    pub unwrap_allowlist: Vec<String>,
}

impl Config {
    /// The shipped policy for this workspace. Keep the lists sorted; every
    /// entry is documented in DESIGN.md ("Unsafe inventory & audit
    /// process").
    pub fn workspace() -> Self {
        Config {
            unsafe_allowlist: vec![
                // The workspace's one counting global allocator: the dev-only
                // probe the allocation-free and corruption-fuzz suites include.
                "crates/core/tests/support/alloc_probe.rs".into(),
                // Allocation-free executor panel loop: RawSlots disjoint
                // raw slicing (invariants checked by EvalPlan::validate).
                "crates/exec/src/executor.rs".into(),
                // AVX2+FMA packed GEMM microkernel (raw-pointer tiles).
                "crates/linalg/src/kernel/avx2.rs".into(),
                // Audited epoll FFI for the serving network front-end: the
                // only unsafe code in matrox-serve (crate is deny(unsafe)).
                "crates/serve/src/net/epoll.rs".into(),
                // Work-stealing pool: stack-job handoff and worker TLS.
                "vendor/rayon/src/job.rs".into(),
                "vendor/rayon/src/lib.rs".into(),
                "vendor/rayon/src/registry.rs".into(),
            ],
            concurrency_allowlist: vec![
                // GOFMM baseline: per-node Mutex accumulation cells.
                "crates/baselines/src/gofmm.rs".into(),
                // Failpoint registry: process-global Mutex'd map shared with
                // pool workers (lives in linalg so compression sites reach it).
                "crates/linalg/src/failpoint.rs".into(),
                // EvalSession statistics counters (monotonic AtomicU64s).
                "crates/core/src/session.rs".into(),
                // Allocation probe: its two counters and the lock that
                // serializes measurements within a test binary.
                "crates/core/tests/support/alloc_probe.rs".into(),
                // Pool-stress suite: a Mutex serializing two test functions
                // around the process-global failpoint registry.
                "crates/core/tests/pool_stress.rs".into(),
                // Network event loop: one thread owns every connection; the
                // only shared state is a shutdown AtomicBool flag.
                "crates/serve/src/net.rs".into(),
                // Serving reactor: mpsc request/reply channels are its whole
                // concurrency surface (one thread owns all mutable state).
                "crates/serve/src/server.rs".into(),
            ],
            thread_spawn_allowlist: vec![
                // The epoll event loop is a long-lived named service thread,
                // not a parallel worker; the pool cannot host it.
                "crates/serve/src/net.rs".into(),
                // The serve reactor is a long-lived named service thread,
                // not a parallel worker; the pool cannot host it.
                "crates/serve/src/server.rs".into(),
            ],
            concurrency_exempt_prefixes: vec!["vendor/".into()],
            unwrap_ban_prefixes: vec![
                "crates/bench/src/".into(),
                "crates/core/src/".into(),
                "crates/exec/src/".into(),
                "crates/factor/src/".into(),
                "crates/serve/src/".into(),
            ],
            unwrap_allowlist: vec![
                // Prepared-executor sweeps: children/rank-offset invariants
                // established when the plan was prepared.
                "crates/exec/src/executor.rs".into(),
                // ULV factorization/solve: tree-topology and inventory
                // invariants HssFactor::validate checks before the sweeps.
                "crates/factor/src/factor.rs".into(),
                "crates/factor/src/solve.rs".into(),
            ],
        }
    }
}

const DESIGN_POINTER: &str =
    "see DESIGN.md 'Unsafe inventory & audit process' for how to audit and allowlist a new site";

// ---------------------------------------------------------------------------
// Rule 1: unsafe allowlist
// ---------------------------------------------------------------------------

/// `unsafe` is confined to the audited allowlist. Also flags allowlist
/// entries that no longer contain any `unsafe` (the list must shrink with
/// the code, or it stops being an inventory).
pub fn unsafe_allowlist(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in files {
        let allowed = cfg.unsafe_allowlist.iter().any(|a| a == &f.path);
        for t in &f.tokens {
            if t.is_ident("unsafe") {
                if allowed {
                    *seen.entry(f.path.as_str()).or_insert(0) += 1;
                } else {
                    diags.push(Diagnostic {
                        path: f.path.clone(),
                        line: t.line,
                        rule: "unsafe-allowlist",
                        message: format!(
                            "`unsafe` outside the audited allowlist; {DESIGN_POINTER}"
                        ),
                    });
                }
            }
        }
    }
    for a in &cfg.unsafe_allowlist {
        let present = files.iter().any(|f| &f.path == a);
        if present && !seen.contains_key(a.as_str()) {
            diags.push(Diagnostic {
                path: a.clone(),
                line: 1,
                rule: "unsafe-allowlist",
                message: "allowlisted file contains no `unsafe`; remove it from the allowlist \
                          (crates/lint/src/rules.rs) and the DESIGN.md inventory"
                    .into(),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule 2: SAFETY comments
// ---------------------------------------------------------------------------

/// Every `unsafe` token must have a justification in the comments directly
/// attached to its statement or item header: a `SAFETY:` comment, or a
/// `# Safety` doc section for `unsafe fn` declarations.
///
/// Attachment is decided on the token stream: walking backwards from the
/// `unsafe` token, comments are collected until a statement/item boundary
/// (`{`, `}` or `;`) — everything else (visibility, attributes, the left
/// side of a `let`) is skipped. This matches how the justifications are
/// written in practice without needing an AST.
pub fn safety_comments(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files {
        for (i, t) in f.tokens.iter().enumerate() {
            if !t.is_ident("unsafe") {
                continue;
            }
            if !has_safety_comment(&f.tokens, i) {
                diags.push(Diagnostic {
                    path: f.path.clone(),
                    line: t.line,
                    rule: "safety-comment",
                    message: "`unsafe` without an attached `// SAFETY:` justification \
                              (or `# Safety` doc section for an unsafe fn)"
                        .into(),
                });
            }
        }
    }
    diags
}

fn comment_is_justification(text: &str) -> bool {
    text.contains("SAFETY") || text.contains("# Safety")
}

fn has_safety_comment(tokens: &[Token], unsafe_idx: usize) -> bool {
    for t in tokens[..unsafe_idx].iter().rev() {
        match &t.kind {
            TokenKind::Comment { text, .. } if comment_is_justification(text) => {
                return true;
            }
            TokenKind::Punct('{') | TokenKind::Punct('}') | TokenKind::Punct(';') => return false,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 3: concurrency confinement
// ---------------------------------------------------------------------------

/// Synchronization primitives whose *type name* marks ad-hoc concurrency.
/// `OnceLock`/`LazyLock` are deliberately not listed: one-time init caches
/// are not cross-thread data protocols. `UnsafeCell` needs `unsafe` to do
/// anything and is covered by rules 1–2.
fn is_banned_sync_ident(ident: &str) -> bool {
    matches!(ident, "Mutex" | "RwLock" | "Condvar" | "Barrier" | "mpsc")
        || (ident.starts_with("Atomic") && ident.len() > "Atomic".len())
}

/// Ad-hoc synchronization is confined to the vendored pool and the audited
/// allowlist; `thread::spawn` / `thread::Builder` are banned outside vendor
/// except for the audited service-thread allowlist (worker threads must
/// come from `matrox-rayon`). Allowlisted files must carry a
/// `CONCURRENCY:` justification comment.
pub fn concurrency_confinement(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in files {
        if cfg
            .concurrency_exempt_prefixes
            .iter()
            .any(|p| f.path.starts_with(p.as_str()))
        {
            continue;
        }
        let allowed = cfg.concurrency_allowlist.iter().any(|a| a == &f.path);
        let spawn_allowed = cfg.thread_spawn_allowlist.iter().any(|a| a == &f.path);
        let justified = f.tokens.iter().any(
            |t| matches!(&t.kind, TokenKind::Comment { text, .. } if text.contains("CONCURRENCY:")),
        );
        let mut hits = 0usize;
        let mut spawn_hits = 0usize;
        for (i, t) in f.tokens.iter().enumerate() {
            let TokenKind::Ident(ident) = &t.kind else {
                continue;
            };
            // `thread::spawn` / `thread::Builder`: OS threads are the
            // pool's monopoly, except for audited long-lived service
            // threads (`thread_spawn_allowlist`).
            if (ident == "spawn" || ident == "Builder") && path_prefix_is_thread(&f.tokens, i) {
                spawn_hits += 1;
                if !spawn_allowed {
                    diags.push(Diagnostic {
                        path: f.path.clone(),
                        line: t.line,
                        rule: "concurrency",
                        message: format!(
                            "`thread::{ident}` outside the vendored pool; route parallelism \
                             through matrox-rayon (join / par_iter / ThreadPool), or \
                             allowlist an audited service thread with a CONCURRENCY: \
                             justification ({DESIGN_POINTER})"
                        ),
                    });
                }
                continue;
            }
            if is_banned_sync_ident(ident) {
                hits += 1;
                if !allowed {
                    diags.push(Diagnostic {
                        path: f.path.clone(),
                        line: t.line,
                        rule: "concurrency",
                        message: format!(
                            "ad-hoc synchronization (`{ident}`) outside the audited \
                             allowlist; route concurrency through matrox-rayon, or \
                             allowlist the file with a CONCURRENCY: justification \
                             ({DESIGN_POINTER})"
                        ),
                    });
                }
            }
        }
        if (allowed && hits > 0 || spawn_allowed && spawn_hits > 0) && !justified {
            diags.push(Diagnostic {
                path: f.path.clone(),
                line: 1,
                rule: "concurrency",
                message: "allowlisted for ad-hoc synchronization but carries no \
                          `CONCURRENCY:` justification comment"
                    .into(),
            });
        }
        if allowed && hits == 0 {
            diags.push(Diagnostic {
                path: f.path.clone(),
                line: 1,
                rule: "concurrency",
                message: "allowlisted for ad-hoc synchronization but uses none; remove it \
                          from the allowlist (crates/lint/src/rules.rs)"
                    .into(),
            });
        }
        if spawn_allowed && spawn_hits == 0 {
            diags.push(Diagnostic {
                path: f.path.clone(),
                line: 1,
                rule: "concurrency",
                message: "allowlisted for thread::spawn/Builder but spawns no threads; \
                          remove it from the allowlist (crates/lint/src/rules.rs)"
                    .into(),
            });
        }
    }
    diags
}

/// Is ident at `i` preceded by `thread ::` (i.e. `thread::spawn`)?
fn path_prefix_is_thread(tokens: &[Token], i: usize) -> bool {
    if i < 3 {
        return false;
    }
    tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') && tokens[i - 3].is_ident("thread")
}

// ---------------------------------------------------------------------------
// Rule 4: env-knob manifest
// ---------------------------------------------------------------------------

/// Does a string literal look like one of our env knobs?
fn is_knob_name(s: &str) -> bool {
    let rest = s
        .strip_prefix("MATROX_")
        .or_else(|| s.strip_prefix("RAYON_"));
    match rest {
        Some(r) => {
            !r.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        }
        None => false,
    }
}

/// Parse the knob manifest (`KNOBS.md`): every table row whose first cell
/// is a backticked `MATROX_*`/`RAYON_*` name registers that knob.
pub fn parse_knob_manifest(knobs_md: &str) -> Vec<String> {
    let mut knobs = Vec::new();
    for line in knobs_md.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        if is_knob_name(name) {
            knobs.push(name.to_string());
        }
    }
    knobs
}

/// Every `MATROX_*`/`RAYON_*` string literal in the source is registered in
/// `KNOBS.md`; every registered knob is still referenced by the source and
/// is documented in `README.md`'s tuning guide.
pub fn knob_manifest(files: &[SourceFile], knobs_md: &str, readme: &str) -> Vec<Diagnostic> {
    let manifest = parse_knob_manifest(knobs_md);
    let mut diags = Vec::new();
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for f in files {
        for t in &f.tokens {
            let TokenKind::Str(s) = &t.kind else { continue };
            if !is_knob_name(s) {
                continue;
            }
            used.insert(s.clone());
            if !manifest.iter().any(|k| k == s) {
                diags.push(Diagnostic {
                    path: f.path.clone(),
                    line: t.line,
                    rule: "knob-manifest",
                    message: format!(
                        "env knob \"{s}\" is not registered in KNOBS.md; add a manifest row \
                         and document it in README.md's tuning guide"
                    ),
                });
            }
        }
    }
    for k in &manifest {
        if !used.contains(k) {
            diags.push(Diagnostic {
                path: "KNOBS.md".into(),
                line: 1,
                rule: "knob-manifest",
                message: format!("registered knob `{k}` is no longer referenced by any source"),
            });
        }
        if !readme.contains(k) {
            diags.push(Diagnostic {
                path: "README.md".into(),
                line: 1,
                rule: "knob-manifest",
                message: format!("knob `{k}` is registered in KNOBS.md but missing from README.md"),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule 5: unwrap/expect ban in the fault-tolerant core
// ---------------------------------------------------------------------------

/// Index of the first `#[cfg(test)]` attribute in the token stream, if any.
/// The workspace convention puts the in-file test module last, so tokens at
/// or after this index are test code and exempt from the unwrap ban.
fn first_cfg_test_index(tokens: &[Token]) -> Option<usize> {
    (0..tokens.len()).find(|&i| {
        tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
    })
}

/// Does the statement containing token `idx` carry an attached `INVARIANT:`
/// comment? Same walk-back attachment as [`has_safety_comment`]: comments
/// between the site and the previous statement/item boundary count.
fn has_invariant_comment(tokens: &[Token], idx: usize) -> bool {
    for t in tokens[..idx].iter().rev() {
        match &t.kind {
            TokenKind::Comment { text, .. } if text.contains("INVARIANT") => return true,
            TokenKind::Punct('{') | TokenKind::Punct('}') | TokenKind::Punct(';') => return false,
            _ => {}
        }
    }
    false
}

/// Non-test code under the banned prefixes may not call `.unwrap()` /
/// `.expect()`: public entry points return `MatroxError` / `FactorError`
/// instead of panicking on bad input. Audited internal-invariant sites live
/// on the allowlist and must each carry an attached `INVARIANT:` comment;
/// allowlist entries whose file has no remaining sites are flagged as stale.
pub fn unwrap_ban(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for f in files {
        if !cfg
            .unwrap_ban_prefixes
            .iter()
            .any(|p| f.path.starts_with(p.as_str()))
        {
            continue;
        }
        let allowed = cfg.unwrap_allowlist.iter().any(|a| a == &f.path);
        let end = first_cfg_test_index(&f.tokens).unwrap_or(f.tokens.len());
        for (i, t) in f.tokens[..end].iter().enumerate() {
            // A call site is `. unwrap (` / `. expect (` on the token
            // stream; the lexer emits whole identifiers, so combinators
            // like `unwrap_or_else` cannot match.
            let is_site = (t.is_ident("unwrap") || t.is_ident("expect"))
                && i > 0
                && f.tokens[i - 1].is_punct('.')
                && f.tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !is_site {
                continue;
            }
            let TokenKind::Ident(name) = &t.kind else {
                continue;
            };
            if !allowed {
                diags.push(Diagnostic {
                    path: f.path.clone(),
                    line: t.line,
                    rule: "unwrap-ban",
                    message: format!(
                        "`.{name}()` in non-test code of the fault-tolerant core; return \
                         `MatroxError`/`FactorError` instead, or allowlist the file with \
                         a per-site INVARIANT: comment ({DESIGN_POINTER})"
                    ),
                });
                continue;
            }
            *seen.entry(f.path.as_str()).or_insert(0) += 1;
            if !has_invariant_comment(&f.tokens, i) {
                diags.push(Diagnostic {
                    path: f.path.clone(),
                    line: t.line,
                    rule: "unwrap-ban",
                    message: format!(
                        "allowlisted `.{name}()` without an attached `// INVARIANT:` \
                         comment stating why it cannot fail"
                    ),
                });
            }
        }
    }
    for a in &cfg.unwrap_allowlist {
        let present = files.iter().any(|f| &f.path == a);
        if present && !seen.contains_key(a.as_str()) {
            diags.push(Diagnostic {
                path: a.clone(),
                line: 1,
                rule: "unwrap-ban",
                message: "allowlisted file has no non-test unwrap/expect left; remove it \
                          from the allowlist (crates/lint/src/rules.rs)"
                    .into(),
            });
        }
    }
    diags
}
