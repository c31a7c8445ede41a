//! `matrox-lint`: the workspace's project-specific static-analysis pass.
//!
//! MatRox's performance story rests on hand-verified `unsafe` (the
//! allocation-free executor's disjoint raw slicing, the AVX2 microkernel's
//! raw-pointer tiles, the work-stealing pool's stack-job handoff) and on a
//! handful of global contracts (concurrency routes through `matrox-rayon`,
//! env knobs are documented, the fault-tolerant core does not unwrap). The
//! compiler and clippy enforce what they can — `forbid(unsafe_code)`,
//! `unsafe_op_in_unsafe_fn`, `undocumented_unsafe_blocks` via the
//! `[workspace.lints]` table — and this crate enforces the rest; see
//! [`rules`] for the five rules.
//!
//! Run it from the workspace root (CI runs it in the fail-early `lint`
//! job):
//!
//! ```bash
//! cargo run -p matrox-lint
//! ```
//!
//! Exit status 0 means the workspace is clean; 1 means violations were
//! printed, one `path:line: [rule] message` per line; 2 means the tool
//! could not read the workspace.
//!
//! The crate is dependency-free by design: a hand-rolled lexer
//! ([`lexer`]) tells code apart from strings and comments. That keeps the
//! tool buildable (and trustworthy) independently of the code it audits.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use rules::{Config, Diagnostic, SourceFile};
use std::path::{Path, PathBuf};

/// Directories the walker never descends into: build output, VCS metadata,
/// and the lint fixture corpus (which contains must-fail snippets on
/// purpose).
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".github",
    "proptest-regressions",
    "crates/lint/tests/fixtures",
];

/// Recursively collect every `.rs` file under `root`, skipping
/// `SKIP_DIRS`, with repo-relative `/`-separated paths, sorted so runs
/// are deterministic.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if entry.file_type()?.is_dir() {
                if SKIP_DIRS.iter().any(|s| rel == *s) {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Read and tokenize every Rust file in the workspace.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    collect_rust_files(root)?
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p)?;
            Ok(SourceFile {
                path: rel_path(root, &p),
                tokens: lexer::tokenize(&src),
            })
        })
        .collect()
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Run every rule against the workspace at `root` with the shipped
/// [`Config::workspace`] policy. Returns all diagnostics (empty = clean).
pub fn run_all(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let files = load_workspace(root)?;
    let cfg = Config::workspace();
    let mut diags = Vec::new();

    diags.extend(rules::unsafe_allowlist(&files, &cfg));
    diags.extend(rules::safety_comments(&files));
    diags.extend(rules::concurrency_confinement(&files, &cfg));
    diags.extend(rules::unwrap_ban(&files, &cfg));

    let knobs_md = std::fs::read_to_string(root.join("KNOBS.md")).unwrap_or_default();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    if knobs_md.is_empty() {
        diags.push(Diagnostic {
            path: "KNOBS.md".into(),
            line: 1,
            rule: "knob-manifest",
            message: "missing or empty knob manifest (KNOBS.md) at the workspace root".into(),
        });
    } else {
        diags.extend(rules::knob_manifest(&files, &knobs_md, &readme));
    }

    // Deterministic output order regardless of rule internals.
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(diags)
}
