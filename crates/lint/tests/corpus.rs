//! Fixture-corpus tests for `matrox-lint`.
//!
//! Every rule has must-pass and must-fail fixtures under
//! `tests/fixtures/<rule>/` (`pass_*` / `fail_*` by file name); each case
//! below runs one rule against one fixture with a tiny synthetic
//! [`Config`], so a rule regression shows up as a named fixture, not as a
//! workspace-wide mystery.  A sweep test asserts no fixture file is left
//! unreferenced, and a self-check runs the shipped policy against the real
//! workspace (the same check CI's lint job performs via `cargo run`).
//!
//! Note: the fixture directory is in the binary's walker skip-list — the
//! must-fail snippets would otherwise fail the workspace run itself.

use matrox_lint::lexer::tokenize;
use matrox_lint::rules::{self, Config, Diagnostic, SourceFile};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read(rel: &str) -> String {
    let p = fixtures_dir().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading fixture {}: {e}", p.display()))
}

/// Load a fixture as a [`SourceFile`] whose workspace-relative path is
/// `virtual_path` (what the per-case config allowlists or exempts).
fn load_as(rel: &str, virtual_path: &str) -> SourceFile {
    SourceFile {
        path: virtual_path.to_string(),
        tokens: tokenize(&read(rel)),
    }
}

/// Load a fixture under its own file name (the common case).
fn load(rel: &str) -> SourceFile {
    let name = Path::new(rel)
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    load_as(rel, &name)
}

fn assert_clean(diags: &[Diagnostic], what: &str) {
    assert!(
        diags.is_empty(),
        "{what}: expected no diagnostics, got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn assert_fails(diags: &[Diagnostic], rule: &str, what: &str) {
    assert!(
        diags.iter().any(|d| d.rule == rule),
        "{what}: expected a [{rule}] diagnostic, got: {diags:?}"
    );
}

fn empty_config() -> Config {
    Config {
        unsafe_allowlist: vec![],
        concurrency_allowlist: vec![],
        thread_spawn_allowlist: vec![],
        concurrency_exempt_prefixes: vec!["vendor/".into()],
        unwrap_ban_prefixes: vec![],
        unwrap_allowlist: vec![],
    }
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe allowlist
// ---------------------------------------------------------------------------

#[test]
fn unsafe_allowlist_accepts_audited_file() {
    let mut cfg = empty_config();
    cfg.unsafe_allowlist = vec!["pass_audited.rs".into()];
    let files = [load("unsafe_allowlist/pass_audited.rs")];
    assert_clean(&rules::unsafe_allowlist(&files, &cfg), "audited fixture");
}

#[test]
fn unsafe_allowlist_rejects_unlisted_file() {
    let files = [load("unsafe_allowlist/fail_unlisted.rs")];
    let diags = rules::unsafe_allowlist(&files, &empty_config());
    assert_fails(&diags, "unsafe-allowlist", "unlisted fixture");
    // The message must point contributors at the audit process.
    assert!(
        diags.iter().any(|d| d.message.contains("DESIGN.md")),
        "diagnostic should reference the DESIGN.md audit process: {diags:?}"
    );
}

#[test]
fn unsafe_allowlist_flags_stale_entries() {
    let mut cfg = empty_config();
    cfg.unsafe_allowlist = vec!["fail_stale_allowlist.rs".into()];
    let files = [load("unsafe_allowlist/fail_stale_allowlist.rs")];
    assert_fails(
        &rules::unsafe_allowlist(&files, &cfg),
        "unsafe-allowlist",
        "stale allowlist entry",
    );
}

#[test]
fn unsafe_allowlist_accepts_audited_ffi_module() {
    // The epoll-front-end idiom: an `extern "C"` declaration block plus
    // SAFETY-commented call sites, allowlisted — clean under both the
    // allowlist rule and the safety-comment rule.
    let mut cfg = empty_config();
    cfg.unsafe_allowlist = vec!["pass_ffi_module.rs".into()];
    let files = [load("unsafe_allowlist/pass_ffi_module.rs")];
    assert_clean(&rules::unsafe_allowlist(&files, &cfg), "FFI fixture");
    assert_clean(&rules::safety_comments(&files), "FFI fixture comments");
}

#[test]
fn unsafe_allowlist_ignores_strings_and_comments() {
    // Not allowlisted, yet clean: the keyword only appears inside string
    // literals, raw strings and comments, which the lexer must hide.
    let files = [load("unsafe_allowlist/pass_unsafe_in_string.rs")];
    assert_clean(
        &rules::unsafe_allowlist(&files, &empty_config()),
        "keyword-in-string fixture",
    );
}

// ---------------------------------------------------------------------------
// Rule 2: SAFETY comments
// ---------------------------------------------------------------------------

#[test]
fn safety_comments_accept_justified_fixtures() {
    for rel in [
        "safety_comments/pass_block_comment.rs",
        "safety_comments/pass_unsafe_fn_doc.rs",
        "safety_comments/pass_let_unsafe.rs",
    ] {
        let files = [load(rel)];
        assert_clean(&rules::safety_comments(&files), rel);
    }
}

#[test]
fn safety_comments_reject_bare_block() {
    let files = [load("safety_comments/fail_missing_comment.rs")];
    assert_fails(
        &rules::safety_comments(&files),
        "safety-comment",
        "bare block fixture",
    );
}

#[test]
fn safety_comments_reject_shared_comment_across_impls() {
    // Two back-to-back impls, one comment: only the first is justified.
    let files = [load("safety_comments/fail_shared_comment_impls.rs")];
    let diags = rules::safety_comments(&files);
    assert_eq!(
        diags.len(),
        1,
        "exactly the second impl should be flagged: {diags:?}"
    );
    assert_eq!(diags[0].rule, "safety-comment");
}

// ---------------------------------------------------------------------------
// Rule 3: concurrency confinement
// ---------------------------------------------------------------------------

#[test]
fn concurrency_accepts_allowlisted_justified_file() {
    let mut cfg = empty_config();
    cfg.concurrency_allowlist = vec!["pass_allowlisted_with_comment.rs".into()];
    let files = [load("concurrency/pass_allowlisted_with_comment.rs")];
    assert_clean(
        &rules::concurrency_confinement(&files, &cfg),
        "allowlisted+justified fixture",
    );
}

#[test]
fn concurrency_accepts_plain_code() {
    let files = [load("concurrency/pass_plain_code.rs")];
    assert_clean(
        &rules::concurrency_confinement(&files, &empty_config()),
        "plain-code fixture",
    );
}

#[test]
fn concurrency_rejects_unlisted_sync_primitive() {
    let files = [load("concurrency/fail_mutex_unlisted.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &empty_config()),
        "concurrency",
        "unlisted sync-primitive fixture",
    );
}

#[test]
fn concurrency_exempts_vendor_prefix() {
    // The same source is clean when it lives under vendor/ (the pool and
    // the other stand-ins implement the primitives everyone else must use).
    let files = [load_as(
        "concurrency/fail_mutex_unlisted.rs",
        "vendor/somecrate/src/lib.rs",
    )];
    assert_clean(
        &rules::concurrency_confinement(&files, &empty_config()),
        "vendor-exempt fixture",
    );
}

#[test]
fn concurrency_rejects_thread_spawn_even_when_allowlisted() {
    let mut cfg = empty_config();
    cfg.concurrency_allowlist = vec!["fail_spawn.rs".into()];
    let files = [load("concurrency/fail_spawn.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &cfg),
        "concurrency",
        "thread-spawn fixture",
    );
}

#[test]
fn concurrency_accepts_spawn_allowlisted_service_thread() {
    let mut cfg = empty_config();
    cfg.thread_spawn_allowlist = vec!["pass_spawn_allowlisted.rs".into()];
    let files = [load("concurrency/pass_spawn_allowlisted.rs")];
    assert_clean(
        &rules::concurrency_confinement(&files, &cfg),
        "spawn-allowlisted fixture",
    );
}

#[test]
fn concurrency_spawn_allowlist_requires_justification_comment() {
    // Same spawn site as the passing fixture, but no CONCURRENCY: comment:
    // the allowlist entry alone is not enough.
    let mut cfg = empty_config();
    cfg.thread_spawn_allowlist = vec!["fail_spawn_no_justification.rs".into()];
    let files = [load("concurrency/fail_spawn_no_justification.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &cfg),
        "concurrency",
        "spawn-allowlisted-without-justification fixture",
    );
}

#[test]
fn concurrency_flags_stale_spawn_allowlist_entries() {
    let mut cfg = empty_config();
    cfg.thread_spawn_allowlist = vec!["fail_spawn_stale_allowlist.rs".into()];
    let files = [load("concurrency/fail_spawn_stale_allowlist.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &cfg),
        "concurrency",
        "stale spawn-allowlist entry",
    );
}

#[test]
fn concurrency_requires_justification_comment() {
    let mut cfg = empty_config();
    cfg.concurrency_allowlist = vec!["fail_missing_justification.rs".into()];
    let files = [load("concurrency/fail_missing_justification.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &cfg),
        "concurrency",
        "missing-justification fixture",
    );
}

#[test]
fn concurrency_flags_stale_allowlist_entries() {
    let mut cfg = empty_config();
    cfg.concurrency_allowlist = vec!["fail_stale_allowlist.rs".into()];
    let files = [load("concurrency/fail_stale_allowlist.rs")];
    assert_fails(
        &rules::concurrency_confinement(&files, &cfg),
        "concurrency",
        "stale concurrency-allowlist entry",
    );
}

// ---------------------------------------------------------------------------
// Rule 4: knob manifest
// ---------------------------------------------------------------------------

#[test]
fn knob_manifest_accepts_registered_documented_knob() {
    let files = [load("knob_manifest/pass_registered.rs")];
    let knobs = read("knob_manifest/KNOBS.md");
    let readme = read("knob_manifest/README.md");
    assert_clean(
        &rules::knob_manifest(&files, &knobs, &readme),
        "registered-knob fixture",
    );
}

#[test]
fn knob_manifest_rejects_unregistered_knob() {
    let files = [
        load("knob_manifest/pass_registered.rs"),
        load("knob_manifest/fail_unregistered.rs"),
    ];
    let knobs = read("knob_manifest/KNOBS.md");
    let readme = read("knob_manifest/README.md");
    let diags = rules::knob_manifest(&files, &knobs, &readme);
    assert_eq!(diags.len(), 1, "exactly the rogue knob: {diags:?}");
    assert_eq!(diags[0].rule, "knob-manifest");
    assert_eq!(diags[0].path, "fail_unregistered.rs");
}

#[test]
fn knob_manifest_flags_orphaned_registration() {
    // A registered knob no source file references any more.
    let knobs = read("knob_manifest/KNOBS.md");
    let readme = read("knob_manifest/README.md");
    assert_fails(
        &rules::knob_manifest(&[], &knobs, &readme),
        "knob-manifest",
        "orphaned manifest row",
    );
}

#[test]
fn knob_manifest_requires_readme_coverage() {
    let files = [load("knob_manifest/pass_registered.rs")];
    let knobs = read("knob_manifest/KNOBS.md");
    let diags = rules::knob_manifest(&files, &knobs, "");
    assert_fails(&diags, "knob-manifest", "knob absent from README");
    assert!(
        diags.iter().any(|d| d.path == "README.md"),
        "the README gap should be attributed to README.md: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Rule 5: unwrap/expect ban
// ---------------------------------------------------------------------------

/// Per-case config: the fixture lives at a virtual path inside the banned
/// prefix; `allowlist` decides whether it may carry audited sites.
fn ban_config(allowlist: &[&str]) -> Config {
    let mut cfg = empty_config();
    cfg.unwrap_ban_prefixes = vec!["crates/core/src/".into()];
    cfg.unwrap_allowlist = allowlist.iter().map(|s| s.to_string()).collect();
    cfg
}

#[test]
fn unwrap_ban_accepts_allowlisted_sites_with_invariant_comments() {
    let files = [load_as(
        "unwrap_ban/pass_invariant_comment.rs",
        "crates/core/src/x.rs",
    )];
    assert_clean(
        &rules::unwrap_ban(&files, &ban_config(&["crates/core/src/x.rs"])),
        "invariant-comment fixture",
    );
}

#[test]
fn unwrap_ban_accepts_test_module_unwraps() {
    // Not allowlisted, yet clean: every site sits at or after `#[cfg(test)]`.
    let files = [load_as(
        "unwrap_ban/pass_test_module_unwrap.rs",
        "crates/core/src/x.rs",
    )];
    assert_clean(
        &rules::unwrap_ban(&files, &ban_config(&[])),
        "test-module fixture",
    );
}

#[test]
fn unwrap_ban_accepts_combinators_and_out_of_scope_files() {
    let cfg = ban_config(&[]);
    // `unwrap_or_else` / `unwrap_or_default` are not panicking sites.
    let files = [load_as(
        "unwrap_ban/pass_combinators.rs",
        "crates/core/src/x.rs",
    )];
    assert_clean(&rules::unwrap_ban(&files, &cfg), "combinator fixture");
    // The same source that fails in scope is clean outside the prefixes.
    let files = [load_as(
        "unwrap_ban/fail_unlisted_unwrap.rs",
        "crates/bench/src/lib.rs",
    )];
    assert_clean(&rules::unwrap_ban(&files, &cfg), "out-of-scope fixture");
}

#[test]
fn unwrap_ban_rejects_unlisted_sites() {
    let files = [load_as(
        "unwrap_ban/fail_unlisted_unwrap.rs",
        "crates/core/src/x.rs",
    )];
    let diags = rules::unwrap_ban(&files, &ban_config(&[]));
    assert_fails(&diags, "unwrap-ban", "unlisted fixture");
    // Both the .unwrap() and the .expect() site are flagged, and the
    // message points at the structured-error alternative.
    assert_eq!(diags.len(), 2, "both sites should be flagged: {diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("MatroxError")),
        "diagnostic should name the error taxonomy: {diags:?}"
    );
}

#[test]
fn unwrap_ban_requires_per_site_invariant_comments() {
    // Allowlisted, but one of the two sites has no attached INVARIANT:
    // comment (a comment on a *previous* statement does not attach).
    let files = [load_as(
        "unwrap_ban/fail_missing_invariant.rs",
        "crates/core/src/x.rs",
    )];
    let diags = rules::unwrap_ban(&files, &ban_config(&["crates/core/src/x.rs"]));
    assert_eq!(
        diags.len(),
        1,
        "exactly the uncommented site should be flagged: {diags:?}"
    );
    assert_eq!(diags[0].rule, "unwrap-ban");
}

#[test]
fn unwrap_ban_flags_stale_allowlist_entries() {
    let files = [load_as(
        "unwrap_ban/fail_stale_allowlist.rs",
        "crates/core/src/x.rs",
    )];
    assert_fails(
        &rules::unwrap_ban(&files, &ban_config(&["crates/core/src/x.rs"])),
        "unwrap-ban",
        "stale unwrap-allowlist entry",
    );
}

// ---------------------------------------------------------------------------
// Corpus hygiene + workspace self-check
// ---------------------------------------------------------------------------

/// Every fixture on disk is exercised by a case above — a fixture nobody
/// loads is a check that silently stopped existing.
#[test]
fn every_fixture_is_referenced() {
    let referenced = [
        "unsafe_allowlist/pass_audited.rs",
        "unsafe_allowlist/fail_unlisted.rs",
        "unsafe_allowlist/fail_stale_allowlist.rs",
        "unsafe_allowlist/pass_unsafe_in_string.rs",
        "unsafe_allowlist/pass_ffi_module.rs",
        "safety_comments/pass_block_comment.rs",
        "safety_comments/pass_unsafe_fn_doc.rs",
        "safety_comments/pass_let_unsafe.rs",
        "safety_comments/fail_missing_comment.rs",
        "safety_comments/fail_shared_comment_impls.rs",
        "concurrency/pass_allowlisted_with_comment.rs",
        "concurrency/pass_plain_code.rs",
        "concurrency/fail_mutex_unlisted.rs",
        "concurrency/pass_spawn_allowlisted.rs",
        "concurrency/fail_spawn.rs",
        "concurrency/fail_spawn_no_justification.rs",
        "concurrency/fail_spawn_stale_allowlist.rs",
        "concurrency/fail_missing_justification.rs",
        "concurrency/fail_stale_allowlist.rs",
        "knob_manifest/KNOBS.md",
        "knob_manifest/README.md",
        "knob_manifest/pass_registered.rs",
        "knob_manifest/fail_unregistered.rs",
        "unwrap_ban/pass_invariant_comment.rs",
        "unwrap_ban/pass_test_module_unwrap.rs",
        "unwrap_ban/pass_combinators.rs",
        "unwrap_ban/fail_unlisted_unwrap.rs",
        "unwrap_ban/fail_missing_invariant.rs",
        "unwrap_ban/fail_stale_allowlist.rs",
    ];
    let root = fixtures_dir();
    let mut stack = vec![root.clone()];
    let mut on_disk = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                on_disk.push(
                    path.strip_prefix(&root)
                        .unwrap()
                        .to_string_lossy()
                        .replace('\\', "/"),
                );
            }
        }
    }
    on_disk.sort();
    for f in &on_disk {
        assert!(
            referenced.contains(&f.as_str()),
            "fixture {f} exists on disk but no corpus test references it"
        );
    }
    assert_eq!(
        on_disk.len(),
        referenced.len(),
        "reference list and fixture directory disagree"
    );
}

/// Naming convention: a fixture is either a `pass_*` or `fail_*` snippet or
/// a supporting data file (manifest, README).
#[test]
fn fixture_names_declare_their_polarity() {
    let root = fixtures_dir();
    let mut stack = vec![root];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_name().unwrap().to_string_lossy();
                assert!(
                    name.starts_with("pass_") || name.starts_with("fail_"),
                    "fixture {name} must declare pass_/fail_ polarity in its name"
                );
            }
        }
    }
}

/// The shipped policy holds on the workspace itself — the in-process twin
/// of CI's `cargo run -p matrox-lint` gate.
#[test]
#[cfg_attr(miri, ignore = "walks and tokenizes the whole repo; covered natively")]
fn workspace_is_clean_under_the_shipped_policy() {
    let root = matrox_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root not found");
    let diags = matrox_lint::run_all(&root).expect("workspace walk failed");
    assert_clean(&diags, "workspace self-check");
}
