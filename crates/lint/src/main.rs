//! CLI entry point: `cargo run -p matrox-lint [-- --root <dir>]`.
//!
//! Lints the enclosing workspace (or `--root`) with the shipped policy and
//! exits non-zero on any violation, so CI can gate on it. See the crate
//! docs (`cargo doc -p matrox-lint`) and DESIGN.md's "Unsafe inventory &
//! audit process" for the rules and how to amend the allowlists.

#![forbid(unsafe_code)]

use std::path::PathBuf;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: matrox-lint [--root <workspace dir>]");
                return;
            }
            other => {
                eprintln!("matrox-lint: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| matrox_lint::find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("matrox-lint: no workspace root found (run from the repo or pass --root)");
        std::process::exit(2);
    };

    match matrox_lint::run_all(&root) {
        Ok(diags) if diags.is_empty() => {
            println!(
                "matrox-lint: workspace clean (unsafe-allowlist, safety-comment, \
                 concurrency, knob-manifest, unwrap-ban)"
            );
        }
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            eprintln!("matrox-lint: {} violation(s)", diags.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("matrox-lint: io error: {e}");
            std::process::exit(2);
        }
    }
}
