//! The env-knob manifest, machine-checked (DESIGN.md "Unsafe inventory &
//! audit process", rule 5): the knob names that occur anywhere in the
//! workspace's Rust sources — code, strings and comments alike — are exactly
//! the rows of `KNOBS.md`, and every row is covered by README's "Performance
//! tuning" section.  A knob name is one of [`PREFIXES`], an underscore and
//! one or more of `[A-Z0-9_]`, starting at a word boundary.
//!
//! This file is scanned too, so it spells no knob name out.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const PREFIXES: [&str; 2] = ["MATROX", "RAYON"];

/// Where the workspace (and the benchmark that drives it) keeps Rust sources.
const SOURCE_ROOTS: [&str; 6] = [
    "src",
    "crates",
    "vendor",
    "examples",
    "tests",
    "benchmark/src",
];

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Every knob name in `text`.
fn knob_names(text: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for prefix in PREFIXES {
        for (at, _) in text.match_indices(prefix) {
            let at_boundary = at == 0 || !is_word(text.as_bytes()[at - 1]);
            let Some(tail) = text[at + prefix.len()..].strip_prefix('_') else {
                continue;
            };
            let len = tail
                .bytes()
                .take_while(|&c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_')
                .count();
            if at_boundary && len > 0 {
                names.insert(&text[at..at + prefix.len() + 1 + len]);
            }
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn knobs_in_source_are_the_rows_of_knobs_md_and_readme_covers_them() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut files = Vec::new();
    for dir in SOURCE_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    // Knob name -> first source file that mentions it.
    let mut used: BTreeMap<String, PathBuf> = BTreeMap::new();
    for file in &files {
        for name in knob_names(&read(file)) {
            used.entry(name.to_string()).or_insert_with(|| file.clone());
        }
    }

    // A table row registers the knob named in its first, back-ticked cell.
    let knobs_md = read(&root.join("KNOBS.md"));
    let registered: BTreeSet<&str> = knobs_md
        .lines()
        .filter_map(|line| line.trim().strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(!registered.is_empty(), "KNOBS.md registers no knob");

    for (name, file) in &used {
        assert!(
            registered.contains(name.as_str()),
            "{} mentions `{name}`, which has no row in KNOBS.md: register it there and \
             document it in README.md's \"Performance tuning\" section",
            file.display()
        );
    }

    let readme = read(&root.join("README.md"));
    let (_, after) = readme
        .split_once("\n## Performance tuning")
        .expect("README.md has a \"Performance tuning\" section");
    let tuning = after
        .split_once("\n## ")
        .map_or(after, |(section, _)| section);
    for name in registered {
        assert!(
            used.contains_key(name),
            "KNOBS.md registers `{name}`, which no source file mentions any more: drop the row"
        );
        assert!(
            tuning.contains(name),
            "`{name}` is registered in KNOBS.md but README.md's \"Performance tuning\" \
             section does not mention it"
        );
    }
}
