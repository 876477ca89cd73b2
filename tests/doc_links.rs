//! Tripwire for the references between the docs and the tree.
//!
//! Two kinds of reference rot silently when a section is renamed or a file
//! moves: a quoted DESIGN.md section name in README.md or in a Rust source
//! comment, and a repo path written in DESIGN.md or README.md. This test
//! reads the files and checks both.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            if entry.file_name().is_some_and(|n| n != "target") {
                rust_files(&entry, out);
            }
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

/// The text with each line's indentation and comment marker removed and the
/// lines joined by one space, so a reference wrapped across lines reads as
/// one.
fn flatten(text: &str) -> String {
    text.lines()
        .map(|line| {
            let line = line.trim_start();
            ["//!", "///", "//"]
                .iter()
                .find_map(|marker| line.strip_prefix(marker))
                .unwrap_or(line)
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The section names quoted after `DESIGN.md` in `text`: the forms
/// `DESIGN.md` + space + quoted name, the same in parentheses, and the same
/// after a comma.
fn quoted_sections(text: &str) -> Vec<String> {
    let text = flatten(text);
    let mut found = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let rest = &text[at + "DESIGN.md".len()..];
        let Some(name) = [" \"", " (\"", ", \""]
            .iter()
            .find_map(|opening| rest.strip_prefix(opening))
        else {
            continue;
        };
        let end = name.find('"').expect("an unterminated section name");
        found.push(name[..end].to_string());
    }
    found
}

/// The repo paths written in `text`: a run of path characters that starts
/// at a word boundary with one of the tree's top-level directories.
fn repo_paths(text: &str) -> Vec<String> {
    const TOP: [&str; 6] = [
        "crates/",
        "tests/",
        "benchmark/",
        "scripts/",
        "examples/",
        "src/",
    ];
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut found = Vec::new();
    for (at, c) in text.char_indices() {
        let starts_word = text[..at].chars().next_back().is_none_or(|p| !is_path(p));
        if !starts_word || !c.is_ascii_lowercase() {
            continue;
        }
        let rest = &text[at..];
        if !TOP.iter().any(|top| rest.starts_with(top)) {
            continue;
        }
        let end = rest.find(|c: char| !is_path(c)).unwrap_or(rest.len());
        found.push(rest[..end].trim_end_matches(['.', '/']).to_string());
    }
    found
}

#[test]
fn quoted_design_sections_exist() {
    let root = root();
    let headings: Vec<String> = read(&root.join("DESIGN.md"))
        .lines()
        .filter_map(|l| l.strip_prefix("### ").or_else(|| l.strip_prefix("## ")))
        .map(|h| h.trim().to_string())
        .collect();
    let mut files = vec![root.join("README.md")];
    for dir in ["src", "crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for file in &files {
        for name in quoted_sections(&read(file)) {
            checked += 1;
            if !headings.contains(&name) {
                missing.push(format!("{}: {name:?}", file.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md has no `##`/`###` heading for: {missing:#?}\nheadings: {headings:#?}"
    );
    assert!(
        checked >= 5,
        "only {checked} references found: the scan broke"
    );
}

#[test]
fn repo_paths_in_the_docs_exist() {
    let root = root();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        for path in repo_paths(&read(&root.join(doc))) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(missing.is_empty(), "paths that do not exist: {missing:#?}");
    assert!(checked >= 20, "only {checked} paths found: the scan broke");
}

#[test]
fn the_scanners_read_what_they_claim() {
    let rust = "//! see DESIGN.md (\"A b\") and\n/// DESIGN.md, \"C\n/// d\" or DESIGN.md \"E\".\nlet f = \"DESIGN.md\";";
    assert_eq!(quoted_sections(rust), ["A b", "C d", "E"]);
    let md = "(`crates/sim/src/queue.rs`, `tests/x.rs:12`) and src/lib.rs. not foo/src/y";
    assert_eq!(
        repo_paths(md),
        ["crates/sim/src/queue.rs", "tests/x.rs", "src/lib.rs"]
    );
}
