//! README.md and ARCHITECTURE.md name files and symbols in backticks;
//! this fails when one of them no longer resolves. A plain text scan,
//! no compiler: a backticked `crates/…/file.rs` (or any path under a
//! workspace directory) must exist, the item of a `file.rs::item` must
//! be a word of that file, and every segment of a `path::Symbol` must
//! be a word of some Rust source in the workspace, comments excluded —
//! so deleting an item fails here until the prose that advertises it
//! goes too.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["README.md", "ARCHITECTURE.md"];
/// Directories whose `.rs` files define the workspace's identifiers,
/// and the prefixes that mark a backticked span as a path.
const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const PATH_ROOTS: [&str; 6] = [
    "crates/",
    "src/",
    "tests/",
    "examples/",
    "benchmark/",
    ".github/",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a workspace directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers of one Rust source, `//` comments excluded.
fn identifiers(source: &str) -> HashSet<String> {
    source
        .lines()
        .map(|line| line.split("//").next().expect("split yields a first piece"))
        .flat_map(words)
        .map(str::to_string)
        .collect()
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// Inline code spans of a markdown text, fenced blocks skipped.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The leading path-like part of a span: `AccessMethod::probe(&[u64])`
/// gives `AccessMethod::probe`; spaces count only inside a `{a, b}`.
fn head(span: &str) -> &str {
    let mut depth = 0usize;
    for (at, c) in span.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            ' ' if depth > 0 => {}
            c if c.is_ascii_alphanumeric() || "_:/.,-*".contains(c) => {}
            _ => return &span[..at],
        }
    }
    span
}

/// `tests/{a,b}.rs` gives `tests/a.rs` and `tests/b.rs`.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &path[..open], alt.trim(), &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

#[test]
fn backticked_paths_and_symbols_resolve() {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        rust_files(&root().join(dir), &mut files);
    }
    let per_file: Vec<(PathBuf, HashSet<String>)> = files
        .into_iter()
        .map(|path| {
            let idents = identifiers(&fs::read_to_string(&path).expect("a readable source"));
            (path, idents)
        })
        .collect();
    let workspace: HashSet<&str> = per_file
        .iter()
        .flat_map(|(_, idents)| idents.iter().map(String::as_str))
        .collect();

    let mut dangling = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("a readable document");
        for span in code_spans(&text) {
            let head = head(&span);
            let is_path = PATH_ROOTS.iter().any(|r| head.starts_with(r)) || head.contains(".rs");
            if is_path {
                let (path, item) = match head.split_once("::") {
                    Some((path, item)) => (path, Some(item)),
                    None => (head, None),
                };
                // `file.rs:123` names a line of the file.
                let path = match path.rsplit_once(':') {
                    Some((file, line)) if line.chars().all(|c| c.is_ascii_digit()) => file,
                    _ => path,
                };
                for path in expand_braces(path) {
                    // A bare `file.rs` is looked up by name, anything
                    // with a directory from the workspace root.
                    let rooted = path.contains('/').then(|| root().join(&path));
                    let found: Vec<&HashSet<String>> = per_file
                        .iter()
                        .filter(|(p, _)| rooted.as_ref().map_or(p.ends_with(&path), |r| p == r))
                        .map(|(_, idents)| idents)
                        .collect();
                    if found.is_empty() && !rooted.is_some_and(|r| r.exists()) {
                        dangling.push(format!("{doc}: `{span}`: no such file: {path}"));
                    }
                    // `file.rs::prefix_*` names every item so prefixed.
                    let Some(item) = item else { continue };
                    let named = |idents: &&HashSet<String>| match item.strip_suffix('*') {
                        Some(prefix) => idents.iter().any(|w| w.starts_with(prefix)),
                        None => words(item).all(|w| idents.contains(w)),
                    };
                    if !found.is_empty() && !found.iter().any(named) {
                        dangling.push(format!("{doc}: `{span}`: {path} has no `{item}`"));
                    }
                }
            } else if head.contains("::")
                && !["std::", "core::"].iter().any(|p| head.starts_with(p))
            {
                for word in words(head).filter(|w| !workspace.contains(w)) {
                    dangling.push(format!("{doc}: `{span}`: `{word}` is defined nowhere"));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "{} dangling references:\n{}",
        dangling.len(),
        dangling.join("\n")
    );
}
