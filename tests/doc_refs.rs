//! The design documents point at things that exist: every "item N" or
//! "item N(x)" that DESIGN.md and EXPERIMENTS.md cite is an open item
//! (or sub-item) of ROADMAP.md, and every `file.rs:NNN` (also
//! `file.rs:NNN-MMM` and `file.rs:NNN,MMM`) cited in DESIGN.md,
//! DESIGN_HISTORY.md, EXPERIMENTS.md and ROADMAP.md names a workspace
//! source file with at least that many lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(doc: &str) -> String {
    std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// ROADMAP.md's items: `N` for each top-level `N. **…` entry, and `N(x)`
/// for each indented `(x) …` line beneath it, up to the next heading.
fn roadmap_items(roadmap: &str) -> BTreeSet<String> {
    let mut items = BTreeSet::new();
    let mut current = None;
    for line in roadmap.lines() {
        if line.starts_with('#') {
            current = None;
        } else if let Some((n, rest)) = line.split_once(". ") {
            if rest.starts_with("**") && !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) {
                items.insert(n.to_string());
                current = Some(n.to_string());
                continue;
            }
        }
        let sub = line.trim_start();
        if let (Some(n), true) = (&current, sub.len() < line.len()) {
            let b = sub.as_bytes();
            if b.len() > 3 && b[0] == b'(' && b[1].is_ascii_lowercase() && b[2] == b')' {
                items.insert(format!("{n}({})", b[1] as char));
            }
        }
    }
    items
}

/// Every "item N" / "item N(x)" in `text`, with its line number.
fn cited_items(text: &str) -> Vec<(usize, String)> {
    let mut cited = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices("item ") {
            if line[..at].ends_with(|c: char| c.is_alphanumeric()) {
                continue;
            }
            let rest = &line[at + "item ".len()..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            if digits == 0 {
                continue;
            }
            let b = rest.as_bytes();
            let sub = (b.len() >= digits + 3
                && b[digits] == b'('
                && b[digits + 1].is_ascii_lowercase()
                && b[digits + 2] == b')')
                .then(|| &rest[digits..digits + 3]);
            cited.push((i + 1, format!("{}{}", &rest[..digits], sub.unwrap_or(""))));
        }
    }
    cited
}

/// Every `path.rs:N…` in `text`: the path, the largest line number of
/// its `N`, `N-M` or `N,M,…` suffix, and the citing line.
fn cited_lines(text: &str) -> Vec<(usize, String, usize)> {
    let mut cited = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (at, _) in line.match_indices(".rs:") {
            let start = line[..at]
                .rfind(|c: char| !(c.is_alphanumeric() || "_-/.".contains(c)))
                .map_or(0, |p| p + 1);
            let path = &line[start..at + ".rs".len()];
            let spec: String = line[at + ".rs:".len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '-' || *c == ',')
                .collect();
            let Some(max) = spec.split([',', '-']).filter_map(|n| n.parse().ok()).max() else {
                continue;
            };
            if path.len() > ".rs".len() {
                cited.push((i + 1, path.to_string(), max));
            }
        }
    }
    cited
}

/// Every `.rs` file under the workspace root, build outputs excluded.
fn workspace_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable workspace") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                workspace_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn cited_roadmap_items_exist() {
    let items = roadmap_items(&read("ROADMAP.md"));
    assert!(items.contains("1") && items.contains("1(a)"), "{items:?}");
    let mut dead = Vec::new();
    for doc in ["DESIGN.md", "EXPERIMENTS.md"] {
        for (line, item) in cited_items(&read(doc)) {
            if !items.contains(&item) {
                dead.push(format!("{doc}:{line}: item {item}"));
            }
        }
    }
    assert!(dead.is_empty(), "not in ROADMAP.md: {dead:#?}");
}

#[test]
fn cited_source_lines_exist() {
    let mut sources = Vec::new();
    workspace_sources(root(), &mut sources);
    let mut dead = Vec::new();
    for doc in [
        "DESIGN.md",
        "DESIGN_HISTORY.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
    ] {
        for (line, path, n) in cited_lines(&read(doc)) {
            let suffix = format!("/{}", path.trim_start_matches("./"));
            let long_enough = sources.iter().any(|src| {
                src.to_string_lossy().ends_with(&suffix)
                    && std::fs::read_to_string(src).map_or(0, |s| s.lines().count()) >= n
            });
            if !long_enough {
                dead.push(format!("{doc}:{line}: {path}:{n}"));
            }
        }
    }
    assert!(dead.is_empty(), "no such source line: {dead:#?}");
}

#[test]
fn the_scanners_read_what_the_documents_write() {
    let roadmap = "1. **One.**\n   (a) **Sub.**\n    1. not an item\n2. **Two.**\n## Parked\n   (b) no item\n";
    let items: Vec<_> = roadmap_items(roadmap).into_iter().collect();
    assert_eq!(items, ["1", "1(a)", "2"]);
    assert_eq!(
        cited_items("ROADMAP item 2 and item 14(a); items 3; subitem 4"),
        [(1, "2".to_string()), (1, "14(a)".to_string())]
    );
    assert_eq!(
        cited_lines("`protocol.rs:750-793`, `hooks/mod.rs:270`, `run.rs:44,302`, `x.rs:`"),
        [
            (1, "protocol.rs".to_string(), 793),
            (1, "hooks/mod.rs".to_string(), 270),
            (1, "run.rs".to_string(), 302),
        ]
    );
}
