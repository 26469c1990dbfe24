//! The frozen surface stays a surface. `fbs_core::frozen`,
//! `fbs_net::frozen` and `fbs_ip::frozen` hold what only the end-to-end
//! benchmark under `benchmark/` reads, re-exported at the paths it
//! imports. Two rules keep the split honest:
//!
//! * no `crates/*/src` file outside a `frozen/` directory names
//!   `frozen`, a name re-exported out of it, or a method or associated
//!   function a `frozen` module adds to a system type — apart from the re-export statements
//!   themselves (and `pub mod frozen;`) in the crate roots and in
//!   `fbs-core`'s `protocol.rs`;
//! * every such name is read somewhere in `benchmark/src/*.rs`, so the
//!   surface holds nothing the harness no longer needs.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every `crates/*/src` file: (path relative to the root, text).
fn crate_sources() -> Vec<(String, String)> {
    let crates = root().join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let files = dirs.iter().flat_map(|d| rust_files(d));
    files
        .map(|p| {
            let rel = p.strip_prefix(root()).expect("under the root");
            (rel.to_string_lossy().replace('\\', "/"), read(&p))
        })
        .collect()
}

fn in_frozen(path: &str) -> bool {
    path.contains("/frozen/")
}

/// A file that may re-export out of `frozen`.
fn may_reexport(path: &str) -> bool {
    path.ends_with("/src/lib.rs") || path == "crates/fbs-core/src/protocol.rs"
}

/// The re-export statements of `text` (`pub use frozen::…;` and
/// `pub use crate::frozen::…;`, one or several lines): the 0-based lines
/// each spans, and the names it exports.
fn reexports(text: &str) -> Vec<(std::ops::RangeInclusive<usize>, Vec<String>)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut found = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_start();
        if line.starts_with("pub use frozen::") || line.starts_with("pub use crate::frozen::") {
            let start = i;
            let mut stmt = String::new();
            loop {
                stmt.push_str(lines[i]);
                if lines[i].contains(';') {
                    break;
                }
                i += 1;
            }
            let path = stmt.trim().trim_end_matches(';');
            let list = match path.split_once('{') {
                Some((_, rest)) => rest.trim_end_matches('}').to_string(),
                None => path.rsplit("::").next().expect("a name").to_string(),
            };
            let names = list
                .split(',')
                .map(|n| n.trim().to_string())
                .filter(|n| !n.is_empty())
                .collect();
            found.push((start..=i, names));
        }
        i += 1;
    }
    found
}

/// The methods a `frozen` module adds to a type defined outside it, as
/// the call that reaches each: every `pub fn` of an inherent `impl T {`
/// block at the file's top level whose `T` the file does not define,
/// `.m()` when it takes only `&self`, `.m(` when it takes another
/// receiver, and `::m(` when it takes none.
fn foreign_methods(text: &str) -> Vec<String> {
    let defines = |t: &str| {
        [
            format!("pub struct {t}"),
            format!("pub type {t}"),
            format!("pub enum {t}"),
        ]
        .iter()
        .any(|d| text.contains(d.as_str()))
    };
    let mut methods = Vec::new();
    let mut foreign = false;
    for line in text.lines() {
        if let Some(ty) = line
            .strip_prefix("impl ")
            .and_then(|r| r.strip_suffix(" {"))
        {
            foreign = !ty.contains(' ') && !ty.contains('<') && !defines(ty);
        } else if line == "}" {
            foreign = false;
        } else if let (true, Some(rest)) = (foreign, line.strip_prefix("    pub fn ")) {
            let (name, sig) = rest.split_once('(').expect("a signature");
            let receiver = ["&self", "&mut self", "self"]
                .iter()
                .any(|r| sig.starts_with(r));
            methods.push(match (sig.starts_with("&self)"), receiver) {
                (true, _) => format!(".{name}()"),
                (false, true) => format!(".{name}("),
                (false, false) => format!("::{name}("),
            });
        }
    }
    methods
}

/// Whether `text` holds `name` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

/// The surface: names re-exported out of `frozen`, then the calls of
/// the methods it adds to system types ([`foreign_methods`]).
fn surface(sources: &[(String, String)]) -> (Vec<String>, Vec<String>) {
    let mut exported: Vec<String> = sources
        .iter()
        .filter(|(p, _)| may_reexport(p))
        .flat_map(|(_, t)| reexports(t).into_iter().flat_map(|(_, n)| n))
        .collect();
    exported.sort();
    exported.dedup();
    let mut methods: Vec<String> = sources
        .iter()
        .filter(|(p, _)| in_frozen(p))
        .flat_map(|(_, t)| foreign_methods(t))
        .collect();
    methods.sort();
    methods.dedup();
    (exported, methods)
}

#[test]
fn no_system_path_reaches_frozen() {
    let sources = crate_sources();
    let (exported, methods) = surface(&sources);
    assert!(!exported.is_empty(), "no re-export out of `frozen` found");
    let mut hits = Vec::new();
    for (path, text) in sources.iter().filter(|(p, _)| !in_frozen(p)) {
        let exempt: Vec<usize> = match may_reexport(path) {
            true => reexports(text).into_iter().flat_map(|(r, _)| r).collect(),
            false => vec![],
        };
        for (i, line) in text.lines().enumerate() {
            let declares = path.ends_with("/src/lib.rs") && line == "pub mod frozen;";
            if exempt.contains(&i) || declares {
                continue;
            }
            let named = std::iter::once("frozen")
                .chain(exported.iter().map(String::as_str))
                .filter(|n| names(line, n))
                .chain(
                    methods
                        .iter()
                        .map(String::as_str)
                        .filter(|c| line.contains(c)),
                );
            for n in named {
                hits.push(format!("{path}:{}: `{n}`: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "system code reaches the frozen surface:\n{}",
        hits.join("\n")
    );
}

#[test]
fn every_frozen_name_is_read_by_the_benchmark() {
    let (exported, methods) = surface(&crate_sources());
    assert!(
        !methods.is_empty(),
        "no method added by a `frozen` module found"
    );
    let bench: String = rust_files(&root().join("benchmark/src"))
        .iter()
        .map(|p| read(p))
        .collect();
    let unread: Vec<String> = exported
        .iter()
        .filter(|n| !names(&bench, n))
        .chain(methods.iter().filter(|m| !bench.contains(m.as_str())))
        .cloned()
        .collect();
    assert!(
        unread.is_empty(),
        "frozen names no `benchmark/src` file reads (delete them): {unread:?}"
    );
}

#[test]
fn the_scanners_read_what_the_crates_write() {
    let sources = crate_sources();
    let (exported, methods) = surface(&sources);
    for want in [
        "BatchVerifier",
        "CombinedTable",
        "FlowKeyId",
        "SpscRing",
        "build_secure_host",
        "flow_key_hash",
    ] {
        assert!(exported.iter().any(|n| n == want), "{want} in {exported:?}");
    }
    assert_eq!(
        methods,
        [
            ".drain()",
            ".ring_stalls()",
            ".shed_counts()",
            "::decode_pooled("
        ]
    );
    let multi = "pub use frozen::{\n    a,\n    b,\n};\nuse x;\npub use crate::frozen::c;\n";
    let found = reexports(multi);
    assert_eq!(found.len(), 2);
    assert_eq!(
        (found[0].0.clone(), found[0].1.clone()),
        (0..=3, vec!["a".into(), "b".into()])
    );
    assert_eq!(
        (found[1].0.clone(), found[1].1.clone()),
        (5..=5, vec!["c".into()])
    );
    assert!(names("x.flow_key_hash(&id)", "flow_key_hash"));
    assert!(!names("flow_key_hash_parts(s, a, b)", "flow_key_hash"));
}
