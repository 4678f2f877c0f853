//! The design documents name files by path; every such path must still name
//! a file of the repository.

use std::path::Path;

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];
const EXTENSIONS: [&str; 5] = [".rs", ".md", ".toml", ".yml", ".json"];

/// Every file under `dir`, as a path relative to `root` with `/` separators,
/// skipping build output (`target/`) and version control (`.git/`).
fn files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                files(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).unwrap().components();
            out.push(rel.map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/"));
        }
    }
}

/// The backticked spans of `text` that read as a file path: no whitespace,
/// ending in one of [`EXTENSIONS`].
fn paths(text: &str) -> Vec<&str> {
    let spans = text.lines().flat_map(|line| line.split('`').skip(1).step_by(2));
    let path = |s: &&str| {
        !s.contains(char::is_whitespace) && EXTENSIONS.iter().any(|ext| s.ends_with(ext))
    };
    spans.filter(path).collect()
}

/// The files `path` names: the one at that path from the root, else every
/// file whose path ends in `/path` (the documents' short forms, such as
/// `wal/segment.rs`).
fn resolve<'a>(path: &str, files: &'a [String]) -> Vec<&'a String> {
    if let Some(exact) = files.iter().find(|f| *f == path) {
        return vec![exact];
    }
    let suffix = format!("/{path}");
    files.iter().filter(|f| f.ends_with(&suffix)).collect()
}

#[test]
fn every_backticked_path_in_the_design_documents_names_exactly_one_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Vec::new();
    files(root, root, &mut all);
    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in paths(&text) {
            checked += 1;
            let found = resolve(path, &all);
            if found.len() != 1 {
                broken.push(format!("{doc}: `{path}` names {found:?}"));
            }
        }
    }
    assert!(checked >= 10, "only {checked} paths found: the scan is broken");
    assert!(broken.is_empty(), "paths that name no file or several:\n{}", broken.join("\n"));
}

#[test]
fn a_short_form_resolves_by_suffix_and_an_ambiguous_one_is_reported() {
    let files: Vec<String> =
        ["Cargo.toml", "a/Cargo.toml", "crates/core/src/wal/segment.rs"].map(String::from).to_vec();
    assert_eq!(resolve("wal/segment.rs", &files).len(), 1);
    assert_eq!(resolve("Cargo.toml", &files).len(), 1, "the root file is the one named");
    assert_eq!(resolve("segment.rs", &files).len(), 1);
    assert_eq!(resolve("ment.rs", &files).len(), 0, "a suffix starts at a path component");
    let more: Vec<String> = ["x/lib.rs", "y/lib.rs"].map(String::from).to_vec();
    assert_eq!(resolve("lib.rs", &more).len(), 2);
    let text = "see `tests/docs.rs` and `cargo test --test docs` but not `x.rsx`";
    assert_eq!(paths(text), ["tests/docs.rs"]);
}
