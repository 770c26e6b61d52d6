//! trass-lint: dependency-free static analysis for the TraSS workspace —
//! the four checks rustc and clippy have no lint for.
//!
//! ```text
//! trass-lint [ROOT]
//! ```
//!
//! Architecture: [`scanner`] turns each source file into a masked token
//! view plus side tables; [`rules`] holds one module per rule — the
//! per-file line rules (`panic-surface`, `lock-across-io`) and the
//! cross-file analyses (`lock-order` cycles, knob/metric `drift`).
//!
//! The interface is a text report, one `path:line: [rule] message` per
//! finding, and the exit code: 0 iff there are no findings. A finding is
//! fixed or suppressed in place with `// trass-lint: allow(<rule>) <reason>`
//! on its line or the line above; there is no other suppression. What the
//! toolchain can check it does: `.unwrap()`/`.expect()`, bare `as` casts,
//! float `==`, `println!` and undocumented `pub` items are crate-level
//! `clippy::`/rustc lints in each `lib.rs`, and the self-test below pins
//! which crate declares which.

mod rules;
mod scanner;

use rules::drift::DocSet;
use rules::Diagnostic;
use scanner::{FileInfo, PreparedFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: trass-lint [ROOT]";

/// The one optional argument: the workspace root.
fn parse_args(args: &[String]) -> Result<PathBuf, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag {flag}"));
    }
    match args {
        [] => Ok(default_root()),
        [root] => Ok(PathBuf::from(root)),
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

/// Resolves the default workspace root: the lint crate's grandparent (when
/// built via cargo), else the current directory.
fn default_root() -> PathBuf {
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        let p = Path::new(manifest);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

/// Reads and prepares every `.rs` file under `crates/*/src`, `crates/*/tests`,
/// and the root `src/`, plus the doc/CI text the drift analysis uses.
fn load_workspace(root: &Path) -> std::io::Result<(Vec<PreparedFile>, DocSet)> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let krate = entry?.path();
            for sub in ["src", "tests", "benches"] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut paths)?;
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let Some(info) = FileInfo::classify(rel) else { continue };
        let source = std::fs::read_to_string(&path)?;
        files.push(PreparedFile::new(info, &source));
    }
    Ok((files, load_docs(root)))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads README/DESIGN and CI workflow text (all optional; absent files
/// read as empty, which the drift analysis treats as "documents nothing").
fn load_docs(root: &Path) -> DocSet {
    let read = |p: PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    let mut workflows = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join(".github").join("workflows")) {
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "yml" || e == "yaml"))
            .collect();
        paths.sort();
        for p in paths {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy().into_owned();
            workflows.push((rel, read(p.clone())));
        }
    }
    DocSet { readme: read(root.join("README.md")), design: read(root.join("DESIGN.md")), workflows }
}

/// Runs every per-file rule and the cross-file analyses; sorted output.
fn lint_all(files: &[PreparedFile], docs: &DocSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        out.extend(rules::lint_file(file));
    }
    out.extend(rules::lint_cross_file(files, docs));
    out.sort();
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match parse_args(&args) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("trass-lint: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (files, docs) = match load_workspace(&root) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("trass-lint: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let diags = lint_all(&files, &docs);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("trass-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("trass-lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Self-tests: CLI parsing, the real workspace staying clean, and the
// per-crate clippy policy that replaced the five token rules.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_takes_a_root_and_nothing_else() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&[]), Ok(default_root()));
        assert_eq!(parse_args(&args(&["/x"])), Ok(PathBuf::from("/x")));
        assert!(parse_args(&args(&["a", "b"])).is_err());
        for retired in ["--format", "--baseline", "--write-baseline", "--nope"] {
            assert_eq!(
                parse_args(&args(&["/x", retired, "y"])),
                Err(format!("unknown flag {retired}")),
                "{retired}"
            );
        }
    }

    /// The workspace this binary was built from; `None` out of tree.
    fn real_root() -> Option<PathBuf> {
        Some(default_root()).filter(|root| root.join("crates").is_dir())
    }

    /// Also the proof that no `allow(unwrap|cast|float-eq|pub-doc|no-print)`
    /// is left in the tree: each would be an `unknown rule in allow` finding.
    #[test]
    fn workspace_is_clean() {
        let Some(root) = real_root() else { return };
        let (files, docs) = load_workspace(&root).expect("workspace readable");
        let listing: Vec<String> =
            lint_all(&files, &docs).iter().map(ToString::to_string).collect();
        assert!(listing.is_empty(), "findings:\n{}", listing.join("\n"));
    }

    /// The scope table of the retired `unwrap`, `cast`, `float-eq` and
    /// `no-print` rules: which `clippy::` lints each library crate's
    /// `lib.rs` turns on outside test builds (`pub-doc` is rustc's
    /// `missing_docs`, on in geo, index and core among others). `bench`
    /// prints its reports; `trass` is the root package.
    const CLIPPY_POLICY: [(&str, &[&str]); 12] = [
        ("baselines", &["print_stdout", "print_stderr"]),
        ("bench", &[]),
        ("core", &["unwrap_used", "expect_used", "print_stdout", "print_stderr"]),
        ("exec", &["unwrap_used", "expect_used", "print_stdout", "print_stderr"]),
        ("geo", &["as_conversions", "float_cmp", "print_stdout", "print_stderr"]),
        (
            "index",
            &["unwrap_used", "expect_used", "as_conversions", "print_stdout", "print_stderr"],
        ),
        ("kv", &["unwrap_used", "expect_used", "print_stdout", "print_stderr"]),
        ("obs", &["unwrap_used", "expect_used", "print_stdout", "print_stderr"]),
        ("rng", &["print_stdout", "print_stderr"]),
        ("server", &["unwrap_used", "expect_used", "print_stdout", "print_stderr"]),
        ("traj", &["float_cmp", "print_stdout", "print_stderr"]),
        ("trass", &["print_stdout", "print_stderr"]),
    ];

    /// The lints of `#![cfg_attr(not(test), warn(clippy::a, clippy::b))]`,
    /// however rustfmt wrapped it; empty when there is no such attribute.
    fn declared_lints(lib_rs: &str) -> Vec<String> {
        let flat: String = lib_rs.chars().filter(|c| !c.is_whitespace()).collect();
        let open = "#![cfg_attr(not(test),warn(";
        let Some(start) = flat.find(open) else { return Vec::new() };
        let list = &flat[start + open.len()..];
        let list = &list[..list.find("))]").expect("attribute closes")];
        list.split(',').map(|lint| lint.trim_start_matches("clippy::").to_string()).collect()
    }

    #[test]
    fn each_lib_crate_declares_exactly_its_policy_lints() {
        let Some(root) = real_root() else { return };
        for (krate, want) in CLIPPY_POLICY {
            let dir = if krate == "trass" { root.clone() } else { root.join("crates").join(krate) };
            let path = dir.join("src/lib.rs");
            let lib_rs = std::fs::read_to_string(&path).expect(krate);
            assert_eq!(declared_lints(&lib_rs), want, "{}", path.display());
            if ["geo", "index", "core"].contains(&krate) {
                assert!(lib_rs.contains("\n#![warn(missing_docs)]\n"), "{krate}: missing_docs");
            }
        }
        // A new library crate has to choose its row.
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
            let dir = entry.expect("entry").path();
            let name = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
            assert!(
                !dir.join("src/lib.rs").is_file() || CLIPPY_POLICY.iter().any(|(k, _)| *k == name),
                "crates/{name} has a lib.rs but no CLIPPY_POLICY row"
            );
        }
    }
}
