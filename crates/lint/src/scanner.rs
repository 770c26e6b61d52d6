//! Source preprocessing: comment/string masking, allow tracking,
//! `#[cfg(test)]` region detection, and file classification.
//!
//! Every rule works on a [`Prepared`] view of one file: the masked text
//! keeps byte offsets per line identical to the original (comments and
//! literal contents become spaces), so diagnostics point at real columns,
//! while the side tables carry what the masking pass learned on the way —
//! which lines carry `trass-lint: allow(...)` escapes (and which of those
//! name no rule), which string literals exist (the drift analysis needs
//! their *contents*, which the mask erases), and which lines sit inside
//! `#[cfg(test)]` items.

use crate::rules::Rule;
use std::collections::BTreeSet;
use std::path::Path;

/// A source file after comment/string stripping, with the side tables the
/// rules need. Line numbers are 1-based throughout.
pub struct Prepared {
    /// Source with comment bodies, string/char literal contents, and their
    /// delimiters replaced by spaces. Newlines are preserved, so byte
    /// offsets per line match the original.
    pub masked_lines: Vec<String>,
    /// `(line, rule)` pairs from `trass-lint: allow(...)` comments.
    pub allows: BTreeSet<(usize, Rule)>,
    /// `(line, name)` of every name in an `allow(...)` that is no rule's.
    pub unknown_allows: Vec<(usize, String)>,
    /// Lines inside a `#[cfg(test)]` item (the attribute's braced body).
    pub test_lines: Vec<bool>,
    /// `(line, contents)` of every string literal outside comments, in
    /// source order. Raw strings included; escape sequences are kept
    /// verbatim (the consumers only pattern-match identifiers).
    pub literals: Vec<(usize, String)>,
}

impl Prepared {
    /// Whether `line` is inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// An allow on the diagnostic's own line or the line directly above
    /// suppresses it.
    pub fn is_allowed(&self, line: usize, rule: Rule) -> bool {
        self.allows.contains(&(line, rule)) || (line > 1 && self.allows.contains(&(line - 1, rule)))
    }
}

/// Strips comments and literals while recording allows, then
/// marks `#[cfg(test)]` regions by brace matching on the masked text.
pub fn prepare(source: &str) -> Prepared {
    let masked = mask(source);
    let masked_lines: Vec<String> = masked.text.lines().map(|l| l.to_string()).collect();
    let n_lines = masked_lines.len().max(1);
    let mut test_lines = vec![false; n_lines];

    // `#[cfg(test)]` starts a pending region that binds to the next brace
    // block; a `;` first means the attribute decorated a braceless item.
    let mut depth: usize = 0;
    let mut pending = false;
    let mut test_depth: Option<usize> = None;
    for (i, line) in masked_lines.iter().enumerate() {
        if test_depth.is_some() || line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test")
        {
            if line.contains("#[cfg(test)]") || line.contains("#[cfg(all(test") {
                pending = true;
            }
            test_lines[i] = test_depth.is_some() || pending;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                        test_lines[i] = true;
                    }
                }
                '}' => {
                    if test_depth == Some(depth) {
                        test_depth = None;
                        // The closing line still belongs to the region.
                        test_lines[i] = true;
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' if pending && test_depth.is_none() => pending = false,
                _ => {}
            }
        }
        if test_depth.is_some() {
            test_lines[i] = true;
        }
    }

    Prepared {
        masked_lines,
        allows: masked.allows,
        unknown_allows: masked.unknown_allows,
        test_lines,
        literals: masked.literals,
    }
}

/// What the masking pass returns.
struct Masked {
    text: String,
    allows: BTreeSet<(usize, Rule)>,
    unknown_allows: Vec<(usize, String)>,
    literals: Vec<(usize, String)>,
}

/// The comment/string stripper. Returns the masked text plus the allow and
/// string-literal side tables gathered while walking.
fn mask(source: &str) -> Masked {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut allows = BTreeSet::new();
    let mut unknown_allows = Vec::new();
    let mut literals: Vec<(usize, String)> = Vec::new();
    let mut current_literal: Option<(usize, String)> = None;
    let mut state = State::Normal;
    let mut line = 1usize;
    let mut i = 0usize;
    let at = |j: usize| -> u8 {
        if j < bytes.len() {
            bytes[j]
        } else {
            0
        }
    };
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            if let Some((_, lit)) = current_literal.as_mut() {
                lit.push('\n');
            }
            out.push('\n');
            line += 1;
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == b'/' && at(i + 1) == b'/' {
                    record_allows(&source[i..], line, &mut allows, &mut unknown_allows);
                    state = State::LineComment;
                    out.push(' ');
                    i += 1;
                } else if c == b'/' && at(i + 1) == b'*' {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                } else if c == b'"' {
                    state = State::Str;
                    current_literal = Some((line, String::new()));
                    out.push(' ');
                    i += 1;
                } else if (c == b'r' || (c == b'b' && at(i + 1) == b'r'))
                    && !is_ident_byte(if i > 0 { bytes[i - 1] } else { 0 })
                {
                    // Possible raw string: r"..", r#".."#, br#".."#.
                    let mut j = i + if c == b'b' { 2 } else { 1 };
                    let mut hashes = 0;
                    while at(j) == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if at(j) == b'"' {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        current_literal = Some((line, String::new()));
                        state = State::RawStr(hashes);
                    } else {
                        out.push(c as char);
                        i += 1;
                    }
                } else if c == b'\'' {
                    // Char literal vs lifetime/label: 'x' or '\n' is a
                    // literal; 'ident not followed by a quote is a lifetime.
                    if at(i + 1) == b'\\' || (at(i + 2) == b'\'' && at(i + 1) != b'\'') {
                        state = State::Char;
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(c as char);
                    i += 1;
                }
            }
            State::LineComment => {
                out.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'*' && at(i + 1) == b'/' {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    state = if depth == 1 { State::Normal } else { State::BlockComment(depth - 1) };
                } else if c == b'/' && at(i + 1) == b'*' {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == b'\\' {
                    if let Some((_, lit)) = current_literal.as_mut() {
                        lit.push('\\');
                        if at(i + 1) != b'\n' && at(i + 1) != 0 {
                            lit.push(at(i + 1) as char);
                        }
                    }
                    out.push(' ');
                    if at(i + 1) != b'\n' {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == b'"' {
                    if let Some(lit) = current_literal.take() {
                        literals.push(lit);
                    }
                    out.push(' ');
                    i += 1;
                    state = State::Normal;
                } else {
                    if let Some((_, lit)) = current_literal.as_mut() {
                        lit.push(c as char);
                    }
                    out.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && at(j) == b'#' {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        if let Some(lit) = current_literal.take() {
                            literals.push(lit);
                        }
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        state = State::Normal;
                        continue;
                    }
                }
                if let Some((_, lit)) = current_literal.as_mut() {
                    lit.push(c as char);
                }
                out.push(' ');
                i += 1;
            }
            State::Char => {
                if c == b'\\' && i + 1 < bytes.len() {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if c == b'\'' {
                    out.push(' ');
                    i += 1;
                    state = State::Normal;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    if let Some(lit) = current_literal.take() {
        // Unterminated literal at EOF: keep what we saw.
        literals.push(lit);
    }
    Masked { text: out, allows, unknown_allows, literals }
}

/// Parses `trass-lint: allow(a, b)` out of a comment's text; a name that
/// is no rule's goes to `unknown`.
fn record_allows(
    comment: &str,
    line: usize,
    allows: &mut BTreeSet<(usize, Rule)>,
    unknown: &mut Vec<(usize, String)>,
) {
    let comment = match comment.find('\n') {
        Some(end) => &comment[..end],
        None => comment,
    };
    let Some(tag) = comment.find("trass-lint:") else { return };
    let rest = &comment[tag + "trass-lint:".len()..];
    let Some(open) = rest.find("allow(") else { return };
    let rest = &rest[open + "allow(".len()..];
    let Some(close) = rest.find(')') else { return };
    for name in rest[..close].split(',').map(str::trim) {
        match Rule::from_name(name) {
            Some(rule) => {
                allows.insert((line, rule));
            }
            None => unknown.push((line, name.to_string())),
        }
    }
}

/// Whether a byte can be part of an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

/// What the path tells us about a file, driving rule scoping.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path, for diagnostics.
    pub rel_path: String,
    /// Crate short name: `kv`, `core`, ... or `trass` for the root package.
    pub krate: String,
    /// Binary targets (`src/bin/*`, `main.rs`) are exempt from lib rules.
    pub is_bin: bool,
    /// Files under a `tests/` or `benches/` directory are all-test.
    pub is_test_file: bool,
}

impl FileInfo {
    /// Classifies a path relative to the workspace root.
    pub fn classify(rel: &Path) -> Option<FileInfo> {
        let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
        if parts.last().map(|f| f.ends_with(".rs")) != Some(true) {
            return None;
        }
        let (krate, rest) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
            (parts[1].to_string(), &parts[2..])
        } else {
            ("trass".to_string(), &parts[..])
        };
        let is_test_file = rest.first() == Some(&"tests") || rest.first() == Some(&"benches");
        let is_bin = rest.contains(&"bin")
            || rest.last() == Some(&"main.rs")
            || rest.first() == Some(&"examples");
        Some(FileInfo { rel_path: rel.to_string_lossy().into_owned(), krate, is_bin, is_test_file })
    }

    /// The file name without extension (`store` for `crates/kv/src/store.rs`),
    /// used to qualify lock declarations.
    pub fn file_stem(&self) -> &str {
        let name = self.rel_path.rsplit('/').next().unwrap_or(&self.rel_path);
        name.strip_suffix(".rs").unwrap_or(name)
    }
}

/// One source file prepared for analysis: classification plus the masked
/// view. The per-file rules consume these one at a time; the cross-file
/// analyses see the whole slice at once.
pub struct PreparedFile {
    /// Path-derived classification.
    pub info: FileInfo,
    /// Masked source + side tables.
    pub prep: Prepared,
}

impl PreparedFile {
    /// Prepares a single in-memory source, classified as `info`.
    pub fn new(info: FileInfo, source: &str) -> PreparedFile {
        PreparedFile { info, prep: prepare(source) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_literal_contents_are_recorded_with_lines() {
        let src = "fn f() {\n    let a = \"alpha\";\n    let b = r#\"beta\"#;\n}\n";
        let prep = prepare(src);
        assert_eq!(prep.literals, vec![(2, "alpha".into()), (3, "beta".into())]);
        // And the masked text no longer contains them.
        assert!(!prep.masked_lines[1].contains("alpha"));
        assert!(!prep.masked_lines[2].contains("beta"));
    }

    #[test]
    fn literals_inside_comments_are_not_recorded() {
        let src = "// \"not a literal\"\n/* \"nor this\" */\nfn f() {}\n";
        let prep = prepare(src);
        assert!(prep.literals.is_empty());
    }

    #[test]
    fn escapes_are_kept_verbatim_in_literals() {
        let src = "fn f() { let _ = \"a\\\"b\"; }\n";
        let prep = prepare(src);
        assert_eq!(prep.literals, vec![(1, "a\\\"b".into())]);
    }

    #[test]
    fn classify_detects_crate_bin_and_test_files() {
        let lib = FileInfo::classify(Path::new("crates/kv/src/store.rs")).unwrap();
        assert_eq!(lib.krate, "kv");
        assert!(!lib.is_bin && !lib.is_test_file);
        assert_eq!(lib.file_stem(), "store");
        let bin = FileInfo::classify(Path::new("crates/bench/src/bin/repro.rs")).unwrap();
        assert!(bin.is_bin);
        let test = FileInfo::classify(Path::new("crates/kv/tests/parallel.rs")).unwrap();
        assert!(test.is_test_file);
        let root = FileInfo::classify(Path::new("src/lib.rs")).unwrap();
        assert_eq!(root.krate, "trass");
        assert!(FileInfo::classify(Path::new("crates/kv/Cargo.toml")).is_none());
    }
}
