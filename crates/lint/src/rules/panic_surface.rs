//! `panic-surface`: constructs that can panic at runtime in library code.
//!
//! Three shapes beyond the `.unwrap()`/`.expect(` that
//! `clippy::{unwrap_used, expect_used}` flag in the same crates:
//!
//! 1. `assert!` / `assert_eq!` / `assert_ne!` outside test code — release
//!    builds keep these, so a bad invariant takes the whole query path
//!    down instead of returning an error. `debug_assert*` is exempt.
//! 2. Range-slice indexing `&buf[a..b]` — out-of-range bounds panic;
//!    `.get(a..b)` returns an `Option` instead.
//! 3. Integer `/` or `%` with a non-literal divisor — divide-by-zero
//!    panics. Literal divisors are provably non-zero at review time;
//!    lines in float context (`f32`/`f64`/float literals) never panic.
//!
//! All checks are per-line on masked text; [`check`] applies the test
//! exemption and allows.

use super::{Diagnostic, Rule};
use crate::scanner::{is_ident_byte, FileInfo, Prepared};

/// Checks every line of the file outside `#[cfg(test)]` regions.
pub fn check(info: &FileInfo, prep: &Prepared, out: &mut Vec<Diagnostic>) {
    for (idx, masked) in prep.masked_lines.iter().enumerate() {
        let line = idx + 1;
        if prep.is_test_line(line) || prep.is_allowed(line, Rule::PanicSurface) {
            continue;
        }
        for message in check_line(masked) {
            let rule = Some(Rule::PanicSurface);
            out.push(Diagnostic { path: info.rel_path.clone(), line, rule, message });
        }
    }
}

/// Returns one message per panic-surface construct on this masked line.
fn check_line(masked: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(mac) = bare_assert(masked) {
        out.push(format!(
            "`{mac}` in library code; return an error or use `debug_assert!` for \
             debug-only invariants"
        ));
    }
    if range_slice_index(masked) {
        out.push(
            "range-slice indexing can panic on out-of-range bounds; use `.get(a..b)` \
             or justify with an allow"
                .into(),
        );
    }
    if let Some(op) = int_div_non_literal(masked) {
        out.push(format!(
            "integer `{op}` with a non-literal divisor can panic on zero; use \
             `checked_{}` or justify with an allow",
            if op == '/' { "div" } else { "rem" }
        ));
    }
    out
}

/// Finds a non-debug `assert!`-family macro call.
fn bare_assert(masked: &str) -> Option<&'static str> {
    for mac in ["assert!", "assert_eq!", "assert_ne!"] {
        let mut from = 0;
        while let Some(off) = masked[from..].find(mac) {
            let at = from + off;
            // Word boundary on the left rejects `debug_assert!` and any
            // `my_assert!` helper.
            let bounded = at == 0 || !is_ident_byte(masked.as_bytes()[at - 1]);
            if bounded {
                return Some(mac);
            }
            from = at + mac.len();
        }
    }
    None
}

/// Keywords that can directly precede a `[` without it being an index
/// expression (slice patterns, array types in turbofish-free positions).
const NON_INDEX_PREFIX: [&str; 7] = ["let", "in", "ref", "mut", "as", "else", "return"];

/// Detects `expr[..contains range..]` indexing: a `[` whose preceding token
/// is an indexable expression tail (identifier, `)`, `]`) and whose bracket
/// body contains `..` with at least one bound (`[..]` cannot panic).
fn range_slice_index(masked: &str) -> bool {
    let bytes = masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Preceding non-space byte decides whether this is indexing.
        let mut j = i;
        let mut prev = None;
        while j > 0 {
            j -= 1;
            if bytes[j] != b' ' {
                prev = Some((j, bytes[j]));
                break;
            }
        }
        let Some((pj, pb)) = prev else { continue };
        if pb == b')' || pb == b']' {
            // fall through: call/index result being sliced
        } else if is_ident_byte(pb) {
            // Walk the identifier back; keywords mean pattern/type position.
            let mut s = pj;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            let word = &masked[s..=pj];
            if NON_INDEX_PREFIX.contains(&word) {
                continue;
            }
        } else {
            continue;
        }
        // Find the matching close bracket on this line.
        let mut depth = 1usize;
        let mut k = i + 1;
        while k < bytes.len() {
            match bytes[k] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let Some(inner) = masked.get(i + 1..k.min(masked.len())) else { continue };
        let inner = inner.trim();
        if inner.contains("..") && inner != ".." {
            return true;
        }
    }
    false
}

/// Detects integer `/` or `%` (including `/=`, `%=`) whose divisor is not a
/// numeric literal. Lines in float context are skipped entirely.
fn int_div_non_literal(masked: &str) -> Option<char> {
    if masked.contains("f64") || masked.contains("f32") || has_float_literal(masked) {
        return None;
    }
    let bytes = masked.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        let op = match b {
            b'/' => '/',
            b'%' => '%',
            _ => continue,
        };
        // Defensive: skip `//`, `*/`, `/*` runs (masked text should not
        // contain comments, but stay safe on pathological input).
        if op == '/' {
            let neighbor = |j: Option<&u8>| matches!(j, Some(b'/') | Some(b'*'));
            if neighbor(bytes.get(i + 1)) || (i > 0 && neighbor(bytes.get(i - 1))) {
                continue;
            }
        }
        let mut j = i + 1;
        if bytes.get(j) == Some(&b'=') {
            j += 1; // `/=` / `%=` compound assignment
        }
        while bytes.get(j) == Some(&b' ') {
            j += 1;
        }
        match bytes.get(j) {
            Some(c) if c.is_ascii_digit() => continue, // literal divisor
            Some(c) if is_ident_byte(*c) || matches!(*c, b'(' | b'*' | b'&') => return Some(op),
            _ => continue,
        }
    }
    None
}

/// Whether the line contains a `1.5`-style float literal.
fn has_float_literal(s: &str) -> bool {
    let b = s.as_bytes();
    (1..b.len()).any(|i| {
        b[i] == b'.'
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1).map(u8::is_ascii_digit) == Some(true)
    })
}

#[cfg(test)]
mod tests {
    use crate::rules::{lint_file, Rule};
    use crate::scanner::{FileInfo, PreparedFile};

    fn info_for(krate: &str) -> FileInfo {
        FileInfo {
            rel_path: format!("crates/{krate}/src/fixture.rs"),
            krate: krate.into(),
            is_bin: false,
            is_test_file: false,
        }
    }

    fn fired(krate: &str, src: &str) -> Vec<(usize, Rule)> {
        lint_file(&PreparedFile::new(info_for(krate), src))
            .into_iter()
            .map(|d| (d.line, d.rule.expect("a rule finding")))
            .collect()
    }

    #[test]
    fn assert_macros_fire_in_lib_code() {
        let src = "fn f(x: u8) {\n    assert!(x > 0);\n    assert_eq!(x, 1);\n    \
                   debug_assert!(x < 9);\n}\n";
        assert_eq!(
            fired("kv", src),
            vec![(2, Rule::PanicSurface), (3, Rule::PanicSurface)],
            "assert! and assert_eq! fire; debug_assert! is exempt"
        );
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        assert!(true);\n    }\n}\n";
        assert!(fired("kv", test_src).is_empty());
    }

    #[test]
    fn range_slice_indexing_fires_but_get_and_patterns_do_not() {
        let slice = "fn f(b: &[u8], n: usize) -> &[u8] {\n    &b[1..n]\n}\n";
        assert_eq!(fired("core", slice), vec![(2, Rule::PanicSurface)]);
        let get = "fn f(b: &[u8], n: usize) -> Option<&[u8]> {\n    b.get(1..n)\n}\n";
        assert!(fired("core", get).is_empty());
        let full = "fn f(b: &[u8]) -> &[u8] {\n    &b[..]\n}\n";
        assert!(fired("core", full).is_empty(), "full-range slice cannot panic");
        let pattern = "fn f(b: &[u8; 4]) -> u8 {\n    let [first, ..] = *b;\n    first\n}\n";
        assert!(fired("core", pattern).is_empty(), "slice pattern is not indexing");
    }

    #[test]
    fn plain_single_element_indexing_is_not_flagged() {
        // Only *range* slicing is in scope for this rule; plain `b[i]`
        // stays legal (flagging it would drown the signal).
        let src = "fn f(b: &[u8], i: usize) -> u8 {\n    b[i]\n}\n";
        assert!(fired("core", src).is_empty());
    }

    #[test]
    fn integer_division_by_non_literal_fires_and_float_context_is_exempt() {
        let int_div = "fn f(a: u64, n: u64) -> u64 {\n    a / n\n}\n";
        assert_eq!(fired("index", int_div), vec![(2, Rule::PanicSurface)]);
        let int_rem = "fn f(a: u64, n: u64) -> u64 {\n    a % n\n}\n";
        assert_eq!(fired("index", int_rem), vec![(2, Rule::PanicSurface)]);
        let lit_div = "fn f(a: u64) -> u64 {\n    a / 2\n}\n";
        assert!(fired("index", lit_div).is_empty());
        // Float context is judged per line: the divisor line must carry
        // the `f64`/`f32`/float-literal marker itself.
        let float = "fn f(a: u64, n: u64) -> f64 {\n    a as f64 / n as f64\n}\n";
        assert!(fired("exec", float).is_empty(), "f64 context cannot panic");
        let float_lit = "fn f(a: u64) -> u64 {\n    ((a as u64) * 3) / 4\n}\n";
        assert!(fired("exec", float_lit).is_empty(), "literal divisor stays legal");
    }

    #[test]
    fn allow_comment_suppresses_same_line_and_next_line_only() {
        let allow = "// n >= 1: trass-lint: allow(panic-surface)";
        let same = format!("fn f(a: u64, n: u64) -> u64 {{\n    a % n {allow}\n}}\n");
        assert!(fired("kv", &same).is_empty());
        let above = format!("fn f(a: u64, n: u64) -> u64 {{\n    {allow}\n    a % n\n}}\n");
        assert!(fired("kv", &above).is_empty());
        let two_up = format!("fn f(a: u64, n: u64) -> u64 {{\n    {allow}\n\n    a % n\n}}\n");
        assert_eq!(fired("kv", &two_up), vec![(4, Rule::PanicSurface)]);
        let wrong_rule =
            "fn f(a: u64, n: u64) -> u64 {\n    a % n // trass-lint: allow(drift)\n}\n";
        assert_eq!(fired("kv", wrong_rule), vec![(2, Rule::PanicSurface)]);
    }

    #[test]
    fn out_of_scope_crates_bins_and_test_files_are_exempt() {
        let src = "fn f(x: u8) {\n    assert!(x > 0);\n}\n";
        assert_eq!(fired("kv", src), vec![(2, Rule::PanicSurface)]);
        assert!(fired("traj", src).is_empty());
        for (is_bin, is_test_file) in [(true, false), (false, true)] {
            let info = FileInfo { is_bin, is_test_file, ..info_for("kv") };
            assert!(lint_file(&PreparedFile::new(info, src)).is_empty());
        }
    }

    #[test]
    fn comments_strings_raw_strings_and_doc_examples_do_not_fire() {
        let src = "/// ```\n/// assert!(f().is_empty());\n/// ```\nfn f() -> &'static str {\n    \
                   // an assert!(x) here would be bad\n    /* &b[1..n] */\n    \
                   let _r = r#\"assert!(\"x\")\"#;\n    let _c = '/';\n    \"a / n; assert!(y)\"\n}\n";
        assert!(fired("kv", src).is_empty());
    }
}
