//! The project rule set: the four checks neither rustc nor clippy has a
//! lint for.
//!
//! Per-file rules ([`lint_file`]) see one [`PreparedFile`] at a time and
//! fire on lines; cross-file analyses ([`lint_cross_file`]) see the whole
//! prepared workspace (plus the docs/CI text the drift analysis
//! cross-references) and fire on global properties — lock-graph cycles,
//! knob/metric drift. Adding a rule means: a variant here (name +
//! `applies_to` scope), a check in the matching module, fixture tests in
//! that module, and a row in the README/DESIGN rule tables. A check the
//! toolchain can express does not belong here: it goes into the crate's
//! `#![cfg_attr(not(test), warn(clippy::…))]` line and the policy table of
//! `main.rs`'s self-test.

pub mod drift;
pub mod lock_io;
pub mod lock_order;
pub mod panic_surface;

use crate::scanner::PreparedFile;
use std::fmt;

/// The project rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Lock guard live across blocking calls (I/O, scans, pool fan-out,
    /// channel recv, joins).
    LockAcrossIo,
    /// `assert!`, range-slice indexing, and integer `/`-`%` by non-literal
    /// divisors in library code.
    PanicSurface,
    /// Inconsistent global lock-acquisition order (cycle in the workspace
    /// lock graph) or re-entrant acquisition of one lock.
    LockOrder,
    /// Config-knob / metric-name drift between code, docs, tests, and CI.
    Drift,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 4] =
    [Rule::LockAcrossIo, Rule::PanicSurface, Rule::LockOrder, Rule::Drift];

impl Rule {
    /// The name used in diagnostics and `allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockAcrossIo => "lock-across-io",
            Rule::PanicSurface => "panic-surface",
            Rule::LockOrder => "lock-order",
            Rule::Drift => "drift",
        }
    }

    /// Parses a rule name (as used in `allow(...)` comments).
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Does this rule apply to library (non-bin, non-test) code of `krate`?
    pub fn applies_to(self, krate: &str) -> bool {
        match self {
            Rule::LockAcrossIo | Rule::LockOrder => {
                matches!(krate, "kv" | "exec" | "obs" | "core" | "server")
            }
            Rule::PanicSurface => {
                matches!(krate, "kv" | "core" | "index" | "exec" | "obs" | "server")
            }
            // This crate's fixtures and docs spell knob and metric names.
            Rule::Drift => krate != "lint",
        }
    }
}

/// One finding: where, which rule, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line. Cross-file findings that have no single line use the
    /// primary acquisition/declaration site.
    pub line: usize,
    /// Which rule fired; `None` for an `allow(...)` comment naming no
    /// existing rule, which belongs to no rule and cannot be allowed.
    pub rule: Option<Rule>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = self.rule.map_or("allow", Rule::name);
        write!(f, "{}:{}: [{rule}] {}", self.path, self.line, self.message)
    }
}

/// Lints one file's source, returning its (unsuppressed) per-file findings.
pub fn lint_file(file: &PreparedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let info = &file.info;
    let prep = &file.prep;
    let in_scope =
        |rule: Rule| -> bool { rule.applies_to(&info.krate) && !info.is_bin && !info.is_test_file };

    if in_scope(Rule::PanicSurface) {
        panic_surface::check(info, prep, &mut out);
    }
    if in_scope(Rule::LockAcrossIo) {
        lock_io::check(info, prep, &mut out);
    }
    // An allow that names no rule suppresses nothing and says nothing: a
    // typo, or a leftover of a rule that moved to clippy. Test and binary
    // files count too; only this crate's own docs spell the syntax.
    if info.krate != "lint" {
        let known = ALL_RULES.map(Rule::name).join(", ");
        for (line, name) in &prep.unknown_allows {
            out.push(Diagnostic {
                path: info.rel_path.clone(),
                line: *line,
                rule: None,
                message: format!("unknown rule in allow: `{name}` (rules: {known})"),
            });
        }
    }
    out
}

/// Runs the cross-file analyses over the prepared workspace. `docs` carries
/// the non-Rust text the drift analysis cross-references (README, DESIGN,
/// CI workflows).
pub fn lint_cross_file(files: &[PreparedFile], docs: &drift::DocSet) -> Vec<Diagnostic> {
    let mut out = lock_order::check(files);
    out.extend(drift::check(files, docs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileInfo;

    #[test]
    fn rule_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn rules_scope_to_the_concurrent_crates() {
        for krate in ["kv", "exec", "obs", "core", "server"] {
            assert!(Rule::LockOrder.applies_to(krate), "{krate}");
            assert!(Rule::LockAcrossIo.applies_to(krate), "{krate}");
        }
        assert!(!Rule::LockOrder.applies_to("geo"));
        assert!(Rule::PanicSurface.applies_to("kv"));
        assert!(Rule::PanicSurface.applies_to("server"));
        assert!(!Rule::PanicSurface.applies_to("traj"));
        assert!(!Rule::Drift.applies_to("lint"));
    }

    #[test]
    fn allow_naming_an_unknown_rule_is_a_finding() {
        // The five rules that became clippy lints are unknown names now,
        // in every kind of file of every crate but this one.
        let test_file = FileInfo {
            rel_path: "crates/geo/tests/fixture.rs".into(),
            krate: "geo".into(),
            is_bin: false,
            is_test_file: true,
        };
        for retired in ["unwrap", "cast", "float-eq", "pub-doc", "no-print"] {
            assert_eq!(Rule::from_name(retired), None, "{retired}");
            let src = format!("fn f() {{}}\n// why: trass-lint: allow(drift, {retired})\n");
            let diags = lint_file(&PreparedFile::new(test_file.clone(), &src));
            let listing: Vec<String> = diags.iter().map(ToString::to_string).collect();
            assert_eq!(
                listing,
                vec![format!(
                    "crates/geo/tests/fixture.rs:2: [allow] unknown rule in allow: `{retired}` \
                     (rules: lock-across-io, panic-surface, lock-order, drift)"
                )]
            );
            assert_eq!(diags[0].rule, None);
            let own = FileInfo { krate: "lint".into(), ..test_file.clone() };
            assert!(lint_file(&PreparedFile::new(own, &src)).is_empty());
        }
    }
}
