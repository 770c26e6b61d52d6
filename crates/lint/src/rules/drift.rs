//! `drift`: knob and metric drift between code, docs, tests, and CI.
//!
//! Two families of names tie the running system to its documentation:
//!
//! * **Env knobs** — `TRASS_*` environment variables read by the code.
//!   Every knob the code reads must appear in README.md or DESIGN.md
//!   (undocumented knobs are invisible to operators); every knob the
//!   docs mention must be read by the code (dead docs mislead); every
//!   knob CI sets must exist (a typo in a workflow silently tests
//!   nothing).
//! * **Metrics** — `trass_*` series names registered with the obs
//!   registry. Every produced metric must be documented; every
//!   documented metric must be produced; every metric a test or CI grep
//!   asserts on must be produced (otherwise the assertion can only pass
//!   vacuously or by luck).
//!
//! Sources: code names come from the string-literal side table the
//! scanner keeps (masking erases literal contents from the rule view);
//! lib literals count as read/produced, `#[cfg(test)]` regions and
//! `tests/` files count as asserted, and workflow YAML counts as both
//! asserted (greps) and CI-set (env). Doc tokens ending in `_` (written
//! `trass_kv_*` in prose) act as prefix wildcards. Histogram suffixes
//! `_bucket`/`_count`/`_sum` normalize away before the asserted check.

use super::{Diagnostic, Rule};
use crate::scanner::{is_ident_byte, PreparedFile};
use std::collections::{BTreeMap, BTreeSet};

/// The non-Rust text drift cross-references.
#[derive(Default)]
pub struct DocSet {
    /// Contents of `README.md` (empty if absent).
    pub readme: String,
    /// Contents of `DESIGN.md` (empty if absent).
    pub design: String,
    /// `(path, contents)` of each CI workflow file.
    pub workflows: Vec<(String, String)>,
}

/// One name occurrence: where it was seen.
#[derive(Clone)]
struct Site {
    path: String,
    line: usize,
}

/// A documented name; `prefix` names written `foo_*` match by prefix.
struct DocEntry {
    name: String,
    prefix: bool,
    site: Site,
}

/// Runs the analysis over the prepared workspace plus doc text.
pub fn check(files: &[PreparedFile], docs: &DocSet) -> Vec<Diagnostic> {
    // The workspace's own crate identifiers (`trass_obs`, `trass_core`,
    // ...) appear in docs as code paths; they are not metric names.
    let crate_idents: BTreeSet<String> =
        files.iter().map(|f| format!("trass_{}", f.info.krate)).collect();
    let knobs = NameSets::collect(files, docs, "TRASS_", true, &BTreeSet::new());
    let metrics = NameSets::collect(files, docs, "trass_", false, &crate_idents);
    let mut out = Vec::new();

    // Knob checks.
    for (name, site) in &knobs.code {
        if !knobs.documented(name) {
            out.push(diag(
                site,
                format!(
                "env knob `{name}` is read by the code but not documented in README.md or DESIGN.md"
            ),
            ));
        }
    }
    for entry in &knobs.doc_entries {
        if !entry.prefix && !knobs.in_code(&entry.name) {
            out.push(diag(
                &entry.site,
                format!(
                    "env knob `{}` is documented but never read by the code (dead knob or typo)",
                    entry.name
                ),
            ));
        }
    }
    for (name, site) in &knobs.ci {
        if !knobs.in_code(name) {
            out.push(diag(
                site,
                format!("CI references env knob `{name}` that no code reads (typo tests nothing)"),
            ));
        }
    }

    // Metric checks.
    for (name, site) in &metrics.code {
        if !metrics.documented(name) {
            out.push(diag(
                site,
                format!("metric `{name}` is produced but not documented in README.md or DESIGN.md"),
            ));
        }
    }
    for entry in &metrics.doc_entries {
        if !entry.prefix
            && !metrics.in_code(&entry.name)
            && !metrics.in_code(normalize(&entry.name))
        {
            out.push(diag(
                &entry.site,
                format!("metric `{}` is documented but never produced by the code", entry.name),
            ));
        }
    }
    for (name, site) in &metrics.asserted {
        if !metrics.in_code(name) && !metrics.in_code(normalize(name)) {
            out.push(diag(
                site,
                format!("tests or CI assert on metric `{name}` that no code produces"),
            ));
        }
    }
    out
}

fn diag(site: &Site, message: String) -> Diagnostic {
    Diagnostic { path: site.path.clone(), line: site.line, rule: Some(Rule::Drift), message }
}

/// Strips histogram-export suffixes so `x_seconds_bucket` matches the
/// registered `x_seconds`.
fn normalize(name: &str) -> &str {
    for suffix in ["_bucket", "_count", "_sum"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

/// All occurrence sets for one name family (knobs or metrics).
struct NameSets {
    /// Read/produced by non-test code: first site per name.
    code: BTreeMap<String, Site>,
    /// Dynamic `format!("trass_kv_{}_x")`-style producers: trailing-`_`
    /// code literals act as produced prefixes.
    code_prefixes: Vec<String>,
    /// Asserted by test code or workflow greps.
    asserted: BTreeMap<String, Site>,
    /// Referenced by CI workflows (env or greps).
    ci: BTreeMap<String, Site>,
    /// Documented in README/DESIGN.
    doc_entries: Vec<DocEntry>,
}

impl NameSets {
    fn collect(
        files: &[PreparedFile],
        docs: &DocSet,
        prefix: &str,
        upper: bool,
        skip: &BTreeSet<String>,
    ) -> NameSets {
        let mut sets = NameSets {
            code: BTreeMap::new(),
            code_prefixes: Vec::new(),
            asserted: BTreeMap::new(),
            ci: BTreeMap::new(),
            doc_entries: Vec::new(),
        };
        for f in files {
            if !Rule::Drift.applies_to(&f.info.krate) {
                continue; // the lint crate's own fixtures are not the system
            }
            for (line, literal) in &f.prep.literals {
                for (name, _) in scan(literal, prefix, upper) {
                    if skip.contains(&name) {
                        continue;
                    }
                    let site = Site { path: f.info.rel_path.clone(), line: *line };
                    let is_test = f.info.is_test_file || f.prep.is_test_line(*line);
                    if is_test {
                        sets.asserted.entry(name).or_insert(site);
                    } else if f.prep.is_allowed(*line, Rule::Drift) {
                        // An allow on a produced-name literal opts it out.
                    } else if let Some(stripped) = name.strip_suffix('_') {
                        if stripped.len() > prefix.len() {
                            sets.code_prefixes.push(name);
                        }
                    } else {
                        sets.code.entry(name).or_insert(site);
                    }
                }
            }
        }
        for (path, text) in [("README.md", &docs.readme), ("DESIGN.md", &docs.design)] {
            for (name, line) in scan(text, prefix, upper) {
                if skip.contains(&name) {
                    continue;
                }
                let site = Site { path: path.to_string(), line };
                match name.strip_suffix('_') {
                    // `foo_*` in prose scans as `foo_`: a prefix wildcard.
                    Some(stripped) if stripped.len() >= prefix.len() => {
                        sets.doc_entries.push(DocEntry { name, prefix: true, site });
                    }
                    _ => sets.doc_entries.push(DocEntry { name, prefix: false, site }),
                }
            }
        }
        for (path, text) in &docs.workflows {
            for (name, line) in scan(text, prefix, upper) {
                if name.ends_with('_') || skip.contains(&name) {
                    continue; // shell globs / crate idents are not assertions
                }
                let site = Site { path: path.clone(), line };
                sets.ci.entry(name.clone()).or_insert(site.clone());
                sets.asserted.entry(name).or_insert(site);
            }
        }
        sets
    }

    /// Whether the code reads/produces `name`, exactly or via a dynamic
    /// prefix producer.
    fn in_code(&self, name: &str) -> bool {
        self.code.contains_key(name)
            || self.code_prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }

    /// Whether the docs cover `name`, exactly or via a `foo_*` wildcard.
    fn documented(&self, name: &str) -> bool {
        self.doc_entries.iter().any(|e| {
            if e.prefix {
                name.starts_with(&e.name)
            } else {
                e.name == name || normalize(&e.name) == name
            }
        })
    }
}

/// Finds `(token, line)` for every word starting with `prefix` in `text`.
/// Tokens extend over `[A-Z0-9_]` (knobs) or `[a-z0-9_]` (metrics), so a
/// doc's `trass_kv_*` yields the prefix-marking `trass_kv_`.
fn scan(text: &str, prefix: &str, upper: bool) -> Vec<(String, usize)> {
    let ident = |b: u8| -> bool {
        if upper {
            b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'
        } else {
            b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'
        }
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut from = 0;
        while let Some(off) = line[from..].find(prefix) {
            let at = from + off;
            let bounded = at == 0 || !is_ident_byte(bytes[at - 1]);
            let mut end = at + prefix.len();
            while end < bytes.len() && ident(bytes[end]) {
                end += 1;
            }
            if bounded && end > at + prefix.len() {
                out.push((line[at..end].to_string(), i + 1));
            }
            from = end.max(at + prefix.len());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{check, DocSet};
    use crate::rules::Rule;
    use crate::scanner::{FileInfo, PreparedFile};

    fn pf(path: &str, krate: &str, src: &str) -> PreparedFile {
        PreparedFile::new(
            FileInfo {
                rel_path: path.into(),
                krate: krate.into(),
                is_bin: false,
                is_test_file: false,
            },
            src,
        )
    }

    fn docs(readme: &str, workflows: &[(&str, &str)]) -> DocSet {
        DocSet {
            readme: readme.into(),
            design: String::new(),
            workflows: workflows.iter().map(|(p, t)| (p.to_string(), t.to_string())).collect(),
        }
    }

    fn messages(diags: &[crate::rules::Diagnostic]) -> Vec<String> {
        diags
            .iter()
            .map(|d| {
                assert_eq!(d.rule, Some(Rule::Drift));
                format!("{}:{} {}", d.path, d.line, d.message)
            })
            .collect()
    }

    #[test]
    fn undocumented_knob_fires_and_documenting_it_clears() {
        let src = "fn f() -> Option<String> {\n    std::env::var(\"TRASS_FAKE_KNOB\").ok()\n}\n";
        let file = pf("crates/core/src/config.rs", "core", src);
        let found = check(&[file], &docs("nothing here", &[]));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("`TRASS_FAKE_KNOB`"), "{}", found[0].message);
        assert!(found[0].message.contains("not documented"));
        assert_eq!((found[0].path.as_str(), found[0].line), ("crates/core/src/config.rs", 2));

        let file = pf("crates/core/src/config.rs", "core", src);
        let cured = check(&[file], &docs("set `TRASS_FAKE_KNOB` to fake it", &[]));
        assert!(cured.is_empty(), "{:?}", messages(&cured));
    }

    #[test]
    fn dead_documented_knob_and_ci_typo_fire() {
        let src = "fn f() -> Option<String> {\n    std::env::var(\"TRASS_REAL\").ok()\n}\n";
        let d = docs(
            "`TRASS_REAL` works. `TRASS_GHOST` was removed long ago.",
            &[("ci.yml", "env:\n  TRASS_REAL: 1\n  TRASS_TYPO: 2\n")],
        );
        let found = check(&[pf("crates/core/src/config.rs", "core", src)], &d);
        let msgs = messages(&found);
        assert_eq!(found.len(), 2, "{msgs:?}");
        assert!(msgs
            .iter()
            .any(|m| m.contains("`TRASS_GHOST`") && m.contains("documented but never read")));
        assert!(msgs.iter().any(|m| m.contains("`TRASS_TYPO`") && m.contains("no code reads")));
    }

    #[test]
    fn undocumented_metric_fires_and_prefix_wildcard_documents() {
        let src = "fn f(r: &Registry) {\n    r.counter(\"trass_kv_wal_appends_total\");\n    \
                   r.gauge(\"trass_orphan_series\");\n}\n";
        let d = docs("| `trass_kv_*` | kv-store metrics |", &[]);
        let found = check(&[pf("crates/kv/src/store.rs", "kv", src)], &d);
        assert_eq!(found.len(), 1, "{:?}", messages(&found));
        assert!(found[0].message.contains("`trass_orphan_series`"));
        assert!(found[0].message.contains("not documented"));
    }

    #[test]
    fn documented_but_dead_metric_fires_with_doc_site() {
        let src = "fn f(r: &Registry) {\n    r.counter(\"trass_live_total\");\n}\n";
        let d = docs("line one\n`trass_live_total` and `trass_dead_total` here\n", &[]);
        let found = check(&[pf("crates/obs/src/registry.rs", "obs", src)], &d);
        assert_eq!(found.len(), 1, "{:?}", messages(&found));
        assert!(found[0].message.contains("`trass_dead_total`"));
        assert_eq!((found[0].path.as_str(), found[0].line), ("README.md", 2));
    }

    #[test]
    fn asserted_metric_must_be_produced_with_histogram_normalization() {
        let src = "fn f(r: &Registry) {\n    r.timer(\"trass_query_seconds\");\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {\n        \
                   assert!(out.contains(\"trass_query_seconds_bucket\"));\n        \
                   assert!(out.contains(\"trass_vanished_total\"));\n    }\n}\n";
        let d = docs("`trass_query_seconds` and `trass_vanished_total`", &[]);
        let found = check(&[pf("crates/obs/src/registry.rs", "obs", src)], &d);
        let msgs = messages(&found);
        // `_bucket` normalizes to the produced timer; `trass_vanished_total`
        // fires twice: documented-but-dead and asserted-but-dead.
        assert_eq!(found.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("`trass_vanished_total`")));
        assert!(msgs.iter().any(|m| m.contains("never produced")));
        assert!(msgs.iter().any(|m| m.contains("no code produces")));
    }

    #[test]
    fn crate_path_mentions_in_docs_are_not_metrics() {
        // Docs routinely reference `trass_obs::Histogram`-style paths; the
        // crate identifier must not read as a documented-but-dead metric.
        let src = "fn f(r: &Registry) {\n    r.counter(\"trass_queries_total\");\n}\n";
        let d = docs("see `trass_obs::Histogram`; `trass_queries_total` counts queries", &[]);
        let found = check(&[pf("crates/obs/src/registry.rs", "obs", src)], &d);
        assert!(found.is_empty(), "{:?}", messages(&found));
    }

    #[test]
    fn lint_crate_fixtures_and_test_literals_do_not_count_as_produced() {
        // The lint crate's own fixture strings must not register "reads".
        let fixture = "fn f() {\n    let _ = \"TRASS_FIXTURE_ONLY\";\n    \
                       let _ = \"trass_fixture_total\";\n}\n";
        let found = check(&[pf("crates/lint/src/rules/drift.rs", "lint", fixture)], &docs("", &[]));
        assert!(found.is_empty(), "{:?}", messages(&found));
    }

    #[test]
    fn allow_comment_opts_a_literal_out() {
        let src = "fn f() -> Option<String> {\n    \
                   // internal-only escape hatch: trass-lint: allow(drift)\n    \
                   std::env::var(\"TRASS_SECRET_DEBUG\").ok()\n}\n";
        let found = check(&[pf("crates/core/src/config.rs", "core", src)], &docs("", &[]));
        assert!(found.is_empty(), "{:?}", messages(&found));
    }
}
