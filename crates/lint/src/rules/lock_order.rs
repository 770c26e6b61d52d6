//! `lock-order`: global lock-acquisition-order analysis.
//!
//! Phase 1 collects every named `Mutex`/`RwLock` declaration (struct
//! fields and statics) in the concurrent crates; a lock's identity is
//! `crate::file_stem.field`, which keeps same-named fields in different
//! modules distinct. Phase 2 walks each function's masked lines with the
//! same guard-liveness model as `lock-across-io` and records an edge
//! `A -> B` whenever lock `B` is acquired while a guard of `A` is live,
//! remembering both acquisition sites. Phase 3 reports:
//!
//! * re-entrant acquisition (`A` acquired while `A` is already held) —
//!   a guaranteed self-deadlock with `std::sync` primitives;
//! * cycles in the global edge graph — two threads taking the locks in
//!   opposite orders can each hold one and wait forever on the other.
//!
//! Acquisition receivers resolve conservatively: a `x.lock()` receiver
//! must match a declared lock field in the same file, or be unique across
//! the crate; ambiguous or unknown receivers are skipped rather than
//! guessed, so every finding names two concrete source sites.

use super::{Diagnostic, Rule};
use crate::rules::lock_io::guard_binding;
use crate::scanner::{is_ident_byte, PreparedFile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One named lock declaration.
struct Decl {
    /// `crate::file_stem.field`
    node: String,
    file_idx: usize,
    krate: String,
    field: String,
}

/// Both sites of one ordered acquisition `from -> to`.
#[derive(Clone)]
struct EdgeSites {
    from_path: String,
    from_line: usize,
    to_path: String,
    to_line: usize,
}

/// Runs the analysis over the prepared workspace.
pub fn check(files: &[PreparedFile]) -> Vec<Diagnostic> {
    let in_scope = |i: usize| -> bool {
        let info = &files[i].info;
        Rule::LockOrder.applies_to(&info.krate) && !info.is_bin && !info.is_test_file
    };

    // Phase 1: lock declarations.
    let mut decls: Vec<Decl> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        if !in_scope(i) {
            continue;
        }
        for (idx, masked) in f.prep.masked_lines.iter().enumerate() {
            if f.prep.is_test_line(idx + 1) {
                continue;
            }
            if let Some(field) = decl_field(masked) {
                decls.push(Decl {
                    node: format!("{}::{}.{}", f.info.krate, f.info.file_stem(), field),
                    file_idx: i,
                    krate: f.info.krate.clone(),
                    field,
                });
            }
        }
    }
    // Resolution tables: same-file first, then unique-in-crate.
    let mut by_file: BTreeMap<(usize, &str), &str> = BTreeMap::new();
    let mut by_crate: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
    for d in &decls {
        by_file.entry((d.file_idx, &d.field)).or_insert(&d.node);
        by_crate.entry((&d.krate, &d.field)).or_default().push(&d.node);
    }
    let resolve = |file_idx: usize, receiver: &str| -> Option<String> {
        if let Some(node) = by_file.get(&(file_idx, receiver)) {
            return Some((*node).to_string());
        }
        let krate = files[file_idx].info.krate.as_str();
        match by_crate.get(&(krate, receiver)).map(Vec::as_slice) {
            Some([only]) => Some((*only).to_string()),
            _ => None, // unknown or ambiguous: skip, never guess
        }
    };

    // Phase 2: per-function acquisition sequences -> global edges.
    struct Guard {
        name: String,
        node: String,
        depth: usize,
        line: usize,
    }
    let mut out = Vec::new();
    let mut edges: BTreeMap<(String, String), EdgeSites> = BTreeMap::new();
    for (i, f) in files.iter().enumerate() {
        if !in_scope(i) {
            continue;
        }
        let path = &f.info.rel_path;
        let mut depth = 0usize;
        let mut guards: Vec<Guard> = Vec::new();
        for (idx, masked) in f.prep.masked_lines.iter().enumerate() {
            let line = idx + 1;
            if !f.prep.is_test_line(line) {
                let allowed = f.prep.is_allowed(line, Rule::LockOrder);
                let mut first_node: Option<String> = None;
                for (_, receiver) in acquisitions(masked) {
                    let Some(node) = resolve(i, receiver) else { continue };
                    if !allowed {
                        for g in &guards {
                            if g.node == node {
                                out.push(Diagnostic {
                                    path: path.clone(),
                                    line,
                                    rule: Some(Rule::LockOrder),
                                    message: format!(
                                        "lock `{node}` re-acquired while already held (guard \
                                         `{}` since line {}); std sync locks self-deadlock here",
                                        g.name, g.line
                                    ),
                                });
                            } else {
                                edges.entry((g.node.clone(), node.clone())).or_insert_with(|| {
                                    EdgeSites {
                                        from_path: path.clone(),
                                        from_line: g.line,
                                        to_path: path.clone(),
                                        to_line: line,
                                    }
                                });
                            }
                        }
                    }
                    if first_node.is_none() {
                        first_node = Some(node);
                    }
                }
                // A `let g = ....lock()` binding keeps the first resolved
                // acquisition live; transient acquisitions end with the
                // statement.
                if let (Some(node), Some(name)) = (first_node, guard_binding(masked)) {
                    guards.push(Guard { name: name.to_string(), node, depth, line });
                }
                guards.retain(|g| !masked.contains(&format!("drop({})", g.name)));
            }
            for c in masked.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        guards.retain(|g| g.depth <= depth);
                    }
                    _ => {}
                }
            }
        }
    }

    // Phase 3: cycles. For every edge A -> B where B can reach A, the pair
    // participates in a cycle; report each unordered pair once.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    queue.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), sites) in &edges {
        if !reaches(b, a) {
            continue;
        }
        let canon = if a <= b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        if !reported.insert(canon) {
            continue;
        }
        let reverse = match edges.get(&(b.clone(), a.clone())) {
            Some(r) => {
                format!("but `{b}` is held while `{a}` is acquired at {}:{}", r.to_path, r.to_line)
            }
            None => format!("but `{b}` reaches `{a}` through intermediate locks"),
        };
        out.push(Diagnostic {
            path: sites.to_path.clone(),
            line: sites.to_line,
            rule: Some(Rule::LockOrder),
            message: format!(
                "lock-order cycle: `{a}` (held since {}:{}) is held while `{b}` is \
                 acquired, {reverse}; acquire these locks in one global order",
                sites.from_path, sites.from_line
            ),
        });
    }
    out
}

/// Extracts the field name from a `name: [path::]Mutex<...>` /
/// `name: [path::]RwLock<...>` field or static declaration line.
fn decl_field(masked: &str) -> Option<String> {
    let m = masked.find("Mutex<").or_else(|| masked.find("RwLock<"))?;
    let t = masked.trim_start();
    // Locals, signatures, and return types are not shared named locks.
    if t.starts_with("let ") || masked.contains("fn ") || masked.contains("->") {
        return None;
    }
    // First single `:` left of the type (skipping `::` path separators).
    let bytes = masked.as_bytes();
    let mut colon = None;
    let mut i = 0;
    while i < m {
        if bytes[i] == b':' {
            if bytes.get(i + 1) == Some(&b':') {
                i += 2;
                continue;
            }
            colon = Some(i);
            break;
        }
        i += 1;
    }
    let colon = colon?;
    let mut end = colon;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(masked[start..end].to_string())
}

/// All `(position, receiver)` lock acquisitions on a masked line:
/// `.lock()`, `.try_lock()`, and zero-arg `.read()`/`.write()` (the
/// zero-arg form distinguishes `RwLock` from `io::Read`/`io::Write`,
/// which take buffers).
fn acquisitions(masked: &str) -> Vec<(usize, &str)> {
    const PATTERNS: [&str; 6] =
        [".lock()", ".try_lock()", ".read()", ".try_read()", ".write()", ".try_write()"];
    let mut found = Vec::new();
    for pat in PATTERNS {
        let mut from = 0;
        while let Some(off) = masked[from..].find(pat) {
            let at = from + off;
            if let Some(receiver) = receiver_before(masked, at) {
                found.push((at, receiver));
            }
            from = at + pat.len();
        }
    }
    found.sort_by_key(|(pos, _)| *pos);
    found.dedup_by_key(|(pos, _)| *pos);
    found
}

/// The identifier ending at byte `dot` (exclusive), skipping one or more
/// trailing `[...]` index groups: `self.slots[i]` -> `slots`.
fn receiver_before(masked: &str, dot: usize) -> Option<&str> {
    let bytes = masked.as_bytes();
    let mut end = dot;
    while end > 0 && bytes[end - 1] == b']' {
        let mut depth = 1usize;
        let mut m = end - 1;
        while m > 0 && depth > 0 {
            m -= 1;
            match bytes[m] {
                b']' => depth += 1,
                b'[' => depth -= 1,
                _ => {}
            }
        }
        if depth != 0 {
            return None;
        }
        end = m;
    }
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    masked.get(start..end)
}

#[cfg(test)]
mod tests {
    use super::check;
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

    const DECLS: &str =
        "struct S {\n    a: std::sync::Mutex<u8>,\n    b: std::sync::Mutex<u8>,\n}\n";

    #[test]
    fn two_function_opposite_order_cycle_fires_with_both_sites() {
        let src = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        let ga = self.a.lock();\n        \
             let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }}\n    \
             fn two(&self) {{\n        let gb = self.b.lock();\n        let ga = self.a.lock();\n        \
             drop(ga);\n        drop(gb);\n    }}\n}}\n"
        );
        let diags = check(&[pf("crates/kv/src/locks.rs", "kv", &src)]);
        assert_eq!(diags.len(), 1, "one cycle, reported once: {diags:?}");
        let d = &diags[0];
        assert_eq!(d.rule, Some(Rule::LockOrder));
        assert!(d.message.contains("kv::locks.a") && d.message.contains("kv::locks.b"));
        assert!(
            d.message.contains("crates/kv/src/locks.rs:"),
            "both acquisition sites are cited: {}",
            d.message
        );
    }

    #[test]
    fn consistent_global_order_is_clean() {
        let src = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        let ga = self.a.lock();\n        \
             let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }}\n    \
             fn two(&self) {{\n        let ga = self.a.lock();\n        let gb = self.b.lock();\n        \
             drop(gb);\n        drop(ga);\n    }}\n}}\n"
        );
        assert!(check(&[pf("crates/kv/src/locks.rs", "kv", &src)]).is_empty());
    }

    #[test]
    fn cross_file_cycle_is_detected() {
        let one = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        let ga = self.a.lock();\n        \
             self.b.lock().clear();\n        drop(ga);\n    }}\n}}\n"
        );
        // The other file references the same (unique-in-crate) fields.
        let two = "fn two(s: &super::locks::S) {\n    let gb = s.b.lock();\n    \
                   s.a.lock().clear();\n    drop(gb);\n}\n";
        let diags = check(&[
            pf("crates/kv/src/locks.rs", "kv", &one),
            pf("crates/kv/src/other.rs", "kv", two),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn reentrant_acquisition_fires() {
        let src = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        let ga = self.a.lock();\n        \
             let gb = self.a.lock();\n        drop(gb);\n        drop(ga);\n    }}\n}}\n"
        );
        let diags = check(&[pf("crates/kv/src/locks.rs", "kv", &src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("re-acquired"), "{}", diags[0].message);
        assert_eq!(diags[0].line, 8, "fires at the second acquisition");
    }

    #[test]
    fn guard_scope_close_releases_and_allow_suppresses() {
        let scoped = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        {{\n            \
             let ga = self.a.lock();\n        }}\n        let ga = self.a.lock();\n        \
             drop(ga);\n    }}\n}}\n"
        );
        assert!(check(&[pf("crates/kv/src/locks.rs", "kv", &scoped)]).is_empty());
        let allowed = format!(
            "{DECLS}impl S {{\n    fn one(&self) {{\n        let ga = self.a.lock();\n        \
             // recursion is bounded here: trass-lint: allow(lock-order)\n        \
             let gb = self.a.lock();\n        drop(gb);\n        drop(ga);\n    }}\n}}\n"
        );
        assert!(check(&[pf("crates/kv/src/locks.rs", "kv", &allowed)]).is_empty());
    }

    #[test]
    fn unknown_and_ambiguous_receivers_are_skipped() {
        // Same field name declared in two files of the crate: an acquisition
        // in a third file is ambiguous and must not guess.
        let d1 = "struct A {\n    inner: std::sync::Mutex<u8>,\n}\n";
        let d2 = "struct B {\n    inner: std::sync::Mutex<u8>,\n}\n";
        let user = "fn f(x: &X, m: &M) {\n    let g = x.inner.lock();\n    \
                    m.mystery.lock().clear();\n    drop(g);\n}\n";
        let diags = check(&[
            pf("crates/kv/src/a.rs", "kv", d1),
            pf("crates/kv/src/b.rs", "kv", d2),
            pf("crates/kv/src/c.rs", "kv", user),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rwlock_read_write_and_indexed_receivers_resolve() {
        let src = "struct P {\n    table: std::sync::RwLock<u8>,\n    \
                   slots: Vec<std::sync::Mutex<u8>>,\n}\nimpl P {\n    fn f(&self, i: usize) {\n        \
                   let t = self.table.read();\n        let s = self.slots[i].lock();\n        \
                   drop(s);\n        drop(t);\n    }\n    fn g(&self, i: usize) {\n        \
                   let s = self.slots[i].lock();\n        let t = self.table.write();\n        \
                   drop(t);\n        drop(s);\n    }\n}\n";
        let diags = check(&[pf("crates/exec/src/pool.rs", "exec", src)]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("exec::pool.table"));
        assert!(diags[0].message.contains("exec::pool.slots"));
    }
}
