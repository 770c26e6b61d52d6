//! `lock-across-io`: a lock guard must not stay live across a blocking
//! call — file I/O, a region scan, worker-pool fan-out, a thread join, or
//! a channel receive. Holding a shard lock over any of these serializes
//! every other thread touching that lock for the blocking call's whole
//! duration, which is exactly the tail-latency failure mode the paper's
//! multi-stage pipeline is built to avoid.
//!
//! Heuristic block-scope analysis: a `let guard = ....lock()/.read()/.write()`
//! binding is live until its enclosing block closes or it is `drop`ped;
//! any blocking marker inside that window fires. A marker call that takes
//! the guard itself as an argument (e.g. `Condvar::wait(guard)`) consumes
//! or releases the guard and is exempt.

use super::{Diagnostic, Rule};
use crate::scanner::{FileInfo, Prepared};

/// Calls that do file I/O or long scans.
const IO_MARKERS: [&str; 14] = [
    "std::fs::",
    "fs::write",
    "fs::read",
    "fs::rename",
    "fs::remove_file",
    "File::open",
    "OpenOptions",
    "::create(",
    "sync_data",
    "sync_all",
    "read_exact",
    "read_to_end",
    "write_all(",
    ".scan(",
];

/// Calls that block on other threads: pool fan-out (a `ScopedPool::run`
/// waits for every participant before returning), explicit joins, channel
/// receives, condvar waits, and sleeps.
const BLOCKING_MARKERS: [&str; 8] = [
    "thread::scope(",
    ".join()",
    ".recv()",
    ".recv_timeout(",
    ".wait(",
    ".wait_timeout(",
    ".run(",
    ".run_timed(",
];

/// Runs the analysis over one file.
pub fn check(info: &FileInfo, prep: &Prepared, out: &mut Vec<Diagnostic>) {
    struct Guard {
        name: String,
        depth: usize,
        line: usize,
    }
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    for (idx, masked) in prep.masked_lines.iter().enumerate() {
        let line = idx + 1;
        let is_test = prep.is_test_line(line);

        // Markers first: a guard bound on this same line (e.g. a match
        // on `.read()` + I/O in one statement) still counts as held.
        if !is_test {
            'marker: for marker in IO_MARKERS.iter().chain(BLOCKING_MARKERS.iter()) {
                if masked.contains(marker) {
                    // Earliest still-live guard bound on an earlier line.
                    let Some(g) = guards.iter().find(|g| g.line < line) else { continue };
                    // A call consuming the guard (Condvar::wait(guard),
                    // drop-and-rebind patterns) releases it — skip.
                    if call_mentions(masked, marker, &g.name) {
                        continue 'marker;
                    }
                    if !prep.is_allowed(line, Rule::LockAcrossIo) {
                        out.push(Diagnostic {
                            path: info.rel_path.clone(),
                            line,
                            rule: Some(Rule::LockAcrossIo),
                            message: format!(
                                "`{marker}` while lock guard `{}` (bound line {}) is live; \
                                 drop the guard first or justify with an allow",
                                g.name, g.line
                            ),
                        });
                    }
                    break 'marker;
                }
            }
        }

        // New guard binding?
        if !is_test {
            if let Some(name) = guard_binding(masked) {
                guards.push(Guard { name: name.to_string(), depth, line });
            }
        }

        // Explicit drops release the guard.
        guards.retain(|g| !masked.contains(&format!("drop({})", g.name)));

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

/// Whether the marker call on this line takes `guard` as an argument
/// (which means the callee consumes or releases it).
fn call_mentions(masked: &str, marker: &str, guard: &str) -> bool {
    let Some(pos) = masked.find(marker) else { return false };
    let rest = &masked[pos..];
    // Look for the bare identifier inside the remainder of the statement.
    let bytes = rest.as_bytes();
    let needle = guard.as_bytes();
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle {
            let before_ok = i == 0 || !crate::scanner::is_ident_byte(bytes[i - 1]);
            let after = i + needle.len();
            let after_ok = after >= bytes.len() || !crate::scanner::is_ident_byte(bytes[after]);
            if before_ok && after_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Extracts the bound name from `let [mut] <name> = <expr>.lock()/.read()/.write()`.
pub fn guard_binding(masked: &str) -> Option<&str> {
    let has_acquire = [".lock()", ".read()", ".write()", ".try_lock()", ".try_read()"]
        .iter()
        .any(|p| masked.contains(p));
    if !has_acquire {
        return None;
    }
    let t = masked.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_')?;
    let name = &rest[..end];
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{lint_file, Rule};
    use crate::scanner::{FileInfo, PreparedFile};

    fn kv_lib() -> FileInfo {
        FileInfo {
            rel_path: "crates/kv/src/fixture.rs".into(),
            krate: "kv".into(),
            is_bin: false,
            is_test_file: false,
        }
    }

    fn info_for(krate: &str) -> FileInfo {
        FileInfo {
            rel_path: format!("crates/{krate}/src/fixture.rs"),
            krate: krate.into(),
            is_bin: false,
            is_test_file: false,
        }
    }

    fn rules_fired(info: &FileInfo, src: &str) -> Vec<(usize, Rule)> {
        lint_file(&PreparedFile::new(info.clone(), src))
            .into_iter()
            .map(|d| (d.line, d.rule.expect("a rule finding")))
            .collect()
    }

    #[test]
    fn lock_across_io_fires_on_guard_held_over_fs_call() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let guard = m.lock();\n    \
                   let _ = std::fs::read(\"x\");\n    drop(guard);\n}\n";
        assert_eq!(rules_fired(&kv_lib(), src), vec![(3, Rule::LockAcrossIo)]);
    }

    #[test]
    fn lock_across_io_respects_drop_and_scope() {
        let dropped = "fn f(m: &std::sync::Mutex<u8>) {\n    let guard = m.lock();\n    \
                       drop(guard);\n    let _ = std::fs::read(\"x\");\n}\n";
        assert!(rules_fired(&kv_lib(), dropped).is_empty());
        let scoped =
            "fn f(m: &std::sync::Mutex<u8>) {\n    {\n        let guard = m.lock();\n    }\n    \
                      let _ = std::fs::read(\"x\");\n}\n";
        assert!(rules_fired(&kv_lib(), scoped).is_empty());
    }

    #[test]
    fn guard_across_pool_run_and_recv_fires_in_every_lock_crate() {
        let pool = "fn f(m: &std::sync::Mutex<u8>, pool: &Pool) {\n    let g = m.lock();\n    \
                    pool.run(items, work);\n    drop(g);\n}\n";
        for krate in ["kv", "exec", "obs", "core"] {
            assert_eq!(
                rules_fired(&info_for(krate), pool),
                vec![(3, Rule::LockAcrossIo)],
                "{krate}"
            );
        }
        let recv =
            "fn f(m: &std::sync::Mutex<u8>, rx: &Receiver<u8>) {\n    let g = m.lock();\n    \
                    let _ = rx.recv();\n    drop(g);\n}\n";
        assert_eq!(rules_fired(&info_for("core"), recv), vec![(3, Rule::LockAcrossIo)]);
        let join = "fn f(m: &std::sync::Mutex<u8>, h: Handle) {\n    let g = m.lock();\n    \
                    h.join();\n    drop(g);\n}\n";
        assert_eq!(rules_fired(&info_for("obs"), join), vec![(3, Rule::LockAcrossIo)]);
    }

    #[test]
    fn condvar_wait_consuming_the_guard_is_exempt() {
        // The canonical condvar loop: wait() releases the mutex while
        // blocked — flagging it would outlaw condvars entirely.
        let src =
            "fn f(pair: &(Mutex<bool>, Condvar)) {\n    let mut stopped = pair.0.lock();\n    \
                   let r = pair.1.wait_timeout(stopped, d);\n}\n";
        assert!(rules_fired(&info_for("obs"), src).is_empty());
    }

    #[test]
    fn thread_scope_under_live_guard_fires() {
        let src = "fn f(m: &std::sync::Mutex<u8>) {\n    let g = m.lock();\n    \
                   std::thread::scope(|s| {});\n    drop(g);\n}\n";
        assert_eq!(rules_fired(&info_for("exec"), src), vec![(3, Rule::LockAcrossIo)]);
    }
}
