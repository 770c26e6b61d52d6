//! What the host must be for a run to count, and what is recorded about it.

use std::path::{Path, PathBuf};

/// Every `TRASS_*` variable changes a default somewhere in the program
/// (`TRASS_QUERY_THREADS`, `TRASS_REFINE_BOUNDS`, `TRASS_TELEMETRY_ADDR`,
/// `TRASS_SERVE_*`, …), so a run with one set measures another program.
fn trass_variables_set() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TRASS_"))
        .collect();
    names.sort();
    names
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Refuses a host on which the numbers would mean something else. The
/// workloads use two load-generating threads and `query_threads = 2`.
pub fn check_host() -> Result<(), String> {
    let set = trass_variables_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: unset every TRASS_* variable",
            set.join(", ")
        ));
    }
    if host_cores() < 2 {
        return Err(format!("refusing to run on {} core: the workloads need 2", host_cores()));
    }
    Ok(())
}

/// The benchmark's own directory: `benchmark/` under the current directory
/// when run from the repository root (as the driver does), the current
/// directory when run from inside it, else where it was compiled.
pub fn bench_dir() -> PathBuf {
    let is_ours = |dir: &Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|m| m.contains("name = \"trass-benchmark\""))
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    [cwd.join("benchmark"), cwd]
        .into_iter()
        .find(|d| is_ours(d))
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Facts printed with every result, so numbers from different hosts are
/// never compared by accident.
pub fn host_line(scratch: &Path) -> String {
    format!(
        "host_cores={} rustc=\"{}\" commit={} scratch_fs={}",
        host_cores(),
        rustc_version(),
        commit(&bench_dir()),
        filesystem_of(scratch)
    )
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` beside the benchmark
/// directory; `unknown` in an exported tree.
fn commit(bench_dir: &Path) -> String {
    let git = bench_dir.join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
