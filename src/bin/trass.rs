//! `trass` — command-line interface to a TraSS deployment.
//!
//! ```text
//! trass load   --data <dir> --csv <file> [--extent lon0,lat0,lon1,lat1]
//! trass sim    --data <dir> --query <tid> --eps <deg> [--measure frechet|hausdorff|dtw]
//! trass topk   --data <dir> --query <tid> --k <n> [--measure ...]
//! trass range  --data <dir> --window lon0,lat0,lon1,lat1
//! trass get    --data <dir> --tid <id>
//! trass stats  --data <dir>
//! trass serve  --data <dir> [--addr host:port]
//! ```
//!
//! The deployment lives under `--data`: a sharded on-disk LSM cluster plus
//! a small `config.json` describing the index (resolution, shards, extent)
//! so reopen uses the exact same space.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trass::core::{query, TrajectoryStore, TrassConfig};
use trass::geo::{Mbr, NormalizedSpace};
use trass::kv::StoreOptions;
use trass::obs::json::{self, Value};
use trass::server::cli::{parse, parse_measure, range_lines, similarity_lines};
use trass::traj::io as traj_io;

// Route every allocation through the counting allocator so EXPLAIN's
// spans carry real `alloc_bytes` / `allocs` counts.
#[global_allocator]
static ALLOC: trass::obs::CountingAlloc = trass::obs::CountingAlloc::system();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run(&cmd, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  trass load   --data <dir> --csv <file> [--extent lon0,lat0,lon1,lat1] [--resolution N] [--shards N]
  trass sim    --data <dir> --query <tid> --eps <deg> [--measure frechet|hausdorff|dtw]
  trass topk   --data <dir> --query <tid> --k <n> [--measure ...]
  trass range  --data <dir> --window lon0,lat0,lon1,lat1
  trass get    --data <dir> --tid <id>
  trass stats  --data <dir>
  trass serve  --data <dir> [--addr host:port]   (addr default: TRASS_SERVE_ADDR, else 127.0.0.1:0)";

fn run(cmd: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let data_dir = PathBuf::from(flags.get("data").ok_or("--data <dir> is required")?);
    match cmd {
        "load" => load(&data_dir, flags),
        "sim" | "topk" | "range" | "get" | "stats" => {
            let store = open_store(&data_dir)?;
            match cmd {
                "sim" => sim(&store, flags),
                "topk" => topk(&store, flags),
                "range" => range(&store, flags),
                "get" => get(&store, flags),
                "stats" => stats(&store),
                _ => unreachable!(),
            }
        }
        "serve" => serve(&data_dir, flags),
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

fn config_path(dir: &Path) -> PathBuf {
    dir.join("config.json")
}

/// Persisted deployment parameters (the parts of `TrassConfig` that must
/// agree across sessions).
fn save_config(dir: &Path, cfg: &TrassConfig) -> Result<(), String> {
    let e = cfg.space.extent;
    let extent = [e.min_x, e.min_y, e.max_x, e.max_y].map(json::number).join(",");
    let json = format!(
        r#"{{"max_resolution":{},"shards":{},"extent":[{extent}],"dp_theta":{}}}"#,
        cfg.max_resolution,
        cfg.shards,
        json::number(cfg.dp_theta)
    );
    std::fs::write(config_path(dir), json).map_err(|e| e.to_string())
}

/// Reads what [`save_config`] wrote. A resolution or shard count that is
/// not an integer in `0..=255` is an error: rounding or wrapping it would
/// route rows to other shards than the ones they were written to.
fn load_config(dir: &Path) -> Result<TrassConfig, String> {
    let text = std::fs::read_to_string(config_path(dir))
        .map_err(|_| format!("no deployment at {} (run `trass load` first)", dir.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("bad config: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("config missing {key}"));
    let small = |key: &str| match field(key)? {
        Value::U64(n) => {
            u8::try_from(*n).map_err(|_| format!("config {key} {n} is out of 0..=255"))
        }
        _ => Err(format!("config {key} is not an integer in 0..=255")),
    };
    let number = |v: &Value, key: &str| v.as_f64().ok_or(format!("config {key} is not a number"));
    let extent = match field("extent")? {
        Value::Array(v) if v.len() == 4 => {
            v.iter().map(|x| number(x, "extent")).collect::<Result<Vec<f64>, _>>()?
        }
        _ => return Err("config extent must have 4 numbers".into()),
    };
    Ok(TrassConfig {
        max_resolution: small("max_resolution")?,
        shards: small("shards")?,
        dp_theta: number(field("dp_theta")?, "dp_theta")?,
        space: NormalizedSpace::square(Mbr::new(extent[0], extent[1], extent[2], extent[3])),
        store: StoreOptions::at_dir(dir.join("kv")),
        ..TrassConfig::default()
    })
}

fn open_store(dir: &Path) -> Result<TrajectoryStore, String> {
    let cfg = load_config(dir)?;
    TrajectoryStore::open(cfg).map_err(|e| e.to_string())
}

fn parse_mbr(spec: &str) -> Result<Mbr, String> {
    trass::server::cli::parse_window(spec).map(|w| trass::server::protocol::window_mbr(&w))
}

fn load(dir: &Path, flags: &HashMap<String, String>) -> Result<(), String> {
    let csv = flags.get("csv").ok_or("--csv <file> is required")?;
    let file = std::fs::File::open(csv).map_err(|e| format!("open {csv}: {e}"))?;
    let (trajectories, report) =
        traj_io::read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    if trajectories.is_empty() {
        return Err("no trajectories in input".into());
    }
    let extent = match flags.get("extent") {
        Some(spec) => parse_mbr(spec)?,
        None => trajectories
            .iter()
            .map(|t| t.mbr())
            .reduce(|a, b| a.union(&b))
            .expect("non-empty")
            .extended(0.01),
    };
    let cfg = TrassConfig {
        max_resolution: flags
            .get("resolution")
            .map(|r| r.parse().map_err(|_| "bad --resolution"))
            .transpose()?
            .unwrap_or(16),
        shards: flags
            .get("shards")
            .map(|s| s.parse().map_err(|_| "bad --shards"))
            .transpose()?
            .unwrap_or(8),
        space: NormalizedSpace::square(extent),
        store: StoreOptions::at_dir(dir.join("kv")),
        ..TrassConfig::default()
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    save_config(dir, &cfg)?;
    let store = TrajectoryStore::open(cfg).map_err(|e| e.to_string())?;
    let n = store.insert_all(&trajectories).map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())?;
    println!(
        "loaded {n} trajectories ({} points, {} lines skipped) into {}",
        report.points,
        report.skipped,
        dir.display()
    );
    Ok(())
}

/// Serves the deployment over the wire protocol until a client sends the
/// shutdown op (or the process is killed). The optional telemetry
/// endpoint starts alongside when the config names an address.
fn serve(dir: &Path, flags: &HashMap<String, String>) -> Result<(), String> {
    let store = std::sync::Arc::new(open_store(dir)?);
    let telemetry = match store.config().telemetry_addr.clone() {
        Some(_) => {
            let t = store.serve_telemetry().map_err(|e| format!("telemetry: {e}"))?;
            println!("telemetry listening on http://{}", t.local_addr());
            Some(t)
        }
        None => None,
    };
    let mut opts = trass::server::ServerOptions::default();
    if let Some(addr) = flags.get("addr") {
        opts.addr = addr.clone();
    }
    let mut server = trass::server::TrassServer::serve(std::sync::Arc::clone(&store), opts)
        .map_err(|e| format!("bind {}: {e}", flags.get("addr").map_or("default addr", |a| a)))?;
    println!("trass-server listening on {}", server.local_addr());
    server.wait();
    server.shutdown();
    drop(telemetry);
    println!("trass-server: shut down cleanly");
    Ok(())
}

fn query_trajectory(
    store: &TrajectoryStore,
    flags: &HashMap<String, String>,
) -> Result<trass::traj::Trajectory, String> {
    let tid: u64 = flags
        .get("query")
        .ok_or("--query <tid> is required")?
        .parse()
        .map_err(|_| "bad --query id")?;
    store.get(tid).map_err(|e| e.to_string())?.ok_or(format!("trajectory {tid} not found"))
}

fn sim(store: &TrajectoryStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let q = query_trajectory(store, flags)?;
    let eps: f64 =
        flags.get("eps").ok_or("--eps <deg> is required")?.parse().map_err(|_| "bad --eps")?;
    let measure = parse_measure(flags)?;
    let r = query::threshold_search(store, &q, eps, measure).map_err(|e| e.to_string())?;
    println!("{} matches within {eps}° ({measure}):", r.results.len());
    print!("{}", similarity_lines(&r.results));
    print_stats(&r.stats);
    Ok(())
}

fn topk(store: &TrajectoryStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let q = query_trajectory(store, flags)?;
    let k: usize = flags.get("k").ok_or("--k <n> is required")?.parse().map_err(|_| "bad --k")?;
    let measure = parse_measure(flags)?;
    let r = query::top_k_search(store, &q, k, measure).map_err(|e| e.to_string())?;
    println!("top-{k} ({measure}):");
    print!("{}", similarity_lines(&r.results));
    print_stats(&r.stats);
    Ok(())
}

fn range(store: &TrajectoryStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let window = parse_mbr(flags.get("window").ok_or("--window is required")?)?;
    let r = query::range_search(store, &window).map_err(|e| e.to_string())?;
    println!("{} trajectories intersect the window:", r.results.len());
    print!("{}", range_lines(&r.results));
    print_stats(&r.stats);
    Ok(())
}

fn get(store: &TrajectoryStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let tid: u64 =
        flags.get("tid").ok_or("--tid <id> is required")?.parse().map_err(|_| "bad --tid")?;
    match store.get(tid).map_err(|e| e.to_string())? {
        Some(t) => {
            println!("trajectory {tid}: {} points", t.len());
            for p in t.points() {
                println!("  {},{}", p.x, p.y);
            }
            Ok(())
        }
        None => Err(format!("trajectory {tid} not found")),
    }
}

fn stats(store: &TrajectoryStore) -> Result<(), String> {
    let counts = store.cluster().region_entry_counts();
    let total: u64 = counts.iter().sum();
    println!("regions: {}", counts.len());
    println!("rows (upper bound incl. shadowed): {total}");
    for (i, c) in counts.iter().enumerate() {
        println!("  region {i}: {c}");
    }
    let m = store.cluster().metrics_snapshot();
    println!(
        "io since open: {} scans, {} rows scanned, {} blocks, {} bytes, {} cache hits",
        m.range_scans, m.entries_scanned, m.blocks_read, m.bytes_read, m.cache_hits
    );
    Ok(())
}

fn print_stats(s: &trass::core::QueryStats) {
    println!(
        "-- {} ranges, {} rows retrieved, {} candidates, precision {:.3}, {:.2} ms total",
        s.n_ranges,
        s.retrieved,
        s.candidates,
        s.precision(),
        s.total_time().as_secs_f64() * 1e3
    );
}
