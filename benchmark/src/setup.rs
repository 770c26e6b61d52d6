//! Set-up: generate the dataset, open a disk-backed store in a scratch
//! directory, load it in ingest-sized batches, flush, and (for the wire
//! workload) start the server. This is what `setup_s` times.

use crate::gen;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trass_core::{TrajectoryStore, TrassConfig};
use trass_server::{protocol::DEFAULT_MAX_FRAME_BYTES, ServerOptions, TrassServer};
use trass_traj::Trajectory;

/// Trajectories per ingest batch, on the wire and during the bulk load.
pub const BATCH: usize = 32;

/// A directory under the benchmark's own `target/`, removed on drop —
/// never inside `crates/`, never outside the checkout.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let target = crate::env::bench_dir().join("target");
        std::fs::create_dir_all(&target)?;
        // A killed run cannot clean up after itself: clear what runs whose
        // process is gone have left (and anything under our own pid).
        for entry in std::fs::read_dir(&target)?.flatten() {
            let name = entry.file_name();
            let owner = name.to_str().and_then(|n| n.strip_prefix("scratch-")?.parse::<u32>().ok());
            if owner.is_some_and(|pid| {
                pid == std::process::id() || !Path::new(&format!("/proc/{pid}")).exists()
            }) {
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        let path = target.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a workload needs built before it can run.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    pub trajectories: usize,
    pub query_threads: usize,
    /// Block cache per region; `None` keeps the program's default (8 MiB).
    pub block_cache_bytes: Option<usize>,
    /// The program's 1-in-N trace sampling; `None` keeps its default (64),
    /// which is what users get.
    pub trace_sample_every: Option<u64>,
    pub serve: bool,
}

/// The program's configuration with every environment-fed field pinned.
pub fn config(spec: &StoreSpec, dir: &Path) -> TrassConfig {
    let mut config = TrassConfig::default();
    config.store.dir = Some(dir.to_path_buf());
    config.query_threads = spec.query_threads;
    config.refine_bounds = true;
    config.telemetry_addr = None;
    if let Some(bytes) = spec.block_cache_bytes {
        config.store.block_cache_bytes = bytes;
    }
    if let Some(every) = spec.trace_sample_every {
        config.trace_sample_every = every;
    }
    config
}

pub fn serve(store: &Arc<TrajectoryStore>) -> TrassServer {
    let opts =
        ServerOptions { addr: "127.0.0.1:0".to_string(), max_frame_bytes: DEFAULT_MAX_FRAME_BYTES };
    TrassServer::serve(Arc::clone(store), opts).expect("bind a loopback port")
}

/// A loaded store and what loading it cost.
pub struct Loaded {
    pub data: Vec<Trajectory>,
    pub store: Arc<TrajectoryStore>,
    pub server: Option<TrassServer>,
    pub dir: PathBuf,
    /// Seconds for generate + open + load + flush (+ server start).
    pub seconds: f64,
    /// Latency of each `insert_all` of one batch during the load, ms.
    pub batch_ms: Vec<f64>,
    /// Bytes under the data directory after the flush.
    pub stored_bytes: u64,
}

pub fn load(seed: u64, spec: &StoreSpec, dir: &Path) -> Loaded {
    // A directory left by an earlier run in this process would be opened
    // as an existing store.
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the data directory");
    }
    let t = Instant::now();
    let data = gen::dataset(seed, spec.trajectories);
    let store = Arc::new(TrajectoryStore::open(config(spec, dir)).expect("open the store"));
    let mut batch_ms = Vec::with_capacity(data.len() / BATCH + 1);
    for batch in data.chunks(BATCH) {
        let t0 = Instant::now();
        store.insert_all(batch).expect("bulk load");
        batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    store.flush().expect("flush after load");
    let server = spec.serve.then(|| serve(&store));
    let seconds = t.elapsed().as_secs_f64();
    Loaded {
        data,
        store,
        server,
        dir: dir.to_path_buf(),
        seconds,
        batch_ms,
        stored_bytes: dir_bytes(dir),
    }
}

/// Sets up `repeats` times, each in a fresh directory, and keeps the last;
/// returns it with every repeat's seconds and batch latencies. The earlier
/// stores are dropped and deleted outside the timed part.
pub fn load_repeated(
    seed: u64,
    spec: &StoreSpec,
    scratch: &Path,
    repeats: usize,
) -> (Loaded, Vec<(f64, Vec<f64>)>) {
    let mut runs = Vec::with_capacity(repeats);
    let mut kept: Option<Loaded> = None;
    for i in 0..repeats {
        if let Some(previous) = kept.take() {
            let dir = previous.dir.clone();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut loaded = load(seed, spec, &scratch.join(format!("data-{i}")));
        runs.push((loaded.seconds, std::mem::take(&mut loaded.batch_ms)));
        kept = Some(loaded);
    }
    (kept.expect("at least one set-up"), runs)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
