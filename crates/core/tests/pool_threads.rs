//! A store runs one pool's worth of threads, queries start no further one,
//! and a dropped store leaves none, even while its telemetry endpoint
//! still runs. A store's one query pool serves both
//! region-scan fan-out and refinement; it keeps its workers parked between
//! queries and joins them when the store drops. Threads are read from
//! `/proc/self/task`.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use trass_core::config::TrassConfig;
use trass_core::query::{threshold_search, top_k_search};
use trass_core::store::TrajectoryStore;
use trass_geo::Mbr;
use trass_traj::{generator, Measure, Trajectory};

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Names of this process's threads that a pool started, sorted.
fn pool_workers() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("trass-"))
        .collect();
    names.sort();
    names
}

/// The thread count once it reads `expected`, or after five seconds
/// whatever it reads then: a joined thread can linger in `/proc` for a
/// moment after its joiner has returned.
fn settled_threads(expected: usize) -> usize {
    let t0 = Instant::now();
    loop {
        let now = threads();
        if now == expected || t0.elapsed() > Duration::from_secs(5) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A store with two query threads over 240 T-Drive-like trajectories.
fn open_store(data: &[Trajectory]) -> TrajectoryStore {
    let mut config = TrassConfig::for_extent(Mbr::new(116.0, 39.6, 116.8, 40.2));
    config.query_threads = 2;
    config.trace_sample_every = 0;
    let store = TrajectoryStore::open(config).unwrap();
    store.insert_all(data).unwrap();
    store.flush().unwrap();
    store
}

/// One threshold and one top-k search per query trajectory.
fn run_queries(store: &TrajectoryStore, queries: &[Trajectory]) {
    for q in queries {
        threshold_search(store, q, 0.01, Measure::Frechet).unwrap();
        top_k_search(store, q, 5, Measure::Frechet).unwrap();
    }
}

/// One test, so no other test's threads come and go while this one
/// counts.
#[test]
fn queries_start_no_thread_and_a_dropped_store_leaves_none() {
    let data = generator::tdrive_like(7, 240);
    let baseline = threads();

    let store = open_store(&data);
    run_queries(&store, &data[..10]);
    let warm = threads();
    assert_eq!(warm, baseline + 1, "a store at query_threads = 2 runs one background worker");
    assert_eq!(pool_workers(), ["trass-query-1"]);
    run_queries(&store, &data[10..60]);
    assert_eq!(settled_threads(warm), warm, "50 threshold and top-k queries started a thread");
    drop(store);
    assert_eq!(settled_threads(baseline), baseline, "the dropped store left a thread behind");

    for _ in 0..20 {
        let store = open_store(&data);
        run_queries(&store, &data[..3]);
    }
    assert_eq!(settled_threads(baseline), baseline, "20 dropped stores left threads behind");

    // A telemetry endpoint that outlives its store does not keep the
    // store's pool alive.
    let store = open_store(&data);
    let telemetry = store.serve_telemetry().unwrap();
    run_queries(&store, &data[..3]);
    let query_workers = || -> Vec<String> {
        pool_workers().into_iter().filter(|name| name.starts_with("trass-query-")).collect()
    };
    assert_eq!(query_workers(), ["trass-query-1"]);
    drop(store);
    let t0 = Instant::now();
    while !query_workers().is_empty() && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(query_workers(), Vec::<String>::new(), "the endpoint kept the pool alive");
    telemetry.shutdown();
}
