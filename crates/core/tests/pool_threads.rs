//! Queries start no thread and a dropped store leaves none. A store's scan
//! and refine pools keep their workers parked between queries and join
//! them when the store drops; the thread count comes from
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
    run_queries(&store, &data[10..60]);
    assert_eq!(settled_threads(warm), warm, "50 threshold and top-k queries started a thread");
    drop(store);
    assert_eq!(settled_threads(baseline), baseline, "the dropped store left a thread behind");

    for _ in 0..20 {
        let store = open_store(&data);
        run_queries(&store, &data[..3]);
    }
    assert_eq!(settled_threads(baseline), baseline, "20 dropped stores left threads behind");
}
