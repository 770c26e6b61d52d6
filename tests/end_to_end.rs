//! Cross-crate integration tests: the full TraSS pipeline on stores of
//! 250–400 rows, every baseline engine's answers, the I/O claim against
//! the XZ2 baseline, a country-scale extent, recovery of a disk-backed
//! store, and writers racing on one id, each answer checked against the
//! reference answer (`trass::traj::reference`), ids and distance bits.
//! Answers across paths, configurations and engines, on drawn stores of
//! 16–500 rows with degenerate rows, are checked in `tests/exactness.rs`.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use trass::baselines::dft::DftEngine;
use trass::baselines::dita::DitaEngine;
use trass::baselines::repose::ReposeEngine;
use trass::baselines::xz_kv::{XzKvConfig, XzKvEngine};
use trass::baselines::SimilarityEngine;
use trass::core::schema::{parse_rowkey, RowValue};
use trass::core::{query, TrajectoryStore, TrassConfig};
use trass::geo::{NormalizedSpace, Point};
use trass::traj::generator::{self, BEIJING};
use trass::traj::{reference, Measure, Trajectory};

/// The JUST baseline over the same square extent as the TraSS stores.
fn build_just(data: &[Trajectory]) -> XzKvEngine {
    let space = NormalizedSpace::square(BEIJING);
    XzKvEngine::build(data, XzKvConfig { space, ..XzKvConfig::default() })
}

fn build_store(data: &[Trajectory]) -> TrajectoryStore {
    let store = TrajectoryStore::open(TrassConfig::for_extent(BEIJING)).unwrap();
    store.insert_all(data).unwrap();
    store.flush().unwrap();
    store
}

/// Panics unless `store`'s threshold answer to `q` at `eps` under `m` is
/// the reference answer over `data`.
fn assert_threshold_exact(
    store: &TrajectoryStore,
    data: &[Trajectory],
    q: &Trajectory,
    eps: f64,
    m: Measure,
) {
    let got = query::threshold_search(store, q, eps, m).unwrap();
    let want = reference::threshold(data, q, eps, m);
    assert_eq!(reference::diff(&got.results, &want), None, "{m}, eps {eps}, query {}", q.id);
}

#[test]
fn trass_threshold_equals_brute_force_across_measures_and_eps() {
    let data = generator::tdrive_like(101, 400);
    let store = build_store(&data);
    for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
        for q in &generator::sample_queries(&data, 6, 55) {
            for eps in [0.001, 0.01] {
                assert_threshold_exact(&store, &data, q, eps, m);
            }
        }
    }
}

/// The four baselines over `data`, REPOSE (which answers top-k only) last.
fn baselines(data: &[Trajectory]) -> [Box<dyn SimilarityEngine>; 4] {
    [
        Box::new(DftEngine::build(data.to_vec(), 9)),
        Box::new(DitaEngine::build(data.to_vec())),
        Box::new(build_just(data)),
        Box::new(ReposeEngine::build(data.to_vec(), 5)),
    ]
}

#[test]
fn all_engines_agree_on_threshold_results() {
    let data = generator::tdrive_like(103, 300);
    let (store, engines) = (build_store(&data), baselines(&data));
    let (eps, m) = (0.005, Measure::Frechet);
    for q in &generator::sample_queries(&data, 4, 77) {
        assert_threshold_exact(&store, &data, q, eps, m);
        let want = reference::threshold(&data, q, eps, m);
        for engine in &engines[..3] {
            let got = engine.threshold(q, eps, m).unwrap().results;
            assert_eq!(reference::diff(&got, &want), None, "{} disagrees", engine.name());
        }
    }
}

#[test]
fn all_engines_agree_on_topk_distances() {
    // The ids as well as the distances must match, in (distance, id) order.
    let data = generator::tdrive_like(107, 250);
    let (q, k, m) = (&data[31], 12, Measure::Frechet);
    let want = reference::top_k(&data, q, k, m);
    let got = query::top_k_search(&build_store(&data), q, k, m).unwrap().results;
    assert_eq!(reference::diff(&got, &want), None, "TraSS disagrees");
    for engine in &baselines(&data) {
        let got = engine.top_k(q, k, m).unwrap().results;
        assert_eq!(reference::diff(&got, &want), None, "{} disagrees", engine.name());
    }
}

#[test]
fn trass_scans_less_io_than_xz2_baseline() {
    // The headline claim, end to end: same data, same KV substrate, fewer
    // rows retrieved.
    let data = generator::tdrive_like(109, 500);
    let store = build_store(&data);
    let just = build_just(&data);
    let queries = generator::sample_queries(&data, 8, 3);
    let mut trass_rows = 0u64;
    let mut just_rows = 0u64;
    for q in &queries {
        let r = query::threshold_search(&store, q, 0.005, Measure::Frechet).unwrap();
        trass_rows += r.stats.retrieved;
        just_rows += just.threshold(q, 0.005, Measure::Frechet).unwrap().retrieved;
    }
    assert!(trass_rows < just_rows, "TraSS retrieved {trass_rows} rows, XZ2 {just_rows}");
}

#[test]
fn lorry_scale_roundtrip() {
    // Country-scale extents exercise coarse resolutions.
    let data = generator::lorry_like(111, 200);
    let store = {
        let store = TrajectoryStore::open(TrassConfig::for_extent(generator::CHINA)).unwrap();
        store.insert_all(&data).unwrap();
        store.flush().unwrap();
        store
    };
    assert_threshold_exact(&store, &data, &data[50], 0.05, Measure::Frechet);
}

#[test]
fn disk_backed_store_survives_reopen_with_queries() {
    let dir = std::env::temp_dir().join(format!("trass-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let data = generator::tdrive_like(113, 150);
    let cfg = || {
        let mut c = TrassConfig::for_extent(BEIJING);
        c.store = trass::kv::StoreOptions::at_dir(&dir);
        c
    };
    {
        let store = TrajectoryStore::open(cfg()).unwrap();
        store.insert_all(&data).unwrap();
        // No flush: recovery must come from the WAL.
    }
    {
        let store = TrajectoryStore::open(cfg()).unwrap();
        assert_threshold_exact(&store, &data, &data[10], 0.005, Measure::Frechet);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn racing_writers_of_one_id_leave_one_row() {
    // Each id gets two writers with geometries in different index spaces,
    // released into `insert` together. Unordered, both can read the
    // id-index before either writes, each delete the same old row, and each
    // put its own: two live rows for one id. Walks of 2,000 points make each
    // insert long enough for the two to overlap.
    let store = TrajectoryStore::open(TrassConfig {
        trace_sample_every: 0,
        ..TrassConfig::for_extent(BEIJING)
    })
    .unwrap();
    let walk = |id: u64, x: f64, y: f64| {
        Trajectory::new(id, (0..2000).map(|i| Point::new(x + 2e-6 * i as f64, y)).collect())
    };
    let ids: Vec<u64> = (1..=4).collect();
    let base = |id: u64| walk(id, 116.2 + 0.05 * id as f64, 39.8);
    let writers = |id: u64| [0.1, 0.2].map(|dy| walk(id, 116.2 + 0.05 * id as f64, 39.8 + dy));
    let space = |t: &Trajectory| store.index_space_of(t);
    for &id in &ids {
        let [a, b] = writers(id);
        assert!(space(&a) != space(&b) && space(&a) != space(&base(id)), "id {id}: one space");
    }
    for _ in 0..25 {
        for &id in &ids {
            store.insert(&base(id)).unwrap();
            // A spinning barrier: both writers run when it opens. A sleeping
            // one (`std::sync::Barrier`) wakes the first arrival a scheduler
            // latency after the second, which can outlast the race.
            let arrived = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for t in writers(id) {
                    let (arrived, store) = (&arrived, &store);
                    s.spawn(move || {
                        arrived.fetch_add(1, SeqCst);
                        while arrived.load(SeqCst) < 2 {
                            std::hint::spin_loop();
                        }
                        store.insert(&t).unwrap();
                    });
                }
            });
        }
    }

    // One row per id, and `get` returns it: that row is the id's last write.
    let rows = store.cluster().scan(trass::kv::KeyRange::all()).unwrap();
    let tids: Vec<u64> = rows.iter().filter_map(|r| parse_rowkey(&r.key)).map(|k| k.2).collect();
    assert_eq!(tids.len(), rows.len(), "a key that is not a rowkey");
    let mut last = Vec::new();
    for &id in &ids {
        let n = tids.iter().filter(|&&t| t == id).count();
        assert_eq!(n, 1, "id {id} holds {n} rows");
        let t = store.get(id).unwrap().expect("a stored id");
        let row = rows.iter().find(|r| parse_rowkey(&r.key).is_some_and(|k| k.2 == id));
        let value = RowValue::decode(&row.expect("its row").value).unwrap();
        assert_eq!(value.points, t.points(), "id {id}: get disagrees with the scan");
        last.push(t);
    }
    // Queried near both writes of each id: a row left behind answers there.
    let head = |t: Trajectory| Trajectory::new(t.id, t.points()[..50].to_vec());
    for q in ids.iter().flat_map(|&id| writers(id)).map(head) {
        let m = Measure::Frechet;
        let got = query::threshold_search(&store, &q, 0.01, m).unwrap().results;
        let want = reference::threshold(&last, &q, 0.01, m);
        assert_eq!(reference::diff(&got, &want), None, "threshold, query {}", q.id);
        let got = query::top_k_search(&store, &q, 3, m).unwrap().results;
        let want = reference::top_k(&last, &q, 3, m);
        assert_eq!(reference::diff(&got, &want), None, "top-k, query {}", q.id);
        let got = query::range_search(&store, &q.mbr()).unwrap().results;
        let want = reference::range(&last, &q.mbr());
        assert_eq!(reference::diff(&got, &want), None, "range, query {}", q.id);
    }
}
