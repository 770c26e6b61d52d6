//! Cross-crate integration tests: the full TraSS pipeline from generated
//! workload through storage, pruning, filtering, and refinement, verified
//! against brute force — plus agreement between TraSS and every baseline
//! engine.

use trass::baselines::dft::DftEngine;
use trass::baselines::dita::DitaEngine;
use trass::baselines::repose::ReposeEngine;
use trass::baselines::xz_kv::build_for_extent;
use trass::baselines::SimilarityEngine;
use trass::core::{query, TrajectoryStore, TrassConfig};
use trass::geo::Point;
use trass::traj::generator::{self, BEIJING};
use trass::traj::{Measure, Trajectory};

fn build_store(data: &[Trajectory]) -> TrajectoryStore {
    let store = TrajectoryStore::open(TrassConfig::for_extent(BEIJING)).unwrap();
    store.insert_all(data).unwrap();
    store.flush().unwrap();
    store
}

fn brute_threshold(data: &[Trajectory], q: &Trajectory, eps: f64, m: Measure) -> Vec<u64> {
    let mut ids: Vec<u64> = data
        .iter()
        .filter(|t| m.distance_within(q.points(), t.points(), eps).is_some())
        .map(|t| t.id)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn trass_threshold_equals_brute_force_across_measures_and_eps() {
    let data = generator::tdrive_like(101, 400);
    let store = build_store(&data);
    let queries = generator::sample_queries(&data, 6, 55);
    for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
        for q in &queries {
            for eps in [0.001, 0.01] {
                let got: Vec<u64> = query::threshold_search(&store, q, eps, measure)
                    .unwrap()
                    .results
                    .iter()
                    .map(|&(id, _)| id)
                    .collect();
                assert_eq!(
                    got,
                    brute_threshold(&data, q, eps, measure),
                    "measure {measure}, eps {eps}, query {}",
                    q.id
                );
            }
        }
    }
}

#[test]
fn all_engines_agree_on_threshold_results() {
    let data = generator::tdrive_like(103, 300);
    let store = build_store(&data);
    let dft = DftEngine::build(data.clone(), 9);
    let dita = DitaEngine::build(data.clone());
    let just = build_for_extent(&data, BEIJING);
    let queries = generator::sample_queries(&data, 4, 77);
    for q in &queries {
        let eps = 0.005;
        let expected = brute_threshold(&data, q, eps, Measure::Frechet);
        let trass: Vec<u64> = query::threshold_search(&store, q, eps, Measure::Frechet)
            .unwrap()
            .results
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(trass, expected, "TraSS disagrees");
        for (name, got) in [
            ("DFT", dft.threshold(q, eps, Measure::Frechet)),
            ("DITA", dita.threshold(q, eps, Measure::Frechet)),
            ("JUST", just.threshold(q, eps, Measure::Frechet)),
        ] {
            let ids: Vec<u64> = got.unwrap().results.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, expected, "{name} disagrees");
        }
    }
}

#[test]
fn all_engines_agree_on_topk_distances() {
    let data = generator::tdrive_like(107, 250);
    let store = build_store(&data);
    let dft = DftEngine::build(data.clone(), 5);
    let dita = DitaEngine::build(data.clone());
    let just = build_for_extent(&data, BEIJING);
    let repose = ReposeEngine::build(data.clone(), 5);
    let q = &data[31];
    let k = 12;

    let mut expected: Vec<f64> =
        data.iter().map(|t| Measure::Frechet.distance(q.points(), t.points())).collect();
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    expected.truncate(k);

    let trass = query::top_k_search(&store, q, k, Measure::Frechet).unwrap();
    let trass_d: Vec<f64> = trass.results.iter().map(|&(_, d)| d).collect();
    for (g, e) in trass_d.iter().zip(expected.iter()) {
        assert!((g - e).abs() < 1e-9, "TraSS {trass_d:?} vs {expected:?}");
    }
    for (name, engine) in [
        ("DFT", &dft as &dyn SimilarityEngine),
        ("DITA", &dita),
        ("JUST", &just),
        ("REPOSE", &repose),
    ] {
        let got = engine.top_k(q, k, Measure::Frechet).unwrap();
        let got_d: Vec<f64> = got.results.iter().map(|&(_, d)| d).collect();
        assert_eq!(got_d.len(), k, "{name} returned {} results", got_d.len());
        for (g, e) in got_d.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-9, "{name}: {got_d:?} vs {expected:?}");
        }
    }
}

#[test]
fn trass_scans_less_io_than_xz2_baseline() {
    // The headline claim, end to end: same data, same KV substrate, fewer
    // rows retrieved.
    let data = generator::tdrive_like(109, 500);
    let store = build_store(&data);
    let just = build_for_extent(&data, BEIJING);
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
    let q = &data[50];
    let got: Vec<u64> = query::threshold_search(&store, q, 0.05, Measure::Frechet)
        .unwrap()
        .results
        .iter()
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(got, brute_threshold(&data, q, 0.05, Measure::Frechet));
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
        let q = &data[10];
        let got: Vec<u64> = query::threshold_search(&store, q, 0.005, Measure::Frechet)
            .unwrap()
            .results
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(got, brute_threshold(&data, q, 0.005, Measure::Frechet));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_inputs_match_brute_force() {
    let traj = |id: u64, pts: &[(f64, f64)]| {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    };
    // A city store (BEIJING, squared): ordinary rows plus a single point,
    // an all-equal-points row, a duplicate, and rows south-west of the
    // space and across its west edge, which normalization clamps.
    let mut city = generator::tdrive_like(117, 40);
    city.extend([
        traj(901, &[(116.4, 39.9)]),
        traj(902, &[(116.41, 39.91); 5]),
        Trajectory::new(903, city[3].points().to_vec()),
        traj(904, &[(115.2, 38.9), (115.25, 38.92), (115.3, 38.95)]),
        traj(905, &[(115.95, 39.8), (116.0, 39.805), (116.05, 39.81)]),
    ]);
    let city_queries = vec![
        traj(10_001, &[(116.4, 39.9)]),                  // single point
        traj(10_002, &[(115.2, 38.9), (115.25, 38.92)]), // outside the space
        city[3].clone(),                                 // has a duplicate
        city[41].clone(),                                // all points equal
    ];
    // The default (world) space: the antimeridian and both poles, on the
    // east edge and the west edge of the index.
    let world = vec![
        traj(1, &[(179.99, 10.0), (180.0, 10.01)]),
        traj(2, &[(-180.0, 5.0), (-179.99, 5.01)]),
        traj(3, &[(0.0, 90.0)]),
        traj(4, &[(10.0, 89.99), (20.0, 90.0)]),
        traj(5, &[(-30.0, -90.0), (-30.0, -89.99)]),
        traj(6, &[(179.995, -20.0), (-179.995, -20.0)]),
    ];
    let world_queries = world.clone();

    for (config, data, queries) in [
        (TrassConfig::for_extent(BEIJING), city, city_queries),
        (TrassConfig::default(), world, world_queries),
    ] {
        let store = TrajectoryStore::open(config).unwrap();
        store.insert_all(&data).unwrap();
        store.flush().unwrap();
        for q in &queries {
            for m in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
                let mut all: Vec<(u64, f64)> =
                    data.iter().map(|t| (t.id, m.distance(q.points(), t.points()))).collect();
                for eps in [0.0, 0.01] {
                    let got = query::threshold_search(&store, q, eps, m).unwrap().results;
                    let mut brute: Vec<(u64, f64)> = data
                        .iter()
                        .filter_map(|t| {
                            m.distance_within(q.points(), t.points(), eps).map(|d| (t.id, d))
                        })
                        .collect();
                    brute.sort_by_key(|&(id, _)| id);
                    assert_eq!(got, brute, "{m} threshold eps {eps}, query {}", q.id);
                }
                all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                for k in [1, data.len() + 5] {
                    let got = query::top_k_search(&store, q, k, m).unwrap().results;
                    let brute = &all[..k.min(all.len())];
                    assert_eq!(got, brute, "{m} top-{k}, query {}", q.id);
                }
            }
        }
    }
}
