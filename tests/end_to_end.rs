//! Cross-crate integration tests: the full TraSS pipeline from generated
//! workload through storage, pruning, filtering, and refinement, verified
//! against brute force (ids and distance bits) on stores of 250–500 rows
//! — plus every baseline engine's answers, the I/O claim against the XZ2
//! baseline, a country-scale extent, and recovery of a disk-backed store.
//! Answers across paths and configurations on small stores, degenerate
//! rows included, are checked in `tests/exactness.rs`.

use trass::baselines::dft::DftEngine;
use trass::baselines::dita::DitaEngine;
use trass::baselines::repose::ReposeEngine;
use trass::baselines::xz_kv::{XzKvConfig, XzKvEngine};
use trass::baselines::SimilarityEngine;
use trass::core::{query, TrajectoryStore, TrassConfig};
use trass::geo::NormalizedSpace;
use trass::traj::generator::{self, BEIJING};
use trass::traj::{Measure, Trajectory};

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

/// `(id, distance bits)`, so `assert_eq!` compares distances bit for bit.
fn bits(rows: &[(u64, f64)]) -> Vec<(u64, u64)> {
    rows.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

/// Brute force's threshold answer: every row at distance ≤ ε, by id.
fn brute_hits(data: &[Trajectory], q: &Trajectory, eps: f64, m: Measure) -> Vec<(u64, u64)> {
    let mut hits: Vec<(u64, f64)> = data
        .iter()
        .map(|t| (t.id, m.distance(q.points(), t.points())))
        .filter(|&(_, d)| d <= eps)
        .collect();
    hits.sort_by_key(|&(id, _)| id);
    bits(&hits)
}

#[test]
fn trass_threshold_equals_brute_force_across_measures_and_eps() {
    let data = generator::tdrive_like(101, 400);
    let store = build_store(&data);
    let queries = generator::sample_queries(&data, 6, 55);
    for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
        for q in &queries {
            for eps in [0.001, 0.01] {
                let got = query::threshold_search(&store, q, eps, measure).unwrap();
                assert_eq!(
                    bits(&got.results),
                    brute_hits(&data, q, eps, measure),
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
    let just = build_just(&data);
    let queries = generator::sample_queries(&data, 4, 77);
    for q in &queries {
        let eps = 0.005;
        let expected = brute_hits(&data, q, eps, Measure::Frechet);
        let trass = query::threshold_search(&store, q, eps, Measure::Frechet).unwrap();
        assert_eq!(bits(&trass.results), expected, "TraSS disagrees");
        for (name, got) in [
            ("DFT", dft.threshold(q, eps, Measure::Frechet)),
            ("DITA", dita.threshold(q, eps, Measure::Frechet)),
            ("JUST", just.threshold(q, eps, Measure::Frechet)),
        ] {
            assert_eq!(bits(&got.unwrap().results), expected, "{name} disagrees");
        }
    }
}

#[test]
fn all_engines_agree_on_topk_distances() {
    let data = generator::tdrive_like(107, 250);
    let store = build_store(&data);
    let dft = DftEngine::build(data.clone(), 5);
    let dita = DitaEngine::build(data.clone());
    let just = build_just(&data);
    let repose = ReposeEngine::build(data.clone(), 5);
    let q = &data[31];
    let k = 12;

    // Brute force in (distance, id) order, cut at k: the ids as well as
    // the distances must match.
    let mut expected: Vec<(u64, f64)> =
        data.iter().map(|t| (t.id, Measure::Frechet.distance(q.points(), t.points()))).collect();
    expected.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    expected.truncate(k);
    let expected = bits(&expected);

    let trass = query::top_k_search(&store, q, k, Measure::Frechet).unwrap();
    assert_eq!(bits(&trass.results), expected, "TraSS disagrees");
    for (name, engine) in [
        ("DFT", &dft as &dyn SimilarityEngine),
        ("DITA", &dita),
        ("JUST", &just),
        ("REPOSE", &repose),
    ] {
        let got = engine.top_k(q, k, Measure::Frechet).unwrap();
        assert_eq!(bits(&got.results), expected, "{name} disagrees");
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
    let q = &data[50];
    let got = query::threshold_search(&store, q, 0.05, Measure::Frechet).unwrap();
    assert_eq!(bits(&got.results), brute_hits(&data, q, 0.05, Measure::Frechet));
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
        let got = query::threshold_search(&store, q, 0.005, Measure::Frechet).unwrap();
        assert_eq!(bits(&got.results), brute_hits(&data, q, 0.005, Measure::Frechet));
    }
    std::fs::remove_dir_all(&dir).ok();
}
