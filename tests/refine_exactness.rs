//! The refinement lower-bound prefilter (`TrassConfig::refine_bounds`)
//! over the whole query pipeline, on stores of 250 rows.
//!
//! The contract: bounds and early-abandoning kernels are pure
//! optimisations. A store answers every threshold, top-k and range query
//! with the reference answer (`trass_traj::reference`; same ids, order and
//! distance bits) with bounds on and off, at 1 and 4 query threads.
//! `tests/exactness.rs` holds every path and engine to the same contract
//! on drawn stores of 16–500 rows. This file also checks that every
//! candidate's verdict is attributed and that a corrupt row is skipped.
//! The trass-traj half of the argument (bound soundness, kernel
//! bit-identity) lives in `crates/traj/tests/bounds_props.rs`.

use trass_core::config::TrassConfig;
use trass_core::query;
use trass_core::schema::{parse_rowkey, RowValue};
use trass_core::store::TrajectoryStore;
use trass_geo::Mbr;
use trass_traj::{generator, reference, DpFeatures, Measure, Trajectory};

const MEASURES: [Measure; 3] = [Measure::Frechet, Measure::Hausdorff, Measure::Dtw];

fn open_store(data: &[Trajectory], refine_bounds: bool, threads: usize) -> TrajectoryStore {
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let cfg = TrassConfig {
        refine_bounds,
        query_threads: threads,
        trace_sample_every: 1,
        ..TrassConfig::for_extent(extent)
    };
    let store = TrajectoryStore::open(cfg).expect("open");
    store.insert_all(data).expect("insert");
    store.flush().expect("flush");
    store
}

/// `data` stored under refine bounds {on, off} × query threads {1, 4},
/// each with the name its failures report.
fn grid(data: &[Trajectory]) -> Vec<(String, TrajectoryStore)> {
    [(true, 1), (true, 4), (false, 1), (false, 4)]
        .into_iter()
        .map(|(bounds, threads)| {
            (format!("bounds={bounds} threads={threads}"), open_store(data, bounds, threads))
        })
        .collect()
}

#[test]
fn threshold_results_identical_with_and_without_bounds() {
    let data = generator::tdrive_like(11, 250);
    let stores = grid(&data);
    for measure in MEASURES {
        for q in &generator::sample_queries(&data, 3, 5) {
            // Spans tight (few hits, heavy pruning) to wide (most
            // candidates are hits, bounds rarely fire).
            for eps in [0.0, 0.002, 0.01, 0.05] {
                let want = reference::threshold(&data, q, eps, measure);
                for (config, store) in &stores {
                    let got = query::threshold_search(store, q, eps, measure).expect("threshold");
                    let cell = format!("{config} measure={measure} eps={eps} query={}", q.id);
                    assert_eq!(reference::diff(&got.results, &want), None, "{cell}");
                }
            }
        }
    }
}

#[test]
fn topk_results_identical_with_and_without_bounds() {
    // Top-k is the adversarial case: the live TopKBound feeds refinement
    // a moving threshold, so bounds and kernel abandons fire against a
    // value that tightens mid-query. The ranked answer must not notice.
    let data = generator::tdrive_like(13, 250);
    let stores = grid(&data);
    for measure in MEASURES {
        for q in &generator::sample_queries(&data, 3, 23) {
            for k in [1, 5, 10, 20] {
                let want = reference::top_k(&data, q, k, measure);
                for (config, store) in &stores {
                    let got = query::top_k_search(store, q, k, measure).expect("topk");
                    let cell = format!("{config} measure={measure} k={k} query={}", q.id);
                    assert_eq!(reference::diff(&got.results, &want), None, "{cell}");
                }
            }
        }
    }
}

#[test]
fn range_results_identical_with_and_without_bounds() {
    // Range search never runs a similarity kernel, so this must hold
    // trivially — pinned so a future refactor routing range through the
    // refine context cannot silently change it.
    let data = generator::tdrive_like(19, 250);
    let window = Mbr::new(116.2, 39.8, 116.5, 40.0);
    let want = reference::range(&data, &window);
    assert!(!want.is_empty(), "the window holds no row");
    for (config, store) in grid(&data) {
        let got = query::range_search(&store, &window).expect("range");
        assert_eq!(reference::diff(&got.results, &want), None, "{config}");
    }
}

#[test]
fn refine_attribution_accounts_for_every_candidate() {
    // Run with the local filter ablated: every retrieved row becomes a
    // refinement candidate, so the lower bounds face the unfiltered
    // stream. (With the local filter on, threshold candidates already
    // survived per-lemma checks at the same ε, so the refine bounds only
    // fire against top-k's tightening live bound.)
    let eps = 0.005;
    let mut data = generator::tdrive_like(23, 200);
    let mut queries = generator::sample_queries(&data, 3, 31);
    // Whether the generated data holds a candidate a bound prunes depends
    // on the generator's stream, so one is constructed: the trajectory
    // with the widest start-to-end gap, run backwards. The same point set
    // gives it the index space of the original — which global pruning
    // keeps, the original being at distance 0 from itself — so with the
    // local filter off it reaches refinement; but its first point is the
    // original's last, so the endpoint bound equals that gap, above ε.
    let gap = |t: &Trajectory| t.start().distance(&t.end());
    let widest = data.iter().max_by(|a, b| gap(a).total_cmp(&gap(b))).expect("data").clone();
    assert!(gap(&widest) > 2.0 * eps, "no trajectory with endpoints {eps}° apart");
    let backwards = data.len() as u64;
    data.push(Trajectory::new(backwards, widest.points().iter().rev().copied().collect()));
    queries.push(widest.clone());
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let cfg = TrassConfig {
        refine_bounds: true,
        query_threads: 1,
        use_local_filter: false,
        ..TrassConfig::for_extent(extent)
    };
    let store = TrajectoryStore::open(cfg).expect("open");
    store.insert_all(&data).expect("insert");
    store.flush().expect("flush");
    for measure in MEASURES {
        for q in &queries {
            let r = query::threshold_search(&store, q, eps, measure).expect("search");
            let want = reference::threshold(&data, q, eps, measure);
            assert_eq!(reference::diff(&r.results, &want), None, "{measure} query {}", q.id);
            let s = &r.stats.refine_prune;
            assert_eq!(
                s.pruned_total() + s.abandoned + s.computed + s.corrupt,
                r.stats.candidates,
                "unattributed candidates: measure={measure} query={} {s:?}",
                q.id
            );
            assert_eq!(s.computed, r.stats.results, "every computed distance is a hit");
            if q.id == widest.id {
                // Hausdorff ignores order: there the reversal is a hit.
                let by_endpoint = measure.supports_endpoint_lemma();
                assert_eq!(s.endpoint >= 1, by_endpoint, "{measure}: {s:?}");
                let hit = r.results.iter().any(|&(tid, _)| tid == backwards);
                assert_eq!(hit, !by_endpoint, "{measure}: the reversal's verdict");
            }
        }
    }

    // With bounds off nothing is ever attributed to a bound.
    let legacy = open_store(&data, false, 1);
    let r = query::threshold_search(&legacy, &widest, eps, Measure::Frechet).expect("legacy");
    assert_eq!(r.stats.refine_prune.pruned_total(), 0);
}

#[test]
fn corrupt_empty_row_is_skipped_not_a_panic() {
    // Regression for the empty-sequence panic surface: a stored row whose
    // value decodes to zero points must be skipped (and counted) wherever
    // it surfaces, never passed to an exact kernel that asserts non-empty
    // input. Overwrite one row in place with an empty-point value and run
    // the full query matrix over it.
    let data = generator::tdrive_like(29, 50);
    let victim = data[0].id;
    for refine_bounds in [true, false] {
        let store = open_store(&data, refine_bounds, 1);
        let rows = store.cluster().scan(trass_kv::KeyRange::all()).expect("scan");
        let key = rows
            .iter()
            .find(|r| parse_rowkey(&r.key).is_some_and(|(_, _, tid)| tid == victim))
            .expect("victim row present")
            .key
            .clone();
        let empty = RowValue {
            points: Vec::new(),
            features: DpFeatures {
                rep_indices: Vec::new(),
                rep_points: Vec::new(),
                boxes: Vec::new(),
            },
        };
        store.cluster().put(key, empty.encode()).expect("put");
        store.cluster().flush().expect("flush");

        let q = &data[0];
        for measure in MEASURES {
            // The answers are the reference answers over the other rows.
            let r = query::threshold_search(&store, q, 0.01, measure).expect("threshold");
            let want = reference::threshold(&data[1..], q, 0.01, measure);
            let cell = format!("bounds={refine_bounds}, {measure}");
            assert_eq!(reference::diff(&r.results, &want), None, "threshold, {cell}");
            let t = query::top_k_search(&store, q, 5, measure).expect("topk");
            let want = reference::top_k(&data[1..], q, 5, measure);
            assert_eq!(reference::diff(&t.results, &want), None, "top-k, {cell}");
        }
    }
}
