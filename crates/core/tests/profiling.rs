//! End-to-end checks of the stage-tagged allocation/CPU accounting in
//! EXPLAIN output, and of per-query attribution across thread counts.

use trass_core::config::TrassConfig;
use trass_core::query;
use trass_core::store::{ExplainQuery, TrajectoryStore};
use trass_geo::{Mbr, Point};
use trass_traj::{Measure, Trajectory};

// The accounting only engages when the counting allocator is the process
// allocator — exactly how the shipped binaries install it.
#[global_allocator]
static ALLOC: trass_obs::CountingAlloc = trass_obs::CountingAlloc::system();

fn traj(id: u64, base: (f64, f64), n: usize) -> Trajectory {
    Trajectory::new(
        id,
        (0..n)
            .map(|i| Point::new(base.0 + i as f64 * 0.001, base.1 + (i % 3) as f64 * 0.0005))
            .collect(),
    )
}

fn populated_store(query_threads: usize) -> TrajectoryStore {
    let cfg = TrassConfig {
        query_threads,
        // The flight recorder should hold exactly the explains below.
        trace_sample_every: 0,
        ..TrassConfig::default()
    };
    let store = TrajectoryStore::open(cfg).unwrap();
    for i in 0..40 {
        store.insert(&traj(i, (116.30 + (i % 5) as f64 * 0.01, 39.90), 12)).unwrap();
    }
    store.flush().unwrap();
    store
}

/// Runs a small mixed workload — several threshold shapes, a top-k, and a
/// range query — and sums what each query attributes to itself: queries,
/// rows retrieved, filter survivors, results, KV bytes read.
fn run_workload(store: &TrajectoryStore) -> [u64; 5] {
    let q_small = traj(1000, (116.30, 39.90), 12);
    let q_long = traj(1001, (116.31, 39.90), 40);
    let mut answers = Vec::new();
    for eps in [0.002, 0.0021, 0.0022] {
        answers.push(query::threshold_search(store, &q_small, eps, Measure::Frechet).unwrap());
    }
    answers.push(query::threshold_search(store, &q_long, 0.004, Measure::Hausdorff).unwrap());
    answers.push(query::top_k_search(store, &q_small, 5, Measure::Frechet).unwrap());
    answers.push(query::range_search(store, &Mbr::new(116.29, 39.89, 116.35, 39.92)).unwrap());
    let mut totals = [0; 5];
    for s in answers.iter().map(|a| &a.stats) {
        let row = [1, s.retrieved, s.candidates, s.results, s.io.bytes_read];
        for (total, v) in totals.iter_mut().zip(row) {
            *total += v;
        }
    }
    totals
}

#[test]
fn explain_reports_per_span_alloc_and_cpu() {
    let store = populated_store(2);
    let q = traj(1000, (116.30, 39.90), 12);
    let explained = store
        .explain(ExplainQuery::Threshold { query: &q, eps: 0.002, measure: Measure::Frechet })
        .unwrap();
    let root = &explained.trace.root;

    // The root span accounts the driver thread's allocations over the
    // whole query: never zero (pruning alone builds range vectors).
    assert!(root.field_u64("alloc_bytes").unwrap() > 0, "{root:?}");
    assert!(root.field_u64("allocs").unwrap() > 0);
    // Stage children carry their own attribution.
    let pruning = root.child("pruning").unwrap();
    assert!(pruning.field_u64("alloc_bytes").unwrap() > 0);
    // CPU deltas appear whenever the platform exposes per-thread CPU.
    if trass_obs::alloc::cpu_supported() {
        assert!(root.field_u64("cpu_ns").is_some());
    }
    // Traced queries are identified for slow-log cross-referencing.
    assert!(root.label("trace_id").is_some());
    // Both renderings surface the accounting.
    let text = explained.trace.render_text();
    assert!(text.contains("alloc_bytes="), "missing alloc in:\n{text}");
    if trass_obs::alloc::cpu_supported() {
        assert!(text.contains("cpu_ns="), "missing cpu in:\n{text}");
    }
    let json = explained.trace.render_json();
    assert!(json.contains("alloc_bytes"), "missing alloc in:\n{json}");
}

#[test]
fn attribution_totals_identical_across_thread_counts() {
    let totals = [1usize, 4].map(|threads| run_workload(&populated_store(threads)));
    assert_eq!(totals[0], totals[1], "attribution totals must not depend on the thread count");
    let [queries, retrieved, ..] = totals[0];
    assert_eq!(queries, 6);
    assert!(retrieved > 0);
}
