//! Stage times reconcile: the three surfaces that report a stage's wall
//! time — `QueryStats`, `trass_query_stage_seconds` and the trace span —
//! carry the same measured duration, stage intervals nest inside the
//! query's total, and what the total adds on top of them (the glue between
//! stages) stays under a stated share. A query's row count reconciles with
//! its own scan alone, whatever else runs on the store.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use trass_core::config::TrassConfig;
use trass_core::stats::RefinePrune;
use trass_core::store::{ExplainQuery, TrajectoryStore};
use trass_core::{range_search, threshold_search, top_k_search, QueryStats};
use trass_geo::Mbr;
use trass_kv::MetricsSnapshot;
use trass_obs::{SpanRecord, STAGE_HISTOGRAM};
use trass_traj::{generator, Measure};

/// Upper bound on `Σ(total − Σ stage wall) / Σ total` over each batch below
/// (DESIGN.md's "Stage timing" bullet quotes it). Measured on the 2-core
/// reference host: 0.003–0.01 % for thresholds, 0.04 % for range, 1 % for
/// traced top-k. The glue is 2–8 µs a pass (stats assembly, the
/// `local-filter` span, top-k's per-round bookkeeping), so the share only
/// approaches the bound on queries far below a millisecond — which top-k
/// at k = 1 on this store now is (3–4 %), hence the larger k below.
const MAX_RESIDUAL: f64 = 0.05;

const STAGES: [&str; 3] = ["pruning", "scan", "refine"];

/// Held by each test for its whole run. The glue bound is a statement about
/// a quiet host, and `retrieved_ignores_concurrent_scans` loads every core
/// on purpose: run side by side, its range loop preempts top-k's
/// sub-millisecond rounds between stages.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn stage_nanos(stats: &QueryStats) -> [u128; 3] {
    [stats.pruning_time, stats.scan_time, stats.refine_time].map(|d| d.as_nanos())
}

/// Per batch (a query kind under one stage label set): how often each
/// stage ran, the summed `QueryStats` stage times, and the summed totals.
#[derive(Default)]
struct Batch {
    executions: u64,
    stage_nanos: [u128; 3],
    total: Duration,
}

/// (query kind, `measure` label of its stage series) → batch.
type Batches = BTreeMap<(&'static str, Option<&'static str>), Batch>;

/// Checks one query's trace against its stats — each stage's span
/// durations, summed over `parents` (the root, or top-k's rounds), equal
/// the `QueryStats` field — and that its stages nest inside its total;
/// then books it under `key`.
fn book(
    batches: &mut Batches,
    key: (&'static str, Option<&'static str>),
    stats: &QueryStats,
    parents: Option<Vec<&SpanRecord>>,
) {
    let batch = batches.entry(key).or_default();
    let executions = parents.as_ref().map_or(1, Vec::len);
    for (i, stage) in STAGES.iter().enumerate() {
        if let Some(parents) = &parents {
            let spans: u128 =
                parents.iter().map(|p| u128::from(p.child(stage).unwrap().duration_ns)).sum();
            assert_eq!(spans, stage_nanos(stats)[i], "{stage} over {executions} pass(es)");
        }
        batch.stage_nanos[i] += stage_nanos(stats)[i];
    }
    let staged: u128 = stage_nanos(stats).iter().sum();
    assert!(stats.total_time > Duration::ZERO);
    assert!(staged <= stats.total_time.as_nanos(), "stages {staged} ns > {:?}", stats.total_time);
    batch.executions += executions as u64;
    batch.total += stats.total_time;
}

fn reconcile(query_threads: usize) {
    let mut config = TrassConfig::for_extent(Mbr::new(116.0, 39.6, 116.8, 40.2));
    config.query_threads = query_threads;
    config.trace_sample_every = 0;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(7, 240);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    // Top-k is a batch of its own: its rounds are passes far below a
    // millisecond, where the glue weighs most.
    let mut batches = Batches::new();

    for q in data.iter().take(12) {
        let r = threshold_search(&store, q, 0.004, Measure::Frechet).unwrap();
        book(&mut batches, ("threshold", Some("frechet")), &r.stats, None);
        let r = threshold_search(&store, q, 0.004, Measure::Dtw).unwrap();
        book(&mut batches, ("threshold", Some("dtw")), &r.stats, None);
        let p = q.points()[0];
        let window = Mbr::new(p.x - 0.001, p.y - 0.001, p.x + 0.001, p.y + 0.001);
        let r = range_search(&store, &window).unwrap();
        book(&mut batches, ("range", None), &r.stats, None);
    }
    let q = &data[3];
    let e = store
        .explain(ExplainQuery::Threshold { query: q, eps: 0.004, measure: Measure::Dtw })
        .unwrap();
    book(&mut batches, ("threshold", Some("dtw")), &e.result.stats, Some(vec![&e.trace.root]));
    let e = store.explain(ExplainQuery::Range { window: q.mbr() }).unwrap();
    book(&mut batches, ("range", None), &e.result.stats, Some(vec![&e.trace.root]));
    // Top-k: stage times are sums over the rounds (one per batch of the
    // frontier), and every round ran every stage once.
    for (q, k) in [(&data[9], 10), (&data[17], 40)] {
        let e =
            store.explain(ExplainQuery::TopK { query: q, k, measure: Measure::Frechet }).unwrap();
        let rounds: Vec<_> = e.trace.root.children_named("round").collect();
        assert!(!rounds.is_empty());
        book(&mut batches, ("topk", Some("frechet")), &e.result.stats, Some(rounds));
    }

    for ((kind, measure), b) in &batches {
        let staged: u128 = b.stage_nanos.iter().sum();
        let residual = (b.total.as_nanos() - staged) as f64 / b.total.as_nanos() as f64;
        assert!(
            residual < MAX_RESIDUAL,
            "{kind} {measure:?}: {:.2} % of query time is outside every stage",
            residual * 100.0
        );
    }
    // Each label set's histograms saw exactly the executions and exactly
    // the nanoseconds of the batches that feed it.
    for measure in [Some("frechet"), Some("dtw"), None] {
        let fed: Vec<&Batch> =
            batches.iter().filter(|((_, m), _)| *m == measure).map(|(_, b)| b).collect();
        for (i, stage) in STAGES.iter().enumerate() {
            let mut labels = vec![("stage", *stage)];
            labels.extend(measure.map(|m| ("measure", m)));
            let h = store.registry().timer(STAGE_HISTOGRAM, &labels);
            assert_eq!(h.count(), fed.iter().map(|b| b.executions).sum::<u64>(), "{labels:?}");
            let nanos: u128 = fed.iter().map(|b| b.stage_nanos[i]).sum();
            assert_eq!(u128::from(h.sum()), nanos, "{labels:?} _sum");
        }
    }
}

#[test]
fn stage_times_reconcile_with_total_metrics_and_traces() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    for query_threads in [1, 4] {
        reconcile(query_threads);
    }
}

/// A query's scan counts are its own scans' tallies, not deltas of the
/// store's shared counters: a concurrent full-extent range loop on the same
/// store leaves every repetition's `retrieved`, `candidates` and `io` at
/// its solo value, and an `explain` trace's `region-scan` spans at the
/// same rows and cache look-ups.
#[test]
fn retrieved_ignores_concurrent_scans() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let mut config = TrassConfig::for_extent(extent);
    config.query_threads = 2;
    config.trace_sample_every = 0;
    // A coarse index keeps the range query's pruning short, so its scans
    // take most of its time and overlap most of the threshold scans.
    config.max_resolution = 6;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(11, 240);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    let q = &data[5];
    let solo = threshold_search(&store, q, 0.01, Measure::Frechet).unwrap().stats;
    let lookups = |io: &MetricsSnapshot| io.cache_hits + io.cache_misses;
    assert!(solo.retrieved > 0 && lookups(&solo.io) > 0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                range_search(&store, &extent).unwrap();
            }
        });
        let got: Result<Vec<QueryStats>, _> = (0..50)
            .map(|_| threshold_search(&store, q, 0.01, Measure::Frechet).map(|r| r.stats))
            .collect();
        let explained = store.explain(ExplainQuery::Threshold {
            query: q,
            eps: 0.01,
            measure: Measure::Frechet,
        });
        stop.store(true, Ordering::Relaxed);
        for got in got.unwrap() {
            let io = &got.io;
            assert_eq!((io.entries_scanned, got.retrieved), (solo.retrieved, solo.retrieved));
            assert_eq!(io.entries_returned, got.candidates);
            assert_eq!(got.candidates, solo.candidates);
            assert_eq!((io.range_scans, lookups(io)), (solo.io.range_scans, lookups(&solo.io)));
            assert_eq!(io.blocks_read, io.cache_misses, "every miss reads its block");
        }
        let trace = explained.unwrap().trace;
        let spans: Vec<&SpanRecord> =
            trace.root.child("scan").unwrap().children_named("region-scan").collect();
        let sum = |field: &str| spans.iter().filter_map(|s| s.field_u64(field)).sum::<u64>();
        assert_eq!(sum("rows_scanned"), solo.retrieved);
        assert_eq!(sum("cache_hits") + sum("cache_misses"), lookups(&solo.io));
    });
}

/// With nothing else running, the registry's `trass_kv_*` I/O counters
/// advance by exactly the sum of the queries' own `io`: each scan
/// publishes its tally once.
#[test]
fn kv_counters_advance_by_the_queries_io() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let mut config = TrassConfig::for_extent(extent);
    config.query_threads = 2;
    // A cache of a few blocks, so the queries both hit and miss.
    config.store.block_cache_bytes = 16 << 10;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(13, 300);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    let before = store.cluster().metrics_snapshot();
    let mut io = MetricsSnapshot::default();
    for q in data.iter().step_by(30) {
        io = io.plus(&threshold_search(&store, q, 0.01, Measure::Frechet).unwrap().stats.io);
        io = io.plus(&top_k_search(&store, q, 5, Measure::Dtw).unwrap().stats.io);
        io = io.plus(&range_search(&store, &q.mbr()).unwrap().stats.io);
    }
    assert!(io.blocks_read > 0 && io.cache_hits > 0, "{io:?}");
    assert_eq!(store.cluster().metrics_snapshot().since(&before), io);
}

/// `(trass_queries{kind}, trass_query_errors{kind})` of `kind` now.
fn query_counts(store: &TrajectoryStore, kind: &str) -> (u64, u64) {
    let labels = [("kind", kind)];
    let registry = store.registry();
    (
        registry.counter("trass_queries", &labels).get(),
        registry.counter("trass_query_errors", &labels).get(),
    )
}

/// `trass_refine_outcomes{outcome}` now, in `RefinePrune` field order.
fn refine_outcomes(store: &TrajectoryStore) -> [u64; 6] {
    ["pruned-endpoint", "pruned-mbr-gap", "pruned-ref-gap", "abandoned", "computed", "corrupt"].map(
        |outcome| store.registry().counter("trass_refine_outcomes", &[("outcome", outcome)]).get(),
    )
}

/// With nothing else running, the query families advance by exactly what
/// the queries report: `trass_refine_outcomes{outcome}` by the sum of
/// their `refine_prune`, label by label; `trass_queries{kind}` by the
/// queries of each kind; `trass_query_seconds` by one sample of each
/// query's total time.
#[test]
fn query_counters_advance_by_the_queries_stats() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut config = TrassConfig::for_extent(Mbr::new(116.0, 39.6, 116.8, 40.2));
    config.query_threads = 2;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(17, 240);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    let outcomes_before = refine_outcomes(&store);
    let counts_before = ["threshold", "topk", "range"].map(|kind| query_counts(&store, kind).0);
    let seconds = store.registry().timer("trass_query_seconds", &[]);
    let (samples_before, nanos_before) = (seconds.count(), seconds.sum());
    let (mut prune, mut nanos) = (RefinePrune::default(), 0u128);
    let mut book = |stats: &QueryStats| {
        prune = prune.plus(&stats.refine_prune);
        nanos += stats.total_time().as_nanos();
    };
    for q in data.iter().step_by(40) {
        for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            book(&threshold_search(&store, q, 0.01, measure).unwrap().stats);
            book(&top_k_search(&store, q, 5, measure).unwrap().stats);
        }
        book(&range_search(&store, &q.mbr()).unwrap().stats);
    }
    assert!(prune.computed > 0 && prune.pruned_total() > 0, "{prune:?}");
    let want = [
        prune.endpoint,
        prune.mbr_gap,
        prune.ref_gap,
        prune.abandoned,
        prune.computed,
        prune.corrupt,
    ];
    let got = refine_outcomes(&store);
    assert_eq!(std::array::from_fn(|i| got[i] - outcomes_before[i]), want);
    let queries = data.iter().step_by(40).count() as u64;
    let counts = ["threshold", "topk", "range"].map(|kind| query_counts(&store, kind).0);
    assert_eq!(
        std::array::from_fn(|i| counts[i] - counts_before[i]),
        [3 * queries, 3 * queries, queries]
    );
    assert_eq!(seconds.count() - samples_before, 7 * queries);
    assert_eq!(u128::from(seconds.sum() - nanos_before), nanos);
}

/// A query the store rejects counts under `trass_query_errors{kind}` and
/// nowhere else: a threshold query at ε = NaN adds 1 to the threshold
/// errors, 0 to `trass_queries` and no `trass_query_seconds` sample; the
/// next valid one adds the reverse.
#[test]
fn a_rejected_query_counts_as_an_error_not_a_query() {
    let store =
        TrajectoryStore::open(TrassConfig::for_extent(Mbr::new(116.0, 39.6, 116.8, 40.2))).unwrap();
    let data = generator::tdrive_like(19, 20);
    store.insert_all(&data).unwrap();
    let seconds = store.registry().timer("trass_query_seconds", &[]);
    let (queries, errors) = query_counts(&store, "threshold");
    assert!(threshold_search(&store, &data[0], f64::NAN, Measure::Frechet).is_err());
    assert_eq!(query_counts(&store, "threshold"), (queries, errors + 1));
    assert_eq!(seconds.count(), 0);
    threshold_search(&store, &data[0], 0.01, Measure::Frechet).unwrap();
    assert_eq!(query_counts(&store, "threshold"), (queries + 1, errors + 1));
    assert_eq!(seconds.count(), 1);
    for kind in ["topk", "range"] {
        assert_eq!(query_counts(&store, kind), (0, 0), "{kind}");
    }
}
