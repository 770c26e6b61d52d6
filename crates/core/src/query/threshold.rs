//! Threshold similarity search (§V-E, Algorithm 3).

use crate::query::local_filter::{LocalFilter, QuerySide};
use crate::query::pipeline::{record_pruning, QueryKind, Refined, StagedQuery};
use crate::query::refine::{RefineContext, RefineOutcome};
use crate::schema::{parse_rowkey, RowValue};
use crate::stats::SearchResult;
use crate::store::TrajectoryStore;
use std::cell::OnceCell;
use std::sync::Arc;
use trass_exec::TopKBound;
use trass_index::ranges::{coalesce, ValueRange};
use trass_kv::KvError;
use trass_obs::{QueryTrace, TraceCtx, TraceSpan};
use trass_traj::{Measure, Trajectory};

/// At most this many per-candidate refine verdicts are recorded into a
/// trace; past the cap only the counts grow (traces stay bounded even for
/// ε covering the whole store).
const REFINE_VERDICT_CAP: usize = 16;

/// Finds every stored trajectory `T` with `f(Q, T) ≤ eps` (world units,
/// i.e. degrees under the default whole-earth space).
///
/// Follows Algorithm 3: global pruning generates the scan ranges
/// (Algorithm 1), local filtering runs inside the store's scan
/// (Algorithm 2), and only survivors pay the exact measure.
pub fn threshold_search(
    store: &TrajectoryStore,
    query: &Trajectory,
    eps: f64,
    measure: Measure,
) -> Result<SearchResult, KvError> {
    Ok(threshold_search_traced(store, query, eps, measure, store.begin_trace())?.0)
}

/// [`threshold_search`] under an explicit trace context: the driver for
/// both sampled production queries and `explain`. Returns the trace when
/// the context was enabled.
pub(crate) fn threshold_search_traced(
    store: &TrajectoryStore,
    query: &Trajectory,
    eps: f64,
    measure: Measure,
    ctx: TraceCtx,
) -> Result<(SearchResult, Option<Arc<QueryTrace>>), KvError> {
    store.run_query(QueryKind::Threshold, ctx, |root| {
        root.set_label("measure", measure.name());
        root.set_field("eps", eps);
        let plan = |span: &mut TraceSpan| global_pruning(store, query, eps, span);
        let similar = SimilarityQuery::new(query, measure);
        let result = similarity_pass(store, &similar, eps, None, root, plan)?;
        root.set_field("results", result.results.len());
        let detail = format!("eps={eps} measure={measure} results={}", result.results.len());
        Ok((result, Some(detail)))
    })
}

/// Algorithm 1 at threshold `eps`: the value ranges of the occupied index
/// spaces that can hold a trajectory within `eps` of `query`, with the
/// per-lemma counters on `span`.
fn global_pruning(
    store: &TrajectoryStore,
    query: &Trajectory,
    eps: f64,
    span: &mut TraceSpan,
) -> Vec<ValueRange> {
    let config = store.config();
    let Some(mut frontier) = store.frontier(query) else { return Vec::new() };
    let eps_unit = config.space.distance_to_unit(eps);
    let values = std::iter::from_fn(|| frontier.next_space(eps_unit)).map(|c| c.value).collect();
    record_pruning(span, &frontier.take_stats());
    coalesce(values, config.range_gap)
}

/// A similarity query as its passes see it: the trajectory, the measure,
/// and the Lemma 12–14 query side built from them once — inside the first
/// pass's scan stage — and shared by every later pass (top-k's batches).
pub(crate) struct SimilarityQuery<'q> {
    trajectory: &'q Trajectory,
    measure: Measure,
    side: OnceCell<Arc<QuerySide>>,
}

impl<'q> SimilarityQuery<'q> {
    pub(crate) fn new(trajectory: &'q Trajectory, measure: Measure) -> Self {
        SimilarityQuery { trajectory, measure, side: OnceCell::new() }
    }

    fn side(&self, theta: f64) -> Arc<QuerySide> {
        let side = self.side.get_or_init(|| QuerySide::new(self.trajectory, theta, self.measure));
        Arc::clone(side)
    }
}

/// One pass of Fig. 8 over the value ranges `plan` produces: the whole of
/// a threshold search (`plan` = Algorithm 1 at `eps`), and one batch of
/// top-k's frontier (`plan` = the next index spaces in lower-bound order;
/// top-k records one aggregate "topk" query instead of one entry per
/// batch). Supplies the staged path with what is specific to similarity
/// search — the Lemma 12–14 filter at `eps` and the exact-measure verdict
/// per candidate.
///
/// `bound` is top-k's early-exit protocol: refine workers shrink their
/// effective threshold to `min(eps, bound.current())` and offer every hit's
/// exact distance back. The bound is always ≥ the k-th best distance among
/// the hits recorded so far, so a skipped candidate is provably outside the
/// final top-k; which *non-top-k* hits get skipped depends on worker
/// timing, so per-batch hit counts may vary across runs while the ranked
/// top-k (and plain threshold results, `bound = None`) never do.
pub(crate) fn similarity_pass(
    store: &TrajectoryStore,
    query: &SimilarityQuery<'_>,
    eps: f64,
    bound: Option<&TopKBound>,
    parent: &TraceSpan,
    plan: impl FnOnce(&mut TraceSpan) -> Vec<ValueRange>,
) -> Result<SearchResult, KvError> {
    if eps.is_nan() || eps < 0.0 {
        return Err(KvError::InvalidUsage { message: format!("invalid threshold {eps}") });
    }
    let config = store.config();
    let measure = query.measure;
    let mut pass = StagedQuery::begin(store, Some(measure), parent);

    let key_ranges = pass.prune(plan);

    let rows = pass.scan(
        key_ranges,
        || {
            // Ablation: an infinite threshold disables every local-filter
            // lemma while keeping the scan path identical.
            let filter_eps = if config.use_local_filter { eps } else { f64::INFINITY };
            LocalFilter::new(query.side(config.dp_theta), filter_eps)
        },
        |filter, rows, span| {
            let rejects = filter.reject_counts();
            span.set_field("kept", rows.len());
            span.set_field("rejected", rejects.total());
            span.set_field("lemma12_rejects", rejects.lemma12);
            span.set_field("lemma13_rejects", rejects.lemma13);
            span.set_field("lemma14_rejects", rejects.lemma14);
            span.set_field("corrupt_rejects", rejects.corrupt);
        },
    )?;

    // Exact similarity on the candidates, fanned out across the store's
    // query pool (the scan's fan-out is done with it by now). Lower bounds
    // (endpoint / MBR gap / ref gap) run before each exact kernel when
    // `refine_bounds` is on; the kernel itself abandons at the effective
    // threshold. Either way the surviving hits carry the bit-identical
    // exact distance. Verdicts come back indexed by candidate, so the merge
    // below observes them in scan order — the same order a sequential loop
    // produces — and the trace stays deterministic.
    let candidates = pass.stats().candidates;
    let results = pass.refine(|span| {
        let points = query.trajectory.points();
        let rctx = RefineContext::new(points, config.refine_bounds);
        let run = store.pool().run_timed(rows, |_, row| {
            let (_, _, tid) = parse_rowkey(&row.key)?;
            let value = RowValue::decode(&row.value).ok()?;
            // The row's cached DP-feature MBR covers the trajectory
            // (covering boxes), which is all the gap bound needs.
            let mbr = (!value.features.is_empty()).then(|| value.features.mbr());
            // Early exit: a bound tighter than eps means enough closer
            // hits are already recorded to disqualify anything past it.
            let eff = bound.map_or(eps, |b| b.effective(eps));
            let outcome = rctx.assess(points, &value.points, mbr.as_ref(), measure, eff);
            if let RefineOutcome::Hit(d) = outcome {
                if let Some(b) = bound {
                    b.offer(d);
                }
            }
            Some((tid, outcome))
        });
        let mut hits = Vec::new();
        let mut verdicts = 0usize;
        for (tid, outcome) in run.results.into_iter().flatten() {
            if let RefineOutcome::Hit(d) = outcome {
                hits.push((tid, d));
            }
            if span.is_enabled() && verdicts < REFINE_VERDICT_CAP {
                verdicts += 1;
                span.set_field("verdict", format!("tid={tid} {}", outcome.label()));
            }
        }
        let prune = rctx.snapshot();
        span.set_field("candidates", candidates);
        span.set_field("hits", hits.len());
        span.set_field("workers", run.worker_busy.len());
        span.set_field("bounds_enabled", rctx.bounds_enabled());
        span.set_field("pruned_endpoint", prune.endpoint);
        span.set_field("pruned_mbr_gap", prune.mbr_gap);
        span.set_field("pruned_ref_gap", prune.ref_gap);
        span.set_field("abandoned", prune.abandoned);
        span.set_field("exact_computed", prune.computed);
        if prune.corrupt > 0 {
            span.set_field("corrupt_rejects", prune.corrupt);
        }
        if candidates as usize > REFINE_VERDICT_CAP {
            span.set_field("verdicts_capped", true);
        }
        Refined { hits, worker_busy: run.worker_busy, prune }
    });
    Ok(SearchResult { results, stats: pass.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrassConfig;
    use crate::store::ExplainQuery;
    use trass_geo::Point;

    fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    /// A small city of trajectories around Beijing plus far-away noise.
    fn populated_store() -> (TrajectoryStore, Trajectory) {
        let store = TrajectoryStore::open(TrassConfig::default()).unwrap();
        let base =
            traj(100, &[(116.30, 39.90), (116.31, 39.905), (116.32, 39.90), (116.33, 39.91)]);
        store.insert(&base).unwrap();
        // Two shifted near-duplicates.
        for (id, dy) in [(101u64, 0.001), (102, 0.004)] {
            let pts: Vec<(f64, f64)> = base.points().iter().map(|p| (p.x, p.y + dy)).collect();
            store.insert(&traj(id, &pts)).unwrap();
        }
        // A same-shape trajectory far away.
        let far: Vec<(f64, f64)> = base.points().iter().map(|p| (p.x + 1.0, p.y + 1.0)).collect();
        store.insert(&traj(200, &far)).unwrap();
        // A much larger trajectory overlapping spatially.
        store.insert(&traj(300, &[(116.0, 39.6), (116.4, 40.0), (116.8, 39.7)])).unwrap();
        store.flush().unwrap();
        (store, base)
    }

    #[test]
    fn finds_exactly_the_similar_trajectories() {
        let (store, q) = populated_store();
        let hits = threshold_search(&store, &q, 0.002, Measure::Frechet).unwrap();
        let ids: Vec<u64> = hits.results.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![100, 101], "got {ids:?}");
        // Distances are correct and within threshold.
        for &(id, d) in &hits.results {
            assert!(d <= 0.002, "id {id} at distance {d}");
        }
        assert_eq!(hits.results[0].1, 0.0, "self-match at distance 0");
    }

    #[test]
    fn wider_threshold_finds_more() {
        let (store, q) = populated_store();
        let narrow = threshold_search(&store, &q, 0.002, Measure::Frechet).unwrap();
        let wide = threshold_search(&store, &q, 0.01, Measure::Frechet).unwrap();
        assert!(wide.results.len() > narrow.results.len());
        let wide_ids: Vec<u64> = wide.results.iter().map(|&(id, _)| id).collect();
        assert!(wide_ids.contains(&102));
        assert!(!wide_ids.contains(&200), "far twin still excluded");
    }

    #[test]
    fn stats_are_consistent() {
        let (store, q) = populated_store();
        let hits = threshold_search(&store, &q, 0.002, Measure::Frechet).unwrap();
        let s = &hits.stats;
        assert!(s.n_ranges > 0);
        assert!(
            s.retrieved >= s.candidates,
            "retrieved {} candidates {}",
            s.retrieved,
            s.candidates
        );
        assert!(s.candidates >= s.results);
        assert_eq!(s.results, 2);
        assert!(s.precision() > 0.0 && s.precision() <= 1.0);
        assert!(s.io.range_scans as usize >= 1);
    }

    #[test]
    fn query_feeds_registry_and_slow_log() {
        let (store, q) = populated_store();
        let hits = threshold_search(&store, &q, 0.002, Measure::Frechet).unwrap();
        assert!(hits.stats.total_time >= hits.stats.scan_time);
        let text = store.registry().render_prometheus();
        assert!(text.contains("# TYPE trass_query_stage_seconds histogram"));
        for stage in ["pruning", "scan", "local-filter", "refine"] {
            assert!(text.contains(&format!("stage=\"{stage}\"")), "missing stage {stage}");
        }
        assert!(
            text.contains("trass_query_stage_seconds_bucket{measure=\"frechet\",stage=\"scan\"")
        );
        assert!(text.contains("trass_query_stage_seconds_sum{measure=\"frechet\",stage=\"scan\"}"));
        assert!(
            text.contains("trass_query_stage_seconds_count{measure=\"frechet\",stage=\"scan\"} 1")
        );
        assert!(text.contains("trass_queries{kind=\"threshold\"} 1"));
        assert!(text.contains("trass_ingest_rows 5"));
        assert!(text.contains("trass_kv_region_scans"));
        let slow = store.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].kind, "threshold");
        assert!(slow[0].detail.contains("eps=0.002"), "detail: {}", slow[0].detail);
        assert!(slow[0].stats.total_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn zero_threshold_finds_exact_duplicates_only() {
        let (store, q) = populated_store();
        let hits = threshold_search(&store, &q, 0.0, Measure::Frechet).unwrap();
        let ids: Vec<u64> = hits.results.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![100]);
    }

    #[test]
    fn negative_threshold_rejected() {
        let (store, q) = populated_store();
        assert!(threshold_search(&store, &q, -1.0, Measure::Frechet).is_err());
        assert!(threshold_search(&store, &q, f64::NAN, Measure::Frechet).is_err());
    }

    #[test]
    fn infinite_threshold_returns_every_row_at_the_cost_of_the_rows() {
        // ε = +∞ admits every element of the 16-level tree; the traversal
        // enters only occupied subtrees, a few elements per stored row.
        let (store, q) = populated_store();
        for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            let query = ExplainQuery::Threshold { query: &q, eps: f64::INFINITY, measure };
            let explained = store.explain(query).unwrap();
            let ids: Vec<u64> = explained.result.results.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, vec![100, 101, 102, 200, 300], "{measure}");
            let pruning = explained.trace.root.child("pruning").unwrap();
            let visited = pruning.field_u64("visited").unwrap();
            assert!(visited <= 5 * 17, "{measure}: {visited} elements visited for 5 rows");
        }
    }

    #[test]
    fn empty_store_returns_empty() {
        let store = TrajectoryStore::open(TrassConfig::default()).unwrap();
        let q = traj(0, &[(10.0, 10.0), (10.1, 10.1)]);
        let hits = threshold_search(&store, &q, 0.01, Measure::Frechet).unwrap();
        assert!(hits.results.is_empty());
        assert_eq!(hits.stats.results, 0);
    }
}
