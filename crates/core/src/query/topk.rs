//! Top-k similarity search (§V-E, Algorithm 4).
//!
//! One best-first frontier ([`trass_index::xzstar::BestFirst`], the
//! traversal threshold search drains at a fixed ε) pops the *occupied*
//! index spaces in increasing lower-bound order; the driver cuts that
//! stream into batches, and each batch goes once through the staged path —
//! scan with Lemmas 12–14 pushed down, exact measure on the survivors — at
//! ε = the k-th best distance found so far.
//!
//! * **One carried bound.** A single [`TopKBound`] lives for the whole
//!   query. Every index value is emitted, hence scanned, at most once, and
//!   a row is stored under exactly one value, so no row's distance is
//!   offered twice: the bound is the k-th smallest of *distinct* rows'
//!   distances, never below the true k-th best, and whatever the filter or
//!   the kernels skip against it is provably outside the answer. (Batch
//!   ranges are therefore coalesced with gap 0 — a bridged gap would scan a
//!   value the frontier has yet to emit.)
//! * **Stopping rule.** The query ends when the frontier is empty: its
//!   nearest remaining space lies farther than the k-th best (every row
//!   under it is at least that far), or no occupied space remains. Nothing
//!   depends on the resolution: a store of 50 rows expands the elements
//!   on the paths to those rows and stops.
//! * **Batches.** The first batch holds ≥ k rows by the occupancy bound
//!   (fewer only if the store does), later ones [`BATCH_FACTOR`]× the one
//!   before, so what a loose early bound lets in beyond the final ε is at
//!   most the last batch. ε is read once per batch, between batches, which
//!   makes the batch boundaries — and with them `retrieved` and
//!   `candidates` — independent of worker timing; only the live bound
//!   inside refine moves with it.

use crate::query::pipeline::{record_pruning, QueryKind};
use crate::query::threshold::{similarity_pass, SimilarityQuery};
use crate::stats::{QueryStats, SearchResult};
use crate::store::TrajectoryStore;
use std::sync::Arc;
use std::time::Instant;
use trass_exec::TopKBound;
use trass_index::ranges::coalesce;
use trass_kv::KvError;
use trass_obs::{QueryTrace, TraceCtx, TraceSpan};
use trass_traj::{Measure, Trajectory};

/// Row budget of a batch relative to the one before it.
const BATCH_FACTOR: u64 = 2;

/// Finds the `k` stored trajectories most similar to `query`, ordered by
/// increasing distance, ties by id. Exact for Fréchet and Hausdorff; for
/// DTW the bound is a *sum* budget, which every pruning stage handles the
/// same way (Lemma 5 keeps them sound for it).
pub fn top_k_search(
    store: &TrajectoryStore,
    query: &Trajectory,
    k: usize,
    measure: Measure,
) -> Result<SearchResult, KvError> {
    Ok(top_k_search_traced(store, query, k, measure, store.begin_trace())?.0)
}

/// [`top_k_search`] under an explicit trace context. Each batch becomes a
/// `round` child span (with its eps / candidates / results) whose own
/// children are that batch's pruning/scan/refine stages.
pub(crate) fn top_k_search_traced(
    store: &TrajectoryStore,
    query: &Trajectory,
    k: usize,
    measure: Measure,
    ctx: TraceCtx,
) -> Result<(SearchResult, Option<Arc<QueryTrace>>), KvError> {
    store.run_query(QueryKind::TopK, ctx, |root| {
        root.set_label("measure", measure.name());
        root.set_field("k", k);
        if k == 0 {
            let result = SearchResult { results: Vec::new(), stats: QueryStats::default() };
            return Ok((result, None));
        }
        let t_all = Instant::now();
        let space = &store.config().space;
        let mut frontier = store.frontier(query).ok_or_else(|| KvError::InvalidUsage {
            message: "empty query trajectory".to_string(),
        })?;
        let bound = TopKBound::new(k);
        let similar = SimilarityQuery::new(query, measure);
        let mut budget = k as u64;
        let mut exhausted = false;

        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        // Per-batch summaries for the slow-log entry: the aggregate totals
        // alone hide which batch did the damage.
        let mut rounds = Vec::new();
        while !exhausted {
            let round_no = rounds.len();
            let eps = bound.current();
            let mut rspan = root.child("round");
            rspan.set_label("round", &round_no.to_string());
            rspan.set_field("eps", eps);
            let plan = |span: &mut TraceSpan| {
                let eps_unit = space.distance_to_unit(eps);
                let (mut values, mut rows) = (Vec::new(), 0u64);
                while rows < budget {
                    let Some(next) = frontier.next_space(eps_unit) else {
                        exhausted = true;
                        break;
                    };
                    values.push(next.value);
                    rows += next.rows;
                }
                record_pruning(span, &frontier.take_stats());
                span.set_field("rows_bound", rows);
                coalesce(values, 0)
            };
            let round = similarity_pass(store, &similar, eps, Some(&bound), &rspan, plan)?;
            rspan.set_field("candidates", round.stats.candidates);
            rspan.set_field("results", round.results.len());
            rspan.finish();
            rounds.push(format!(
                "r{round_no}(eps={eps:.6} candidates={} results={})",
                round.stats.candidates,
                round.results.len()
            ));
            stats.absorb_round(&round.stats);
            hits.extend(round.results);
            budget = budget.saturating_mul(BATCH_FACTOR);
        }
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        stats.results = hits.len() as u64;
        stats.total_time = t_all.elapsed();
        root.set_field("rounds", rounds.len());
        root.set_field("results", hits.len());
        let detail = format!(
            "k={k} measure={measure} eps_final={} results={} rounds=[{}]",
            bound.current(),
            hits.len(),
            rounds.join(" ")
        );
        Ok((SearchResult { results: hits, stats }, Some(detail)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrassConfig;
    use crate::store::ExplainQuery;
    use trass_geo::Mbr;
    use trass_traj::TrajectoryId;

    fn config(query_threads: usize, refine_bounds: bool) -> TrassConfig {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        TrassConfig { query_threads, refine_bounds, ..TrassConfig::for_extent(extent) }
    }

    /// A store holding `data`, flushed.
    fn loaded<'a>(
        config: TrassConfig,
        data: impl IntoIterator<Item = &'a Trajectory>,
    ) -> TrajectoryStore {
        let store = TrajectoryStore::open(config).unwrap();
        store.insert_all(data).unwrap();
        store.flush().unwrap();
        store
    }

    fn workload_store(n: usize, seed: u64) -> (TrajectoryStore, Vec<Trajectory>) {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let data = trass_traj::generator::tdrive_like(seed, n);
        (loaded(TrassConfig::for_extent(extent), &data), data)
    }

    fn brute_force_topk(
        data: &[Trajectory],
        q: &Trajectory,
        k: usize,
        measure: Measure,
    ) -> Vec<(TrajectoryId, f64)> {
        let mut all: Vec<(TrajectoryId, f64)> =
            data.iter().map(|t| (t.id, measure.distance(q.points(), t.points()))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn results_are_sorted_ascending() {
        let (store, data) = workload_store(200, 31);
        let got = top_k_search(&store, &data[3], 20, Measure::Frechet).unwrap();
        for w in got.results.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(got.results[0].1, 0.0, "the query itself is stored");
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let (store, data) = workload_store(30, 41);
        let got = top_k_search(&store, &data[0], 100, Measure::Frechet).unwrap();
        assert_eq!(got.results.len(), 30);
    }

    #[test]
    fn k_zero_is_empty() {
        let (store, data) = workload_store(10, 43);
        let got = top_k_search(&store, &data[0], 0, Measure::Frechet).unwrap();
        assert!(got.results.is_empty());
    }

    #[test]
    fn pruning_bound_limits_retrieval() {
        // The frontier should stop well before scanning the whole store
        // for a dense neighbourhood.
        let (store, data) = workload_store(400, 53);
        let got = top_k_search(&store, &data[8], 5, Measure::Frechet).unwrap();
        assert!(
            got.stats.retrieved < 800,
            "retrieved {} rows for k=5 over 400 — no pruning happened",
            got.stats.retrieved
        );
        assert_eq!(got.results.len(), 5);
    }

    #[test]
    fn single_row_store() {
        let (store, data) = workload_store(1, 61);
        let got = top_k_search(&store, &data[0], 3, Measure::Frechet).unwrap();
        assert_eq!(got.results.len(), 1);
        assert_eq!(got.results[0].0, data[0].id);
    }

    #[test]
    fn sparse_store_costs_its_rows_not_the_index() {
        // 50 rows under a 16-level index: the traversal follows the
        // occupied paths and ends when they do, whatever ε would admit.
        let data = trass_traj::generator::tdrive_like(29, 50);
        let store = loaded(config(1, true), &data);
        for measure in [Measure::Frechet, Measure::Dtw] {
            let query = ExplainQuery::TopK { query: &data[7], k: 5, measure };
            let explained = store.explain(query).unwrap();
            assert_eq!(explained.result.results, brute_force_topk(&data, &data[7], 5, measure));
            let expanded: u64 = explained
                .trace
                .root
                .children_named("round")
                .filter_map(|r| r.child("pruning")?.field_u64("visited"))
                .sum();
            assert!(expanded <= 4 * 50, "{measure}: {expanded} elements expanded for 50 rows");
            let stats = &explained.result.stats;
            // At most one rowkey range per shard for every row.
            assert!(stats.n_ranges <= 8 * 50, "{measure}: {} ranges", stats.n_ranges);
            assert!(stats.retrieved <= 50);
        }
        // Fewer rows than k: everything, once. No rows: nothing.
        let all = top_k_search(&store, &data[7], 80, Measure::Frechet).unwrap();
        assert_eq!(all.results, brute_force_topk(&data, &data[7], 80, Measure::Frechet));
        assert_eq!(all.stats.retrieved, 50);
        let empty = TrajectoryStore::open(config(1, true)).unwrap();
        let none = top_k_search(&empty, &data[7], 5, Measure::Frechet).unwrap();
        assert!(none.results.is_empty());
        assert_eq!((none.stats.n_ranges, none.stats.retrieved), (0, 0));
    }

    #[test]
    fn occupancy_sees_unflushed_rows_and_outlives_removed_ones() {
        let mut data = trass_traj::generator::tdrive_like(37, 120);
        let store = loaded(config(1, true), &data[..60]);
        store.insert_all(&data[60..]).unwrap(); // memtable only
        let q = data[90].clone();
        let got = top_k_search(&store, &q, 10, Measure::Frechet).unwrap();
        assert_eq!(got.results, brute_force_topk(&data, &q, 10, Measure::Frechet));
        // A removed row still counts as occupancy — an upper bound — and
        // the answer is the survivors' exact top-k.
        for (tid, _) in got.results.iter().take(4) {
            assert!(store.remove(*tid).unwrap());
            data.retain(|t| t.id != *tid);
        }
        let got = top_k_search(&store, &q, 10, Measure::Frechet).unwrap();
        assert_eq!(got.results, brute_force_topk(&data, &q, 10, Measure::Frechet));
    }

    #[test]
    fn ties_at_the_kth_distance_go_to_the_smallest_ids() {
        // More than k exact duplicates of the query: the k-th best
        // distance is 0, ε becomes exactly 0, and every stage has to keep
        // what ties it.
        let mut data = trass_traj::generator::tdrive_like(43, 60);
        let q = data[11].clone();
        for id in 1000..1008 {
            data.push(Trajectory::new(id, q.points().to_vec()));
        }
        for query_threads in [1, 4] {
            let store = loaded(config(query_threads, true), data.iter().rev());
            for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
                let got = top_k_search(&store, &q, 5, measure).unwrap();
                let want: Vec<(TrajectoryId, f64)> =
                    [q.id, 1000, 1001, 1002, 1003].map(|id| (id, 0.0)).to_vec();
                assert_eq!(got.results, want, "{measure}, {query_threads} thread(s)");
            }
        }
    }
}
