//! Top-k similarity search (§V-E, Algorithm 4 adapted).
//!
//! The paper's Algorithm 4 walks index spaces best-first by `minDistIS`,
//! tightening ε from the running k-th best. That traversal is exact but
//! degenerates on *sparse* stores: until k results exist ε is infinite, and
//! when fewer than k similar rows exist at all it must exhaust every index
//! space (4^r elements) before it can stop. The index-level primitive
//! ([`trass_index::xzstar::BestFirst`]) implements the paper's traversal
//! faithfully; this query path wraps the same pruning machinery in an
//! *iterative-deepening* driver that is exact under all data distributions:
//!
//! 1. run threshold search at a radius derived from the query's extent;
//! 2. if it returned ≥ k results, the true top-k all lie within that
//!    radius (the k-th best distance is ≤ ε and threshold search is
//!    complete) — rank and return;
//! 3. otherwise grow ε geometrically and repeat; once ε covers the whole
//!    space the search has degenerated to a full scan and terminates
//!    unconditionally.
//!
//! Rounds repeat work only on the (small) inner ranges already scanned;
//! the geometric growth bounds total work at a constant factor of the
//! final round.

use crate::query::pipeline::QueryKind;
use crate::query::threshold::similarity_pass;
use crate::stats::{QueryStats, SearchResult};
use crate::store::TrajectoryStore;
use std::sync::Arc;
use std::time::Instant;
use trass_exec::TopKBound;
use trass_kv::KvError;
use trass_obs::{QueryTrace, TraceCtx};
use trass_traj::{Measure, Trajectory};

/// Growth factor between deepening rounds.
const GROWTH: f64 = 4.0;

/// Finds the `k` stored trajectories most similar to `query`, ordered by
/// increasing distance. Exact for Fréchet and Hausdorff; for DTW the
/// threshold is a *sum* budget, which iterative deepening handles the same
/// way (Lemma 5 keeps every pruning stage sound for it).
pub fn top_k_search(
    store: &TrajectoryStore,
    query: &Trajectory,
    k: usize,
    measure: Measure,
) -> Result<SearchResult, KvError> {
    Ok(top_k_search_traced(store, query, k, measure, store.begin_trace())?.0)
}

/// [`top_k_search`] under an explicit trace context. Each deepening round
/// becomes a `round` child span (with its eps / candidates / results)
/// whose own children are that round's pruning/scan/refine stages.
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
        // Initial radius: a fraction of the query's own extent, floored at
        // a few cells of the finest resolution so point queries start sane.
        let cell_world = space.distance_to_world(0.5f64.powi(store.config().max_resolution as i32));
        let mbr = query.mbr();
        let mut eps = (mbr.width().max(mbr.height()) * 0.25).max(cell_world * 4.0);
        // ε covering the entire space ⇒ the search has become a full scan
        // and must terminate.
        let whole_space = space.distance_to_world(2.0);

        let mut stats = QueryStats::default();
        // Per-round summaries for the slow-log entry: the aggregate totals
        // alone hide which round did the damage.
        let mut rounds = Vec::new();
        loop {
            let round_no = rounds.len();
            let mut rspan = root.child("round");
            rspan.set_label("round", &round_no.to_string());
            rspan.set_field("eps", eps);
            // Early-exit bound for this round's refine stage. Fresh per
            // round: rounds rescan the inner ranges, and re-offering a
            // duplicate hit into a carried-over bound would shrink it
            // below the true k-th best. Within one round every row is
            // offered at most once, so the bound stays an upper bound on
            // the k-th best and skipped candidates are provably outside
            // the top-k. The bound also cannot change the termination test
            // below: it only turns finite after k hits are recorded, so
            // `results.len() >= k` already holds whenever anything was
            // skipped.
            let round_bound = TopKBound::new(k);
            let round = similarity_pass(store, query, eps, measure, Some(&round_bound), &rspan)?;
            rspan.set_field("candidates", round.stats.candidates);
            rspan.set_field("results", round.results.len());
            rspan.finish();
            rounds.push(format!(
                "r{round_no}(eps={eps:.6} candidates={} results={})",
                round.stats.candidates,
                round.results.len()
            ));
            stats.absorb_round(&round.stats);
            if round.results.len() >= k || eps >= whole_space {
                let mut results = round.results;
                results.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                results.truncate(k);
                stats.results = results.len() as u64;
                stats.total_time = t_all.elapsed();
                root.set_field("rounds", rounds.len());
                root.set_field("results", results.len());
                let detail = format!(
                    "k={k} measure={measure} eps_final={eps} results={} rounds=[{}]",
                    results.len(),
                    rounds.join(" ")
                );
                return Ok((SearchResult { results, stats }, Some(detail)));
            }
            eps = (eps * GROWTH).min(whole_space);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrassConfig;
    use trass_geo::Mbr;
    use trass_traj::TrajectoryId;

    fn workload_store(n: usize, seed: u64) -> (TrajectoryStore, Vec<Trajectory>) {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let store = TrajectoryStore::open(TrassConfig::for_extent(extent)).unwrap();
        let data = trass_traj::generator::tdrive_like(seed, n);
        store.insert_all(&data).unwrap();
        store.flush().unwrap();
        (store, data)
    }

    fn brute_force_topk(
        data: &[Trajectory],
        q: &Trajectory,
        k: usize,
        measure: Measure,
    ) -> Vec<(TrajectoryId, f64)> {
        let mut all: Vec<(TrajectoryId, f64)> =
            data.iter().map(|t| (t.id, measure.distance(q.points(), t.points()))).collect();
        all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn matches_brute_force_frechet() {
        let (store, data) = workload_store(250, 11);
        let queries = trass_traj::generator::sample_queries(&data, 4, 5);
        for q in &queries {
            let got = top_k_search(&store, q, 10, Measure::Frechet).unwrap();
            let expected = brute_force_topk(&data, q, 10, Measure::Frechet);
            assert_eq!(got.results.len(), 10);
            let got_d: Vec<f64> = got.results.iter().map(|&(_, d)| d).collect();
            let exp_d: Vec<f64> = expected.iter().map(|&(_, d)| d).collect();
            for (g, e) in got_d.iter().zip(exp_d.iter()) {
                assert!((g - e).abs() < 1e-9, "got {got_d:?} expected {exp_d:?}");
            }
        }
    }

    #[test]
    fn matches_brute_force_other_measures() {
        let (store, data) = workload_store(150, 23);
        let q = &data[17];
        for measure in [Measure::Hausdorff, Measure::Dtw] {
            let got = top_k_search(&store, q, 5, measure).unwrap();
            let expected = brute_force_topk(&data, q, 5, measure);
            let got_d: Vec<f64> = got.results.iter().map(|&(_, d)| d).collect();
            let exp_d: Vec<f64> = expected.iter().map(|&(_, d)| d).collect();
            for (g, e) in got_d.iter().zip(exp_d.iter()) {
                assert!((g - e).abs() < 1e-9, "{measure}: got {got_d:?} expected {exp_d:?}");
            }
        }
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
        // Deepening should stop well before scanning the whole store for a
        // dense neighbourhood.
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
}
