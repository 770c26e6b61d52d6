//! The one staged query path (§V-E, Fig. 8): G-Pruning → range scans with
//! L-Filtering pushed down → refinement.
//!
//! Threshold search, every batch of top-k's frontier and range search run
//! through a [`StagedQuery`] and supply only what differs: the value
//! ranges, the pushed-down filter with its attribution, and the refine
//! verdicts. The shard fan-out, the scan's I/O tally, the filter-time attribution
//! with its `local-filter` span, the tid sort and the [`QueryStats`]
//! assembly live here, once. Each stage method is that stage's single
//! instrumentation call: one measured wall time goes to
//! `trass_query_stage_seconds`, the trace span and `QueryStats` alike, and
//! query-side preparation runs inside the stage that consumes it, so the
//! stage times nest inside `total_time` and sum to it up to the glue
//! between stages. [`TrajectoryStore::run_query`] is the matching
//! prologue/epilogue around a whole query.

use crate::query::timed_filter::TimedFilter;
use crate::schema::shard_key_ranges;
use crate::stats::{QueryStats, RefinePrune, SearchResult};
use crate::store::TrajectoryStore;
use std::time::{Duration, Instant};
use trass_index::ranges::ValueRange;
use trass_index::xzstar::PruneStats;
use trass_kv::{Entry, KeyRange, KvError, ScanFilter};
use trass_obs::TraceSpan;
use trass_traj::{Measure, TrajectoryId};

/// The query entry points, as metrics, traces and the slow log name them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueryKind {
    Threshold,
    TopK,
    Range,
}

impl QueryKind {
    pub(crate) const ALL: [QueryKind; 3] =
        [QueryKind::Threshold, QueryKind::TopK, QueryKind::Range];

    pub(crate) const fn name(self) -> &'static str {
        ["threshold", "topk", "range"][self as usize]
    }
}

/// The `stage` label values of `trass_query_stage_seconds`: the three
/// scoped stages of Fig. 8 in [`Stage`] order, then the filter time
/// accumulated inside the scan threads.
pub(crate) const STAGE_SERIES: [&str; 4] = ["pruning", "scan", "refine", "local-filter"];
const LOCAL_FILTER: usize = 3;

/// A Fig. 8 stage with its own wall-clock scope.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Pruning,
    Scan,
    Refine,
}

/// What a driver hands [`TrajectoryStore::run_query`]: the answer, plus the
/// slow-log detail to record it under — `None` for a query answered
/// without touching the store (top-k with `k = 0`), which is traced but
/// not counted.
pub(crate) type Answer = (SearchResult, Option<String>);

/// What a refine body produced; [`StagedQuery::refine`] sorts the hits and
/// folds the rest into the stats.
#[derive(Default)]
pub(crate) struct Refined {
    pub(crate) hits: Vec<(TrajectoryId, f64)>,
    pub(crate) prune: RefinePrune,
}

/// One pass through Fig. 8, recording itself.
pub(crate) struct StagedQuery<'a> {
    store: &'a TrajectoryStore,
    /// The `measure` label of the stage series; `None` for range queries,
    /// whose series carry `stage` alone.
    measure: Option<Measure>,
    parent: &'a TraceSpan,
    started: Instant,
    stats: QueryStats,
}

impl<'a> StagedQuery<'a> {
    /// Starts the query clock. Stage spans become children of `parent`; a
    /// disabled parent reduces every trace operation to a branch.
    pub(crate) fn begin(
        store: &'a TrajectoryStore,
        measure: Option<Measure>,
        parent: &'a TraceSpan,
    ) -> Self {
        StagedQuery {
            store,
            measure,
            parent,
            started: Instant::now(),
            stats: QueryStats::default(),
        }
    }

    /// The stats assembled so far (a later stage's trace fields may quote
    /// an earlier stage's counts).
    pub(crate) fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Runs `body` as `stage`: wall timer and trace child are entered
    /// together, and the one measured duration feeds the histogram and the
    /// span and is returned for the stats. Wall time only — the filter
    /// time spent inside the scan threads is reported apart (the
    /// `local-filter` series).
    fn stage<R>(&self, stage: Stage, body: impl FnOnce(&mut TraceSpan) -> R) -> (R, Duration) {
        let obs = self.store.query_obs();
        let started = Instant::now();
        let mut span = self.parent.child(STAGE_SERIES[stage as usize]);
        let out = body(&mut span);
        // The span's closing resource reads (the thread CPU clock) go
        // inside the wall time, not into the glue after it.
        span.close_marks();
        let wall = started.elapsed();
        obs.stage_seconds(self.measure, stage as usize).record_duration(wall);
        span.set_duration(wall);
        span.finish();
        (out, wall)
    }

    /// G-Pruning: `plan` turns the query into index-value ranges (setting
    /// whatever traversal fields it has on the span); the fan-out to one
    /// rowkey range per shard happens here.
    pub(crate) fn prune(
        &mut self,
        plan: impl FnOnce(&mut TraceSpan) -> Vec<ValueRange>,
    ) -> Vec<KeyRange> {
        let shards = self.store.config().shards;
        let (key_ranges, wall) = self.stage(Stage::Pruning, |span| {
            let value_ranges = plan(span);
            let key_ranges = shard_key_ranges(shards, &value_ranges);
            span.set_field("value_ranges", value_ranges.len());
            span.set_field("key_ranges", key_ranges.len());
            key_ranges
        });
        self.stats.pruning_time = wall;
        self.stats.n_ranges = key_ranges.len();
        key_ranges
    }

    /// Range scans with the filter `build` makes pushed down into them.
    /// The filter's time inside the scan threads (CPU-style summed time,
    /// not wall time) becomes the `local-filter` series and sibling span;
    /// `attribute` fills that span's fields from the filter and the kept
    /// rows. `io` is the scan's own I/O tally, `retrieved` its rows
    /// visited, and `candidates` the rows the filter kept. The key ranges
    /// are freed inside the stage: thousands of them cost a share of a
    /// top-k batch that would otherwise fall outside every stage.
    pub(crate) fn scan<F: ScanFilter>(
        &mut self,
        key_ranges: Vec<KeyRange>,
        build: impl FnOnce() -> F,
        attribute: impl FnOnce(&F, &[Entry], &mut TraceSpan),
    ) -> Result<Vec<Entry>, KvError> {
        let cluster = self.store.cluster();
        let ((scanned, filter, filter_time), wall) = self.stage(Stage::Scan, |span| {
            let filter = build();
            let timed = TimedFilter::new(&filter);
            let scanned = cluster.scan_ranges_traced(&key_ranges, &timed, span);
            drop(key_ranges);
            let filter_time = timed.elapsed();
            if let Ok((rows, _)) = &scanned {
                span.set_field("rows_returned", rows.len());
            }
            (scanned, filter, filter_time)
        });
        self.stats.scan_time = wall;
        let (rows, io) = scanned?;
        self.store
            .query_obs()
            .stage_seconds(self.measure, LOCAL_FILTER)
            .record_duration(filter_time);
        let mut span = self.parent.attributed_child(STAGE_SERIES[LOCAL_FILTER], filter_time);
        attribute(&filter, &rows, &mut span);
        span.finish();
        self.stats.io = io;
        self.stats.retrieved = io.entries_scanned;
        self.stats.candidates = rows.len() as u64;
        Ok(rows)
    }

    /// Refinement: `body` decides each candidate and reports on the span;
    /// the hits come back ordered by tid.
    pub(crate) fn refine(
        &mut self,
        body: impl FnOnce(&mut TraceSpan) -> Refined,
    ) -> Vec<(TrajectoryId, f64)> {
        let (refined, wall) = self.stage(Stage::Refine, |span| {
            let mut refined = body(span);
            refined.hits.sort_by_key(|&(tid, _)| tid);
            refined
        });
        self.store.query_obs().count_refine_outcomes(&refined.prune);
        self.stats.refine_time = wall;
        self.stats.refine_prune = refined.prune;
        self.stats.results = refined.hits.len() as u64;
        refined.hits
    }

    /// Stops the query clock and hands the stats over.
    pub(crate) fn finish(mut self) -> QueryStats {
        self.stats.total_time = self.started.elapsed();
        self.stats
    }
}

/// The pruning span's fields, one set for all three query kinds and every
/// top-k batch: the traversal's counters.
pub(crate) fn record_pruning(span: &mut TraceSpan, stats: &PruneStats) {
    span.set_field("visited", stats.visited);
    span.set_field("lemma8_pruned", stats.lemma8_pruned);
    span.set_field("lemma9_pruned", stats.lemma9_pruned);
    span.set_field("lemma10_codes_pruned", stats.lemma10_codes_pruned);
    span.set_field("lemma11_codes_pruned", stats.lemma11_codes_pruned);
    span.set_field("codes_emitted", stats.codes_emitted);
}
