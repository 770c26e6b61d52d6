//! The trajectory store: indexing and writing (§IV-E, Fig. 8's write path).

use crate::config::TrassConfig;
use crate::query::pipeline::{Answer, QueryKind, STAGE_SERIES};
use crate::schema::{parse_rowkey, rowkey, shard_of, RowValue};
use crate::stats::{QueryStats, RefinePrune, SearchResult};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trass_exec::ScopedPool;
use trass_geo::{Mbr, Point};
use trass_index::ranges::ValueRange;
use trass_index::xzstar::{BestFirst, IndexSpace, Occupancy, PruningConfig, XzStar, LEAF_ROWS};
use trass_kv::{Cluster, ClusterOptions, KvError};
use trass_obs::sync::RwLock;
use trass_obs::{
    Counter, FlightRecorder, Histogram, QueryTrace, Registry, SlowLog, Telemetry, TelemetrySources,
    TraceCtx, TraceSampler, TraceSpan, STAGE_HISTOGRAM,
};
use trass_traj::{DpFeatures, Measure, Trajectory, TrajectoryId};

/// How many slow queries the store retains (top-N by total time).
const SLOW_LOG_CAPACITY: usize = 32;

/// How many completed query traces the flight recorder retains.
const FLIGHT_RECORDER_CAPACITY: usize = 32;

/// One retained slow query: what ran and its full accounting.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Query kind: `"threshold"`, `"topk"`, or `"range"`.
    pub kind: &'static str,
    /// Human-readable query parameters and outcome.
    pub detail: String,
    /// The query's full stats (timings, I/O, cardinalities).
    pub stats: QueryStats,
    /// The query's span tree, when the query was traced (sampled or
    /// explained). Untraced queries retain `None` — tracing every
    /// potential slow query would defeat sampling.
    pub trace: Option<Arc<QueryTrace>>,
}

/// A query to run under [`TrajectoryStore::explain`].
#[derive(Debug, Clone)]
pub enum ExplainQuery<'a> {
    /// Threshold similarity search (`f(Q, T) ≤ eps`).
    Threshold {
        /// The query trajectory.
        query: &'a Trajectory,
        /// Similarity threshold in world units.
        eps: f64,
        /// Similarity measure.
        measure: Measure,
    },
    /// Top-k similarity search.
    TopK {
        /// The query trajectory.
        query: &'a Trajectory,
        /// Number of results.
        k: usize,
        /// Similarity measure.
        measure: Measure,
    },
    /// Spatial range query.
    Range {
        /// Query window in world coordinates.
        window: Mbr,
    },
}

/// An explained query: its answer plus the full execution trace.
#[derive(Debug, Clone)]
pub struct Explained {
    /// The query's normal result.
    pub result: SearchResult,
    /// The execution span tree ([`QueryTrace::render_text`] /
    /// [`QueryTrace::render_json`] for the two renderings).
    pub trace: Arc<QueryTrace>,
}

/// A TraSS deployment: the XZ\* index plus the sharded KV cluster.
///
/// Two tables live in the deployment: the trajectory table keyed by
/// `shard + index value + tid` (Table I) and a small id-index table
/// (`tid → index value`) enabling point lookups, deletes, and
/// move-aware re-inserts — the operational surface a production system
/// needs beyond the paper's read-mostly evaluation.
pub struct TrajectoryStore {
    config: TrassConfig,
    index: XzStar,
    /// The trajectory table (the telemetry endpoint's `/healthz` and
    /// `/readyz` routes hold a weak handle to it).
    cluster: Arc<Cluster>,
    /// Secondary table: tid → current index value.
    id_index: Cluster,
    /// What the trajectory table holds under each index value: the
    /// occupancy that guides global pruning.
    occupancy: RowsByValue,
    /// Shared metric registry: the query pipeline, the ingest path, and
    /// every region of the main cluster report into it.
    registry: Arc<Registry>,
    /// Top-N slowest queries by total wall-clock time (shared with the
    /// telemetry endpoint's `/slowlog` route).
    slow_queries: Arc<SlowLog<SlowQueryRecord>>,
    /// Deterministic 1-in-N query trace sampling.
    tracer: TraceSampler,
    /// Ring buffer of the last N completed traces (shared with the
    /// telemetry endpoint's `/traces` route).
    flight: Arc<FlightRecorder>,
    /// The one worker pool of a query's parallel stages: lent to
    /// `cluster` for region-scan fan-out, and refinement runs on it
    /// (`config.query_threads` participants; `1` runs both inline on the
    /// query thread).
    pool: Arc<ScopedPool>,
    /// Monotonic id handed to traced queries; the root span carries it as
    /// the `trace_id` label so slow-log entries can name their trace.
    trace_seq: AtomicU64,
    ingest_seconds: Arc<Histogram>,
    ingest_rows: Arc<Counter>,
    query_obs: QueryObs,
}

/// Every handle the query path records through, resolved at open and never
/// per query (a registry lookup allocates its key and takes the registry
/// mutex), as kv's `StoreObs` does for the store's own series.
pub(crate) struct QueryObs {
    /// End-to-end latency of successful queries.
    query_seconds: Arc<Histogram>,
    /// `trass_queries{kind}` and `trass_query_errors{kind}`, by [`QueryKind`].
    by_kind: [(Arc<Counter>, Arc<Counter>); 3],
    /// `trass_query_stage_seconds`: one row per label family
    /// ([`stage_family`]), one column per [`STAGE_SERIES`] entry.
    stage_seconds: [[Arc<Histogram>; 4]; 4],
    /// `trass_refine_outcomes{outcome}`, in [`RefinePrune::outcomes`] order.
    refine_outcomes: [Arc<Counter>; 6],
}

/// The row of a stage-series label family in [`QueryObs::stage_seconds`]:
/// `{stage, measure}` per similarity measure, then `{stage}` alone for
/// range queries. Exhaustive, so a new measure cannot silently share a row.
const fn stage_family(measure: Option<Measure>) -> usize {
    match measure {
        Some(Measure::Frechet) => 0,
        Some(Measure::Hausdorff) => 1,
        Some(Measure::Dtw) => 2,
        None => 3,
    }
}

impl QueryObs {
    fn new(registry: &Registry) -> Self {
        let families = [Some(Measure::Frechet), Some(Measure::Hausdorff), Some(Measure::Dtw), None];
        debug_assert!(families.iter().enumerate().all(|(row, m)| stage_family(*m) == row));
        let stage_seconds = |measure: Option<Measure>, stage: &str| match measure {
            Some(m) => registry.timer(STAGE_HISTOGRAM, &[("stage", stage), ("measure", m.name())]),
            None => registry.timer(STAGE_HISTOGRAM, &[("stage", stage)]),
        };
        QueryObs {
            query_seconds: registry.timer("trass_query_seconds", &[]),
            by_kind: QueryKind::ALL.map(|kind| {
                let labels = [("kind", kind.name())];
                (
                    registry.counter("trass_queries", &labels),
                    registry.counter("trass_query_errors", &labels),
                )
            }),
            stage_seconds: families.map(|m| STAGE_SERIES.map(|stage| stage_seconds(m, stage))),
            refine_outcomes: RefinePrune::default().outcomes().map(|(outcome, _)| {
                registry.counter("trass_refine_outcomes", &[("outcome", outcome)])
            }),
        }
    }

    /// The [`STAGE_SERIES`]`[series]` histogram of `measure`'s label family.
    pub(crate) fn stage_seconds(&self, measure: Option<Measure>, series: usize) -> &Histogram {
        &self.stage_seconds[stage_family(measure)][series]
    }

    /// Adds one refine stage's attribution to `trass_refine_outcomes`.
    pub(crate) fn count_refine_outcomes(&self, prune: &RefinePrune) {
        for (counter, (_, n)) in self.refine_outcomes.iter().zip(prune.outcomes()) {
            counter.add(n);
        }
    }
}

impl TrajectoryStore {
    /// Opens a store with the given configuration.
    pub fn open(config: TrassConfig) -> Result<Self, KvError> {
        config.validate().map_err(|m| KvError::InvalidUsage { message: m })?;
        let registry = Registry::new_shared();
        let pool = Arc::new(ScopedPool::with_registry(config.query_threads, &registry, "query"));
        let cluster = Cluster::open(ClusterOptions {
            shards: config.shards,
            store: config.store.clone(),
            registry: Some(Arc::clone(&registry)),
        })?
        .with_pool(Arc::clone(&pool));
        let mut id_store = config.store.clone();
        if let Some(dir) = &config.store.dir {
            id_store.dir = Some(dir.join("id-index"));
        }
        // The id-index keeps a private registry: its regions reuse the same
        // shard labels as the main cluster and would collide otherwise. It
        // serves point lookups only, so it gets no pool.
        let id_index = Cluster::open(ClusterOptions {
            shards: config.shards,
            store: id_store,
            registry: None,
        })?;
        let index = XzStar::new(config.max_resolution);
        let occupancy = RowsByValue::of(&cluster);
        let ingest_seconds = registry.timer("trass_ingest_seconds", &[]);
        let ingest_rows = registry.counter("trass_ingest_rows", &[]);
        // Deployment identity for dashboards: the value is always 1; the
        // configuration travels in the labels.
        let shards = config.shards.to_string();
        registry
            .gauge(
                "trass_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("shards", &shards),
                    ("use_position_codes", bool_label(config.use_position_codes)),
                    ("use_min_dist", bool_label(config.use_min_dist)),
                    ("use_local_filter", bool_label(config.use_local_filter)),
                ],
            )
            .set(1);
        let query_obs = QueryObs::new(&registry);
        Ok(TrajectoryStore {
            tracer: TraceSampler::every(config.trace_sample_every),
            flight: Arc::new(FlightRecorder::new(FLIGHT_RECORDER_CAPACITY)),
            pool,
            trace_seq: AtomicU64::new(0),
            config,
            index,
            cluster: Arc::new(cluster),
            id_index,
            occupancy,
            registry,
            slow_queries: Arc::new(SlowLog::new(SLOW_LOG_CAPACITY)),
            ingest_seconds,
            ingest_rows,
            query_obs,
        })
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &TrassConfig {
        &self.config
    }

    /// The XZ\* index.
    pub fn index(&self) -> &XzStar {
        &self.index
    }

    /// The underlying KV cluster (exposed for metrics and experiments).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The deployment's metric registry (queries, ingest, and the main
    /// cluster's regions all report here).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The slowest queries seen so far, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.slow_queries.snapshot().into_iter().map(|(_, r)| r).collect()
    }

    /// The flight recorder holding the last N completed query traces
    /// (sampled queries and every `explain`).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Whether this store can serve right now: [`Cluster::health`] of the
    /// trajectory table's regions, `Err` naming the first failing shard.
    /// [`render_health`] turns it into the `/healthz` report.
    pub fn health(&self) -> Result<(), String> {
        self.cluster.health()
    }

    /// Starts the embedded telemetry endpoint on
    /// [`TrassConfig::telemetry_addr`] (an ephemeral localhost port when
    /// unset). The returned [`Telemetry`] owns the listener; dropping it
    /// (or calling [`Telemetry::shutdown`]) stops it.
    pub fn serve_telemetry(&self) -> std::io::Result<Telemetry> {
        let slow = Arc::clone(&self.slow_queries);
        // Weak, so a running endpoint does not keep the store's regions and
        // query pool alive once the store drops.
        let cluster = Arc::downgrade(&self.cluster);
        Telemetry::serve(
            self.config.telemetry_addr.as_deref().unwrap_or("127.0.0.1:0"),
            TelemetrySources {
                registry: Arc::clone(&self.registry),
                flight: Arc::clone(&self.flight),
                slowlog: Arc::new(move |json| render_slowlog(&slow, json)),
                health: Arc::new(move || {
                    render_health(match cluster.upgrade() {
                        Some(cluster) => cluster.health(),
                        None => Err("store closed".into()),
                    })
                }),
            },
        )
    }

    /// Runs a query with tracing forced on and returns its result together
    /// with the execution span tree — the `EXPLAIN ANALYZE` entry point.
    /// The query runs for real (it counts in metrics, the slow log, and
    /// the flight recorder).
    pub fn explain(&self, query: ExplainQuery<'_>) -> Result<Explained, KvError> {
        let ctx = TraceCtx::enabled();
        let (result, trace) = match query {
            ExplainQuery::Threshold { query, eps, measure } => {
                crate::query::threshold::threshold_search_traced(self, query, eps, measure, ctx)?
            }
            ExplainQuery::TopK { query, k, measure } => {
                crate::query::topk::top_k_search_traced(self, query, k, measure, ctx)?
            }
            ExplainQuery::Range { window } => {
                crate::query::range::range_search_traced(self, &window, ctx)?
            }
        };
        let trace = trace.ok_or_else(|| KvError::Corruption {
            context: "explain trace context produced no trace".into(),
        })?;
        Ok(Explained { result, trace })
    }

    /// Starts a trace context for one query: enabled for 1-in-N sampled
    /// queries, otherwise the no-op context (a single branch per span on
    /// the hot path). Called by the query drivers.
    pub(crate) fn begin_trace(&self) -> TraceCtx {
        if self.tracer.sample() {
            TraceCtx::enabled()
        } else {
            TraceCtx::disabled()
        }
    }

    /// The query worker pool, which refinement runs on.
    pub(crate) fn pool(&self) -> &ScopedPool {
        &self.pool
    }

    /// The query path's pre-resolved metric handles.
    pub(crate) fn query_obs(&self) -> &QueryObs {
        &self.query_obs
    }

    /// Runs one query of `kind` under `ctx`: the prologue and epilogue
    /// every driver shares. `body` gets the open root span (for its own
    /// labels and fields, and to parent its stages) and returns the
    /// [`Answer`]. An error is counted under `kind` and returned; otherwise
    /// a traced query gets the next trace id as its root's `trace_id`
    /// label (ids stay dense across the traces that actually exist, and
    /// slow-log entries can name their trace), its span tree is retained
    /// in the flight recorder, and the query is counted and offered to the
    /// slow log.
    pub(crate) fn run_query(
        &self,
        kind: QueryKind,
        ctx: TraceCtx,
        body: impl FnOnce(&mut TraceSpan) -> Result<Answer, KvError>,
    ) -> Result<(SearchResult, Option<Arc<QueryTrace>>), KvError> {
        let mut root = ctx.root(kind.name());
        let (result, detail) = match body(&mut root) {
            Ok(answer) => answer,
            Err(e) => {
                self.query_obs.by_kind[kind as usize].1.inc();
                return Err(e);
            }
        };
        if root.is_enabled() {
            let id = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
            root.set_label("trace_id", &id.to_string());
        }
        root.finish();
        let trace = ctx.finish().map(Arc::new);
        if let Some(trace) = &trace {
            self.flight.push(Arc::clone(trace));
        }
        if let Some(detail) = detail {
            self.record_query(kind, detail, &result.stats, trace.clone());
        }
        Ok((result, trace))
    }

    /// Counts a finished query, records its latency, and offers it to the
    /// slow-query log (with its trace attached when one was recorded).
    fn record_query(
        &self,
        kind: QueryKind,
        detail: String,
        stats: &QueryStats,
        trace: Option<Arc<QueryTrace>>,
    ) {
        let obs = &self.query_obs;
        obs.by_kind[kind as usize].0.inc();
        obs.query_seconds.record_duration(stats.total_time());
        self.slow_queries.record(
            stats.total_time().as_nanos() as u64,
            SlowQueryRecord { kind: kind.name(), detail, stats: stats.clone(), trace },
        );
    }

    /// Global pruning for `query`: the traversal over this store's
    /// occupancy under its ablation switches; `None` for an empty query.
    pub(crate) fn frontier(&self, query: &Trajectory) -> Option<BestFirst<'_>> {
        // The walk emits values; its callers coalesce them into ranges.
        let config = PruningConfig {
            use_position_codes: self.config.use_position_codes,
            use_min_dist: self.config.use_min_dist,
            ..PruningConfig::default()
        };
        BestFirst::new(&self.index, self.to_unit(query.points()), &self.occupancy, config)
    }

    /// What this store holds under each index value, as global pruning
    /// reads it.
    pub(crate) fn occupancy(&self) -> &dyn Occupancy {
        &self.occupancy
    }

    /// Maps a trajectory's world-space points into unit space.
    pub fn to_unit(&self, points: &[Point]) -> Vec<Point> {
        points.iter().map(|p| self.config.space.to_unit(p)).collect()
    }

    /// Computes the XZ\* index space of a trajectory (the write path's
    /// "Indexing" stage in Fig. 8).
    pub fn index_space_of(&self, traj: &Trajectory) -> IndexSpace {
        let unit = self.to_unit(traj.points());
        self.index.index_points(&unit)
    }

    /// The id-index key of a trajectory: `shard + tid`.
    fn id_key(&self, tid: TrajectoryId) -> Vec<u8> {
        let mut k = Vec::with_capacity(9);
        k.push(shard_of(tid, self.config.shards));
        k.extend_from_slice(&tid.to_be_bytes());
        k
    }

    /// The current index value of a stored trajectory, if any.
    fn stored_value_of(&self, tid: TrajectoryId) -> Result<Option<u64>, KvError> {
        match self.id_index.get(&self.id_key(tid))? {
            Some(bytes) => match <[u8; 8]>::try_from(bytes.as_ref()) {
                Ok(raw) => Ok(Some(u64::from_le_bytes(raw))),
                Err(_) => Err(KvError::Corruption { context: "id-index value size".into() }),
            },
            None => Ok(None),
        }
    }

    /// Inserts (or replaces) one trajectory: extracts DP features, computes
    /// the index value, and writes the row. A re-insert whose geometry
    /// moved to a different index space removes the stale row first.
    pub fn insert(&self, traj: &Trajectory) -> Result<(), KvError> {
        let t = Instant::now();
        let space = self.index_space_of(traj);
        let value = self.index.encode(&space);
        let shard = shard_of(traj.id, self.config.shards);
        // Move-aware replace: drop the old row if the index value changed.
        let old_value = self.stored_value_of(traj.id)?;
        if let Some(old_value) = old_value.filter(|&old| old != value) {
            self.cluster.delete(rowkey(shard, old_value, traj.id))?;
        }
        let key = rowkey(shard, value, traj.id);
        let row = RowValue {
            points: traj.points().to_vec(),
            features: DpFeatures::extract(traj, self.config.dp_theta),
        };
        self.occupancy.raise(value, old_value == Some(value));
        self.cluster.put(key, row.encode())?;
        self.id_index.put(self.id_key(traj.id), value.to_le_bytes().to_vec())?;
        self.ingest_rows.inc();
        self.ingest_seconds.record_duration(t.elapsed());
        Ok(())
    }

    /// Fetches a trajectory by id.
    pub fn get(&self, tid: TrajectoryId) -> Result<Option<Trajectory>, KvError> {
        let Some(value) = self.stored_value_of(tid)? else { return Ok(None) };
        let shard = shard_of(tid, self.config.shards);
        let Some(bytes) = self.cluster.get(&rowkey(shard, value, tid))? else {
            return Err(KvError::Corruption {
                context: format!("id-index points at missing row for tid {tid}"),
            });
        };
        let row = RowValue::decode(&bytes).map_err(|e| KvError::Corruption {
            context: format!("row value for tid {tid}: {e}"),
        })?;
        Ok(Trajectory::try_new(tid, row.points))
    }

    /// Removes a trajectory by id. Returns whether it existed.
    pub fn remove(&self, tid: TrajectoryId) -> Result<bool, KvError> {
        let Some(value) = self.stored_value_of(tid)? else { return Ok(false) };
        let shard = shard_of(tid, self.config.shards);
        self.cluster.delete(rowkey(shard, value, tid))?;
        self.id_index.delete(self.id_key(tid))?;
        Ok(true)
    }

    /// Inserts a batch of trajectories.
    pub fn insert_all<'a, I: IntoIterator<Item = &'a Trajectory>>(
        &self,
        trajectories: I,
    ) -> Result<usize, KvError> {
        let mut n = 0;
        for t in trajectories {
            self.insert(t)?;
            n += 1;
        }
        Ok(n)
    }

    /// Flushes all regions (mostly useful before measuring I/O).
    pub fn flush(&self) -> Result<(), KvError> {
        self.cluster.flush()?;
        self.id_index.flush()
    }
}

/// Rows of the trajectory table per index value, in memory: the
/// [`Occupancy`] global pruning walks. Rebuilt at open from the cluster's
/// resident keys (a key once per memtable or table holding it, tombstones
/// included) and raised before every row is written, so a query sees every
/// row written before it began, as its scan does. It is never lowered: a
/// removed or moved row keeps counting until the store is reopened, as its
/// tombstone does in the rebuild, so no interleaving of writers to one id
/// can leave a value that holds a row counted empty.
struct RowsByValue(RwLock<BTreeMap<u64, u64>>);

impl RowsByValue {
    fn of(cluster: &Cluster) -> Self {
        let mut rows: BTreeMap<u64, u64> = BTreeMap::new();
        cluster.visit_resident_keys(&mut |key| {
            if let Some((_, value, _)) = parse_rowkey(key) {
                *rows.entry(value).or_default() += 1;
            }
        });
        RowsByValue(RwLock::new(rows))
    }

    /// Counts a row about to be written under `value`. A row rewritten in
    /// place (`rewrite`: the id already lives under `value`) was counted
    /// when it arrived, so repeated loads of the same data add nothing; it
    /// still counts once where the map holds nothing under `value`.
    fn raise(&self, value: u64, rewrite: bool) {
        let mut rows = self.0.write();
        let n = rows.entry(value).or_default();
        if !rewrite || *n == 0 {
            *n += 1;
        }
    }
}

impl Occupancy for RowsByValue {
    /// Stops counting past [`LEAF_ROWS`]: the sum over the root's range
    /// would walk every stored value.
    fn rows(&self, range: ValueRange) -> u64 {
        let mut rows = 0;
        for (_, &n) in self.0.read().range(range.start..=range.end) {
            rows += n;
            if rows > LEAF_ROWS {
                break;
            }
        }
        rows
    }

    fn values(&self, range: ValueRange) -> Vec<(u64, u64)> {
        self.0.read().range(range.start..=range.end).map(|(&v, &n)| (v, n)).collect()
    }
}

/// Renders a [`TrajectoryStore::health`] verdict as the telemetry
/// endpoint's `/healthz` and `/readyz` and the wire `Health` op report it:
/// `status: ok` or `status: unhealthy`, then the `kv-regions` line, which
/// carries the reason when it fails. The flag is the verdict.
pub fn render_health(verdict: Result<(), String>) -> (bool, String) {
    match verdict {
        Ok(()) => (true, "status: ok\nok   probe kv-regions\n".to_string()),
        Err(reason) => (false, format!("status: unhealthy\nFAIL probe kv-regions: {reason}\n")),
    }
}

/// Renders the slow-query log for the telemetry endpoint's `/slowlog`
/// route: a plain-text report, or (`json = true`) a JSON array whose
/// entries carry the id of their attached trace (`null` when the query
/// ran untraced) for cross-referencing against `/traces`.
fn render_slowlog(log: &SlowLog<SlowQueryRecord>, json: bool) -> String {
    let entries = log.snapshot();
    if json {
        let mut out = String::from("[");
        for (i, (nanos, rec)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let trace_id = rec
                .trace
                .as_ref()
                .and_then(|t| t.root.label("trace_id").map(str::to_string))
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "{{\"rank\":{},\"total_ms\":{:.3},\"kind\":\"{}\",\"detail\":{},\"trace_id\":{}}}",
                i + 1,
                *nanos as f64 / 1e6,
                rec.kind,
                trass_obs::json::string(&rec.detail),
                trace_id,
            ));
        }
        out.push_str("]\n");
        return out;
    }
    if entries.is_empty() {
        return "slow-query log: empty\n".to_string();
    }
    let mut out = format!("{} retained slow queries, slowest first\n\n", entries.len());
    for (i, (nanos, rec)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "{:>2}. {:>10.3} ms  {:<9} {}{}\n",
            i + 1,
            *nanos as f64 / 1e6,
            rec.kind,
            rec.detail,
            if rec.trace.is_some() { "  [traced]" } else { "" },
        ));
    }
    out
}

fn bool_label(v: bool) -> &'static str {
    if v {
        "true"
    } else {
        "false"
    }
}

impl std::fmt::Debug for TrajectoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrajectoryStore")
            .field("max_resolution", &self.config.max_resolution)
            .field("shards", &self.config.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_kv::KeyRange;

    fn store() -> TrajectoryStore {
        TrajectoryStore::open(TrassConfig::default()).unwrap()
    }

    fn beijing_traj(id: u64, offset: f64) -> Trajectory {
        Trajectory::new(
            id,
            (0..10)
                .map(|i| Point::new(116.30 + offset + i as f64 * 0.001, 39.90 + offset))
                .collect(),
        )
    }

    #[test]
    fn insert_writes_one_row_per_trajectory() {
        let s = store();
        for i in 0..20 {
            s.insert(&beijing_traj(i, i as f64 * 0.01)).unwrap();
        }
        s.flush().unwrap();
        let rows = s.cluster().scan(KeyRange::all()).unwrap();
        assert_eq!(rows.len(), 20);
        // Every row decodes.
        for row in &rows {
            let parsed = crate::schema::parse_rowkey(&row.key).unwrap();
            assert!(parsed.0 < s.config().shards);
            let value = RowValue::decode(&row.value).unwrap();
            assert_eq!(value.points.len(), 10);
        }
    }

    #[test]
    fn reinserting_same_id_overwrites() {
        let s = store();
        let t = beijing_traj(7, 0.0);
        s.insert(&t).unwrap();
        s.insert(&t).unwrap();
        let rows = s.cluster().scan(KeyRange::all()).unwrap();
        assert_eq!(rows.len(), 1);
        // The rewrite is counted once, not once per load.
        let value = s.index().encode(&s.index_space_of(&t));
        let all = ValueRange { start: 0, end: u64::MAX };
        assert_eq!(s.occupancy.values(all), [(value, 1)]);
    }

    #[test]
    fn similar_trajectories_share_index_spaces() {
        let s = store();
        let a = beijing_traj(1, 0.0);
        let mut b_points = a.points().to_vec();
        for p in &mut b_points {
            p.y += 1e-5; // nearly identical
        }
        let b = Trajectory::new(2, b_points);
        let sa = s.index_space_of(&a);
        let sb = s.index_space_of(&b);
        assert_eq!(sa, sb, "near-identical trajectories index together");
    }

    #[test]
    fn get_by_id_roundtrip() {
        let s = store();
        let t = beijing_traj(42, 0.0);
        s.insert(&t).unwrap();
        let got = s.get(42).unwrap().expect("present");
        assert_eq!(got.points(), t.points());
        assert_eq!(got.id, 42);
        assert!(s.get(43).unwrap().is_none());
    }

    #[test]
    fn remove_deletes_row_and_id_entry() {
        let s = store();
        let t = beijing_traj(7, 0.0);
        s.insert(&t).unwrap();
        assert!(s.remove(7).unwrap());
        assert!(s.get(7).unwrap().is_none());
        assert!(!s.remove(7).unwrap(), "second remove is a no-op");
        assert!(s.cluster().scan(KeyRange::all()).unwrap().is_empty());
    }

    #[test]
    fn moved_reinsert_does_not_leave_stale_rows() {
        let s = store();
        let original = beijing_traj(9, 0.0);
        s.insert(&original).unwrap();
        // Same id, geometry on the other side of the city: a different
        // index space.
        let moved = beijing_traj(9, 0.35);
        assert_ne!(
            s.index_space_of(&original),
            s.index_space_of(&moved),
            "test requires distinct index spaces"
        );
        s.insert(&moved).unwrap();
        let rows = s.cluster().scan(KeyRange::all()).unwrap();
        assert_eq!(rows.len(), 1, "stale row left behind");
        assert_eq!(s.get(9).unwrap().unwrap().points(), moved.points());
    }

    #[test]
    fn insert_all_counts() {
        let s = store();
        let data: Vec<Trajectory> = (0..15).map(|i| beijing_traj(i, i as f64 * 0.002)).collect();
        assert_eq!(s.insert_all(&data).unwrap(), 15);
    }

    #[test]
    fn trajectories_on_the_east_and_north_edges_index_and_answer() {
        // Unit coordinate 1.0 of the default space: longitude 180, latitude
        // 270, and a segment past 180 that normalization clamps onto it.
        let s = store();
        let shapes: [&[(f64, f64)]; 4] = [
            &[(180.0, 10.0)],
            &[(180.0, 10.0), (180.0, 11.0)],
            &[(10.0, 270.0)],
            &[(181.0, 10.0), (182.0, 10.0)],
        ];
        let data: Vec<Trajectory> = (1..)
            .zip(shapes)
            .map(|(id, pts)| {
                Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
            })
            .collect();
        assert_eq!(s.insert_all(&data).unwrap(), 4);
        s.flush().unwrap();
        for q in &data {
            let got = crate::threshold_search(&s, q, 0.0, Measure::Frechet).unwrap().results;
            let brute: Vec<(u64, f64)> = data
                .iter()
                .filter_map(|t| {
                    Measure::Frechet.distance_within(q.points(), t.points(), 0.0).map(|d| (t.id, d))
                })
                .collect();
            assert_eq!(got, brute, "threshold at eps 0, query {}", q.id);
            let top = crate::top_k_search(&s, q, 1, Measure::Frechet).unwrap().results;
            let nearest = data
                .iter()
                .map(|t| (t.id, Measure::Frechet.distance(q.points(), t.points())))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(top.first().copied(), nearest, "top-1, query {}", q.id);
        }
    }

    #[test]
    fn health_renders_the_regions_verdict() {
        assert_eq!(
            render_health(store().health()),
            (true, "status: ok\nok   probe kv-regions\n".into())
        );
        assert_eq!(
            render_health(Err("shard 1: data dir gone".into())),
            (false, "status: unhealthy\nFAIL probe kv-regions: shard 1: data dir gone\n".into())
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = TrassConfig { shards: 0, ..TrassConfig::default() };
        assert!(TrajectoryStore::open(cfg).is_err());
    }
}
