//! The JUST / TrajMesa baseline: XZ-Ordering on the key-value cluster.
//!
//! JUST (ICDE'20) and TrajMesa store trajectories in HBase under GeoMesa's
//! XZ2 index and filter candidates by MBR and pivot (start/end) points —
//! no shape information, no resolution banding. Running it on the *same*
//! LSM cluster as TraSS makes the rows-scanned comparison the paper's
//! Fig. 11(b) / §VI-C I/O claim.

use crate::{finish_topk, EngineResult, SimilarityEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trass_core::schema::{parse_rowkey, rowkey, shard_key_ranges, shard_of, RowValue, RowView};
use trass_exec::ScopedPool;
use trass_geo::{Mbr, NormalizedSpace, Point};
use trass_index::xz2::Xz2;
use trass_kv::{Cluster, ClusterOptions, FilterDecision, ScanFilter, StoreOptions};
use trass_obs::TraceSpan;
use trass_traj::{DpFeatures, Measure, Trajectory};

/// Configuration of the XZ-KV baseline.
#[derive(Debug, Clone)]
pub struct XzKvConfig {
    /// Maximum XZ2 resolution (same default as TraSS for fairness).
    pub max_resolution: u8,
    /// Rowkey shards.
    pub shards: u8,
    /// Square world extent.
    pub space: NormalizedSpace,
    /// DP tolerance — rows store the same value payload as TraSS so byte
    /// volumes are comparable.
    pub dp_theta: f64,
}

impl Default for XzKvConfig {
    fn default() -> Self {
        XzKvConfig { max_resolution: 16, shards: 8, space: trass_geo::WORLD_SQUARE, dp_theta: 0.01 }
    }
}

/// The engine: an XZ2 index over a sharded KV cluster.
pub struct XzKvEngine {
    config: XzKvConfig,
    index: Xz2,
    cluster: Cluster,
    build_time: Duration,
    n: usize,
}

impl XzKvEngine {
    /// Builds the engine over a dataset (in-memory cluster, scanning its
    /// regions in parallel on a pool of the machine's parallelism).
    pub fn build(data: &[Trajectory], config: XzKvConfig) -> Self {
        let t0 = Instant::now();
        let cluster = Cluster::open(ClusterOptions {
            shards: config.shards,
            store: StoreOptions::in_memory(),
            ..ClusterOptions::default()
        })
        .expect("in-memory cluster always opens")
        .with_pool(Arc::new(ScopedPool::new(0)));
        let index = Xz2::new(config.max_resolution);
        for traj in data {
            let unit_mbr = config.space.mbr_to_unit(&traj.mbr());
            let code = index.encode(&index.index_mbr(&unit_mbr));
            let shard = shard_of(traj.id, config.shards);
            let key = rowkey(shard, code, traj.id);
            let row = RowValue {
                points: traj.points().to_vec(),
                features: DpFeatures::extract(traj, config.dp_theta),
            };
            cluster.put(key, row.encode()).expect("in-memory put");
        }
        cluster.flush().expect("flush");
        XzKvEngine { config, index, cluster, build_time: t0.elapsed(), n: data.len() }
    }

    /// The underlying cluster (for I/O metrics in experiments).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs a threshold query and reports stats.
    fn run_threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> EngineResult {
        let t0 = Instant::now();
        let q_mbr = query.mbr();
        let ext = q_mbr.extended(eps);
        let unit_window = self.config.space.mbr_to_unit(&ext);
        let value_ranges = self.index.query_ranges(&unit_window, 0);
        let key_ranges = shard_key_ranges(self.config.shards, &value_ranges);

        // JUST-style local filter: MBR containment in the extended window
        // plus start/end pivots (for coupling measures).
        let filter = MbrEndpointFilter::new(query, ext, eps, measure);
        let (rows, io) = self
            .cluster
            .scan_ranges_traced(&key_ranges, &filter, &TraceSpan::disabled())
            .expect("scan");

        // Each candidate's points, read in place into one reused buffer.
        let (mut points, mut results) = (Vec::new(), Vec::new());
        for row in &rows {
            let Some((_, _, tid)) = parse_rowkey(&row.key) else { continue };
            let Ok(view) = RowView::parse(&row.value) else { continue };
            points.clear();
            points.extend(view.points().iter());
            if let Some(d) = measure.distance_within(query.points(), &points, eps) {
                results.push((tid, d));
            }
        }
        results.sort_by_key(|&(tid, _)| tid);
        EngineResult {
            results,
            retrieved: io.entries_scanned,
            candidates: rows.len() as u64,
            query_time: t0.elapsed(),
            stages: None,
        }
    }
}

impl SimilarityEngine for XzKvEngine {
    fn name(&self) -> &'static str {
        "JUST(XZ2)"
    }

    fn build_time(&self) -> Duration {
        self.build_time
    }

    fn threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> Option<EngineResult> {
        Some(self.run_threshold(query, eps, measure))
    }

    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult> {
        // JUST answers top-k by iterative threshold expansion: start from a
        // small radius and double until one round returns k results (all of
        // them, on a smaller store). A round's answer is exact, so its k
        // nearest are the store's. Rows retrieved summed over rounds say
        // nothing about that: a DTW budget is a sum of distances, and long
        // routes fill a window long before they fall within its radius.
        let t0 = Instant::now();
        let want = k.min(self.n);
        let mut eps = query.mbr().width().max(query.mbr().height()).max(1e-4) * 0.1;
        let mut agg = EngineResult::default();
        for _ in 0..32 {
            let r = self.run_threshold(query, eps, measure);
            agg.retrieved += r.retrieved;
            agg.candidates += r.candidates;
            if r.results.len() >= want {
                agg.results = finish_topk(r.results, k);
                agg.query_time = t0.elapsed();
                return Some(agg);
            }
            eps *= 2.0;
        }
        agg.query_time = t0.elapsed();
        Some(agg)
    }
}

/// The JUST-style push-down filter: MBR inside the extended window +
/// endpoint pivots, read from the row where it lies.
struct MbrEndpointFilter {
    q_start: Point,
    q_end: Point,
    ext: Mbr,
    eps: f64,
    endpoint_check: bool,
}

impl MbrEndpointFilter {
    fn new(query: &Trajectory, ext: Mbr, eps: f64, measure: Measure) -> Self {
        MbrEndpointFilter {
            q_start: query.start(),
            q_end: query.end(),
            ext,
            eps,
            endpoint_check: measure.supports_endpoint_lemma(),
        }
    }
}

impl ScanFilter for MbrEndpointFilter {
    fn check(&self, _key: &[u8], value: &[u8]) -> FilterDecision {
        let Ok(row) = RowView::parse(value) else { return FilterDecision::Skip };
        let points = row.points();
        let (Some(t_start), Some(t_end)) = (points.first(), points.last()) else {
            return FilterDecision::Skip;
        };
        let mut mbr = Mbr::from_point(t_start);
        points.iter().for_each(|p| mbr.extend(p));
        // Any similar trajectory lies wholly inside Ext(Q.MBR, eps).
        if !self.ext.contains(&mbr) {
            return FilterDecision::Skip;
        }
        if self.endpoint_check
            && (self.q_start.distance(&t_start) > self.eps
                || self.q_end.distance(&t_end) > self.eps)
        {
            return FilterDecision::Skip;
        }
        FilterDecision::Keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds with an explicit square extent.
    fn build_for_extent(data: &[Trajectory], extent: Mbr) -> XzKvEngine {
        XzKvEngine::build(
            data,
            XzKvConfig { space: NormalizedSpace::square(extent), ..XzKvConfig::default() },
        )
    }

    fn dataset() -> Vec<Trajectory> {
        trass_traj::generator::tdrive_like(3, 200)
    }

    fn engine(data: &[Trajectory]) -> XzKvEngine {
        build_for_extent(data, trass_traj::generator::BEIJING)
    }

    #[test]
    fn threshold_matches_brute_force() {
        let data = dataset();
        let e = engine(&data);
        let q = &data[10];
        let eps = 0.005;
        let got = e.threshold(q, eps, Measure::Frechet).unwrap();
        let got_ids: Vec<u64> = got.results.iter().map(|&(id, _)| id).collect();
        let mut expected: Vec<u64> = data
            .iter()
            .filter(|t| Measure::Frechet.distance_within(q.points(), t.points(), eps).is_some())
            .map(|t| t.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got_ids, expected);
    }

    #[test]
    fn topk_matches_brute_force_distances() {
        let data = dataset();
        let e = engine(&data);
        let q = &data[42];
        let got = e.top_k(q, 8, Measure::Frechet).unwrap();
        assert_eq!(got.results.len(), 8);
        let mut all: Vec<f64> =
            data.iter().map(|t| Measure::Frechet.distance(q.points(), t.points())).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in got.results.iter().zip(all.iter()) {
            assert!((got.1 - want).abs() < 1e-9);
        }
    }

    #[test]
    fn topk_on_long_routes_returns_the_k_nearest() {
        // Lorry routes span hundreds of kilometres, so the first rounds
        // retrieve almost every row while returning almost no answer. The
        // driver must stop on a round that returns k answers, not on the
        // rows it retrieved summed over rounds.
        use trass_traj::generator::{lorry_dataset, LorryConfig, CHINA};
        let cfg = LorryConfig { points_range: (8, 16), ..LorryConfig::default() };
        let data = lorry_dataset(5, 120, &cfg);
        // A coarse index keeps the planner cheap once windows grow to
        // cover the country; the driver is the same at any resolution.
        let config = XzKvConfig {
            max_resolution: 8,
            space: NormalizedSpace::square(CHINA),
            ..XzKvConfig::default()
        };
        let e = XzKvEngine::build(&data, config);
        let k = 50;
        for measure in [Measure::Frechet, Measure::Dtw] {
            for q in data.iter().step_by(40) {
                let got = e.top_k(q, k, measure).unwrap();
                let mut all: Vec<f64> =
                    data.iter().map(|t| measure.distance(q.points(), t.points())).collect();
                all.sort_by(f64::total_cmp);
                let got: Vec<f64> = got.results.iter().map(|&(_, d)| d).collect();
                assert_eq!(got, all[..k], "{measure:?} query {}", q.id);
            }
        }
    }

    #[test]
    fn retrieves_more_than_needed() {
        // The known weakness the paper exploits: XZ2 has no shape pruning,
        // so retrieved >> results.
        let data = dataset();
        let e = engine(&data);
        let q = &data[5];
        let r = e.threshold(q, 0.002, Measure::Frechet).unwrap();
        assert!(r.retrieved >= r.candidates);
        assert!(r.candidates as usize >= r.results.len());
    }

    #[test]
    fn engine_metadata() {
        let data = dataset();
        let e = engine(&data);
        assert_eq!(e.name(), "JUST(XZ2)");
        assert!(e.build_time() > Duration::ZERO);
    }
}
