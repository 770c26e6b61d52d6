//! Shared machinery: every solution, TraSS included, is one
//! [`SimilarityEngine`]; [`run`] times one operation over a query batch
//! and checks every answer against brute force; [`sweep`] turns datasets ×
//! parameter values × engines into rows.

use crate::datasets::{self, Dataset, Scale};
use crate::report::Reporter;
use std::cell::OnceCell;
use std::time::{Duration, Instant};
use trass_baselines::dft::DftEngine;
use trass_baselines::dita::DitaEngine;
use trass_baselines::repose::ReposeEngine;
use trass_baselines::xz_kv::{XzKvConfig, XzKvEngine};
use trass_baselines::{EngineResult, SimilarityEngine, Stages};
use trass_core::{query, SearchResult, TrajectoryStore, TrassConfig};
use trass_obs::Histogram;
use trass_traj::{Measure, Trajectory, TrajectoryId};

/// TraSS as one more engine: a loaded store and its build time. Its
/// results carry the stage accounting the baselines lack.
pub struct Trass {
    /// The loaded store.
    pub store: TrajectoryStore,
    /// The solution name its rows carry ("TraSS" unless renamed).
    pub name: &'static str,
    build_time: Duration,
}

impl Trass {
    /// Builds TraSS under `cfg`, timing open + load. The default
    /// configuration indexes the whole earth, as the paper's deployment
    /// does ("The entire index space of the XZ\* index covers the earth",
    /// §VI): resolution-dependent figures (12, 14–15) only reproduce under
    /// absolute depths.
    pub fn build(data: &[Trajectory], cfg: TrassConfig) -> Trass {
        let t0 = Instant::now();
        let store = TrajectoryStore::open(cfg).expect("valid config");
        store.insert_all(data).expect("in-memory insert");
        store.flush().expect("flush");
        Trass { store, name: "TraSS", build_time: t0.elapsed() }
    }
}

fn timed(search: impl FnOnce() -> trass_kv::Result<SearchResult>) -> Option<EngineResult> {
    let t0 = Instant::now();
    let SearchResult { results, stats } = search().expect("search");
    Some(EngineResult {
        query_time: t0.elapsed(),
        results,
        retrieved: stats.retrieved,
        candidates: stats.candidates,
        stages: Some(Stages {
            pruning_time: stats.pruning_time,
            refine_time: stats.refine_time,
            refine_pruned: stats.refine_prune.pruned_total(),
        }),
    })
}

impl SimilarityEngine for Trass {
    fn name(&self) -> &'static str {
        self.name
    }

    fn build_time(&self) -> Duration {
        self.build_time
    }

    fn threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> Option<EngineResult> {
        timed(|| query::threshold_search(&self.store, query, eps, measure))
    }

    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult> {
        timed(|| query::top_k_search(&self.store, query, k, measure))
    }
}

/// Every solution of the evaluation over one dataset, TraSS first.
pub fn build_all(ds: &Dataset) -> Vec<Box<dyn SimilarityEngine>> {
    vec![
        Box::new(Trass::build(&ds.data, TrassConfig::default())),
        Box::new(DftEngine::build(ds.data.clone(), 1)),
        Box::new(DitaEngine::build(ds.data.clone())),
        Box::new(XzKvEngine::build(&ds.data, XzKvConfig::default())),
        Box::new(ReposeEngine::build(ds.data.clone(), 2)),
    ]
}

/// One timed operation, asked of every query in a batch.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Threshold search at ε.
    Threshold(f64, Measure),
    /// Top-k search.
    TopK(usize, Measure),
}

impl Op {
    fn measure(self) -> Measure {
        match self {
            Op::Threshold(_, m) | Op::TopK(_, m) => m,
        }
    }

    fn call(self, engine: &dyn SimilarityEngine, q: &Trajectory) -> Option<EngineResult> {
        match self {
            Op::Threshold(eps, m) => engine.threshold(q, eps, m),
            Op::TopK(k, m) => engine.top_k(q, k, m),
        }
    }

    /// Puts an answer in the order it is compared in: threshold hits by
    /// id, top-k by distance with ties broken by id.
    fn normalize(self, answer: &mut [(TrajectoryId, f64)]) {
        match self {
            Op::Threshold(..) => answer.sort_by_key(|r| r.0),
            Op::TopK(..) => answer.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))),
        }
    }
}

/// Threshold search at ε = 0.01 and top-k at k = 50, under Fréchet: the
/// pair Figs. 14 and 17–19 time.
pub const PAIR: [Op; 2] = [Op::Threshold(0.01, Measure::Frechet), Op::TopK(50, Measure::Frechet)];

/// A query batch over one dataset, with the brute-force distances every
/// answer is checked against. They are computed once per measure, on first
/// use, and serve every ε and k of that measure.
pub struct Queries<'a> {
    data: &'a [Trajectory],
    list: Vec<Trajectory>,
    truth: [OnceCell<Vec<Vec<f64>>>; 3],
}

impl<'a> Queries<'a> {
    /// Samples `n` queries from a dataset.
    pub fn new(ds: &'a Dataset, n: usize) -> Queries<'a> {
        Queries { data: &ds.data, list: datasets::queries(ds, n), truth: Default::default() }
    }

    /// The exact answer to `op` for query `i`, in [`Op::normalize`] order.
    fn expected(&self, i: usize, op: Op) -> Vec<(TrajectoryId, f64)> {
        let m = op.measure();
        let distances = &self.truth[m as usize].get_or_init(|| {
            let row = |q: &Trajectory| {
                self.data.iter().map(|t| m.distance(q.points(), t.points())).collect()
            };
            self.list.iter().map(row).collect()
        })[i];
        let mut answer: Vec<_> = self.data.iter().map(|t| t.id).zip(distances.clone()).collect();
        op.normalize(&mut answer);
        match op {
            Op::Threshold(eps, _) => answer.retain(|&(_, d)| d <= eps),
            Op::TopK(k, _) => answer.truncate(k),
        }
        answer
    }
}

/// One engine's aggregate numbers over a query batch.
///
/// Latency percentiles come from a [`trass_obs::Histogram`] over the
/// per-query nanosecond samples — the same structure the live metrics
/// endpoint serves, so benchmark numbers and monitoring numbers share one
/// quantization (≤ 1/32 relative error).
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Median query time.
    pub median_time: Duration,
    /// 99th-percentile query time (Fig. 18).
    pub p99_time: Duration,
    /// 99.9th-percentile query time.
    pub p999_time: Duration,
    /// Mean candidates per query.
    pub mean_candidates: f64,
    /// Mean rows retrieved per query.
    pub mean_retrieved: f64,
    /// Mean results per query.
    pub mean_results: f64,
    /// Mean precision (results / candidates).
    pub mean_precision: f64,
    /// Stage numbers; `None` for engines that report no stages.
    pub stages: Option<StageAggregate>,
    /// Whether every answer equalled brute force.
    pub correct: bool,
}

/// Stage numbers over a query batch.
#[derive(Debug, Clone, Copy)]
pub struct StageAggregate {
    /// Mean global-pruning time.
    pub mean_pruning_time: Duration,
    /// Median refine-stage time.
    pub median_refine_time: Duration,
    /// Mean candidates discarded by refinement's lower bounds.
    pub mean_refine_pruned: f64,
}

fn aggregate(results: &[EngineResult]) -> Aggregate {
    assert!(!results.is_empty());
    let n = results.len() as f64;
    let mean = |f: fn(&EngineResult) -> f64| results.iter().map(f).sum::<f64>() / n;
    let times = Histogram::new();
    results.iter().for_each(|r| times.record_duration(r.query_time));
    let p = times.percentiles();
    let stages = results.iter().map(|r| r.stages).collect::<Option<Vec<_>>>().map(|s| {
        let refine = Histogram::new();
        s.iter().for_each(|s| refine.record_duration(s.refine_time));
        StageAggregate {
            mean_pruning_time: s.iter().map(|s| s.pruning_time).sum::<Duration>()
                / results.len() as u32,
            median_refine_time: Duration::from_nanos(refine.percentiles().p50),
            mean_refine_pruned: s.iter().map(|s| s.refine_pruned).sum::<u64>() as f64 / n,
        }
    });
    Aggregate {
        median_time: Duration::from_nanos(p.p50),
        p99_time: Duration::from_nanos(p.p99),
        p999_time: Duration::from_nanos(p.p999),
        mean_candidates: mean(|r| r.candidates as f64),
        mean_retrieved: mean(|r| r.retrieved as f64),
        mean_results: mean(|r| r.results.len() as f64),
        mean_precision: mean(EngineResult::precision),
        stages,
        correct: true,
    }
}

/// Times `op` on every query of the batch, then checks each answer against
/// brute force: ids and distance bits. A wrong answer is named on stderr
/// and clears [`Aggregate::correct`]. `None` when the engine does not
/// support `op`.
pub fn run(engine: &dyn SimilarityEngine, queries: &Queries, op: Op) -> Option<Aggregate> {
    let results =
        queries.list.iter().map(|q| op.call(engine, q)).collect::<Option<Vec<EngineResult>>>()?;
    let mut agg = aggregate(&results);
    for (i, r) in results.iter().enumerate() {
        let mut got = r.results.clone();
        op.normalize(&mut got);
        let want = queries.expected(i, op);
        let bits = |a: &[(TrajectoryId, f64)]| -> Vec<(TrajectoryId, u64)> {
            a.iter().map(|&(id, d)| (id, d.to_bits())).collect()
        };
        if bits(&got) != bits(&want) {
            let (name, n, m) = (engine.name(), got.len(), want.len());
            eprintln!("wrong answer: {name}, query {i}, {op:?}: {n} results, brute force {m}");
            agg.correct = false;
        }
    }
    Some(agg)
}

/// Milliseconds, the unit of every `*_ms` column.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One column of a sweep row: its name, the index of the point's operation
/// it reads, and its value (`None` leaves the column out).
pub type Column = (&'static str, usize, fn(&Aggregate) -> Option<f64>);

/// One swept value: the row's `param` and `param_value`, and the
/// operations its columns read.
pub type Point = (&'static str, f64, Vec<Op>);

/// Runs one experiment over T-Drive and Lorry: for each dataset, point and
/// engine (built once per dataset by `engines`), times the point's
/// operations on `n_queries` queries and writes one row of the columns
/// they produced. An engine that supports none of them writes no row.
/// Returns whether every answer was right.
pub fn sweep(
    experiment: &str,
    scale: Scale,
    n_queries: usize,
    engines: fn(&Dataset) -> Vec<Box<dyn SimilarityEngine>>,
    points: &[Point],
    columns: &[Column],
) -> bool {
    let mut rep = Reporter::new(experiment);
    for ds in [datasets::tdrive(scale.size), datasets::lorry(scale.size)] {
        let queries = Queries::new(&ds, n_queries);
        let engines = engines(&ds);
        for (param, value, ops) in points {
            for engine in &engines {
                let aggs: Vec<_> =
                    ops.iter().map(|&op| run(engine.as_ref(), &queries, op)).collect();
                let metrics: Vec<_> = columns
                    .iter()
                    .filter_map(|&(name, op, value)| Some((name, value(aggs[op].as_ref()?)?)))
                    .collect();
                if !metrics.is_empty() {
                    let correct = aggs.iter().flatten().all(|a| a.correct);
                    rep.row(ds.name, engine.name(), param, *value, &metrics, Some(correct));
                }
            }
        }
    }
    rep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_traj::generator;

    /// `within`: histogram percentiles carry ≤ 1/32 relative quantization.
    fn close(got: Duration, want: Duration) -> bool {
        let (g, w) = (got.as_nanos() as f64, want.as_nanos() as f64);
        (g - w).abs() / w <= 1.0 / 32.0 + 1e-9
    }

    fn result(
        ms: u64,
        candidates: u64,
        retrieved: u64,
        results: usize,
        stages: (u64, u64, u64),
    ) -> EngineResult {
        EngineResult {
            results: vec![(0, 0.0); results],
            retrieved,
            candidates,
            query_time: Duration::from_millis(ms),
            stages: Some(Stages {
                pruning_time: Duration::from_micros(stages.0),
                refine_time: Duration::from_micros(stages.1),
                refine_pruned: stages.2,
            }),
        }
    }

    #[test]
    fn aggregate_math() {
        let results = vec![
            result(1, 10, 20, 5, (10, 100, 4)),
            result(3, 20, 40, 10, (20, 300, 8)),
            result(2, 0, 0, 0, (30, 200, 0)),
        ];
        let a = aggregate(&results);
        assert!(close(a.median_time, Duration::from_millis(2)), "{:?}", a.median_time);
        assert!(close(a.p99_time, Duration::from_millis(3)), "{:?}", a.p99_time);
        assert!(close(a.p999_time, Duration::from_millis(3)), "{:?}", a.p999_time);
        assert!(a.p99_time >= a.median_time);
        assert!((a.mean_candidates - 10.0).abs() < 1e-9);
        assert!((a.mean_retrieved - 20.0).abs() < 1e-9);
        // precision: 0.5, 0.5, 1.0 → 2/3
        assert!((a.mean_precision - 2.0 / 3.0).abs() < 1e-9);
        let s = a.stages.expect("every result has stages");
        assert_eq!(s.mean_pruning_time, Duration::from_micros(20));
        assert!(close(s.median_refine_time, Duration::from_micros(200)), "{s:?}");
        assert!((s.mean_refine_pruned - 4.0).abs() < 1e-9);
    }

    type Answer = Vec<(TrajectoryId, f64)>;
    type Fault = fn(&mut Answer);

    /// Brute-force threshold search whose answer `fault` then edits.
    struct Fake {
        data: Vec<Trajectory>,
        fault: Fault,
    }

    impl SimilarityEngine for Fake {
        fn name(&self) -> &'static str {
            "Fake"
        }

        fn build_time(&self) -> Duration {
            Duration::ZERO
        }

        fn threshold(&self, q: &Trajectory, eps: f64, m: Measure) -> Option<EngineResult> {
            let mut results: Answer = self
                .data
                .iter()
                .map(|t| (t.id, m.distance(q.points(), t.points())))
                .filter(|&(_, d)| d <= eps)
                .collect();
            (self.fault)(&mut results);
            Some(EngineResult { results, ..EngineResult::default() })
        }

        fn top_k(&self, _: &Trajectory, _: usize, _: Measure) -> Option<EngineResult> {
            None
        }
    }

    #[test]
    fn a_dropped_or_nudged_hit_writes_an_incorrect_row() {
        let ds = Dataset { name: "T-Drive", data: generator::tdrive_like(42, 60) };
        let queries = Queries::new(&ds, 3);
        let op = Op::Threshold(0.01, Measure::Frechet);
        let mut rep = Reporter::new("test-exp");
        // Every query is in the dataset, so each answer holds at least the
        // query itself.
        let faults: [(bool, Fault); 3] = [
            (true, |_| {}),
            (false, |r| {
                r.pop();
            }),
            (false, |r| r[0].1 = f64::from_bits(r[0].1.to_bits() + 1)),
        ];
        for (correct, fault) in faults {
            let fake = Fake { data: ds.data.clone(), fault };
            let agg = run(&fake, &queries, op).expect("threshold is supported");
            assert_eq!(agg.correct, correct);
            rep.row(ds.name, fake.name(), "eps", 0.01, &[], Some(agg.correct));
        }
        assert!(rep.rows[0].to_json().ends_with("\"correct\":true}"));
        assert!(rep.rows[1].to_json().ends_with("\"correct\":false}"));
        assert!(!rep.all_correct());
        let fake = Fake { data: ds.data.clone(), fault: |_| {} };
        assert!(run(&fake, &queries, Op::TopK(5, Measure::Frechet)).is_none());
        // TraSS answers the same batch exactly, under both operations.
        let trass = Trass::build(&ds.data, TrassConfig::default());
        for op in [op, Op::TopK(5, Measure::Dtw)] {
            assert!(run(&trass, &queries, op).expect("TraSS answers both").correct);
        }
    }
}
