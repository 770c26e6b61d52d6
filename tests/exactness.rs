//! The exactness table: every answer equals brute force, ids and distance
//! bits, on every path, at every thread count, with refine bounds on and
//! off, and from every baseline engine.
//!
//! TraSS is exact by construction (every pruning and filtering lemma is a
//! lower bound), so there is one reference per (dataset, query, measure):
//! [`Measure::distance`] over every row. A threshold answer is the rows at
//! `d ≤ ε` by id, a top-k answer is the (distance, id) order cut at k, and
//! a range answer is the rows with a point in the window, by id. One
//! comparison, [`diff`], is applied to every cell.
//!
//! Axes: path {embedded, wire `TrassClient` with an inline query, wire
//! `Explain`} × `query_threads` {1, 4} × `refine_bounds` {on, off} ×
//! measure {Fréchet, Hausdorff, DTW} × kind {threshold ε ∈ [`EPS`], top-k
//! k ∈ {1, 10, 50, rows + 5}, range windows} × dataset {a T-Drive-like
//! city store with degenerate rows, the world-space edge set}, plus the
//! four baselines as [`SimilarityEngine`] rows on the city store under
//! Fréchet (see [`baselines`] for their cells). Two invariants that are
//! not answers ride along: a raw scan of the whole cluster is
//! byte-identical across configurations, and each query's scan volume
//! `(retrieved, candidates, n_ranges)` is too.
//!
//! The trass-traj half of the argument (bound soundness, kernel
//! bit-identity) lives in `crates/traj/tests/bounds_props.rs`.

use std::sync::Arc;
use trass_baselines::dft::DftEngine;
use trass_baselines::dita::DitaEngine;
use trass_baselines::repose::ReposeEngine;
use trass_baselines::xz_kv::{XzKvConfig, XzKvEngine};
use trass_baselines::SimilarityEngine;
use trass_core::config::TrassConfig;
use trass_core::query;
use trass_core::store::TrajectoryStore;
use trass_core::SearchResult;
use trass_geo::{NormalizedSpace, Point};
use trass_kv::KeyRange;
use trass_rng::{check, Rng};
use trass_server::protocol::{self, QueryRef, Request, Response};
use trass_server::{ServerOptions, TrassClient, TrassServer};
use trass_traj::generator::{self, BEIJING};
use trass_traj::{Measure, Trajectory, TrajectoryId};

const MEASURES: [Measure; 3] = [Measure::Frechet, Measure::Hausdorff, Measure::Dtw];

/// Thresholds from tight (few hits, heavy pruning) to wide (most
/// candidates are hits, bounds rarely fire).
const EPS: [f64; 4] = [0.0, 0.002, 0.01, 0.05];

type Answer = Vec<(TrajectoryId, f64)>;

/// The one comparison: `None` when `got` holds `want`'s ids in `want`'s
/// order with the same distance bits, else the first difference.
fn diff(got: &[(TrajectoryId, f64)], want: &[(TrajectoryId, f64)]) -> Option<String> {
    let bits = |r: &(TrajectoryId, f64)| (r.0, r.1.to_bits());
    match got.iter().map(bits).zip(want.iter().map(bits)).position(|(g, w)| g != w) {
        Some(i) => Some(format!("row {i}: got {:?}, brute force {:?}", got[i], want[i])),
        None if got.len() != want.len() => {
            Some(format!("{} rows, brute force {}: {got:?} vs {want:?}", got.len(), want.len()))
        }
        None => None,
    }
}

/// Panics naming the cell (built only then) when `got` is not `want`.
fn assert_exact(
    got: &[(TrajectoryId, f64)],
    want: &[(TrajectoryId, f64)],
    cell: impl FnOnce() -> String,
) {
    if let Some(d) = diff(got, want) {
        panic!("{}: {d}", cell());
    }
}

/// Brute force for one (dataset, query, measure): every row's distance.
struct Truth(Answer);

impl Truth {
    fn new(data: &[Trajectory], q: &Trajectory, m: Measure) -> Truth {
        Truth(data.iter().map(|t| (t.id, m.distance(q.points(), t.points()))).collect())
    }

    fn threshold(&self, eps: f64) -> Answer {
        let mut hits: Answer = self.0.iter().copied().filter(|&(_, d)| d <= eps).collect();
        hits.sort_by_key(|r| r.0);
        hits
    }

    fn top_k(&self, k: usize) -> Answer {
        let mut all = self.0.clone();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

fn brute_range(data: &[Trajectory], window: &[f64; 4]) -> Answer {
    let w = protocol::window_mbr(window);
    let mut hits: Answer = data
        .iter()
        .filter(|t| t.points().iter().any(|p| w.contains_point(p)))
        .map(|t| (t.id, 0.0))
        .collect();
    hits.sort_by_key(|r| r.0);
    hits
}

fn traj(id: u64, pts: &[(f64, f64)]) -> Trajectory {
    Trajectory::new(id, pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
}

/// One store's rows, the configuration it is opened under, and what it is
/// asked.
struct Dataset {
    base: TrassConfig,
    data: Vec<Trajectory>,
    queries: Vec<Trajectory>,
    windows: Vec<[f64; 4]>,
}

/// A T-Drive-like city store (BEIJING, squared) of a drawn size plus
/// degenerate rows: a single point, an all-equal-points row, a duplicate,
/// and rows south-west of the space and across its west edge, which
/// normalization clamps.
fn city(rng: &mut Rng) -> Dataset {
    let mut data = generator::tdrive_like(rng.u64(), rng.len(16, 40));
    let n = data.len();
    data.extend([
        traj(901, &[(116.4, 39.9)]),
        traj(902, &[(116.41, 39.91); 5]),
        Trajectory::new(903, data[3].points().to_vec()),
        traj(904, &[(115.2, 38.9), (115.25, 38.92), (115.3, 38.95)]),
        traj(905, &[(115.95, 39.8), (116.0, 39.805), (116.05, 39.81)]),
    ]);
    let mut queries = generator::sample_queries(&data[..n], 2, rng.u64());
    queries.extend([
        traj(10_001, &[(116.4, 39.9)]),                  // single point
        traj(10_002, &[(115.2, 38.9), (115.25, 38.92)]), // outside the space
        data[3].clone(),                                 // has a duplicate
        data[n + 1].clone(),                             // all points equal
    ]);
    let mut windows = vec![
        [116.2, 39.8, 116.5, 40.0],
        [115.1, 38.8, 115.26, 38.93], // outside the space
        [115.9, 39.7, 116.0, 39.9],   // ends on the west edge
        [116.4, 39.9, 116.4, 39.9],   // a point
    ];
    windows.extend(queries[..2].iter().map(|q| {
        let m = q.mbr().extended(0.02);
        [m.min_x, m.min_y, m.max_x, m.max_y]
    }));
    Dataset { base: TrassConfig::for_extent(BEIJING), data, queries, windows }
}

/// The default (world) space: the antimeridian and both poles, on the
/// east edge and the west edge of the index.
fn world() -> Dataset {
    let data = vec![
        traj(1, &[(179.99, 10.0), (180.0, 10.01)]),
        traj(2, &[(-180.0, 5.0), (-179.99, 5.01)]),
        traj(3, &[(0.0, 90.0)]),
        traj(4, &[(10.0, 89.99), (20.0, 90.0)]),
        traj(5, &[(-30.0, -90.0), (-30.0, -89.99)]),
        traj(6, &[(179.995, -20.0), (-179.995, -20.0)]),
    ];
    let windows = vec![
        [179.99, 9.0, 180.0, 11.0],
        [-180.0, 4.0, -179.99, 6.0],
        [0.0, 89.0, 30.0, 90.0],
        [-40.0, -90.0, 40.0, -89.995],
        [-180.0, -90.0, 180.0, 90.0],
    ];
    Dataset { base: TrassConfig::default(), queries: data.clone(), data, windows }
}

fn open_with(
    base: &TrassConfig,
    data: &[Trajectory],
    refine_bounds: bool,
    threads: usize,
) -> TrajectoryStore {
    let cfg = TrassConfig { refine_bounds, query_threads: threads, ..base.clone() };
    let store = TrajectoryStore::open(cfg).expect("open");
    store.insert_all(data).expect("insert");
    store.flush().expect("flush");
    store
}

/// One configuration of the store, embedded and behind its own server.
struct Deployment {
    name: String,
    store: Arc<TrajectoryStore>,
    client: TrassClient,
    _server: TrassServer,
}

impl Deployment {
    fn open(ds: &Dataset, threads: usize, refine_bounds: bool) -> Deployment {
        // Embedded and wire calls run untraced; `Explain` always traces.
        let base = TrassConfig { trace_sample_every: 0, ..ds.base.clone() };
        let store = Arc::new(open_with(&base, &ds.data, refine_bounds, threads));
        let opts = ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
        };
        let server = TrassServer::serve(Arc::clone(&store), opts).expect("bind");
        let client = TrassClient::connect(server.local_addr()).expect("connect");
        let name = format!("threads={threads} bounds={refine_bounds}");
        Deployment { name, store, client, _server: server }
    }

    fn embedded(&self, request: &Request) -> SearchResult {
        match request {
            Request::Threshold { query: QueryRef::Inline(q), eps, measure } => {
                query::threshold_search(&self.store, q, *eps, *measure)
            }
            Request::TopK { query: QueryRef::Inline(q), k, measure } => {
                query::top_k_search(&self.store, q, *k as usize, *measure)
            }
            Request::Range { window } => {
                query::range_search(&self.store, &protocol::window_mbr(window))
            }
            other => panic!("not a query cell: {other:?}"),
        }
        .expect("embedded query")
    }

    /// Asks `request` on every path and checks each answer against `want`;
    /// returns the embedded call's scan volume.
    fn check(&mut self, request: &Request, want: &[(TrajectoryId, f64)]) -> (u64, u64, usize) {
        let name = &self.name;
        let cell = |path: &'static str| move || format!("{name} {path} {request:?}");
        let r = self.embedded(request);
        assert_exact(&r.results, want, cell("embedded"));
        match self.client.call(request).expect("wire call") {
            Response::Results(wire) => assert_exact(&wire, want, cell("wire")),
            other => panic!("{}: {other:?}", cell("wire")()),
        }
        let (explained, trace) = self.client.explain(request.clone()).expect("wire explain");
        assert_exact(&explained, want, cell("explain"));
        assert!(!trace.is_empty(), "{}: empty trace", cell("explain")());
        (r.stats.retrieved, r.stats.candidates, r.stats.n_ranges)
    }
}

/// Every cell of one dataset: each (query, measure, kind) and window asked
/// of the four configurations on every path, and the two invariants
/// across the configurations.
fn table(ds: &Dataset) {
    let mut grid: Vec<Deployment> = [(1, true), (4, true), (1, false), (4, false)]
        .into_iter()
        .map(|(threads, bounds)| Deployment::open(ds, threads, bounds))
        .collect();

    let scan = |d: &Deployment| d.store.cluster().scan(KeyRange::all()).expect("raw scan");
    let rows = scan(&grid[0]);
    for d in &grid[1..] {
        assert!(scan(d) == rows, "{}: raw scan differs from {}", d.name, grid[0].name);
    }

    let mut ask = |request: Request, want: Answer| {
        let volumes: Vec<_> = grid.iter_mut().map(|d| d.check(&request, &want)).collect();
        assert!(
            volumes.iter().all(|v| *v == volumes[0]),
            "scan volume (retrieved, candidates, n_ranges) differs: {volumes:?} {request:?}"
        );
    };
    let k_all = u32::try_from(ds.data.len() + 5).expect("small store");
    for q in &ds.queries {
        for measure in MEASURES {
            let truth = Truth::new(&ds.data, q, measure);
            let query = || QueryRef::Inline(q.clone());
            for eps in EPS {
                ask(Request::Threshold { query: query(), eps, measure }, truth.threshold(eps));
            }
            for k in [1, 10, 50, k_all] {
                ask(Request::TopK { query: query(), k, measure }, truth.top_k(k as usize));
            }
        }
    }
    for window in &ds.windows {
        ask(Request::Range { window: *window }, brute_range(&ds.data, window));
    }
}

/// The baselines on the city store under Fréchet, as [`SimilarityEngine`]
/// rows: every threshold ε and top-k at TraSS's k ∈ {1, 10, 50, rows + 5}.
/// REPOSE answers top-k only. JUST is built at resolution 12, not its
/// default 16, where its planner alone takes up to 2.5 s per top-k query;
/// the resolution decides which ranges it scans, not what it answers.
fn baselines(ds: &Dataset) {
    let just = XzKvConfig {
        space: NormalizedSpace::square(BEIJING),
        max_resolution: 12,
        ..XzKvConfig::default()
    };
    let engines: [Box<dyn SimilarityEngine>; 4] = [
        Box::new(DftEngine::build(ds.data.clone(), 9)),
        Box::new(DitaEngine::build(ds.data.clone())),
        Box::new(XzKvEngine::build(&ds.data, just)),
        Box::new(ReposeEngine::build(ds.data.clone(), 5)),
    ];
    let m = Measure::Frechet;
    let k_all = ds.data.len() + 5;
    for q in &ds.queries {
        let truth = Truth::new(&ds.data, q, m);
        for engine in &engines {
            let name = engine.name();
            for eps in EPS {
                let Some(r) = engine.threshold(q, eps, m) else {
                    assert_eq!(name, "REPOSE", "only REPOSE declines threshold search");
                    continue;
                };
                let cell = || format!("{name} eps {eps} query {}", q.id);
                assert_exact(&r.results, &truth.threshold(eps), cell);
            }
            for k in [1, 10, 50, k_all] {
                let r = engine.top_k(q, k, m).expect("every engine answers top-k");
                let cell = || format!("{name} top-{k} query {}", q.id);
                assert_exact(&r.results, &truth.top_k(k), cell);
            }
        }
    }
}

#[test]
fn city_store_answers_equal_brute_force_in_every_cell() {
    check(2, |rng| table(&city(rng)));
}

#[test]
fn baseline_answers_equal_brute_force_on_the_city_store() {
    check(1, |rng| baselines(&city(rng)));
}

#[test]
fn world_edge_set_answers_equal_brute_force_in_every_cell() {
    table(&world());
}

#[test]
fn the_comparison_fails_on_each_kind_of_wrong_answer() {
    // Row 100 copies row 5, so the top-k answer to row 5 opens with a tie.
    let mut data = generator::tdrive_like(7, 12);
    data.push(Trajectory::new(100, data[5].points().to_vec()));
    let want = Truth::new(&data, &data[5], Measure::Frechet).top_k(4);
    assert_eq!((want[0].0, want[1].0, want[1].1.to_bits()), (5, 100, 0), "the tie leads");
    type Fault = fn(&mut Answer);
    let faults: [(bool, Fault); 5] = [
        (true, |_| {}),
        (false, |r| {
            r.remove(2);
        }),
        (false, |r| r.push((99, 1.0))),
        (false, |r| r[3].1 = f64::from_bits(r[3].1.to_bits() + 1)),
        (false, |r| r.swap(0, 1)),
    ];
    for (i, (exact, fault)) in faults.into_iter().enumerate() {
        let mut got = want.clone();
        fault(&mut got);
        assert_eq!(diff(&got, &want).is_none(), exact, "fault {i}: {got:?}");
    }
}
