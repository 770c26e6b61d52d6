//! The four workloads and the untraced run that produces the end-to-end
//! metrics. Sizes and the reason for each are in `README.md`.

use crate::gen;
use crate::openloop::{self, OpenLoopReport};
use crate::oracle::{self, Answer, Oracle};
use crate::setup::{self, Loaded, StoreSpec, BATCH};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use trass_core::{SearchResult, TrajectoryStore};
use trass_geo::{Mbr, Point};
use trass_kv::KvError;
use trass_server::{QueryRef, Request, Response, TrassClient};
use trass_traj::{Measure, Trajectory};

pub const MEASURE: Measure = Measure::Frechet;

#[derive(Debug, Clone)]
pub enum Kind {
    /// Embedded `threshold_search`, one caller.
    Threshold { eps: f64 },
    /// Embedded `top_k_search`, one caller, `k` alternating between these.
    TopK { ks: [usize; 2] },
    /// Wire: threshold / range / ingest in 70 / 10 / 20 by count over
    /// `connections` closed-loop connections, then an open loop at
    /// `open_rate` requests a second over the same connections.
    ServeMixed { eps: f64, window_margin: f64, connections: usize, open_rate: f64 },
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub store: StoreSpec,
    /// Distinct stored trajectories used as queries, cycled in order.
    pub distinct: usize,
    /// Only trajectories whose larger side is at most this are queries.
    pub max_query_extent: Option<f64>,
    pub kind: Kind,
    /// Seconds the oracle may spend after the timed phase.
    pub oracle_budget: Duration,
    /// Distinct ops the traced run replays layer by layer.
    pub trace_ops: usize,
    /// How often an untraced run sets up; `setup_s` is the median.
    pub setup_repeats: usize,
}

pub const NAMES: [&str; 4] = ["thr-selective", "thr-wide", "topk", "serve-mixed"];

/// Share of `--seconds` spent in the closed loop on the wire workload; the
/// rest is the open loop.
pub const CLOSED_SHARE: f64 = 0.75;

/// A block cache scaled with the store: the sizing runs had 100k
/// trajectories (333 MB) against the default 8 × 8 MiB, 5.2 × the cache.
/// At the 25k the run-time cap allows (87 MB), 2 MiB a region keeps that
/// ratio, so the cycled working set still never fits.
const SCALED_CACHE: usize = 2 << 20;

/// The workload called `name`; `toy` shrinks it for `--check`.
pub fn spec(name: &str, toy: bool) -> Option<Spec> {
    let store = |trajectories, query_threads, block_cache_bytes, serve| StoreSpec {
        trajectories,
        query_threads,
        block_cache_bytes,
        trace_sample_every: None,
        serve,
    };
    let oracle_budget = Duration::from_secs(2);
    let mut spec = match name {
        "thr-selective" => Spec {
            name: "thr-selective",
            store: store(25_000, 2, Some(SCALED_CACHE), false),
            distinct: 512,
            max_query_extent: None,
            kind: Kind::Threshold { eps: 0.01 },
            oracle_budget,
            trace_ops: 256,
            setup_repeats: 3,
        },
        "thr-wide" => Spec {
            name: "thr-wide",
            store: store(12_000, 2, None, false),
            distinct: 192,
            max_query_extent: Some(0.05),
            kind: Kind::Threshold { eps: 0.05 },
            oracle_budget,
            trace_ops: 48,
            // The smaller store's half-second set-up is the noisier one.
            setup_repeats: 5,
        },
        "topk" => Spec {
            name: "topk",
            store: store(25_000, 2, Some(SCALED_CACHE), false),
            distinct: 100,
            max_query_extent: Some(0.1),
            kind: Kind::TopK { ks: [10, 50] },
            oracle_budget,
            trace_ops: 24,
            setup_repeats: 3,
        },
        "serve-mixed" => Spec {
            name: "serve-mixed",
            store: store(25_000, 1, Some(SCALED_CACHE), true),
            distinct: 512,
            max_query_extent: None,
            kind: Kind::ServeMixed {
                eps: 0.01,
                window_margin: 0.02,
                connections: 2,
                open_rate: 100.0,
            },
            oracle_budget,
            trace_ops: 256,
            setup_repeats: 3,
        },
        _ => return None,
    };
    if toy {
        // Not below 3000: top-k on a sparser store widens its radius
        // further and runs slower, not faster.
        spec.store.trajectories = spec.store.trajectories.min(3000);
        spec.distinct = spec.distinct.min(12);
        spec.trace_ops = spec.trace_ops.min(6);
        spec.setup_repeats = 2;
        // Every toy query is verified.
        spec.oracle_budget = Duration::from_secs(10);
    }
    Some(spec)
}

/// One read the program is asked, by position in the stored set.
#[derive(Debug, Clone)]
pub enum Query {
    Threshold { pos: usize, eps: f64 },
    TopK { pos: usize, k: usize },
    Range { window: Mbr },
}

impl Query {
    pub fn run(
        &self,
        store: &TrajectoryStore,
        data: &[Trajectory],
    ) -> Result<SearchResult, KvError> {
        match *self {
            Query::Threshold { pos, eps } => {
                trass_core::threshold_search(store, &data[pos], eps, MEASURE)
            }
            Query::TopK { pos, k } => trass_core::top_k_search(store, &data[pos], k, MEASURE),
            Query::Range { ref window } => trass_core::range_search(store, window),
        }
    }

    /// The same read as a wire request, the query shipped inline.
    pub fn request(&self, data: &[Trajectory]) -> Request {
        match *self {
            Query::Threshold { pos, eps } => Request::Threshold {
                query: QueryRef::Inline(data[pos].clone()),
                eps,
                measure: MEASURE,
            },
            Query::TopK { pos, k } => Request::TopK {
                query: QueryRef::Inline(data[pos].clone()),
                k: k as u32,
                measure: MEASURE,
            },
            Query::Range { window } => {
                Request::Range { window: [window.min_x, window.min_y, window.max_x, window.max_y] }
            }
        }
    }

    fn oracle(&self, oracle: &Oracle<'_>, data: &[Trajectory], got: &Answer) -> Answer {
        match *self {
            Query::Threshold { pos, eps } => oracle.threshold(&data[pos], eps),
            Query::TopK { pos, k } => oracle.top_k(&data[pos], k, got),
            Query::Range { ref window } => oracle.range(window),
        }
    }
}

/// The workload's distinct queries, in the order they are cycled. Anything
/// that varies between queries (`k`, whether a range window is drawn
/// around it) is assigned by extent stratum before the order is shuffled,
/// so every seed gives each variant the same extent profile.
pub fn queries(spec: &Spec, seed: u64, data: &[Trajectory]) -> Vec<Query> {
    let positions = gen::sample_queries(seed, data, spec.distinct, spec.max_query_extent);
    let mut queries: Vec<Query> =
        match spec.kind {
            Kind::Threshold { eps } => {
                positions.iter().map(|&pos| Query::Threshold { pos, eps }).collect()
            }
            Kind::TopK { ks } => positions
                .iter()
                .enumerate()
                .map(|(i, &pos)| Query::TopK { pos, k: ks[i % 2] })
                .collect(),
            // A range window around one query in sixteen.
            Kind::ServeMixed { eps, window_margin, .. } => {
                positions
                    .iter()
                    .map(|&pos| Query::Threshold { pos, eps })
                    .chain(positions.iter().skip(8).step_by(16).map(|&pos| Query::Range {
                        window: data[pos].mbr().extended(window_margin),
                    }))
                    .collect()
            }
        };
    gen::cycle_order(seed, &mut queries);
    queries
}

/// First answers and per-pass counts from the untimed warm-up pass.
pub struct WarmUp {
    pub answers: Vec<Answer>,
    pub rows: u64,
    pub candidates: u64,
    pub results: u64,
}

/// Runs every distinct query once, embedded: fills the caches, and keeps
/// each first answer as the reference every repeat (and every wire answer)
/// is compared with.
pub fn warm_up(store: &TrajectoryStore, data: &[Trajectory], queries: &[Query]) -> WarmUp {
    let mut w =
        WarmUp { answers: Vec::with_capacity(queries.len()), rows: 0, candidates: 0, results: 0 };
    for q in queries {
        let r = q.run(store, data).expect("warm-up query");
        w.rows += r.stats.retrieved;
        w.candidates += r.stats.candidates;
        w.results += r.stats.results;
        w.answers.push(r.results);
    }
    w
}

/// What the oracle found on the distinct queries it had time for.
pub struct Verdict {
    pub checked: usize,
    /// Per distinct query: checked and found wrong.
    pub wrong: Vec<bool>,
    /// The damage self-test caught both a dropped result and a flipped bit.
    pub self_test: bool,
}

/// Checks reference answers against the oracle, in query order, until the
/// budget is spent (at least one query), then runs the comparison's
/// self-test on the largest verified answer.
pub fn verify(
    data: &[Trajectory],
    queries: &[Query],
    answers: &[Answer],
    budget: Duration,
) -> Verdict {
    let oracle = Oracle::new(data);
    let t = Instant::now();
    let mut verdict = Verdict { checked: 0, wrong: vec![false; queries.len()], self_test: false };
    let mut sample: Option<&Answer> = None;
    for (i, (q, got)) in queries.iter().zip(answers).enumerate() {
        if i > 0 && t.elapsed() >= budget {
            break;
        }
        let expected = q.oracle(&oracle, data, got);
        verdict.checked += 1;
        if !oracle::same_answer(got, &expected) {
            verdict.wrong[i] = true;
        } else if got.len() > sample.map_or(0, Vec::len) {
            sample = Some(got);
        }
    }
    verdict.self_test = sample.is_some_and(|a| oracle::comparison_detects_damage(a));
    verdict
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// The workload's query op: threshold or top-k search.
    Search,
    Range,
    Ingest,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: OpKind,
    /// Index of the distinct query; unused for an ingest batch.
    pub query: u32,
    pub latency_ms: f64,
    pub ok: bool,
}

impl OpRecord {
    pub fn is_write(&self) -> bool {
        self.kind == OpKind::Ingest
    }
}

/// Everything an untraced run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub stored_bytes: u64,
    pub raw_bytes: u64,
    /// Ingest-batch latencies, one list per source: each set-up's bulk load
    /// on embedded workloads, the closed loop's wire ingests on
    /// `serve-mixed`.
    pub write_ms: Vec<Vec<f64>>,
    /// Closed-loop ops in completion order per caller, callers concatenated.
    pub closed: Vec<OpRecord>,
    pub closed_wall_s: f64,
    /// Open-loop phase (wire workload only).
    pub open: Option<(OpenLoopReport, Vec<OpRecord>, Duration)>,
    pub warm: WarmUp,
    pub verdict: Verdict,
    /// Hash of the generated dataset: equal seeds must print equal hashes.
    pub dataset_hash: u64,
}

impl Measured {
    /// Ops attempted in the timed phases, and those that errored, were
    /// never sent, disagreed with the reference answer, or used a
    /// reference answer the oracle found wrong.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let bad = |r: &OpRecord| !r.ok || (!r.is_write() && self.verdict.wrong[r.query as usize]);
        let mut attempted = self.closed.len() as u64;
        let mut failed = self.closed.iter().filter(|r| bad(r)).count() as u64;
        if let Some((report, records, _)) = &self.open {
            attempted += (records.len() + report.unsent) as u64;
            failed += (records.iter().filter(|r| bad(r)).count() + report.unsent) as u64;
        }
        (attempted, failed)
    }
}

/// Runs `spec` untraced for `seconds` and returns what it measured.
pub fn run(spec: &Spec, seed: u64, seconds: f64, scratch: &std::path::Path) -> Measured {
    let (mut loaded, setups) = setup::load_repeated(seed, &spec.store, scratch, spec.setup_repeats);
    let (setup_s, mut write_ms): (Vec<f64>, Vec<Vec<f64>>) = setups.into_iter().unzip();
    let queries = queries(spec, seed, &loaded.data);
    let warm = warm_up(&loaded.store, &loaded.data, &queries);
    let raw_bytes = 16 * gen::total_points(&loaded.data);
    let (closed, closed_wall_s, open) = match spec.kind {
        Kind::Threshold { .. } | Kind::TopK { .. } => {
            let (records, wall) = closed_embedded(&loaded, &queries, &warm.answers, seconds);
            (records, wall, None)
        }
        Kind::ServeMixed { connections, open_rate, .. } => {
            let wire = Wire {
                loaded: &loaded,
                queries: &queries,
                answers: &warm.answers,
                seed,
                connections,
            };
            let mut callers = wire.connect();
            let (records, wall) =
                wire.closed(&mut callers, Duration::from_secs_f64(seconds * CLOSED_SHARE));
            write_ms =
                vec![records.iter().filter(|r| r.is_write()).map(|r| r.latency_ms).collect()];
            let interval = wire.interval(open_rate);
            let open = wire.open(
                &mut callers,
                interval,
                Duration::from_secs_f64(seconds * (1.0 - CLOSED_SHARE)),
            );
            (records, wall, Some((open.0, open.1, interval)))
        }
    };
    // Stop the server (joining its threads) before the oracle takes the CPU.
    drop(loaded.server.take());
    let verdict = verify(&loaded.data, &queries, &warm.answers, spec.oracle_budget);
    Measured {
        setup_s,
        stored_bytes: loaded.stored_bytes,
        raw_bytes,
        write_ms,
        closed,
        closed_wall_s,
        open,
        warm,
        verdict,
        dataset_hash: gen::dataset_hash(&loaded.data),
    }
}

/// The wire workload's open loop alone, for the traced run's measure of
/// how late the generator sends; `None` on workloads without one.
pub fn open_loop_probe(
    spec: &Spec,
    loaded: &Loaded,
    queries: &[Query],
    answers: &[Answer],
    seed: u64,
    seconds: f64,
) -> Option<OpenLoopReport> {
    let Kind::ServeMixed { connections, open_rate, .. } = spec.kind else { return None };
    let wire = Wire { loaded, queries, answers, seed, connections };
    let mut callers = wire.connect();
    Some(wire.open(&mut callers, wire.interval(open_rate), Duration::from_secs_f64(seconds)).0)
}

/// One caller cycling the distinct queries until the time is up. Each
/// answer is compared with the query's first answer outside the timed part.
fn closed_embedded(
    loaded: &Loaded,
    queries: &[Query],
    answers: &[Answer],
    seconds: f64,
) -> (Vec<OpRecord>, f64) {
    let mut records = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for i in 0.. {
        let q = i % queries.len();
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let result = queries[q].run(&loaded.store, &loaded.data);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = result.is_ok_and(|r| oracle::same_answer(&r.results, &answers[q]));
        records.push(OpRecord { kind: OpKind::Search, query: q as u32, latency_ms, ok });
    }
    (records, start.elapsed().as_secs_f64())
}

/// The wire workload's callers.
struct Wire<'a> {
    loaded: &'a Loaded,
    queries: &'a [Query],
    answers: &'a [Answer],
    seed: u64,
    connections: usize,
}

/// One connection's position in its op stream, carried from the closed
/// loop into the open loop so no query or batch id is reused.
struct Caller {
    client: TrassClient,
    /// Ops sent so far; its place in [`MIX`] decides the next op's kind.
    sent: usize,
    thresholds: Vec<u32>,
    ranges: Vec<u32>,
    next_threshold: usize,
    next_range: usize,
    /// Point sequences reused for ingest batches under fresh ids, so
    /// building a batch costs the load generator a copy, not a random walk.
    shapes: Vec<Vec<Vec<Point>>>,
    /// Number of the next ingest batch; connections interleave theirs
    /// (`batch_stride` apart) so no two batches share an id.
    next_batch: u64,
    batch_stride: u64,
}

/// The op mix as a fixed cycle of ten — seven thresholds, one range, two
/// ingests — so that every run has exactly 70 / 10 / 20 by count and no
/// seed draws itself a cheaper mix. The second connection starts half a
/// cycle in, which keeps the two (expensive) range ops apart.
const MIX: [OpKind; 10] = {
    use OpKind::{Ingest as W, Range as R, Search as T};
    [T, T, W, T, T, R, T, W, T, T]
};

/// Distinct ingest batch shapes per connection.
const SHAPES: usize = 32;

impl Caller {
    fn new(wire: &Wire<'_>, connection: usize) -> Caller {
        let addr = wire.loaded.server.as_ref().expect("wire workload has a server").local_addr();
        let own = |want_range: bool| -> Vec<u32> {
            wire.queries
                .iter()
                .enumerate()
                .filter(|(_, q)| matches!(q, Query::Range { .. }) == want_range)
                .map(|(i, _)| i as u32)
                .collect()
        };
        // Every connection cycles all the queries, each from its own
        // starting point, so they do not ask the same thing at once.
        let (thresholds, ranges) = (own(false), own(true));
        let start = |len: usize| connection * len / wire.connections;
        let shapes = (0..SHAPES)
            .map(|s| {
                gen::ingest_batch(wire.seed, (connection * SHAPES + s) as u64, 0, BATCH)
                    .into_iter()
                    .map(Trajectory::into_points)
                    .collect()
            })
            .collect();
        Caller {
            client: TrassClient::connect(addr).expect("connect to the in-process server"),
            sent: connection * MIX.len() / wire.connections,
            next_threshold: start(thresholds.len()),
            next_range: start(ranges.len()),
            thresholds,
            ranges,
            shapes,
            next_batch: connection as u64,
            batch_stride: wire.connections as u64,
        }
    }

    /// Sends the next op of the mix and checks the response. Only the call
    /// is timed.
    fn op(&mut self, wire: &Wire<'_>) -> OpRecord {
        let kind = MIX[self.sent % MIX.len()];
        self.sent += 1;
        let (request, query) = match kind {
            OpKind::Search => {
                self.next_threshold += 1;
                let q = self.thresholds[(self.next_threshold - 1) % self.thresholds.len()];
                (wire.queries[q as usize].request(&wire.loaded.data), q)
            }
            OpKind::Range => {
                self.next_range += 1;
                let q = self.ranges[(self.next_range - 1) % self.ranges.len()];
                (wire.queries[q as usize].request(&wire.loaded.data), q)
            }
            OpKind::Ingest => {
                let shape = &self.shapes[(self.next_batch / self.batch_stride) as usize % SHAPES];
                let first_id = gen::INGEST_ID_BASE + self.next_batch * BATCH as u64;
                self.next_batch += self.batch_stride;
                let trajectories = shape
                    .iter()
                    .enumerate()
                    .map(|(i, points)| Trajectory::new(first_id + i as u64, points.clone()))
                    .collect();
                (Request::Ingest { trajectories }, 0)
            }
        };
        let t0 = Instant::now();
        let response = self.client.call(&request);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = match response {
            Ok(Response::Ingested(n)) => kind == OpKind::Ingest && n as usize == BATCH,
            Ok(Response::Results(r)) => {
                kind != OpKind::Ingest && oracle::same_answer(&r, &wire.answers[query as usize])
            }
            _ => false,
        };
        OpRecord { kind, query, latency_ms, ok }
    }
}

impl Wire<'_> {
    fn connect(&self) -> Vec<Caller> {
        (0..self.connections).map(|c| Caller::new(self, c)).collect()
    }

    /// Time between one connection's requests at `rate` a second overall.
    fn interval(&self, rate: f64) -> Duration {
        Duration::from_secs_f64(self.connections as f64 / rate)
    }

    /// Closed loop: every connection sends its next request as soon as the
    /// last one is answered, until the time is up.
    fn closed(&self, callers: &mut [Caller], length: Duration) -> (Vec<OpRecord>, f64) {
        let barrier = Barrier::new(self.connections);
        let start = Instant::now();
        let mut records = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .iter_mut()
                .map(|caller| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let deadline = Instant::now() + length;
                        let mut mine = Vec::new();
                        while Instant::now() < deadline {
                            mine.push(caller.op(self));
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                records.extend(h.join().expect("closed-loop caller"));
            }
        });
        (records, start.elapsed().as_secs_f64())
    }

    /// Open loop: every connection has a request due each `interval`, the
    /// connections offset evenly, each request timed from its due time.
    fn open(
        &self,
        callers: &mut [Caller],
        interval: Duration,
        length: Duration,
    ) -> (OpenLoopReport, Vec<OpRecord>) {
        let count = (length.as_secs_f64() / interval.as_secs_f64()) as usize;
        let start = Instant::now() + Duration::from_millis(20);
        let mut report = OpenLoopReport::default();
        let mut records = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .iter_mut()
                .enumerate()
                .map(|(c, caller)| {
                    let offset = interval * c as u32 / self.connections as u32;
                    scope.spawn(move || {
                        let mut mine = Vec::with_capacity(count);
                        let r = openloop::run(
                            start + offset,
                            interval,
                            count,
                            Duration::from_secs(2),
                            |_| mine.push(caller.op(self)),
                        );
                        (r, mine)
                    })
                })
                .collect();
            for h in handles {
                let (r, mine) = h.join().expect("open-loop caller");
                report.merge(r);
                records.extend(mine);
            }
        });
        (report, records)
    }
}
