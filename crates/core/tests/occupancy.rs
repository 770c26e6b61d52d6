//! The store's occupancy — the value → rows map global pruning walks for
//! threshold, top-k and range search alike — never hides a row a query
//! must see: not while ingest races the query in the query's own box, not
//! while writers race each other on one id, and not after a reopen that
//! has to rebuild it from flushed tables and the WAL.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;
use trass_core::config::TrassConfig;
use trass_core::query::{range_search, threshold_search, top_k_search};
use trass_core::schema::{rowkey, shard_of};
use trass_core::store::TrajectoryStore;
use trass_geo::{Mbr, Point};
use trass_kv::StoreOptions;
use trass_traj::{Measure, Trajectory, TrajectoryId};

const EXTENT: Mbr = Mbr { min_x: 116.0, min_y: 39.6, max_x: 116.8, max_y: 40.2 };
const EPS: f64 = 0.002;
const K: usize = 5;

/// An 8-point walk from `(x, y)` in steps of `(dx, dy)`.
fn walk(id: TrajectoryId, (x, y): (f64, f64), (dx, dy): (f64, f64)) -> Trajectory {
    Trajectory::new(id, (0..8).map(|p| Point::new(x + dx * p as f64, y + dy * p as f64)).collect())
}

/// Forty walks of a few hundred metres packed into a 0.02° box, so their
/// index spaces neighbour.
fn city() -> Vec<Trajectory> {
    let from = |i: u64| (116.40 + 0.0005 * (i % 7) as f64, 39.90 + 0.0004 * (i / 7) as f64);
    let step = |i: u64| (0.0004 + 0.0001 * (i % 3) as f64, 0.0003 * (i % 5) as f64 - 0.0006);
    (0..40).map(|i| walk(i, from(i), step(i))).collect()
}

fn shifted(t: &Trajectory, id: TrajectoryId, dx: f64, dy: f64) -> Trajectory {
    Trajectory::new(id, t.points().iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect())
}

/// Every `(id, distance)` within `EPS` of `q`, by id.
fn brute_threshold(rows: &[Trajectory], q: &Trajectory) -> Vec<(TrajectoryId, f64)> {
    let within = |t: &Trajectory| Measure::Frechet.distance_within(q.points(), t.points(), EPS);
    let mut hits: Vec<_> = rows.iter().filter_map(|t| Some((t.id, within(t)?))).collect();
    hits.sort_by_key(|&(id, _)| id);
    hits
}

/// The `K` nearest `(id, distance)` pairs, ties by id.
fn brute_top_k(rows: &[Trajectory], q: &Trajectory) -> Vec<(TrajectoryId, f64)> {
    let distance = |t: &Trajectory| Measure::Frechet.distance(q.points(), t.points());
    let mut all: Vec<_> = rows.iter().map(|t| (t.id, distance(t))).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(K);
    all
}

/// Every id with a point inside `window`, by id, at distance 0.
fn brute_range(rows: &[Trajectory], window: &Mbr) -> Vec<(TrajectoryId, f64)> {
    let inside = |t: &&Trajectory| t.points().iter().any(|p| window.contains_point(p));
    let mut hits: Vec<_> = rows.iter().filter(inside).map(|t| (t.id, 0.0)).collect();
    hits.sort_by_key(|&(id, _)| id);
    hits
}

fn mbr(t: &Trajectory) -> Mbr {
    Mbr::from_points(t.points().iter()).expect("a non-empty trajectory")
}

/// How far the one writer has got through the ingest (whose kv rowkeys are
/// `keys`), and how many searches the readers have begun.
#[derive(Default)]
struct Progress {
    keys: Vec<Vec<u8>>,
    begun: AtomicUsize,
    returned: AtomicUsize,
    searches: AtomicUsize,
}

impl Progress {
    /// Ingest rows present now, at least: every returned insert, and the
    /// one in flight once its kv row is written — the occupancy must count
    /// it from then on.
    fn at_least(&self, store: &TrajectoryStore) -> usize {
        let n = self.returned.load(SeqCst);
        let written = |key: &Vec<u8>| store.cluster().get(key).unwrap().is_some();
        n + usize::from(self.keys.get(n).is_some_and(written))
    }
}

/// A threshold, a top-k and a range query racing the writer over
/// `rows[..base]` plus a prefix of `rows[base..]`: each answer lies between
/// brute force over the rows present when the call began and when it
/// returned, and every distance is exact. The range query's window is the
/// query's MBR grown by `EPS`, which holds every ingested copy of it.
fn check_racing(store: &TrajectoryStore, rows: &[Trajectory], base: usize, p: &Progress) {
    for q in &rows[..3] {
        let window = mbr(q).extended(EPS);
        let lo = base + p.at_least(store);
        p.searches.fetch_add(1, SeqCst);
        let got = range_search(store, &window).unwrap().results;
        let hi = base + p.begun.load(SeqCst);
        let (must, may) = (brute_range(&rows[..lo], &window), brute_range(&rows[..hi], &window));
        assert!(must.iter().all(|h| got.contains(h)), "range lost a row present at the start");
        assert!(got.iter().all(|h| may.contains(h)), "a range hit no row had");

        let lo = base + p.at_least(store);
        p.searches.fetch_add(1, SeqCst);
        let got = threshold_search(store, q, EPS, Measure::Frechet).unwrap().results;
        let hi = base + p.begun.load(SeqCst);
        let (must, may) = (brute_threshold(&rows[..lo], q), brute_threshold(&rows[..hi], q));
        assert!(must.iter().all(|h| got.contains(h)), "lost a row present at the start");
        assert!(got.iter().all(|h| may.contains(h)), "a hit no row had");

        let lo = base + p.at_least(store);
        p.searches.fetch_add(1, SeqCst);
        let got = top_k_search(store, q, K, Measure::Frechet).unwrap().results;
        let hi = base + p.begun.load(SeqCst);
        let (lo_k, hi_k) = (brute_top_k(&rows[..lo], q), brute_top_k(&rows[..hi], q));
        assert_eq!(got.len(), K);
        for ((&(id, d), l), h) in got.iter().zip(&lo_k).zip(&hi_k) {
            let t = rows[..hi].iter().find(|t| t.id == id).expect("a stored row");
            let exact = Measure::Frechet.distance(q.points(), t.points());
            assert_eq!(d.to_bits(), exact.to_bits(), "inexact distance for {id}");
            // No worse than the i-th best of the rows present at the start,
            // no better than that of the rows present at the end.
            assert!(h.1 <= d && d <= l.1, "{got:?} outside [{hi_k:?}, {lo_k:?}]");
        }
    }
}

#[test]
fn ingest_racing_queries_in_their_own_box() {
    let config = TrassConfig {
        query_threads: 2,
        trace_sample_every: 0,
        // Small memtables: the race spans flushes too.
        store: StoreOptions { memtable_bytes: 8 << 10, ..StoreOptions::in_memory() },
        ..TrassConfig::for_extent(EXTENT)
    };
    let store = TrajectoryStore::open(config).unwrap();
    // The queries, the first three rows, are walks of a few metres among
    // the city's: the index puts them, and copies of them, in elements a few
    // metres wide.
    let mut rows: Vec<Trajectory> = [(116.401, 39.901), (116.404, 39.902), (116.402, 39.904)]
        .into_iter()
        .zip(900..)
        .map(|(from, id)| walk(id, from, (4e-6, 3e-6)))
        .collect();
    rows.extend(city());
    store.insert_all(&rows).unwrap();
    let base = rows.len();
    // Each ingested row is a query moved by at most 1.5e-3° — inside its
    // box, within EPS of it, among its top-k — onto an index value no row
    // held before. Only the occupancy's count for that value leads a query
    // to it, so a count raised after the kv row is written fails the test.
    let value = |t: &Trajectory| store.index().encode(&store.index_space_of(t));
    let mut held: HashSet<u64> = rows.iter().map(value).collect();
    let step = |i: u64| 1e-4 * (i % 21) as f64 - 1e-3;
    let moved = |i: u64| shifted(&rows[(i % 3) as usize], 1000 + i, step(i / 3), step(i / 63));
    let fresh: Vec<_> =
        (0..3 * 441).map(moved).filter(|t| held.insert(value(t))).take(240).collect();
    let shards = store.config().shards;
    let keys = fresh.iter().map(|t| rowkey(shard_of(t.id, shards), value(t), t.id)).collect();
    rows.extend(fresh);
    let progress = Progress { keys, ..Progress::default() };
    std::thread::scope(|s| {
        let reader = || {
            // The last round starts after the last insert returned.
            loop {
                let finished = progress.returned.load(SeqCst) == rows.len() - base;
                check_racing(&store, &rows, base, &progress);
                if finished {
                    break;
                }
            }
        };
        let readers = [s.spawn(reader), s.spawn(reader)];
        let running = || !readers.iter().any(|r| r.is_finished());
        let mut seen = 0;
        for (i, t) in rows[base..].iter().enumerate() {
            // Each insert waits for a search begun since the one before, so
            // inserts land while searches run (unless a reader has failed).
            while progress.searches.load(SeqCst) == seen && running() {
                std::thread::yield_now();
            }
            seen = progress.searches.load(SeqCst);
            progress.begun.store(i + 1, SeqCst);
            store.insert(t).unwrap();
            progress.returned.store(i + 1, SeqCst);
        }
    });
}

#[test]
fn racing_moves_of_one_id_keep_its_old_neighbour_visible() {
    let config = TrassConfig { trace_sample_every: 0, ..TrassConfig::for_extent(EXTENT) };
    let store = TrajectoryStore::open(config).unwrap();
    let value = |t: &Trajectory| store.index().encode(&store.index_space_of(t));
    // `x` shares its index value with `y`; two writers then move `x` to two
    // far values at once. Both may read the shared value as the one `x`
    // leaves, and both delete its row there: `y`'s count must survive that.
    let y = walk(1, (116.401, 39.901), (4e-6, 3e-6));
    let x = shifted(&y, 2, 0.0, 0.0);
    let away = [shifted(&y, 2, 0.1, 0.0), shifted(&y, 2, 0.0, 0.1)];
    assert_eq!(value(&x), value(&y));
    assert!(away.iter().all(|t| value(t) != value(&y)));
    store.insert(&y).unwrap();
    for round in 0..200 {
        store.insert(&x).unwrap();
        let start = Barrier::new(away.len());
        std::thread::scope(|s| {
            for t in &away {
                let (start, store) = (&start, &store);
                s.spawn(move || {
                    start.wait();
                    store.insert(t).unwrap();
                });
            }
        });
        let hits = threshold_search(&store, &y, EPS, Measure::Frechet).unwrap().results;
        assert_eq!(hits, [(1, 0.0)], "threshold, round {round}");
        let top = top_k_search(&store, &y, 1, Measure::Frechet).unwrap().results;
        assert_eq!(top, [(1, 0.0)], "top-k, round {round}");
        let inside = range_search(&store, &mbr(&y)).unwrap().results;
        assert_eq!(inside, [(1, 0.0)], "range, round {round}");
    }
}

#[test]
fn reopen_rebuilds_the_occupancy_from_what_the_store_holds() {
    let dir = std::env::temp_dir().join(format!("trass-occupancy-reopen-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || TrassConfig {
        store: StoreOptions::at_dir(&dir),
        trace_sample_every: 0,
        ..TrassConfig::for_extent(EXTENT)
    };
    let base = city();
    let mut rows = base.clone();
    {
        let store = TrajectoryStore::open(config()).unwrap();
        store.insert_all(&base[..25]).unwrap();
        store.flush().unwrap();
        store.insert_all(&base[25..]).unwrap(); // WAL only
        for tid in [4, 31] {
            // One flushed, one WAL-only.
            assert!(store.remove(tid).unwrap());
            rows.retain(|t| t.id != tid);
        }
        let moved = shifted(&base[9], 9, 0.2, 0.1);
        assert_ne!(store.index_space_of(&moved), store.index_space_of(&base[9]));
        store.insert(&moved).unwrap();
        rows.retain(|t| t.id != 9);
        rows.push(moved);
    }
    let store = TrajectoryStore::open(config()).unwrap();
    let queries = [&base[4], &base[9], &rows[rows.len() - 1], &base[12], &base[33]];
    for q in queries {
        let got = threshold_search(&store, q, EPS, Measure::Frechet).unwrap().results;
        assert_eq!(got, brute_threshold(&rows, q), "threshold, query {}", q.id);
        let got = top_k_search(&store, q, K, Measure::Frechet).unwrap().results;
        assert_eq!(got, brute_top_k(&rows, q), "top-k, query {}", q.id);
        let got = range_search(&store, &mbr(q)).unwrap().results;
        assert_eq!(got, brute_range(&rows, &mbr(q)), "range, query {}", q.id);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
