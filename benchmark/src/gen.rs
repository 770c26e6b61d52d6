//! Seeded inputs: a taxi-like dataset, the queries sampled from it, and the
//! ingest batches.
//!
//! The dataset has the *shape* of the program's `tdrive_like` generator —
//! Beijing box, 12 % stay-point traces, log-normal extent (−3.7, 1.1),
//! 20–400 points, a heading-persistent walk — written out again here so
//! that the program's generator can change without moving the benchmark.

use crate::rng::SplitMix64;
use trass_geo::{Mbr, Point};
use trass_traj::Trajectory;

/// Urban Beijing: where the stored set and every query live.
pub const BEIJING: Mbr = Mbr { min_x: 116.0, min_y: 39.6, max_x: 116.8, max_y: 40.2 };

/// Urban Shanghai: where ingested batches live. Disjoint from [`BEIJING`]
/// by hundreds of kilometres, so writes load every shard's WAL, memtable,
/// flush and compaction while every query answer stays what the oracle
/// computes from the Beijing set alone.
pub const SHANGHAI: Mbr = Mbr { min_x: 121.0, min_y: 30.9, max_x: 121.8, max_y: 31.5 };

const STAY_FRACTION: f64 = 0.12;
const SPAN_LOG_NORMAL: (f64, f64) = (-3.7, 1.1);
const POINTS: (usize, usize) = (20, 400);
const STAY_POINTS: (usize, usize) = (5, 60);
const STAY_NOISE: f64 = 1e-6;

const STREAM_DATASET: u64 = 1;
const STREAM_QUERIES: u64 = 2;
const STREAM_INGEST: u64 = 3;
const STREAM_ORDER: u64 = 4;

/// Ids of ingested trajectories start here, far above any dataset id.
pub const INGEST_ID_BASE: u64 = 1 << 40;

/// `n` trajectories with ids `0..n` inside [`BEIJING`].
pub fn dataset(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = SplitMix64::stream(seed, STREAM_DATASET);
    (0..n as u64).map(|id| taxi_trajectory(&mut rng, id, &BEIJING)).collect()
}

/// `n` trajectories inside [`SHANGHAI`] with ids from `INGEST_ID_BASE +
/// first`, for ingest batch number `batch`. Each batch has its own stream,
/// so callers on different connections can build theirs independently.
pub fn ingest_batch(seed: u64, batch: u64, first: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = SplitMix64::stream(seed, STREAM_INGEST.wrapping_add(batch << 8));
    (0..n as u64)
        .map(|i| taxi_trajectory(&mut rng, INGEST_ID_BASE + first + i, &SHANGHAI))
        .collect()
}

/// `k` distinct positions of the stored set to use as queries — the
/// paper's way of choosing them (§VI-A) — drawn as a stratified sample and
/// returned in order of extent.
///
/// The eligible trajectories (larger side at most `max_extent`) are ranked
/// by extent and cut into `k` equal strata, one query from each. Within
/// its stratum a query is drawn by length rank, and the length ranks are a
/// seeded permutation of `k` evenly spaced levels (a Latin hypercube over
/// extent × length).
///
/// What a query costs follows its extent (the pruned area, the candidates
/// inside it) and its length (the kernel is `n × m`), and the extent
/// distribution is heavy-tailed; a plain random sample of a hundred would
/// let the seed decide how many expensive queries a run gets. Drawn this
/// way, every seed asks different trajectories with the same extent and
/// length profile.
pub fn sample_queries(
    seed: u64,
    data: &[Trajectory],
    k: usize,
    max_extent: Option<f64>,
) -> Vec<usize> {
    let extent = |pos: usize| {
        let mbr = data[pos].mbr();
        mbr.width().max(mbr.height())
    };
    let mut ranked: Vec<(f64, usize)> = (0..data.len())
        .map(|pos| (extent(pos), pos))
        .filter(|&(e, _)| max_extent.map_or(true, |cap| e <= cap))
        .collect();
    assert!(
        ranked.len() >= k,
        "the stored set has too few trajectories to sample {k} queries from"
    );
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut rng = SplitMix64::stream(seed, STREAM_QUERIES);
    let mut levels: Vec<usize> = (0..k).collect();
    shuffle(&mut rng, &mut levels);
    let n = ranked.len();
    (0..k)
        .map(|stratum| {
            let members = &mut ranked[stratum * n / k..(stratum + 1) * n / k];
            members.sort_by_key(|&(_, pos)| (data[pos].len(), pos));
            let at = (levels[stratum] as f64 + rng.unit()) / k as f64 * members.len() as f64;
            members[(at as usize).min(members.len() - 1)].1
        })
        .collect()
}

/// The order a workload cycles its queries in: a seeded shuffle, so cost
/// does not rise through a cycle as it does through the extent strata.
pub fn cycle_order<T>(seed: u64, items: &mut [T]) {
    shuffle(&mut SplitMix64::stream(seed, STREAM_ORDER), items);
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in 0..items.len() {
        let j = i + rng.index(items.len() - i);
        items.swap(i, j);
    }
}

/// FNV-1a over every id and coordinate bit pattern: equal exactly when two
/// datasets are equal, which is what the determinism test needs.
pub fn dataset_hash(data: &[Trajectory]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for t in data {
        eat(t.id);
        eat(t.points().len() as u64);
        for p in t.points() {
            eat(p.x.to_bits());
            eat(p.y.to_bits());
        }
    }
    h
}

/// Total number of points, the denominator of bytes-per-raw-byte.
pub fn total_points(data: &[Trajectory]) -> u64 {
    data.iter().map(|t| t.points().len() as u64).sum()
}

fn taxi_trajectory(rng: &mut SplitMix64, id: u64, extent: &Mbr) -> Trajectory {
    if rng.chance(STAY_FRACTION) {
        let origin = Point::new(
            rng.uniform(extent.min_x, extent.max_x),
            rng.uniform(extent.min_y, extent.max_y),
        );
        let len = rng.int_inclusive(STAY_POINTS.0, STAY_POINTS.1);
        let points = (0..len)
            .map(|_| {
                Point::new(
                    origin.x + rng.uniform(-STAY_NOISE, STAY_NOISE),
                    origin.y + rng.uniform(-STAY_NOISE, STAY_NOISE),
                )
            })
            .collect();
        return Trajectory::new(id, points);
    }
    let max_span = extent.width().min(extent.height()) * 0.9;
    let span = rng.log_normal(SPAN_LOG_NORMAL.0, SPAN_LOG_NORMAL.1).clamp(0.002, max_span);
    let len = rng.int_inclusive(POINTS.0, POINTS.1);
    // Leave `span` of room toward the upper right, so walks do not pile up
    // against the box.
    let origin = Point::new(
        rng.uniform(extent.min_x, (extent.max_x - span).max(extent.min_x)),
        rng.uniform(extent.min_y, (extent.max_y - span).max(extent.min_y)),
    );
    Trajectory::new(id, walk(rng, origin, span, len, extent))
}

/// A heading-persistent walk whose bounding box stays within `span`: small
/// heading noise, a sharp turn one step in twenty, and a turn back toward
/// the origin whenever the next step would outgrow the span.
fn walk(rng: &mut SplitMix64, origin: Point, span: f64, len: usize, extent: &Mbr) -> Vec<Point> {
    let step = span / (len as f64).sqrt().max(2.0);
    let mut heading = rng.uniform(0.0, std::f64::consts::TAU);
    let mut p = origin;
    let mut bbox = Mbr::from_point(p);
    let mut points = Vec::with_capacity(len);
    points.push(p);
    for _ in 1..len {
        if rng.chance(0.05) {
            heading = rng.uniform(0.0, std::f64::consts::TAU);
        } else {
            heading += rng.uniform(-0.35, 0.35);
        }
        let mut next = Point::new(p.x + step * heading.cos(), p.y + step * heading.sin());
        let mut grown = bbox;
        grown.extend(next);
        if grown.width() > span || grown.height() > span {
            heading = (origin.y - p.y).atan2(origin.x - p.x) + rng.uniform(-0.5, 0.5);
            next = Point::new(p.x + step * heading.cos(), p.y + step * heading.sin());
        }
        next = Point::new(
            next.x.clamp(extent.min_x, extent.max_x),
            next.y.clamp(extent.min_y, extent.max_y),
        );
        bbox.extend(next);
        points.push(next);
        p = next;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_dataset_other_seed_other_dataset() {
        let a = dataset(7, 500);
        assert_eq!(dataset_hash(&a), dataset_hash(&dataset(7, 500)));
        assert_ne!(dataset_hash(&a), dataset_hash(&dataset(8, 500)));
        // A prefix of a longer dataset is the shorter dataset: size changes
        // add trajectories, they do not reshuffle the rest.
        assert_eq!(dataset_hash(&a), dataset_hash(&dataset(7, 600)[..500]));
    }

    #[test]
    fn dataset_has_the_taxi_shape() {
        let data = dataset(1, 4000);
        let mut stays = 0;
        for (i, t) in data.iter().enumerate() {
            assert_eq!(t.id, i as u64);
            assert!(
                t.points().iter().all(|p| BEIJING.contains_point(p)),
                "trajectory {i} leaves the box"
            );
            let mbr = t.mbr();
            if mbr.width().max(mbr.height()) < 1e-5 {
                stays += 1;
                assert!((STAY_POINTS.0..=STAY_POINTS.1).contains(&t.len()));
            } else {
                assert!((POINTS.0..=POINTS.1).contains(&t.len()));
            }
        }
        let share = stays as f64 / data.len() as f64;
        assert!((0.09..0.15).contains(&share), "stay share {share}");
    }

    #[test]
    fn ingest_batches_are_disjoint_from_the_stored_set() {
        let batch = ingest_batch(1, 5, 160, 32);
        assert_eq!(batch.len(), 32);
        assert_eq!(batch[0].id, INGEST_ID_BASE + 160);
        for t in &batch {
            assert!(t.points().iter().all(|p| SHANGHAI.contains_point(p)));
        }
        assert!(
            !BEIJING.extended(1.0).intersects(&SHANGHAI),
            "no query within a degree reaches Shanghai"
        );
        assert_ne!(dataset_hash(&batch), dataset_hash(&ingest_batch(1, 6, 160, 32)));
        assert_eq!(dataset_hash(&batch), dataset_hash(&ingest_batch(1, 5, 160, 32)));
    }

    #[test]
    fn queries_are_distinct_seeded_capped_and_spread_over_every_extent() {
        let data = dataset(3, 5000);
        let extent = |pos: usize| data[pos].mbr().width().max(data[pos].mbr().height());
        let a = sample_queries(3, &data, 100, None);
        assert_eq!(a, sample_queries(3, &data, 100, None));
        assert_ne!(a, sample_queries(4, &data, 100, None));
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 100);
        assert!(sample_queries(3, &data, 100, Some(0.05)).iter().all(|&p| extent(p) <= 0.05));
        // One query per extent stratum: the k-th smallest extent of any
        // sample lies inside the k-th fiftieth of the stored set's extents.
        let mut all: Vec<f64> = (0..data.len()).map(extent).collect();
        all.sort_by(f64::total_cmp);
        for (k, &pos) in a.iter().enumerate() {
            assert!(all[k * 50] <= extent(pos) && extent(pos) <= all[k * 50 + 49], "stratum {k}");
        }
        // ... and the lengths cover every level too: the hundred queries'
        // within-stratum length ranks are a permutation of a hundred levels,
        // so their mean length is close to the stored set's (210).
        let mean_len = a.iter().map(|&p| data[p].len()).sum::<usize>() as f64 / 100.0;
        let all_len = data.iter().map(Trajectory::len).sum::<usize>() as f64 / data.len() as f64;
        assert!((mean_len - all_len).abs() < 0.05 * all_len, "{mean_len} vs {all_len}");
        let mut order: Vec<usize> = (0..100).collect();
        cycle_order(3, &mut order);
        assert_ne!(order, (0..100).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }
}
