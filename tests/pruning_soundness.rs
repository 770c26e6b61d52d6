//! Property-based soundness tests for the whole pruning stack: no stage —
//! global pruning, local filtering, refinement — may ever lose a truly
//! similar trajectory. These are the invariants the paper's lemmas prove;
//! here seeded random workloads hunt for counterexamples.

use trass::core::query::{LocalFilter, QuerySide};
use trass::core::schema::RowValue;
use trass::geo::{Mbr, NormalizedSpace, Point};
use trass::index::xzstar::{BestFirst, EveryValue, PruningConfig, XzStar};
use trass::traj::{DpFeatures, Measure, Trajectory};
use trass_rng::{check, Rng};

const CASES: u32 = 64;

/// 1..=24 random points with both coordinates in `[lo, hi)`.
fn points_in(rng: &mut Rng, lo: f64, hi: f64) -> Vec<Point> {
    (0..rng.len(1, 24)).map(|_| Point::new(rng.f64_in(lo, hi), rng.f64_in(lo, hi))).collect()
}

/// Random trajectory inside the unit-ish city box.
fn traj(rng: &mut Rng) -> Vec<Point> {
    points_in(rng, 0.05, 0.95)
}

/// Random trajectory kept away from the boundary, so bounded translations
/// stay inside the unit square.
fn inner_traj(rng: &mut Rng) -> Vec<Point> {
    points_in(rng, 0.15, 0.85)
}

/// `points` translated by up to 0.1 on each axis.
fn translated(rng: &mut Rng, points: &[Point]) -> Vec<Point> {
    let (dx, dy) = (rng.f64_in(-0.1, 0.1), rng.f64_in(-0.1, 0.1));
    points.iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect()
}

/// Lemmas 1–2 + position codes: the index space always covers the
/// trajectory, and the code's quads are exactly the touched quads.
#[test]
fn index_space_covers_trajectory() {
    check(CASES, |rng| {
        let points = traj(rng);
        let index = XzStar::new(12);
        let space = index.index_points(&points);
        let ee = space.cell.enlarged().extended(1e-12);
        for p in &points {
            assert!(ee.contains_point(p), "point {p} outside enlarged element");
        }
        // Every quad in the code contains at least one point; every point
        // falls in a quad of the code.
        let rects = XzStar::quad_rects(&space.cell);
        let quads = space.code.quads();
        for q in quads.iter() {
            let rect = rects[q.quad_index().unwrap()];
            assert!(
                points.iter().any(|p| rect.extended(1e-12).contains_point(p)),
                "code quad without points"
            );
        }
    });
}

/// Global pruning soundness: any trajectory within eps of the query
/// (under Fréchet, therefore any measure obeying Lemma 5) lives in an
/// index space the pruner keeps. Similar pairs are *constructed* — a
/// translated copy of the query has Fréchet distance exactly the
/// translation norm — so every case exercises the property.
#[test]
fn global_pruning_keeps_similar_trajectories() {
    check(CASES, |rng| {
        let q_points = inner_traj(rng);
        let t_points = translated(rng, &q_points);
        let slack = rng.f64_in(0.0, 0.05);
        let index = XzStar::new(12);
        let d = Measure::Frechet.distance(&q_points, &t_points);
        let eps = d + slack;
        let t_value = index.encode(&index.index_points(&t_points));
        let mut frontier =
            BestFirst::new(&index, q_points, &EveryValue, PruningConfig::default()).unwrap();
        let values: Vec<u64> =
            std::iter::from_fn(|| frontier.next_space(eps)).map(|c| c.value).collect();
        assert!(values.contains(&t_value), "similar trajectory (d = {d}) pruned at eps = {eps}");
    });
}

/// Local filtering soundness: a row within eps always passes the
/// Lemma 12–14 stack, for every measure. Pairs are a mix of random
/// (usually far — exercising the reject path never firing below d) and
/// translated copies (guaranteed close).
#[test]
fn local_filter_keeps_similar_rows() {
    check(CASES, |rng| {
        let q_points = inner_traj(rng);
        let t_points = translated(rng, &q_points);
        let (slack, theta) = (rng.f64_in(0.0, 0.1), rng.f64_in(0.001, 0.05));
        for measure in [Measure::Frechet, Measure::Hausdorff, Measure::Dtw] {
            let d = measure.distance(&q_points, &t_points);
            let eps = d + slack;
            let q = Trajectory::new(0, q_points.clone());
            let t = Trajectory::new(1, t_points.clone());
            let side = QuerySide::new(&q, theta, measure);
            let filter = LocalFilter::new(side, eps);
            let row =
                RowValue { points: t.points().to_vec(), features: DpFeatures::extract(&t, theta) };
            assert!(
                filter.passes(&row),
                "{measure}: similar row (d = {d}) filtered at eps = {eps}, theta = {theta}"
            );
        }
    });
}

/// XZ* encoding stays bijective over random trajectories.
#[test]
fn encode_decode_roundtrip_random() {
    check(CASES, |rng| {
        let points = traj(rng);
        for r in [4u8, 10, 16] {
            let index = XzStar::new(r);
            let space = index.index_points(&points);
            let value = index.encode(&space);
            assert_eq!(index.decode(value), Some(space));
        }
    });
}

/// World→unit mapping preserves relative distances exactly for square
/// spaces (the assumption the cross-space pruning relies on).
#[test]
fn square_space_distance_consistency() {
    check(CASES, |rng| {
        let space = NormalizedSpace::square(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let mut point = || Point::new(rng.f64_in(-170.0, 170.0), rng.f64_in(-80.0, 80.0));
        let (a, b) = (point(), point());
        let world_d = a.distance(&b);
        let unit_d = space.to_unit(&a).distance(&space.to_unit(&b));
        assert!((space.distance_to_unit(world_d) - unit_d).abs() < 1e-12);
    });
}
