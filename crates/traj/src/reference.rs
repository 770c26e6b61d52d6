//! The reference answers: what threshold, top-k and range search must
//! return over a set of rows, computed from the measures' definitions
//! alone. Every query path, engine and experiment in this repository is
//! held to these functions, and [`diff`] is the one comparison.
//!
//! * [`threshold`]: the rows at `d ≤ ε`, by id.
//! * [`top_k`]: the rows in (distance, id) order, cut at k.
//! * [`range`]: the rows with a point in the window, by id, at distance 0.
//!
//! A distance is always [`Measure::distance`] of the query and the row.
//! The module reads no index, filter, refinement or `bounds` code: it
//! shares proofs with them, not code.
//!
//! # Rows in lower-bound order
//!
//! Threshold and top-k visit the rows in the order of a lower bound on
//! their distance to the query and compute the exact distance only until
//! the bound passes ε, or strictly passes the current k-th distance (a row
//! whose bound equals the k-th distance can still win its tie on id).
//! Top-k orders Fréchet rows by the O(1) endpoint pair and checks each
//! row's full bound against the k-th distance only when it reaches the
//! row, skipping the row when that bound strictly passes it. DTW and
//! Hausdorff order by the full bound: Hausdorff has no O(1) one, and
//! DTW's endpoint sum ranks rows too loosely, so the k-th distance
//! tightens later and more kernels run.
//! Threshold needs no order for that: it computes exactly the rows whose
//! bound is at most ε, and it evaluates the bounds cheapest first (the
//! endpoint pair, then the MBRs), stopping at the first that passes ε.
//! Each bound is at most the *computed* distance, not only the real one,
//! so the answer is the every-row scan's, bit for bit:
//!
//! * **MBR gap** (all three measures): every point-to-point distance is at
//!   least the gap between the two MBRs, and each measure is at least one
//!   point-to-point distance (a coupling cell, a directed minimum, a path
//!   cost).
//! * **Farthest query point from the row's MBR** (Fréchet, Hausdorff):
//!   every query point is coupled to (Fréchet) or has its nearest (directed
//!   Hausdorff) some row point, which is no closer than the row's MBR.
//! * **Endpoint pair**: every coupling and warping path holds both first
//!   points and both last points, so Fréchet is at least their larger
//!   distance and DTW, a sum along a path, at least their sum; when both
//!   sides have one point the two cells are one, and DTW gets that one.
//! * **Σ of the query points' distances to the row's MBR** (DTW): a warping
//!   path visits every query point at least once.
//!
//! Rounding: the coordinate differences, squares and sums the bounds take
//! are the kernel's operations on inputs no farther apart than the
//! kernel's (a point lies in its MBR), and correctly rounded arithmetic is
//! monotone, so each bound's value is at most the kernel's matching term.
//! Fréchet and Hausdorff return one of their terms; a DTW value is a
//! rounded sum of non-negative costs, which is at least any term and, in
//! any order of summation, at least the rounded sum of any two of them.
//! The Σ bound alone adds many terms, so it gives up a slack of
//! `(n + m) · f64::EPSILON` of itself, which covers a kernel that sums
//! its path of at most `n + m − 1` terms in any order.

use crate::{Measure, Trajectory, TrajectoryId};
use std::collections::BinaryHeap;
use trass_geo::{Mbr, Point};

/// `(id, distance)` rows, in the order the query kind defines.
pub type Answer = Vec<(TrajectoryId, f64)>;

/// The rows within `eps` of `query` (`d ≤ eps`), by id.
pub fn threshold(rows: &[Trajectory], query: &Trajectory, eps: f64, measure: Measure) -> Answer {
    let (q, q_mbr) = (query.points(), query.mbr());
    let mut hits = Answer::new();
    // The rows whose bound is at most ε, the ones a visit in bound order
    // computes; they need no order among themselves.
    for t in rows.iter().filter(|t| lower_bound(measure, q, &q_mbr, t, eps) <= eps) {
        let d = measure.distance(q, t.points());
        if d <= eps {
            hits.push((t.id, d));
        }
    }
    hits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    hits
}

/// The `k` rows nearest `query`, in (distance, id) order: ties go to the
/// smaller id.
pub fn top_k(rows: &[Trajectory], query: &Trajectory, k: usize, measure: Measure) -> Answer {
    if k == 0 {
        return Answer::new();
    }
    let (q, q_mbr) = (query.points(), query.mbr());
    // The best rows so far, largest (distance, id) on top. A distance is
    // never negative or NaN, so its bits order as it does.
    let mut best: BinaryHeap<(u64, TrajectoryId)> = BinaryHeap::with_capacity(k + 1);
    for (order, t) in by_bound(rows, query, measure) {
        let kth = best.peek().filter(|_| best.len() == k).map(|&(d, _)| f64::from_bits(d));
        if let Some(kth) = kth {
            if order > kth {
                break;
            }
            // A row ordered by its endpoint pair alone: its full bound,
            // checked against the k-th, can still pass it.
            if lower_bound(measure, q, &q_mbr, t, kth) > kth {
                continue;
            }
        }
        best.push((measure.distance(q, t.points()).to_bits(), t.id));
        if best.len() > k {
            best.pop();
        }
    }
    best.into_sorted_vec().into_iter().map(|(d, id)| (id, f64::from_bits(d))).collect()
}

/// The rows with at least one point inside `window` (boundary included),
/// by id, each at distance 0.
pub fn range(rows: &[Trajectory], window: &Mbr) -> Answer {
    let mut hits: Answer = rows
        .iter()
        .filter(|t| t.points().iter().any(|p| window.contains_point(p)))
        .map(|t| (t.id, 0.0))
        .collect();
    hits.sort_by_key(|r| r.0);
    hits
}

/// The one comparison: `None` when `got` holds `want`'s ids in `want`'s
/// order with the same distance bits, else the first row that differs.
pub fn diff(got: &[(TrajectoryId, f64)], want: &[(TrajectoryId, f64)]) -> Option<String> {
    let bits = |r: &(TrajectoryId, f64)| (r.0, r.1.to_bits());
    let same = got.iter().map(bits).zip(want.iter().map(bits)).take_while(|(g, w)| g == w);
    let i = same.count();
    (i < got.len().max(want.len())).then(|| {
        format!(
            "row {i} of {} (reference {}): got {:?}, reference {:?}",
            got.len(),
            want.len(),
            got.get(i),
            want.get(i)
        )
    })
}

/// Every row with a lower bound, smallest bound first: the O(1) endpoint
/// pair for Fréchet, the full bound for DTW and Hausdorff.
fn by_bound<'a>(
    rows: &'a [Trajectory],
    query: &Trajectory,
    measure: Measure,
) -> Vec<(f64, &'a Trajectory)> {
    let (q, q_mbr) = (query.points(), query.mbr());
    let bound = |t: &Trajectory| match measure {
        Measure::Frechet => endpoint_max(q, t.points()),
        Measure::Dtw | Measure::Hausdorff => lower_bound(measure, q, &q_mbr, t, f64::INFINITY),
    };
    let mut order: Vec<_> = rows.iter().map(|t| (bound(t), t)).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    order
}

/// The largest of the bounds that hold for `measure` (see the module
/// docs), or, once the cheaper ones pass `enough`, the largest of those.
fn lower_bound(measure: Measure, q: &[Point], q_mbr: &Mbr, t: &Trajectory, enough: f64) -> f64 {
    let bound = match measure {
        Measure::Frechet => endpoint_max(q, t.points()),
        Measure::Hausdorff => 0.0,
        Measure::Dtw => endpoint_sum(q, t.points()),
    };
    if bound > enough {
        return bound;
    }
    let t_mbr = t.mbr();
    let bound = bound.max(mbr_gap(q_mbr, &t_mbr));
    if bound > enough {
        return bound;
    }
    bound.max(match measure {
        Measure::Frechet | Measure::Hausdorff => farthest_from(q, &t_mbr),
        Measure::Dtw => sum_to(q, &t_mbr, t.len()),
    })
}

/// The gap between the query's and the row's MBRs: all three measures.
fn mbr_gap(q_mbr: &Mbr, t_mbr: &Mbr) -> f64 {
    q_mbr.distance_to_mbr(t_mbr)
}

/// `maxᵢ d(qᵢ, MBR(T))`: Fréchet and Hausdorff.
fn farthest_from(q: &[Point], t_mbr: &Mbr) -> f64 {
    q.iter().map(|p| t_mbr.distance_sq_to_point(p)).fold(0.0, f64::max).sqrt()
}

/// `max(d(q₁, t₁), d(qₙ, tₘ))`: Fréchet.
fn endpoint_max(q: &[Point], t: &[Point]) -> f64 {
    let (first, last) = endpoints(q, t);
    first.max(last)
}

/// `d(q₁, t₁) + d(qₙ, tₘ)`, or `d(q₁, t₁)` when `n = m = 1`: DTW.
fn endpoint_sum(q: &[Point], t: &[Point]) -> f64 {
    let (first, last) = endpoints(q, t);
    if q.len() == 1 && t.len() == 1 {
        first
    } else {
        first + last
    }
}

/// `(d(q₁, t₁), d(qₙ, tₘ))`.
fn endpoints(q: &[Point], t: &[Point]) -> (f64, f64) {
    (q[0].distance(&t[0]), q[q.len() - 1].distance(&t[t.len() - 1]))
}

/// `Σᵢ d(qᵢ, MBR(T))` less its rounding slack (`m` row points): DTW.
fn sum_to(q: &[Point], t_mbr: &Mbr, m: usize) -> f64 {
    let sum = q.iter().fold(0.0, |s, p| s + t_mbr.distance_to_point(p));
    sum * (1.0 - (q.len() + m) as f64 * f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{self, TaxiConfig, BEIJING};
    use trass_rng::{check, Rng};

    const MEASURES: [Measure; 3] = [Measure::Frechet, Measure::Hausdorff, Measure::Dtw];

    fn traj(id: TrajectoryId, points: Vec<Point>) -> Trajectory {
        Trajectory::new(id, points)
    }

    /// The definitions, row by row: every row's distance to `q`.
    fn scan(rows: &[Trajectory], q: &Trajectory, m: Measure) -> Answer {
        rows.iter().map(|t| (t.id, m.distance(q.points(), t.points()))).collect()
    }

    fn scan_threshold(all: &[(TrajectoryId, f64)], eps: f64) -> Answer {
        let mut hits: Answer = all.iter().copied().filter(|&(_, d)| d <= eps).collect();
        hits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        hits
    }

    fn scan_top_k(all: &[(TrajectoryId, f64)], k: usize) -> Answer {
        let mut ranked = all.to_vec();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        if x > 0.0 {
            f64::from_bits(x.to_bits() - 1)
        } else {
            -f64::MIN_POSITIVE
        }
    }

    /// A walk of 1..=12 points in a box of side `side` around `(x, y)`,
    /// with stuttering (repeated) points.
    fn walk(rng: &mut Rng, (x, y): (f64, f64), side: f64) -> Vec<Point> {
        let mut pts: Vec<Point> = Vec::new();
        for _ in 0..rng.len(1, 12) {
            match pts.last() {
                Some(&last) if rng.bool(0.15) => pts.push(last),
                _ => pts.push(Point::new(x + rng.f64_in(-side, side), y + rng.f64_in(-side, side))),
            }
        }
        pts
    }

    /// `(bound, the measures it holds for)`: each bound the module orders by.
    type Bound = (&'static str, fn(&[Point], &[Point]) -> f64, &'static [Measure]);
    const BOUNDS: [Bound; 5] = [
        ("mbr-gap", |q, t| mbr_gap(&mbr(q), &mbr(t)), &MEASURES),
        ("farthest", |q, t| farthest_from(q, &mbr(t)), &[Measure::Frechet, Measure::Hausdorff]),
        ("endpoint-max", endpoint_max, &[Measure::Frechet]),
        ("endpoint-sum", endpoint_sum, &[Measure::Dtw]),
        ("sum-to-mbr", |q, t| sum_to(q, &mbr(t), t.len()), &[Measure::Dtw]),
    ];

    fn mbr(p: &[Point]) -> Mbr {
        Mbr::from_points(p).expect("non-empty")
    }

    /// The pairs on which each bound is tight (its value is the distance,
    /// before the Σ bound's slack): one point against one point for the
    /// MBR gap; any walk against one point for the farthest point and Σ;
    /// two points against two for the endpoint pair, whose only cheaper
    /// couplings do not exist.
    fn tight(name: &str, rng: &mut Rng) -> (Vec<Point>, Vec<Point>) {
        let (q, t) = (walk(rng, (0.0, 0.0), 1.0), walk(rng, (0.5, 0.0), 1.0));
        match name {
            "mbr-gap" => (q[..1].to_vec(), t[..1].to_vec()),
            "farthest" | "sum-to-mbr" => (q, t[..1].to_vec()),
            _ => {
                let two = |w: Vec<Point>| vec![w[0], w[w.len() - 1]];
                (two(q), two(t))
            }
        }
    }

    #[test]
    fn each_bound_is_at_most_the_kernels_distance_and_tight_where_designed() {
        check(400, |rng| {
            let (centre, side) = ((rng.f64_in(-1.0, 1.0), rng.f64_in(-1.0, 1.0)), rng.f64());
            let q = walk(rng, (0.0, 0.0), 1.0);
            let t = match rng.usize_in(0, 2) {
                0 => q.clone(),
                1 => q.iter().map(|p| Point::new(p.x + 1e-9, p.y - 1e-9)).collect(),
                _ => walk(rng, centre, side),
            };
            for (name, bound, measures) in BOUNDS {
                let b = bound(&q, &t);
                for &m in measures {
                    let d = m.distance(&q, &t);
                    assert!(b <= d, "{name} {b} > {m} {d}: {q:?} {t:?}");
                }
                let (q, t) = tight(name, rng);
                let b = bound(&q, &t);
                let (qt, row) = (traj(0, q), traj(1, t));
                for &m in measures {
                    let d = m.distance(qt.points(), row.points());
                    if name == "sum-to-mbr" {
                        let n = qt.len() + row.len() + 1;
                        assert!(b <= d && d * (1.0 - n as f64 * f64::EPSILON) <= b, "{m}");
                    } else {
                        assert_eq!(b.to_bits(), d.to_bits(), "{name} is not tight for {m}");
                    }
                    // The reference decides at the bound and one ulp either side.
                    let rows = [row.clone()];
                    for eps in [b, next_up(b), next_down(b), d, next_up(d), next_down(d)] {
                        let want = scan_threshold(&scan(&rows, &qt, m), eps);
                        assert_eq!(diff(&threshold(&rows, &qt, eps, m), &want), None, "{m} {eps}");
                    }
                }
            }
        });
    }

    /// A T-Drive-like store with ties: duplicate rows, all-equal-points
    /// rows, single-point rows and rows outside BEIJING.
    fn store(rng: &mut Rng) -> (Vec<Trajectory>, Vec<Trajectory>) {
        let cfg = TaxiConfig { points_range: (2, 60), ..TaxiConfig::default() };
        let mut rows = generator::taxi_dataset(rng.u64(), rng.len(4, 40), &cfg);
        let n = rows.len();
        for i in 0..rng.len(1, 6) {
            let id = 1000 + i as u64;
            let p = Point::new(rng.f64_in(115.0, 117.0), rng.f64_in(39.0, 40.5));
            let copy = rows[rng.usize_in(0, n - 1)].points().to_vec();
            rows.push(match i % 4 {
                0 => traj(id, copy),
                1 => traj(id, vec![p]),
                2 => traj(id, vec![p; rng.len(2, 5)]),
                _ => traj(id, vec![Point::new(BEIJING.min_x - 0.5, p.y), p]),
            });
        }
        let mut queries = generator::sample_queries(&rows, 3, rng.u64());
        queries.push(traj(9_001, vec![Point::new(116.4, 39.9)]));
        queries.push(traj(9_002, vec![Point::new(115.2, 38.9), Point::new(115.25, 38.92)]));
        (rows, queries)
    }

    #[test]
    fn bound_order_answers_equal_an_every_row_scan() {
        check(40, |rng| {
            let (rows, queries) = store(rng);
            for q in &queries {
                for m in MEASURES {
                    let all = scan(&rows, q, m);
                    // ε at every third row's distance and one ulp either
                    // side, and at each row's bound.
                    let mut eps = vec![0.0, 0.002, 0.01, 0.05, -1.0, f64::INFINITY];
                    for &(_, d) in all.iter().step_by(3) {
                        eps.extend([d, next_up(d), next_down(d)]);
                    }
                    let (q_points, q_mbr) = (q.points(), q.mbr());
                    let bound = |t| lower_bound(m, q_points, &q_mbr, t, f64::INFINITY);
                    eps.extend(rows.iter().map(bound));
                    for eps in eps {
                        let got = threshold(&rows, q, eps, m);
                        let want = scan_threshold(&all, eps);
                        assert_eq!(diff(&got, &want), None, "{m} threshold {eps} query {}", q.id);
                    }
                    for k in [0, 1, 2, 5, 10, rows.len(), rows.len() + 5] {
                        let got = top_k(&rows, q, k, m);
                        assert_eq!(
                            diff(&got, &scan_top_k(&all, k)),
                            None,
                            "{m} top-{k} query {}",
                            q.id
                        );
                    }
                }
            }
        });
    }
}
