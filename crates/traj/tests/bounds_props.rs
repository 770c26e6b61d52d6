//! Property suite for the refinement lower bounds and the single-pass
//! exact-or-abandon kernels (the trass-traj half of the exactness
//! contract; `tests/exactness.rs` covers the query pipeline half).
//!
//! Each property runs ≥ 256 seeded cases per measure through the
//! workspace's property runner, which reports the failing case's seed.

use std::cell::Cell;
use trass_geo::{Mbr, Point};
use trass_rng::{check, Rng};
use trass_traj::bounds::{BoundKind, QueryEnvelope, PRUNE_SLACK};
use trass_traj::Measure;

const CASES: u32 = 300; // ≥ 256 per property, per measure

const MEASURES: [Measure; 3] = [Measure::Frechet, Measure::Hausdorff, Measure::Dtw];

/// A random trajectory of 1..=15 points in [-10, 10]² — the same
/// envelope the measure property tests use — with occasional
/// duplicated points (stuttering GPS fixes).
fn traj(rng: &mut Rng) -> Vec<Point> {
    let n = rng.len(1, 15);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        match pts.last() {
            Some(&last) if rng.bool(0.125) => pts.push(last), // duplicate point
            _ => pts.push(Point::new(rng.f64_in(-10.0, 10.0), rng.f64_in(-10.0, 10.0))),
        }
    }
    pts
}

/// A trajectory pair: mostly independent, sometimes near-duplicates or
/// coincident so the "similar" side of every threshold is exercised.
fn pair(rng: &mut Rng) -> (Vec<Point>, Vec<Point>) {
    let a = traj(rng);
    let b = match rng.usize_in(0, 3) {
        0 => a.clone(), // coincident
        1 => {
            // Jittered copy: distances near zero but not exactly.
            let dx = rng.f64_in(-0.01, 0.01);
            let dy = rng.f64_in(-0.01, 0.01);
            a.iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect()
        }
        _ => traj(rng),
    };
    (a, b)
}

#[test]
fn every_lower_bound_is_at_most_the_exact_distance() {
    check(CASES, |rng| {
        let (q, t) = pair(rng);
        let env = QueryEnvelope::new(&q).expect("non-empty query");
        let tmbr = Mbr::from_points(t.iter()).expect("non-empty candidate");
        for m in MEASURES {
            let d = m.distance(&q, &t);
            if m.supports_endpoint_lemma() {
                let eb = env.endpoint_bound(&t);
                assert!(eb <= d + PRUNE_SLACK, "{m}: endpoint {eb} > distance {d}");
            }
            let mb = env.mbr_bound(&tmbr);
            assert!(mb <= d + PRUNE_SLACK, "{m}: mbr-gap {mb} > distance {d}");
            let rb = env.ref_bound(&t);
            assert!(rb <= d + PRUNE_SLACK, "{m}: ref-gap {rb} > distance {d}");
        }
    });
}

#[test]
fn prune_never_fires_at_or_above_the_exact_distance() {
    // The composite check at threshold = distance (and looser) must never
    // prune: pruning a true hit is exactly the bug class this PR's
    // differential harness exists to rule out.
    check(CASES, |rng| {
        let (q, t) = pair(rng);
        let env = QueryEnvelope::new(&q).expect("non-empty query");
        let tmbr = Mbr::from_points(t.iter()).expect("non-empty candidate");
        for m in MEASURES {
            let d = m.distance(&q, &t);
            for threshold in [d, d * 1.5 + 0.1, f64::INFINITY] {
                assert_eq!(
                    env.prunes(&t, Some(&tmbr), m, threshold),
                    None,
                    "{m}: pruned a candidate at distance {d} ≤ threshold {threshold}"
                );
            }
        }
    });
}

#[test]
fn prune_verdicts_are_correct_when_they_fire() {
    // Whenever a bound does fire, the exact distance really exceeds the
    // threshold — over random (mostly dissimilar) pairs and thresholds.
    let fired = Cell::new(0u64);
    check(CASES, |rng| {
        let (q, t) = pair(rng);
        let env = QueryEnvelope::new(&q).expect("non-empty query");
        for m in MEASURES {
            let threshold = rng.f64_in(0.0, 5.0);
            if let Some(kind) = env.prunes(&t, None, m, threshold) {
                fired.set(fired.get() + 1);
                let d = m.distance(&q, &t);
                assert!(
                    d > threshold,
                    "{m}: {kind} pruned at threshold {threshold} but distance is {d}"
                );
            }
        }
    });
    let fired = fired.get();
    assert!(fired > 100, "prune fired only {fired} times — the property is vacuous");
}

#[test]
fn distance_within_is_the_distance_up_to_eps() {
    // The kernel-level statement of the exactness contract: `Some` of the
    // bit-identical exact value when `distance <= eps`, `None` otherwise.
    // Only inside a 1e-9 band around the boundary may the kernel's
    // squared-space decision differ from the sqrt-space comparison.
    check(CASES, |rng| {
        let (a, b) = pair(rng);
        for m in MEASURES {
            let d = m.distance(&a, &b);
            for eps in [0.0, d * 0.5, d - 2e-9, d + 2e-9, d * 2.0, rng.f64_in(0.0, 30.0)] {
                let got = m.distance_within(&a, &b, eps);
                if let Some(got) = got {
                    assert_eq!(got.to_bits(), d.to_bits(), "{m} eps {eps}: {got} != distance {d}");
                }
                if (d - eps).abs() > 1e-9 {
                    assert_eq!(got.is_some(), d <= eps, "{m} eps {eps} d {d}");
                }
            }
        }
    });
}

/// The full-matrix Fréchet recurrence in squared space: `f64::min`/`max`
/// over every cell, no cutoff and no band — an independent reference for
/// the banded kernel.
#[allow(clippy::needless_range_loop)] // symmetric a[i]/b[j] DP recurrence
fn reference_frechet_sq(a: &[Point], b: &[Point]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut d = vec![vec![0.0f64; m]; n];
    for i in 0..n {
        for j in 0..m {
            let c = a[i].distance_sq(&b[j]);
            d[i][j] = match (i, j) {
                (0, 0) => c,
                (0, _) => d[0][j - 1].max(c),
                (_, 0) => d[i - 1][0].max(c),
                _ => d[i - 1][j].min(d[i][j - 1]).min(d[i - 1][j - 1]).max(c),
            };
        }
    }
    d[n - 1][m - 1]
}

/// The full-matrix DTW recurrence: `f64::min` over every cell, no cutoff
/// and no band.
#[allow(clippy::needless_range_loop)] // symmetric a[i]/b[j] DP recurrence
fn reference_dtw(a: &[Point], b: &[Point]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut d = vec![vec![0.0f64; m]; n];
    for i in 0..n {
        for j in 0..m {
            let c = a[i].distance(&b[j]);
            d[i][j] = match (i, j) {
                (0, 0) => c,
                (0, _) => d[0][j - 1] + c,
                (_, 0) => d[i - 1][0] + c,
                _ => d[i - 1][j].min(d[i][j - 1]).min(d[i - 1][j - 1]) + c,
            };
        }
    }
    d[n - 1][m - 1]
}

/// A random walk of `n` unit-bounded steps from `p`.
fn walk(rng: &mut Rng, mut p: Point, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| {
            p = Point::new(p.x + rng.f64_in(-1.0, 1.0), p.y + rng.f64_in(-1.0, 1.0));
            p
        })
        .collect()
}

/// A walk of `lo..=hi` points and a partner: a jittered copy with points
/// dropped and repeated (so the coupling leaves the diagonal), another walk
/// from the same start, or an unrelated walk.
fn walk_pair(rng: &mut Rng, lo: usize, hi: usize) -> (Vec<Point>, Vec<Point>) {
    let mut start = || Point::new(rng.f64_in(-10.0, 10.0), rng.f64_in(-10.0, 10.0));
    let (s, t) = (start(), start());
    let n = rng.len(lo, hi);
    let a = walk(rng, s, n);
    let n = rng.len(lo, hi);
    let b = match rng.usize_in(0, 2) {
        0 => {
            let noise = rng.f64_in(0.0, 0.5);
            let mut b = Vec::new();
            for p in &a {
                for _ in 0..rng.usize_in(0, 2) {
                    b.push(Point::new(
                        p.x + rng.f64_in(-noise, noise),
                        p.y + rng.f64_in(-noise, noise),
                    ));
                }
            }
            if b.is_empty() {
                b.push(a[0]);
            }
            b
        }
        1 => walk(rng, s, n),
        _ => walk(rng, t, n),
    };
    (a, b)
}

/// `distance` is the reference bit for bit, and `distance_within(ε)` is
/// `Some(reference)` exactly when the reference's own-space value (squared
/// for Fréchet, summed for DTW) is at most ε's.
fn assert_kernels_match_reference(rng: &mut Rng, a: &[Point], b: &[Point]) {
    let (f_sq, dtw) = (reference_frechet_sq(a, b), reference_dtw(a, b));
    let cases = [(Measure::Frechet, f_sq.sqrt(), f_sq, true), (Measure::Dtw, dtw, dtw, false)];
    for (m, d, own, squared) in cases {
        let got = m.distance(a, b);
        assert_eq!(
            got.to_bits(),
            d.to_bits(),
            "{m} ({}×{}): {got} != reference {d}",
            a.len(),
            b.len()
        );
        let random = rng.f64_in(0.0, 2.0 * d + 1.0);
        // One ulp below (0 stays 0) and above the non-negative `d`.
        let (below, above) =
            (f64::from_bits(d.to_bits().saturating_sub(1)), f64::from_bits(d.to_bits() + 1));
        for eps in [0.0, d / 2.0, below, d, above, 2.0 * d, random] {
            let eps_own = if squared { eps * eps } else { eps };
            let want = (own <= eps_own).then_some(d.to_bits());
            let got = m.distance_within(a, b, eps).map(f64::to_bits);
            assert_eq!(got, want, "{m} ({}×{}) eps {eps}: reference {d}", a.len(), b.len());
        }
    }
}

#[test]
fn banded_kernels_equal_the_full_matrix_reference() {
    check(CASES, |rng| {
        let (a, b) = walk_pair(rng, 1, 64);
        assert_kernels_match_reference(rng, &a, &b);
    });
    check(32, |rng| {
        let (a, b) = walk_pair(rng, 20, 400);
        assert_kernels_match_reference(rng, &a, &b);
    });
    // Every n, m ∈ {1, 2, 3}, in both argument orders: rows go through the
    // kernel two at a time, so these reach a lone row, one pair, a pair
    // plus a lone row, and bands one and two columns wide.
    check(CASES, |rng| {
        let start = Point::new(rng.f64_in(-10.0, 10.0), rng.f64_in(-10.0, 10.0));
        for n in 1..=3 {
            for m in 1..=3 {
                let (a, b) = (walk(rng, start, n), walk(rng, start, m));
                assert_kernels_match_reference(rng, &a, &b);
                assert_kernels_match_reference(rng, &b, &a);
            }
        }
    });
    // A one-cell band: b[i] sits 0.01–0.1 beside a[i] on a line of unit
    // steps, so every off-diagonal cost is at least 1, above both measures'
    // distance (at most 0.1 for Fréchet, 0.9 for DTW at n ≤ 9). At ε = the
    // distance and one ulp either side, the live band is the diagonal, one
    // cell per row, for odd and even n.
    check(CASES, |rng| {
        for n in 1..=9 {
            let a: Vec<Point> = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
            let b: Vec<Point> =
                (0..n).map(|i| Point::new(i as f64, rng.f64_in(0.01, 0.1))).collect();
            assert_kernels_match_reference(rng, &a, &b);
            assert_kernels_match_reference(rng, &b, &a);
        }
    });
}

#[test]
fn degenerate_trajectories_are_handled_everywhere() {
    let single = vec![Point::new(1.0, 2.0)];
    let dup = vec![Point::new(1.0, 2.0); 5];
    let line = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
    let shapes: [&[Point]; 3] = [&single, &dup, &line];
    for m in MEASURES {
        for a in shapes {
            for b in shapes {
                let d = m.distance(a, b);
                assert!(d.is_finite() && d >= 0.0, "{m}");
                assert_eq!(m.distance_within(a, b, d + 1.0).map(f64::to_bits), Some(d.to_bits()));
                assert!(m.distance_within(a, b, d + 1e-9).is_some(), "{m}");
                let env = QueryEnvelope::new(a).expect("non-empty");
                assert_eq!(env.prunes(b, None, m, d), None, "{m}: pruned at exact distance");
            }
            // Coincident trajectories: zero distance, no prune at ε = 0.
            assert_eq!(m.distance(a, a), 0.0, "{m}");
            assert_eq!(m.distance_within(a, a, 0.0), Some(0.0), "{m}");
            let env = QueryEnvelope::new(a).expect("non-empty");
            assert_eq!(env.prunes(a, None, m, 0.0), None, "{m}");
        }
    }
}

#[test]
fn single_point_reference_intervals_collapse_correctly() {
    // A single-point query has a degenerate MBR (all four reference
    // corners coincide); bounds must still be sound and still fire.
    let q = vec![Point::new(0.0, 0.0)];
    let env = QueryEnvelope::new(&q).expect("non-empty");
    let far = vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)];
    for m in MEASURES {
        let d = m.distance(&q, &far);
        assert!(env.ref_bound(&far) <= d + PRUNE_SLACK, "{m}");
        assert!(env.prunes(&far, None, m, 1.0).is_some(), "{m}: far pair not pruned");
    }
    // Hausdorff-visible: ref-gap fires where the endpoint bound cannot.
    assert!(matches!(
        env.prunes(&far, None, Measure::Hausdorff, 1.0),
        Some(BoundKind::MbrGap) | Some(BoundKind::RefGap)
    ));
}
