//! Low-level trajectory shape primitives: heading-persistent random walks
//! and stationary traces.

use crate::Trajectory;
use trass_geo::{Mbr, Point};
use trass_rng::Rng;

/// A heading-persistent random walk starting at `origin`, scaled so the
/// resulting trajectory's extent is approximately `span` degrees, clamped to
/// `extent`.
///
/// Taxi GPS traces turn smoothly most of the time with occasional sharp
/// turns; the walk mixes a persistent heading with bounded heading noise and
/// a small chance of a turn, which reproduces that texture well enough for
/// index-behaviour experiments.
pub fn random_walk(
    rng: &mut Rng,
    id: u64,
    origin: Point,
    span: f64,
    len: usize,
    extent: &Mbr,
) -> Trajectory {
    let len = len.max(2);
    // Step length chosen so a straight-ish walk of `len` steps covers ~span.
    let step = span / (len as f64).sqrt().max(2.0);
    let mut heading: f64 = rng.f64_in(0.0, std::f64::consts::TAU);
    let mut p = origin;
    let mut points = Vec::with_capacity(len);
    points.push(p);
    // Track the walk's bounding box to keep the extent near `span`.
    let mut bbox = Mbr::from_point(p);
    for _ in 1..len {
        if rng.bool(0.05) {
            // Occasional sharp turn (intersection).
            heading = rng.f64_in(0.0, std::f64::consts::TAU);
        } else {
            heading += rng.f64_in(-0.35, 0.35);
        }
        let mut next = Point::new(p.x + step * heading.cos(), p.y + step * heading.sin());
        // Reflect off the span budget: if the walk would exceed the target
        // extent, turn back toward the origin.
        let mut grown = bbox;
        grown.extend(next);
        if grown.width() > span || grown.height() > span {
            heading = (origin.y - p.y).atan2(origin.x - p.x) + rng.f64_in(-0.5, 0.5);
            next = Point::new(p.x + step * heading.cos(), p.y + step * heading.sin());
        }
        next = super::clamp_to(next, extent);
        bbox.extend(next);
        points.push(next);
        p = next;
    }
    Trajectory::new(id, points)
}

/// A stationary trace: `len` samples of the same location with GPS noise of
/// magnitude `noise` (degrees). These are the paper's "taxis waiting at
/// interest places" whose trajectories index at the maximum resolution.
pub fn stay_trajectory(
    rng: &mut Rng,
    id: u64,
    origin: Point,
    len: usize,
    noise: f64,
) -> Trajectory {
    let len = len.max(1);
    let points = (0..len)
        .map(|_| {
            Point::new(origin.x + rng.f64_in(-noise, noise), origin.y + rng.f64_in(-noise, noise))
        })
        .collect();
    Trajectory::new(id, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_extent_respects_span_budget() {
        let mut rng = Rng::new(1);
        let extent = Mbr::new(0.0, 0.0, 10.0, 10.0);
        for span in [0.1, 0.5, 2.0] {
            let t = random_walk(&mut rng, 0, Point::new(5.0, 5.0), span, 200, &extent);
            let m = t.mbr();
            // Reflection keeps it near the budget; allow small overshoot from
            // the post-reflection step.
            assert!(m.width() <= span * 1.3, "w {} span {span}", m.width());
            assert!(m.height() <= span * 1.3, "h {} span {span}", m.height());
        }
    }

    #[test]
    fn walk_is_clamped_to_extent() {
        let mut rng = Rng::new(2);
        let extent = Mbr::new(0.0, 0.0, 1.0, 1.0);
        let t = random_walk(&mut rng, 0, Point::new(0.99, 0.99), 0.5, 500, &extent);
        assert!(extent.contains(&t.mbr()));
    }

    #[test]
    fn walk_moves() {
        let mut rng = Rng::new(3);
        let extent = Mbr::new(0.0, 0.0, 10.0, 10.0);
        let t = random_walk(&mut rng, 0, Point::new(5.0, 5.0), 1.0, 100, &extent);
        assert!(t.path_length() > 0.5);
    }

    #[test]
    fn stay_trajectory_is_tiny() {
        let mut rng = Rng::new(4);
        let t = stay_trajectory(&mut rng, 0, Point::new(1.0, 1.0), 30, 1e-6);
        assert_eq!(t.len(), 30);
        assert!(t.mbr().width() <= 2e-6);
        assert!(t.mbr().height() <= 2e-6);
    }
}
