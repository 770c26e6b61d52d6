//! Synthetic workload generators.
//!
//! The paper evaluates on T-Drive (Beijing taxis) and JD-Lorry (China-wide
//! logistics), neither of which is redistributable. These generators produce
//! datasets with the statistical signatures the evaluation depends on (see
//! DESIGN.md § datasets):
//!
//! * [`tdrive_like`] — city-scale taxi trips: random walks with heading
//!   persistence inside the Beijing bounding box, heavy-tailed trip extents
//!   (driving ranges ~0.5 km – 78 km ⇒ XZ\* resolutions ~10–16, Fig. 12(a)),
//!   plus a population of "waiting taxi" stay trajectories that land at the
//!   maximum resolution (the Fig. 12(a) peak).
//! * [`lorry_like`] — country-scale logistics routes between city hubs:
//!   long, thin trajectories spanning large extents.
//! * [`scale_dataset`] — `×t` replication with spatial jitter (the paper's
//!   five synthetic scalability datasets, §VI datasets (3)).
//!
//! All generators are deterministic given a seed.

mod walk;

pub use walk::{random_walk, stay_trajectory};

use crate::Trajectory;
use trass_geo::{Mbr, Point};
use trass_rng::Rng;

/// Bounding box of urban Beijing, the T-Drive extent.
pub const BEIJING: Mbr = Mbr { min_x: 116.0, min_y: 39.6, max_x: 116.8, max_y: 40.2 };

/// Bounding box of mainland China, the Lorry extent.
pub const CHINA: Mbr = Mbr { min_x: 73.5, min_y: 18.0, max_x: 134.8, max_y: 53.5 };

/// Configuration of a T-Drive-like taxi workload.
#[derive(Debug, Clone)]
pub struct TaxiConfig {
    /// Spatial extent of the fleet.
    pub extent: Mbr,
    /// Fraction of trajectories that are stationary "waiting taxi" traces.
    pub stay_fraction: f64,
    /// Log-normal parameters (mu, sigma) of the trip extent in degrees.
    pub span_lognormal: (f64, f64),
    /// Minimum and maximum points per trajectory.
    pub points_range: (usize, usize),
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig {
            extent: BEIJING,
            stay_fraction: 0.12,
            // median span ≈ e^-3.7 ≈ 0.025° (~2.5 km), long tail to ~0.8°.
            span_lognormal: (-3.7, 1.1),
            points_range: (20, 400),
        }
    }
}

/// Generates `n` T-Drive-like taxi trajectories.
pub fn tdrive_like(seed: u64, n: usize) -> Vec<Trajectory> {
    taxi_dataset(seed, n, &TaxiConfig::default())
}

/// Generates `n` taxi trajectories under an explicit configuration.
pub fn taxi_dataset(seed: u64, n: usize, cfg: &TaxiConfig) -> Vec<Trajectory> {
    let mut rng = Rng::new(seed);
    let (span_mu, span_sigma) = cfg.span_lognormal;
    let max_span = (cfg.extent.width().min(cfg.extent.height())) * 0.9;
    (0..n as u64)
        .map(|id| {
            if rng.bool(cfg.stay_fraction) {
                let origin = random_point_in(&mut rng, &cfg.extent);
                let len = rng.usize_in(5, 60);
                stay_trajectory(&mut rng, id, origin, len, 1e-6)
            } else {
                let span = rng.lognormal(span_mu, span_sigma).clamp(0.002, max_span);
                let len = rng.usize_in(cfg.points_range.0, cfg.points_range.1);
                let origin = random_point_in_margin(&mut rng, &cfg.extent, span);
                random_walk(&mut rng, id, origin, span, len, &cfg.extent)
            }
        })
        .collect()
}

/// Configuration of a lorry (logistics) workload.
#[derive(Debug, Clone)]
pub struct LorryConfig {
    /// Spatial extent.
    pub extent: Mbr,
    /// Number of logistics hubs routes run between.
    pub hubs: usize,
    /// Points per trajectory range.
    pub points_range: (usize, usize),
    /// Cross-track GPS jitter in degrees.
    pub jitter: f64,
}

impl Default for LorryConfig {
    fn default() -> Self {
        LorryConfig { extent: CHINA, hubs: 32, points_range: (30, 250), jitter: 0.02 }
    }
}

/// Generates `n` lorry-like hub-to-hub trajectories.
pub fn lorry_like(seed: u64, n: usize) -> Vec<Trajectory> {
    lorry_dataset(seed, n, &LorryConfig::default())
}

/// Generates `n` lorry trajectories under an explicit configuration.
pub fn lorry_dataset(seed: u64, n: usize, cfg: &LorryConfig) -> Vec<Trajectory> {
    let mut rng = Rng::new(seed);
    // Fixed hub locations drawn once from the extent.
    let hubs: Vec<Point> = (0..cfg.hubs).map(|_| random_point_in(&mut rng, &cfg.extent)).collect();
    (0..n as u64)
        .map(|id| {
            let a = hubs[rng.usize_in(0, hubs.len() - 1)];
            let mut b = hubs[rng.usize_in(0, hubs.len() - 1)];
            // Short intra-city hops exist but most routes are inter-hub.
            if a == b {
                b = Point::new(a.x + rng.f64_in(-0.3, 0.3), a.y + rng.f64_in(-0.3, 0.3));
            }
            let len = rng.usize_in(cfg.points_range.0, cfg.points_range.1);
            route_trajectory(&mut rng, id, a, b, len, cfg.jitter, &cfg.extent)
        })
        .collect()
}

/// A noisy route between two endpoints: linear interpolation plus a smooth
/// random detour and per-point GPS jitter, clamped to the extent.
fn route_trajectory(
    rng: &mut Rng,
    id: u64,
    a: Point,
    b: Point,
    len: usize,
    jitter: f64,
    extent: &Mbr,
) -> Trajectory {
    let len = len.max(2);
    // Smooth detour: one mid-route control offset, blended by a parabola.
    let detour = Point::new(rng.f64_in(-1.0, 1.0), rng.f64_in(-1.0, 1.0)) * (a.distance(&b) * 0.08);
    let points = (0..len)
        .map(|i| {
            let t = i as f64 / (len - 1) as f64;
            let base = a.lerp(&b, t);
            let bend = detour * (4.0 * t * (1.0 - t));
            let noise = Point::new(rng.f64_in(-jitter, jitter), rng.f64_in(-jitter, jitter));
            clamp_to(base + bend + noise, extent)
        })
        .collect();
    Trajectory::new(id, points)
}

/// Replicates a dataset `t` times with spatial jitter and fresh ids — the
/// paper's synthetic scalability datasets ("copying t times of the Lorry
/// dataset").
pub fn scale_dataset(base: &[Trajectory], t: usize, seed: u64, extent: &Mbr) -> Vec<Trajectory> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(base.len() * t);
    let mut next_id: u64 = 0;
    for copy in 0..t {
        for traj in base {
            if copy == 0 {
                out.push(Trajectory::new(next_id, traj.points().to_vec()));
            } else {
                // Shift the whole trajectory slightly so copies are not
                // byte-identical (real replication has measurement noise).
                let dx = rng.f64_in(-0.01, 0.01);
                let dy = rng.f64_in(-0.01, 0.01);
                let points = traj
                    .points()
                    .iter()
                    .map(|p| clamp_to(Point::new(p.x + dx, p.y + dy), extent))
                    .collect();
                out.push(Trajectory::new(next_id, points));
            }
            next_id += 1;
        }
    }
    out
}

/// Samples `k` query trajectories from a dataset (the paper randomly picks
/// 400 query trajectories per dataset).
pub fn sample_queries(dataset: &[Trajectory], k: usize, seed: u64) -> Vec<Trajectory> {
    let mut rng = Rng::new(seed);
    (0..k).map(|_| dataset[rng.usize_in(0, dataset.len() - 1)].clone()).collect()
}

fn random_point_in(rng: &mut Rng, extent: &Mbr) -> Point {
    Point::new(rng.f64_in(extent.min_x, extent.max_x), rng.f64_in(extent.min_y, extent.max_y))
}

/// A random origin leaving `span` of room toward the upper-right so walks
/// are less likely to pile up against the extent boundary.
fn random_point_in_margin(rng: &mut Rng, extent: &Mbr, span: f64) -> Point {
    let max_x = (extent.max_x - span).max(extent.min_x);
    let max_y = (extent.max_y - span).max(extent.min_y);
    Point::new(rng.f64_in(extent.min_x, max_x), rng.f64_in(extent.min_y, max_y))
}

pub(crate) fn clamp_to(p: Point, extent: &Mbr) -> Point {
    Point::new(p.x.clamp(extent.min_x, extent.max_x), p.y.clamp(extent.min_y, extent.max_y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdrive_like_is_deterministic() {
        let a = tdrive_like(42, 50);
        let b = tdrive_like(42, 50);
        assert_eq!(a, b);
        let c = tdrive_like(43, 50);
        assert_ne!(a, c);
    }

    /// FNV-1a over every id, length and coordinate bit pattern.
    fn dataset_hash(data: &[Trajectory]) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for t in data {
            eat(t.id);
            eat(t.len() as u64);
            for p in t.points() {
                eat(p.x.to_bits());
                eat(p.y.to_bits());
            }
        }
        h
    }

    /// The streams are part of what EXPERIMENTS.md's numbers were recorded
    /// on. If this fails the generators now produce different datasets:
    /// either undo that, or re-record `results/` and update these hashes in
    /// the same change.
    #[test]
    fn dataset_streams_are_pinned() {
        assert_eq!(dataset_hash(&tdrive_like(42, 64)), 0x6AEC5FF7795ADC52, "tdrive_like");
        assert_eq!(dataset_hash(&lorry_like(42, 64)), 0xC29B008381358046, "lorry_like");
        let scaled = scale_dataset(&lorry_like(42, 8), 3, 42, &CHINA);
        assert_eq!(dataset_hash(&scaled), 0xDED230D2945144ED, "scale_dataset");
        assert_eq!(
            dataset_hash(&sample_queries(&scaled, 8, 42)),
            0x48734D2F0E74AA3C,
            "sample_queries"
        );
    }

    #[test]
    fn tdrive_like_stays_in_extent() {
        for t in tdrive_like(7, 100) {
            assert!(BEIJING.contains(&t.mbr()), "trajectory {} escaped", t.id);
        }
    }

    #[test]
    fn tdrive_like_has_stay_trajectories() {
        let data = tdrive_like(1, 500);
        let stays = data.iter().filter(|t| t.mbr().width().max(t.mbr().height()) < 1e-4).count();
        assert!(stays > 20, "expected stay trajectories, found {stays}");
        assert!(stays < 150, "too many stays: {stays}");
    }

    #[test]
    fn tdrive_spans_are_heavy_tailed() {
        let data = tdrive_like(3, 1000);
        let spans: Vec<f64> = data.iter().map(|t| t.mbr().width().max(t.mbr().height())).collect();
        let small = spans.iter().filter(|&&s| s < 0.05).count();
        let large = spans.iter().filter(|&&s| s > 0.2).count();
        assert!(small > 400, "small = {small}");
        assert!(large > 10, "large = {large}");
    }

    #[test]
    fn lorry_like_spans_are_large() {
        let data = lorry_like(5, 200);
        for t in &data {
            assert!(CHINA.contains(&t.mbr()));
        }
        let avg_span: f64 = data.iter().map(|t| t.mbr().width().max(t.mbr().height())).sum::<f64>()
            / data.len() as f64;
        assert!(avg_span > 3.0, "avg span {avg_span} too small for lorries");
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let data = tdrive_like(9, 200);
        for (i, t) in data.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
    }

    #[test]
    fn scale_dataset_multiplies_and_keeps_extent() {
        let base = lorry_like(2, 50);
        let scaled = scale_dataset(&base, 3, 11, &CHINA);
        assert_eq!(scaled.len(), 150);
        for t in &scaled {
            assert!(CHINA.contains(&t.mbr()));
        }
        // Ids are reassigned densely.
        for (i, t) in scaled.iter().enumerate() {
            assert_eq!(t.id, i as u64);
        }
        // Copies differ from the originals (jitter applied).
        assert_ne!(scaled[50].points(), base[0].points());
        // First copy preserves geometry exactly.
        assert_eq!(scaled[0].points(), base[0].points());
    }

    #[test]
    fn sample_queries_draws_from_dataset() {
        let data = tdrive_like(4, 100);
        let queries = sample_queries(&data, 10, 99);
        assert_eq!(queries.len(), 10);
        for q in &queries {
            assert!(data.iter().any(|t| t.points() == q.points()));
        }
    }
}
