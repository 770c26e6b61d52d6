//! Benchmark datasets (DESIGN.md § datasets).

use trass_geo::Mbr;
use trass_traj::generator::{self, BEIJING, CHINA};
use trass_traj::Trajectory;

/// Scale multiplier from `TRASS_REPRO_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("TRASS_REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Number of query trajectories per experiment (`TRASS_REPRO_QUERIES`,
/// default 40; the paper uses 400 on its cluster).
pub fn n_queries() -> usize {
    std::env::var("TRASS_REPRO_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(40)
}

fn scaled(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(100)
}

/// A named benchmark dataset with its spatial extent.
pub struct Dataset {
    /// Display name ("T-Drive", "Lorry", …).
    pub name: &'static str,
    /// The trajectories.
    pub data: Vec<Trajectory>,
    /// Square-able spatial extent for index configuration.
    pub extent: Mbr,
}

/// The T-Drive-like taxi workload (default 5 000 trajectories).
pub fn tdrive() -> Dataset {
    Dataset { name: "T-Drive", data: generator::tdrive_like(42, scaled(5_000)), extent: BEIJING }
}

/// The Lorry-like logistics workload (default 5 000 trajectories).
pub fn lorry() -> Dataset {
    Dataset { name: "Lorry", data: generator::lorry_like(43, scaled(5_000)), extent: CHINA }
}

/// The ×t synthetic scalability datasets (§VI datasets (3)).
pub fn synthetic(t: usize) -> Dataset {
    let base = generator::lorry_like(43, scaled(2_000));
    Dataset {
        name: "Synthetic",
        data: generator::scale_dataset(&base, t, 91, &CHINA),
        extent: CHINA,
    }
}

/// Query trajectories sampled from a dataset (the paper samples 400 and
/// reports medians).
pub fn queries(ds: &Dataset, n: usize) -> Vec<Trajectory> {
    generator::sample_queries(&ds.data, n, 7_777)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_reproducible_and_sized() {
        std::env::remove_var("TRASS_REPRO_SCALE");
        let a = tdrive();
        let b = tdrive();
        assert_eq!(a.data.len(), b.data.len());
        assert_eq!(a.data[0], b.data[0]);
        assert!(a.data.len() >= 100);
    }

    #[test]
    fn synthetic_scales_linearly() {
        let s1 = synthetic(1);
        let s3 = synthetic(3);
        assert_eq!(s3.data.len(), 3 * s1.data.len());
    }

    #[test]
    fn queries_come_from_dataset() {
        let ds = tdrive();
        let qs = queries(&ds, 5);
        assert_eq!(qs.len(), 5);
        for q in &qs {
            assert!(ds.data.iter().any(|t| t.points() == q.points()));
        }
    }
}
