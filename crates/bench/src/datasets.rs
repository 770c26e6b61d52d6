//! Benchmark datasets (DESIGN.md § datasets).

use trass_traj::generator::{self, CHINA};
use trass_traj::Trajectory;

/// How large one `repro` run is. `repro`'s `main` resolves it once, from
/// `TRASS_REPRO_SCALE` and `TRASS_REPRO_QUERIES`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Dataset size multiplier (1.0 ≈ 5 000 trajectories per dataset).
    pub size: f64,
    /// Query trajectories per experiment (the paper uses 400 on its
    /// cluster).
    pub queries: usize,
}

impl Scale {
    /// The smaller batch of the experiments that time top-k, which is
    /// heavier per query.
    pub fn half_batch(self) -> usize {
        (self.queries / 2).max(5)
    }
}

fn scaled(base: usize, size: f64) -> usize {
    ((base as f64 * size) as usize).max(100)
}

/// A named benchmark dataset.
pub struct Dataset {
    /// Display name ("T-Drive", "Lorry", …).
    pub name: &'static str,
    /// The trajectories.
    pub data: Vec<Trajectory>,
}

/// The T-Drive-like taxi workload (5 000 trajectories at size 1).
pub fn tdrive(size: f64) -> Dataset {
    Dataset { name: "T-Drive", data: generator::tdrive_like(42, scaled(5_000, size)) }
}

/// The Lorry-like logistics workload (5 000 trajectories at size 1).
pub fn lorry(size: f64) -> Dataset {
    Dataset { name: "Lorry", data: generator::lorry_like(43, scaled(5_000, size)) }
}

/// The ×t synthetic scalability datasets (§VI datasets (3)).
pub fn synthetic(size: f64, t: usize) -> Dataset {
    let base = generator::lorry_like(43, scaled(2_000, size));
    Dataset { name: "Synthetic", data: generator::scale_dataset(&base, t, 91, &CHINA) }
}

/// `n` query trajectories sampled from a dataset (the paper samples 400
/// and reports medians).
pub fn queries(ds: &Dataset, n: usize) -> Vec<Trajectory> {
    generator::sample_queries(&ds.data, n, 7_777)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_reproducible_and_sized() {
        let a = tdrive(1.0);
        let b = tdrive(1.0);
        assert_eq!(a.data.len(), b.data.len());
        assert_eq!(a.data[0], b.data[0]);
        assert!(a.data.len() >= 100);
    }

    #[test]
    fn synthetic_scales_linearly() {
        let s1 = synthetic(1.0, 1);
        let s3 = synthetic(1.0, 3);
        assert_eq!(s3.data.len(), 3 * s1.data.len());
    }

    #[test]
    fn queries_come_from_dataset() {
        let ds = tdrive(1.0);
        let qs = queries(&ds, 5);
        assert_eq!(qs.len(), 5);
        for q in &qs {
            assert!(ds.data.iter().any(|t| t.points() == q.points()));
        }
    }
}
