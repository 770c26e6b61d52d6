//! The REPOSE baseline (ICDE'21), simplified to one node.
//!
//! REPOSE builds a reference-point trie (RP-Trie) on pivot trajectories
//! and supports *only* top-k similarity search (§VI baselines note). We
//! reproduce its essence: a set of reference points, per-trajectory
//! endpoint-to-reference distances precomputed at build time, and the
//! triangle-inequality lower bound
//! `f(Q,T) ≥ max_r |d(q₁,r) − d(t₁,r)|` (endpoints couple under Fréchet
//! and DTW, and each coupled pair obeys the triangle inequality through
//! any reference point). Candidates are verified in increasing lower-bound
//! order until the bound exceeds the k-th best — the classic pivot-table
//! scheme. Its paper-documented weakness is preserved: reference quality
//! degrades on wide-extent datasets (§VI-B's Lorry discussion).

use crate::{EngineResult, SimilarityEngine};
use std::time::{Duration, Instant};
use trass_geo::Point;
use trass_rng::Rng;
use trass_traj::{Measure, Trajectory, TrajectoryId};

/// Number of reference points.
const N_REFS: usize = 16;

/// The REPOSE-like engine.
pub struct ReposeEngine {
    refs: Vec<Point>,
    /// Per trajectory: distances from its first and last point to every
    /// reference point.
    start_dists: Vec<[f64; N_REFS]>,
    end_dists: Vec<[f64; N_REFS]>,
    data: Vec<Trajectory>,
    build_time: Duration,
}

impl ReposeEngine {
    /// Builds the reference table over the dataset.
    pub fn build(data: Vec<Trajectory>, seed: u64) -> Self {
        let t0 = Instant::now();
        let mut rng = Rng::new(seed);
        // Reference points drawn from the data's own endpoints (REPOSE
        // selects pivots from the data distribution).
        let refs: Vec<Point> = if data.is_empty() {
            (0..N_REFS).map(|i| Point::new(i as f64, 0.0)).collect()
        } else {
            (0..N_REFS)
                .map(|_| {
                    let t = &data[rng.usize_in(0, data.len() - 1)];
                    if rng.bool(0.5) {
                        t.start()
                    } else {
                        t.end()
                    }
                })
                .collect()
        };
        let mut start_dists = Vec::with_capacity(data.len());
        let mut end_dists = Vec::with_capacity(data.len());
        for t in &data {
            let mut sd = [0.0; N_REFS];
            let mut ed = [0.0; N_REFS];
            for (j, r) in refs.iter().enumerate() {
                sd[j] = t.start().distance(r);
                ed[j] = t.end().distance(r);
            }
            start_dists.push(sd);
            end_dists.push(ed);
        }
        ReposeEngine { refs, start_dists, end_dists, data, build_time: t0.elapsed() }
    }

    /// The triangle-inequality lower bound on `f(Q, T)`.
    fn lower_bound(&self, q_sd: &[f64; N_REFS], q_ed: &[f64; N_REFS], i: usize) -> f64 {
        let mut lb = 0.0f64;
        for j in 0..N_REFS {
            lb = lb.max((q_sd[j] - self.start_dists[i][j]).abs());
            lb = lb.max((q_ed[j] - self.end_dists[i][j]).abs());
        }
        lb
    }
}

impl SimilarityEngine for ReposeEngine {
    fn name(&self) -> &'static str {
        "REPOSE"
    }

    fn build_time(&self) -> Duration {
        self.build_time
    }

    /// REPOSE supports only top-k similarity search (§VI).
    fn threshold(&self, _q: &Trajectory, _eps: f64, _m: Measure) -> Option<EngineResult> {
        None
    }

    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult> {
        // The endpoint triangle bound needs endpoint coupling.
        if !measure.supports_endpoint_lemma() {
            return None;
        }
        let t0 = Instant::now();
        if self.data.is_empty() || k == 0 {
            return Some(EngineResult::default());
        }
        let mut q_sd = [0.0; N_REFS];
        let mut q_ed = [0.0; N_REFS];
        for (j, r) in self.refs.iter().enumerate() {
            q_sd[j] = query.start().distance(r);
            q_ed[j] = query.end().distance(r);
        }
        // Order by lower bound, verify until the bound passes the kth best.
        let mut order: Vec<(f64, usize)> =
            (0..self.data.len()).map(|i| (self.lower_bound(&q_sd, &q_ed, i), i)).collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));

        let mut best: Vec<(TrajectoryId, f64)> = Vec::new();
        let mut kth = f64::INFINITY;
        let mut candidates = 0u64;
        for &(lb, i) in &order {
            if best.len() >= k && lb > kth {
                break;
            }
            candidates += 1;
            let t = &self.data[i];
            let d = measure.distance(query.points(), t.points());
            if best.len() < k {
                best.push((t.id, d));
                best.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
                if best.len() == k {
                    kth = best[k - 1].1;
                }
            } else if d < kth {
                best.pop();
                best.push((t.id, d));
                best.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
                kth = best[k - 1].1;
            }
        }
        Some(EngineResult {
            results: best,
            retrieved: self.data.len() as u64, // the reference table is scanned in full
            candidates,
            query_time: t0.elapsed(),
            stages: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_traj::reference;

    fn dataset() -> Vec<Trajectory> {
        trass_traj::generator::tdrive_like(13, 200)
    }

    #[test]
    fn topk_matches_the_reference() {
        let data = dataset();
        let e = ReposeEngine::build(data.clone(), 7);
        let q = &data[19];
        let got = e.top_k(q, 10, Measure::Frechet).unwrap();
        let want = reference::top_k(&data, q, 10, Measure::Frechet);
        assert_eq!(reference::diff(&got.results, &want), None);
    }

    #[test]
    fn threshold_unsupported() {
        let data = dataset();
        let e = ReposeEngine::build(data.clone(), 7);
        assert!(e.threshold(&data[0], 0.01, Measure::Frechet).is_none());
    }

    #[test]
    fn hausdorff_unsupported() {
        let data = dataset();
        let e = ReposeEngine::build(data.clone(), 7);
        assert!(e.top_k(&data[0], 5, Measure::Hausdorff).is_none());
    }

    #[test]
    fn pruning_verifies_fewer_than_everything() {
        let data = dataset();
        let e = ReposeEngine::build(data.clone(), 7);
        let got = e.top_k(&data[4], 5, Measure::Frechet).unwrap();
        assert!(
            got.candidates < data.len() as u64,
            "verified {} of {} — lower bounds never fired",
            got.candidates,
            data.len()
        );
    }

    #[test]
    fn wide_extent_degrades_pruning() {
        // §VI-B: on the China-wide Lorry data the RP structure prunes
        // poorly. Compare candidate ratios between a compact and a wide
        // dataset.
        let compact = dataset();
        let wide = trass_traj::generator::lorry_like(13, 200);
        let ec = ReposeEngine::build(compact.clone(), 3);
        let ew = ReposeEngine::build(wide.clone(), 3);
        let rc = ec.top_k(&compact[0], 5, Measure::Frechet).unwrap();
        let rw = ew.top_k(&wide[0], 5, Measure::Frechet).unwrap();
        // Both prune something; wide-extent pruning is reported for the
        // experiment harness rather than asserted strictly (distributions
        // vary), but candidates must stay within the dataset size.
        assert!(rc.candidates <= compact.len() as u64);
        assert!(rw.candidates <= wide.len() as u64);
    }

    #[test]
    fn empty_dataset() {
        let e = ReposeEngine::build(Vec::new(), 1);
        let q = dataset().remove(0);
        assert!(e.top_k(&q, 5, Measure::Frechet).unwrap().results.is_empty());
    }
}
