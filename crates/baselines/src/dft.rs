//! The DFT baseline (VLDB'17), simplified to one node.
//!
//! DFT partitions trajectory data with an R-tree and answers top-k by
//! sampling `c·k` trajectories from the partitions intersecting the query
//! to obtain a distance threshold, then verifying everything within that
//! threshold — the behaviour §VI-B blames for its large candidate sets. We
//! reproduce exactly that scheme over an in-memory R-tree of trajectory
//! MBRs.

use crate::rtree::RTree;
use crate::{finish_topk, EngineResult, SimilarityEngine};
use std::time::{Duration, Instant};
use trass_geo::Mbr;
use trass_rng::Rng;
use trass_traj::{Measure, Trajectory, TrajectoryId};

/// The DFT-like engine.
pub struct DftEngine {
    tree: RTree<usize>,
    data: Vec<Trajectory>,
    build_time: Duration,
    /// The sample multiplier `c` (paper default 5).
    pub sample_c: usize,
    seed: u64,
}

impl DftEngine {
    /// Builds the engine (incremental R-tree inserts — DFT's index is
    /// dynamic, which is what Fig. 13(a) measures).
    pub fn build(data: Vec<Trajectory>, seed: u64) -> Self {
        let t0 = Instant::now();
        let mut tree = RTree::new();
        for (i, t) in data.iter().enumerate() {
            tree.insert(t.mbr(), i);
        }
        DftEngine { tree, data, build_time: t0.elapsed(), sample_c: 5, seed }
    }

    fn intersecting(&self, window: &Mbr) -> Vec<usize> {
        self.tree.query_intersecting(window).into_iter().map(|(_, &i)| i).collect()
    }
}

impl SimilarityEngine for DftEngine {
    fn name(&self) -> &'static str {
        "DFT"
    }

    fn build_time(&self) -> Duration {
        self.build_time
    }

    fn threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> Option<EngineResult> {
        let t0 = Instant::now();
        let window = query.mbr().extended(eps);
        let hits = self.intersecting(&window);
        let retrieved = hits.len() as u64;
        // DFT's filter is partition-level only; every intersecting
        // trajectory is a candidate.
        let mut results: Vec<(TrajectoryId, f64)> = Vec::new();
        for i in &hits {
            let t = &self.data[*i];
            if let Some(d) = measure.distance_within(query.points(), t.points(), eps) {
                results.push((t.id, d));
            }
        }
        results.sort_by_key(|&(tid, _)| tid);
        Some(EngineResult {
            results,
            retrieved,
            candidates: retrieved,
            query_time: t0.elapsed(),
            stages: None,
        })
    }

    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult> {
        let t0 = Instant::now();
        if self.data.is_empty() || k == 0 {
            return Some(EngineResult::default());
        }
        let mut rng = Rng::new(self.seed ^ query.id);
        // Step 1: sample c·k trajectories from partitions intersecting the
        // query MBR (fall back to the whole dataset when too few).
        let mut pool = self.intersecting(&query.mbr());
        if pool.len() < self.sample_c * k {
            pool = (0..self.data.len()).collect();
        }
        let mut sample_best: Vec<(TrajectoryId, f64)> = Vec::new();
        let sample_n = (self.sample_c * k).min(pool.len());
        for _ in 0..sample_n {
            let i = pool[rng.usize_in(0, pool.len() - 1)];
            let t = &self.data[i];
            let d = measure.distance(query.points(), t.points());
            sample_best.push((t.id, d));
        }
        // Sampling is with replacement: order by (distance, id) so every
        // repeat is adjacent and dropped.
        sample_best.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        sample_best.dedup_by_key(|e| e.0);
        // Step 2: verify every trajectory whose MBR falls within the
        // sampled threshold of the query — the candidate explosion. Fewer
        // than k distinct samples bound nothing, so then every trajectory
        // is verified.
        let hits = match sample_best.get(k - 1) {
            Some(&(_, kth)) => self.intersecting(&query.mbr().extended(kth)),
            None => (0..self.data.len()).collect(),
        };
        let retrieved = sample_n as u64 + hits.len() as u64;
        let mut scored: Vec<(TrajectoryId, f64)> = Vec::with_capacity(hits.len());
        for i in hits {
            let t = &self.data[i];
            scored.push((t.id, measure.distance(query.points(), t.points())));
        }
        let candidates = scored.len() as u64;
        let results = finish_topk(scored, k);
        Some(EngineResult {
            results,
            retrieved,
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
        trass_traj::generator::tdrive_like(5, 200)
    }

    #[test]
    fn threshold_matches_the_reference() {
        let data = dataset();
        let e = DftEngine::build(data.clone(), 1);
        let q = &data[3];
        let eps = 0.004;
        let got = e.threshold(q, eps, Measure::Frechet).unwrap();
        let want = reference::threshold(&data, q, eps, Measure::Frechet);
        assert_eq!(reference::diff(&got.results, &want), None);
    }

    #[test]
    fn topk_is_correct_despite_sampling() {
        // The sampled threshold is an upper bound obtained from real
        // distances, so the final answer is exact.
        let data = dataset();
        let e = DftEngine::build(data.clone(), 2);
        let q = &data[8];
        let got = e.top_k(q, 10, Measure::Frechet).unwrap();
        let want = reference::top_k(&data, q, 10, Measure::Frechet);
        assert_eq!(reference::diff(&got.results, &want), None);
    }

    #[test]
    fn topk_retrieves_many_candidates() {
        // DFT's known weakness (§VI-B): the sampled threshold covers many
        // candidates.
        let data = dataset();
        let e = DftEngine::build(data.clone(), 3);
        let q = &data[0];
        let got = e.top_k(q, 5, Measure::Frechet).unwrap();
        assert!(got.candidates >= 5);
        assert!(got.retrieved >= got.candidates);
    }

    #[test]
    fn empty_and_zero_k() {
        let e = DftEngine::build(Vec::new(), 1);
        assert!(e.top_k(&dataset()[0], 5, Measure::Frechet).unwrap().results.is_empty());
        let e = DftEngine::build(dataset(), 1);
        assert!(e.top_k(&dataset()[0], 0, Measure::Frechet).unwrap().results.is_empty());
    }
}
