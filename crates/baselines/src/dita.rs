//! The DITA baseline (SIGMOD'18), simplified to one node.
//!
//! DITA builds a trie over pivot points (first point, last point, then
//! interior pivots) with MBR-based node pruning. We reproduce the
//! first/last-pivot levels as a two-level grid trie and keep its
//! characteristic weakness the paper calls out: "a trajectory may appear
//! in a small area of its representative MBR", so MBR coverage filtering
//! leaves many candidates.

use crate::{finish_topk, EngineResult, SimilarityEngine};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};
use trass_geo::{Mbr, Point};
use trass_traj::{Measure, Trajectory, TrajectoryId};

/// Grid resolution of the pivot trie (cells per axis over the dataset
/// extent).
const GRID: usize = 64;

/// The DITA-like engine.
pub struct DitaEngine {
    /// (start-cell, end-cell) → trajectory indexes, occupied pairs only.
    trie: BTreeMap<(u32, u32), Vec<usize>>,
    data: Vec<Trajectory>,
    extent: Mbr,
    build_time: Duration,
}

impl DitaEngine {
    /// Builds the trie over the dataset.
    pub fn build(data: Vec<Trajectory>) -> Self {
        let t0 = Instant::now();
        let extent = data
            .iter()
            .map(|t| t.mbr())
            .reduce(|a, b| a.union(&b))
            .unwrap_or(Mbr::new(0.0, 0.0, 1.0, 1.0));
        let mut trie: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for (i, t) in data.iter().enumerate() {
            let key = (cell_of(&t.start(), &extent), cell_of(&t.end(), &extent));
            trie.entry(key).or_default().push(i);
        }
        DitaEngine { trie, data, extent, build_time: t0.elapsed() }
    }

    /// Indexes of trajectories whose start/end cells are within `eps` of
    /// the query's start/end points, in (start cell, end cell) order: per
    /// row of the start square, one trie range over that row's cells.
    fn pivot_candidates(&self, query: &Trajectory, eps: f64) -> Vec<usize> {
        let start = CellSquare::around(&query.start(), eps, &self.extent);
        let end = CellSquare::around(&query.end(), eps, &self.extent);
        let mut out = Vec::new();
        if start.cols.is_empty() {
            return out;
        }
        for row in start.rows.clone() {
            let first = row * GRID as u32 + start.cols.start();
            let last = row * GRID as u32 + start.cols.end();
            for (&(_, e), ids) in self.trie.range((first, 0)..=(last, u32::MAX)) {
                if end.contains(e) {
                    out.extend_from_slice(ids);
                }
            }
        }
        out
    }
}

impl SimilarityEngine for DitaEngine {
    fn name(&self) -> &'static str {
        "DITA"
    }

    fn build_time(&self) -> Duration {
        self.build_time
    }

    fn threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> Option<EngineResult> {
        let t0 = Instant::now();
        // DITA's trie prunes on pivots only for coupling measures; for
        // Hausdorff it cannot (and the real system does not support it).
        if !measure.supports_endpoint_lemma() {
            return None;
        }
        let hits = self.pivot_candidates(query, eps);
        let retrieved = hits.len() as u64;
        let window = query.mbr().extended(eps);
        // MBR coverage filter, then exact.
        let mut candidates = 0u64;
        let mut results: Vec<(TrajectoryId, f64)> = Vec::new();
        for i in hits {
            let t = &self.data[i];
            if !window.contains(&t.mbr()) {
                continue;
            }
            candidates += 1;
            if let Some(d) = measure.distance_within(query.points(), t.points(), eps) {
                results.push((t.id, d));
            }
        }
        results.sort_by_key(|&(tid, _)| tid);
        Some(EngineResult {
            results,
            retrieved,
            candidates,
            query_time: t0.elapsed(),
            stages: None,
        })
    }

    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult> {
        if !measure.supports_endpoint_lemma() {
            return None;
        }
        let t0 = Instant::now();
        // Iterative radius doubling over the pivot trie, until the query's
        // MBR grown by the radius covers the dataset's extent: from there
        // the MBR filter keeps every row, and further rounds only widen
        // the pivot squares toward what a full scan reads at once.
        let mut eps = self.extent.width().max(self.extent.height()) / GRID as f64;
        let mut agg = EngineResult::default();
        for _ in 0..24 {
            let r = self.threshold(query, eps, measure)?;
            agg.retrieved += r.retrieved;
            agg.candidates += r.candidates;
            if r.results.len() >= k {
                agg.results = finish_topk(r.results, k);
                agg.query_time = t0.elapsed();
                return Some(agg);
            }
            if query.mbr().extended(eps).contains(&self.extent) {
                break;
            }
            eps *= 2.0;
        }
        // Radius covers the extent: fall back to a full scan.
        let mut scored: Vec<(TrajectoryId, f64)> = self
            .data
            .iter()
            .map(|t| (t.id, measure.distance(query.points(), t.points())))
            .collect();
        agg.retrieved += self.data.len() as u64;
        agg.candidates += scored.len() as u64;
        scored = finish_topk(scored, k);
        agg.results = scored;
        agg.query_time = t0.elapsed();
        Some(agg)
    }
}

fn cell_of(p: &Point, extent: &Mbr) -> u32 {
    let gx = (((p.x - extent.min_x) / extent.width().max(1e-12)) * GRID as f64)
        .clamp(0.0, GRID as f64 - 1.0) as u32;
    let gy = (((p.y - extent.min_y) / extent.height().max(1e-12)) * GRID as f64)
        .clamp(0.0, GRID as f64 - 1.0) as u32;
    gy * GRID as u32 + gx
}

/// The grid cells intersecting the disc of radius `eps` around `p`,
/// approximated by its bounding square (a superset, so sound): a column
/// range and a row range. Each range holds at least its first index, so a
/// square left of (or below) the extent still names column (row) 0; one
/// wholly right of (or above) it names none.
struct CellSquare {
    cols: RangeInclusive<u32>,
    rows: RangeInclusive<u32>,
}

impl CellSquare {
    fn around(p: &Point, eps: f64, extent: &Mbr) -> Self {
        let top = GRID as f64 - 1.0;
        let span = |lo: f64, hi: f64, cell: f64| {
            let first = (lo / cell).floor().max(0.0);
            let last = (hi / cell).floor().min(top).max(first);
            // Wholly past the extent's far edge: an empty range.
            if first > top {
                return RangeInclusive::new(1, 0);
            }
            first as u32..=last as u32
        };
        let (cw, ch) = (extent.width() / GRID as f64, extent.height() / GRID as f64);
        CellSquare {
            cols: span(p.x - eps - extent.min_x, p.x + eps - extent.min_x, cw),
            rows: span(p.y - eps - extent.min_y, p.y + eps - extent.min_y, ch),
        }
    }

    /// Whether the square covers `cell` (a [`cell_of`] index).
    fn contains(&self, cell: u32) -> bool {
        let (col, row) = (cell % GRID as u32, cell / GRID as u32);
        self.cols.contains(&col) && self.rows.contains(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Vec<Trajectory> {
        trass_traj::generator::tdrive_like(9, 200)
    }

    #[test]
    fn threshold_matches_brute_force() {
        let data = dataset();
        let e = DitaEngine::build(data.clone());
        let q = &data[7];
        let eps = 0.004;
        let got = e.threshold(q, eps, Measure::Frechet).unwrap();
        let got_ids: Vec<u64> = got.results.iter().map(|&(id, _)| id).collect();
        let mut expected: Vec<u64> = data
            .iter()
            .filter(|t| Measure::Frechet.distance_within(q.points(), t.points(), eps).is_some())
            .map(|t| t.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got_ids, expected);
    }

    #[test]
    fn pivot_candidates_are_the_occupied_pairs_in_both_squares() {
        let data = dataset();
        let e = DitaEngine::build(data.clone());
        let far = Trajectory::new(0, vec![Point::new(200.0, 80.0), Point::new(-200.0, -80.0)]);
        for q in [&data[3], &data[50], &far] {
            for eps in [0.0, 0.001, 0.004, 0.02, 0.1, 1.0, 400.0] {
                let start = CellSquare::around(&q.start(), eps, &e.extent);
                let end = CellSquare::around(&q.end(), eps, &e.extent);
                let walked: Vec<usize> = e
                    .trie
                    .iter()
                    .filter(|(&(s, t), _)| start.contains(s) && end.contains(t))
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                assert_eq!(e.pivot_candidates(q, eps), walked, "eps {eps}");
            }
        }
    }

    #[test]
    fn hausdorff_unsupported() {
        // §VII-C: "DITA does not support the Hausdorff distance".
        let data = dataset();
        let e = DitaEngine::build(data.clone());
        assert!(e.threshold(&data[0], 0.01, Measure::Hausdorff).is_none());
        assert!(e.top_k(&data[0], 5, Measure::Hausdorff).is_none());
    }

    #[test]
    fn topk_matches_brute_force_distances() {
        let data = dataset();
        let e = DitaEngine::build(data.clone());
        let q = &data[11];
        let got = e.top_k(q, 10, Measure::Frechet).unwrap();
        assert_eq!(got.results.len(), 10);
        let mut all: Vec<f64> =
            data.iter().map(|t| Measure::Frechet.distance(q.points(), t.points())).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in got.results.iter().zip(all.iter()) {
            assert!((got.1 - want).abs() < 1e-9);
        }
    }

    #[test]
    fn dtw_topk_works() {
        let data = dataset();
        let e = DitaEngine::build(data.clone());
        let got = e.top_k(&data[2], 5, Measure::Dtw).unwrap();
        assert_eq!(got.results.len(), 5);
    }
}
