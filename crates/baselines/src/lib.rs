//! Baseline trajectory-similarity engines for the TraSS evaluation (§VI).
//!
//! The paper compares TraSS against four published systems. They are
//! full distributed stacks (Spark, HBase coprocessors); this crate
//! reproduces their *algorithmic* filtering behaviour so the evaluation's
//! relative shape is preserved (see DESIGN.md for per-system substitution
//! notes):
//!
//! * [`xz_kv::XzKvEngine`] — JUST / TrajMesa: XZ-Ordering (GeoMesa XZ2) on
//!   the same key-value cluster TraSS uses, with MBR + endpoint local
//!   filtering. This is the apples-to-apples I/O comparator for the
//!   paper's 66.4 % I/O-reduction claim.
//! * [`dft::DftEngine`] — DFT (VLDB'17): an R-tree over trajectory MBRs
//!   with the sample-`c·k` threshold scheme for top-k; the private
//!   `rtree` module is that tree, and DFT is its only user.
//! * [`dita::DitaEngine`] — DITA (SIGMOD'18): pivot-point (first/last)
//!   grid trie with MBR coverage filtering.
//! * [`repose::ReposeEngine`] — REPOSE (ICDE'21): reference-point distance
//!   lower bounds; top-k only, exactly as the paper notes.
//!
//! All engines implement [`SimilarityEngine`] and report the same
//! retrieved/candidates accounting as TraSS so Figures 9–11 can be
//! regenerated on one axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod dft;
pub mod dita;
pub mod repose;
mod rtree;
pub mod xz_kv;

use std::time::Duration;
use trass_traj::{Measure, Trajectory, TrajectoryId};

/// The outcome of a baseline query, with the paper's accounting.
#[derive(Debug, Clone, Default)]
pub struct EngineResult {
    /// Matching `(tid, distance)` pairs; threshold results sorted by id,
    /// top-k by distance.
    pub results: Vec<(TrajectoryId, f64)>,
    /// Rows/trajectories touched by the engine (its I/O volume).
    pub retrieved: u64,
    /// Trajectories that survived the engine's cheap filters and paid an
    /// exact similarity computation.
    pub candidates: u64,
    /// Wall-clock query time.
    pub query_time: Duration,
    /// Per-stage accounting; `None` for the baselines, whose pruning and
    /// scanning interleave.
    pub stages: Option<Stages>,
}

/// Per-stage accounting of one query, from an engine that separates the
/// stages (TraSS, through the experiment harness's adapter).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Global-pruning time.
    pub pruning_time: Duration,
    /// Refine-stage time.
    pub refine_time: Duration,
    /// Candidates discarded by refinement's lower bounds.
    pub refine_pruned: u64,
}

impl EngineResult {
    /// `results / candidates`, the Fig. 11(c) precision.
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.results.len() as f64 / self.candidates as f64
        }
    }
}

/// Common interface over all comparison engines.
pub trait SimilarityEngine {
    /// Display name used by the experiment harness.
    fn name(&self) -> &'static str;

    /// Time spent building the index over the dataset.
    fn build_time(&self) -> Duration;

    /// Threshold similarity search; `None` when the engine does not
    /// support it (REPOSE).
    fn threshold(&self, query: &Trajectory, eps: f64, measure: Measure) -> Option<EngineResult>;

    /// Top-k similarity search; `None` when unsupported.
    fn top_k(&self, query: &Trajectory, k: usize, measure: Measure) -> Option<EngineResult>;
}

/// Sorts and truncates exact-distance pairs into a top-k result list.
pub(crate) fn finish_topk(
    mut scored: Vec<(TrajectoryId, f64)>,
    k: usize,
) -> Vec<(TrajectoryId, f64)> {
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN distances").then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_guards_division() {
        let r = EngineResult::default();
        assert_eq!(r.precision(), 1.0);
    }

    #[test]
    fn finish_topk_sorts_and_truncates() {
        let got = finish_topk(vec![(1, 3.0), (2, 1.0), (3, 2.0), (4, 0.5)], 2);
        assert_eq!(got, vec![(4, 0.5), (2, 1.0)]);
    }
}
