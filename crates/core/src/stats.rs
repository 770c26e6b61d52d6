//! Per-query accounting, matching the paper's evaluation metrics.

use std::time::Duration;
use trass_kv::metrics::MetricsSnapshot;
use trass_traj::TrajectoryId;

/// Timing and volume statistics of one similarity query.
///
/// The fields mirror §VI-C's metrics: `pruning_time` (global pruning),
/// `retrieved` (rows visited by scans — the global-pruning filtration
/// capacity), `candidates` (rows surviving local filtering — Fig. 9(b) /
/// Fig. 10(b)), and `results` (final answers); `precision` is
/// `results / candidates` (Fig. 11(c)).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Time spent generating scan ranges (global pruning).
    pub pruning_time: Duration,
    /// Time spent scanning the store, local filtering included (it runs
    /// inside the scan, as an HBase coprocessor would).
    pub scan_time: Duration,
    /// Time spent computing exact similarity on the candidates.
    pub refine_time: Duration,
    /// Number of rowkey range scans issued.
    pub n_ranges: usize,
    /// Rows visited by the scans (I/O volume after global pruning).
    pub retrieved: u64,
    /// Rows surviving local filtering (the paper's "candidates").
    pub candidates: u64,
    /// Final answers.
    pub results: u64,
    /// This query's own scan I/O: the tallies its scans returned, exact
    /// whatever else scans the store meanwhile. `entries_scanned` is
    /// `retrieved` and `entries_returned` is `candidates`.
    pub io: MetricsSnapshot,
    /// Measured end-to-end wall-clock time, set by the query drivers.
    /// Zero when the stats were assembled by hand (tests, aggregation).
    pub total_time: Duration,
    /// Refine-stage outcome attribution: which lower bound (or kernel
    /// abandon) disposed of each candidate. Summed across rounds for
    /// top-k queries.
    pub refine_prune: RefinePrune,
}

/// Per-query refine-stage outcome tallies (one count per candidate that
/// reached refinement). `endpoint`/`mbr_gap`/`ref_gap` attribute prunes to
/// the lower bound that fired; `abandoned` counts kernel early-exits;
/// `computed` counts full exact evaluations (the hits); `corrupt` counts
/// skipped undecodable/empty rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefinePrune {
    /// Candidates pruned by the endpoint lower bound (Fréchet/DTW).
    pub endpoint: u64,
    /// Candidates pruned by the MBR-gap lower bound.
    pub mbr_gap: u64,
    /// Candidates pruned by the reference-point interval-gap bound.
    pub ref_gap: u64,
    /// Candidates the exact kernel abandoned once the running value
    /// crossed the threshold (no exact value computed).
    pub abandoned: u64,
    /// Candidates whose exact distance was fully computed (the hits).
    pub computed: u64,
    /// Rows skipped as corrupt at the refine call site (empty point
    /// sequence — the exact kernels reject those by assertion).
    pub corrupt: u64,
}

impl RefinePrune {
    /// Candidates disposed of by a lower bound, before any exact kernel.
    pub fn pruned_total(&self) -> u64 {
        self.endpoint + self.mbr_gap + self.ref_gap
    }

    /// Every tally under its `trass_refine_outcomes{outcome}` label.
    pub(crate) fn outcomes(&self) -> [(&'static str, u64); 6] {
        [
            ("pruned-endpoint", self.endpoint),
            ("pruned-mbr-gap", self.mbr_gap),
            ("pruned-ref-gap", self.ref_gap),
            ("abandoned", self.abandoned),
            ("computed", self.computed),
            ("corrupt", self.corrupt),
        ]
    }

    /// Element-wise sum (top-k round aggregation).
    pub fn plus(&self, other: &RefinePrune) -> RefinePrune {
        RefinePrune {
            endpoint: self.endpoint + other.endpoint,
            mbr_gap: self.mbr_gap + other.mbr_gap,
            ref_gap: self.ref_gap + other.ref_gap,
            abandoned: self.abandoned + other.abandoned,
            computed: self.computed + other.computed,
            corrupt: self.corrupt + other.corrupt,
        }
    }
}

impl QueryStats {
    /// `results / candidates` — Fig. 11(c)'s precision (1.0 when there were
    /// no candidates).
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.results as f64 / self.candidates as f64
        }
    }

    /// Total wall-clock time of the query: the measured end-to-end time
    /// when the driver recorded one, otherwise the sum of the stage timers.
    /// The stage intervals nest inside the measured one, so it is never
    /// below their sum; what it adds is the glue between stages (stats
    /// assembly, top-k's round bookkeeping).
    pub fn total_time(&self) -> Duration {
        if self.total_time != Duration::ZERO {
            self.total_time
        } else {
            self.pruning_time + self.scan_time + self.refine_time
        }
    }

    /// Folds one top-k round — one batch of the frontier — into the
    /// query's running totals: stage times, scan volume, I/O and refine
    /// attribution add up. `results` and `total_time` belong to the whole
    /// query and are left to the driver.
    pub fn absorb_round(&mut self, round: &QueryStats) {
        self.pruning_time += round.pruning_time;
        self.scan_time += round.scan_time;
        self.refine_time += round.refine_time;
        self.n_ranges += round.n_ranges;
        self.retrieved += round.retrieved;
        self.candidates += round.candidates;
        self.io = self.io.plus(&round.io);
        self.refine_prune = self.refine_prune.plus(&round.refine_prune);
    }
}

/// The outcome of a similarity search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Matching trajectories. Threshold search orders by id; top-k search
    /// orders by increasing distance.
    pub results: Vec<(TrajectoryId, f64)>,
    /// Query accounting.
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_handles_zero_candidates() {
        let s = QueryStats::default();
        assert_eq!(s.precision(), 1.0);
        let s = QueryStats { candidates: 4, results: 1, ..QueryStats::default() };
        assert_eq!(s.precision(), 0.25);
    }

    #[test]
    fn total_time_sums_phases_when_unmeasured() {
        let s = QueryStats {
            pruning_time: Duration::from_millis(1),
            scan_time: Duration::from_millis(2),
            refine_time: Duration::from_millis(3),
            ..QueryStats::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(6));
    }

    #[test]
    fn absorbing_rounds_sums_everything_but_results_and_total() {
        let ms = Duration::from_millis;
        let round = QueryStats {
            scan_time: ms(2),
            candidates: 6,
            results: 7,
            total_time: ms(8),
            refine_prune: RefinePrune { endpoint: 1, ..RefinePrune::default() },
            ..QueryStats::default()
        };
        let mut total = QueryStats::default();
        total.absorb_round(&round);
        total.absorb_round(&round);
        assert_eq!(
            (total.scan_time, total.candidates, total.refine_prune.endpoint),
            (ms(4), 12, 2)
        );
        assert_eq!((total.results, total.total_time), (0, Duration::ZERO));
    }

    #[test]
    fn measured_total_time_wins_over_phase_sum() {
        let s = QueryStats {
            pruning_time: Duration::from_millis(1),
            scan_time: Duration::from_millis(2),
            refine_time: Duration::from_millis(3),
            total_time: Duration::from_millis(10),
            ..QueryStats::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(10));
    }
}
