//! The refinement-side lower-bound prefilter (shared by threshold search
//! and top-k's batches).
//!
//! [`RefineContext`] wraps a query-side [`QueryEnvelope`] plus atomic
//! per-outcome tallies, so parallel refine workers can assess candidates
//! through one shared read-only object and the driver can snapshot an
//! attribution breakdown afterwards ([`RefinePrune`]). Every candidate the
//! bounds let through ends in one kernel call,
//! [`Measure::distance_within`]; with bounds disabled (the
//! `refine_bounds` ablation) no envelope is built and every candidate goes
//! straight to that call.

use crate::stats::RefinePrune;
use std::sync::atomic::{AtomicU64, Ordering};
use trass_geo::{Mbr, Point};
use trass_traj::bounds::{BoundKind, QueryEnvelope};
use trass_traj::Measure;

/// How refinement disposed of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RefineOutcome {
    /// Survived every bound and the exact kernel: a result at this
    /// distance.
    Hit(f64),
    /// A lower bound proved the candidate dissimilar before the exact
    /// kernel ran.
    Pruned(BoundKind),
    /// The exact kernel abandoned mid-computation (running value crossed
    /// the threshold).
    Abandoned,
    /// Empty point sequence — a corrupt row the exact kernels would panic
    /// on; skipped and counted, never an error for the whole query.
    Corrupt,
}

impl RefineOutcome {
    /// Stable label for trace verdict fields.
    pub(crate) fn label(&self) -> String {
        match self {
            RefineOutcome::Hit(_) => "hit".to_string(),
            RefineOutcome::Pruned(kind) => format!("pruned={kind}"),
            RefineOutcome::Abandoned => "abandoned".to_string(),
            RefineOutcome::Corrupt => "corrupt".to_string(),
        }
    }
}

/// Shared per-query refine state: the query envelope (when bounds are
/// enabled) and atomic outcome tallies.
#[derive(Debug)]
pub(crate) struct RefineContext {
    envelope: Option<QueryEnvelope>,
    endpoint: AtomicU64,
    mbr_gap: AtomicU64,
    ref_gap: AtomicU64,
    abandoned: AtomicU64,
    computed: AtomicU64,
    corrupt: AtomicU64,
}

impl RefineContext {
    /// Builds the context. `enabled = false` (or an empty query, which has
    /// nothing to bound) builds no envelope, so no candidate is pruned
    /// before the kernel.
    pub(crate) fn new(query: &[Point], enabled: bool) -> RefineContext {
        RefineContext {
            envelope: if enabled { QueryEnvelope::new(query) } else { None },
            endpoint: AtomicU64::new(0),
            mbr_gap: AtomicU64::new(0),
            ref_gap: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// Whether the lower-bound prefilter is active.
    pub(crate) fn bounds_enabled(&self) -> bool {
        self.envelope.is_some()
    }

    /// Assesses one candidate against threshold `eff`, counting the
    /// outcome. `cand_mbr` is the candidate's cached covering MBR when the
    /// row carries one (the DP-feature MBR); a covering rectangle is
    /// sufficient — the gap bound only loosens, never breaks.
    ///
    /// A bound only fires on a candidate the kernel would reject, and the
    /// kernel call is the same with or without the envelope, so
    /// `refine_bounds` never changes a [`RefineOutcome::Hit`] or its
    /// distance.
    pub(crate) fn assess(
        &self,
        query: &[Point],
        cand: &[Point],
        cand_mbr: Option<&Mbr>,
        measure: Measure,
        eff: f64,
    ) -> RefineOutcome {
        if cand.is_empty() || query.is_empty() {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return RefineOutcome::Corrupt;
        }
        if let Some(kind) =
            self.envelope.as_ref().and_then(|env| env.prunes(cand, cand_mbr, measure, eff))
        {
            match kind {
                BoundKind::Endpoint => &self.endpoint,
                BoundKind::MbrGap => &self.mbr_gap,
                BoundKind::RefGap => &self.ref_gap,
            }
            .fetch_add(1, Ordering::Relaxed);
            return RefineOutcome::Pruned(kind);
        }
        match measure.distance_within(query, cand, eff) {
            Some(d) => {
                self.computed.fetch_add(1, Ordering::Relaxed);
                RefineOutcome::Hit(d)
            }
            None => {
                self.abandoned.fetch_add(1, Ordering::Relaxed);
                RefineOutcome::Abandoned
            }
        }
    }

    /// Snapshot of the outcome tallies.
    pub(crate) fn snapshot(&self) -> RefinePrune {
        RefinePrune {
            endpoint: self.endpoint.load(Ordering::Relaxed),
            mbr_gap: self.mbr_gap.load(Ordering::Relaxed),
            ref_gap: self.ref_gap.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn empty_candidate_is_corrupt_not_a_panic() {
        // Regression for the empty-sequence panic surface:
        // `Measure::distance` asserts non-empty input, so the refine call
        // site must skip such rows.
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        for enabled in [true, false] {
            let ctx = RefineContext::new(&q, enabled);
            let out = ctx.assess(&q, &[], None, Measure::Frechet, 1.0);
            assert_eq!(out, RefineOutcome::Corrupt);
            assert_eq!(ctx.snapshot().corrupt, 1);
        }
    }

    #[test]
    fn attribution_counts_add_up() {
        let q = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let ctx = RefineContext::new(&q, true);
        assert!(ctx.bounds_enabled());
        let cands = [
            pts(&[(0.0, 0.0), (1.0, 0.0)]),     // hit
            pts(&[(50.0, 50.0), (51.0, 50.0)]), // pruned (far)
            // Close endpoints and overlapping extents (every bound passes)
            // but a 5-unit spike mid-way: the kernel must abandon.
            pts(&[(0.0, 0.5), (0.5, 5.0), (1.0, 0.5)]),
        ];
        for c in &cands {
            ctx.assess(&q, c, None, Measure::Frechet, 1.0);
        }
        let s = ctx.snapshot();
        assert_eq!(s.pruned_total() + s.abandoned + s.computed + s.corrupt, 3, "{s:?}");
        assert_eq!(s.computed, 1, "{s:?}");
        assert_eq!(s.abandoned, 1, "{s:?}");
        assert_eq!(s.pruned_total(), 1, "{s:?}");
    }

    #[test]
    fn disabled_context_never_prunes() {
        let q = pts(&[(0.0, 0.0)]);
        let ctx = RefineContext::new(&q, false);
        assert!(!ctx.bounds_enabled());
        let far = pts(&[(100.0, 100.0)]);
        assert_eq!(ctx.assess(&q, &far, None, Measure::Frechet, 1.0), RefineOutcome::Abandoned);
        assert_eq!(ctx.snapshot().pruned_total(), 0);
    }
}
