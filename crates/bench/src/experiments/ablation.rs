//! Ablation study: which of TraSS's pruning stages buys what.
//!
//! Not a numbered figure, but the §VI-C/§VI-D discussion implies it and
//! DESIGN.md calls it out: we switch off (a) position codes (Lemmas
//! 10–11), (b) the distance bounds (Lemmas 9/11), and (c) local filtering
//! (Lemmas 12–14) one at a time and measure rows retrieved, candidates,
//! and query time at ε = 0.01 on both datasets.

use crate::datasets::{Dataset, Scale};
use crate::harness::{self, ms, Column, Op, Point, Trass};
use trass_baselines::SimilarityEngine;
use trass_core::TrassConfig;
use trass_traj::Measure;

/// Runs the ablation; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let op = Op::Threshold(0.01, Measure::Frechet);
    let points: [Point; 1] = [("eps", 0.01, vec![op])];
    let columns: [Column; 4] = [
        ("time_ms", 0, |a| Some(ms(a.median_time))),
        ("retrieved", 0, |a| Some(a.mean_retrieved)),
        ("candidates", 0, |a| Some(a.mean_candidates)),
        ("results", 0, |a| Some(a.mean_results)),
    ];
    harness::sweep("ablation", scale, scale.queries, engines, &points, &columns)
}

type Variant = (&'static str, fn(&mut TrassConfig));

fn variants() -> Vec<Variant> {
    vec![
        ("full", |_| {}),
        ("no-position-codes", |c| c.use_position_codes = false),
        ("no-min-dist", |c| c.use_min_dist = false),
        ("no-local-filter", |c| c.use_local_filter = false),
        ("elements-only", |c| {
            c.use_position_codes = false;
            c.use_min_dist = false;
            c.use_local_filter = false;
        }),
    ]
}

/// TraSS once per variant, each named after it.
fn engines(ds: &Dataset) -> Vec<Box<dyn SimilarityEngine>> {
    let build = |(name, tweak): Variant| -> Box<dyn SimilarityEngine> {
        let mut cfg = TrassConfig::default();
        tweak(&mut cfg);
        let mut trass = Trass::build(&ds.data, cfg);
        trass.name = name;
        Box::new(trass)
    };
    variants().into_iter().map(build).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::harness::Queries;
    use trass_core::query;

    #[test]
    fn ablations_do_not_change_answers() {
        // Every ablation must stay *correct* — the lemmas only prune, never
        // decide. Answers across variants must be identical.
        let ds = datasets::tdrive(0.05);
        let queries = datasets::queries(&ds, 3);
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for (name, tweak) in variants() {
            let mut cfg = TrassConfig::default();
            tweak(&mut cfg);
            let store = Trass::build(&ds.data, cfg).store;
            let answers: Vec<Vec<u64>> = queries
                .iter()
                .map(|q| {
                    query::threshold_search(&store, q, 0.01, Measure::Frechet)
                        .unwrap()
                        .results
                        .iter()
                        .map(|&(id, _)| id)
                        .collect()
                })
                .collect();
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(&answers, r, "variant {name} changed the answers"),
            }
        }
    }

    #[test]
    fn disabling_stages_increases_work() {
        let ds = datasets::tdrive(0.1);
        let queries = Queries::new(&ds, 5);
        let measure = |tweak: fn(&mut TrassConfig)| {
            let mut cfg = TrassConfig::default();
            tweak(&mut cfg);
            let trass = Trass::build(&ds.data, cfg);
            let agg =
                harness::run(&trass, &queries, Op::Threshold(0.01, Measure::Frechet)).unwrap();
            (agg.mean_retrieved, agg.mean_candidates)
        };
        let (full_retrieved, full_candidates) = measure(|_| {});
        let (nopc_retrieved, _) = measure(|c| c.use_position_codes = false);
        let (_, nolf_candidates) = measure(|c| c.use_local_filter = false);
        assert!(
            nopc_retrieved >= full_retrieved,
            "position codes should reduce rows: {nopc_retrieved} vs {full_retrieved}"
        );
        assert!(
            nolf_candidates >= full_candidates,
            "local filter should reduce candidates: {nolf_candidates} vs {full_candidates}"
        );
    }
}
