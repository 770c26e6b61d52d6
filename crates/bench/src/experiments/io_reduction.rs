//! The I/O-reduction claims: §IV-B's theoretical 83.6 % average and
//! §VI / abstract's measured "up to 66.4 % less I/O than XZ-Ordering".
//!
//! * **Theory**: enumerates the 14 far-quad configurations and their
//!   surviving position codes — the exact table of §IV-B's Discussion.
//! * **Measured**: runs the same query batch through TraSS (XZ\*) and the
//!   JUST engine (XZ-Ordering) on identical KV clusters and compares rows
//!   scanned.

use crate::datasets::{self, Scale};
use crate::harness::{self, Op, Queries, Trass};
use crate::report::Reporter;
use trass_baselines::xz_kv::{XzKvConfig, XzKvEngine};
use trass_core::TrassConfig;
use trass_index::xzstar::{io_reduction, QuadSet};
use trass_traj::Measure;

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    theory() & measured(scale)
}

/// §IV-B's theoretical table.
pub fn theory() -> bool {
    let mut rep = Reporter::new("io_theory");
    let names = ["a", "b", "c", "d"];
    let mut total = 0.0;
    let mut count = 0u32;
    for mask in 1u8..15 {
        let far: Vec<&str> = (0..4).filter(|i| mask >> i & 1 == 1).map(|i| names[i]).collect();
        let reduction = io_reduction(QuadSet(mask));
        total += reduction;
        count += 1;
        rep.row(
            "theory",
            "XZ*",
            &format!("far-{}", far.concat()),
            far.len() as f64,
            &[("reduction_pct", reduction * 100.0)],
            None,
        );
    }
    let average = total / count as f64 * 100.0;
    rep.row("theory", "XZ*", "average", 0.0, &[("reduction_pct", average)], None);
    rep.finish()
}

/// Measured rows-scanned comparison, TraSS vs XZ-Ordering.
pub fn measured(scale: Scale) -> bool {
    let mut rep = Reporter::new("io_measured");
    for ds in [datasets::tdrive(scale.size), datasets::lorry(scale.size)] {
        let queries = Queries::new(&ds, scale.queries);
        let trass = Trass::build(&ds.data, TrassConfig::default());
        let just = XzKvEngine::build(&ds.data, XzKvConfig::default());
        for eps in [0.001, 0.005, 0.01, 0.02] {
            let op = Op::Threshold(eps, Measure::Frechet);
            let t = harness::run(&trass, &queries, op).expect("TraSS supports threshold");
            let j = harness::run(&just, &queries, op).expect("JUST supports threshold");
            let reduction = if j.mean_retrieved > 0.0 {
                (j.mean_retrieved - t.mean_retrieved) / j.mean_retrieved * 100.0
            } else {
                0.0
            };
            rep.row(
                ds.name,
                "TraSS-vs-XZ2",
                "eps",
                eps,
                &[
                    // report column name, not a registry metric: trass-lint: allow(drift)
                    ("trass_rows", t.mean_retrieved),
                    ("xz2_rows", j.mean_retrieved),
                    ("reduction_pct", reduction),
                ],
                Some(t.correct && j.correct),
            );
        }
    }
    rep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_average_is_83_6() {
        let mut total = 0.0;
        let mut count = 0;
        for mask in 1u8..15 {
            let quads = (0..4).filter(|i| mask >> i & 1 == 1).count();
            if (1..=3).contains(&quads) {
                total += io_reduction(QuadSet(mask));
                count += 1;
            }
        }
        let avg = total / count as f64 * 100.0;
        assert!((avg - 83.6).abs() < 0.1, "avg = {avg}");
    }

    #[test]
    fn xzstar_scans_fewer_rows_than_xz2() {
        // The measured half of the claim, on a small workload.
        let ds = datasets::tdrive(0.2);
        let queries = Queries::new(&ds, 10);
        let trass = Trass::build(&ds.data, TrassConfig::default());
        let just = XzKvEngine::build(&ds.data, XzKvConfig::default());
        let op = Op::Threshold(0.005, Measure::Frechet);
        let t = harness::run(&trass, &queries, op).unwrap();
        let j = harness::run(&just, &queries, op).unwrap();
        assert!(t.correct && j.correct);
        assert!(
            t.mean_retrieved < j.mean_retrieved,
            "TraSS {} rows vs XZ2 {} rows",
            t.mean_retrieved,
            j.mean_retrieved
        );
    }
}
