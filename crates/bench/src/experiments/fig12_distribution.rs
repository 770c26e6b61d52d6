//! Fig. 12 — distribution of trajectories over XZ\* resolutions (a) and
//! position codes (b).
//!
//! The paper's signature features: most trajectories land at resolutions
//! 10–16 (driving ranges 0.5–78 km), plus a peak at the maximum resolution
//! from stationary taxis, and a non-degenerate spread over position codes.

use crate::datasets::{self, Scale};
use crate::report::Reporter;
use trass_index::xzstar::XzStar;

/// Runs the experiment (it times no query, so its rows carry no
/// `correct` field).
pub fn run(scale: Scale) -> bool {
    let mut rep = Reporter::new("fig12");
    let ds = datasets::tdrive(scale.size);
    let space = trass_geo::WORLD_SQUARE; // the paper's whole-earth deployment
    let index = XzStar::new(16);

    let mut by_level = [0u64; 17];
    let mut by_code = [0u64; 11];
    for t in &ds.data {
        let unit: Vec<_> = t.points().iter().map(|p| space.to_unit(p)).collect();
        let s = index.index_points(&unit);
        by_level[s.cell.level as usize] += 1;
        by_code[s.code.0 as usize] += 1;
    }
    for (level, &count) in by_level.iter().enumerate() {
        if count > 0 {
            rep.row(ds.name, "XZ*", "resolution", level as f64, &[("count", count as f64)], None);
        }
    }
    for (code, &count) in by_code.iter().enumerate().skip(1) {
        rep.row(ds.name, "XZ*", "code", code as f64, &[("count", count as f64)], None);
    }
    rep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_has_paper_signatures() {
        let ds = datasets::tdrive(1.0);
        let space = trass_geo::WORLD_SQUARE;
        let index = XzStar::new(16);
        let mut by_level = [0u64; 17];
        let mut by_code = [0u64; 11];
        for t in &ds.data {
            let unit: Vec<_> = t.points().iter().map(|p| space.to_unit(p)).collect();
            let s = index.index_points(&unit);
            by_level[s.cell.level as usize] += 1;
            by_code[s.code.0 as usize] += 1;
        }
        let total: u64 = by_level.iter().sum();
        // Bulk of the mass in the mid-band (moving vehicles)...
        let mid: u64 = by_level[6..16].iter().sum();
        assert!(mid as f64 > 0.5 * total as f64, "mid-band {mid} of {total}");
        // ...and a visible stay-point peak at the maximum resolution
        // (Fig. 12(a)'s spike).
        assert!(
            by_level[16] as f64 > 0.05 * total as f64,
            "max-res peak missing: {} of {total}",
            by_level[16]
        );
        // Position codes are genuinely diverse: at least 6 distinct codes.
        let used = by_code.iter().filter(|&&c| c > 0).count();
        assert!(used >= 6, "only {used} codes in use");
    }
}
