//! Framework configuration.

use trass_geo::{Mbr, NormalizedSpace};
use trass_kv::StoreOptions;

/// Configuration of a TraSS deployment.
#[derive(Debug, Clone)]
pub struct TrassConfig {
    /// Maximum XZ\* resolution (paper default: 16).
    pub max_resolution: u8,
    /// Number of rowkey shards (paper sweeps 1–32; 8 is its sweet spot).
    pub shards: u8,
    /// Douglas-Peucker tolerance in world units (paper default: 0.01°).
    pub dp_theta: f64,
    /// World extent mapped onto the unit square. Must be square so
    /// distance-based pruning scales uniformly (see `trass_geo::normalize`).
    pub space: NormalizedSpace,
    /// Gap tolerance when threshold search coalesces index values into scan
    /// ranges. Top-k uses 0; range search bridges only gaps holding no row.
    pub range_gap: u64,
    /// Worker budget for intra-query parallelism: the size of the store's
    /// one worker pool, on which a query fans its region scans out (the
    /// stand-in for the five-node cluster of the paper's evaluation) and
    /// then refines its candidates. `0` uses the machine's available parallelism;
    /// `1` reproduces the exact sequential pipeline. The default honours
    /// the `TRASS_QUERY_THREADS` environment variable (CI's determinism
    /// matrix relies on it), falling back to `0`.
    pub query_threads: usize,
    /// Per-region store tuning. `dir = None` runs in memory.
    pub store: StoreOptions,
    /// Ablation: apply position-code filtering (Lemmas 10–11) in global
    /// pruning. Off reduces XZ\* to element-granularity pruning (§VI-D).
    pub use_position_codes: bool,
    /// Ablation: apply the distance-bound lemmas (9 and 11).
    pub use_min_dist: bool,
    /// Ablation: push local filtering (Lemmas 12–14) into scans. Off makes
    /// every retrieved row a refinement candidate.
    pub use_local_filter: bool,
    /// Ablation: evaluate cheap lower bounds (endpoint, MBR gap,
    /// reference-point interval gap) before each refinement kernel call.
    /// Off builds no query envelope; every candidate then goes straight to
    /// the kernel, which abandons at the threshold either way. Results are
    /// bit-identical on and off (the exactness table in
    /// `tests/exactness.rs` holds both to brute force). Default on.
    pub refine_bounds: bool,
    /// Trace one query in N (deterministic counter; queries 1, N+1, 2N+1,
    /// … record full span trees into the flight recorder). `0` disables
    /// sampling entirely; `explain` always traces regardless.
    pub trace_sample_every: u64,
    /// Bind address for the embedded telemetry endpoint
    /// ([`TrajectoryStore::serve_telemetry`](crate::TrajectoryStore::serve_telemetry)),
    /// e.g. `"127.0.0.1:9090"`; port `0` picks an ephemeral port. `None`
    /// (the default) means the endpoint is only started when asked
    /// explicitly. The default honours the `TRASS_TELEMETRY_ADDR`
    /// environment variable.
    pub telemetry_addr: Option<String>,
}

impl Default for TrassConfig {
    fn default() -> Self {
        TrassConfig {
            max_resolution: 16,
            shards: 8,
            dp_theta: 0.01,
            space: trass_geo::WORLD_SQUARE,
            range_gap: 0,
            query_threads: default_query_threads(),
            store: StoreOptions::default(),
            use_position_codes: true,
            use_min_dist: true,
            use_local_filter: true,
            refine_bounds: true,
            trace_sample_every: 64,
            telemetry_addr: default_telemetry_addr(),
        }
    }
}

/// The `query_threads` default: `TRASS_QUERY_THREADS` when set to a valid
/// count, otherwise `0` (auto).
fn default_query_threads() -> usize {
    std::env::var("TRASS_QUERY_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The `telemetry_addr` default: `TRASS_TELEMETRY_ADDR` when set and
/// non-empty, otherwise `None` (endpoint off).
fn default_telemetry_addr() -> Option<String> {
    std::env::var("TRASS_TELEMETRY_ADDR").ok().filter(|v| !v.is_empty())
}

impl TrassConfig {
    /// A configuration whose index covers only `extent` (padded to a
    /// square), useful for city-scale tests needing finer effective
    /// resolution.
    pub fn for_extent(extent: Mbr) -> Self {
        TrassConfig { space: NormalizedSpace::square(extent), ..Self::default() }
    }

    /// Validates invariants the framework relies on.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(1..=30).contains(&self.max_resolution) {
            return Err(format!("max_resolution {} out of 1..=30", self.max_resolution));
        }
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if !self.space.is_square() {
            return Err("space extent must be square for sound distance pruning".into());
        }
        if self.dp_theta.is_nan() || self.dp_theta < 0.0 {
            return Err("dp_theta must be non-negative".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = TrassConfig::default();
        assert_eq!(c.max_resolution, 16);
        assert_eq!(c.shards, 8);
        assert_eq!(c.dp_theta, 0.01);
        assert!(c.space.is_square());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = TrassConfig { max_resolution: 0, ..TrassConfig::default() };
        assert!(c.validate().is_err());
        let c = TrassConfig { shards: 0, ..TrassConfig::default() };
        assert!(c.validate().is_err());
        let c = TrassConfig { space: trass_geo::WORLD, ..TrassConfig::default() }; // not square
        assert!(c.validate().is_err());
        let c = TrassConfig { dp_theta: f64::NAN, ..TrassConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn query_threads_env_override_feeds_default() {
        // Restore the ambient value afterwards: CI's determinism job runs
        // the whole suite under an explicit TRASS_QUERY_THREADS.
        let ambient = std::env::var("TRASS_QUERY_THREADS").ok();
        std::env::set_var("TRASS_QUERY_THREADS", "3");
        assert_eq!(TrassConfig::default().query_threads, 3);
        std::env::set_var("TRASS_QUERY_THREADS", "not-a-number");
        assert_eq!(TrassConfig::default().query_threads, 0);
        match ambient {
            Some(v) => std::env::set_var("TRASS_QUERY_THREADS", v),
            None => std::env::remove_var("TRASS_QUERY_THREADS"),
        }
    }

    #[test]
    fn telemetry_addr_env_feeds_default() {
        let ambient = std::env::var("TRASS_TELEMETRY_ADDR").ok();
        std::env::set_var("TRASS_TELEMETRY_ADDR", "127.0.0.1:9090");
        assert_eq!(TrassConfig::default().telemetry_addr.as_deref(), Some("127.0.0.1:9090"));
        std::env::set_var("TRASS_TELEMETRY_ADDR", "");
        assert_eq!(TrassConfig::default().telemetry_addr, None);
        match ambient {
            Some(v) => std::env::set_var("TRASS_TELEMETRY_ADDR", v),
            None => std::env::remove_var("TRASS_TELEMETRY_ADDR"),
        }
    }

    #[test]
    fn for_extent_squares_the_extent() {
        let c = TrassConfig::for_extent(Mbr::new(116.0, 39.6, 116.8, 40.2));
        assert!(c.space.is_square());
        assert!(c.validate().is_ok());
    }
}
