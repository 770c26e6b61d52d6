//! TraSS: trajectory similarity search on a key-value data store.
//!
//! This crate is the framework of the paper — everything between a raw
//! trajectory and a similarity-search answer:
//!
//! * [`config`] — framework configuration (resolution, shards, DP
//!   tolerance, measure defaults).
//! * [`schema`] — the trajectory table of Table I: the rowkey
//!   `shard + index value + tid` (§IV-E) with both the integer encoding and
//!   the string encoding (`TraSS-S`) the paper compares against, plus the
//!   binary row-value layout (`points`, `dp-points`, `dp-mbrs` columns).
//! * [`store`] — [`store::TrajectoryStore`]: indexing and writing
//!   trajectories into the sharded KV cluster.
//! * [`query`] — threshold similarity search (Algorithms 1–3) and top-k
//!   similarity search (Algorithm 4), both with global pruning pushed into
//!   scan-range generation and local filtering pushed into the store's scan
//!   filter, for Fréchet (default), Hausdorff and DTW (§VII).
//! * [`stats`] — per-query accounting matching the paper's evaluation
//!   metrics (pruning time, retrieved rows, candidates, precision).
//!
//! # Quick start
//!
//! ```
//! use trass_core::{config::TrassConfig, store::TrajectoryStore, query};
//! use trass_traj::{Trajectory, Measure};
//! use trass_geo::Point;
//!
//! let store = TrajectoryStore::open(TrassConfig::default()).unwrap();
//! let t = Trajectory::new(1, vec![Point::new(116.40, 39.90), Point::new(116.41, 39.91)]);
//! store.insert(&t).unwrap();
//!
//! let query = Trajectory::new(0, vec![Point::new(116.401, 39.901)]);
//! let hits = query::threshold_search(&store, &query, 0.02, Measure::Frechet).unwrap();
//! assert_eq!(hits.results.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod config;
pub mod query;
pub mod schema;
pub mod stats;
pub mod store;

pub use config::TrassConfig;
pub use query::{range_search, threshold_search, top_k_search};
pub use stats::{QueryStats, SearchResult};
pub use store::{SlowQueryRecord, TrajectoryStore};
