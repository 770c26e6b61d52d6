//! # TraSS — trajectory similarity search on key-value data stores
//!
//! Umbrella crate re-exporting the full workspace API. See the individual
//! crates for deep documentation:
//!
//! * [`geo`] — geometry kernel (points, MBRs, oriented boxes).
//! * [`traj`] — trajectories, similarity measures, Douglas-Peucker
//!   features, workload generators, CSV/T-Drive I/O.
//! * [`kv`] — the embedded LSM key-value store and sharded cluster.
//! * [`index`] — the XZ\* index (the paper's contribution), XZ-Ordering,
//!   and an R-tree substrate.
//! * [`core`] — the TraSS framework: storage schema plus threshold, top-k,
//!   and spatial-range queries.
//! * [`obs`] — observability: metrics, tracing, the telemetry endpoint,
//!   and per-span allocation/CPU marks for EXPLAIN.
//! * [`server`] — the network front-end: a length-prefixed binary wire
//!   protocol over TCP, a thread-per-connection server, and a client.
//! * [`baselines`] — the comparison engines of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use trass::core::{query, TrassConfig, TrajectoryStore};
//! use trass::geo::Point;
//! use trass::traj::{Measure, Trajectory};
//!
//! let store = TrajectoryStore::open(TrassConfig::default()).unwrap();
//! store.insert(&Trajectory::new(1, vec![
//!     Point::new(116.397, 39.909),
//!     Point::new(116.403, 39.915),
//! ])).unwrap();
//!
//! let q = Trajectory::new(0, vec![Point::new(116.398, 39.910)]);
//! let hits = query::threshold_search(&store, &q, 0.02, Measure::Frechet).unwrap();
//! assert_eq!(hits.results.len(), 1);
//!
//! let by_id = store.get(1).unwrap().unwrap();
//! assert_eq!(by_id.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub use trass_baselines as baselines;
pub use trass_core as core;
pub use trass_geo as geo;
pub use trass_index as index;
pub use trass_kv as kv;
pub use trass_obs as obs;
pub use trass_server as server;
pub use trass_traj as traj;
