//! Trajectory data model for TraSS.
//!
//! This crate provides everything TraSS needs to *talk about* trajectories,
//! independent of storage and indexing:
//!
//! * [`Trajectory`] — an identified sequence of 2-D points (§II, Def. 1).
//! * [`measures`] — the similarity measures the paper supports: discrete
//!   Fréchet (default, §II Def. 2), Hausdorff (§VII Def. 12) and DTW
//!   (§VII Def. 13), each with an exact kernel and a threshold-aware
//!   early-abandoning decision kernel used by the refinement step.
//! * [`bounds`] — REPOSE-style lower-bound envelopes (endpoint, MBR gap,
//!   reference-point interval gap) that let refinement discard candidates
//!   in O(n) before paying an exact O(n·m) kernel.
//! * [`dp`] — Douglas-Peucker representative points and the oriented
//!   bounding boxes between them (§IV-D "DP features"), the inputs to local
//!   filtering (Lemmas 13–14).
//! * [`generator`] — reproducible synthetic workloads standing in for the
//!   paper's T-Drive and JD-Lorry datasets (see DESIGN.md for the
//!   substitution rationale).
//! * [`codec`] — a compact binary encoding of point sequences and DP
//!   features, used as the value format in the key-value store.
//! * [`reference`](mod@reference) — the exact threshold, top-k and range
//!   answers every query path and engine is checked against, and the one
//!   comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::print_stdout, clippy::print_stderr))]

pub mod bounds;
pub mod codec;
pub mod dp;
pub mod generator;
pub mod io;
pub mod measures;
pub mod reference;
mod trajectory;

pub use dp::DpFeatures;
pub use measures::Measure;
pub use trajectory::{Trajectory, TrajectoryId};
