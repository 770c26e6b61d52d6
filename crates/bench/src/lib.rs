//! Experiment harness reproducing every table and figure of the TraSS
//! evaluation (§VI–§VII).
//!
//! The `repro` binary runs one experiment per invocation (`repro fig9`,
//! `repro all`, …); each experiment prints a table mirroring the paper's
//! figure and appends machine-readable rows to `results/<exp>.jsonl`.
//! Every solution, TraSS included, is a `SimilarityEngine`, and every
//! timed answer is checked against `trass_traj::reference` (`harness::run`).
//!
//! Dataset sizes are scaled for a single machine (the paper used a 5-node
//! cluster and up to 136 GB of data); set `TRASS_REPRO_SCALE` to grow or
//! shrink them. Shapes — who wins, by what factor, where crossovers sit —
//! are the reproduction target, not absolute milliseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod report;
