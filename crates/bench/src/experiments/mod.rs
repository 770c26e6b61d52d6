//! One module per paper artifact. Each `run(scale)` prints the figure's
//! table, appends JSONL rows under `results/`, and returns `false` if any
//! timed answer differed from brute force.

use crate::datasets::Scale;

pub mod ablation;
pub mod fig09_threshold;
pub mod fig10_topk;
pub mod fig11_pruning;
pub mod fig12_distribution;
pub mod fig13_overhead;
pub mod fig14_resolution;
pub mod fig17_scalability;
pub mod fig18_tail_latency;
pub mod fig19_shards;
pub mod fig20_measures;
pub mod io_reduction;

/// An experiment's entry point: runs it at a scale and returns `false` if
/// any answer was wrong.
pub type Experiment = fn(Scale) -> bool;

/// Every experiment by its `repro` name, in figure order.
pub const ALL: [(&str, Experiment); 12] = [
    ("fig9", fig09_threshold::run),
    ("fig10", fig10_topk::run),
    ("fig11", fig11_pruning::run),
    ("fig12", fig12_distribution::run),
    ("fig13", fig13_overhead::run),
    ("fig14", fig14_resolution::run),
    ("fig17", fig17_scalability::run),
    ("fig18", fig18_tail_latency::run),
    ("fig19", fig19_shards::run),
    ("fig20", fig20_measures::run),
    ("io", io_reduction::run),
    ("ablation", ablation::run),
];
