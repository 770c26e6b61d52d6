//! One module per paper artifact. Each `run()` prints the figure's table
//! and appends JSONL rows under `results/`.

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

/// Runs every experiment in figure order.
pub fn run_all() {
    fig09_threshold::run();
    fig10_topk::run();
    fig11_pruning::run();
    fig12_distribution::run();
    fig13_overhead::run();
    fig14_resolution::run();
    fig17_scalability::run();
    fig18_tail_latency::run();
    fig19_shards::run();
    fig20_measures::run();
    io_reduction::run();
    ablation::run();
}
