//! Fig. 17 — scalability on the synthetic ×t datasets: indexing time (a),
//! threshold query time (b), top-k query time (c), as data size grows.

use crate::datasets::{self, Scale};
use crate::harness::{self, ms, Queries, Trass, PAIR};
use crate::report::Reporter;
use trass_baselines::xz_kv::XzKvEngine;
use trass_baselines::SimilarityEngine;
use trass_core::TrassConfig;

/// The ×t sweep (the paper copies the Lorry dataset 1–5 times).
pub const T_SWEEP: [usize; 5] = [1, 2, 3, 4, 5];

/// Runs the experiment; `false` if any answer was wrong.
pub fn run(scale: Scale) -> bool {
    let mut rep = Reporter::new("fig17");
    for t in T_SWEEP {
        let ds = datasets::synthetic(scale.size, t);
        let queries = Queries::new(&ds, scale.half_batch());
        // JUST is the other KV-store solution; it is the relevant
        // scalability comparator (the Spark baselines hold all data in
        // executor memory).
        let engines: [Box<dyn SimilarityEngine>; 2] = [
            Box::new(Trass::build(&ds.data, TrassConfig::default())),
            Box::new(XzKvEngine::build(&ds.data, Default::default())),
        ];
        for engine in &engines {
            let [th, tk] =
                PAIR.map(|op| harness::run(engine.as_ref(), &queries, op).expect("supported"));
            rep.row(
                ds.name,
                engine.name(),
                "t",
                t as f64,
                &[
                    ("index_ms", ms(engine.build_time())),
                    ("threshold_ms", ms(th.median_time)),
                    ("topk_ms", ms(tk.median_time)),
                ],
                Some(th.correct && tk.correct),
            );
        }
    }
    rep.finish()
}
