//! Query processing (§V): threshold and top-k similarity search, and
//! spatial range queries.
//!
//! There is one query path, `pipeline`'s staged pass through Fig. 8
//! (pruning → scan with the filter pushed down → refine), instrumented
//! once per stage, and one global pruning walk, the occupancy-guided
//! `BestFirst` frontier. `threshold`, each round of `topk`, and `range`
//! are short callers that supply only what the frontier tests, their
//! filter, and their refine verdicts. The similarity searches share:
//!
//! 1. **Global pruning** (§V-C) turns the query into a small set of index
//!    value ranges — resolution banding (Lemmas 6–7), element distance
//!    bounds (Lemmas 8–9), position-code filtering (Lemmas 10–11); range
//!    search keeps instead the spaces with a code quad in its window.
//! 2. **Local filtering** (§V-D) runs inside the store's scan, rejecting
//!    rows by endpoint distance (Lemma 12) and DP features (Lemmas 13–14)
//!    before they reach the client.
//!
//! Only the survivors pay the exact similarity computation.

mod local_filter;
pub(crate) mod pipeline;
pub(crate) mod range;
pub(crate) mod refine;
pub(crate) mod threshold;
mod timed_filter;
pub(crate) mod topk;

pub use local_filter::{FilterRejects, LocalFilter, QuerySide};
pub use range::range_search;
pub use threshold::threshold_search;
pub use timed_filter::TimedFilter;
pub use topk::top_k_search;
