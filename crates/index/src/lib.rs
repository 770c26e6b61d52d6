//! Spatial indexes for trajectory data on key-value stores.
//!
//! This crate contains the paper's primary contribution and its
//! comparators:
//!
//! * [`quad`] — quadrant sequences and quad-tree cells over the unit square
//!   (the shared foundation; §IV-B "Quadrant Sequence").
//! * [`xzstar`] — the **XZ\*** index: enlarged elements, position codes,
//!   the bijective integer encoding `V(s, p)` (§IV-B/C), global pruning
//!   (Lemmas 6–11, Algorithm 1) and the best-first traversal used by top-k
//!   search (Algorithm 4).
//! * [`xz2`] — classic XZ-Ordering (Böhm et al.), the index GeoMesa/JUST
//!   use; the baseline the paper's I/O-reduction numbers are measured
//!   against.
//! * [`ranges`] — coalescing of index values into contiguous scan ranges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::as_conversions,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

/// Asserts an index invariant under `debug_assertions`, compiling to
/// nothing in release builds.
///
/// Used at encode/decode boundaries to check bijectivity (`decode(encode(s))
/// == s`) and at range construction to check monotonicity (`start <= end`)
/// without taxing release-mode query latency.
#[macro_export]
macro_rules! debug_invariant {
    ($cond:expr $(, $($arg:tt)+)?) => {
        debug_assert!($cond $(, $($arg)+)?)
    };
}

pub mod quad;
pub mod ranges;
pub mod xz2;
pub mod xzstar;

pub use quad::Cell;
pub use ranges::ValueRange;
pub use xzstar::{IndexSpace, PositionCode, XzStar};
