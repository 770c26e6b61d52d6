//! Geometry kernel for TraSS.
//!
//! Everything in TraSS — the XZ\* index, the pruning lemmas, the local
//! filtering over Douglas-Peucker features — reduces to a small set of
//! planar geometry primitives and distance predicates. This crate provides
//! them with no external geometry dependency:
//!
//! * [`Point`] — a 2-D point (`x` = longitude, `y` = latitude in most of the
//!   workspace, but the kernel is coordinate-system agnostic).
//! * [`Segment`] — a line segment between two points.
//! * [`Mbr`] — an axis-aligned minimum bounding rectangle.
//! * [`OrientedBox`] — a rotated rectangle, used for the DP-feature bounding
//!   boxes of §IV-D of the paper ("not necessarily parallel to the
//!   coordinate axis").
//! * [`NormalizedSpace`] — mapping between world coordinates (degrees over
//!   the whole earth) and the unit square the space-filling indexes operate
//!   on.
//! * [`douglas_peucker`] — Douglas-Peucker index selection, shared by the
//!   stored DP features (`trass-traj`) and the query-side covering boxes
//!   (`trass-index`).
//!
//! All distances are Euclidean in the coordinate space of the inputs, as in
//! the paper (which measures similarity thresholds in degrees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::as_conversions, clippy::float_cmp, clippy::print_stdout, clippy::print_stderr)
)]

mod dp;
mod mbr;
mod normalize;
mod obb;
mod point;
mod segment;

pub use dp::douglas_peucker;
pub use mbr::Mbr;
pub use normalize::{NormalizedSpace, WORLD, WORLD_SQUARE};
pub use obb::OrientedBox;
pub use point::Point;
pub use segment::Segment;

/// Relative/absolute tolerance used by approximate comparisons in tests and
/// degenerate-case handling. Coordinates live in `[0, 1]` or degree space, so
/// an absolute epsilon is appropriate.
pub const EPSILON: f64 = 1e-12;
