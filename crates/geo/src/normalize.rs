//! Mapping between world coordinates and the unit square.
//!
//! The XZ\* index (like GeoMesa's XZ2) operates on `[0, 1]²`. TraSS covers
//! the whole earth by default (§VI: "The entire index space of the XZ\*
//! index covers the earth"); a [`NormalizedSpace`] captures that affine
//! mapping and lets tests use smaller synthetic extents.

use crate::{Mbr, Point};

/// An affine mapping from a world-coordinate rectangle to the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedSpace {
    /// World-coordinate extent mapped onto `[0,1]²`.
    pub extent: Mbr,
}

/// The whole-earth space used by TraSS by default: longitude `[-180, 180]`,
/// latitude `[-90, 90]`.
pub const WORLD: NormalizedSpace =
    NormalizedSpace { extent: Mbr { min_x: -180.0, min_y: -90.0, max_x: 180.0, max_y: 90.0 } };

/// The whole earth embedded in a *square* extent (`[-180, 180]²`).
///
/// Distance-based pruning (Lemmas 5–14) needs Euclidean distances to scale
/// uniformly between world and unit space, which requires a square extent;
/// latitudes occupy the lower half of the square and the upper half simply
/// stays unused by the index.
pub const WORLD_SQUARE: NormalizedSpace =
    NormalizedSpace { extent: Mbr { min_x: -180.0, min_y: -90.0, max_x: 180.0, max_y: 270.0 } };

impl NormalizedSpace {
    /// Creates a space over the given world extent.
    ///
    /// # Panics
    /// Panics if the extent has zero width or height.
    pub fn new(extent: Mbr) -> Self {
        assert!(extent.width() > 0.0 && extent.height() > 0.0, "degenerate space extent");
        NormalizedSpace { extent }
    }

    /// A *square* space covering `extent`: the extent is padded upward /
    /// rightward to its longer side, so world↔unit distance scaling is
    /// uniform ([`NormalizedSpace::distance_to_unit`] becomes exact).
    pub fn square(extent: Mbr) -> Self {
        let side = extent.width().max(extent.height());
        assert!(side > 0.0, "degenerate space extent");
        Self::new(Mbr::new(extent.min_x, extent.min_y, extent.min_x + side, extent.min_y + side))
    }

    /// Whether the extent is square (up to floating-point tolerance).
    pub fn is_square(&self) -> bool {
        (self.extent.width() - self.extent.height()).abs()
            <= 1e-9 * self.extent.width().max(self.extent.height())
    }

    /// Exact world→unit distance conversion for square spaces.
    ///
    /// # Panics
    /// Panics when the space is not square.
    pub fn distance_to_unit(&self, d: f64) -> f64 {
        assert!(self.is_square(), "exact distance scaling requires a square space");
        d / self.extent.width()
    }

    /// Exact unit→world distance conversion for square spaces.
    ///
    /// # Panics
    /// Panics when the space is not square.
    pub fn distance_to_world(&self, d: f64) -> f64 {
        assert!(self.is_square(), "exact distance scaling requires a square space");
        d * self.extent.width()
    }

    /// Maps a world point into the unit square, clamping to `[0, 1]`.
    ///
    /// Clamping means out-of-extent inputs (e.g. GPS noise slightly past the
    /// antimeridian) index to the nearest boundary cell instead of panicking.
    pub fn to_unit(&self, p: &Point) -> Point {
        Point::new(
            ((p.x - self.extent.min_x) / self.extent.width()).clamp(0.0, 1.0),
            ((p.y - self.extent.min_y) / self.extent.height()).clamp(0.0, 1.0),
        )
    }

    /// Maps a world MBR into unit space (clamped).
    pub fn mbr_to_unit(&self, mbr: &Mbr) -> Mbr {
        let ll = self.to_unit(&mbr.lower_left());
        let ur = self.to_unit(&mbr.upper_right());
        Mbr::from_corners(ll, ur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_maps_into_the_unit_square() {
        let u = WORLD.to_unit(&Point::new(116.4, 39.9)); // Beijing
        assert!((u.x - 296.4 / 360.0).abs() < 1e-12 && (u.y - 129.9 / 180.0).abs() < 1e-12);
    }

    #[test]
    fn corners_map_to_unit_corners() {
        assert_eq!(WORLD.to_unit(&Point::new(-180.0, -90.0)), Point::new(0.0, 0.0));
        assert_eq!(WORLD.to_unit(&Point::new(180.0, 90.0)), Point::new(1.0, 1.0));
    }

    #[test]
    fn out_of_extent_clamps() {
        assert_eq!(WORLD.to_unit(&Point::new(-200.0, 100.0)), Point::new(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_extent_panics() {
        NormalizedSpace::new(Mbr::new(0.0, 0.0, 0.0, 1.0));
    }

    #[test]
    fn square_space_scaling_is_exact() {
        let s = NormalizedSpace::square(Mbr::new(100.0, 30.0, 120.0, 45.0));
        assert!(s.is_square());
        assert_eq!(s.extent.width(), 20.0);
        // World distance 2° → unit 0.1, roundtrip exact.
        assert_eq!(s.distance_to_unit(2.0), 0.1);
        assert_eq!(s.distance_to_world(0.1), 2.0);
        // Point distances scale by the same factor.
        let a = Point::new(105.0, 31.0);
        let b = Point::new(108.0, 35.0);
        let (ua, ub) = (s.to_unit(&a), s.to_unit(&b));
        let scaled = ua.distance(&ub);
        assert!((scaled - s.distance_to_unit(a.distance(&b))).abs() < 1e-12);
    }

    #[test]
    fn world_square_covers_all_coordinates() {
        assert!(WORLD_SQUARE.is_square());
        let beijing = Point::new(116.4, 39.9);
        let u = WORLD_SQUARE.to_unit(&beijing);
        assert!(u.x > 0.0 && u.x < 1.0 && u.y > 0.0 && u.y < 0.5);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn exact_scaling_rejects_non_square() {
        WORLD.distance_to_unit(1.0);
    }
}
