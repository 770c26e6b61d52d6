//! Quad-tree cells and quadrant sequences over the unit square.
//!
//! The unit square is recursively split into four quads numbered in
//! "reversed Z" order (§IV-B, Fig. 3(a)):
//!
//! ```text
//!   2 | 3        (0 = lower-left, 1 = lower-right,
//!   --+--         2 = upper-left, 3 = upper-right)
//!   0 | 1
//! ```
//!
//! A [`Cell`] identifies one sub-square at a given resolution by its integer
//! grid coordinates; the quadrant sequence of the cell is the digit string
//! read off its coordinate bits from the top level down.

use trass_geo::Mbr;

/// The largest supported resolution. Bounded so that XZ\* index values fit
/// in a `u64` (`4·N_is(1) = 52·4^{r-1} − 12 < 2^64` requires `r ≤ 30`).
pub const MAX_RESOLUTION: u8 = 30;

/// A quad-tree cell: the sub-square `[x·w, (x+1)·w) × [y·w, (y+1)·w)` of the
/// unit square, where `w = 2^-level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Grid x coordinate, `0 .. 2^level`.
    pub x: u32,
    /// Grid y coordinate, `0 .. 2^level`.
    pub y: u32,
    /// Resolution (tree depth). Level 0 is the whole unit square.
    pub level: u8,
}

impl Cell {
    /// The root cell (the unit square).
    pub const ROOT: Cell = Cell { x: 0, y: 0, level: 0 };

    /// Creates a cell, validating coordinates against the level.
    ///
    /// # Panics
    /// Panics if `level > MAX_RESOLUTION` or a coordinate is out of range.
    pub fn new(x: u32, y: u32, level: u8) -> Self {
        // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
        assert!(level <= MAX_RESOLUTION, "level {level} exceeds MAX_RESOLUTION");
        let side = 1u32 << level;
        // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
        assert!(x < side && y < side, "cell ({x},{y}) out of range at level {level}");
        Cell { x, y, level }
    }

    /// Side length of the cell in unit-space.
    #[inline]
    pub fn width(&self) -> f64 {
        0.5f64.powi(i32::from(self.level))
    }

    /// The cell containing the unit-space point `(px, py)` at `level`.
    /// Coordinates are clamped into `[0, 1)`-cell range so `1.0` maps to the
    /// last cell.
    pub fn containing(px: f64, py: f64, level: u8) -> Self {
        // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
        assert!(level <= MAX_RESOLUTION);
        let side = 1u64 << level;
        let clamp = |v: f64| -> u32 {
            // Float → grid truncation is the intended rounding here; the
            // clamp saturates out-of-range input, and `side ≤ 2^30` keeps
            // every grid index exact in f64 and within u32.
            #[allow(clippy::as_conversions)]
            let i = (v * side as f64).floor().max(0.0) as u64;
            u32::try_from(i.min(side - 1)).unwrap_or(u32::MAX)
        };
        Cell { x: clamp(px), y: clamp(py), level }
    }

    /// The cell's spatial extent.
    pub fn mbr(&self) -> Mbr {
        let w = self.width();
        let x0 = f64::from(self.x) * w;
        let y0 = f64::from(self.y) * w;
        Mbr::new(x0, y0, x0 + w, y0 + w)
    }

    /// The *enlarged element* of the cell: width and height doubled toward
    /// the upper-right (§IV-B), possibly extending past the unit square.
    pub fn enlarged(&self) -> Mbr {
        let w = self.width();
        let x0 = f64::from(self.x) * w;
        let y0 = f64::from(self.y) * w;
        Mbr::new(x0, y0, x0 + 2.0 * w, y0 + 2.0 * w)
    }

    /// The quadrant digit (0–3) of this cell within its parent.
    #[inline]
    pub fn quadrant(&self) -> u8 {
        debug_assert!(self.level > 0, "root has no quadrant");
        (u8::from(self.y & 1 != 0) << 1) | u8::from(self.x & 1 != 0)
    }

    /// Parent cell, or `None` for the root.
    pub fn parent(&self) -> Option<Cell> {
        if self.level == 0 {
            return None;
        }
        Some(Cell { x: self.x >> 1, y: self.y >> 1, level: self.level - 1 })
    }

    /// The four children, in quadrant order 0–3.
    ///
    /// # Panics
    /// Panics if already at [`MAX_RESOLUTION`].
    pub fn children(&self) -> [Cell; 4] {
        // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
        assert!(self.level < MAX_RESOLUTION, "cannot split beyond MAX_RESOLUTION");
        let (x, y, l) = (self.x << 1, self.y << 1, self.level + 1);
        [
            Cell { x, y, level: l },
            Cell { x: x + 1, y, level: l },
            Cell { x, y: y + 1, level: l },
            Cell { x: x + 1, y: y + 1, level: l },
        ]
    }

    /// Child in the given quadrant (0–3).
    pub fn child(&self, quadrant: u8) -> Cell {
        debug_assert!(quadrant < 4);
        self.children()[usize::from(quadrant)]
    }

    /// The quadrant sequence (digit string) identifying this cell from the
    /// root, most significant first. The root yields an empty sequence.
    pub fn sequence(&self) -> Vec<u8> {
        let mut seq = Vec::with_capacity(usize::from(self.level));
        for depth in (0..self.level).rev() {
            let xbit = (self.x >> depth) & 1 != 0;
            let ybit = (self.y >> depth) & 1 != 0;
            seq.push((u8::from(ybit) << 1) | u8::from(xbit));
        }
        seq
    }

    /// Reconstructs a cell from its quadrant sequence.
    ///
    /// # Panics
    /// Panics on digits outside 0–3 or sequences longer than
    /// [`MAX_RESOLUTION`].
    pub fn from_sequence(seq: &[u8]) -> Cell {
        // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
        assert!(seq.len() <= usize::from(MAX_RESOLUTION), "sequence too long");
        let mut x = 0u32;
        let mut y = 0u32;
        for &d in seq {
            // trass-lint: allow(panic-surface) constructor contract: level/coordinate bounds are validated at the API boundary; a violation is a caller bug, not a runtime condition
            assert!(d < 4, "invalid quadrant digit {d}");
            x = (x << 1) | u32::from(d & 1);
            y = (y << 1) | u32::from((d >> 1) & 1);
        }
        Cell { x, y, level: u8::try_from(seq.len()).unwrap_or(MAX_RESOLUTION) }
    }

    /// Convenience: the sequence rendered as a string like `"031"`.
    pub fn sequence_string(&self) -> String {
        self.sequence().iter().map(|d| char::from(b'0' + d)).collect()
    }
}

/// Lemmas 1–2 (shared by XZ-Ordering and XZ\*): the quadrant-sequence
/// length for an MBR in unit space under a maximum resolution `g`.
///
/// `l1 = ⌊log₀.₅ max(w, h)⌋`; use `l1 + 1` iff the enlarged element at that
/// resolution, anchored at the cell containing the MBR's lower-left corner,
/// still covers the MBR. Degenerate (point) MBRs land at `g`.
pub fn sequence_length(mbr: &Mbr, g: u8) -> u8 {
    let max_dim = mbr.width().max(mbr.height());
    if max_dim <= 0.0 {
        return g;
    }
    let l1 = (max_dim.ln() / 0.5f64.ln()).floor();
    if l1 >= f64::from(g) {
        return g;
    }
    if l1 < 0.0 {
        return 0;
    }
    // In range [0, g) by the guards above, so the truncation is exact.
    #[allow(clippy::as_conversions)]
    let l1 = l1 as u8;
    let w2 = 0.5f64.powi(i32::from(l1) + 1);
    let fits = |min: f64, max: f64| max <= (min / w2).floor() * w2 + 2.0 * w2;
    if fits(mbr.min_x, mbr.max_x) && fits(mbr.min_y, mbr.max_y) {
        (l1 + 1).min(g)
    } else {
        l1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_geo::Point;

    #[test]
    fn root_cell_covers_unit_square() {
        assert_eq!(Cell::ROOT.mbr(), Mbr::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(Cell::ROOT.enlarged(), Mbr::new(0.0, 0.0, 2.0, 2.0));
        assert!(Cell::ROOT.sequence().is_empty());
    }

    #[test]
    fn reversed_z_quadrant_order() {
        let kids = Cell::ROOT.children();
        // 0 = lower-left, 1 = lower-right, 2 = upper-left, 3 = upper-right.
        assert!(kids[0].mbr().contains_point(&Point::new(0.25, 0.25)));
        assert!(kids[1].mbr().contains_point(&Point::new(0.75, 0.25)));
        assert!(kids[2].mbr().contains_point(&Point::new(0.25, 0.75)));
        assert!(kids[3].mbr().contains_point(&Point::new(0.75, 0.75)));
        for (q, k) in kids.iter().enumerate() {
            assert_eq!(k.quadrant(), q as u8);
            assert_eq!(k.parent().unwrap(), Cell::ROOT);
        }
    }

    #[test]
    fn sequence_roundtrip() {
        let c = Cell::new(5, 6, 3);
        let seq = c.sequence();
        assert_eq!(Cell::from_sequence(&seq), c);
        // x=5=0b101, y=6=0b110 → digits (y,x) from msb: (1,1)=3,(1,0)=2,(0,1)=1
        assert_eq!(seq, vec![3, 2, 1]);
        assert_eq!(c.sequence_string(), "321");
    }

    #[test]
    fn paper_figure_sequences() {
        // Fig. 3(b): '00' is the lower-left cell at level 2; '30' the
        // lower-left child of the upper-right quad.
        let c00 = Cell::from_sequence(&[0, 0]);
        assert_eq!((c00.x, c00.y, c00.level), (0, 0, 2));
        let c30 = Cell::from_sequence(&[3, 0]);
        assert!(c30.mbr().contains_point(&Point::new(0.55, 0.55)));
        let c311 = Cell::from_sequence(&[3, 1, 1]);
        assert_eq!(c311.level, 3);
        assert!(c311.width() < c30.width());
    }

    #[test]
    fn containing_point_lookup() {
        let c = Cell::containing(0.3, 0.7, 1);
        assert_eq!((c.x, c.y), (0, 1)); // upper-left quad
        assert_eq!(c.quadrant(), 2);
        // Boundary 1.0 clamps to the last cell.
        let c = Cell::containing(1.0, 1.0, 4);
        assert_eq!((c.x, c.y), (15, 15));
        // Negative (out-of-extent noise) clamps to zero.
        let c = Cell::containing(-0.1, 0.5, 2);
        assert_eq!(c.x, 0);
    }

    #[test]
    fn enlarged_doubles_toward_upper_right() {
        let c = Cell::new(1, 1, 2); // cell [0.25,0.5) x [0.25,0.5)
        let e = c.enlarged();
        assert_eq!(e, Mbr::new(0.25, 0.25, 0.75, 0.75));
        // It contains the cell itself in its lower-left quarter.
        assert!(e.contains(&c.mbr()));
    }

    #[test]
    fn children_partition_parent() {
        let c = Cell::new(2, 3, 3);
        let kids = c.children();
        let area: f64 = kids.iter().map(|k| k.mbr().area()).sum();
        assert!((area - c.mbr().area()).abs() < 1e-15);
        for k in &kids {
            assert!(c.mbr().contains(&k.mbr()));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_cell_rejected() {
        Cell::new(4, 0, 2);
    }
}
