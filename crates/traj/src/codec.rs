//! Compact binary encoding of trajectories and DP features.
//!
//! This is the value format of the trajectory table (Table I): the `points`
//! column stores the raw point sequence, `dp-points` the representative
//! indices, and `dp-mbrs` the oriented covering boxes. Everything is
//! little-endian and length-prefixed; no self-describing serialization is
//! used because row values dominate the store's footprint.

use crate::dp::DpFeatures;
use std::fmt;
use trass_geo::{OrientedBox, Point};

/// Error decoding a stored value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared payload.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A declared count or index was inconsistent with the data.
    Corrupt {
        /// What was being decoded.
        context: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated value while decoding {context}")
            }
            CodecError::Corrupt { context } => write!(f, "corrupt value while decoding {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Corrupt { context })?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

/// Encodes a point sequence: `u32 count` then `count × (f64, f64)`.
pub fn encode_points(points: &[Point]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + points.len() * 16);
    put_u32(&mut out, points.len() as u32);
    for p in points {
        put_point(&mut out, p);
    }
    out
}

/// Decodes a point sequence written by [`encode_points`].
pub fn decode_points(buf: &[u8]) -> Result<Vec<Point>, CodecError> {
    Ok(PointsView::parse(buf)?.iter().collect())
}

/// The little-endian `f64` at `b[at..at + 8]`; NaN where `b` is too short,
/// which a validated column never is.
#[inline]
fn f64_at(b: &[u8], at: usize) -> f64 {
    let bytes = at.checked_add(8).and_then(|end| b.get(at..end));
    bytes.and_then(|b| <[u8; 8]>::try_from(b).ok()).map_or(f64::NAN, f64::from_le_bytes)
}

/// The little-endian `u32` at `b[at..at + 4]`; `u32::MAX` where `b` is too
/// short, which a validated column never is.
#[inline]
fn u32_at(b: &[u8], at: usize) -> u32 {
    let bytes = at.checked_add(4).and_then(|end| b.get(at..end));
    bytes.and_then(|b| <[u8; 4]>::try_from(b).ok()).map_or(u32::MAX, u32::from_le_bytes)
}

/// A points column written by [`encode_points`], validated and read where
/// it lies: no point is copied until asked for.
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    /// Exactly `16 × len` bytes, `(x, y)` per point.
    bytes: &'a [u8],
}

impl<'a> PointsView<'a> {
    /// Validates `buf` exactly as [`decode_points`] does, with the same
    /// error for the same damage, and allocates nothing.
    pub fn parse(buf: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let n = r.u32("points count")? as usize;
        // Guard against a corrupt count causing a huge allocation.
        if n.saturating_mul(16) > buf.len() {
            return Err(CodecError::Corrupt { context: "points count" });
        }
        let bytes = r.take(n * 16, "point")?;
        if !r.finished() {
            return Err(CodecError::Corrupt { context: "trailing bytes after points" });
        }
        Ok(PointsView { bytes })
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 16
    }

    /// True when the column holds no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Point `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Point> {
        let at = i.checked_mul(16).filter(|&at| at < self.bytes.len())?;
        Some(Point::new(f64_at(self.bytes, at), f64_at(self.bytes, at + 8)))
    }

    /// The first point.
    pub fn first(&self) -> Option<Point> {
        self.get(0)
    }

    /// The last point.
    pub fn last(&self) -> Option<Point> {
        self.get(self.len().checked_sub(1)?)
    }

    /// The points in order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + 'a {
        self.bytes.chunks_exact(16).map(|c| Point::new(f64_at(c, 0), f64_at(c, 8)))
    }
}

/// Encodes DP features: representative indices and covering boxes.
/// Representative *points* are not stored — they are recoverable from the
/// raw point column, which is always fetched alongside.
pub fn encode_features(features: &DpFeatures) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(8 + features.rep_indices.len() * 4 + features.boxes.len() * 48);
    put_u32(&mut out, features.rep_indices.len() as u32);
    for &i in &features.rep_indices {
        put_u32(&mut out, i);
    }
    put_u32(&mut out, features.boxes.len() as u32);
    for b in &features.boxes {
        put_point(&mut out, &b.center);
        put_point(&mut out, &b.axis);
        put_f64(&mut out, b.half_u);
        put_f64(&mut out, b.half_v);
    }
    out
}

/// Decodes DP features written by [`encode_features`], resolving
/// representative points against the raw `points` column.
pub fn decode_features(buf: &[u8], points: &[Point]) -> Result<DpFeatures, CodecError> {
    let view = FeaturesView::parse(buf, points.len())?;
    let mut features = DpFeatures {
        rep_indices: Vec::with_capacity(view.n_reps()),
        rep_points: Vec::with_capacity(view.n_reps()),
        boxes: Vec::with_capacity(view.n_boxes()),
    };
    view.decode_into(&mut features, |i| points.get(i).copied())?;
    Ok(features)
}

/// Bytes of one encoded covering box: center, axis, `half_u`, `half_v`.
const BOX_LEN: usize = 48;

/// A features column written by [`encode_features`], validated against
/// the length of its row's points column without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FeaturesView<'a> {
    /// Exactly `4 × n_reps` bytes of representative indices.
    reps: &'a [u8],
    /// Exactly `48 × n_boxes` bytes of covering boxes.
    boxes: &'a [u8],
}

impl<'a> FeaturesView<'a> {
    /// Validates `buf` exactly as [`decode_features`] does against a
    /// points column of `n_points` points, with the same error for the
    /// same damage.
    pub fn parse(buf: &'a [u8], n_points: usize) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let n_rep = r.u32("rep count")? as usize;
        if n_rep.saturating_mul(4) > buf.len() {
            return Err(CodecError::Corrupt { context: "rep count" });
        }
        let reps = r.take(n_rep * 4, "rep index")?;
        if reps.chunks_exact(4).any(|i| u32_at(i, 0) as usize >= n_points) {
            return Err(CodecError::Corrupt { context: "rep index out of range" });
        }
        let n_boxes = r.u32("box count")? as usize;
        if n_boxes.saturating_mul(BOX_LEN) > buf.len() {
            return Err(CodecError::Corrupt { context: "box count" });
        }
        let left = buf.len().saturating_sub(r.pos);
        let Ok(boxes) = r.take(n_boxes * BOX_LEN, "box") else {
            // Name the field the box-by-box read would have stopped in.
            let context = match left % BOX_LEN {
                0..=15 => "box center",
                16..=31 => "box axis",
                32..=39 => "box half_u",
                _ => "box half_v",
            };
            return Err(CodecError::Truncated { context });
        };
        if !r.finished() {
            return Err(CodecError::Corrupt { context: "trailing bytes after features" });
        }
        Ok(FeaturesView { reps, boxes })
    }

    /// Number of representative points.
    pub fn n_reps(&self) -> usize {
        self.reps.len() / 4
    }

    /// Number of covering boxes.
    pub fn n_boxes(&self) -> usize {
        self.boxes.len() / BOX_LEN
    }

    /// Replaces `out` with these features, reusing its allocations.
    /// `point(i)` resolves representative index `i` against the row's
    /// points column; an index it cannot resolve is corruption.
    pub fn decode_into(
        &self,
        out: &mut DpFeatures,
        point: impl Fn(usize) -> Option<Point>,
    ) -> Result<(), CodecError> {
        out.rep_indices.clear();
        out.rep_points.clear();
        out.boxes.clear();
        for i in self.reps.chunks_exact(4).map(|i| u32_at(i, 0)) {
            let p = point(i as usize)
                .ok_or(CodecError::Corrupt { context: "rep index out of range" })?;
            out.rep_indices.push(i);
            out.rep_points.push(p);
        }
        out.boxes.extend(self.boxes.chunks_exact(BOX_LEN).map(|b| OrientedBox {
            center: Point::new(f64_at(b, 0), f64_at(b, 8)),
            axis: Point::new(f64_at(b, 16), f64_at(b, 24)),
            half_u: f64_at(b, 32),
            half_v: f64_at(b, 40),
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trajectory;

    fn sample_points() -> Vec<Point> {
        (0..20).map(|i| Point::new(i as f64 * 0.5, ((i * 7) % 5) as f64 - 2.0)).collect()
    }

    #[test]
    fn points_roundtrip() {
        let pts = sample_points();
        let enc = encode_points(&pts);
        assert_eq!(decode_points(&enc).unwrap(), pts);
    }

    #[test]
    fn empty_points_roundtrip() {
        let enc = encode_points(&[]);
        assert_eq!(decode_points(&enc).unwrap(), Vec::<Point>::new());
    }

    #[test]
    fn truncated_points_error() {
        let pts = sample_points();
        let enc = encode_points(&pts);
        for cut in [1, 3, enc.len() - 1] {
            assert!(matches!(
                decode_points(&enc[..cut]),
                Err(CodecError::Truncated { .. }) | Err(CodecError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_points(&sample_points());
        enc.push(0xFF);
        assert!(matches!(decode_points(&enc), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn oversized_count_rejected_without_allocation() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_points(&enc), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn features_roundtrip() {
        let pts = sample_points();
        let traj = Trajectory::new(1, pts.clone());
        let f = DpFeatures::extract(&traj, 0.5);
        let enc = encode_features(&f);
        let dec = decode_features(&enc, &pts).unwrap();
        assert_eq!(dec, f);
    }

    #[test]
    fn features_with_bad_index_rejected() {
        let pts = sample_points();
        let traj = Trajectory::new(1, pts.clone());
        let f = DpFeatures::extract(&traj, 0.5);
        let enc = encode_features(&f);
        // Decoding against a shorter point column invalidates indices.
        assert!(matches!(decode_features(&enc, &pts[..1]), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn single_point_features_roundtrip() {
        let pts = vec![Point::new(1.0, 2.0)];
        let traj = Trajectory::new(9, pts.clone());
        let f = DpFeatures::extract(&traj, 0.01);
        let dec = decode_features(&encode_features(&f), &pts).unwrap();
        assert_eq!(dec, f);
        assert!(dec.boxes.is_empty());
    }

    #[test]
    fn encoding_is_compact() {
        // 20 points => 4 + 320 bytes exactly; no serialization overhead.
        let pts = sample_points();
        assert_eq!(encode_points(&pts).len(), 4 + 20 * 16);
    }
}
