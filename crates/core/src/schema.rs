//! The trajectory table (Table I) and rowkey layout (§IV-E).
//!
//! ```text
//! rowkey = shard (1 byte) + index value (8 bytes, big-endian) + tid (8 bytes, big-endian)
//! value  = [points column][dp-points + dp-mbrs columns]   (length-prefixed)
//! ```
//!
//! Big-endian integers make byte-lexicographic key order equal numeric
//! order, so an index-value range is exactly one rowkey range per shard.
//! The alternative *string* rowkey (`TraSS-S` in Fig. 13) spells out the
//! quadrant sequence and position code as text; [`string_rowkey`] exists to
//! reproduce that storage-overhead comparison.

use trass_geo::Point;
use trass_index::ranges::ValueRange;
use trass_index::xzstar::IndexSpace;
use trass_kv::Bytes;
use trass_kv::KeyRange;
use trass_traj::codec::{self, CodecError, FeaturesView, PointsView};
use trass_traj::{DpFeatures, TrajectoryId};

/// Length of an integer-encoded rowkey.
pub const ROWKEY_LEN: usize = 1 + 8 + 8;

/// Spreads trajectory ids over shards (the §IV-E "hash number").
/// SplitMix64 finalizer: cheap and avalanching, so sequential ids spread
/// evenly.
pub fn shard_of(tid: TrajectoryId, shards: u8) -> u8 {
    let mut z = tid.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // trass-lint: allow(panic-surface) shard router: `shards` comes from TrassConfig which clamps it to >= 1
    (z % shards as u64) as u8
}

/// Builds the integer rowkey `shard + index value + tid`.
pub fn rowkey(shard: u8, index_value: u64, tid: TrajectoryId) -> Vec<u8> {
    let mut key = Vec::with_capacity(ROWKEY_LEN);
    key.push(shard);
    key.extend_from_slice(&index_value.to_be_bytes());
    key.extend_from_slice(&tid.to_be_bytes());
    key
}

/// Parses a rowkey back into `(shard, index value, tid)`.
pub fn parse_rowkey(key: &[u8]) -> Option<(u8, u64, TrajectoryId)> {
    if key.len() != ROWKEY_LEN {
        return None;
    }
    let shard = *key.first()?;
    let value = u64::from_be_bytes(key.get(1..9)?.try_into().ok()?);
    let tid = u64::from_be_bytes(key.get(9..17)?.try_into().ok()?);
    Some((shard, value, tid))
}

/// The rowkey range covering index values `[lo, hi]` within one shard.
pub fn rowkey_range(shard: u8, lo: u64, hi: u64) -> KeyRange {
    debug_assert!(lo <= hi);
    let start = rowkey(shard, lo, 0);
    // End is exclusive: first key of value hi+1 (or of the next shard when
    // hi + 1 overflows, which cannot happen for real index values).
    let end = match hi.checked_add(1) {
        Some(next) => rowkey(shard, next, 0),
        None => {
            let mut k = vec![shard];
            k.extend_from_slice(&u64::MAX.to_be_bytes());
            k.extend_from_slice(&u64::MAX.to_be_bytes());
            k.push(0);
            k
        }
    };
    KeyRange::new(start, end)
}

/// Fans index-value ranges out over every shard: one rowkey range per
/// `(shard, value range)` pair, shard-major — the scan plan of any query
/// over a `shard + index value + tid` table.
pub fn shard_key_ranges(shards: u8, value_ranges: &[ValueRange]) -> Vec<KeyRange> {
    let mut key_ranges = Vec::with_capacity(value_ranges.len() * usize::from(shards));
    for shard in 0..shards {
        for vr in value_ranges {
            key_ranges.push(rowkey_range(shard, vr.start, vr.end));
        }
    }
    key_ranges
}

/// The string rowkey of the `TraSS-S` ablation (Fig. 13(c)): the quadrant
/// sequence as ASCII digits, the position code, and the tid.
pub fn string_rowkey(shard: u8, space: &IndexSpace, tid: TrajectoryId) -> Vec<u8> {
    let mut key = Vec::new();
    key.push(shard);
    key.extend_from_slice(space.cell.sequence_string().as_bytes());
    key.push(b'#');
    key.extend_from_slice(space.code.0.to_string().as_bytes());
    key.push(b'#');
    key.extend_from_slice(&tid.to_be_bytes());
    key
}

/// One stored row: the `points` column plus the DP-feature columns.
#[derive(Debug, Clone, PartialEq)]
pub struct RowValue {
    /// Raw trajectory points (`points` column).
    pub points: Vec<Point>,
    /// DP representative indices and covering boxes (`dp-points` and
    /// `dp-mbrs` columns).
    pub features: DpFeatures,
}

impl RowValue {
    /// Serializes the row value: `[points_len: u32][points][features]`.
    pub fn encode(&self) -> Bytes {
        let points = codec::encode_points(&self.points);
        let features = codec::encode_features(&self.features);
        let mut out = Vec::with_capacity(4 + points.len() + features.len());
        out.extend_from_slice(&(points.len() as u32).to_le_bytes());
        out.extend_from_slice(&points);
        out.extend_from_slice(&features);
        Bytes::from(out)
    }

    /// Deserializes a row value written by [`RowValue::encode`].
    pub fn decode(buf: &[u8]) -> Result<RowValue, CodecError> {
        let (points_buf, features_buf) = split_columns(buf)?;
        let points = codec::decode_points(points_buf)?;
        let features = codec::decode_features(features_buf, &points)?;
        Ok(RowValue { points, features })
    }
}

/// Splits a row value at its header: `(points column, features column)`.
fn split_columns(buf: &[u8]) -> Result<(&[u8], &[u8]), CodecError> {
    let truncated = |context| CodecError::Truncated { context };
    let header = buf.get(..4).and_then(|h| <[u8; 4]>::try_from(h).ok());
    let points_len = u32::from_le_bytes(header.ok_or(truncated("row value header"))?) as usize;
    let rest = buf.get(4..).unwrap_or_default();
    if points_len > rest.len() {
        return Err(truncated("row value points column"));
    }
    Ok(rest.split_at(points_len))
}

/// A stored row read where it lies: [`RowValue::decode`]'s validation,
/// error for error, without allocating. The push-down filters test rows
/// through it, so a rejected row costs its verdict and no copy.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    points: PointsView<'a>,
    features: FeaturesView<'a>,
}

impl<'a> RowView<'a> {
    /// Validates a row value written by [`RowValue::encode`]; fails where
    /// [`RowValue::decode`] fails, with the same error.
    pub fn parse(buf: &'a [u8]) -> Result<RowView<'a>, CodecError> {
        let (points_buf, features_buf) = split_columns(buf)?;
        let points = PointsView::parse(points_buf)?;
        let features = FeaturesView::parse(features_buf, points.len())?;
        Ok(RowView { points, features })
    }

    /// The `points` column.
    pub fn points(&self) -> PointsView<'a> {
        self.points
    }

    /// Replaces `out` with the row's DP features, reusing its allocations;
    /// the representative points are read from the points column.
    pub fn features_into(&self, out: &mut DpFeatures) -> Result<(), CodecError> {
        self.features.decode_into(out, |i| self.points.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_traj::Trajectory;

    #[test]
    fn rowkey_roundtrip() {
        let key = rowkey(3, 0xDEAD_BEEF, 42);
        assert_eq!(key.len(), ROWKEY_LEN);
        assert_eq!(parse_rowkey(&key), Some((3, 0xDEAD_BEEF, 42)));
        assert_eq!(parse_rowkey(&key[..10]), None);
    }

    #[test]
    fn rowkey_order_matches_value_order() {
        // Big-endian: lexicographic byte order == numeric order.
        let mut keys: Vec<Vec<u8>> = [(0u64, 5u64), (1, 0), (1, 7), (2, 3), (300, 1)]
            .iter()
            .map(|&(v, t)| rowkey(1, v, t))
            .collect();
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn rowkey_range_covers_exactly_the_values() {
        let r = rowkey_range(2, 10, 12);
        assert!(r.contains(&rowkey(2, 10, 0)));
        assert!(r.contains(&rowkey(2, 10, u64::MAX)));
        assert!(r.contains(&rowkey(2, 12, u64::MAX)));
        assert!(!r.contains(&rowkey(2, 13, 0)));
        assert!(!r.contains(&rowkey(2, 9, u64::MAX)));
        assert!(!r.contains(&rowkey(1, 11, 0)), "other shard excluded");
    }

    #[test]
    fn shard_key_ranges_are_shard_major() {
        let vrs = [ValueRange { start: 10, end: 12 }, ValueRange::single(40)];
        let expected: Vec<KeyRange> = [(0, 10, 12), (0, 40, 40), (1, 10, 12), (1, 40, 40)]
            .map(|(s, a, b)| rowkey_range(s, a, b))
            .into();
        assert_eq!(shard_key_ranges(2, &vrs), expected);
    }

    #[test]
    fn shard_of_disperses_sequential_ids() {
        let shards = 8u8;
        let mut counts = vec![0usize; shards as usize];
        for tid in 0..8000u64 {
            counts[shard_of(tid, shards) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "shard {s} got {c} of 8000 — poor dispersion");
        }
    }

    #[test]
    fn shard_of_is_stable() {
        assert_eq!(shard_of(12345, 8), shard_of(12345, 8));
        assert!(shard_of(1, 1) == 0);
    }

    #[test]
    fn row_value_roundtrip() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new(116.0 + i as f64 * 0.001, 39.9 + (i % 7) as f64 * 0.002))
            .collect();
        let traj = Trajectory::new(9, points.clone());
        let features = DpFeatures::extract(&traj, 0.003);
        let row = RowValue { points, features };
        let enc = row.encode();
        assert_eq!(RowValue::decode(&enc).unwrap(), row);
    }

    #[test]
    fn row_value_rejects_corruption() {
        let points = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let traj = Trajectory::new(1, points.clone());
        let row = RowValue { points, features: DpFeatures::extract(&traj, 0.01) };
        let enc = row.encode();
        assert!(RowValue::decode(&enc[..3]).is_err());
        assert!(RowValue::decode(&enc[..enc.len() - 2]).is_err());
        let mut huge = enc.to_vec();
        huge[0] = 0xFF;
        huge[1] = 0xFF;
        assert!(RowValue::decode(&huge).is_err());
    }

    #[test]
    fn integer_rowkey_is_smaller_than_string_rowkey() {
        // Fig. 13(c): integer encoding cuts rowkey bytes vs TraSS-S.
        use trass_index::xzstar::XzStar;
        let index = XzStar::new(16);
        let points: Vec<Point> = vec![Point::new(0.41231, 0.33127), Point::new(0.41233, 0.33129)];
        let space = index.index_points(&points);
        assert!(space.cell.level >= 10, "deep space for a fair comparison");
        let int_key = rowkey(1, index.encode(&space), 77);
        let str_key = string_rowkey(1, &space, 77);
        assert!(int_key.len() < str_key.len(), "int {} vs string {}", int_key.len(), str_key.len());
    }
}
