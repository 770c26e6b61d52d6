//! Coalescing index values into contiguous scan ranges.
//!
//! Global pruning emits a set of index values; each value becomes a rowkey
//! range scan against the store. Because the XZ\* encoding numbers spatially
//! close index spaces with close integers (§IV-C), sorting and coalescing
//! adjacent values collapses the set into few wide scans — the paper's
//! "carefully generates range scans" step.

/// An inclusive range of index values `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueRange {
    /// First value in the range.
    pub start: u64,
    /// Last value in the range (inclusive).
    pub end: u64,
}

impl ValueRange {
    /// A single-value range.
    pub fn single(v: u64) -> Self {
        ValueRange { start: v, end: v }
    }

    /// Number of values covered.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Never true — ranges are non-empty by construction — provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` falls in the range.
    pub fn contains(&self, v: u64) -> bool {
        v >= self.start && v <= self.end
    }
}

/// Sorts, deduplicates, and coalesces `values` into inclusive ranges.
/// Values whose gap is `<= max_gap` are merged into one range (a gap of 0
/// merges only consecutive integers). A small positive `max_gap` trades a
/// few extra scanned rows for fewer range scans — the same trade HBase scan
/// planning makes.
pub fn coalesce(mut values: Vec<u64>, max_gap: u64) -> Vec<ValueRange> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_unstable();
    values.dedup();
    let mut out = Vec::new();
    let mut current = ValueRange::single(values[0]);
    // trass-lint: allow(panic-surface) `values` is checked non-empty immediately before `values[1..]`
    for &v in &values[1..] {
        if v - current.end <= max_gap + 1 {
            current.end = v;
        } else {
            out.push(current);
            current = ValueRange::single(v);
        }
    }
    out.push(current);
    out
}

/// Sorts `ranges` by start and merges every pair that overlaps or lies
/// within `max_gap` values of each other, so no index value is scanned
/// twice. Planners that emit whole-subtree ranges next to coalesced
/// singletons (XZ2 windows, XZ\* range queries) finish with this.
pub fn merge_overlapping(mut ranges: Vec<ValueRange>, max_gap: u64) -> Vec<ValueRange> {
    ranges.sort_by_key(|r| r.start);
    let mut out: Vec<ValueRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end.saturating_add(max_gap.saturating_add(1)) => {
                last.end = last.end.max(r.end);
            }
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_adjacent_and_nested_ranges_merge() {
        let r = |start, end| ValueRange { start, end };
        let merged = merge_overlapping(vec![r(10, 12), r(1, 3), r(4, 5), r(2, 8), r(20, 20)], 0);
        assert_eq!(merged, vec![r(1, 8), r(10, 12), r(20, 20)]);
        assert_eq!(merge_overlapping(vec![r(1, 3), r(6, 7)], 2), vec![r(1, 7)]);
        assert_eq!(merge_overlapping(vec![r(0, u64::MAX), r(5, 6)], 0), vec![r(0, u64::MAX)]);
        assert!(merge_overlapping(Vec::new(), 0).is_empty());
    }

    #[test]
    fn empty_input() {
        assert!(coalesce(vec![], 0).is_empty());
    }

    #[test]
    fn consecutive_values_merge() {
        let r = coalesce(vec![3, 1, 2, 7, 8, 10], 0);
        assert_eq!(
            r,
            vec![
                ValueRange { start: 1, end: 3 },
                ValueRange { start: 7, end: 8 },
                ValueRange::single(10),
            ]
        );
    }

    #[test]
    fn duplicates_collapse() {
        let r = coalesce(vec![5, 5, 5, 6, 6], 0);
        assert_eq!(r, vec![ValueRange { start: 5, end: 6 }]);
    }

    #[test]
    fn gap_tolerance_merges_across_holes() {
        let values = vec![1, 2, 5, 6, 20];
        assert_eq!(coalesce(values.clone(), 0).len(), 3);
        assert_eq!(coalesce(values.clone(), 2).len(), 2);
        assert_eq!(coalesce(values, 100).len(), 1);
    }

    #[test]
    fn single_value() {
        assert_eq!(coalesce(vec![42], 0), vec![ValueRange::single(42)]);
    }

    #[test]
    fn range_accessors() {
        let r = ValueRange { start: 3, end: 7 };
        assert_eq!(r.len(), 5);
        assert!(r.contains(3) && r.contains(7) && !r.contains(8));
        assert!(!r.is_empty());
    }

    #[test]
    fn coalescing_preserves_coverage() {
        let values: Vec<u64> = (0..1000).filter(|v| v % 7 != 0).collect();
        for gap in [0u64, 1, 5] {
            let ranges = coalesce(values.clone(), gap);
            for &v in &values {
                assert!(ranges.iter().any(|r| r.contains(v)), "value {v} lost at gap {gap}");
            }
            // Ranges are sorted and non-overlapping.
            for w in ranges.windows(2) {
                assert!(w[0].end < w[1].start);
            }
        }
    }
}
