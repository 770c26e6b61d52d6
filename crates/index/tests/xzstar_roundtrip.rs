//! Property-style round-trip tests for the XZ\* encoding.
//!
//! Thousands of random index spaces from the workspace's seeded generator.
//! Covers the two invariants the encoding must never lose:
//!
//! 1. **Bijectivity** — `decode(encode(s)) == s` for every valid space,
//!    including the root block and position code 10 at max resolution.
//! 2. **Order preservation** — numeric value order equals the
//!    lexicographic order of the big-endian rowkey bytes, and every
//!    descendant space encodes inside its ancestor's `subtree_range`
//!    (the property that lets queries scan contiguous ranges).

use trass_index::quad::{Cell, MAX_RESOLUTION};
use trass_index::xzstar::{IndexSpace, PositionCode, XzStar};
use trass_rng::{check, Rng};

/// A uniformly random valid index space for an index of resolution
/// `max_r`: random quadrant sequence of random length (0 = the root
/// block), random position code (10 allowed only at max resolution).
fn random_space(rng: &mut Rng, max_r: u8) -> IndexSpace {
    let level = rng.u64_in(0, u64::from(max_r)) as u8;
    let seq: Vec<u8> = (0..level).map(|_| (rng.u64() & 3) as u8).collect();
    let cell = Cell::from_sequence(&seq);
    let max_code = if level == max_r { 10 } else { 9 };
    let code = PositionCode::new(rng.u64_in(1, max_code) as u8).expect("code in 1..=10");
    IndexSpace { cell, code }
}

#[test]
fn encode_decode_roundtrip_random_spaces() {
    for max_r in [1, 4, 16, MAX_RESOLUTION] {
        let index = XzStar::new(max_r);
        check(2000, |rng| {
            let space = random_space(rng, max_r);
            let value = index.encode(&space);
            assert!(value < index.total_values(), "value {value} out of range (max_r={max_r})");
            assert_eq!(
                index.decode(value),
                Some(space),
                "round trip failed for {space:?} at max_r={max_r}"
            );
        });
    }
}

#[test]
fn encoded_values_are_distinct() {
    // Bijectivity also means injectivity: distinct spaces never collide.
    let index = XzStar::new(8);
    let mut rng = Rng::new(0xD157_1AC7);
    let mut seen = std::collections::HashMap::new();
    for _ in 0..4000 {
        let space = random_space(&mut rng, 8);
        let value = index.encode(&space);
        if let Some(prev) = seen.insert(value, space) {
            assert_eq!(prev, space, "distinct spaces {prev:?} and {space:?} collided at {value}");
        }
    }
}

#[test]
fn value_order_matches_rowkey_byte_order() {
    // The schema stores values as big-endian bytes inside the rowkey; the
    // contiguous-scan property requires numeric order == byte order.
    let index = XzStar::new(16);
    check(2000, |rng| {
        let a = index.encode(&random_space(rng, 16));
        let b = index.encode(&random_space(rng, 16));
        assert_eq!(a.cmp(&b), a.to_be_bytes().cmp(&b.to_be_bytes()), "{a} vs {b}");
    });
}

#[test]
fn subtree_ranges_cover_descendant_spaces() {
    let max_r = 12;
    let index = XzStar::new(max_r);
    check(500, |rng| {
        // A random ancestor cell, strictly above max resolution.
        let anc_level = rng.u64_in(0, u64::from(max_r) - 1) as u8;
        let seq: Vec<u8> = (0..anc_level).map(|_| (rng.u64() & 3) as u8).collect();
        let ancestor = Cell::from_sequence(&seq);
        let (start, end) = index.subtree_range(&ancestor);
        assert!(start <= end, "empty subtree range for {ancestor:?}");
        // Extend the sequence to a random descendant and check containment.
        let extra = rng.u64_in(0, u64::from(max_r - anc_level)) as u8;
        let mut desc_seq = seq.clone();
        desc_seq.extend((0..extra).map(|_| (rng.u64() & 3) as u8));
        let descendant = Cell::from_sequence(&desc_seq);
        let max_code = if descendant.level == max_r { 10 } else { 9 };
        let code = PositionCode::new(rng.u64_in(1, max_code) as u8).expect("valid code");
        let value = index.encode(&IndexSpace { cell: descendant, code });
        assert!(
            (start..=end).contains(&value),
            "descendant {descendant:?} value {value} outside [{start}, {end}] of {ancestor:?}"
        );
    });
}

#[test]
fn sibling_subtree_ranges_are_disjoint_and_ordered() {
    let index = XzStar::new(10);
    check(200, |rng| {
        let level = rng.u64_in(0, 9) as u8;
        let seq: Vec<u8> = (0..level).map(|_| (rng.u64() & 3) as u8).collect();
        let parent = Cell::from_sequence(&seq);
        let mut prev_end: Option<u64> = None;
        for child in parent.children() {
            let (start, end) = index.subtree_range(&child);
            if let Some(pe) = prev_end {
                assert!(start > pe, "child ranges overlap: {start} <= {pe}");
            }
            prev_end = Some(end);
        }
    });
}

// --- max-resolution boundary cases (the cast-safety hot spots) ---

#[test]
fn containing_clamps_at_unit_square_boundary() {
    // At level 30 the grid is 2^30 cells wide; coordinates at or past 1.0
    // must clamp to the last cell instead of overflowing the u32 indices.
    let side = (1u64 << 30) - 1;
    for level in [1, 16, MAX_RESOLUTION] {
        let last = (1u32 << level) - 1;
        let c = Cell::containing(1.0, 1.0, level);
        assert_eq!((c.x, c.y, c.level), (last, last, level));
        let c = Cell::containing(2.5, 100.0, level);
        assert_eq!((c.x, c.y), (last, last), "overshoot must clamp at level {level}");
        let c = Cell::containing(-0.25, -1e9, level);
        assert_eq!((c.x, c.y), (0, 0), "undershoot must clamp at level {level}");
    }
    let c = Cell::containing(1.0 - 1e-12, 1.0 - 1e-12, MAX_RESOLUTION);
    assert_eq!((u64::from(c.x), u64::from(c.y)), (side, side));
}

#[test]
fn sequence_roundtrip_at_max_resolution() {
    // The deepest corner cells: all-zero and all-three sequences of
    // length 30 exercise every bit of the u32 coordinates.
    let zeros = vec![0u8; usize::from(MAX_RESOLUTION)];
    let c = Cell::from_sequence(&zeros);
    assert_eq!((c.x, c.y, c.level), (0, 0, MAX_RESOLUTION));
    assert_eq!(c.sequence(), zeros);

    let threes = vec![3u8; usize::from(MAX_RESOLUTION)];
    let c = Cell::from_sequence(&threes);
    let last = (1u32 << 30) - 1;
    assert_eq!((c.x, c.y, c.level), (last, last, MAX_RESOLUTION));
    assert_eq!(c.sequence(), threes);
}

#[test]
fn deepest_cells_encode_with_code_ten() {
    // Position code 10 ("all four quads") exists only at max resolution;
    // the deepest corner cells at the 30-level bound must round-trip it.
    let index = XzStar::new(MAX_RESOLUTION);
    let code = PositionCode::new(10).expect("code 10 valid at max resolution");
    for seq_digit in 0u8..4 {
        let seq = vec![seq_digit; usize::from(MAX_RESOLUTION)];
        let cell = Cell::from_sequence(&seq);
        let space = IndexSpace { cell, code };
        let value = index.encode(&space);
        assert!(value < index.total_values());
        assert_eq!(index.decode(value), Some(space));
    }
}

#[test]
fn total_values_matches_exhaustive_count_at_small_resolution() {
    // Exhaustively enumerate every valid space at max_r = 3 and check the
    // encoding is a bijection onto 0..total_values().
    let max_r = 3u8;
    let index = XzStar::new(max_r);
    let mut values = Vec::new();
    let mut stack = vec![Cell::ROOT];
    while let Some(cell) = stack.pop() {
        let max_code = if cell.level == max_r { 10 } else { 9 };
        for code in 1..=max_code {
            let code = PositionCode::new(code).expect("valid code");
            values.push(index.encode(&IndexSpace { cell, code }));
        }
        if cell.level < max_r {
            stack.extend(cell.children());
        }
    }
    values.sort_unstable();
    let expected: Vec<u64> = (0..index.total_values()).collect();
    assert_eq!(values, expected, "encoding is not onto 0..total_values()");
}
