//! Position codes: the ten feasible sub-quad combinations (§IV-B, Fig. 3(e)).
//!
//! Every enlarged element is split into four equal sub-quads:
//!
//! ```text
//!   c | d        a = the original cell (lower-left),
//!   --+--        b = right, c = above, d = upper-right
//!   a | b
//! ```
//!
//! A trajectory indexed by the element occupies some subset of the quads.
//! Because its MBR's lower-left corner lies in quad `a`, the subset always
//! intersects the left column `{a, c}` and the bottom row `{a, b}`; exactly
//! ten subsets satisfy that, and each gets a *position code*:
//!
//! | code | quads | MBR kind (§IV-B) |
//! |------|-------|------------------|
//! | 1 | a,b | MBR-2 |
//! | 2 | a,c | MBR-3 |
//! | 3 | a,d | MBR-4 |
//! | 4 | a,c,d | MBR-4 |
//! | 5 | a,b,c,d | MBR-4 |
//! | 6 | b,c | MBR-4 |
//! | 7 | a,b,d | MBR-4 |
//! | 8 | b,c,d | MBR-4 |
//! | 9 | a,b,c | MBR-4 |
//! | 10 | a | MBR-1, max resolution only |
//!
//! The codes for `{a,d}` (3), `{a,b,d}` (7) and `{a}` (10) are pinned by the
//! paper's worked pruning examples ("quad-c far ⇒ prune 2,4,5,6,8,9";
//! "quad-b and quad-c far ⇒ only 10 and 3 remain"); the rest follow the
//! paper's MBR-kind grouping with a fixed arbitrary order. The §IV-B
//! average-I/O-reduction figure (83.6 %) is reproduced exactly by a test
//! below, validating the assignment.

/// A set of sub-quads, as a 4-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuadSet(pub u8);

impl QuadSet {
    /// Quad `a` (the cell itself, lower-left).
    pub const A: QuadSet = QuadSet(0b0001);
    /// Quad `b` (lower-right).
    pub const B: QuadSet = QuadSet(0b0010);
    /// Quad `c` (upper-left).
    pub const C: QuadSet = QuadSet(0b0100);
    /// Quad `d` (upper-right).
    pub const D: QuadSet = QuadSet(0b1000);
    /// The empty set.
    pub const EMPTY: QuadSet = QuadSet(0);
    /// All four quads.
    pub const ALL: QuadSet = QuadSet(0b1111);

    /// Set union.
    #[inline]
    pub fn union(self, other: QuadSet) -> QuadSet {
        QuadSet(self.0 | other.0)
    }

    /// Whether the intersection with `other` is non-empty.
    #[inline]
    pub fn intersects(self, other: QuadSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether `self` contains every quad of `other`.
    #[inline]
    pub fn contains(self, other: QuadSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the individual quads in the set (as singleton sets), in
    /// a, b, c, d order.
    pub fn iter(self) -> impl Iterator<Item = QuadSet> {
        (0..4).filter_map(move |i| {
            let q = QuadSet(1 << i);
            self.contains(q).then_some(q)
        })
    }

    /// Index 0–3 of a singleton quad (a=0, b=1, c=2, d=3).
    pub fn quad_index(self) -> Option<usize> {
        match self {
            QuadSet::A => Some(0),
            QuadSet::B => Some(1),
            QuadSet::C => Some(2),
            QuadSet::D => Some(3),
            _ => None,
        }
    }
}

/// A position code, 1–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionCode(pub u8);

/// `CODE_SETS[code - 1]` is the quad set of that position code.
pub const CODE_SETS: [QuadSet; 10] = [
    QuadSet(0b0011), // 1: {a,b}
    QuadSet(0b0101), // 2: {a,c}
    QuadSet(0b1001), // 3: {a,d}
    QuadSet(0b1101), // 4: {a,c,d}
    QuadSet(0b1111), // 5: {a,b,c,d}
    QuadSet(0b0110), // 6: {b,c}
    QuadSet(0b1011), // 7: {a,b,d}
    QuadSet(0b1110), // 8: {b,c,d}
    QuadSet(0b0111), // 9: {a,b,c}
    QuadSet(0b0001), // 10: {a}
];

impl PositionCode {
    /// Code 1 (`{a, b}`), the first code of every element — the anchor of
    /// subtree value ranges.
    pub const P1: PositionCode = PositionCode(1);
    /// Number of codes available below the maximum resolution.
    pub const REGULAR_COUNT: u8 = 9;
    /// Number of codes at the maximum resolution (code 10 = `{a}` appears
    /// only there).
    pub const MAX_RES_COUNT: u8 = 10;

    /// Creates a code, validating the 1–10 range.
    pub fn new(code: u8) -> Option<PositionCode> {
        (1..=10).contains(&code).then_some(PositionCode(code))
    }

    /// The sub-quad combination this code denotes.
    pub fn quads(self) -> QuadSet {
        CODE_SETS[usize::from(self.0.saturating_sub(1)).min(CODE_SETS.len() - 1)]
    }

    /// The code for a quad set, if it is one of the ten feasible sets.
    pub fn from_quads(set: QuadSet) -> Option<PositionCode> {
        CODE_SETS
            .iter()
            .position(|&s| s == set)
            .and_then(|i| u8::try_from(i).ok())
            .map(|i| PositionCode(i + 1))
    }

    /// Whether a quad set is feasible: it must intersect the left column
    /// `{a, c}` and the bottom row `{a, b}` (see module docs).
    pub fn is_feasible(set: QuadSet) -> bool {
        !set.is_empty()
            && set.intersects(QuadSet::A.union(QuadSet::C))
            && set.intersects(QuadSet::A.union(QuadSet::B))
    }

    /// All codes valid at a resolution: 1–9 normally, 1–10 at the maximum
    /// resolution.
    pub fn all(at_max_resolution: bool) -> impl Iterator<Item = PositionCode> {
        let n = if at_max_resolution { 10 } else { 9 };
        (1..=n).map(PositionCode)
    }
}

/// Position codes that survive when the quads in `far` are all farther than
/// ε from the query (Lemma 10 at the granularity of whole elements): a code
/// survives iff none of its quads is far.
pub fn surviving_codes(far: QuadSet, at_max_resolution: bool) -> Vec<PositionCode> {
    PositionCode::all(at_max_resolution).filter(|c| !c.quads().intersects(far)).collect()
}

/// The §IV-B discussion's I/O-reduction fraction for a given far-quad set,
/// assuming trajectories uniform across the ten index spaces.
pub fn io_reduction(far: QuadSet) -> f64 {
    let surviving = surviving_codes(far, true).len();
    // At most 10 codes exist, so the count always fits losslessly.
    f64::from(10 - u8::try_from(surviving.min(10)).unwrap_or(10)) / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_code_sets_are_feasible_and_distinct() {
        for (i, &s) in CODE_SETS.iter().enumerate() {
            assert!(PositionCode::is_feasible(s), "code {} infeasible", i + 1);
        }
        let mut sets = CODE_SETS.to_vec();
        sets.sort_by_key(|s| s.0);
        sets.dedup();
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn exactly_ten_feasible_sets_exist() {
        let feasible = (1u8..16).filter(|&m| PositionCode::is_feasible(QuadSet(m))).count();
        assert_eq!(feasible, 10);
        for m in 1u8..16 {
            let set = QuadSet(m);
            assert_eq!(
                PositionCode::is_feasible(set),
                PositionCode::from_quads(set).is_some(),
                "set {m:04b}"
            );
        }
    }

    #[test]
    fn roundtrip_code_quads() {
        for c in 1..=10u8 {
            let code = PositionCode::new(c).unwrap();
            assert_eq!(PositionCode::from_quads(code.quads()), Some(code));
        }
        assert!(PositionCode::new(0).is_none());
        assert!(PositionCode::new(11).is_none());
    }

    #[test]
    fn paper_example_quad_c_far() {
        // §IV-B: "quad-c far ⇒ do not extract codes 2, 4, 5, 6, 8, 9".
        let surviving = surviving_codes(QuadSet::C, true);
        let codes: Vec<u8> = surviving.iter().map(|c| c.0).collect();
        assert_eq!(codes, vec![1, 3, 7, 10]);
    }

    #[test]
    fn paper_example_quads_b_and_c_far() {
        // §IV-B: "if quad-b and quad-c are both away, except for position
        // codes 10 and 3, we can discard other index spaces".
        let surviving = surviving_codes(QuadSet::B.union(QuadSet::C), true);
        let codes: Vec<u8> = surviving.iter().map(|c| c.0).collect();
        assert_eq!(codes, vec![3, 10]);
    }

    #[test]
    fn paper_single_quad_reductions() {
        // §IV-B: a → 80 %, b → 60 %, c → 60 %, d → 50 %.
        assert_eq!(io_reduction(QuadSet::A), 0.8);
        assert_eq!(io_reduction(QuadSet::B), 0.6);
        assert_eq!(io_reduction(QuadSet::C), 0.6);
        assert_eq!(io_reduction(QuadSet::D), 0.5);
    }

    #[test]
    fn paper_pair_and_triple_reductions() {
        let pair = |x: QuadSet, y: QuadSet| io_reduction(x.union(y));
        assert_eq!(pair(QuadSet::A, QuadSet::B), 1.0);
        assert_eq!(pair(QuadSet::A, QuadSet::C), 1.0);
        assert_eq!(pair(QuadSet::A, QuadSet::D), 0.9);
        assert_eq!(pair(QuadSet::B, QuadSet::C), 0.8);
        assert_eq!(pair(QuadSet::B, QuadSet::D), 0.8);
        assert_eq!(pair(QuadSet::C, QuadSet::D), 0.8);
        let triple = |m: u8| io_reduction(QuadSet(m));
        assert_eq!(triple(0b0111), 1.0); // abc
        assert_eq!(triple(0b1011), 1.0); // abd
        assert_eq!(triple(0b1101), 1.0); // acd
        assert_eq!(triple(0b1110), 0.9); // bcd
    }

    #[test]
    fn paper_average_reduction_is_83_6_percent() {
        // §IV-B: "On average, we reduce I/O overhead by 83.6 %", averaging
        // the 4 singles, 6 pairs, and 4 triples.
        let mut total = 0.0;
        let mut count = 0;
        for m in 1u8..15 {
            let set = QuadSet(m);
            let quads = (0..4).filter(|i| m >> i & 1 == 1).count();
            if (1..=3).contains(&quads) {
                total += io_reduction(set);
                count += 1;
            }
        }
        assert_eq!(count, 14);
        let avg = total / count as f64;
        assert!((avg - 0.836).abs() < 0.001, "average = {avg}");
    }

    #[test]
    fn code_10_only_at_max_resolution() {
        assert_eq!(PositionCode::all(false).count(), 9);
        assert_eq!(PositionCode::all(true).count(), 10);
        assert!(!PositionCode::all(false).any(|c| c.0 == 10));
    }

    #[test]
    fn quadset_operations() {
        let ab = QuadSet::A.union(QuadSet::B);
        assert!(ab.contains(QuadSet::A));
        assert!(!ab.contains(QuadSet::C));
        assert!(ab.intersects(QuadSet::B.union(QuadSet::D)));
        assert!(!ab.intersects(QuadSet::C.union(QuadSet::D)));
        assert_eq!(ab.iter().count(), 2);
        assert_eq!(QuadSet::C.quad_index(), Some(2));
        assert_eq!(ab.quad_index(), None);
    }
}
