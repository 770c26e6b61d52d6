//! An oracle that shares no code with the program's query path: a naive
//! full-matrix Fréchet over `Point::distance`, brute force over the
//! generated dataset, and bit-for-bit answer comparison.
//!
//! The one shortcut is sound by the definition of the measure: if
//! `Fréchet(Q, T) ≤ ε`, every point of `T` lies within `ε` of a point of
//! `Q`, so `T.MBR ⊆ Ext(Q.MBR, ε)`. Trajectories outside that box are
//! skipped without a distance computation.

use trass_geo::{Mbr, Point};
use trass_traj::Trajectory;

/// A query answer as the program returns it: `(id, distance)` pairs.
pub type Answer = Vec<(u64, f64)>;

/// Discrete Fréchet distance by the textbook recurrence over the full
/// `n × m` matrix. Only `max`/`min` combine the point distances, so the
/// value is one of them, bit for bit, however the program's kernel orders
/// its arithmetic.
pub fn frechet(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "Fréchet distance of an empty sequence");
    let m = b.len();
    let mut d = vec![0.0f64; a.len() * m];
    for (i, p) in a.iter().enumerate() {
        for (j, q) in b.iter().enumerate() {
            let reach = match (i, j) {
                (0, 0) => 0.0,
                (0, _) => d[j - 1],
                (_, 0) => d[(i - 1) * m],
                _ => d[(i - 1) * m + j].min(d[i * m + j - 1]).min(d[(i - 1) * m + j - 1]),
            };
            d[i * m + j] = reach.max(p.distance(q));
        }
    }
    d[a.len() * m - 1]
}

/// The dataset with each trajectory's bounding box, computed once.
pub struct Oracle<'a> {
    data: &'a [Trajectory],
    mbrs: Vec<Mbr>,
}

impl<'a> Oracle<'a> {
    pub fn new(data: &'a [Trajectory]) -> Oracle<'a> {
        Oracle { data, mbrs: data.iter().map(Trajectory::mbr).collect() }
    }

    /// Every stored trajectory within Fréchet distance `eps` of `query`,
    /// ordered by id.
    pub fn threshold(&self, query: &Trajectory, eps: f64) -> Answer {
        let reach = query.mbr().extended(eps);
        let mut out: Answer = self
            .data
            .iter()
            .zip(&self.mbrs)
            .filter(|(_, mbr)| reach.contains(mbr))
            .map(|(t, _)| (t.id, frechet(query.points(), t.points())))
            .filter(|&(_, d)| d <= eps)
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// The `k` nearest stored trajectories by `(distance, id)`, given the
    /// program's claim `got`. Anything nearer than the claimed k-th
    /// distance lies inside `Ext(Q.MBR, that distance)`, so brute force
    /// over that box either reproduces the claim or exposes it: a k-th
    /// distance too large lets a nearer trajectory in, one too small
    /// leaves fewer than `k`.
    pub fn top_k(&self, query: &Trajectory, k: usize, got: &Answer) -> Answer {
        let radius = match got.last() {
            Some(&(_, d)) if got.len() == k.min(self.data.len()) && d.is_finite() => d,
            // A short or malformed claim is checked against the whole set.
            _ => f64::INFINITY,
        };
        let reach = radius.is_finite().then(|| query.mbr().extended(radius));
        let mut out: Answer = self
            .data
            .iter()
            .zip(&self.mbrs)
            .filter(|(_, mbr)| reach.map_or(true, |r| r.contains(mbr)))
            .map(|(t, _)| (t.id, frechet(query.points(), t.points())))
            .filter(|&(_, d)| d <= radius)
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Every stored trajectory with a point inside `window`, ordered by
    /// id, at distance 0 (what the program's range search reports).
    pub fn range(&self, window: &Mbr) -> Answer {
        self.data
            .iter()
            .zip(&self.mbrs)
            .filter(|(t, mbr)| {
                mbr.intersects(window) && t.points().iter().any(|p| window.contains_point(p))
            })
            .map(|(t, _)| (t.id, 0.0))
            .collect()
    }
}

/// Whether two answers agree in length, order, ids and every distance bit.
pub fn same_answer(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Proves the comparison would catch a wrong answer: `answer` with one
/// result dropped, and with one bit of one distance flipped, must each
/// compare unequal to it. Needs a non-empty answer.
pub fn comparison_detects_damage(answer: &[(u64, f64)]) -> bool {
    assert!(!answer.is_empty(), "self-test needs a non-empty answer");
    let mut dropped = answer.to_vec();
    dropped.remove(answer.len() / 2);
    let mut flipped = answer.to_vec();
    let d = &mut flipped[answer.len() / 2].1;
    *d = f64::from_bits(d.to_bits() ^ 1);
    same_answer(answer, answer) && !same_answer(answer, &dropped) && !same_answer(answer, &flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trass_traj::Measure;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn naive_frechet_matches_hand_computed_cases() {
        let a = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = pts(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(frechet(&a, &b), 1.0);
        assert_eq!(frechet(&a, &a), 0.0);
        // A single point must reach the farthest point of the other curve.
        assert_eq!(frechet(&pts(&[(0.0, 0.0)]), &a), 2.0);
    }

    #[test]
    fn naive_frechet_is_bit_identical_to_the_program_kernel() {
        let data = crate::gen::dataset(5, 60);
        for (i, a) in data.iter().enumerate() {
            let b = &data[(i * 7 + 3) % data.len()];
            let ours = frechet(a.points(), b.points());
            let theirs = Measure::Frechet.distance(a.points(), b.points());
            assert_eq!(ours.to_bits(), theirs.to_bits(), "pair {i}");
        }
    }

    #[test]
    fn threshold_oracle_finds_the_query_itself_and_near_copies() {
        let mut data = crate::gen::dataset(9, 200);
        let shifted: Vec<Point> =
            data[17].points().iter().map(|p| Point::new(p.x + 0.001, p.y)).collect();
        data.push(Trajectory::new(10_000, shifted));
        let oracle = Oracle::new(&data);
        let got = oracle.threshold(&data[17], 0.005);
        let ids: Vec<u64> = got.iter().map(|r| r.0).collect();
        assert!(ids.contains(&17) && ids.contains(&10_000), "{ids:?}");
        assert_eq!(got.iter().find(|r| r.0 == 17).map(|r| r.1), Some(0.0));
        // The box shortcut changes nothing: compare with no shortcut at all.
        let mut brute: Answer = data
            .iter()
            .map(|t| (t.id, frechet(data[17].points(), t.points())))
            .filter(|r| r.1 <= 0.005)
            .collect();
        brute.sort_by_key(|r| r.0);
        assert!(same_answer(&got, &brute));
    }

    #[test]
    fn top_k_oracle_reproduces_a_true_claim_and_exposes_false_ones() {
        let data = crate::gen::dataset(3, 300);
        let oracle = Oracle::new(&data);
        let q = &data[42];
        let mut truth: Answer =
            data.iter().map(|t| (t.id, frechet(q.points(), t.points()))).collect();
        truth.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        truth.truncate(10);
        assert!(same_answer(&oracle.top_k(q, 10, &truth), &truth));
        // Claim a farther trajectory in place of the true 10th.
        let mut wrong = truth.clone();
        let far = data
            .iter()
            .map(|t| (t.id, frechet(q.points(), t.points())))
            .find(|r| r.1 > truth[9].1)
            .expect("300 trajectories hold one beyond the 10th nearest");
        wrong[9] = far;
        assert!(!same_answer(&oracle.top_k(q, 10, &wrong), &wrong));
        // Claim too few.
        assert!(!same_answer(&oracle.top_k(q, 10, &truth[..9].to_vec()), &truth[..9]));
    }

    #[test]
    fn range_oracle_needs_a_point_inside_the_window() {
        let data = vec![
            Trajectory::new(1, pts(&[(0.0, 0.0), (10.0, 10.0)])), // box crosses, no point inside
            Trajectory::new(2, pts(&[(4.0, 4.0), (5.0, 5.0)])),
        ];
        let oracle = Oracle::new(&data);
        assert_eq!(oracle.range(&Mbr::new(3.0, 3.0, 6.0, 6.0)), vec![(2, 0.0)]);
    }

    #[test]
    fn damage_is_detected() {
        assert!(comparison_detects_damage(&[(1, 0.0), (2, 0.5), (9, 0.25)]));
        assert!(comparison_detects_damage(&[(1, 0.0)]));
    }
}
