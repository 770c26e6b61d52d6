//! An in-memory R-tree.
//!
//! Used by the DFT-like baseline ([`crate::dft`]), which partitions
//! trajectory MBRs with an R-tree as the original system does on Spark;
//! it has no other user. Supports incremental insertion with quadratic
//! splits, STR bulk loading, window queries, and best-first
//! nearest-neighbour search by MBR distance.
//!
//! The paper's §VI observes that dynamic indexes like this pay heavy
//! restructuring costs at scale — `Fig. 13` measures exactly that against
//! the static XZ\* encoding, so the insert path here is deliberately the
//! textbook algorithm.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use trass_geo::Mbr;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6;

#[derive(Debug)]
enum Node<T> {
    Leaf { entries: Vec<(Mbr, T)> },
    Inner { children: Vec<(Mbr, Box<Node<T>>)> },
}

impl<T> Node<T> {
    fn mbr(&self) -> Mbr {
        let rects: Vec<Mbr> = match self {
            Node::Leaf { entries } => entries.iter().map(|(m, _)| *m).collect(),
            Node::Inner { children } => children.iter().map(|(m, _)| *m).collect(),
        };
        rects.into_iter().reduce(|a, b| a.union(&b)).unwrap_or(Mbr::new(0.0, 0.0, 0.0, 0.0))
    }
}

/// An R-tree mapping rectangles to items.
#[derive(Debug)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
    height: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree { root: Node::Leaf { entries: Vec::new() }, len: 0, height: 1 }
    }

    /// Bulk-loads items with the Sort-Tile-Recursive algorithm, producing a
    /// well-packed tree much faster than repeated insertion.
    pub fn bulk_load(mut items: Vec<(Mbr, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // STR: sort by center-x, slice into vertical strips, sort each
        // strip by center-y, pack runs of MAX_ENTRIES into leaves.
        items.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let n_leaves = len.div_ceil(MAX_ENTRIES);
        // Smallest n_strips with n_strips² ≥ n_leaves (integer ceil-sqrt).
        let mut n_strips = 1usize;
        while n_strips * n_strips < n_leaves {
            n_strips += 1;
        }
        let strip_len = len.div_ceil(n_strips);
        let mut leaves: Vec<(Mbr, Box<Node<T>>)> = Vec::with_capacity(n_leaves);
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let mut strip: Vec<(Mbr, T)> = (&mut items).take(strip_len).collect();
            strip.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
            let mut strip = strip.into_iter().peekable();
            while strip.peek().is_some() {
                let entries: Vec<(Mbr, T)> = (&mut strip).take(MAX_ENTRIES).collect();
                let node = Node::Leaf { entries };
                leaves.push((node.mbr(), Box::new(node)));
            }
        }
        // Pack upward.
        let mut height = 1;
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<(Mbr, Box<Node<T>>)> =
                Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut level_iter = level.into_iter().peekable();
            while level_iter.peek().is_some() {
                let children: Vec<(Mbr, Box<Node<T>>)> =
                    (&mut level_iter).take(MAX_ENTRIES).collect();
                let node = Node::Inner { children };
                next.push((node.mbr(), Box::new(node)));
            }
            level = next;
            height += 1;
        }
        let Some((_, root)) = level.into_iter().next() else {
            unreachable!("the packing loop always leaves exactly one node")
        };
        RTree { root: *root, len, height }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Inserts an item.
    pub fn insert(&mut self, mbr: Mbr, item: T) {
        self.len += 1;
        if let Some((left, right)) = insert_rec(&mut self.root, mbr, item) {
            // Root split: grow the tree.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf { entries: Vec::new() });
            drop(old_root); // fully replaced by the two split halves
            self.root = Node::Inner {
                children: vec![(left.mbr(), Box::new(left)), (right.mbr(), Box::new(right))],
            };
            self.height += 1;
        }
    }

    /// All items whose MBR intersects `window`.
    pub fn query_intersecting(&self, window: &Mbr) -> Vec<(&Mbr, &T)> {
        let mut out = Vec::new();
        query_rec(&self.root, window, &mut out);
        out
    }

    /// The `k` items nearest to `target` by MBR-to-MBR distance,
    /// best-first. Returns `(distance, mbr, item)` in increasing order.
    pub fn nearest<'a>(&'a self, target: &Mbr, k: usize) -> Vec<(f64, &'a Mbr, &'a T)> {
        #[derive(PartialEq)]
        struct HeapDist(f64);
        impl Eq for HeapDist {}
        impl PartialOrd for HeapDist {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for HeapDist {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
        enum Candidate<'a, T> {
            Node(&'a Node<T>),
            Item(&'a Mbr, &'a T),
        }
        if self.len == 0 || k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Reverse<(HeapDist, usize)>> = BinaryHeap::new();
        let mut arena: Vec<Candidate<'a, T>> = vec![Candidate::Node(&self.root)];
        heap.push(Reverse((HeapDist(0.0), 0)));
        let mut out = Vec::new();
        while let Some(Reverse((HeapDist(dist), idx))) = heap.pop() {
            match arena[idx] {
                Candidate::Item(mbr, item) => {
                    out.push((dist, mbr, item));
                    if out.len() == k {
                        break;
                    }
                }
                Candidate::Node(node) => match node {
                    Node::Leaf { entries } => {
                        for (mbr, item) in entries {
                            let d = target.distance_to_mbr(mbr);
                            arena.push(Candidate::Item(mbr, item));
                            heap.push(Reverse((HeapDist(d), arena.len() - 1)));
                        }
                    }
                    Node::Inner { children } => {
                        for (mbr, child) in children {
                            let d = target.distance_to_mbr(mbr);
                            arena.push(Candidate::Node(child));
                            heap.push(Reverse((HeapDist(d), arena.len() - 1)));
                        }
                    }
                },
            }
        }
        out
    }

    /// Visits every stored item.
    pub fn for_each(&self, mut f: impl FnMut(&Mbr, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Mbr, &T)) {
            match node {
                Node::Leaf { entries } => {
                    for (m, t) in entries {
                        f(m, t);
                    }
                }
                Node::Inner { children } => {
                    for (_, c) in children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }
}

fn query_rec<'a, T>(node: &'a Node<T>, window: &Mbr, out: &mut Vec<(&'a Mbr, &'a T)>) {
    match node {
        Node::Leaf { entries } => {
            for (mbr, item) in entries {
                if mbr.intersects(window) {
                    out.push((mbr, item));
                }
            }
        }
        Node::Inner { children } => {
            for (mbr, child) in children {
                if mbr.intersects(window) {
                    query_rec(child, window, out);
                }
            }
        }
    }
}

/// Recursive insert; returns the two halves when the node split.
fn insert_rec<T>(node: &mut Node<T>, mbr: Mbr, item: T) -> Option<(Node<T>, Node<T>)> {
    match node {
        Node::Leaf { entries } => {
            entries.push((mbr, item));
            if entries.len() <= MAX_ENTRIES {
                return None;
            }
            let moved = std::mem::take(entries);
            let (a, b) = quadratic_split(moved);
            Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }))
        }
        Node::Inner { children } => {
            // Choose the child needing least enlargement (ties by area).
            let best = children
                .iter()
                .enumerate()
                .min_by(|(_, (m1, _)), (_, (m2, _))| {
                    let e1 = m1.union(&mbr).area() - m1.area();
                    let e2 = m2.union(&mbr).area() - m2.area();
                    e1.total_cmp(&e2).then(m1.area().total_cmp(&m2.area()))
                })
                .map(|(i, _)| i);
            let Some(best) = best else { unreachable!("inner nodes are never empty") };
            let split = insert_rec(&mut children[best].1, mbr, item);
            children[best].0 = children[best].1.mbr();
            if let Some((left, right)) = split {
                children.remove(best);
                children.push((left.mbr(), Box::new(left)));
                children.push((right.mbr(), Box::new(right)));
                if children.len() > MAX_ENTRIES {
                    let moved = std::mem::take(children);
                    let (a, b) = quadratic_split(moved);
                    return Some((Node::Inner { children: a }, Node::Inner { children: b }));
                }
            }
            None
        }
    }
}

/// One half of a node split: the entries assigned to a group.
type SplitGroup<E> = Vec<(Mbr, E)>;

/// Guttman's quadratic split over any (Mbr, payload) entries.
fn quadratic_split<E>(entries: Vec<(Mbr, E)>) -> (SplitGroup<E>, SplitGroup<E>) {
    debug_assert!(entries.len() >= 2);
    // Pick the pair wasting the most area as seeds.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut a: Vec<(Mbr, E)> = Vec::new();
    let mut b: Vec<(Mbr, E)> = Vec::new();
    let mut a_mbr = entries[s1].0;
    let mut b_mbr = entries[s2].0;
    let total = entries.len();
    for (idx, entry) in entries.into_iter().enumerate() {
        if idx == s1 {
            a.push(entry);
            continue;
        }
        if idx == s2 {
            b.push(entry);
            continue;
        }
        // Force balance so both halves satisfy MIN_ENTRIES.
        let remaining = total - idx; // entries not yet distributed (incl. this)
        if a.len() + remaining <= MIN_ENTRIES {
            a_mbr = a_mbr.union(&entry.0);
            a.push(entry);
            continue;
        }
        if b.len() + remaining <= MIN_ENTRIES {
            b_mbr = b_mbr.union(&entry.0);
            b.push(entry);
            continue;
        }
        let ea = a_mbr.union(&entry.0).area() - a_mbr.area();
        let eb = b_mbr.union(&entry.0).area() - b_mbr.area();
        if ea <= eb {
            a_mbr = a_mbr.union(&entry.0);
            a.push(entry);
        } else {
            b_mbr = b_mbr.union(&entry.0);
            b.push(entry);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(n: usize) -> Vec<(Mbr, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 100) as f64;
                let y = (i / 100) as f64;
                (Mbr::new(x, y, x + 0.5, y + 0.5), i)
            })
            .collect()
    }

    #[test]
    fn insert_and_query() {
        let mut t = RTree::new();
        for (mbr, i) in grid_items(500) {
            t.insert(mbr, i);
        }
        assert_eq!(t.len(), 500);
        let hits = t.query_intersecting(&Mbr::new(10.0, 1.0, 12.0, 2.0));
        let ids: Vec<usize> = hits.iter().map(|(_, &i)| i).collect();
        // x in 10..=12, y in 1..=2 → i = y*100 + x.
        for expect in [110, 111, 112, 210, 211, 212] {
            assert!(ids.contains(&expect), "{expect} missing from {ids:?}");
        }
    }

    #[test]
    fn bulk_load_matches_insert_results() {
        let items = grid_items(1000);
        let bulk = RTree::bulk_load(items.clone());
        let mut incremental = RTree::new();
        for (m, i) in items {
            incremental.insert(m, i);
        }
        assert_eq!(bulk.len(), incremental.len());
        let window = Mbr::new(25.0, 3.0, 40.0, 7.0);
        let mut from_bulk: Vec<usize> =
            bulk.query_intersecting(&window).iter().map(|(_, &i)| i).collect();
        let mut from_incr: Vec<usize> =
            incremental.query_intersecting(&window).iter().map(|(_, &i)| i).collect();
        from_bulk.sort_unstable();
        from_incr.sort_unstable();
        assert_eq!(from_bulk, from_incr);
        assert!(!from_bulk.is_empty());
    }

    #[test]
    fn query_empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.query_intersecting(&Mbr::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.nearest(&Mbr::new(0.0, 0.0, 1.0, 1.0), 5).is_empty());
    }

    #[test]
    fn query_misses_outside_window() {
        let t = RTree::bulk_load(grid_items(200));
        let hits = t.query_intersecting(&Mbr::new(500.0, 500.0, 501.0, 501.0));
        assert!(hits.is_empty());
    }

    #[test]
    fn nearest_returns_increasing_distances() {
        let t = RTree::bulk_load(grid_items(1000));
        let target = Mbr::new(50.2, 5.2, 50.3, 5.3);
        let results = t.nearest(&target, 10);
        assert_eq!(results.len(), 10);
        assert_eq!(results[0].0, 0.0, "containing cell first");
        for w in results.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Best-first matches brute force.
        let mut brute: Vec<(f64, usize)> =
            grid_items(1000).into_iter().map(|(m, i)| (target.distance_to_mbr(&m), i)).collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (got, want) in results.iter().zip(brute.iter()) {
            assert!((got.0 - want.0).abs() < 1e-12);
        }
    }

    #[test]
    fn for_each_visits_everything() {
        let t = RTree::bulk_load(grid_items(300));
        let mut seen = vec![false; 300];
        t.for_each(|_, &i| seen[i] = true);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let mut t = RTree::new();
        for (m, i) in grid_items(2000) {
            t.insert(m, i);
        }
        assert!(t.height() >= 3);
        assert!(t.height() <= 7, "height {} too tall for 2000 items", t.height());
    }

    #[test]
    fn duplicate_rectangles_supported() {
        let mut t = RTree::new();
        let m = Mbr::new(1.0, 1.0, 2.0, 2.0);
        for i in 0..50 {
            t.insert(m, i);
        }
        assert_eq!(t.query_intersecting(&m).len(), 50);
    }
}
