//! An in-memory R-tree.
//!
//! Used by the DFT-like baseline ([`crate::dft`]), which partitions
//! trajectory MBRs with an R-tree as the original system does on Spark;
//! it has no other user. It supports what DFT calls: incremental
//! insertion with quadratic splits, and window queries.
//!
//! The paper's §VI observes that dynamic indexes like this pay heavy
//! restructuring costs at scale — `Fig. 13` measures exactly that against
//! the static XZ\* encoding, so the insert path here is deliberately the
//! textbook algorithm.

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
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree { root: Node::Leaf { entries: Vec::new() } }
    }

    /// Inserts an item.
    pub fn insert(&mut self, mbr: Mbr, item: T) {
        if let Some((left, right)) = insert_rec(&mut self.root, mbr, item) {
            // Root split: grow the tree.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf { entries: Vec::new() });
            drop(old_root); // fully replaced by the two split halves
            self.root = Node::Inner {
                children: vec![(left.mbr(), Box::new(left)), (right.mbr(), Box::new(right))],
            };
        }
    }

    /// All items whose MBR intersects `window`.
    pub fn query_intersecting(&self, window: &Mbr) -> Vec<(&Mbr, &T)> {
        let mut out = Vec::new();
        query_rec(&self.root, window, &mut out);
        out
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

    /// 500 items split leaves and inner nodes (`MAX_ENTRIES` = 16); every
    /// one reads back exactly once, and a window finds exactly its cells.
    #[test]
    fn insert_and_query() {
        let mut t = RTree::new();
        for (mbr, i) in grid_items(500) {
            t.insert(mbr, i);
        }
        let ids = |window: Mbr| {
            let mut ids: Vec<usize> =
                t.query_intersecting(&window).iter().map(|(_, &i)| i).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(Mbr::new(0.0, 0.0, 100.0, 5.0)), (0..500).collect::<Vec<_>>());
        // x in 10..=12, y in 1..=2 → i = y*100 + x.
        assert_eq!(ids(Mbr::new(10.0, 1.0, 12.0, 2.0)), [110, 111, 112, 210, 211, 212]);
    }

    #[test]
    fn query_empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.query_intersecting(&Mbr::new(0.0, 0.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn query_misses_outside_window() {
        let mut t = RTree::new();
        for (mbr, i) in grid_items(200) {
            t.insert(mbr, i);
        }
        let hits = t.query_intersecting(&Mbr::new(500.0, 500.0, 501.0, 501.0));
        assert!(hits.is_empty());
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
