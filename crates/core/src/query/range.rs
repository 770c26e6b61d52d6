//! Spatial range query over the XZ\* index.
//!
//! The paper's conclusion notes that "XZ\* index supports spatial range
//! query". The mechanics mirror global pruning with the distance lemmas
//! replaced by plain intersection: an index space can hold trajectories
//! intersecting a window only if the union of its sub-quads intersects the
//! window, and a trajectory qualifies only if one of its points falls
//! inside.

use crate::query::pipeline::{QueryKind, Refined, StagedQuery};
use crate::schema::{parse_rowkey, RowValue};
use crate::stats::SearchResult;
use crate::store::TrajectoryStore;
use std::collections::VecDeque;
use std::sync::Arc;
use trass_geo::Mbr;
use trass_index::quad::Cell;
use trass_index::ranges::{coalesce, merge_overlapping};
use trass_index::xzstar::{IndexSpace, PositionCode, XzStar};
use trass_kv::{FilterDecision, KvError};
use trass_obs::{QueryTrace, TraceCtx};

/// Finds every trajectory with at least one point inside `window` (world
/// coordinates). The returned "distance" field carries 0.0 — range queries
/// have no similarity value.
pub fn range_search(store: &TrajectoryStore, window: &Mbr) -> Result<SearchResult, KvError> {
    Ok(range_search_traced(store, window, store.begin_trace())?.0)
}

/// [`range_search`] under an explicit trace context. Supplies the staged
/// path with the window's value ranges, the point-in-window filter, and a
/// refine step that only has tids left to read.
pub(crate) fn range_search_traced(
    store: &TrajectoryStore,
    window: &Mbr,
    ctx: TraceCtx,
) -> Result<(SearchResult, Option<Arc<QueryTrace>>), KvError> {
    store.run_query(QueryKind::Range, ctx, |root| {
        let config = store.config();
        let mut pass = StagedQuery::begin(store, None, root);

        let key_ranges = pass.prune(|_| {
            let unit_window = config.space.mbr_to_unit(window);
            let (values, mut value_ranges) = window_values(store.index(), &unit_window);
            value_ranges.extend(coalesce(values, config.range_gap));
            // Subtree ranges and coalesced singletons may overlap; no
            // rowkey is scanned twice.
            merge_overlapping(value_ranges, 0)
        });

        let window = *window;
        let rows = pass.scan(
            key_ranges,
            || {
                move |_key: &[u8], value: &[u8]| match RowValue::decode(value) {
                    Ok(row) if row.points.iter().any(|p| window.contains_point(p)) => {
                        FilterDecision::Keep
                    }
                    _ => FilterDecision::Skip,
                }
            },
            |_filter, rows, _span| rows.len() as u64,
        )?;

        let results = pass.refine(|span| {
            let hits: Vec<_> = rows
                .iter()
                .filter_map(|row| parse_rowkey(&row.key))
                .map(|(_, _, tid)| (tid, 0.0))
                .collect();
            span.set_field("results", hits.len());
            Refined { hits, ..Refined::default() }
        });
        let stats = pass.finish();

        root.set_field("retrieved", stats.retrieved);
        root.set_field("results", results.len());
        let detail = format!(
            "window=[{},{}]x[{},{}] results={}",
            window.min_x,
            window.max_x,
            window.min_y,
            window.max_y,
            results.len()
        );
        Ok((SearchResult { results, stats }, Some(detail)))
    })
}

/// Index values (and whole-subtree ranges) whose space intersects the
/// unit-space window. Subtrees fully inside the window collapse to one
/// contiguous range — all their geometry lies inside the enlarged element,
/// so every descendant space intersects the window. Without the collapse a
/// window covering the space would enumerate all `4^r` elements.
fn window_values(index: &XzStar, window: &Mbr) -> (Vec<u64>, Vec<trass_index::ranges::ValueRange>) {
    // Planning budget: past it, boundary subtrees spill as whole ranges.
    // Spilled ranges over-cover (sound — the point-in-window filter decides),
    // trading a few extra scanned rows for bounded plan size; large windows
    // would otherwise emit hundreds of thousands of boundary ranges.
    let mut budget: u32 = 1 << 14;
    let mut out = Vec::new();
    let mut ranges = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(Cell::ROOT);
    while let Some(cell) = queue.pop_front() {
        let ee = cell.enlarged();
        if !ee.intersects(window) {
            continue;
        }
        if budget == 0 {
            let (start, end) = index.subtree_range(&cell);
            ranges.push(trass_index::ranges::ValueRange { start, end });
            continue;
        }
        budget -= 1;
        // Collapse when the window covers the element's *effective* area
        // (its enlarged region clamped to the unit square — stored
        // trajectories never extend past it). Collapsing emits a superset
        // of the exact spaces, which is always sound for a range filter.
        let effective = Mbr::new(
            ee.min_x.max(0.0),
            ee.min_y.max(0.0),
            ee.max_x.min(1.0).max(ee.min_x.max(0.0)),
            ee.max_y.min(1.0).max(ee.min_y.max(0.0)),
        );
        if window.contains(&effective) {
            let (start, end) = index.subtree_range(&cell);
            ranges.push(trass_index::ranges::ValueRange { start, end });
            continue;
        }
        let rects = XzStar::quad_rects(&cell);
        let at_max = cell.level == index.max_resolution();
        for code in PositionCode::all(at_max) {
            let touches = code
                .quads()
                .iter()
                .filter_map(|q| q.quad_index())
                .any(|i| rects[i].intersects(window));
            if touches {
                out.push(index.encode(&IndexSpace { cell, code }));
            }
        }
        if cell.level < index.max_resolution() {
            queue.extend(cell.children());
        }
    }
    (out, ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrassConfig;
    use trass_geo::Point;
    use trass_traj::Trajectory;

    fn store_with_grid() -> TrajectoryStore {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let store = TrajectoryStore::open(TrassConfig::for_extent(extent)).unwrap();
        // A 10×10 grid of short trajectories.
        let mut id = 0;
        for gx in 0..10 {
            for gy in 0..10 {
                let x = 116.05 + gx as f64 * 0.07;
                let y = 39.65 + gy as f64 * 0.05;
                let t = Trajectory::new(id, vec![Point::new(x, y), Point::new(x + 0.01, y + 0.01)]);
                store.insert(&t).unwrap();
                id += 1;
            }
        }
        store.flush().unwrap();
        store
    }

    #[test]
    fn matches_brute_force_over_grid() {
        let store = store_with_grid();
        let window = Mbr::new(116.1, 39.7, 116.3, 39.9);
        let got = range_search(&store, &window).unwrap();
        let got_ids: Vec<u64> = got.results.iter().map(|&(id, _)| id).collect();
        // Brute force against the same grid.
        let mut expected = Vec::new();
        let mut id = 0u64;
        for gx in 0..10 {
            for gy in 0..10 {
                let x = 116.05 + gx as f64 * 0.07;
                let y = 39.65 + gy as f64 * 0.05;
                let pts = [Point::new(x, y), Point::new(x + 0.01, y + 0.01)];
                if pts.iter().any(|p| window.contains_point(p)) {
                    expected.push(id);
                }
                id += 1;
            }
        }
        assert_eq!(got_ids, expected);
        assert!(!got_ids.is_empty());
    }

    #[test]
    fn empty_window_returns_nothing() {
        let store = store_with_grid();
        let window = Mbr::new(100.0, 10.0, 100.1, 10.1); // far away
        let got = range_search(&store, &window).unwrap();
        assert!(got.results.is_empty());
    }

    #[test]
    fn whole_extent_returns_everything() {
        let store = store_with_grid();
        let window = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let got = range_search(&store, &window).unwrap();
        assert_eq!(got.results.len(), 100);
    }

    #[test]
    fn window_covering_everything_completes_quickly() {
        // Regression: a window covering the entire index space used to
        // enumerate all 4^r elements. The subtree collapse must answer in
        // milliseconds via a handful of contiguous ranges.
        let store = store_with_grid();
        let window = Mbr::new(-200.0, -100.0, 400.0, 400.0);
        let t0 = std::time::Instant::now();
        let got = range_search(&store, &window).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5), "collapse failed");
        assert_eq!(got.results.len(), 100);
        assert!(got.stats.n_ranges < 100, "{} ranges", got.stats.n_ranges);
    }

    #[test]
    fn random_workload_matches_brute_force() {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let store = TrajectoryStore::open(TrassConfig::for_extent(extent)).unwrap();
        let data = trass_traj::generator::tdrive_like(77, 200);
        store.insert_all(&data).unwrap();
        store.flush().unwrap();
        for window in [Mbr::new(116.2, 39.8, 116.4, 39.95), Mbr::new(116.0, 39.6, 116.1, 39.7)] {
            let got = range_search(&store, &window).unwrap();
            let got_ids: Vec<u64> = got.results.iter().map(|&(id, _)| id).collect();
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|t| t.points().iter().any(|p| window.contains_point(p)))
                .map(|t| t.id)
                .collect();
            expected.sort_unstable();
            assert_eq!(got_ids, expected);
        }
    }
}
