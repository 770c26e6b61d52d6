//! Spatial range query over the XZ\* index.
//!
//! The paper's conclusion notes that "XZ\* index supports spatial range
//! query". Global pruning is the traversal threshold and top-k search
//! drain, with the similarity lemmas replaced by the window
//! ([`trass_index::xzstar::SpaceTest`] for [`Mbr`]): an index space can
//! hold a trajectory with a point in the window only if one of its code's
//! quads meets the window, and only occupied spaces are visited. The kept
//! values become scan ranges that bridge only gaps holding no row, so the
//! plan reads exactly the rows under them; a trajectory qualifies only if
//! one of its points falls inside, which the filter reads from the stored
//! row in place.

use crate::query::pipeline::{record_pruning, QueryKind, Refined, StagedQuery};
use crate::schema::{parse_rowkey, RowView};
use crate::stats::SearchResult;
use crate::store::TrajectoryStore;
use std::sync::Arc;
use trass_geo::Mbr;
use trass_index::xzstar::BestFirst;
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
        let mut pass = StagedQuery::begin(store, None, root);

        let key_ranges = pass.prune(|span| {
            let unit = store.config().space.mbr_to_unit(window);
            let mut frontier = BestFirst::with_test(store.index(), store.occupancy(), unit);
            // Every bound is 0: any ε drains the whole window.
            let values = std::iter::from_fn(|| frontier.next_space(0.0)).map(|c| c.value).collect();
            record_pruning(span, &frontier.take_stats());
            store.occupancy().bridge(values)
        });

        let window = *window;
        let rows = pass.scan(
            key_ranges,
            || {
                move |_key: &[u8], value: &[u8]| match RowView::parse(value) {
                    Ok(row) if row.points().iter().any(|p| window.contains_point(&p)) => {
                        FilterDecision::Keep
                    }
                    _ => FilterDecision::Skip,
                }
            },
            |_, _, _| {},
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrassConfig;
    use trass_geo::Point;
    use trass_index::xzstar::{QuadSet, XzStar};
    use trass_traj::{reference, Trajectory};

    /// A 10×10 grid of short trajectories.
    fn grid() -> Vec<Trajectory> {
        let mut data = Vec::new();
        for gx in 0..10 {
            for gy in 0..10 {
                let x = 116.05 + gx as f64 * 0.07;
                let y = 39.65 + gy as f64 * 0.05;
                let pts = vec![Point::new(x, y), Point::new(x + 0.01, y + 0.01)];
                data.push(Trajectory::new(data.len() as u64, pts));
            }
        }
        data
    }

    fn store_with_grid() -> TrajectoryStore {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let store = TrajectoryStore::open(TrassConfig::for_extent(extent)).unwrap();
        store.insert_all(&grid()).unwrap();
        store.flush().unwrap();
        store
    }

    /// The plan is scan-exact: it reads the rows stored under every index
    /// space with a code quad meeting the unit window, no other row, and
    /// at most one key range per shard for each of them.
    fn assert_scan_exact(store: &TrajectoryStore, data: &[Trajectory], window: &Mbr) {
        let unit = store.config().space.mbr_to_unit(window);
        let meets = |t: &&Trajectory| {
            let space = store.index_space_of(t);
            let rects = XzStar::quad_rects(&space.cell);
            space
                .code
                .quads()
                .iter()
                .filter_map(QuadSet::quad_index)
                .any(|i| rects[i].intersects(&unit))
        };
        let expected = data.iter().filter(meets).count() as u64;
        let stats = range_search(store, window).unwrap().stats;
        assert_eq!(stats.retrieved, expected, "{window:?}");
        let shards = usize::from(store.config().shards);
        let bound = shards * stats.retrieved.max(1) as usize;
        assert!(stats.n_ranges <= bound, "{window:?}: {} key ranges", stats.n_ranges);
    }

    #[test]
    fn matches_the_reference_over_grid() {
        let store = store_with_grid();
        let window = Mbr::new(116.1, 39.7, 116.3, 39.9);
        let got = range_search(&store, &window).unwrap();
        assert_eq!(reference::diff(&got.results, &reference::range(&grid(), &window)), None);
        assert!(!got.results.is_empty());
        assert_scan_exact(&store, &grid(), &window);
    }

    #[test]
    fn empty_window_returns_nothing() {
        let store = store_with_grid();
        let window = Mbr::new(100.0, 10.0, 100.1, 10.1); // far away
        let got = range_search(&store, &window).unwrap();
        assert!(got.results.is_empty());
        assert_scan_exact(&store, &grid(), &window);
    }

    #[test]
    fn whole_extent_returns_everything() {
        let store = store_with_grid();
        let window = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let got = range_search(&store, &window).unwrap();
        assert_eq!(got.results.len(), 100);
        assert_scan_exact(&store, &grid(), &window);
    }

    #[test]
    fn window_covering_everything_completes_quickly() {
        // Regression: a window covering the entire index space used to
        // enumerate all 4^r elements. The walk enters occupied subtrees
        // only, and bridging joins the store's rows into a handful of
        // contiguous ranges, so it answers in milliseconds.
        let store = store_with_grid();
        let window = Mbr::new(-200.0, -100.0, 400.0, 400.0);
        let t0 = std::time::Instant::now();
        let got = range_search(&store, &window).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5), "collapse failed");
        assert_eq!(got.results.len(), 100);
        assert!(got.stats.n_ranges < 100, "{} ranges", got.stats.n_ranges);
        assert_scan_exact(&store, &grid(), &window);
    }

    #[test]
    fn random_workload_matches_the_reference() {
        let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
        let store = TrajectoryStore::open(TrassConfig::for_extent(extent)).unwrap();
        let data = trass_traj::generator::tdrive_like(77, 200);
        store.insert_all(&data).unwrap();
        store.flush().unwrap();
        let vertex = data[3].points()[1];
        let windows = [
            Mbr::new(116.2, 39.8, 116.4, 39.95),
            Mbr::new(116.0, 39.6, 116.1, 39.7),
            Mbr::new(vertex.x, vertex.y, vertex.x, vertex.y),
            Mbr::new(116.3, 39.9, 116.5, 39.9),
            Mbr::new(116.7, 40.1, 116.9, 40.5),
            Mbr::new(117.0, 41.0, 117.5, 41.5),
            Mbr::new(115.0, 39.0, 118.0, 41.0),
        ];
        for window in windows {
            let got = range_search(&store, &window).unwrap();
            let want = reference::range(&data, &window);
            assert_eq!(reference::diff(&got.results, &want), None, "{window:?}");
            assert_scan_exact(&store, &data, &window);
        }
    }
}
