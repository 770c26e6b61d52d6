//! Spatial range query over the XZ\* index — the capability the paper's
//! conclusion highlights ("Besides, XZ\* index supports spatial range
//! query").
//!
//! Finds all trajectories passing through a district of the city and
//! cross-checks against the reference answer.
//!
//! ```sh
//! cargo run --release --example range_query
//! ```

use trass::core::{query, TrajectoryStore, TrassConfig};
use trass::geo::Mbr;
use trass::traj::generator::{self, BEIJING};
use trass::traj::reference;

fn main() {
    let data = generator::tdrive_like(7, 3_000);
    let store = TrajectoryStore::open(TrassConfig::for_extent(BEIJING)).expect("open");
    store.insert_all(&data).expect("insert");
    store.flush().expect("flush");

    // A district in the city center.
    let district = Mbr::new(116.35, 39.85, 116.45, 39.95);
    let hits = query::range_search(&store, &district).expect("range query");
    println!(
        "range query over [{}, {}] × [{}, {}]: {} trajectories pass through",
        district.min_x,
        district.max_x,
        district.min_y,
        district.max_y,
        hits.results.len()
    );
    println!(
        "scanned {} of {} stored rows ({:.1}%), {} scan ranges",
        hits.stats.retrieved,
        data.len(),
        hits.stats.retrieved as f64 / data.len() as f64 * 100.0,
        hits.stats.n_ranges
    );

    // Verify against the reference answer: the same ids, in id order.
    let expected = reference::range(&data, &district);
    assert_eq!(reference::diff(&hits.results, &expected), None);
    println!("matches the reference answer ({} trajectories) ✔", expected.len());
}
