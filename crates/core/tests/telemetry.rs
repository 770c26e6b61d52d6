//! End-to-end acceptance tests for the embedded telemetry endpoint:
//! Prometheus exposition over a live query workload with its metric
//! families pinned, the kv regions' health check behind `/healthz` and
//! `/readyz`, and clean shutdown (the port must be rebindable).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use trass_core::config::TrassConfig;
use trass_core::store::TrajectoryStore;
use trass_core::{range_search, threshold_search, top_k_search};
use trass_geo::Mbr;
use trass_traj::{generator, Measure};

fn populated_store(n: usize) -> (TrajectoryStore, Vec<trass_traj::Trajectory>) {
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let mut config = TrassConfig::for_extent(extent);
    // Ignore any ambient TRASS_TELEMETRY_ADDR: these tests always bind
    // ephemeral ports so parallel test binaries cannot collide.
    config.telemetry_addr = None;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(7, n);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    (store, data)
}

/// Raw HTTP/1.1 GET returning `(status, headers, body)` — the tests talk
/// to the endpoint exactly the way curl or a Prometheus scraper would.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

/// Every `# TYPE` family on `/metrics` after a threshold, a top-k and a
/// range query, in exposition order.
const PINNED_FAMILIES: [&str; 28] = [
    "trass_build_info",
    "trass_ingest_rows",
    "trass_ingest_seconds",
    "trass_kv_blocks_read",
    "trass_kv_bytes_read",
    "trass_kv_cache_hits",
    "trass_kv_cache_misses",
    "trass_kv_compaction_blocks_read",
    "trass_kv_compaction_bytes_read",
    "trass_kv_compaction_bytes_written",
    "trass_kv_compaction_entries_scanned",
    "trass_kv_compaction_seconds",
    "trass_kv_compactions",
    "trass_kv_entries_returned",
    "trass_kv_entries_scanned",
    "trass_kv_flush_bytes",
    "trass_kv_flush_seconds",
    "trass_kv_flushes",
    "trass_kv_range_scans",
    "trass_kv_region_scan_seconds",
    "trass_kv_region_scans",
    "trass_kv_wal_append_seconds",
    "trass_pool_tasks_total",
    "trass_queries",
    "trass_query_errors",
    "trass_query_seconds",
    "trass_query_stage_seconds",
    "trass_refine_outcomes",
];

#[test]
fn metrics_expose_the_query_pipeline_over_a_live_workload() {
    let (store, data) = populated_store(200);
    for q in data.iter().take(4) {
        threshold_search(&store, q, 0.02, Measure::Frechet).unwrap();
    }
    top_k_search(&store, &data[0], 3, Measure::Frechet).unwrap();
    range_search(&store, &Mbr::new(116.3, 39.8, 116.5, 40.0)).unwrap();

    let telemetry = store.serve_telemetry().unwrap();
    let addr = telemetry.local_addr();

    let (status, head, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    // The query-latency histogram carries the workload just executed.
    assert!(body.contains("# TYPE trass_query_seconds histogram"), "{body}");
    assert!(body.contains("trass_query_seconds_bucket"), "{body}");
    let count = body
        .lines()
        .find(|l| l.starts_with("trass_query_seconds_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("trass_query_seconds_count series");
    assert_eq!(count, 6, "four threshold, one top-k and one range query ran");
    assert!(body.contains("trass_queries{kind=\"threshold\"} 4"), "{body}");
    // The kv regions' I/O counters are registry series like any other.
    assert!(body.contains("trass_kv_entries_scanned"), "{body}");
    // Per-stage timers from the pipeline are present too.
    assert!(body.contains("# TYPE trass_query_stage_seconds histogram"), "{body}");
    for stage in ["pruning", "scan", "local-filter", "refine"] {
        let series =
            format!("trass_query_stage_seconds_bucket{{measure=\"frechet\",stage=\"{stage}\"");
        assert!(body.contains(&series), "missing {series} in:\n{body}");
    }
    // The families served, pinned: a removal or rename is a reviewed diff.
    let families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(families, PINNED_FAMILIES, "{body}");

    let (status, _, json) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("trass_query_seconds"), "{json}");

    // The companion debug surfaces answer on the same listener.
    assert_eq!(http_get(addr, "/").0, 200);
    assert_eq!(http_get(addr, "/slowlog").0, 200);
    let (status, _, slow) = http_get(addr, "/slowlog?format=json");
    assert_eq!(status, 200);
    assert!(slow.contains("\"trace_id\""), "{slow}");
    assert_eq!(http_get(addr, "/traces").0, 200);
    assert_eq!(http_get(addr, "/definitely-not-a-route").0, 404);

    telemetry.shutdown();
}

#[test]
fn healthz_reports_the_regions_check() {
    let (store, _) = populated_store(100);
    let telemetry = store.serve_telemetry().unwrap();
    let addr = telemetry.local_addr();

    // The regions' check passes and is named, the same under both paths.
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "status: ok\nok   probe kv-regions\n"));
    assert_eq!(http_get(addr, "/readyz").2, body);

    // The endpoint does not keep a dropped store's regions alive.
    drop(store);
    let (status, _, body) = http_get(addr, "/healthz");
    assert_eq!(
        (status, body.as_str()),
        (503, "status: unhealthy\nFAIL probe kv-regions: store closed\n")
    );

    telemetry.shutdown();
}

#[test]
fn telemetry_shutdown_is_clean() {
    let (store, _) = populated_store(10);
    let telemetry = store.serve_telemetry().unwrap();
    let addr = telemetry.local_addr();
    assert_eq!(http_get(addr, "/healthz").0, 200);
    telemetry.shutdown();
    // All threads joined and the socket is released: the exact address
    // must be immediately rebindable.
    let rebound = TcpListener::bind(addr).expect("port still held after shutdown");
    drop(rebound);
}
