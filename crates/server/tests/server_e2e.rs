//! End-to-end tests: a live in-process server over a seeded store —
//! stored query references, ingest, concurrent clients, malformed-frame
//! robustness, health, metrics and graceful shutdown. Inline-query answers
//! on every path are checked against brute force in the root package's
//! `tests/exactness.rs`.

use std::net::TcpListener;
use std::sync::Arc;
use trass_core::config::TrassConfig;
use trass_core::query;
use trass_core::store::TrajectoryStore;
use trass_geo::Point;
use trass_server::protocol::{self, ErrorCode, Op, QueryRef};
use trass_server::{ClientError, ServerOptions, TrassClient, TrassServer};
use trass_traj::{generator, Measure, Trajectory};

const SEED: u64 = 4242;
const EPS: f64 = 0.01;

fn build_store(n: usize) -> Arc<TrajectoryStore> {
    let cfg = TrassConfig { max_resolution: 12, trace_sample_every: 0, ..TrassConfig::default() };
    let store = TrajectoryStore::open(cfg).expect("valid config");
    let data = generator::tdrive_like(SEED, n);
    store.insert_all(&data).expect("insert");
    store.flush().expect("flush");
    Arc::new(store)
}

fn start(store: &Arc<TrajectoryStore>) -> TrassServer {
    let opts = ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
    };
    TrassServer::serve(Arc::clone(store), opts).expect("bind")
}

fn queries(n: usize) -> Vec<Trajectory> {
    let data = generator::tdrive_like(SEED, 200);
    generator::sample_queries(&data, n, SEED + 1)
}

/// Asserts two result sets are byte-identical: same order, same tids,
/// same IEEE-754 bit patterns.
fn assert_bit_identical(wire: &[(u64, f64)], embedded: &[(u64, f64)], what: &str) {
    assert_eq!(wire.len(), embedded.len(), "{what}: result count");
    for (i, ((wt, wd), (et, ed))) in wire.iter().zip(embedded).enumerate() {
        assert_eq!(wt, et, "{what}[{i}]: tid");
        assert_eq!(wd.to_bits(), ed.to_bits(), "{what}[{i}]: distance bits");
    }
}

#[test]
fn stored_query_refs_resolve_against_the_store() {
    let store = build_store(100);
    let server = start(&store);
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");

    let tid = 1u64;
    let q = store.get(tid).expect("store read").expect("trajectory 1 exists");
    let embedded = query::threshold_search(&store, &q, EPS, Measure::Frechet).expect("embedded");
    let wire = client.threshold(QueryRef::Stored(tid), EPS, Measure::Frechet).expect("wire stored");
    assert_bit_identical(&wire, &embedded.results, "stored threshold");

    // A missing tid is an in-protocol not-found, not a dead connection.
    match client.threshold(QueryRef::Stored(u64::MAX), EPS, Measure::Frechet) {
        Err(ClientError::Server { code: ErrorCode::NotFound, .. }) => {}
        other => panic!("expected not-found, got {other:?}"),
    }
    // And the connection still works afterwards.
    assert!(client.health().expect("health after error").contains("status: ok"));
}

#[test]
fn ingest_over_the_wire_lands_in_the_store() {
    let store = build_store(50);
    let server = start(&store);
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");

    let fresh = generator::tdrive_like(SEED + 99, 3)
        .into_iter()
        .enumerate()
        .map(|(i, t)| Trajectory::try_new(900_000 + i as u64, t.points().to_vec()).expect("valid"))
        .collect::<Vec<_>>();
    let n = client.ingest(fresh.clone()).expect("wire ingest");
    assert_eq!(n, 3);
    for t in &fresh {
        let got = store.get(t.id).expect("store read").expect("ingested trajectory");
        assert_eq!(got.len(), t.len(), "trajectory {} round-trips", t.id);
    }
}

#[test]
fn ingest_on_the_east_edge_of_the_space_is_answered() {
    // Longitude 180 is unit x = 1.0 in the default space: the edge the
    // index's last cell owns.
    let store = build_store(20);
    let server = start(&store);
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");

    let edge = Trajectory::try_new(900_100, vec![Point::new(180.0, 10.0)]).expect("valid");
    assert_eq!(client.ingest(vec![edge.clone()]).expect("wire ingest"), 1);
    // The connection stays usable and the row is found where it was put.
    assert!(client.health().expect("health after ingest").contains("status: ok"));
    let hits = client
        .threshold(QueryRef::Stored(edge.id), 0.0, Measure::Frechet)
        .expect("wire threshold on the edge");
    assert_eq!(hits, vec![(edge.id, 0.0)]);
}

#[test]
fn infinite_threshold_over_the_wire_returns_every_row() {
    let store = build_store(60);
    let server = start(&store);
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");
    let q = &queries(1)[0];
    let wire = client
        .threshold(QueryRef::Inline(q.clone()), f64::INFINITY, Measure::Frechet)
        .expect("wire threshold at eps = +inf");
    let tids: Vec<u64> = wire.iter().map(|&(tid, _)| tid).collect();
    let mut all: Vec<u64> = generator::tdrive_like(SEED, 60).iter().map(|t| t.id).collect();
    all.sort_unstable();
    assert_eq!(tids, all);
    let embedded = query::threshold_search(&store, q, f64::INFINITY, Measure::Frechet);
    assert_bit_identical(&wire, &embedded.expect("embedded").results, "threshold at +inf");
}

#[test]
fn eight_concurrent_clients_all_see_identical_results() {
    let store = build_store(200);
    let server = start(&store);
    let addr = server.local_addr();

    let qs = queries(4);
    // Precompute the embedded truth once; every client must match it.
    let expected: Vec<Vec<(u64, f64)>> = qs
        .iter()
        .map(|q| {
            query::threshold_search(&store, q, EPS, Measure::Frechet).expect("embedded").results
        })
        .collect();

    std::thread::scope(|s| {
        for c in 0..8 {
            let qs = &qs;
            let expected = &expected;
            s.spawn(move || {
                let mut client = TrassClient::connect(addr).expect("connect");
                for j in 0..8 {
                    let i = (c + j) % qs.len();
                    let wire = client
                        .threshold(QueryRef::Inline(qs[i].clone()), EPS, Measure::Frechet)
                        .expect("wire threshold");
                    assert_bit_identical(&wire, &expected[i], "concurrent threshold");
                }
            });
        }
    });
}

#[test]
fn malformed_frames_get_clean_errors_and_the_server_survives() {
    let store = build_store(50);
    let server = start(&store);
    let addr = server.local_addr();

    // Unknown opcode: error response, connection keeps working.
    let mut client = TrassClient::connect(addr).expect("connect");
    let reply = client.send_raw(&protocol::frame(0x7E, &[]).expect("frame")).expect("reply");
    assert_eq!(reply.status, ErrorCode::UnknownOp.code());
    assert!(client.health().expect("health after unknown op").contains("status: ok"));

    // Garbage payload under a valid opcode: malformed, connection survives.
    let reply = client
        .send_raw(&protocol::frame(Op::Threshold.code(), &[0xAB]).expect("frame"))
        .expect("reply");
    assert_eq!(reply.status, ErrorCode::Malformed.code());
    assert!(client.health().expect("health after malformed").contains("status: ok"));

    // Unsupported version: error response, then the server hangs up.
    let mut probe = TrassClient::connect(addr).expect("connect");
    let reply = probe.send_raw(&[0, 0, 0, 0, 9, Op::Health.code()]).expect("reply");
    assert_eq!(reply.status, ErrorCode::UnsupportedVersion.code());
    assert!(probe.health().is_err(), "connection should be closed after a version violation");

    // Oversized length prefix: error response, then hang-up, no buffering.
    let mut probe = TrassClient::connect(addr).expect("connect");
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.push(protocol::PROTOCOL_VERSION);
    bytes.push(Op::Health.code());
    let reply = probe.send_raw(&bytes).expect("reply");
    assert_eq!(reply.status, ErrorCode::TooLarge.code());

    // A truncated frame followed by disconnect leaves nothing to answer.
    let mut probe = TrassClient::connect(addr).expect("connect");
    let header = protocol::FrameHeader {
        payload_len: 64,
        version: protocol::PROTOCOL_VERSION,
        op: Op::Threshold.code(),
    };
    let mut bytes = header.encode().to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    probe.send_raw_no_reply(&bytes).expect("send");
    drop(probe);

    // The original connection and fresh connections both still work.
    assert!(client.health().expect("health after suite").contains("status: ok"));
    let mut fresh = TrassClient::connect(addr).expect("connect");
    assert!(fresh.health().expect("fresh health").contains("status: ok"));
}

#[test]
fn health_fails_over_wire_and_http_when_the_data_directory_is_gone() {
    let dir = std::env::temp_dir().join(format!("trass-server-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg =
        TrassConfig { max_resolution: 12, telemetry_addr: None, ..TrassConfig::default() };
    cfg.store.dir = Some(dir.join("kv"));
    let store = Arc::new(TrajectoryStore::open(cfg).expect("open on disk"));
    store.insert_all(&generator::tdrive_like(SEED, 20)).expect("insert");
    let server = start(&store);
    let telemetry = store.serve_telemetry().expect("telemetry");
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");
    let healthz = || {
        use std::io::{Read as _, Write as _};
        let mut http = std::net::TcpStream::connect(telemetry.local_addr()).expect("connect");
        http.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        let mut raw = String::new();
        http.read_to_string(&mut raw).expect("read");
        raw
    };

    // The wire op and the route serve one report.
    let body = |raw: &str| raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    let wire = client.health().expect("health");
    assert_eq!(wire, "status: ok\nok   probe kv-regions\n");
    let http = healthz();
    assert!(http.starts_with("HTTP/1.1 200"), "{http}");
    assert_eq!(body(&http), Some(wire));

    std::fs::remove_dir_all(&dir).expect("remove data dir");
    let wire = client.health().expect("health");
    assert!(wire.starts_with("status: unhealthy\n"), "{wire}");
    assert!(wire.contains("FAIL probe kv-regions: shard 0: data dir"), "{wire}");
    let http = healthz();
    assert!(http.starts_with("HTTP/1.1 503"), "{http}");
    assert_eq!(body(&http), Some(wire));
}

#[test]
fn graceful_shutdown_joins_threads_and_releases_the_port() {
    let store = build_store(50);
    let mut server = start(&store);
    let addr = server.local_addr();

    let mut client = TrassClient::connect(addr).expect("connect");
    client.health().expect("health");
    client.shutdown_server().expect("wire shutdown");

    // wait() observes the wire-initiated shutdown; shutdown() then joins
    // the accept thread and every connection thread.
    server.wait();
    server.shutdown();
    drop(server);

    // All threads joined and the listener closed: the port rebinds.
    TcpListener::bind(addr).expect("port released after shutdown");
}

#[test]
fn shutdown_is_idempotent_and_safe_without_clients() {
    let store = build_store(10);
    let mut server = start(&store);
    server.shutdown();
    server.shutdown();
    server.wait(); // already done: returns immediately
}

/// Every `trass_server_*` series reads exactly what this test's own
/// traffic implies, in the registry and in the wire `Stats` op's text: two
/// connections, per-op requests and their latency samples, and two
/// protocol errors (an unknown opcode and a truncated payload); then a
/// third connection's version violation.
#[test]
fn server_metrics_count_the_traffic() {
    let store = build_store(50);
    let server = start(&store);
    let registry = store.registry();
    let mut a = TrassClient::connect(server.local_addr()).expect("connect");
    let mut b = TrassClient::connect(server.local_addr()).expect("connect");
    let q = queries(1).remove(0);
    for _ in 0..2 {
        a.threshold(QueryRef::Inline(q.clone()), EPS, Measure::Frechet).expect("threshold");
    }
    let m = q.mbr();
    b.range([m.min_x, m.min_y, m.max_x, m.max_y]).expect("range");
    a.health().expect("health");
    let unknown = a.send_raw(&protocol::frame(0x7E, &[]).expect("frame")).expect("reply");
    assert_eq!(unknown.status, ErrorCode::UnknownOp.code());
    let truncated = protocol::frame(Op::Threshold.code(), &[0xFF, 0x01]).expect("frame");
    assert_eq!(b.send_raw(&truncated).expect("reply").status, ErrorCode::Malformed.code());

    for (op, n) in [("threshold", 2), ("range", 1), ("health", 1), ("topk", 0), ("stats", 0)] {
        let requests = registry.counter("trass_server_requests_total", &[("op", op)]).get();
        let timed = registry.timer("trass_server_request_seconds", &[("op", op)]).count();
        assert_eq!((requests, timed), (n, n), "op {op}");
    }
    assert_eq!(registry.counter("trass_server_protocol_errors_total", &[]).get(), 2);
    assert_eq!(registry.counter("trass_server_connections_total", &[]).get(), 2);
    let active = registry.gauge("trass_server_active_connections", &[]);
    assert_eq!(active.get(), 2);

    // The wire `Stats` op is the registry's exposition text; it counts
    // itself before it renders.
    let stats = a.stats().expect("stats");
    for line in [
        "trass_server_requests_total{op=\"threshold\"} 2",
        "trass_server_requests_total{op=\"stats\"} 1",
        "trass_server_protocol_errors_total 2",
        "trass_server_connections_total 2",
        "trass_server_active_connections 2",
    ] {
        assert!(stats.lines().any(|l| l == line), "{line} not in:\n{stats}");
    }

    // A version violation counts as a protocol error too, and the server
    // closes that connection; a connection leaves the gauge once its
    // thread sees it close.
    let mut c = TrassClient::connect(server.local_addr()).expect("connect");
    let bad_version = c.send_raw(&[0, 0, 0, 0, 9, Op::Health.code()]).expect("reply");
    assert_eq!(bad_version.status, ErrorCode::UnsupportedVersion.code());
    assert_eq!(registry.counter("trass_server_protocol_errors_total", &[]).get(), 3);
    assert_eq!(registry.counter("trass_server_connections_total", &[]).get(), 3);
    drop((b, c));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while active.get() != 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(active.get(), 1);
}
