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

    let wire = client.health().expect("health");
    assert!(wire.starts_with("status: ok\nok   probe kv-regions\n"), "{wire}");
    assert!(wire.contains("\nuptime_seconds: "), "{wire}");
    assert!(healthz().starts_with("HTTP/1.1 200"));

    std::fs::remove_dir_all(&dir).expect("remove data dir");
    let wire = client.health().expect("health");
    assert!(wire.starts_with("status: unhealthy\n"), "{wire}");
    assert!(wire.contains("FAIL probe kv-regions: shard 0: data dir"), "{wire}");
    assert!(wire.contains("\nrequests_total: "), "{wire}");
    let http = healthz();
    assert!(http.starts_with("HTTP/1.1 503"), "{http}");
    assert!(http.contains("status: unhealthy\n"), "{http}");
    assert!(http.contains("FAIL probe kv-regions: shard 0: data dir"), "{http}");
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

#[test]
fn server_metrics_are_registered_and_counted() {
    let store = build_store(50);
    let server = start(&store);
    let mut client = TrassClient::connect(server.local_addr()).expect("connect");

    let q = queries(1).remove(0);
    client.threshold(QueryRef::Inline(q), EPS, Measure::Frechet).expect("threshold");
    client.health().expect("health");
    // One protocol error to move the error counter.
    let _ = client.send_raw(&protocol::frame(0x7E, &[]).expect("frame")).expect("reply");

    let prom = store.registry().render_prometheus();
    for series in [
        "trass_server_connections_total",
        "trass_server_active_connections",
        "trass_server_requests_total",
        "trass_server_request_seconds",
        "trass_server_protocol_errors_total",
    ] {
        assert!(prom.contains(series), "{series} missing from prometheus export");
    }
    // Per-op series carry the op label and actually counted.
    assert!(prom.contains("op=\"threshold\""), "per-op label missing");
    for line in prom.lines() {
        if line.starts_with("trass_server_protocol_errors_total") {
            let v: f64 = line.rsplit(' ').next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
            assert!(v >= 1.0, "protocol error counter should have moved: {line}");
        }
    }

    // Wire stats is the same registry snapshot.
    let stats = client.stats().expect("stats");
    assert!(stats.contains("trass_server_requests_total"), "stats lacks server series");
}
