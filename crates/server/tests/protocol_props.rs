//! Property tests for the wire protocol: randomized byte-level
//! round-trips plus directed malformed-input coverage. The workspace's
//! seeded generator drives the randomized cases, so every failure is
//! reproducible from the seed the runner reports.

use trass_geo::Point;
use trass_rng::{check, Rng};
use trass_server::protocol::{
    self, decode_request, decode_response, encode_request, encode_response, ErrorCode, FrameHeader,
    Op, QueryRef, Request, Response, ALL_OPS, HEADER_LEN, PROTOCOL_VERSION, STATUS_OK,
};
use trass_traj::{Measure, Trajectory};

const ITERS: u32 = 250;

/// A finite-or-infinite distance value, biased toward edge cases
/// whose bit patterns must survive the wire exactly.
fn distance(rng: &mut Rng) -> f64 {
    match rng.u64() % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::MIN_POSITIVE,
        _ => rng.f64_in(-1e6, 1e6),
    }
}

fn trajectory(rng: &mut Rng) -> Trajectory {
    let id = rng.u64();
    let n = rng.len(1, 6);
    let points: Vec<Point> =
        (0..n).map(|_| Point::new(rng.f64_in(-180.0, 180.0), rng.f64_in(-90.0, 90.0))).collect();
    Trajectory::try_new(id, points).expect("generated trajectory is valid")
}

fn query_ref(rng: &mut Rng) -> QueryRef {
    if rng.u64() % 2 == 0 {
        QueryRef::Stored(rng.u64())
    } else {
        QueryRef::Inline(trajectory(rng))
    }
}

fn measure(rng: &mut Rng) -> Measure {
    match rng.u64() % 3 {
        0 => Measure::Frechet,
        1 => Measure::Hausdorff,
        _ => Measure::Dtw,
    }
}

fn inner_request(rng: &mut Rng) -> Request {
    match rng.u64() % 3 {
        0 => Request::Threshold {
            query: query_ref(rng),
            eps: rng.f64_in(0.0, 10.0),
            measure: measure(rng),
        },
        1 => Request::TopK {
            query: query_ref(rng),
            k: (rng.u64() % 100) as u32,
            measure: measure(rng),
        },
        _ => {
            let x0 = rng.f64_in(-180.0, 180.0);
            let y0 = rng.f64_in(-90.0, 90.0);
            Request::Range { window: [x0, y0, x0 + 1.0, y0 + 1.0] }
        }
    }
}

fn request(rng: &mut Rng) -> Request {
    match rng.u64() % 8 {
        0..=2 => inner_request(rng),
        3 => {
            Request::Ingest { trajectories: (0..rng.len(0, 4)).map(|_| trajectory(rng)).collect() }
        }
        4 => Request::Explain { inner: Box::new(inner_request(rng)) },
        5 => Request::Health,
        6 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn results(rng: &mut Rng) -> Vec<(u64, f64)> {
    (0..rng.len(0, 8)).map(|_| (rng.u64(), distance(rng))).collect()
}

fn string(rng: &mut Rng) -> String {
    let n = rng.len(0, 12);
    (0..n).map(|_| char::from(b'a' + (rng.u64() % 26) as u8)).collect()
}

/// A response whose payload shape matches `request_op`.
fn response_for(rng: &mut Rng, request_op: Op) -> Response {
    if rng.u64() % 5 == 0 {
        let code =
            ErrorCode::from_code((rng.u64() % 7 + 1) as u8).expect("codes 1..=7 are all defined");
        return Response::Error { code, message: string(rng) };
    }
    match request_op {
        Op::Threshold | Op::TopK | Op::Range => Response::Results(results(rng)),
        Op::Ingest => Response::Ingested((rng.u64() % 1_000) as u32),
        Op::Explain => Response::Explained { results: results(rng), trace: string(rng) },
        Op::Health => Response::Health(string(rng)),
        Op::Stats => Response::Stats(string(rng)),
        Op::Shutdown => Response::ShuttingDown,
    }
}

fn split_frame(bytes: &[u8]) -> (FrameHeader, &[u8]) {
    let header = FrameHeader::parse(bytes).expect("frame has a header");
    let payload = &bytes[HEADER_LEN..];
    assert_eq!(payload.len(), header.payload_len as usize, "frame length is self-consistent");
    assert_eq!(header.version, PROTOCOL_VERSION);
    (header, payload)
}

// ---------------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------------

#[test]
fn request_roundtrip_is_byte_identical() {
    check(ITERS, |rng| {
        let req = request(rng);
        let bytes = encode_request(&req).expect("encode");
        let (header, payload) = split_frame(&bytes);
        let decoded = decode_request(header.op, payload)
            .unwrap_or_else(|e| panic!("decode failed for {req:?}: {e}"));
        assert_eq!(decoded, req, "structural round-trip");
        let re = encode_request(&decoded).expect("re-encode");
        assert_eq!(re, bytes, "byte-level round-trip");
    });
}

#[test]
fn response_roundtrip_is_byte_identical() {
    check(ITERS, |rng| {
        let op = ALL_OPS[rng.usize_in(0, ALL_OPS.len() - 1)];
        let resp = response_for(rng, op);
        let bytes = encode_response(&resp).expect("encode");
        let (header, payload) = split_frame(&bytes);
        let decoded = decode_response(op, header.op, payload)
            .unwrap_or_else(|e| panic!("decode failed for {resp:?}: {e}"));
        let re = encode_response(&decoded).expect("re-encode");
        assert_eq!(re, bytes, "byte-level round-trip for {resp:?}");
    });
}

#[test]
fn distance_bits_survive_the_wire() {
    // The byte-identity contract: distances come back with the exact bit
    // pattern they were encoded with, including -0.0 and infinity.
    let specials = [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0];
    let results: Vec<(u64, f64)> =
        specials.iter().enumerate().map(|(i, d)| (i as u64, *d)).collect();
    let bytes = encode_response(&Response::Results(results.clone())).expect("encode");
    let (header, payload) = split_frame(&bytes);
    match decode_response(Op::Threshold, header.op, payload).expect("decode") {
        Response::Results(got) => {
            for ((tid, want), (got_tid, got_d)) in results.iter().zip(&got) {
                assert_eq!(tid, got_tid);
                assert_eq!(want.to_bits(), got_d.to_bits(), "bits for {want}");
            }
        }
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn frame_header_roundtrip() {
    check(ITERS, |rng| {
        let header = FrameHeader {
            payload_len: rng.u64() as u32,
            version: rng.u64() as u8,
            op: rng.u64() as u8,
        };
        assert_eq!(FrameHeader::parse(&header.encode()), Some(header));
    });
    for short in 0..HEADER_LEN {
        assert_eq!(FrameHeader::parse(&vec![0u8; short]), None, "short header of {short} bytes");
    }
}

// ---------------------------------------------------------------------------
// Malformed inputs decode to clean errors, never panics
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_of_every_request_is_rejected() {
    check(ITERS, |rng| {
        let req = request(rng);
        let bytes = encode_request(&req).expect("encode");
        let (header, payload) = split_frame(&bytes);
        for cut in 0..payload.len() {
            let err = decode_request(header.op, &payload[..cut]).expect_err("truncated decodes");
            assert!(
                matches!(err.code, ErrorCode::Malformed | ErrorCode::BadRequest),
                "cut {cut}: unexpected code {:?} for {req:?}",
                err.code
            );
        }
    });
}

#[test]
fn trailing_garbage_is_rejected() {
    check(ITERS, |rng| {
        let req = request(rng);
        let bytes = encode_request(&req).expect("encode");
        let (header, payload) = split_frame(&bytes);
        let mut extended = payload.to_vec();
        extended.push(rng.u64() as u8);
        let err = decode_request(header.op, &extended).expect_err("trailing byte decodes");
        // Usually Malformed ("trailing bytes"); an extended ingest payload
        // may instead fail while parsing the extra byte as data.
        assert!(
            matches!(err.code, ErrorCode::Malformed | ErrorCode::BadRequest),
            "unexpected code {:?}",
            err.code
        );
    });
}

#[test]
fn unknown_opcodes_are_rejected_without_panic() {
    let known: Vec<u8> = ALL_OPS.iter().map(|op| op.code()).collect();
    for code in 0u8..=255 {
        if known.contains(&code) {
            continue;
        }
        let err = decode_request(code, &[]).expect_err("unknown opcode decodes");
        assert_eq!(err.code, ErrorCode::UnknownOp, "opcode 0x{code:02X}");
    }
}

#[test]
fn random_bytes_never_panic_the_decoder() {
    check(2_000, |rng| {
        let op = rng.u64() as u8;
        let len = rng.usize_in(0, 64);
        let payload: Vec<u8> = (0..len).map(|_| rng.u64() as u8).collect();
        // Any outcome is fine — the property is "returns, never panics".
        let _ = decode_request(op, &payload);
        let status = rng.u64() as u8;
        let _ = decode_response(ALL_OPS[rng.usize_in(0, ALL_OPS.len() - 1)], status, &payload);
    });
}

#[test]
fn oversized_counts_are_rejected_before_allocation() {
    // ingest.count = u32::MAX with an empty body must fail fast.
    let mut payload = u32::MAX.to_le_bytes().to_vec();
    let err = decode_request(Op::Ingest.code(), &payload).expect_err("bogus count decodes");
    assert_eq!(err.code, ErrorCode::Malformed);

    // Same for a trajectory's point count inside a threshold query.
    payload = vec![1]; // inline tag
    payload.extend_from_slice(&7u64.to_le_bytes()); // id
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // point count
    let err = decode_request(Op::Threshold.code(), &payload).expect_err("bogus points decode");
    assert_eq!(err.code, ErrorCode::Malformed);

    // And for a response's result count.
    let err = decode_response(Op::Range, STATUS_OK, &u32::MAX.to_le_bytes())
        .expect_err("bogus results decode");
    assert_eq!(err.code, ErrorCode::Malformed);
}

#[test]
fn semantic_violations_are_bad_request() {
    // Unknown measure code.
    let mut payload = vec![0]; // stored tag
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    payload.push(9); // measure
    let err = decode_request(Op::Threshold.code(), &payload).expect_err("bad measure decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);

    // Negative eps.
    let mut payload = vec![0];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
    payload.push(0);
    let err = decode_request(Op::Threshold.code(), &payload).expect_err("negative eps decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);

    // NaN range window coordinate.
    let mut payload = Vec::new();
    for v in [f64::NAN, 0.0, 1.0, 1.0] {
        payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let err = decode_request(Op::Range.code(), &payload).expect_err("NaN window decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);

    // Zero-point inline trajectory.
    let mut payload = vec![1];
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    payload.push(0);
    let err = decode_request(Op::Threshold.code(), &payload).expect_err("empty inline decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);

    // Nested explain.
    let mut payload = vec![Op::Explain.code()];
    payload.push(Op::Range.code());
    let err = decode_request(Op::Explain.code(), &payload).expect_err("nested explain decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);

    // Explain wrapping a non-query op.
    let payload = vec![Op::Shutdown.code()];
    let err = decode_request(Op::Explain.code(), &payload).expect_err("explain shutdown decodes");
    assert_eq!(err.code, ErrorCode::BadRequest);
}

#[test]
fn bad_utf8_in_strings_is_malformed() {
    let mut payload = 2u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0xFF, 0xFE]);
    let err = decode_response(Op::Health, STATUS_OK, &payload).expect_err("bad UTF-8 decodes");
    assert_eq!(err.code, ErrorCode::Malformed);

    let err = decode_response(Op::Health, ErrorCode::Internal.code(), &payload)
        .expect_err("bad UTF-8 error message decodes");
    assert_eq!(err.code, ErrorCode::Malformed);
}

#[test]
fn unknown_query_ref_tag_is_malformed() {
    let mut payload = vec![7]; // neither 0 nor 1
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    payload.push(0);
    let err = decode_request(Op::Threshold.code(), &payload).expect_err("bad tag decodes");
    assert_eq!(err.code, ErrorCode::Malformed);
}

#[test]
fn unknown_response_status_is_malformed() {
    let err = decode_response(Op::Health, 0xEE, &[]).expect_err("unknown status decodes");
    assert_eq!(err.code, ErrorCode::Malformed);
}

#[test]
fn op_and_error_code_tables_are_bijective() {
    for op in ALL_OPS {
        assert_eq!(Op::from_code(op.code()), Some(op));
        assert!(!op.name().is_empty());
    }
    for code in 1u8..=7 {
        let e = ErrorCode::from_code(code).expect("codes 1..=7 defined");
        assert_eq!(e.code(), code);
        assert!(!e.name().is_empty());
    }
    assert_eq!(ErrorCode::from_code(STATUS_OK), None);
    assert_eq!(ErrorCode::from_code(0x55), None);
}

#[test]
fn window_mbr_matches_corners() {
    let m = protocol::window_mbr(&[1.0, 2.0, 3.0, 4.0]);
    assert!(m.contains_point(&Point::new(2.0, 3.0)));
    assert!(!m.contains_point(&Point::new(5.0, 3.0)));
}
