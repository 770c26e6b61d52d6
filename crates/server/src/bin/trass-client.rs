//! `trass-client` — command-line client for a running `trass serve`.
//!
//! ```text
//! trass-client threshold --addr <host:port> --query <tid> --eps <deg> [--measure ...]
//! trass-client topk      --addr <host:port> --query <tid> --k <n> [--measure ...]
//! trass-client range     --addr <host:port> --window lon0,lat0,lon1,lat1
//! trass-client ingest    --addr <host:port> --csv <file>
//! trass-client explain   --addr <host:port> --op threshold|topk|range [op flags]
//! trass-client health    --addr <host:port>
//! trass-client stats     --addr <host:port>
//! trass-client shutdown  --addr <host:port>
//! trass-client badframe  --addr <host:port>
//! ```
//!
//! `--addr` falls back to `TRASS_SERVE_ADDR`. Query commands print
//! result lines through the embedded CLI's own formatters
//! ([`trass_server::cli`]) so CI can diff wire output against
//! `trass sim` / `trass topk` / `trass range`; summaries go to stderr. `badframe` ships a suite of malformed frames and verifies the
//! server answers each with a clean protocol error and stays up.

use std::collections::HashMap;
use std::io::BufReader;
use std::process::ExitCode;
use trass_server::cli::{parse, parse_measure, range_lines, similarity_lines};
use trass_server::protocol::{self, ErrorCode, Op, QueryRef, Request};
use trass_server::{ClientError, TrassClient};
use trass_traj::io as traj_io;

const USAGE: &str = "\
usage:
  trass-client threshold --addr <host:port> --query <tid> --eps <deg> [--measure frechet|hausdorff|dtw]
  trass-client topk      --addr <host:port> --query <tid> --k <n> [--measure ...]
  trass-client range     --addr <host:port> --window lon0,lat0,lon1,lat1
  trass-client ingest    --addr <host:port> --csv <file>
  trass-client explain   --addr <host:port> --op threshold|topk|range [op flags]
  trass-client health    --addr <host:port>
  trass-client stats     --addr <host:port>
  trass-client shutdown  --addr <host:port>
  trass-client badframe  --addr <host:port>
(--addr falls back to TRASS_SERVE_ADDR)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run(&cmd, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn addr(flags: &HashMap<String, String>) -> Result<String, String> {
    if let Some(a) = flags.get("addr") {
        return Ok(a.clone());
    }
    trass_server::server::env_serve_addr()
        .ok_or_else(|| "--addr <host:port> is required (or set TRASS_SERVE_ADDR)".to_string())
}

fn connect(flags: &HashMap<String, String>) -> Result<TrassClient, String> {
    let addr = addr(flags)?;
    TrassClient::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))
}

fn parse_window(flags: &HashMap<String, String>) -> Result<[f64; 4], String> {
    let spec = flags.get("window").ok_or("--window lon0,lat0,lon1,lat1 is required")?;
    trass_server::cli::parse_window(spec)
}

fn stored_query(flags: &HashMap<String, String>) -> Result<QueryRef, String> {
    let tid: u64 = flags
        .get("query")
        .ok_or("--query <tid> is required")?
        .parse()
        .map_err(|_| "bad --query id")?;
    Ok(QueryRef::Stored(tid))
}

fn err_str(e: ClientError) -> String {
    e.to_string()
}

fn threshold_request(flags: &HashMap<String, String>) -> Result<Request, String> {
    let eps: f64 =
        flags.get("eps").ok_or("--eps <deg> is required")?.parse().map_err(|_| "bad --eps")?;
    Ok(Request::Threshold { query: stored_query(flags)?, eps, measure: parse_measure(flags)? })
}

fn topk_request(flags: &HashMap<String, String>) -> Result<Request, String> {
    let k: u32 = flags.get("k").ok_or("--k <n> is required")?.parse().map_err(|_| "bad --k")?;
    Ok(Request::TopK { query: stored_query(flags)?, k, measure: parse_measure(flags)? })
}

fn run(cmd: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    match cmd {
        "threshold" => {
            let mut client = connect(flags)?;
            let req = threshold_request(flags)?;
            let results = match client.call(&req).map_err(err_str)? {
                trass_server::Response::Results(r) => r,
                other => return Err(format!("unexpected response: {other:?}")),
            };
            eprintln!("{} matches", results.len());
            print!("{}", similarity_lines(&results));
            Ok(())
        }
        "topk" => {
            let mut client = connect(flags)?;
            let req = topk_request(flags)?;
            let results = match client.call(&req).map_err(err_str)? {
                trass_server::Response::Results(r) => r,
                other => return Err(format!("unexpected response: {other:?}")),
            };
            eprintln!("{} results", results.len());
            print!("{}", similarity_lines(&results));
            Ok(())
        }
        "range" => {
            let mut client = connect(flags)?;
            let results = client.range(parse_window(flags)?).map_err(err_str)?;
            eprintln!("{} trajectories intersect the window", results.len());
            print!("{}", range_lines(&results));
            Ok(())
        }
        "ingest" => {
            let csv = flags.get("csv").ok_or("--csv <file> is required")?;
            let file = std::fs::File::open(csv).map_err(|e| format!("open {csv}: {e}"))?;
            let (trajectories, report) =
                traj_io::read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
            if trajectories.is_empty() {
                return Err("no trajectories in input".into());
            }
            let mut client = connect(flags)?;
            let n = client.ingest(trajectories).map_err(err_str)?;
            println!(
                "ingested {n} trajectories ({} points, {} lines skipped)",
                report.points, report.skipped
            );
            Ok(())
        }
        "explain" => {
            let inner = match flags.get("op").map(String::as_str) {
                Some("threshold") => threshold_request(flags)?,
                Some("topk") => topk_request(flags)?,
                Some("range") => Request::Range { window: parse_window(flags)? },
                _ => return Err("--op threshold|topk|range is required".into()),
            };
            let is_range = matches!(inner, Request::Range { .. });
            let mut client = connect(flags)?;
            let (results, trace) = client.explain(inner).map_err(err_str)?;
            if is_range {
                print!("{}", range_lines(&results));
            } else {
                print!("{}", similarity_lines(&results));
            }
            println!("{trace}");
            Ok(())
        }
        "health" => {
            let mut client = connect(flags)?;
            print!("{}", client.health().map_err(err_str)?);
            Ok(())
        }
        "stats" => {
            let mut client = connect(flags)?;
            println!("{}", client.stats().map_err(err_str)?);
            Ok(())
        }
        "shutdown" => {
            let mut client = connect(flags)?;
            client.shutdown_server().map_err(err_str)?;
            println!("server shutting down");
            Ok(())
        }
        "badframe" => badframe(flags),
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

/// Ships malformed frames and verifies each gets a clean protocol error
/// (and that the server survives the whole suite).
fn badframe(flags: &HashMap<String, String>) -> Result<(), String> {
    let mut passed = 0u32;

    // 1. Unknown opcode: error response, connection survives.
    {
        let mut client = connect(flags)?;
        let reply = client
            .send_raw(&protocol::frame(0x7E, &[]).map_err(|e| e.to_string())?)
            .map_err(err_str)?;
        expect_status(&reply, ErrorCode::UnknownOp, "unknown opcode")?;
        // Same connection must still serve requests.
        client.health().map_err(|e| format!("connection died after unknown op: {e}"))?;
        passed += 1;
        println!(
            "badframe: unknown opcode -> {} (connection survived)",
            ErrorCode::UnknownOp.name()
        );
    }

    // 2. Garbage payload under a valid opcode: malformed, connection survives.
    {
        let mut client = connect(flags)?;
        let reply = client
            .send_raw(
                &protocol::frame(Op::Threshold.code(), &[0xFF, 0x01]).map_err(|e| e.to_string())?,
            )
            .map_err(err_str)?;
        expect_status(&reply, ErrorCode::Malformed, "truncated threshold payload")?;
        client.health().map_err(|e| format!("connection died after malformed payload: {e}"))?;
        passed += 1;
        println!(
            "badframe: truncated payload -> {} (connection survived)",
            ErrorCode::Malformed.name()
        );
    }

    // 3. Unsupported version byte: error response, then the server closes.
    {
        let mut client = connect(flags)?;
        let reply =
            client.send_raw(&[0, 0, 0, 0, 9 /* version */, Op::Health.code()]).map_err(err_str)?;
        expect_status(&reply, ErrorCode::UnsupportedVersion, "bad version byte")?;
        passed += 1;
        println!("badframe: version 9 -> {}", ErrorCode::UnsupportedVersion.name());
    }

    // 4. Oversized length prefix: error response, then the server closes.
    {
        let mut client = connect(flags)?;
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.push(protocol::PROTOCOL_VERSION);
        bytes.push(Op::Health.code());
        let reply = client.send_raw(&bytes).map_err(err_str)?;
        expect_status(&reply, ErrorCode::TooLarge, "oversized length prefix")?;
        passed += 1;
        println!("badframe: 4 GiB length prefix -> {}", ErrorCode::TooLarge.name());
    }

    // 5. Truncated frame (header promises more than we send), then close:
    //    nothing to answer; the server must simply survive it.
    {
        let mut client = connect(flags)?;
        let header = protocol::FrameHeader {
            payload_len: 100,
            version: protocol::PROTOCOL_VERSION,
            op: Op::Threshold.code(),
        };
        let mut bytes = header.encode().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        client.send_raw_no_reply(&bytes).map_err(err_str)?;
        drop(client);
        passed += 1;
        println!("badframe: truncated frame then close -> server keeps running");
    }

    // The server must still be healthy after the whole suite.
    let mut client = connect(flags)?;
    let health = client.health().map_err(|e| format!("server unhealthy after suite: {e}"))?;
    if !health.contains("status: ok") {
        return Err(format!("unexpected health after suite: {health}"));
    }
    println!("badframe: all {passed} malformed inputs answered cleanly; server still healthy");
    Ok(())
}

fn expect_status(
    reply: &trass_server::RawReply,
    want: ErrorCode,
    what: &str,
) -> Result<(), String> {
    if reply.status != want.code() {
        return Err(format!(
            "{what}: expected status {} (0x{:02X}), got 0x{:02X} ({:?})",
            want.name(),
            want.code(),
            reply.status,
            reply.error_message()
        ));
    }
    Ok(())
}
