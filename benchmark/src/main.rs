//! `bench`: the repository benchmark. One command runs a named workload
//! from a seed, checks every answer, and prints every metric by name with
//! its unit; `--trace 1` replays the same ops layer by layer instead.
//! See `README.md` beside this package for the workloads and the metrics.

mod env;
mod gen;
mod openloop;
mod oracle;
mod report;
mod rng;
mod setup;
mod spans;
mod stats;
mod trace;
mod workload;

use report::Metric;
use setup::Scratch;
use std::process::ExitCode;
use workload::{Measured, OpKind, OpRecord, Spec};

const USAGE: &str = "usage: bench --workload <thr-selective|thr-wide|topk|serve-mixed> --seed <n> \
--seconds <n> --trace <0|1>\n       bench --check";

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    /// A named workload.
    Run(String, Args),
    Check,
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args == ["--check"] {
        return Ok(Command::Check);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Command::Run(workload, Args { seed, seconds, trace }))
        }
        _ => Err("--workload, --seed, --seconds and --trace are all required".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = env::check_host() {
        eprintln!("bench: {e}");
        return ExitCode::from(2);
    }
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: cannot create a scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(name, args) => match workload::spec(&name, false) {
            Some(spec) => {
                // A wrong answer is reported in the result, not by the exit
                // code: the run itself succeeded.
                run(&spec, &args, &scratch);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("bench: unknown workload {name}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Command::Check => check(&scratch),
    }
}

/// Seconds each toy run measures under `--check`.
const CHECK_SECONDS: f64 = 0.6;

/// Smoke test: every workload untraced and traced at toy sizes, every
/// answer verified. Fails the process if anything is wrong.
fn check(scratch: &Scratch) -> ExitCode {
    println!("# bench --check: toy sizes, every answer verified.");
    println!("# THESE NUMBERS ARE NOT COMPARABLE with a real run or with each other.");
    let mut all_ok = true;
    for name in workload::NAMES {
        let spec = workload::spec(name, true).expect("a known workload");
        for trace in [false, true] {
            let args = Args { seed: 1, seconds: CHECK_SECONDS, trace };
            all_ok &= run(&spec, &args, scratch);
        }
    }
    println!("# bench --check: {}", if all_ok { "ok" } else { "FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(spec: &Spec, args: &Args, scratch: &Scratch) -> bool {
    println!(
        "# trass benchmark: workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# {}", env::host_line(scratch.path()));
    if args.trace {
        let t = trace::run(spec, args.seed, args.seconds, scratch.path());
        t.metrics.iter().for_each(report::print_metric);
        println!("{}", report::result_json(t.correct, t.attempted.max(1), t.failed, &t.metrics));
        return t.correct;
    }
    let m = workload::run(spec, args.seed, args.seconds, scratch.path());
    let (attempted, failed) = m.attempted_failed();
    let searches = stats::sorted(&latencies(&m.closed, OpKind::Search));
    let metrics = end_to_end(&m, &searches);
    metrics.iter().for_each(report::print_metric);
    diagnostics(&m, &searches, attempted, failed);
    let correct = failed == 0 && m.verdict.self_test;
    println!("{}", report::result_json(correct, attempted.max(1), failed, &metrics));
    correct
}

fn latencies(records: &[OpRecord], kind: OpKind) -> Vec<f64> {
    records.iter().filter(|r| r.kind == kind).map(|r| r.latency_ms).collect()
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order. `searches` are the
/// sorted latencies of the closed loop's query ops.
fn end_to_end(m: &Measured, searches: &[f64]) -> Vec<Metric> {
    let pct = |q| stats::percentile(searches, q).expect("a timed phase with no samples");
    vec![
        Metric::new(
            "setup_s",
            stats::median(&m.setup_s).expect("set-up ran"),
            "s",
            m.setup_s.len(),
        ),
        Metric::new("op_p50_ms", pct(0.5), "ms", searches.len()),
        Metric::new("op_p90_ms", pct(0.9), "ms", searches.len()),
        Metric::new("ops_per_s", m.closed.len() as f64 / m.closed_wall_s, "1/s", m.closed.len()),
        Metric::new("rss_peak_mb", env::rss_peak_mb(), "MiB", 0),
        Metric::new(
            "stored_bytes_per_raw_byte",
            m.stored_bytes as f64 / m.raw_bytes as f64,
            "ratio",
            0,
        ),
    ]
}

/// Numbers printed for the reader that no bound is set on.
fn diagnostics(m: &Measured, searches: &[f64], attempted: u64, failed: u64) {
    let show = |name: &str, sorted: &[f64], q: f64| {
        if let Some(v) = stats::percentile(sorted, q) {
            println!("{name} {v} ms (n={})", sorted.len());
        }
    };
    show("diag.op_p99_ms", searches, 0.99);
    let ranges = stats::sorted(&latencies(&m.closed, OpKind::Range));
    show("diag.range_p50_ms", &ranges, 0.5);
    show("diag.range_p90_ms", &ranges, 0.9);
    // Ingest-batch latency: a percentile per source (each set-up's bulk
    // load, or the closed loop's wire ingests), then the median of those.
    for (name, q) in
        [("diag.write_p50_ms", 0.5), ("diag.write_p90_ms", 0.9), ("diag.write_p99_ms", 0.99)]
    {
        let per_source: Vec<f64> =
            m.write_ms.iter().filter_map(|w| stats::percentile(&stats::sorted(w), q)).collect();
        if let Some(v) = stats::median(&per_source) {
            println!("{name} {v} ms (n={})", m.write_ms.iter().map(Vec::len).sum::<usize>());
        }
    }
    if let Some((q, label)) = stats::highest_supported(searches.len()) {
        show(&format!("diag.op_highest_supported {label}"), searches, q);
    }
    println!(
        "diag.fail_ratio {} ratio ({failed} of {attempted})",
        stats::ratio(failed as f64, attempted as f64)
    );
    println!("diag.dataset_hash {:016x}", m.dataset_hash);
    println!(
        "diag.per_pass rows_scanned={} candidates={} results={} distinct={}",
        m.warm.rows,
        m.warm.candidates,
        m.warm.results,
        m.warm.answers.len()
    );
    println!(
        "diag.oracle checked={} wrong={} self_test={}",
        m.verdict.checked,
        m.verdict.wrong.iter().filter(|w| **w).count(),
        m.verdict.self_test
    );
    if let Some((report, records, interval)) = &m.open {
        let lat = stats::sorted(&report.latency_ms);
        show("diag.open_p50_ms", &lat, 0.5);
        show("diag.open_p90_ms", &lat, 0.9);
        show("diag.open_p99_ms", &lat, 0.99);
        show("diag.open_late_p99_ms", &stats::sorted(&report.late_ms), 0.99);
        println!(
            "diag.open sent={} unsent={} backlog={} interval_ms={}",
            records.len(),
            report.unsent,
            report.backlog(*interval),
            interval.as_secs_f64() * 1e3
        );
    }
}
