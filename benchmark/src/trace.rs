//! The traced run: nothing end to end is measured. A fixed sample of the
//! workload's ops is replayed layer by layer — the benchmark calling each
//! crate's public functions in pipeline order inside its own spans — with
//! the real call as a sibling span, so each layer has a number and the two
//! answers check each other.
//!
//! The replay mirrors the pipeline as it is at the commit that defined the
//! benchmark (`crates/core/src/query/{threshold,topk}.rs`). It differs from
//! the program in three stated ways: rows are decoded once and handed from
//! the filter to refinement (the program decodes twice); decode and local
//! filter run on the calling thread after the scan (the program runs them
//! inside the per-region scans); and a round's lower bounds are all
//! evaluated before its kernels (the program interleaves them per
//! candidate). `core.unattributed_share` reports what that leaves between
//! the replay and the real call; it is negative when the program's
//! parallelism beats the replay's serial layers.

use crate::openloop::OpenLoopReport;
use crate::oracle::{self, Answer};
use crate::report::Metric;
use crate::setup::{self, Loaded, StoreSpec};
use crate::spans::{self, Recorder, SpanId};
use crate::stats;
use crate::workload::{self, Kind, Query, Spec, MEASURE};
use crate::{env, gen};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use trass_core::query::{LocalFilter, QuerySide};
use trass_core::schema::{parse_rowkey, rowkey, rowkey_range, shard_of, RowValue};
use trass_core::{QueryStats, TrajectoryStore};
use trass_exec::{ScopedPool, TopKBound};
use trass_geo::Point;
use trass_index::xzstar::{GlobalPruning, PruningConfig, QueryContext};
use trass_kv::filter::KeepAll;
use trass_kv::{KeyRange, MetricsSnapshot};
use trass_server::protocol::{self, FrameHeader, HEADER_LEN};
use trass_server::{Response, TrassClient};
use trass_traj::bounds::QueryEnvelope;
use trass_traj::{DpFeatures, Measure, Trajectory};

/// Growth of the top-k radius between rounds, as in the program's driver.
const TOPK_GROWTH: f64 = 4.0;

/// Trajectories replayed (and as many again really inserted) for the
/// ingest layers.
const INGEST_SAMPLE: usize = 512;

/// Rounds of the off / default / always trace-sampling comparison.
const SAMPLING_ROUNDS: usize = 3;

/// Points per side of the kernel micro-measurements.
const KERNEL_POINTS: usize = 128;

/// What the traced run reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// Counts taken at the layer boundaries of the replay, summed over ops.
#[derive(Default)]
struct Counts {
    ops: u64,
    nodes_visited: u64,
    value_ranges: u64,
    io: MetricsSnapshot,
    value_bytes: u64,
    rows: u64,
    candidates: u64,
    results: u64,
    req_bytes: u64,
    resp_bytes: u64,
    pool_1t_ns: u64,
    pool_2t_ns: u64,
    pool_busy_ns: u64,
    topk_rows: u64,
    topk_threshold_rows: u64,
    real: QueryStats,
}

/// Replays `spec` layer by layer and returns every per-layer metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64, scratch: &Path) -> Traced {
    // Every traced run has the server up, so the wire layers have numbers
    // on every workload's ops.
    let store_spec = StoreSpec { serve: true, ..spec.store.clone() };
    let mut loaded = setup::load(seed, &store_spec, &scratch.join("data"));
    let mut queries = workload::queries(spec, seed, &loaded.data);
    if !matches!(spec.kind, Kind::ServeMixed { .. }) {
        // Only the open-loop probe needs more than the sampled ops.
        queries.truncate(spec.trace_ops);
    }
    let warm = workload::warm_up(&loaded.store, &loaded.data, &queries);
    let sample: Vec<usize> = (0..queries.len())
        .filter(|&i| !matches!(queries[i], Query::Range { .. }))
        .take(spec.trace_ops)
        .collect();

    // Four passes over the sample — layers, real calls, wire layers, real
    // client calls — so each sees the caches as a cycling caller leaves
    // them, not as the pass before left them for the same query. An op's
    // spans share its id.
    let mut rec = Recorder::new();
    let mut counts = Counts { ops: sample.len() as u64, ..Counts::default() };
    let replayed: Vec<Answer> = sample
        .iter()
        .enumerate()
        .map(|(op, &q)| {
            let root = rec.open("replay", None, op as u32);
            let answer = replay_query(&mut rec, root, &loaded, &queries[q], &mut counts);
            rec.close(root);
            answer
        })
        .collect();
    let mut real_ms = Vec::with_capacity(sample.len());
    let real: Vec<Answer> = sample
        .iter()
        .enumerate()
        .map(|(op, &q)| {
            let root = rec.open("real", None, op as u32);
            let (result, ns) =
                rec.timed("real.call", root, || queries[q].run(&loaded.store, &loaded.data));
            real_ms.push(ns as f64 / 1e6);
            let result = result.expect("real call");
            accumulate(&mut counts.real, &result.stats);
            if let Query::TopK { pos, .. } = queries[q] {
                counts.topk_rows += result.stats.retrieved;
                counts.topk_threshold_rows +=
                    threshold_rows_at_kth(&mut rec, root, &loaded, pos, &result.results);
            }
            rec.close(root);
            result.results
        })
        .collect();
    let addr = loaded.server.as_ref().expect("traced runs start the server").local_addr();
    let mut client = TrassClient::connect(addr).expect("connect to the in-process server");
    let wired: Vec<Answer> = sample
        .iter()
        .enumerate()
        .map(|(op, &q)| {
            let root = rec.open("wire", None, op as u32);
            let answer =
                replay_wire(&mut rec, root, &mut client, &loaded, &queries[q], &mut counts);
            rec.close(root);
            answer
        })
        .collect();
    let mut wire_ms = Vec::with_capacity(sample.len());
    let called: Vec<Answer> = sample
        .iter()
        .enumerate()
        .map(|(op, &q)| {
            let request = queries[q].request(&loaded.data);
            let root = rec.open("real.wire", None, op as u32);
            let (response, ns) = rec.timed("real.wire_call", root, || client.call(&request));
            rec.close(root);
            wire_ms.push(ns as f64 / 1e6);
            match response {
                Ok(Response::Results(r)) => r,
                other => panic!("wire op answered {other:?}"),
            }
        })
        .collect();
    let mut failed = sample
        .iter()
        .enumerate()
        .filter(|&(op, &q)| {
            [&replayed[op], &real[op], &wired[op], &called[op]]
                .iter()
                .any(|answer| !oracle::same_answer(answer, &warm.answers[q]))
        })
        .count() as u64;

    // The same real calls with no recorder around them.
    let plain_p50 =
        stats::median(&probe(&loaded.store, &loaded.data, &queries, &sample, seconds / 6.0))
            .expect("the probe ran");
    let health_us = health_rtt_us(&mut client);
    drop(client);
    let protocol_errors =
        loaded.store.registry().counter("trass_server_protocol_errors_total", &[]).get();
    let open =
        workload::open_loop_probe(spec, &loaded, &queries, &warm.answers, seed, seconds / 5.0);
    drop(loaded.server.take());

    let kernels = kernel_ns_per_cell(&loaded.data);
    let dispatch_us = dispatch_us();
    let ingest_points = replay_ingest(&mut rec, &loaded, seed, sample.len() as u32);
    let lsm = lsm_counters(&loaded.store, 16 * (gen::total_points(&loaded.data) + ingest_points));

    let sampled_queries: Vec<Query> = sample.iter().map(|&q| queries[q].clone()).collect();
    let sampled_answers: Vec<Answer> = sample.iter().map(|&q| warm.answers[q].clone()).collect();
    let verdict =
        workload::verify(&loaded.data, &sampled_queries, &sampled_answers, spec.oracle_budget);
    failed += verdict.wrong.iter().filter(|w| **w).count() as u64;

    // The program's own trace sampling, off / default / always, each on a
    // reopened store (the sampling rate is fixed at open).
    let Loaded { data, store, dir, .. } = loaded;
    drop(store);
    // Three interleaved rounds, so drift on the host falls on all alike.
    let mut sampled_ms: [Vec<f64>; 3] = Default::default();
    for _ in 0..SAMPLING_ROUNDS {
        for (ms, every) in sampled_ms.iter_mut().zip([0, 64, 1]) {
            let spec =
                StoreSpec { trace_sample_every: Some(every), serve: false, ..spec.store.clone() };
            let store =
                TrajectoryStore::open(setup::config(&spec, &dir)).expect("reopen the store");
            ms.extend(probe(
                &store,
                &data,
                &queries,
                &sample,
                seconds / (6 * SAMPLING_ROUNDS) as f64,
            ));
        }
    }
    let [off, default, always] = sampled_ms.map(|ms| stats::median(&ms).expect("the probe ran"));

    let out = env::bench_dir().join("out").join(format!("trace-{}.json", spec.name));
    rec.write_json(&out, spec.name, seed).expect("write the span file");
    println!("# {} spans written to {}", rec.spans().len(), out.display());

    let totals = spans::totals_by_name(rec.spans());
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let ops = counts.ops as f64;
    let per_op_ms = |name: &str| stats::ratio(total_ns(name), ops) / 1e6;
    let per_op_us = |name: &str| stats::ratio(total_ns(name), ops) / 1e3;
    const LAYERS: [&str; 8] = [
        "index.prune",
        "core.key_ranges",
        "kv.scan",
        "core.decode",
        "core.local_filter",
        "traj.bounds",
        "traj.kernel",
        "core.merge",
    ];
    let layers_ns: f64 = LAYERS.iter().map(|l| self_ns(l)).sum();
    for l in LAYERS {
        println!("diag.replay_share {l} {:.4}", stats::ratio(self_ns(l), layers_ns));
    }
    let real_ns = total_ns("real.call");
    let refine = &counts.real.refine_prune;
    let refined = (refine.pruned_total() + refine.abandoned + refine.computed) as f64;
    let real_p50 = stats::median(&real_ms).unwrap_or(0.0);
    let pct = |a: f64, b: f64| stats::ratio(a - b, b) * 100.0;
    let cache_lookups = (counts.io.cache_hits + counts.io.cache_misses) as f64;
    let m = Metric::new;
    let n = sample.len();
    let metrics = vec![
        m("index.prune_ms", per_op_ms("index.prune"), "ms", n),
        m("index.nodes_visited", stats::ratio(counts.nodes_visited as f64, ops), "count", n),
        m("index.value_ranges", stats::ratio(counts.value_ranges as f64, ops), "count", n),
        m(
            "index.encode_us_per_traj",
            stats::ratio(total_ns("index.encode"), INGEST_SAMPLE as f64) / 1e3,
            "us",
            INGEST_SAMPLE,
        ),
        m("kv.scan_ms", per_op_ms("kv.scan"), "ms", n),
        m("kv.rows_scanned", stats::ratio(counts.io.entries_scanned as f64, ops), "count", n),
        m("kv.bytes_read", stats::ratio(counts.io.bytes_read as f64, ops), "B", n),
        m("kv.blocks_read", stats::ratio(counts.io.blocks_read as f64, ops), "count", n),
        m(
            "kv.cache_hit_ratio",
            stats::ratio(counts.io.cache_hits as f64, cache_lookups),
            "ratio",
            n,
        ),
        m(
            "kv.scan_mb_per_s",
            stats::ratio(counts.io.bytes_read as f64 / 1e6, total_ns("kv.scan") / 1e9),
            "MB/s",
            n,
        ),
        m(
            "kv.put_us_per_row",
            stats::ratio(total_ns("kv.put"), INGEST_SAMPLE as f64) / 1e3,
            "us",
            INGEST_SAMPLE,
        ),
        m("kv.flushes", lsm.flushes, "count", 0),
        m("kv.compactions", lsm.compactions, "count", 0),
        m("kv.write_amp", lsm.write_amp, "ratio", 0),
        m(
            "core.decode_us_per_row",
            stats::ratio(total_ns("core.decode"), counts.rows as f64) / 1e3,
            "us",
            n,
        ),
        m(
            "core.decode_mb_per_s",
            stats::ratio(counts.value_bytes as f64 / 1e6, total_ns("core.decode") / 1e9),
            "MB/s",
            n,
        ),
        m(
            "core.local_filter_us_per_row",
            stats::ratio(total_ns("core.local_filter"), counts.rows as f64) / 1e3,
            "us",
            n,
        ),
        m(
            "core.filter_keep_ratio",
            stats::ratio(counts.candidates as f64, counts.rows as f64),
            "ratio",
            n,
        ),
        m(
            "core.precision",
            stats::ratio(counts.results as f64, counts.candidates as f64),
            "ratio",
            n,
        ),
        m(
            "core.rows_per_result",
            stats::ratio(counts.rows as f64, counts.results as f64),
            "ratio",
            n,
        ),
        m(
            "core.topk_rescan_ratio",
            stats::ratio(counts.topk_rows as f64, counts.topk_threshold_rows as f64),
            "ratio",
            n,
        ),
        m(
            "core.insert_us_per_traj",
            stats::ratio(total_ns("real.insert"), INGEST_SAMPLE as f64) / 1e3,
            "us",
            INGEST_SAMPLE,
        ),
        m(
            "core.stage_prune_share",
            stats::ratio(
                counts.real.pruning_time.as_secs_f64(),
                counts.real.total_time.as_secs_f64(),
            ),
            "ratio",
            n,
        ),
        m(
            "core.stage_scan_share",
            stats::ratio(counts.real.scan_time.as_secs_f64(), counts.real.total_time.as_secs_f64()),
            "ratio",
            n,
        ),
        m(
            "core.stage_refine_share",
            stats::ratio(
                counts.real.refine_time.as_secs_f64(),
                counts.real.total_time.as_secs_f64(),
            ),
            "ratio",
            n,
        ),
        m("core.unattributed_share", stats::ratio(real_ns - layers_ns, real_ns), "ratio", n),
        m("traj.refine_ms", per_op_ms("traj.bounds") + per_op_ms("traj.kernel"), "ms", n),
        m(
            "traj.bounds_prune_ratio",
            stats::ratio(refine.pruned_total() as f64, refined),
            "ratio",
            n,
        ),
        m("traj.abandon_ratio", stats::ratio(refine.abandoned as f64, refined), "ratio", n),
        m("traj.computed_ratio", stats::ratio(refine.computed as f64, refined), "ratio", n),
        m("traj.frechet_ns_per_cell", kernels[0], "ns", 0),
        m("traj.hausdorff_ns_per_cell", kernels[1], "ns", 0),
        m("traj.dtw_ns_per_cell", kernels[2], "ns", 0),
        m(
            "traj.dp_extract_us_per_traj",
            stats::ratio(total_ns("traj.dp_extract"), INGEST_SAMPLE as f64) / 1e3,
            "us",
            INGEST_SAMPLE,
        ),
        m(
            "exec.pool_speedup",
            stats::ratio(counts.pool_1t_ns as f64, counts.pool_2t_ns as f64),
            "ratio",
            n,
        ),
        m(
            "exec.pool_busy_share",
            stats::ratio(counts.pool_busy_ns as f64, 2.0 * counts.pool_2t_ns as f64),
            "ratio",
            n,
        ),
        m("exec.dispatch_us", dispatch_us, "us", 0),
        m("server.encode_req_us", per_op_us("server.encode_req"), "us", n),
        m("server.decode_req_us", per_op_us("server.decode_req"), "us", n),
        m("server.encode_resp_us", per_op_us("server.encode_resp"), "us", n),
        m("server.decode_resp_us", per_op_us("server.decode_resp"), "us", n),
        m("server.req_bytes", stats::ratio(counts.req_bytes as f64, ops), "B", n),
        m("server.resp_bytes", stats::ratio(counts.resp_bytes as f64, ops), "B", n),
        m("server.health_rtt_us", health_us, "us", 0),
        m("server.wire_overhead_ms", stats::median(&wire_ms).unwrap_or(0.0) - real_p50, "ms", n),
        m("server.protocol_errors", protocol_errors as f64, "count", 0),
        m("obs.trace_default_overhead_pct", pct(default, off), "%", n),
        m("obs.trace_always_overhead_pct", pct(always, off), "%", n),
        m("bench.trace_overhead_pct", pct(real_p50, plain_p50), "%", n),
        m("bench.open_late_p99_ms", open.as_ref().map_or(0.0, late_p99_ms), "ms", 0),
        m("bench.oracle_checked", verdict.checked as f64, "count", 0),
    ];
    println!(
        "diag.p50_ms real_in_replay={real_p50} real_plain={plain_p50} wire={} sampling_off={off} sampling_default={default} sampling_always={always}",
        stats::median(&wire_ms).unwrap_or(0.0)
    );
    if let Some(report) = &open {
        println!("diag.open sent={} unsent={}", report.latency_ms.len(), report.unsent);
    }
    let attempted = counts.ops + verdict.checked as u64;
    Traced { metrics, attempted, failed, correct: failed == 0 && verdict.self_test }
}

fn late_p99_ms(report: &OpenLoopReport) -> f64 {
    stats::percentile(&stats::sorted(&report.late_ms), 0.99).unwrap_or(0.0)
}

fn accumulate(total: &mut QueryStats, s: &QueryStats) {
    total.pruning_time += s.pruning_time;
    total.scan_time += s.scan_time;
    total.refine_time += s.refine_time;
    total.total_time += s.total_time();
    total.refine_prune = total.refine_prune.plus(&s.refine_prune);
}

/// Replays one query through the layers and returns the replay's answer.
fn replay_query(
    rec: &mut Recorder,
    root: SpanId,
    loaded: &Loaded,
    query: &Query,
    counts: &mut Counts,
) -> Answer {
    let store = &*loaded.store;
    match *query {
        Query::Threshold { pos, eps } => {
            let mut hits = replay_round(rec, root, store, &loaded.data[pos], eps, None, counts);
            rec.timed("core.merge", root, || hits.sort_by_key(|&(tid, _)| tid));
            hits
        }
        Query::TopK { pos, k } => {
            // The iterative-deepening driver: a quarter of the query's
            // extent to start, four times wider each round, until a round
            // finds k or the radius covers the space.
            let q = &loaded.data[pos];
            let space = &store.config().space;
            let cell = space.distance_to_world(0.5f64.powi(store.config().max_resolution as i32));
            let whole_space = space.distance_to_world(2.0);
            let mbr = q.mbr();
            let mut eps = (mbr.width().max(mbr.height()) * 0.25).max(cell * 4.0);
            loop {
                let round = rec.open_child("core.topk_round", root);
                let mut hits = replay_round(rec, round, store, q, eps, Some(k), counts);
                let done = hits.len() >= k || eps >= whole_space;
                if done {
                    rec.timed("core.merge", round, || {
                        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                        hits.truncate(k);
                    });
                }
                rec.close(round);
                if done {
                    return hits;
                }
                eps = (eps * TOPK_GROWTH).min(whole_space);
            }
        }
        Query::Range { .. } => unreachable!("range ops are not sampled for the replay"),
    }
}

/// One pass of the threshold pipeline at radius `eps` under `parent`:
/// prune, key ranges, scan, decode, local filter, bounds, kernel. A top-k
/// round passes its `k`, and refines under a fresh bound on the k-th best
/// as the program's rounds do. Returns the hits unordered.
fn replay_round(
    rec: &mut Recorder,
    parent: SpanId,
    store: &TrajectoryStore,
    query: &Trajectory,
    eps: f64,
    k: Option<usize>,
    counts: &mut Counts,
) -> Answer {
    let config = store.config();
    let bound = k.map(TopKBound::new);
    let ((value_ranges, prune_stats), _) = rec.timed("index.prune", parent, || {
        let ctx = QueryContext::new(
            store.index(),
            store.to_unit(query.points()),
            config.space.distance_to_unit(eps),
        );
        let pruning = PruningConfig {
            range_gap: config.range_gap,
            use_position_codes: config.use_position_codes,
            use_min_dist: config.use_min_dist,
            ..PruningConfig::default()
        };
        GlobalPruning::new(store.index(), pruning).query_ranges_stats(&ctx)
    });
    counts.nodes_visited += prune_stats.visited;
    counts.value_ranges += value_ranges.len() as u64;

    let (key_ranges, _) = rec.timed("core.key_ranges", parent, || {
        let mut out: Vec<KeyRange> =
            Vec::with_capacity(value_ranges.len() * config.shards as usize);
        for shard in 0..config.shards {
            out.extend(value_ranges.iter().map(|vr| rowkey_range(shard, vr.start, vr.end)));
        }
        out
    });

    let before = store.cluster().metrics_snapshot();
    let (rows, _) = rec.timed("kv.scan", parent, || {
        store.cluster().scan_ranges(&key_ranges, &KeepAll).expect("replayed scan")
    });
    counts.io = counts.io.plus(&store.cluster().metrics_snapshot().since(&before));
    counts.rows += rows.len() as u64;
    counts.value_bytes += rows.iter().map(|r| r.value.len() as u64).sum::<u64>();

    let (decoded, _) = rec.timed("core.decode", parent, || {
        rows.iter().map(|r| RowValue::decode(&r.value).ok()).collect::<Vec<_>>()
    });

    let (candidates, _) = rec.timed("core.local_filter", parent, || {
        let filter = LocalFilter::new(QuerySide::new(query, config.dp_theta, MEASURE), eps);
        decoded
            .iter()
            .enumerate()
            .filter_map(|(i, row)| {
                let row = row.as_ref()?;
                (!row.points.is_empty() && filter.passes(row)).then_some((i, row))
            })
            .collect::<Vec<_>>()
    });
    counts.candidates += candidates.len() as u64;

    let envelope = QueryEnvelope::new(query.points());
    let prunes = |row: &RowValue, eff: f64| {
        let mbr = (!row.features.is_empty()).then(|| row.features.mbr());
        envelope
            .as_ref()
            .is_some_and(|e| e.prunes(&row.points, mbr.as_ref(), MEASURE, eff).is_some())
    };
    let effective = |bound: &Option<TopKBound>| bound.as_ref().map_or(eps, |b| b.effective(eps));

    let (survivors, _) = rec.timed("traj.bounds", parent, || {
        candidates.iter().filter(|(_, row)| !prunes(row, effective(&bound))).collect::<Vec<_>>()
    });
    let (hits, _) = rec.timed("traj.kernel", parent, || {
        survivors
            .iter()
            .filter_map(|&&(i, row)| {
                let d = MEASURE.distance_within(query.points(), &row.points, effective(&bound))?;
                if let Some(b) = &bound {
                    b.offer(d);
                }
                Some((i, d))
            })
            .collect::<Vec<_>>()
    });
    counts.results += hits.len() as u64;

    // The round's refine set through the pool the program refines with,
    // at one worker and at two, each under its own fresh bound.
    let mut through_pool = |name: &'static str, workers: usize| {
        let bound = k.map(TopKBound::new);
        let set: Vec<&RowValue> = candidates.iter().map(|&(_, row)| row).collect();
        rec.timed(name, parent, || {
            ScopedPool::new(workers).run_timed(set, |_, row| {
                let eff = effective(&bound);
                let d = (!prunes(row, eff))
                    .then(|| MEASURE.distance_within(query.points(), &row.points, eff))??;
                if let Some(b) = &bound {
                    b.offer(d);
                }
                Some(d)
            })
        })
    };
    let (_, one_ns) = through_pool("exec.refine_1t", 1);
    let (two, two_ns) = through_pool("exec.refine_2t", 2);
    counts.pool_1t_ns += one_ns;
    counts.pool_2t_ns += two_ns;
    counts.pool_busy_ns += two.worker_busy.iter().map(|d| d.as_nanos() as u64).sum::<u64>();

    let (answer, _) = rec.timed("core.merge", parent, || {
        hits.iter()
            .filter_map(|&(i, d)| parse_rowkey(&rows[i].key).map(|(_, _, tid)| (tid, d)))
            .collect::<Answer>()
    });
    answer
}

/// Rows one threshold search retrieves at the k-th distance top-k
/// returned: the denominator of the rescan ratio.
fn threshold_rows_at_kth(
    rec: &mut Recorder,
    root: SpanId,
    loaded: &Loaded,
    pos: usize,
    top: &[(u64, f64)],
) -> u64 {
    let Some(&(_, kth)) = top.last() else { return 0 };
    let (result, _) = rec.timed("real.threshold_at_kth", root, || {
        trass_core::threshold_search(&loaded.store, &loaded.data[pos], kth, MEASURE)
    });
    result.expect("threshold at the k-th distance").stats.retrieved
}

/// The same op over the wire: the client's three steps in their own
/// spans, and the server's two codecs replayed beside them on the same
/// frames. Returns the answer the wire carried.
fn replay_wire(
    rec: &mut Recorder,
    root: SpanId,
    client: &mut TrassClient,
    loaded: &Loaded,
    query: &Query,
    counts: &mut Counts,
) -> Answer {
    let request = query.request(&loaded.data);
    let (frame, _) = rec
        .timed("server.encode_req", root, || protocol::encode_request(&request).expect("encode"));
    let (reply, _) =
        rec.timed("server.rtt", root, || client.send_raw(&frame).expect("raw round trip"));
    let (decoded, _) = rec.timed("server.decode_resp", root, || {
        protocol::decode_response(request.op(), reply.status, &reply.payload)
    });
    let header = FrameHeader::parse(&frame).expect("a frame has a header");
    let (server_saw, _) = rec.timed("server.decode_req", root, || {
        protocol::decode_request(header.op, &frame[HEADER_LEN..])
    });
    assert!(server_saw.is_ok(), "the server-side decode of our own frame failed");
    let response = match decoded {
        Ok(response @ Response::Results(_)) => response,
        other => panic!("replayed wire op answered {other:?}"),
    };
    let (resp_frame, _) = rec.timed("server.encode_resp", root, || {
        protocol::encode_response(&response).expect("encode")
    });
    counts.req_bytes += frame.len() as u64;
    counts.resp_bytes += resp_frame.len() as u64;
    let Response::Results(answer) = response else { unreachable!("matched above") };
    answer
}

/// Latencies (ms) of the real embedded calls, cycling the sampled ops with
/// no recorder: untimed for a quarter of `seconds` (a reopened store
/// starts with a cold block cache), timed for the rest.
fn probe(
    store: &TrajectoryStore,
    data: &[Trajectory],
    queries: &[Query],
    sample: &[usize],
    seconds: f64,
) -> Vec<f64> {
    let start = Instant::now();
    let timed_from = start + Duration::from_secs_f64(seconds * 0.25);
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut ms = Vec::new();
    for &q in sample.iter().cycle() {
        let t0 = Instant::now();
        if t0 >= deadline && !ms.is_empty() {
            break;
        }
        black_box(queries[q].run(store, data).expect("probe"));
        if t0 >= timed_from {
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    ms
}

/// Median round trip of the cheapest request: the floor of the wire path.
fn health_rtt_us(client: &mut TrassClient) -> f64 {
    let us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            client.health().expect("health");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us).expect("200 samples")
}

/// Nanoseconds per DP cell of the three exact kernels on
/// 128 × 128-point pairs cut from the workload's own trajectories.
fn kernel_ns_per_cell(data: &[Trajectory]) -> [f64; 3] {
    let long: Vec<&[Point]> = data
        .iter()
        .filter(|t| t.len() >= KERNEL_POINTS)
        .take(33)
        .map(|t| &t.points()[..KERNEL_POINTS])
        .collect();
    [Measure::Frechet, Measure::Hausdorff, Measure::Dtw].map(|measure| {
        if long.len() < 2 {
            return 0.0;
        }
        let (mut cells, t0) = (0u64, Instant::now());
        while t0.elapsed() < Duration::from_millis(60) {
            for pair in long.windows(2) {
                black_box(measure.distance(black_box(pair[0]), black_box(pair[1])));
                cells += (KERNEL_POINTS * KERNEL_POINTS) as u64;
            }
        }
        t0.elapsed().as_nanos() as f64 / cells as f64
    })
}

/// Median cost of handing eight empty tasks to a two-worker pool.
fn dispatch_us() -> f64 {
    let pool = ScopedPool::new(2);
    let us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pool.run_timed(vec![(); 8], |i, ()| i));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us).expect("200 samples")
}

/// The write path layer by layer on one sample of new trajectories
/// (`index.encode`, `traj.dp_extract`, `core.row_encode`, `kv.put`, then
/// one `kv.flush`), and the real `insert` on a second sample. Returns the
/// points handed to the store.
fn replay_ingest(rec: &mut Recorder, loaded: &Loaded, seed: u64, first_op: u32) -> u64 {
    let store = &*loaded.store;
    let config = store.config();
    // Ids clear of every batch the wire callers could have sent.
    let fresh = gen::ingest_batch(seed, u64::MAX, 1 << 30, 2 * INGEST_SAMPLE);
    let (layered, real) = fresh.split_at(INGEST_SAMPLE);
    let root = rec.open("ingest", None, first_op);
    for t in layered {
        let (value, _) =
            rec.timed("index.encode", root, || store.index().encode(&store.index_space_of(t)));
        let (features, _) =
            rec.timed("traj.dp_extract", root, || DpFeatures::extract(t, config.dp_theta));
        let ((key, row), _) = rec.timed("core.row_encode", root, || {
            let row = RowValue { points: t.points().to_vec(), features };
            (rowkey(shard_of(t.id, config.shards), value, t.id), row.encode())
        });
        rec.timed("kv.put", root, || store.cluster().put(key, row).expect("replayed put"));
    }
    rec.timed("kv.flush", root, || store.cluster().flush().expect("replayed flush"));
    for t in real {
        rec.timed("real.insert", root, || store.insert(t).expect("real insert"));
    }
    rec.close(root);
    gen::total_points(&fresh)
}

struct LsmCounters {
    flushes: f64,
    compactions: f64,
    write_amp: f64,
}

/// Flushes, compactions and bytes written by both since the store was
/// opened, from the program's own per-shard counters, against the raw
/// bytes handed to it.
fn lsm_counters(store: &TrajectoryStore, raw_bytes: u64) -> LsmCounters {
    let sum = |name: &str| -> f64 {
        (0..store.config().shards)
            .map(|shard| store.registry().counter(name, &[("shard", &shard.to_string())]).get())
            .sum::<u64>() as f64
    };
    LsmCounters {
        flushes: sum("trass_kv_flushes"),
        compactions: sum("trass_kv_compactions"),
        write_amp: stats::ratio(
            sum("trass_kv_flush_bytes") + sum("trass_kv_compaction_bytes_written"),
            raw_bytes as f64,
        ),
    }
}
