//! Multi-threaded hammering of `Histogram` and `Registry`: exact total
//! counts and monotone percentiles must survive concurrent recording —
//! plus `SlowLog` and `FlightRecorder` under concurrent record/push and
//! snapshot, the pattern the parallel query pipeline produces.

use std::sync::Arc;
use trass_obs::{FlightRecorder, Histogram, Registry, SlowLog, TraceCtx};

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

#[test]
fn histogram_counts_are_exact_under_contention() {
    let h = Arc::new(Histogram::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Mix of magnitudes, deterministic per thread.
                    h.record((i * 31 + t as u64) % 1_000_000);
                }
            });
        }
    });
    assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
    // Bucket contents must sum to the same total.
    let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, n)| n).sum();
    assert_eq!(bucket_total, h.count());
    // Percentiles are monotone and bounded by observed extremes.
    let mut last = 0;
    for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let v = h.value_at_quantile(q);
        assert!(v >= last, "quantile regressed at q={q}");
        assert!(v <= h.max());
        last = v;
    }
    assert_eq!(h.value_at_quantile(1.0), h.max());
}

#[test]
fn registry_handles_are_shared_across_threads() {
    let r = Arc::new(Registry::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let r = Arc::clone(&r);
            s.spawn(move || {
                let shard = (t % 4).to_string();
                let c = r.counter("hits", &[("shard", &shard)]);
                let h = r.timer("op_seconds", &[("shard", &shard)]);
                let g = r.gauge("depth", &[]);
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(i + 1);
                    g.add(1);
                    g.add(-1);
                }
            });
        }
    });
    let total: u64 = (0..4).map(|s| r.counter("hits", &[("shard", &s.to_string())]).get()).sum();
    assert_eq!(total, THREADS as u64 * PER_THREAD);
    let recorded: u64 =
        (0..4).map(|s| r.timer("op_seconds", &[("shard", &s.to_string())]).count()).sum();
    assert_eq!(recorded, THREADS as u64 * PER_THREAD);
    assert_eq!(r.gauge("depth", &[]).get(), 0);
    // 4 hit counters + 4 timers + 1 gauge.
    assert_eq!(r.len(), 9);
}

#[test]
fn concurrent_merge_preserves_totals() {
    let target = Arc::new(Histogram::new());
    let sources: Vec<Arc<Histogram>> = (0..THREADS)
        .map(|t| {
            let h = Histogram::new();
            for i in 0..PER_THREAD {
                h.record(i * (t as u64 + 1));
            }
            Arc::new(h)
        })
        .collect();
    std::thread::scope(|s| {
        for src in &sources {
            let target = Arc::clone(&target);
            let src = Arc::clone(src);
            s.spawn(move || target.merge(&src));
        }
    });
    assert_eq!(target.count(), THREADS as u64 * PER_THREAD);
    let expected_sum: u64 = sources.iter().map(|h| h.sum()).sum();
    assert_eq!(target.sum(), expected_sum);
}

#[test]
fn concurrent_records_and_merges_conserve_counts() {
    // Recorders and mergers run at the same time: the target must end up
    // with exactly every sample from both populations, no matter how the
    // bucket updates interleave.
    let target = Arc::new(Histogram::new());
    let sources: Vec<Arc<Histogram>> = (0..THREADS)
        .map(|t| {
            let h = Histogram::new();
            for i in 0..PER_THREAD {
                h.record(i.wrapping_mul(t as u64 + 7) % 500_000);
            }
            Arc::new(h)
        })
        .collect();
    std::thread::scope(|s| {
        for src in &sources {
            let target = Arc::clone(&target);
            let src = Arc::clone(src);
            s.spawn(move || target.merge(&src));
        }
        for t in 0..THREADS {
            let target = Arc::clone(&target);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    target.record((i * 17 + t as u64) % 500_000);
                }
            });
        }
    });
    let expected = 2 * THREADS as u64 * PER_THREAD;
    assert_eq!(target.count(), expected);
    let bucket_total: u64 = target.nonzero_buckets().iter().map(|&(_, n)| n).sum();
    assert_eq!(bucket_total, expected);
}

#[test]
fn slow_log_concurrent_records_and_snapshots() {
    // Writers offer distinct keys while snapshotters read continuously:
    // every snapshot must be internally consistent (sorted, bounded, no
    // torn entries where key and payload disagree), and the final state
    // must hold exactly the top-capacity keys.
    const CAPACITY: usize = 16;
    let log = Arc::new(SlowLog::<u64>::new(CAPACITY));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    // Unique key per (thread, i); payload mirrors the key
                    // so snapshots can check for tearing.
                    let key = i * THREADS as u64 + t as u64 + 1;
                    log.record(key, key);
                }
            });
        }
        for _ in 0..2 {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for _ in 0..500 {
                    let snap = log.snapshot();
                    assert!(snap.len() <= CAPACITY);
                    for w in snap.windows(2) {
                        assert!(w[0].0 >= w[1].0, "snapshot not sorted slowest-first");
                    }
                    for (k, v) in &snap {
                        assert_eq!(k, v, "torn slow-log entry");
                    }
                }
            });
        }
    });
    let snap = log.snapshot();
    assert_eq!(snap.len(), CAPACITY);
    // The largest keys overall are 2000*THREADS down to
    // 2000*THREADS - CAPACITY + 1 — exactly what must have been kept.
    let max = 1_999 * THREADS as u64 + THREADS as u64; // i=1999, t=THREADS-1
    let want: Vec<u64> = (0..CAPACITY as u64).map(|d| max - d).collect();
    let got: Vec<u64> = snap.iter().map(|&(k, _)| k).collect();
    assert_eq!(got, want);
}

fn make_trace(tag: &str) -> Arc<trass_obs::QueryTrace> {
    let ctx = TraceCtx::enabled();
    let mut root = ctx.root("test");
    root.set_label("tag", tag);
    root.finish();
    Arc::new(ctx.finish().expect("enabled ctx yields a trace"))
}

#[test]
fn flight_recorder_concurrent_pushes_and_snapshots() {
    const CAPACITY: usize = 8;
    let rec = Arc::new(FlightRecorder::new(CAPACITY));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for i in 0..300 {
                    rec.push(make_trace(&format!("{t}-{i}")));
                }
            });
        }
        for _ in 0..2 {
            let rec = Arc::clone(&rec);
            s.spawn(move || {
                for _ in 0..500 {
                    let snap = rec.snapshot();
                    assert!(snap.len() <= CAPACITY, "ring exceeded capacity");
                    assert!(rec.len() <= CAPACITY);
                }
            });
        }
    });
    // Ring stabilizes at exactly capacity once enough traces were pushed.
    assert_eq!(rec.len(), CAPACITY);
    assert_eq!(rec.snapshot().len(), CAPACITY);
}

#[test]
fn spans_record_under_contention() {
    let r = Arc::new(Registry::new());
    let scan = r.timer(trass_obs::STAGE_HISTOGRAM, &[("stage", "scan")]);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let scan = Arc::clone(&scan);
            s.spawn(move || {
                for _ in 0..500 {
                    let started = std::time::Instant::now();
                    scan.record_duration(started.elapsed());
                }
            });
        }
    });
    let h = r.timer(trass_obs::STAGE_HISTOGRAM, &[("stage", "scan")]);
    assert_eq!(h.count(), THREADS as u64 * 500);
}
