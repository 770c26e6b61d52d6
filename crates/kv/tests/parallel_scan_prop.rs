//! The parallel-scan ordering contract: for any shard count, dataset, and
//! range set, `scan_ranges` over a cluster given a worker pool returns the
//! exact byte sequence a cluster given none produces — which is the
//! shard-major concatenation of each range's rows, as a `BTreeMap` model
//! yields them. The query layer's determinism guarantee stands on this.

use std::collections::BTreeMap;
use std::sync::Arc;
use trass_exec::ScopedPool;
use trass_kv::{Cluster, ClusterOptions, Entry, FilterDecision, KeyRange, StoreOptions};
use trass_rng::{check, Rng};

fn key(shard: u8, body: u16) -> Vec<u8> {
    let mut k = vec![shard];
    k.extend_from_slice(&body.to_be_bytes());
    k
}

/// A cluster scanning inline, or on a pool of `threads` participants.
fn cluster(shards: u8, threads: Option<usize>) -> Cluster {
    let cluster = Cluster::open(ClusterOptions {
        shards,
        store: StoreOptions { memtable_bytes: 1 << 12, ..StoreOptions::in_memory() },
        registry: None,
    })
    .expect("open cluster");
    match threads {
        Some(threads) => cluster.with_pool(Arc::new(ScopedPool::new(threads))),
        None => cluster,
    }
}

fn keep_all(_k: &[u8], _v: &[u8]) -> FilterDecision {
    FilterDecision::Keep
}

/// Loads the same rows into every cluster and returns the model of what
/// they hold. Three generations, a flush after each of the first two, and
/// every fifth row of a generation deleted again in the next: a scan
/// merges a memtable, several tables, overwrites and tombstones.
fn load(clusters: &[&Cluster], rows: &[(u8, u16)]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    let third = rows.len().div_ceil(3).max(1);
    for (generation, chunk) in rows.chunks(third).enumerate() {
        let doomed: Vec<Vec<u8>> = model.keys().step_by(5).cloned().collect();
        for c in clusters {
            for k in &doomed {
                c.delete(k.clone()).expect("delete");
            }
            for &(shard, body) in chunk {
                c.put(key(shard, body), format!("v{generation}-{shard}-{body}")).expect("put");
            }
            if generation < 2 {
                c.flush().expect("flush");
            }
        }
        for k in &doomed {
            model.remove(k);
        }
        for &(shard, body) in chunk {
            model.insert(key(shard, body), format!("v{generation}-{shard}-{body}").into_bytes());
        }
    }
    model
}

fn bytes_of(entries: &[Entry]) -> Vec<(Vec<u8>, Vec<u8>)> {
    entries.iter().map(|e| (e.key.to_vec(), e.value.to_vec())).collect()
}

/// Pooled and inline scans agree with each other and with the model
/// byte-for-byte, in order, for random shard counts, row sets, and range
/// lists — sorted or as drawn, overlapping, empty, cross-shard.
#[test]
fn parallel_scan_matches_sequential_bytes() {
    check(32, |rng| {
        let shards = rng.usize_in(1, 8) as u8;
        let shard = |rng: &mut Rng| rng.usize_in(0, usize::from(shards) - 1) as u8;
        let rows: Vec<(u8, u16)> =
            (0..rng.len(0, 199)).map(|_| (shard(rng), rng.u64() as u16)).collect();
        let mut key_ranges: Vec<KeyRange> = (0..rng.len(0, 11))
            .map(|_| {
                let (s, a, b) = (shard(rng), rng.u64() as u16, rng.u64() as u16);
                let empty = rng.usize_in(0, 4) == 0;
                KeyRange::new(key(s, a.min(b)), key(s, if empty { a.min(b) } else { a.max(b) }))
            })
            .chain(std::iter::once(KeyRange::all()))
            .collect();
        if rng.usize_in(0, 1) == 0 {
            key_ranges.sort_by(|a, b| a.start.cmp(&b.start));
        }
        let sequential = cluster(shards, None);
        let parallel = cluster(shards, Some(rng.usize_in(2, 8)));
        let model = load(&[&sequential, &parallel], &rows);

        let want = sequential.scan_ranges(&key_ranges, &keep_all).expect("sequential scan");
        let got = parallel.scan_ranges(&key_ranges, &keep_all).expect("parallel scan");
        assert_eq!(bytes_of(&want), bytes_of(&got));
        let mut from_model = Vec::new();
        for s in 0..shards {
            for r in &key_ranges {
                let r = r.intersect(&KeyRange::prefix(vec![s]));
                if !r.is_empty() {
                    let rows = model.range::<[u8], _>(r.bounds());
                    from_model.extend(rows.map(|(k, v)| (k.clone(), v.clone())));
                }
            }
        }
        assert_eq!(bytes_of(&got), from_model);
    });
}

/// Stress test for the sanitizer job: many queries race over one parallel
/// cluster while a writer keeps mutating, exercising the pool's claim
/// cursor, the per-shard metric handles, and scan snapshots under real
/// contention. Assertions are about self-consistency (sorted unique keys
/// per shard), since results race the writer by design.
#[test]
fn concurrent_parallel_scans_stress() {
    let c = cluster(4, Some(4));
    for shard in 0..4u8 {
        for body in 0..300u16 {
            c.put(key(shard, body), "seed").expect("put");
        }
    }
    c.flush().expect("flush");

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let c = &c;
        s.spawn(move || {
            for round in 0..40u16 {
                for shard in 0..4u8 {
                    c.put(key(shard, 1000 + round), "hot").expect("put");
                }
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        for _ in 0..3 {
            s.spawn(move || {
                let ranges: Vec<KeyRange> = (0..4u8).map(|s| KeyRange::prefix(vec![s])).collect();
                loop {
                    let done = stop.load(std::sync::atomic::Ordering::SeqCst);
                    let entries = c.scan_ranges(&ranges, &keep_all).expect("scan");
                    // Results concatenate shard scans in shard order; keys
                    // within the whole result must be strictly increasing
                    // (shard prefix leads every key).
                    for w in entries.windows(2) {
                        assert!(
                            w[0].key < w[1].key,
                            "out-of-order or duplicate keys in parallel scan"
                        );
                    }
                    assert!(entries.len() >= 1200, "lost seeded rows");
                    if done {
                        break;
                    }
                }
            });
        }
    });
}
