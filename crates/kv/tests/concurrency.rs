//! Concurrency tests: readers and writers racing on one store and across
//! a cluster. The store promises linearizable point reads and scans that
//! observe some consistent prefix of the write history.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use trass_exec::ScopedPool;
use trass_kv::filter::KeepAll;
use trass_kv::{Cluster, ClusterOptions, KeyRange, LsmStore, StoreOptions};

fn small_store() -> LsmStore {
    LsmStore::open(StoreOptions {
        memtable_bytes: 4 << 10,
        compaction_threshold: 4,
        ..StoreOptions::in_memory()
    })
    .expect("open")
}

#[test]
fn concurrent_writers_disjoint_keyspaces() {
    let store = small_store();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let store = &store;
            s.spawn(move || {
                for i in 0..2_000u32 {
                    let key = format!("w{t}-{i:06}");
                    store.put(key, format!("v{t}-{i}")).expect("put");
                }
            });
        }
    });
    assert_eq!(store.scan(KeyRange::all()).unwrap().len(), 8_000);
    for t in 0..4u32 {
        let n = store.scan(KeyRange::prefix(format!("w{t}-").into_bytes())).unwrap().len();
        assert_eq!(n, 2_000, "writer {t} lost rows");
    }
}

#[test]
fn readers_race_writers_without_tearing() {
    let store = small_store();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Writer: monotone versions under contended keys.
        s.spawn(|| {
            for round in 0..200u32 {
                for k in 0..50u32 {
                    store.put(format!("key-{k:03}"), format!("{round:06}")).expect("put");
                }
                if round % 20 == 0 {
                    store.flush().expect("flush");
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        // Readers: every observed value must be a valid version, and scans
        // must never return torn or duplicate keys.
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let entries = store.scan(KeyRange::all()).expect("scan");
                    let mut last: Option<Vec<u8>> = None;
                    for e in &entries {
                        let v = std::str::from_utf8(&e.value).expect("utf8");
                        let round: u32 = v.parse().expect("version number");
                        assert!(round < 200);
                        if let Some(prev) = &last {
                            assert!(prev < &e.key.to_vec(), "scan out of order");
                        }
                        last = Some(e.key.to_vec());
                    }
                }
            });
        }
    });
    let final_entries = store.scan(KeyRange::all()).unwrap();
    assert_eq!(final_entries.len(), 50);
    assert!(final_entries.iter().all(|e| e.value.as_ref() == b"000199"));
}

#[test]
fn cluster_parallel_scans_under_write_load() {
    let cluster = Cluster::open(ClusterOptions {
        shards: 4,
        store: StoreOptions { memtable_bytes: 4 << 10, ..StoreOptions::in_memory() },
        ..ClusterOptions::default()
    })
    .unwrap()
    .with_pool(Arc::new(ScopedPool::new(0)));
    std::thread::scope(|s| {
        for shard in 0..4u8 {
            let cluster = &cluster;
            s.spawn(move || {
                for i in 0..1_000u32 {
                    let mut key = vec![shard];
                    key.extend_from_slice(format!("k{i:05}").as_bytes());
                    cluster.put(key, "v").expect("put");
                }
            });
        }
        // Concurrent cross-shard scans.
        let cluster = &cluster;
        s.spawn(move || {
            for _ in 0..20 {
                let _ = cluster.scan(KeyRange::all()).expect("scan");
            }
        });
    });
    assert_eq!(cluster.scan(KeyRange::all()).unwrap().len(), 4_000);
    let counts = cluster.region_entry_counts();
    assert!(counts.iter().all(|&c| c >= 1_000), "counts {counts:?}");
}

#[test]
fn file_backed_parallel_scans_race_writes_and_flushes() {
    // Table blocks are read with positioned reads on a shared handle, no
    // lock held; a cache far smaller than the data keeps every scan on
    // that path. Every row a scan returns must be a whole version of its
    // key, in order, and the rows loaded before the race must all show.
    let dir = std::env::temp_dir().join(format!("trass-kv-conc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cluster = Cluster::open(ClusterOptions {
        shards: 2,
        store: StoreOptions {
            memtable_bytes: 8 << 10,
            block_size: 512,
            block_cache_bytes: 4 << 10,
            compaction_threshold: 4,
            ..StoreOptions::at_dir(&dir)
        },
        ..ClusterOptions::default()
    })
    .expect("open")
    .with_pool(Arc::new(ScopedPool::new(2)));
    let key = |shard: u8, k: u32| {
        let mut key = vec![shard];
        key.extend_from_slice(format!("key-{k:04}").as_bytes());
        key
    };
    // Every value names its key and round and has the same length, so one
    // read at a wrong offset or torn between versions matches no version.
    let value = |k: u32, round: u32| format!("{k:04}:{round:06}:{}", "x".repeat(40));
    for k in 0..300u32 {
        cluster.put(key((k % 2) as u8, k), value(k, 0)).expect("put");
    }
    cluster.flush().expect("flush");
    let ranges: Vec<KeyRange> = (0..2u8)
        .flat_map(|s| (0..6u32).map(move |i| KeyRange::new(key(s, i * 50), key(s, i * 50 + 30))))
        .collect();
    let expected_rows = 2 * 6 * 30 / 2;
    let stop = AtomicBool::new(false);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for round in 1..=40u32 {
                for k in (0..300u32).step_by(3) {
                    cluster.put(key((k % 2) as u8, k), value(k, round)).expect("put");
                }
                if round % 5 == 0 {
                    cluster.flush().expect("flush");
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                let mut scans = 0;
                while !stop.load(Ordering::SeqCst) || scans == 0 {
                    let rows = cluster.scan_ranges(&ranges, &KeepAll).expect("scan");
                    assert_eq!(rows.len(), expected_rows, "a loaded row went missing");
                    for pair in rows.windows(2) {
                        if pair[0].key[0] == pair[1].key[0] {
                            assert!(pair[0].key < pair[1].key, "scan out of order");
                        }
                    }
                    for row in &rows {
                        let v = std::str::from_utf8(&row.value).expect("utf8");
                        let k: u32 = std::str::from_utf8(&row.key[5..]).unwrap().parse().unwrap();
                        let (vk, rest) = v.split_once(':').expect("key field");
                        assert_eq!(vk.parse::<u32>().unwrap(), k, "value of another key");
                        let round: u32 = rest.split(':').next().unwrap().parse().unwrap();
                        assert!(round <= 40);
                        assert_eq!(v, value(k, round), "torn value");
                    }
                    scans += 1;
                }
            });
        }
    });
    let io = cluster.metrics_snapshot();
    assert!(io.blocks_read > 0, "the race never read a block from a file");
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}
