//! Concurrency tests: readers and writers racing on one store and across
//! a cluster. The store promises linearizable point reads and scans that
//! observe some consistent prefix of the write history.

use std::sync::atomic::{AtomicBool, Ordering};
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
    .unwrap();
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
