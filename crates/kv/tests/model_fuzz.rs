//! Model-based fuzzing of the LSM store: random operation sequences
//! (put / delete / flush / compact / reopen) are applied both to the store
//! and to a `BTreeMap` reference model; every observation (gets, full and
//! partial scans, multi-range scans, occupancy probes) must agree. This is
//! the test that catches merge-order, tombstone, and recovery bugs that
//! unit tests miss.

use std::collections::BTreeMap;
use trass_kv::filter::KeepAll;
use trass_kv::{KeyRange, LsmStore, StoreOptions};
use trass_rng::{check, Rng};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Flush,
    Compact,
    Scan(u16, u16),
    /// One `scan_ranges_filtered` call over these `[lo, hi)` pairs, in
    /// this order.
    ScanMany(Vec<(u16, u16)>),
    Get(u16),
}

/// Weights 6 put : 2 delete : 1 flush : 1 compact : 2 scan : 1 multi-range
/// scan : 2 get over 512 keys.
fn op(rng: &mut Rng) -> Op {
    let mut key = || rng.usize_in(0, 511) as u16;
    let (a, b) = (key(), key());
    match rng.usize_in(0, 14) {
        0..=5 => Op::Put(a, rng.u64() as u8),
        6..=7 => Op::Delete(a),
        8 => Op::Flush,
        9 => Op::Compact,
        10..=11 => Op::Scan(a, b),
        12 => Op::ScanMany(range_list(rng)),
        _ => Op::Get(a),
    }
}

/// `0..=8` ranges: overlapping and repeated by chance, one in four empty,
/// and the whole list sorted by start half the time (the order the query
/// layer emits) and left as drawn otherwise.
fn range_list(rng: &mut Rng) -> Vec<(u16, u16)> {
    let mut ranges: Vec<(u16, u16)> = (0..rng.len(0, 8))
        .map(|_| {
            let (a, b) = (rng.usize_in(0, 511) as u16, rng.usize_in(0, 80) as u16);
            if rng.usize_in(0, 3) == 0 {
                (a, a)
            } else {
                (a, a.saturating_add(b).min(512))
            }
        })
        .collect();
    if rng.usize_in(0, 1) == 0 {
        ranges.sort_unstable();
    }
    ranges
}

/// `1..=max` ops.
fn ops(rng: &mut Rng, max: usize) -> Vec<Op> {
    (0..rng.len(1, max)).map(|_| op(rng)).collect()
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

fn value_bytes(v: u8) -> Vec<u8> {
    format!("value-{v:03}").into_bytes()
}

fn tiny_store() -> LsmStore {
    LsmStore::open(StoreOptions {
        memtable_bytes: 512, // force frequent flushes
        block_size: 128,     // many small blocks
        compaction_threshold: 3,
        block_cache_bytes: 4096, // tiny cache, heavy eviction
        ..StoreOptions::in_memory()
    })
    .expect("open")
}

fn check_agreement(store: &LsmStore, model: &BTreeMap<Vec<u8>, Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Scan(a, b) => {
                let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                let range = KeyRange::new(key_bytes(lo), key_bytes(hi));
                let got: Vec<(Vec<u8>, Vec<u8>)> = store
                    .scan(range)
                    .expect("scan")
                    .into_iter()
                    .map(|e| (e.key.to_vec(), e.value.to_vec()))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key_bytes(lo)..key_bytes(hi))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "scan [{lo}, {hi}) diverged");
            }
            Op::ScanMany(pairs) => {
                let ranges: Vec<KeyRange> = pairs
                    .iter()
                    .map(|&(lo, hi)| KeyRange::new(key_bytes(lo), key_bytes(hi)))
                    .collect();
                let rows = |entries: Vec<trass_kv::Entry>| -> Vec<(Vec<u8>, Vec<u8>)> {
                    entries.into_iter().map(|e| (e.key.to_vec(), e.value.to_vec())).collect()
                };
                let (entries, io) =
                    store.scan_ranges_filtered(&ranges, &KeepAll).expect("multi-scan");
                let got = rows(entries);
                assert_eq!(io.range_scans, ranges.len() as u64);
                assert_eq!(
                    (io.entries_scanned, io.entries_returned),
                    (got.len() as u64, got.len() as u64)
                );
                // The per-range loop the multi-range call replaced.
                let looped: Vec<_> = ranges
                    .iter()
                    .flat_map(|r| rows(store.scan(r.clone()).expect("scan")))
                    .collect();
                let want: Vec<_> = pairs
                    .iter()
                    .flat_map(|&(lo, hi)| model.range(key_bytes(lo)..key_bytes(hi)))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "multi-range scan {pairs:?} diverged from the model");
                assert_eq!(got, looped, "multi-range scan {pairs:?} diverged from the loop");
                // The resident key listing never misses a live key,
                // whatever mix of memtable, tables and tombstones holds the
                // range.
                for (range, &(lo, hi)) in ranges.iter().zip(pairs) {
                    let mut listed = Vec::new();
                    store.visit_resident_keys(range, &mut |key| listed.push(key.to_vec()));
                    for (key, _) in model.range(key_bytes(lo)..key_bytes(hi)) {
                        assert!(listed.contains(key), "live key missing from [{lo}, {hi})");
                    }
                }
            }
            Op::Get(k) => {
                let got = store.get(&key_bytes(*k)).expect("get").map(|b| b.to_vec());
                let want = model.get(&key_bytes(*k)).cloned();
                assert_eq!(got, want, "get {k} diverged");
            }
            _ => {}
        }
    }
}

/// Applies a mutation to store and model alike; checks an observation.
fn apply(store: &LsmStore, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            store.put(key_bytes(*k), value_bytes(*v)).expect("put");
            model.insert(key_bytes(*k), value_bytes(*v));
        }
        Op::Delete(k) => {
            store.delete(key_bytes(*k)).expect("delete");
            model.remove(&key_bytes(*k));
        }
        Op::Flush => store.flush().expect("flush"),
        Op::Compact => store.compact().expect("compact"),
        other => check_agreement(store, model, std::slice::from_ref(other)),
    }
}

#[test]
fn store_agrees_with_model() {
    check(48, |rng| {
        let ops = ops(rng, 199);
        let store = tiny_store();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            apply(&store, &mut model, op);
        }
        // Final full-scan agreement.
        let got: Vec<Vec<u8>> = store
            .scan(KeyRange::all())
            .expect("scan")
            .into_iter()
            .map(|e| e.key.to_vec())
            .collect();
        let want: Vec<Vec<u8>> = model.keys().cloned().collect();
        assert_eq!(got, want);
    });
}

/// Runs each batch in a fresh store instance over one directory: recovery
/// from manifest + WAL must reconstruct exactly the model state.
fn disk_store_agrees_across_reopens(batches: &[Vec<Op>], case_id: u64) {
    let dir = std::env::temp_dir().join(format!("trass-fuzz-{}-{case_id}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = StoreOptions {
        memtable_bytes: 512,
        block_size: 128,
        compaction_threshold: 3,
        ..StoreOptions::at_dir(&dir)
    };
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for batch in batches {
        let store = LsmStore::open(opts.clone()).expect("open");
        let got: Vec<Vec<u8>> = store
            .scan(KeyRange::all())
            .expect("scan")
            .into_iter()
            .map(|e| e.key.to_vec())
            .collect();
        let want: Vec<Vec<u8>> = model.keys().cloned().collect();
        assert_eq!(got, want, "state lost across reopen");
        for op in batch {
            apply(&store, &mut model, op);
        }
        // Drop without flush: the WAL carries the tail.
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_store_agrees_with_model_across_reopens() {
    check(48, |rng| {
        let batches: Vec<Vec<Op>> = (0..rng.len(1, 3)).map(|_| ops(rng, 59)).collect();
        disk_store_agrees_across_reopens(&batches, rng.u64());
    });
}

/// The two minimal failures the reopen property found in the past (a
/// flush/compact across a reopen losing or resurrecting rows), kept as
/// fixed cases.
#[test]
fn past_reopen_failures_stay_fixed() {
    use Op::*;
    #[rustfmt::skip]
    let first = vec![
        vec![Put(0, 0), Put(1, 0), Put(2, 0), Put(3, 0)],
        vec![Put(4, 0), Put(5, 28), Put(460, 50), Put(509, 158), Put(107, 93), Put(303, 55),
            Delete(357), Delete(171), Flush, Compact],
        vec![Put(343, 18), Put(177, 185), Get(35), Scan(257, 194), Scan(115, 340),
            Put(135, 245), Get(94), Put(476, 11), Flush, Scan(37, 116), Get(494), Put(263, 71),
            Put(59, 247), Scan(313, 196), Put(251, 6), Get(131), Flush, Compact, Get(301),
            Flush, Put(290, 168), Put(444, 101), Scan(331, 141), Flush, Put(231, 14)],
    ];
    disk_store_agrees_across_reopens(&first, 1);
    #[rustfmt::skip]
    let second = vec![
        vec![Put(344, 0), Put(0, 0), Put(1, 0), Put(2, 0), Put(3, 0), Put(6, 205), Put(319, 12),
            Put(343, 180), Put(389, 183), Put(288, 165), Delete(12), Delete(365), Delete(37),
            Put(73, 183), Put(172, 79), Put(414, 193), Put(174, 50), Put(92, 126), Delete(15),
            Put(332, 10), Put(293, 14), Put(350, 100), Put(82, 92)],
        vec![Put(154, 143), Put(175, 217), Put(80, 13), Get(84), Delete(297), Flush, Get(315),
            Flush, Put(288, 248), Put(234, 89), Put(137, 253), Put(361, 227), Put(357, 116),
            Put(435, 111), Put(119, 206), Delete(76), Compact, Scan(201, 384), Flush,
            Put(247, 87), Get(339), Put(447, 6), Put(492, 117), Flush, Scan(202, 167),
            Put(251, 155), Put(423, 250), Put(465, 161), Put(200, 178), Put(141, 232), Compact,
            Put(239, 154), Get(199), Put(123, 108), Scan(375, 427), Put(278, 13), Delete(489),
            Put(106, 159), Put(169, 243), Put(59, 99), Put(202, 23), Put(386, 110), Get(452),
            Put(68, 165), Scan(309, 506), Put(258, 194), Compact, Put(415, 237)],
    ];
    disk_store_agrees_across_reopens(&second, 2);
}
