//! Fault-injection tests: corrupt on-disk state must surface as clean
//! `KvError`s — never panics, never silently wrong data.

use trass_kv::sstable::{SsTable, SsTableBuilder};
use trass_kv::{Bytes, KeyRange, KvError, LsmStore, StoreOptions};
use trass_rng::check;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("trass-fault-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Builds a store with data on disk and returns its directory.
fn build_disk_store(tag: &str) -> std::path::PathBuf {
    let dir = temp_dir(tag);
    let store = LsmStore::open(StoreOptions {
        memtable_bytes: 2 << 10,
        block_size: 256,
        ..StoreOptions::at_dir(&dir)
    })
    .expect("open");
    for i in 0..500u32 {
        store.put(format!("key-{i:06}"), format!("value-{i:06}")).expect("put");
    }
    store.flush().expect("flush");
    drop(store);
    dir
}

fn sst_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    out.sort();
    out
}

/// Flipping any byte of any SSTable either fails at open or fails at
/// read/scan — but never panics and never yields wrong values for keys
/// whose blocks are intact.
#[test]
fn random_sst_corruption_is_detected() {
    check(24, |rng| {
        let (offset_seed, bit) = (rng.u64(), rng.usize_in(0, 7));
        let dir = build_disk_store(&format!("sst-{offset_seed}-{bit}"));
        let files = sst_files(&dir);
        assert!(!files.is_empty(), "500 flushed rows leave at least one table");
        let victim = &files[(offset_seed as usize) % files.len()];
        let mut bytes = std::fs::read(victim).expect("read sst");
        let pos = (offset_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        std::fs::write(victim, &bytes).expect("write sst");

        match LsmStore::open(StoreOptions::at_dir(&dir)) {
            Err(_) => {} // detected at open (directory/footer damage)
            Ok(store) => {
                // Open succeeded: damage sits in a data block. Every
                // operation must either succeed with *correct* data or
                // return an error.
                for i in (0..500u32).step_by(37) {
                    let key = format!("key-{i:06}");
                    match store.get(key.as_bytes()) {
                        Ok(Some(v)) => {
                            let expected = format!("value-{i:06}");
                            assert_eq!(
                                v.as_ref(),
                                expected.as_bytes(),
                                "corruption returned wrong data"
                            );
                        }
                        Ok(None) => {
                            // Absence is answered by the key directory,
                            // whose bytes are CRC-protected and were
                            // verified at open — so a missing key means a
                            // block errored somewhere else first. Verify a
                            // scan reports the corruption.
                            let scan: Result<Vec<_>, _> = store.scan(KeyRange::all());
                            assert!(scan.is_err(), "key silently missing without any error");
                        }
                        Err(_) => {} // detected
                    }
                }
                // Full scans either succeed completely or error.
                if let Ok(entries) = store.scan(KeyRange::all()) {
                    assert_eq!(entries.len(), 500);
                    for e in entries {
                        let k = String::from_utf8(e.key.to_vec()).expect("utf8");
                        let i: u32 = k.trim_start_matches("key-").parse().expect("id");
                        let expected = format!("value-{i:06}");
                        assert_eq!(e.value.as_ref(), expected.as_bytes());
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The key directory decides which rows a range or a lookup resolves to,
/// so damage there must never reach a reader: any changed byte from the
/// start of the directory to the end of the footer fails the open.
#[test]
fn any_flipped_directory_or_footer_byte_is_detected_at_open() {
    let mut builder = SsTableBuilder::new(256);
    for i in 0..300u32 {
        builder.add(format!("key-{i:06}").as_bytes(), Some(format!("value-{i:06}").as_bytes()));
    }
    let bytes = builder.finish();
    SsTable::open_mem(Bytes::from(bytes.clone()), None).expect("intact table opens");
    // Footer: [dir_off: u64][dir_len: u64][n_entries: u64][magic: u64].
    let footer = bytes.len() - 32;
    let dir_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().expect("8 bytes"));
    let dir_off = dir_off as usize;
    assert!(footer - dir_off > 300, "one directory entry per key");
    let mut rng = trass_rng::Rng::new(7);
    for pos in dir_off..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= rng.usize_in(1, 255) as u8;
        assert!(
            SsTable::open_mem(Bytes::from(damaged), None).is_err(),
            "changed byte at {pos} (directory starts at {dir_off}, footer at {footer}) opened"
        );
    }
}

/// A table written before the key directory (last-key index block, bloom
/// section, 48-byte footer; these bytes came from that build's
/// `SsTableBuilder`) is refused with the typed version error, by the table
/// reader and by a store whose manifest names it — never read as damage,
/// never misread as data.
#[test]
fn table_in_the_previous_format_is_refused_with_the_version_error() {
    let fixture: &[u8] = include_bytes!("fixtures/parent_format.sst");
    let refused = |e: KvError| matches!(e, KvError::UnsupportedFormat { found: 0x42, .. });
    let err =
        SsTable::open_mem(Bytes::copy_from_slice(fixture), None).expect_err("old table opened");
    assert!(refused(err));

    let dir = temp_dir("old-format");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("00000000.sst"), fixture).expect("write table");
    std::fs::write(dir.join("MANIFEST"), "00000000.sst").expect("write manifest");
    let err = LsmStore::open(StoreOptions::at_dir(&dir)).expect_err("store opened an old table");
    assert!(refused(err));
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating the WAL at any point loses only the tail; everything
/// recovered must be a prefix-consistent state.
#[test]
fn wal_truncation_recovers_prefix() {
    check(24, |rng| {
        let cut_fraction = rng.f64();
        let dir = temp_dir(&format!("wal-{}", (cut_fraction * 1e9) as u64));
        {
            let store = LsmStore::open(StoreOptions::at_dir(&dir)).expect("open");
            for i in 0..200u32 {
                store.put(format!("key-{i:06}"), format!("v{i}")).expect("put");
            }
            // No flush: everything lives in the WAL.
        }
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).expect("read wal");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).expect("truncate");

        let store = LsmStore::open(StoreOptions::at_dir(&dir)).expect("recover");
        let entries = store.scan(KeyRange::all()).expect("scan");
        // Recovered rows must be exactly keys 0..n for some n (writes were
        // sequential, so recovery is a prefix).
        for (i, e) in entries.iter().enumerate() {
            let expected = format!("key-{i:06}");
            assert_eq!(e.key.as_ref(), expected.as_bytes(), "recovery produced a non-prefix state");
        }
        assert!(entries.len() <= 200);
        std::fs::remove_dir_all(&dir).ok();
    });
}
