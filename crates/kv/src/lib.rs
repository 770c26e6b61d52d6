//! An embedded, log-structured key-value store with HBase-flavoured
//! semantics — the storage substrate TraSS runs on.
//!
//! The paper instantiates TraSS on HBase (§VI). What TraSS actually needs
//! from its store is a small, well-defined contract:
//!
//! * **ordered byte keys** with efficient **range scans** (rowkey scans),
//! * **server-side filter push-down** ("coprocessors"): a predicate applied
//!   during the scan, inside the region, so filtered rows never cross the
//!   wire,
//! * **regions**: range partitions of the keyspace spread over region
//!   servers, addressed by a hash *shard* prefix in the rowkey (§IV-E),
//! * **I/O accounting**, because the paper's headline numbers are I/O
//!   reductions.
//!
//! This crate implements that contract from scratch as a miniature LSM
//! tree: a write-ahead log ([`wal`]), a sorted memtable ([`memtable`]),
//! block-structured SSTables with a resident key directory and
//! CRC-protected blocks ([`sstable`], [`block`], [`crc`]), size-tiered
//! compaction, a merging iterator ([`merge`]), and a sharded
//! [`cluster::Cluster`] that
//! emulates the multi-node deployment of the evaluation. Both disk-backed
//! and fully in-memory operation are supported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout, clippy::print_stderr)
)]

pub mod block;
pub mod cache;
pub mod cluster;
mod codec;
pub mod crc;
mod error;
pub mod filter;
pub mod memtable;
pub mod merge;
pub mod metrics;
pub mod sstable;
pub mod store;
mod types;
pub mod wal;

pub use cluster::{Cluster, ClusterOptions};
pub use error::{KvError, Result};
pub use filter::{FilterDecision, ScanFilter};
pub use metrics::{IoMetrics, MetricsSnapshot};
pub use store::{LsmStore, StoreOptions};
pub use types::{Bytes, Entry, KeyRange};
