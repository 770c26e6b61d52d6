//! Query fingerprinting and workload analytics.
//!
//! A *fingerprint* normalises a query into its shape: the query type,
//! distance measure, and coarse (power-of-two bucketed) magnitudes of its
//! parameters — threshold, k, trajectory length, region fan-out. Queries
//! that differ only by parameter jitter share a fingerprint; queries of
//! different types or measures never collide. The [`WorkloadSummary`]
//! aggregates per-fingerprint cost statistics (count, latency
//! percentiles, bytes scanned, candidates, prune ratio, allocation) in a
//! fixed-capacity table, giving an at-a-glance answer to "which query
//! shapes dominate this workload, and what do they cost?" — the
//! aggregate view REPOSE-style load balancing decisions need.

use crate::sync::Mutex;
use std::time::Duration;

use crate::histogram::Histogram;

/// Bucket a count to the next power of two (`0 → 1`), so jittered sizes
/// normalise to the same magnitude class.
pub fn bucket_pow2(n: u64) -> u64 {
    n.max(1).next_power_of_two()
}

/// Bucket a positive float to its floor power-of-two exponent
/// (`0.010 → -7`, `12.0 → 3`); `None` for zero/negative/non-finite.
pub fn bucket_log2(x: f64) -> Option<i32> {
    if !x.is_finite() || x <= 0.0 {
        return None;
    }
    // Exact for every finite positive f64; clamp is cosmetic.
    Some(x.log2().floor().clamp(-1024.0, 1024.0) as i32)
}

/// A normalised query shape. Equal fingerprints ⇒ same shape class.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryFingerprint {
    /// Query type: `threshold`, `topk`, or `range`.
    pub kind: &'static str,
    /// Distance measure (`frechet`, `hausdorff`, `dtw`); empty for range.
    pub measure: String,
    /// `floor(log2(eps))` for threshold queries.
    pub eps_bucket: Option<i32>,
    /// `k` rounded up to a power of two, for top-k queries.
    pub k_bucket: Option<u64>,
    /// Query trajectory point count rounded up to a power of two.
    pub len_bucket: Option<u64>,
    /// Scanned rowkey-range count rounded up to a power of two, for
    /// range queries (their cost driver is index fan-out, not a query
    /// trajectory).
    pub ranges_bucket: Option<u64>,
}

impl QueryFingerprint {
    /// Fingerprint of a threshold (similarity-range) query.
    pub fn threshold(measure: &str, eps: f64, query_points: usize) -> QueryFingerprint {
        QueryFingerprint {
            kind: "threshold",
            measure: measure.to_string(),
            eps_bucket: bucket_log2(eps),
            k_bucket: None,
            len_bucket: Some(bucket_pow2(query_points as u64)),
            ranges_bucket: None,
        }
    }

    /// Fingerprint of a top-k query.
    pub fn topk(measure: &str, k: usize, query_points: usize) -> QueryFingerprint {
        QueryFingerprint {
            kind: "topk",
            measure: measure.to_string(),
            eps_bucket: None,
            k_bucket: Some(bucket_pow2(k as u64)),
            len_bucket: Some(bucket_pow2(query_points as u64)),
            ranges_bucket: None,
        }
    }

    /// Fingerprint of a spatio-temporal range query over `n_ranges`
    /// scanned rowkey ranges.
    pub fn range(n_ranges: usize) -> QueryFingerprint {
        QueryFingerprint {
            kind: "range",
            measure: String::new(),
            eps_bucket: None,
            k_bucket: None,
            len_bucket: None,
            ranges_bucket: Some(bucket_pow2(n_ranges as u64)),
        }
    }

    /// Canonical textual key, e.g. `threshold|frechet|eps:2^-7|len:128`.
    pub fn key(&self) -> String {
        let mut s = String::from(self.kind);
        if !self.measure.is_empty() {
            s.push('|');
            s.push_str(&self.measure);
        }
        match self.eps_bucket {
            Some(e) => s.push_str(&format!("|eps:2^{e}")),
            None if self.kind == "threshold" => s.push_str("|eps:0"),
            None => {}
        }
        if let Some(k) = self.k_bucket {
            s.push_str(&format!("|k:{k}"));
        }
        if let Some(l) = self.len_bucket {
            s.push_str(&format!("|len:{l}"));
        }
        if let Some(r) = self.ranges_bucket {
            s.push_str(&format!("|ranges:{r}"));
        }
        s
    }
}

impl std::fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.key())
    }
}

/// Per-query cost sample fed into [`WorkloadSummary::record`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadStats {
    /// End-to-end query latency.
    pub latency: Duration,
    /// KV bytes read while serving the query.
    pub bytes_scanned: u64,
    /// Rows retrieved by the scan stage.
    pub retrieved: u64,
    /// Candidates surviving the local filter.
    pub candidates: u64,
    /// Final result count.
    pub results: u64,
    /// Candidates discarded by refinement's lower-bound prefilter before
    /// any exact kernel ran.
    pub refine_pruned: u64,
    /// Bytes allocated on the driver thread while serving the query
    /// (zero when no counting allocator is installed).
    pub alloc_bytes: u64,
}

struct Entry {
    key: String,
    count: u64,
    latency: Histogram,
    bytes_scanned: u64,
    retrieved: u64,
    candidates: u64,
    results: u64,
    refine_pruned: u64,
    alloc_bytes: u64,
}

impl Entry {
    fn new(key: String) -> Entry {
        Entry {
            key,
            count: 0,
            latency: Histogram::with_scale(1e-9),
            bytes_scanned: 0,
            retrieved: 0,
            candidates: 0,
            results: 0,
            refine_pruned: 0,
            alloc_bytes: 0,
        }
    }

    fn add(&mut self, s: &WorkloadStats) {
        self.count += 1;
        self.latency.record_duration(s.latency);
        self.bytes_scanned += s.bytes_scanned;
        self.retrieved += s.retrieved;
        self.candidates += s.candidates;
        self.results += s.results;
        self.refine_pruned += s.refine_pruned;
        self.alloc_bytes += s.alloc_bytes;
    }

    /// Fraction of retrieved rows killed by the local filter.
    fn prune_ratio(&self) -> f64 {
        if self.retrieved == 0 {
            0.0
        } else {
            1.0 - (self.candidates as f64 / self.retrieved as f64)
        }
    }
}

/// Key under which queries beyond the fingerprint capacity aggregate.
pub const OVERFLOW_KEY: &str = "~overflow";

/// Deterministic totals summed across every fingerprint — the
/// "attribution totals" that must not depend on `query_threads`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkloadTotals {
    /// Queries recorded.
    pub count: u64,
    /// Rows retrieved by scans.
    pub retrieved: u64,
    /// Local-filter survivors.
    pub candidates: u64,
    /// Final results.
    pub results: u64,
    /// KV bytes read.
    pub bytes_scanned: u64,
}

/// A fixed-capacity per-fingerprint statistics table. The first
/// `capacity` distinct fingerprints get their own entry; later ones fold
/// into [`OVERFLOW_KEY`] so memory stays bounded however diverse the
/// workload.
pub struct WorkloadSummary {
    capacity: usize,
    entries: Mutex<Vec<Entry>>,
}

impl WorkloadSummary {
    /// An empty summary tracking at most `capacity` distinct
    /// fingerprints (plus the overflow bucket).
    pub fn new(capacity: usize) -> WorkloadSummary {
        WorkloadSummary { capacity: capacity.max(1), entries: Mutex::new(Vec::new()) }
    }

    /// Records one query's cost sample under its fingerprint.
    pub fn record(&self, fp: &QueryFingerprint, stats: &WorkloadStats) {
        let key = fp.key();
        let mut entries = self.entries.lock();
        let at = match entries.iter().position(|e| e.key == key) {
            Some(i) => i,
            None if entries.len() < self.capacity => {
                entries.push(Entry::new(key));
                entries.len() - 1
            }
            None => match entries.iter().position(|e| e.key == OVERFLOW_KEY) {
                Some(i) => i,
                None => {
                    entries.push(Entry::new(OVERFLOW_KEY.to_string()));
                    entries.len() - 1
                }
            },
        };
        entries[at].add(stats);
    }

    /// Number of distinct fingerprint entries (including overflow).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tracked fingerprint keys, busiest first.
    pub fn fingerprints(&self) -> Vec<String> {
        let mut entries: Vec<(String, u64)> =
            self.entries.lock().iter().map(|e| (e.key.clone(), e.count)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.into_iter().map(|(k, _)| k).collect()
    }

    /// Deterministic attribution totals across all fingerprints.
    pub fn totals(&self) -> WorkloadTotals {
        let entries = self.entries.lock();
        let mut t = WorkloadTotals::default();
        for e in entries.iter() {
            t.count += e.count;
            t.retrieved += e.retrieved;
            t.candidates += e.candidates;
            t.results += e.results;
            t.bytes_scanned += e.bytes_scanned;
        }
        t
    }

    /// Human-readable table, busiest fingerprint first.
    pub fn render_text(&self) -> String {
        let entries = self.entries.lock();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[b]
                .count
                .cmp(&entries[a].count)
                .then_with(|| entries[a].key.cmp(&entries[b].key))
        });
        let mut s = format!(
            "workload summary: {} shapes, {} queries\n",
            entries.len(),
            entries.iter().map(|e| e.count).sum::<u64>()
        );
        s.push_str("count    p50_ms    p99_ms  prune  rprune      bytes      alloc  fingerprint\n");
        for &i in &order {
            let e = &entries[i];
            let p = e.latency.percentiles();
            s.push_str(&format!(
                "{:>5} {:>9.3} {:>9.3} {:>6.3} {:>7} {:>10} {:>10}  {}\n",
                e.count,
                p.p50 as f64 / 1e6,
                p.p99 as f64 / 1e6,
                e.prune_ratio(),
                e.refine_pruned,
                e.bytes_scanned,
                e.alloc_bytes,
                e.key,
            ));
        }
        s
    }

    /// JSON rendering (same content as [`WorkloadSummary::render_text`]).
    pub fn render_json(&self) -> String {
        let entries = self.entries.lock();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[b]
                .count
                .cmp(&entries[a].count)
                .then_with(|| entries[a].key.cmp(&entries[b].key))
        });
        let mut s = String::from("{\"fingerprints\":[");
        for (n, &i) in order.iter().enumerate() {
            let e = &entries[i];
            let p = e.latency.percentiles();
            if n > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"fingerprint\":{},\"count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\
                 \"bytes_scanned\":{},\"retrieved\":{},\"candidates\":{},\"results\":{},\
                 \"prune_ratio\":{:.4},\"refine_pruned\":{},\"alloc_bytes\":{}}}",
                crate::json::string(&e.key),
                e.count,
                p.p50 as f64 / 1e6,
                p.p99 as f64 / 1e6,
                e.bytes_scanned,
                e.retrieved,
                e.candidates,
                e.results,
                e.prune_ratio(),
                e.refine_pruned,
                e.alloc_bytes,
            ));
        }
        s.push_str("]}");
        s
    }
}

impl std::fmt::Debug for WorkloadSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSummary")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: u64) -> WorkloadStats {
        WorkloadStats {
            latency: Duration::from_millis(ms),
            bytes_scanned: 100,
            retrieved: 50,
            candidates: 10,
            results: 5,
            refine_pruned: 3,
            alloc_bytes: 1000,
        }
    }

    #[test]
    fn parameter_jitter_normalises_to_one_fingerprint() {
        // eps within one power-of-two bucket, k within one bucket,
        // lengths within one bucket: identical fingerprints.
        let a = QueryFingerprint::threshold("frechet", 0.010, 100);
        let b = QueryFingerprint::threshold("frechet", 0.0117, 117);
        assert_eq!(a, b);
        assert_eq!(a.key(), b.key());
        let c = QueryFingerprint::topk("hausdorff", 10, 100);
        let d = QueryFingerprint::topk("hausdorff", 12, 127);
        assert_eq!(c, d);
        let e = QueryFingerprint::range(100);
        let f = QueryFingerprint::range(128);
        assert_eq!(e, f);
    }

    #[test]
    fn distinct_types_and_measures_never_collide() {
        let shapes = [
            QueryFingerprint::threshold("frechet", 0.01, 100),
            QueryFingerprint::threshold("hausdorff", 0.01, 100),
            QueryFingerprint::threshold("dtw", 0.01, 100),
            QueryFingerprint::topk("frechet", 10, 100),
            QueryFingerprint::topk("hausdorff", 10, 100),
            QueryFingerprint::range(100),
        ];
        for (i, a) in shapes.iter().enumerate() {
            for (j, b) in shapes.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                    assert_ne!(a.key(), b.key());
                }
            }
        }
    }

    #[test]
    fn magnitude_changes_split_fingerprints() {
        let a = QueryFingerprint::threshold("frechet", 0.01, 100);
        let b = QueryFingerprint::threshold("frechet", 0.04, 100); // other eps bucket
        let c = QueryFingerprint::threshold("frechet", 0.01, 400); // other len bucket
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(bucket_log2(0.0), None);
        assert_eq!(bucket_log2(f64::NAN), None);
        assert_eq!(bucket_log2(8.0), Some(3));
        assert_eq!(bucket_pow2(0), 1);
        assert_eq!(bucket_pow2(100), 128);
    }

    #[test]
    fn summary_aggregates_and_ranks_by_count() {
        let s = WorkloadSummary::new(8);
        let fp1 = QueryFingerprint::threshold("frechet", 0.01, 100);
        let fp2 = QueryFingerprint::topk("frechet", 10, 100);
        for _ in 0..3 {
            s.record(&fp1, &sample(5));
        }
        s.record(&fp2, &sample(50));
        assert_eq!(s.len(), 2);
        let order = s.fingerprints();
        assert_eq!(order[0], fp1.key());
        let t = s.totals();
        assert_eq!(t.count, 4);
        assert_eq!(t.retrieved, 200);
        assert_eq!(t.candidates, 40);
        let text = s.render_text();
        assert!(text.contains("workload summary: 2 shapes, 4 queries"), "{text}");
        assert!(text.contains(&fp1.key()), "{text}");
        let json = s.render_json();
        assert!(json.contains("\"count\":3"), "{json}");
        assert!(json.contains("\"prune_ratio\":0.8000"), "{json}");
    }

    #[test]
    fn capacity_overflow_folds_into_one_bucket() {
        let s = WorkloadSummary::new(2);
        for k in 0..5usize {
            // Different k buckets → distinct fingerprints.
            let fp = QueryFingerprint::topk("frechet", 1 << k, 100);
            s.record(&fp, &sample(1));
        }
        assert_eq!(s.len(), 3, "2 tracked + overflow");
        assert!(s.fingerprints().contains(&OVERFLOW_KEY.to_string()));
        assert_eq!(s.totals().count, 5);
    }
}
