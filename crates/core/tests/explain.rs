//! End-to-end acceptance tests for `TrajectoryStore::explain` and the
//! per-query tracing pipeline: span-tree shape, per-shard scan spans,
//! consistency between trace fields and `QueryStats`, renderer round-trips
//! and the sampled-out fast path.

use trass_core::config::TrassConfig;
use trass_core::store::{ExplainQuery, TrajectoryStore};
use trass_geo::Mbr;
use trass_obs::json::{self, Value};
use trass_obs::{FieldValue, SpanRecord};
use trass_traj::{generator, Measure};

fn populated_store(n: usize, sample_every: u64) -> (TrajectoryStore, Vec<trass_traj::Trajectory>) {
    let extent = Mbr::new(116.0, 39.6, 116.8, 40.2);
    let mut config = TrassConfig::for_extent(extent);
    config.trace_sample_every = sample_every;
    let store = TrajectoryStore::open(config).unwrap();
    let data = generator::tdrive_like(7, n);
    store.insert_all(&data).unwrap();
    store.flush().unwrap();
    (store, data)
}

#[test]
fn explain_threshold_builds_the_full_span_tree() {
    let (store, data) = populated_store(200, 0);
    let q = &data[5];
    let explained = store
        .explain(ExplainQuery::Threshold { query: q, eps: 0.02, measure: Measure::Frechet })
        .unwrap();
    let root = &explained.trace.root;
    assert_eq!(root.name, "threshold");
    assert_eq!(root.label("measure"), Some("frechet"));

    // Stage children in pipeline order.
    let pruning = root.child("pruning").expect("pruning child");
    let scan = root.child("scan").expect("scan child");
    let filter = root.child("local-filter").expect("local-filter child");
    let refine = root.child("refine").expect("refine child");

    // Global pruning accounted for the traversal.
    assert!(pruning.field_u64("visited").unwrap() > 0);
    assert!(pruning.field_u64("key_ranges").unwrap() > 0);

    // One region-scan child per shard touched, each with real work in it.
    let region_spans: Vec<_> = scan.children_named("region-scan").collect();
    assert!(!region_spans.is_empty(), "no region-scan spans under scan");
    assert!(region_spans.len() <= store.config().shards as usize);
    let mut seen_shards = std::collections::HashSet::new();
    let mut scanned_total = 0;
    for rs in &region_spans {
        let shard = rs.label("shard").expect("shard label").to_string();
        assert!(seen_shards.insert(shard), "duplicate shard span");
        scanned_total += rs.field_u64("rows_scanned").unwrap();
    }
    assert!(scanned_total > 0, "region-scan spans recorded no scanned rows");

    // Trace fields agree with the returned QueryStats.
    let stats = &explained.result.stats;
    assert_eq!(scanned_total, stats.retrieved);
    assert!(stats.retrieved >= stats.candidates);
    assert!(stats.candidates >= stats.results);
    assert_eq!(refine.field_u64("candidates").unwrap(), stats.candidates);
    assert_eq!(refine.field_u64("hits").unwrap(), stats.results);
    let kept = filter.field_u64("kept").unwrap();
    let rejected = filter.field_u64("rejected").unwrap();
    assert_eq!(kept, stats.candidates);
    assert_eq!(kept + rejected, stats.retrieved);
    let lemma_total = filter.field_u64("lemma12_rejects").unwrap()
        + filter.field_u64("lemma13_rejects").unwrap()
        + filter.field_u64("lemma14_rejects").unwrap()
        + filter.field_u64("corrupt_rejects").unwrap();
    assert_eq!(lemma_total, rejected);
}

#[test]
fn explain_renderers_round_trip() {
    let (store, data) = populated_store(120, 0);
    let explained = store
        .explain(ExplainQuery::Threshold {
            query: &data[0],
            eps: 0.015,
            measure: Measure::Hausdorff,
        })
        .unwrap();
    let text = explained.trace.render_text();
    assert!(text.contains("threshold"), "text rendering misses root:\n{text}");
    assert!(text.starts_with("threshold"), "root is not the first line:\n{text}");
    assert!(text.contains("region-scan"));
    assert!(text.contains('%'), "no percent-of-parent annotations:\n{text}");

    let json = json::parse(&explained.trace.render_json()).expect("parse emitted JSON");
    assert_renders(&json, &explained.trace.root);
}

/// Checks that `v`, a span of the JSON rendering read back by the generic
/// parser, shows `s`: name, labels, integer and string fields, and
/// children in order.
fn assert_renders(v: &Value, s: &SpanRecord) {
    assert_eq!(v.get("name").and_then(Value::as_str), Some(s.name.as_str()));
    for (k, want) in &s.labels {
        let got = v.get("labels").and_then(|l| l.get(k)).and_then(Value::as_str);
        assert_eq!(got, Some(want.as_str()), "label {k} of {}", s.name);
    }
    for (k, want) in &s.fields {
        let got = v.get("fields").and_then(|f| f.get(k));
        match want {
            FieldValue::U64(n) => assert_eq!(got, Some(&Value::U64(*n)), "{k} of {}", s.name),
            FieldValue::Str(t) => assert_eq!(got.and_then(Value::as_str), Some(t.as_str())),
            _ => assert!(got.is_some(), "{k} of {}", s.name),
        }
    }
    let Some(Value::Array(children)) = v.get("children") else { panic!("no children array") };
    assert_eq!(children.len(), s.children.len(), "children of {}", s.name);
    children.iter().zip(&s.children).for_each(|(v, s)| assert_renders(v, s));
}

#[test]
fn explain_topk_records_one_round_per_batch() {
    let (store, data) = populated_store(150, 0);
    let explained = store
        .explain(ExplainQuery::TopK { query: &data[9], k: 5, measure: Measure::Frechet })
        .unwrap();
    let root = &explained.trace.root;
    assert_eq!(root.name, "topk");
    assert_eq!(root.field_u64("k"), Some(5));
    let rounds: Vec<_> = root.children_named("round").collect();
    assert!(!rounds.is_empty());
    assert_eq!(root.field_u64("rounds"), Some(rounds.len() as u64));
    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(r.label("round"), Some(i.to_string().as_str()));
        assert!(r.fields.iter().any(|(k, _)| k == "eps"), "round without eps");
        // Every round ran the staged pipeline over its batch of spaces,
        // its pruning span carrying the fields a threshold search's does.
        let pruning = r.child("pruning").unwrap();
        for field in ["visited", "lemma8_pruned", "lemma11_codes_pruned", "codes_emitted"] {
            assert!(pruning.field_u64(field).is_some(), "round without {field}");
        }
        assert!(r.child("scan").is_some());
    }
    // The rounds' hits together hold at least k matches (they get ranked
    // and truncated to k), each retrieved row counted in exactly one round.
    let hits: u64 = rounds.iter().map(|r| r.field_u64("results").unwrap()).sum();
    assert!(hits >= 5);
    assert_eq!(explained.result.results.len(), 5);
    let text = explained.trace.render_text();
    assert!(text.starts_with("topk"), "root is not the first line:\n{text}");
    assert!(text.contains("region-scan"), "{text}");
}

#[test]
fn explain_range_has_stage_children() {
    let (store, data) = populated_store(100, 0);
    let m = data[3].mbr();
    let window = Mbr::new(m.min_x - 0.01, m.min_y - 0.01, m.max_x + 0.01, m.max_y + 0.01);
    let explained = store.explain(ExplainQuery::Range { window }).unwrap();
    let root = &explained.trace.root;
    assert_eq!(root.name, "range");
    let pruning = root.child("pruning").expect("pruning child");
    // The window walks the same frontier as the similarity searches.
    assert!(pruning.field_u64("visited").unwrap() > 0);
    assert!(pruning.field_u64("codes_emitted").unwrap() > 0);
    let scan = root.child("scan").expect("scan child");
    assert!(scan.children_named("region-scan").next().is_some());
    assert!(root.child("refine").is_some());
    assert!(!explained.result.results.is_empty());
}

#[test]
fn sampled_out_queries_leave_no_trace() {
    // trace_sample_every = 0 disables background sampling entirely.
    let (store, data) = populated_store(60, 0);
    for q in data.iter().take(5) {
        trass_core::query::threshold_search(&store, q, 0.01, Measure::Frechet).unwrap();
    }
    assert!(store.flight_recorder().is_empty(), "disabled sampler still recorded traces");
    // explain still traces unconditionally...
    store
        .explain(ExplainQuery::Threshold { query: &data[0], eps: 0.01, measure: Measure::Frechet })
        .unwrap();
    // ...and its trace lands in the flight recorder.
    assert_eq!(store.flight_recorder().len(), 1);
}

#[test]
fn sampling_is_deterministic_one_in_n() {
    // Every third query is traced, starting with the first.
    let (store, data) = populated_store(60, 3);
    for q in data.iter().take(9) {
        trass_core::query::threshold_search(&store, q, 0.01, Measure::Frechet).unwrap();
    }
    assert_eq!(store.flight_recorder().len(), 3, "expected queries 0, 3, 6 to be traced");
    for trace in store.flight_recorder().snapshot() {
        assert_eq!(trace.root.name, "threshold");
    }
}

#[test]
fn traced_queries_attach_to_the_slow_log() {
    let (store, data) = populated_store(60, 1);
    for q in data.iter().take(3) {
        trass_core::query::threshold_search(&store, q, 0.01, Measure::Frechet).unwrap();
    }
    let slow = store.slow_queries();
    assert!(!slow.is_empty());
    for rec in &slow {
        let trace = rec.trace.as_ref().expect("always-sampled query lost its trace");
        assert_eq!(trace.root.name, "threshold");
    }
}
