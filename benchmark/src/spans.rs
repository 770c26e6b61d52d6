//! The benchmark's own span recorder: spans are opened from the
//! benchmark's files around the calls into each layer, kept in memory, and
//! written out when the run ends. Nothing inside `crates/` records them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for an op's root.
    pub parent: Option<SpanId>,
    /// The op all spans of one request share.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it ends at [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span caused by `parent`, in the same op.
    pub fn open_child(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.open(name, Some(parent), self.spans[parent as usize].op)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open_child(name, parent);
        let out = f();
        self.close(id);
        (out, self.spans[id as usize].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON document (`self_ns` included, so a
    /// reader needs no tree walk).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[")?;
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            if id > 0 {
                out.write_all(b",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children are clipped to the parent and
/// overlapping children (parallel work) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("scan", 10, 40, Some(0)),
            span("refine", 50, 90, Some(0)),
            span("kernel", 60, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("op", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)), // overlaps a: union covers 110..170
            span("late", 190, 260, Some(0)), // runs past the parent: clipped to 190..200
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = vec![
            span("op", 0, 1000, None),
            span("x", 0, 400, Some(0)),
            span("y", 400, 900, Some(0)),
            span("z", 450, 700, Some(2)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("op", 0, 100, None),
            span("scan", 0, 30, Some(0)),
            span("op", 100, 150, None),
            span("scan", 100, 120, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["op"], NameTotal { count: 2, total_ns: 150, self_ns: 100 });
        assert_eq!(totals["scan"], NameTotal { count: 2, total_ns: 50, self_ns: 50 });
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new();
        let root = rec.open("op", None, 7);
        let (v, _) = rec.timed("child", root, || 41 + 1);
        rec.close(root);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
