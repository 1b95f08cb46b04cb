//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began (its parent), and the id of the run or job it belongs to. Spans
//! stay in memory until [`Tracer::write_jsonl`] writes them out at the end
//! of the benchmark. A disabled tracer records nothing and costs one
//! branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Run or job id shared by every span of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Sum of the durations of the direct children.
    child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span's duration minus the time its children cover. Children of
    /// one span run one after another on the same thread, so their
    /// durations never overlap and their sum is the time they cover.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// Opaque handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; `enabled = false`
    /// records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            child_ns: 0,
        });
        self.stack.push(idx);
        // Read the clock last so the bookkeeping above is not inside the span.
        self.spans[idx].start_ns = self.now_ns();
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let d = span.duration_ns();
        if let Some(p) = span.parent {
            self.spans[p].child_ns += d;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in seconds of every span named `name`, in order.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 * 1e-9)
            .collect()
    }

    /// Total self time in seconds of the spans named `name`.
    pub fn total_self_secs(&self, name: &str) -> f64 {
        self.self_secs(name).iter().sum()
    }

    /// Appends another tracer's spans (e.g. one per client thread),
    /// keeping their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per line and span; `parent` is the `id` of
    /// the enclosing span's line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"self_ns\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.self_ns()
            )?;
        }
        out.flush()
    }

    /// Per-name span count, total and self seconds, for the table.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut by: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns() as f64 * 1e-9;
            e.2 += s.self_ns() as f64 * 1e-9;
        }
        by
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut tr = Tracer::new(true, Instant::now());
        let op = tr.begin("op", 7);
        spin(2);
        tr.span("child", 7, || spin(5));
        tr.span("child", 7, || spin(5));
        tr.end(op);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let total = spans[0].duration_ns();
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(spans[0].self_ns(), total - children);
        assert!(spans[0].self_ns() < spans[1].duration_ns());
        assert_eq!(tr.self_secs("child").len(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let v = tr.span("x", 1, || 42);
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 1, || ());
        let mut b = Tracer::new(true, origin);
        let o = b.begin("b", 2);
        b.span("b.child", 2, || ());
        b.end(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].name, "b.child");
    }
}
