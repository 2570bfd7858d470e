//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span carries a name, start, end and the span that caused it; all
//! spans of one traced run share the workload and seed of the file they
//! are written to. They are kept in memory and written once, when the
//! traced run ends. A layer's self time is its span minus the part its
//! child spans cover.
//!
//! Calls that happen millions of times (protocol handlers, hooks) are not
//! one span each: their adapters sum busy time and call counts, and the
//! sum is attached to the enclosing span as one *aggregate* child.

use std::fmt::Write as _;
use std::time::Instant;

use crate::output::json_str;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    pub aggregate: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`, child of the span open now.
    pub fn span<T>(&mut self, name: &str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            aggregate: false,
        });
        self.stack.push(id);
        let out = work(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach `busy_ns` summed over `calls` short calls to the span named
    /// `parent` (the most recent one of that name), as one aggregate child.
    pub fn aggregate(&mut self, parent: &str, name: &str, busy_ns: u64, calls: u64) {
        let parent = self.spans.iter().rposition(|s| s.name == parent);
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns + busy_ns,
            calls,
            aggregate: true,
        });
    }

    /// Duration in seconds of the most recent span named `name` (0 when
    /// the run never opened one).
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rfind(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(covered)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"repetition\": 0, \"spans\": [\n",
            json_str(workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"calls\": {}, \"aggregate\": {}}}{}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                s.calls,
                s.aggregate,
                if id + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
