//! Benchmark-side spans for the traced run.
//!
//! The traced run calls successively deeper public entry points with the
//! same inputs, one pass per depth. Each call is one span; the span of
//! request *i* at one depth names as its parent the span of request *i* at
//! the next-shallower depth. Spans stay in memory and are written out as
//! JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Trace`]; 0 is "no parent".
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// The request list (a workload's round) the input comes from.
    pub list: &'static str,
    /// Position of the input in that list; shared across depths.
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<SpanRecord>,
    /// Latest span per `(list, name, request)`, for parent lookup.
    by_key: HashMap<(&'static str, &'static str, usize), SpanId>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            by_key: HashMap::new(),
        }
    }

    /// Times `f` as a span. `parent` names the entry point one level
    /// shallower; the parent span is the one recorded for the same request
    /// of the same list.
    pub fn span<R>(
        &mut self,
        list: &'static str,
        name: &'static str,
        parent: Option<&'static str>,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        self.record(list, name, parent, request, start, Instant::now());
        result
    }

    /// Records a span timed by the caller, who could name it only after it
    /// ended.
    pub fn record(
        &mut self,
        list: &'static str,
        name: &'static str,
        parent: Option<&'static str>,
        request: usize,
        start: Instant,
        end: Instant,
    ) {
        let id = self.spans.len() + 1;
        let parent = parent
            .and_then(|p| self.by_key.get(&(list, p, request)).copied())
            .unwrap_or(0);
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            list,
            request,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        self.by_key.insert((list, name, request), id);
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations (ms) of a list's spans with this name, in recording order.
    pub fn durations_ms(&self, list: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.list == list && s.name == name)
            .map(SpanRecord::duration_ms)
            .collect()
    }

    /// Self times (ms) of a list's spans with this name.
    pub fn self_times_ms(&self, list: &str, name: &str) -> Vec<f64> {
        let all = self_times_ms(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.list == list && s.name == name)
            .map(|s| all[s.id - 1])
            .collect()
    }

    /// One JSON object per line: `{id, parent, name, list, request, start,
    /// end}`, times in nanoseconds since process start.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"list\":\"{}\",\"request\":{},\"start\":{},\"end\":{}}}",
                s.id, s.parent, s.name, s.list, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the durations of the spans
/// that name it as parent. The passes run one after another, so a child's
/// interval does not lie inside its parent's; what it covers is the same
/// work repeated one level down. Clamped at zero: a deeper pass that
/// happened to run slower than its parent cannot give negative self time.
pub fn self_times_ms(spans: &[SpanRecord]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent - 1] += s.duration_ms();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.duration_ms() - c).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: SpanId, parent: SpanId, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            list: "l",
            request: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_by_parent_link() {
        let spans = vec![
            rec(1, 0, "http", 0, 10_000_000),
            rec(2, 1, "dispatch", 20_000_000, 27_000_000),
            rec(3, 2, "search", 30_000_000, 34_000_000),
            rec(4, 2, "parse_again", 40_000_000, 41_000_000),
            rec(5, 3, "slower_child", 50_000_000, 59_000_000),
        ];
        let self_ms = self_times_ms(&spans);
        assert_eq!(self_ms, vec![3.0, 2.0, 0.0, 1.0, 9.0]);
    }

    #[test]
    fn spans_of_one_request_link_across_passes() {
        let mut t = Trace::new(Instant::now());
        for request in 0..3 {
            t.span("a", "http", None, request, || ());
        }
        for request in 0..3 {
            t.span("a", "dispatch", Some("http"), request, || ());
        }
        // no parent of that name, and no parent in another list
        t.span("a", "probe", Some("missing"), 1, || ());
        t.span("b", "dispatch", Some("http"), 1, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        for request in 0..3 {
            let child = &spans[3 + request];
            assert_eq!(child.request, request);
            assert_eq!(spans[child.parent - 1].name, "http");
            assert_eq!(spans[child.parent - 1].request, request);
        }
        assert_eq!(spans[6].parent, 0);
        assert_eq!(spans[7].parent, 0);
        assert_eq!(t.durations_ms("a", "dispatch").len(), 3);
        assert_eq!(t.self_times_ms("a", "http").len(), 3);
    }
}
