//! Flight recorder: completed request traces as hierarchical span
//! trees, kept in fixed-size in-memory rings.
//!
//! Every request owns a [`SpanSink`] shared (via the
//! [`crate::TraceContext`]) by every thread that works on the request —
//! the dispatch thread and any `create-util` pool workers it hands work
//! to. Spans append concurrently under one mutex; when the request
//! finishes, the assembled [`TraceRecord`] lands in a ring sized for
//! always-on operation. Completed traces that crossed the slow-query
//! threshold ([`set_slow_query_threshold`]) go to a separate ring, with
//! the request's query parameters, so a burst of fast requests can never
//! evict the interesting outliers.
//!
//! Served by the REST API as `GET /trace/{id}` (full span tree),
//! `GET /slowlog` (the slow ring's trees) and `GET /debug/traces`
//! (summaries).

use crate::names;
use crate::trace::parse_trace_hex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Completed traces retained in the general ring.
pub const RECORDER_CAPACITY: usize = 256;
/// Completed slow traces retained in the always-kept ring.
pub const RECORDER_SLOW_CAPACITY: usize = 64;

const DEFAULT_THRESHOLD_NANOS: u64 = 250_000_000; // 250ms

static THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_NANOS);

/// Sets the slow-query threshold: a request at least this slow lands
/// in the slow ring. `Duration::ZERO` keeps every request there (useful
/// in tests and when profiling).
pub fn set_slow_query_threshold(threshold: Duration) {
    let nanos = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
    THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
}

/// The current slow-query threshold.
pub fn slow_query_threshold() -> Duration {
    Duration::from_nanos(THRESHOLD_NANOS.load(Ordering::Relaxed))
}

/// One node of a recorded span tree. `parent` is the id of the
/// enclosing span (`0` only on the root, which always has id `1`), so
/// the flat list reconstructs the tree unambiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the trace; the root is always `1`.
    pub id: u64,
    /// Id of the enclosing span; `0` on the root.
    pub parent: u64,
    /// Stage or structural span name (`keyword_search`, `keyword_shard`, …).
    pub name: String,
    /// Shard index for per-shard fan-out spans.
    pub shard: Option<u32>,
    /// Start offset from the request start, in seconds.
    pub start_seconds: f64,
    /// Wall time, in seconds; `-1.0` while the span is still open.
    pub duration_seconds: f64,
    /// Counters attached while the span was current
    /// (`postings_advanced`, `cache_hit`, …), accumulated by name.
    pub counters: Vec<(String, u64)>,
}

/// The per-request span collector, shared across threads through the
/// cloned [`crate::TraceContext`]. Spans from pool workers append here
/// directly, so one coherent tree forms regardless of which threads
/// ran the work.
#[derive(Debug)]
pub struct SpanSink {
    started: Instant,
    next_span_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl SpanSink {
    /// A sink whose root span (id 1) is pre-opened; the root's name and
    /// duration are filled in by [`SpanSink::finish_root`].
    pub(crate) fn new() -> SpanSink {
        SpanSink {
            started: Instant::now(),
            next_span_id: AtomicU64::new(2),
            spans: Mutex::new(vec![SpanRecord {
                id: 1,
                parent: 0,
                name: String::new(),
                shard: None,
                start_seconds: 0.0,
                duration_seconds: -1.0,
                counters: Vec::new(),
            }]),
        }
    }

    /// Seconds since the request started.
    pub(crate) fn offset(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Opens a child span and returns its id.
    pub(crate) fn open_span(&self, parent: u64, name: &str, shard: Option<u32>) -> u64 {
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent,
            name: name.to_string(),
            shard,
            start_seconds: self.offset(),
            duration_seconds: -1.0,
            counters: Vec::new(),
        };
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(record);
        id
    }

    /// Closes a span with its measured duration.
    pub(crate) fn close_span(&self, id: u64, duration_seconds: f64) {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
            span.duration_seconds = duration_seconds;
        }
    }

    /// Accumulates a named counter onto an open span.
    pub(crate) fn add_counter(&self, span_id: u64, name: &str, value: u64) {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let Some(span) = spans.iter_mut().rev().find(|s| s.id == span_id) else {
            return;
        };
        match span.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => span.counters.push((name.to_string(), value)),
        }
    }

    /// Names and closes the root span, returning the full span list
    /// (root first, children in open order).
    pub(crate) fn finish_root(&self, name: &str, total_seconds: f64) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(root) = spans.first_mut() {
            root.name = name.to_string();
            root.duration_seconds = total_seconds;
        }
        std::mem::take(&mut *spans)
    }
}

/// One completed, recorded request trace.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// 16-hex-char trace ID (the request's `X-Trace-Id`).
    pub trace_id: String,
    /// Root span name — the route pattern the request dispatched under.
    pub root: String,
    /// End-to-end request latency in seconds.
    pub total_seconds: f64,
    /// Whether the request crossed the slow-query threshold (slow
    /// traces live in their own ring and are never evicted by fast
    /// traffic).
    pub slow: bool,
    /// The request's query parameters, sorted by name; kept only on
    /// slow traces, to name the request in `GET /slowlog`.
    pub params: Vec<(String, String)>,
    /// The span tree, root first, as a flat parent-linked list.
    pub spans: Vec<SpanRecord>,
}

/// Summary row for `GET /debug/traces`.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// 16-hex-char trace ID.
    pub trace_id: String,
    /// Root span name.
    pub root: String,
    /// End-to-end latency in seconds.
    pub total_seconds: f64,
    /// Whether the trace sits in the slow ring.
    pub slow: bool,
    /// Number of spans in the recorded tree.
    pub spans: usize,
}

static TRACES: Mutex<VecDeque<TraceRecord>> = Mutex::new(VecDeque::new());
static SLOW_TRACES: Mutex<VecDeque<TraceRecord>> = Mutex::new(VecDeque::new());

/// Persists a completed trace into its ring.
pub(crate) fn record(record: TraceRecord) {
    crate::counter(names::TRACES_RECORDED_TOTAL).inc();
    let (ring, capacity) = if record.slow {
        (&SLOW_TRACES, RECORDER_SLOW_CAPACITY)
    } else {
        (&TRACES, RECORDER_CAPACITY)
    };
    let mut ring = ring.lock().unwrap_or_else(|p| p.into_inner());
    if ring.len() == capacity {
        ring.pop_front();
    }
    ring.push_back(record);
}

/// Looks a recorded trace up by any spelling `X-Trace-Id` accepts
/// (1–16 hex chars, either case, leading zeros optional): the ID is
/// parsed and compared as a number. Newest match wins; both rings are
/// searched.
pub fn find_trace(trace_id: &str) -> Option<TraceRecord> {
    let want = parse_trace_hex(trace_id)?;
    for ring in [&SLOW_TRACES, &TRACES] {
        let ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        let found = ring
            .iter()
            .rev()
            .find(|t| parse_trace_hex(&t.trace_id) == Some(want));
        if let Some(t) = found {
            return Some(t.clone());
        }
    }
    None
}

/// The slow ring's traces, oldest first (`GET /slowlog`).
pub fn slow_traces() -> Vec<TraceRecord> {
    let ring = SLOW_TRACES.lock().unwrap_or_else(|p| p.into_inner());
    ring.iter().cloned().collect()
}

/// Summaries of every retained trace: slow traces first, then the
/// general ring, each oldest-first.
pub fn trace_summaries() -> Vec<TraceSummary> {
    let mut out = Vec::new();
    for ring in [&SLOW_TRACES, &TRACES] {
        let ring = ring.lock().unwrap_or_else(|p| p.into_inner());
        out.extend(ring.iter().map(|t| TraceSummary {
            trace_id: t.trace_id.clone(),
            root: t.root.clone(),
            total_seconds: t.total_seconds,
            slow: t.slow,
            spans: t.spans.len(),
        }));
    }
    out
}

/// Empties both recorder rings (tests).
pub fn clear_recorded_traces() {
    for ring in [&SLOW_TRACES, &TRACES] {
        ring.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// Serializes unit tests that mutate the global threshold or rings.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_round_trips() {
        let _serial = test_lock();
        let prior = slow_query_threshold();
        set_slow_query_threshold(Duration::from_millis(15));
        assert_eq!(slow_query_threshold(), Duration::from_millis(15));
        set_slow_query_threshold(prior);
    }

    #[test]
    fn sink_builds_a_parent_linked_tree() {
        let sink = SpanSink::new();
        let a = sink.open_span(1, "keyword_search", None);
        let s0 = sink.open_span(a, "keyword_shard", Some(0));
        sink.add_counter(s0, "postings_advanced", 5);
        sink.add_counter(s0, "postings_advanced", 3);
        sink.close_span(s0, 0.001);
        sink.close_span(a, 0.002);
        let spans = sink.finish_root("/search", 0.003);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, 1);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[0].name, "/search");
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[2].shard, Some(0));
        assert_eq!(
            spans[2].counters,
            vec![("postings_advanced".to_string(), 8)]
        );
        assert!(spans.iter().all(|s| s.duration_seconds >= 0.0));
    }

    #[test]
    fn rings_retain_and_find_by_id() {
        let _serial = test_lock();
        clear_recorded_traces();
        let mk = |id: &str, slow: bool| TraceRecord {
            trace_id: id.to_string(),
            root: "/search".to_string(),
            total_seconds: 0.5,
            slow,
            params: Vec::new(),
            spans: Vec::new(),
        };
        record(mk("aaaaaaaaaaaaaaaa", false));
        record(mk("bbbbbbbbbbbbbbbb", true));
        assert!(find_trace("aaaaaaaaaaaaaaaa").is_some());
        assert!(find_trace("bbbbbbbbbbbbbbbb").is_some());
        assert!(find_trace("cccccccccccccccc").is_none());
        assert_eq!(slow_traces().len(), 1, "only the slow trace is listed");
        assert_eq!(slow_traces()[0].trace_id, "bbbbbbbbbbbbbbbb");
        let summaries = trace_summaries();
        assert_eq!(summaries.len(), 2);
        assert!(summaries.iter().any(|s| s.slow));
        // The general ring evicts oldest-first at capacity; the slow
        // entry survives a flood of fast traces.
        for i in 0..RECORDER_CAPACITY + 8 {
            record(mk(&format!("{i:016x}"), false));
        }
        assert!(
            find_trace("aaaaaaaaaaaaaaaa").is_none(),
            "fast trace evicted"
        );
        assert!(
            find_trace("bbbbbbbbbbbbbbbb").is_some(),
            "slow trace retained"
        );
        clear_recorded_traces();
    }
}
