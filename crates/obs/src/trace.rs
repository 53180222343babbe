//! Span/tracing layer: propagated per-request trace contexts and RAII
//! stage spans feeding both histograms and recorded span trees.
//!
//! Trace IDs are process-unique 64-bit splitmix64 outputs rendered as
//! 16 hex chars. The *current* context is a cheaply clonable
//! [`TraceContext`] (trace ID + current span ID + shared span sink)
//! held in a thread-local: the server's router installs one per
//! request via [`RequestTrace::begin`], and [`carry_context`] captures
//! it when a job is handed to `create-util::pool` so the worker
//! re-installs it — pooled batch searches and ingest workers land their
//! spans in the dispatching request's tree.
//!
//! [`child_span`]/[`shard_span`]/[`Span`] append to the context's
//! [`SpanSink`], and [`RequestTrace::finish`] persists the completed
//! tree in the flight recorder.

use crate::metrics::Registry;
use crate::names;
use crate::recorder::{SpanSink, TraceRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn trace_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        splitmix64(nanos ^ u64::from(std::process::id()))
    })
}

/// Generates a fresh nonzero raw trace ID.
fn next_trace_raw() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(trace_seed().wrapping_add(n));
        if id != 0 {
            return id;
        }
    }
}

/// Generates a fresh 16-hex-char trace ID.
pub fn next_trace_id() -> String {
    format!("{:016x}", next_trace_raw())
}

/// Parses a client-supplied trace ID (`X-Trace-Id` header): 1–16 hex
/// chars, nonzero. Anything else is rejected and a fresh ID is used.
pub fn parse_trace_hex(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(v) => Some(v),
    }
}

/// The propagated request context: which trace this thread is working
/// for, which span encloses the work, and the shared sink collecting
/// the span tree. Cloning is two u64 copies plus an `Arc` bump.
#[derive(Clone, Debug)]
pub struct TraceContext {
    /// Raw 64-bit trace ID (rendered as 16 hex chars externally).
    pub trace_id: u64,
    /// Id of the span enclosing the current work (root = 1).
    pub span_id: u64,
    /// The request's span collector.
    pub sink: Arc<SpanSink>,
}

impl TraceContext {
    /// The trace ID as its 16-hex-char wire form.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// This thread's current trace context, if one is installed.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The raw trace ID installed on this thread, if any.
pub fn current_trace_raw() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.trace_id))
}

/// The trace ID installed on this thread, as 16 hex chars.
pub fn current_trace_id() -> Option<String> {
    CURRENT.with(|c| c.borrow().as_ref().map(TraceContext::trace_hex))
}

/// RAII guard restoring the previous thread-local context on drop.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct ContextGuard {
    // None = inactive guard (nothing was installed).
    prev: Option<Option<TraceContext>>,
}

impl ContextGuard {
    fn inactive() -> ContextGuard {
        ContextGuard { prev: None }
    }
}

/// Installs `ctx` as the current thread's trace context for the
/// guard's lifetime (pass `None` to run context-free).
pub fn install_context(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx));
    ContextGuard { prev: Some(prev) }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Wraps a job so it runs under the submitting thread's trace context.
/// `create-util::pool` applies this to every injected job, which is
/// what lets pooled batch searches and ingest workers attribute their
/// spans to the request that spawned them. In stripped builds this is
/// the identity.
pub fn carry_context<R, F>(f: F) -> impl FnOnce() -> R + Send + 'static
where
    F: FnOnce() -> R + Send + 'static,
    R: 'static,
{
    let ctx = if crate::enabled() {
        current_context()
    } else {
        None
    };
    move || {
        if crate::enabled() {
            let _guard = install_context(ctx);
            f()
        } else {
            f()
        }
    }
}

/// One request's trace: owns the trace ID echoed as `X-Trace-Id`,
/// keeps the context installed on the dispatching thread, and persists
/// the collected span tree into the flight recorder on
/// [`RequestTrace::finish`].
pub struct RequestTrace {
    hex: String,
    start: Instant,
    // None when the recording paths are compiled out.
    sink: Option<Arc<SpanSink>>,
    _guard: ContextGuard,
}

impl RequestTrace {
    /// Starts a request trace, honoring a valid inbound `X-Trace-Id`
    /// value (1–16 hex chars, nonzero) or minting a fresh ID, and
    /// installs its context on this thread.
    pub fn begin(inbound: Option<&str>) -> RequestTrace {
        let trace_id = inbound
            .and_then(parse_trace_hex)
            .unwrap_or_else(next_trace_raw);
        let (sink, guard) = if crate::enabled() {
            let sink = Arc::new(SpanSink::new());
            let guard = install_context(Some(TraceContext {
                trace_id,
                span_id: 1,
                sink: Arc::clone(&sink),
            }));
            (Some(sink), guard)
        } else {
            (None, ContextGuard::inactive())
        };
        RequestTrace {
            hex: format!("{trace_id:016x}"),
            start: Instant::now(),
            sink,
            _guard: guard,
        }
    }

    /// The 16-hex-char trace ID (the `X-Trace-Id` response value).
    pub fn hex(&self) -> &str {
        &self.hex
    }

    /// Names the root span `root` (the route pattern the request
    /// dispatched under), records the span tree and returns the trace
    /// ID. A trace over the slow-query threshold also keeps `params`,
    /// the request's query parameters; a faster one never reads them.
    pub fn finish<'a>(
        self,
        root: &str,
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> String {
        let Some(sink) = self.sink else {
            return self.hex;
        };
        let total = self.start.elapsed();
        let slow = total >= crate::recorder::slow_query_threshold();
        let mut kept = Vec::new();
        if slow {
            kept.extend(
                params
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.to_string())),
            );
            kept.sort_unstable();
        }
        crate::recorder::record(TraceRecord {
            trace_id: self.hex.clone(),
            root: root.to_string(),
            total_seconds: total.as_secs_f64(),
            slow,
            params: kept,
            spans: sink.finish_root(root, total.as_secs_f64()),
        });
        self.hex
    }
}

struct TreeSpanInner {
    sink: Arc<SpanSink>,
    id: u64,
    start: Instant,
    prev: Option<TraceContext>,
}

/// RAII structural span: a node in the recorded span tree with no
/// histogram attached (per-query and per-shard spans). While held, the
/// thread's context points at this span, so nested spans and
/// [`add_span_counter`] attach beneath it. No-op outside a request or
/// when tracing is compiled out.
#[must_use = "a tree span closes on drop; binding it to _ drops it immediately"]
pub struct TreeSpan {
    inner: Option<TreeSpanInner>,
}

fn open_tree_span(name: &str, shard: Option<u32>) -> TreeSpan {
    if !crate::enabled() {
        return TreeSpan { inner: None };
    }
    let Some(ctx) = current_context() else {
        return TreeSpan { inner: None };
    };
    let sink = Arc::clone(&ctx.sink);
    let id = sink.open_span(ctx.span_id, name, shard);
    let prev = CURRENT.with(|c| c.borrow_mut().replace(TraceContext { span_id: id, ..ctx }));
    TreeSpan {
        inner: Some(TreeSpanInner {
            sink,
            id,
            start: Instant::now(),
            prev,
        }),
    }
}

/// Opens a named child span under the current one.
pub fn child_span(name: &str) -> TreeSpan {
    open_tree_span(name, None)
}

/// Opens a per-shard child span (scatter-gather fan-out).
pub fn shard_span(name: &str, shard: u32) -> TreeSpan {
    open_tree_span(name, Some(shard))
}

impl Drop for TreeSpan {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner
                .sink
                .close_span(inner.id, inner.start.elapsed().as_secs_f64());
            CURRENT.with(|c| *c.borrow_mut() = inner.prev);
        }
    }
}

/// The current span's sink and id in one thread-local read — the
/// multi-counter flushes below pay for the lookup once, not per
/// counter (the TLS access dominates on uncontexted bench threads).
fn current_sink() -> Option<(Arc<SpanSink>, u64)> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.sink), ctx.span_id))
    })
}

/// Accumulates a named counter (postings advanced, cache hit, …) onto
/// the span currently enclosing this thread's work.
pub fn add_span_counter(name: &str, value: u64) {
    if !crate::enabled() || value == 0 {
        return;
    }
    if let Some((sink, span)) = current_sink() {
        sink.add_counter(span, name, value);
    }
}

/// DAAT executor statistics for one query, batched into the registry
/// and the current span in a single flush per search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaatStats {
    /// Postings read: every posting the accumulator scored (the sum of
    /// its opened lists' lengths).
    pub postings_advanced: u64,
    /// Matching documents refused: a positive score at or below the
    /// floor the earlier segments set, or not beating the heap's k-th
    /// entry.
    pub candidates_pruned: u64,
    /// Top-k heap evictions (pops past capacity).
    pub heap_evictions: u64,
}

/// Flushes one query's DAAT stats into the global counters and the
/// current span's counters. Call once per `Index::search`.
pub fn record_daat(stats: DaatStats) {
    if !crate::enabled() || stats == DaatStats::default() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<crate::Counter>; 3]> = OnceLock::new();
    let [advanced, pruned, evicted] = COUNTERS.get_or_init(|| {
        let r = Registry::global();
        [
            r.counter(names::DAAT_POSTINGS_ADVANCED_TOTAL),
            r.counter(names::DAAT_CANDIDATES_PRUNED_TOTAL),
            r.counter(names::DAAT_HEAP_EVICTIONS_TOTAL),
        ]
    });
    advanced.inc_by(stats.postings_advanced);
    pruned.inc_by(stats.candidates_pruned);
    evicted.inc_by(stats.heap_evictions);
    if let Some((sink, span)) = current_sink() {
        for (name, value) in [
            ("postings_advanced", stats.postings_advanced),
            ("candidates_pruned", stats.candidates_pruned),
            ("heap_evictions", stats.heap_evictions),
        ] {
            if value != 0 {
                sink.add_counter(span, name, value);
            }
        }
    }
}

/// Flushes one graph query's traversal counts into the registry and
/// the current span's counters.
pub fn record_graph_exec(nodes_visited: u64, edges_traversed: u64) {
    if !crate::enabled() || (nodes_visited == 0 && edges_traversed == 0) {
        return;
    }
    static COUNTERS: OnceLock<[Arc<crate::Counter>; 2]> = OnceLock::new();
    let [nodes, edges] = COUNTERS.get_or_init(|| {
        let r = Registry::global();
        [
            r.counter(names::GRAPH_EXEC_NODES_VISITED_TOTAL),
            r.counter(names::GRAPH_EXEC_EDGES_TRAVERSED_TOTAL),
        ]
    });
    nodes.inc_by(nodes_visited);
    edges.inc_by(edges_traversed);
    if let Some((sink, span)) = current_sink() {
        for (name, value) in [
            ("nodes_visited", nodes_visited),
            ("edges_traversed", edges_traversed),
        ] {
            if value != 0 {
                sink.add_counter(span, name, value);
            }
        }
    }
}

/// Records `seconds` into `metric{stage="..."}`, with the current
/// trace as the bucket's exemplar.
pub fn observe_stage(metric: &'static str, stage: &'static str, seconds: f64) {
    if !crate::enabled() {
        return;
    }
    Registry::global()
        .histogram_with(metric, &[("stage", stage)])
        .observe_traced(seconds, current_trace_raw());
}

/// RAII stage span: records wall time into `metric{stage=...}` on drop
/// and, inside a request, doubles as a node in the span tree.
///
/// ```
/// let _span = create_obs::Span::enter(create_obs::names::PIPELINE_STAGE_SECONDS, "ner");
/// // ... stage work ...
/// ```
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    start: Option<Instant>,
    metric: &'static str,
    stage: &'static str,
    // Dropped after `Drop::drop` runs, so the histogram observation
    // happens while this span is still the current context.
    _tree: TreeSpan,
}

impl Span {
    /// Opens a span over `metric{stage=...}`. No-op (and no clock
    /// read) when the `enabled` feature is off.
    pub fn enter(metric: &'static str, stage: &'static str) -> Span {
        Span {
            start: crate::enabled().then(Instant::now),
            metric,
            stage,
            _tree: child_span(stage),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe_stage(self.metric, self.stage, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_hex() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn parse_trace_hex_accepts_short_hex_rejects_junk() {
        assert_eq!(parse_trace_hex("ab12"), Some(0xab12));
        assert_eq!(parse_trace_hex(" ffffffffffffffff "), Some(u64::MAX));
        assert_eq!(parse_trace_hex(""), None);
        assert_eq!(parse_trace_hex("0"), None, "zero is reserved");
        assert_eq!(parse_trace_hex("12345678901234567"), None, "too long");
        assert_eq!(parse_trace_hex("xyz"), None);
    }

    #[test]
    fn context_guard_restores_previous() {
        assert_eq!(current_trace_raw(), None);
        let sink = Arc::new(SpanSink::new());
        {
            let _outer = install_context(Some(TraceContext {
                trace_id: 0xa,
                span_id: 1,
                sink: Arc::clone(&sink),
            }));
            assert_eq!(current_trace_raw(), Some(0xa));
            assert_eq!(current_trace_id().as_deref(), Some("000000000000000a"));
            {
                let _inner = install_context(Some(TraceContext {
                    trace_id: 0xb,
                    span_id: 1,
                    sink: Arc::clone(&sink),
                }));
                assert_eq!(current_trace_raw(), Some(0xb));
            }
            assert_eq!(current_trace_raw(), Some(0xa));
        }
        assert_eq!(current_trace_raw(), None);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn tree_spans_nest_and_restore_context() {
        let _serial = crate::recorder::test_lock();
        let trace = RequestTrace::begin(None);
        {
            let _outer = child_span("outer");
            let outer_span = current_context().unwrap().span_id;
            {
                let _inner = child_span("inner");
                assert_ne!(current_context().unwrap().span_id, outer_span);
            }
            assert_eq!(current_context().unwrap().span_id, outer_span);
        }
        assert_eq!(current_context().unwrap().span_id, 1);
        let hex = trace.finish("nest", []);
        assert_eq!(current_context().map(|c| c.trace_id), None);
        let record = crate::recorder::find_trace(&hex).expect("recorded");
        let outer = record.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = record.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 1);
        assert_eq!(inner.parent, outer.id);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn finish_keeps_query_parameters_on_slow_traces_only() {
        let _serial = crate::recorder::test_lock();
        let prior = crate::recorder::slow_query_threshold();
        let params = [("q", "fever"), ("k", "5")];
        crate::recorder::set_slow_query_threshold(std::time::Duration::ZERO);
        let slow = RequestTrace::begin(None).finish("/search", params);
        crate::recorder::set_slow_query_threshold(std::time::Duration::from_secs(3600));
        let fast = RequestTrace::begin(None).finish("/search", params);
        crate::recorder::set_slow_query_threshold(prior);

        let slow = crate::recorder::find_trace(&slow).expect("slow trace recorded");
        assert!(slow.slow);
        let sorted = [("k", "5"), ("q", "fever")].map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(slow.params, sorted, "parameters kept, sorted by name");
        let fast = crate::recorder::find_trace(&fast).expect("fast trace recorded");
        assert!(!fast.slow);
        assert!(
            fast.params.is_empty(),
            "the general ring keeps no parameters"
        );
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn span_records_into_global_histogram() {
        let h = Registry::global().histogram_with("test_span_seconds", &[("stage", "unit")]);
        let before = h.count();
        {
            let _span = Span::enter("test_span_seconds", "unit");
        }
        assert_eq!(h.count(), before + 1);
    }
}
