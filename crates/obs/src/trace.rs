//! Span/tracing layer: propagated per-request trace contexts, RAII
//! stage spans feeding both histograms and recorded span trees, and
//! the per-query capture frame the slow-query log reads from.
//!
//! Trace IDs are process-unique 64-bit splitmix64 outputs rendered as
//! 16 hex chars. The *current* context is a cheaply clonable
//! [`TraceContext`] (trace ID + current span ID + shared span sink)
//! held in a thread-local: the server's router installs one per
//! request via [`RequestTrace::begin`], and [`carry_context`] captures
//! it when a job is handed to `create-util::pool` so the worker
//! re-installs it — shard fan-out and pooled batch searches land their
//! spans and slowlog trace IDs in the dispatching request's tree.
//!
//! Sampled requests (see [`crate::recorder`]) additionally carry a
//! [`SpanSink`]; [`child_span`]/[`shard_span`]/[`Span`] append to it
//! and the completed tree is persisted in the flight recorder when the
//! [`RequestTrace`] drops.

use crate::metrics::Registry;
use crate::names;
use crate::recorder::{SpanSink, TraceRecord};
use crate::Histogram;
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
/// for, which span encloses the work, and (when the request was
/// sampled) the shared sink collecting the span tree. Cloning is two
/// u64 copies plus an `Arc` bump.
#[derive(Clone, Debug)]
pub struct TraceContext {
    /// Raw 64-bit trace ID (rendered as 16 hex chars externally).
    pub trace_id: u64,
    /// Id of the span enclosing the current work (root = 1).
    pub span_id: u64,
    /// Span collector, present only on sampled requests.
    pub sink: Option<Arc<SpanSink>>,
}

impl TraceContext {
    /// The trace ID as its 16-hex-char wire form.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
    static CAPTURE: RefCell<Option<CaptureFrame>> = const { RefCell::new(None) };
    static STAGE_BUFFER: RefCell<Option<Vec<StageObservation>>> = const { RefCell::new(None) };
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
/// what lets shard fan-out and pooled batch searches attribute their
/// spans (and slowlog records) to the request that spawned them. In
/// stripped builds this is the identity.
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
/// keeps the context installed on the dispatching thread, and — when
/// the request is sampled — persists the collected span tree into the
/// flight recorder on drop.
pub struct RequestTrace {
    hex: String,
    root: String,
    start: Instant,
    sink: Option<Arc<SpanSink>>,
    _guard: ContextGuard,
}

impl RequestTrace {
    /// Starts a request trace, honoring a valid inbound `X-Trace-Id`
    /// value (1–16 hex chars, nonzero) or minting a fresh ID. The
    /// head-sampling decision (see [`crate::recorder::sample`]) picks
    /// whether a span sink is attached; unsampled requests still carry
    /// the context so trace IDs reach the slowlog and exemplars.
    pub fn begin(inbound: Option<&str>) -> RequestTrace {
        let trace_id = inbound
            .and_then(parse_trace_hex)
            .unwrap_or_else(next_trace_raw);
        let (sink, guard) = if crate::enabled() {
            let sink = if crate::recorder::sample(trace_id) {
                Some(Arc::new(SpanSink::new()))
            } else {
                crate::counter(names::TRACES_SAMPLED_OUT_TOTAL).inc();
                None
            };
            let guard = install_context(Some(TraceContext {
                trace_id,
                span_id: 1,
                sink: sink.clone(),
            }));
            (sink, guard)
        } else {
            (None, ContextGuard::inactive())
        };
        RequestTrace {
            hex: format!("{trace_id:016x}"),
            root: String::new(),
            start: Instant::now(),
            sink,
            _guard: guard,
        }
    }

    /// The 16-hex-char trace ID (the `X-Trace-Id` response value).
    pub fn hex(&self) -> &str {
        &self.hex
    }

    /// Names the root span — the router sets this to the matched route
    /// pattern once dispatch resolves it.
    pub fn set_root(&mut self, name: &str) {
        self.root.clear();
        self.root.push_str(name);
    }
}

impl Drop for RequestTrace {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        let total = self.start.elapsed();
        let spans = sink.finish_root(&self.root, total.as_secs_f64());
        crate::recorder::record(TraceRecord {
            trace_id: std::mem::take(&mut self.hex),
            root: std::mem::take(&mut self.root),
            total_seconds: total.as_secs_f64(),
            slow: total >= crate::slowlog::slow_query_threshold(),
            spans,
        });
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
/// [`add_span_counter`] attach beneath it. No-op when the request is
/// unsampled or tracing is compiled out.
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
    let Some(sink) = ctx.sink.clone() else {
        return TreeSpan { inner: None };
    };
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
        c.borrow().as_ref().and_then(|ctx| {
            ctx.sink
                .as_ref()
                .map(|sink| (Arc::clone(sink), ctx.span_id))
        })
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

/// One diverted stage observation: metric name, stage label, seconds.
type StageObservation = (&'static str, &'static str, f64);

/// Stage observations diverted from the registry by [`buffered_stages`],
/// waiting to be flushed on another thread via [`flush_stages`].
#[derive(Debug, Default)]
pub struct StageLog(Vec<StageObservation>);

impl StageLog {
    /// Number of buffered observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the log holds no observations.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Folds another log's observations onto the end of this one.
    pub fn merge(&mut self, other: StageLog) {
        self.0.extend(other.0);
    }
}

/// Runs `f` with this thread's stage observations diverted into a
/// [`StageLog`] instead of the global registry.
///
/// Pool workers use this so their span timings survive the hop back to
/// the dispatching thread: `observe_stage` (and thus every [`Span`])
/// inside `f` appends to the log, and the caller later applies the
/// batch and calls [`flush_stages`] to land the timings in the registry
/// (and the active capture frame) exactly once. Nesting restores the
/// previous buffer on exit.
pub fn buffered_stages<T>(f: impl FnOnce() -> T) -> (T, StageLog) {
    if !crate::enabled() {
        return (f(), StageLog::default());
    }
    let prev = STAGE_BUFFER.with(|b| b.borrow_mut().replace(Vec::new()));
    let out = f();
    let buffered = STAGE_BUFFER.with(|b| {
        let mut slot = b.borrow_mut();
        let buffered = slot.take().unwrap_or_default();
        *slot = prev;
        buffered
    });
    (out, StageLog(buffered))
}

/// Lands a [`StageLog`]'s observations in the global registry and the
/// calling thread's active capture frame.
pub fn flush_stages(log: StageLog) {
    if !crate::enabled() {
        return;
    }
    for (metric, stage, seconds) in log.0 {
        observe_stage(metric, stage, seconds);
    }
}

/// DAAT executor statistics for one query, batched into the registry
/// (and the active capture frame) in a single flush per search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaatStats {
    /// Postings positions cursors moved past (advance + seek deltas).
    pub postings_advanced: u64,
    /// Candidates discarded by the MaxScore upper-bound test.
    pub candidates_pruned: u64,
    /// Dictionary terms produced by fuzzy expansion.
    pub fuzzy_expansions: u64,
    /// Top-k heap evictions (pops past capacity).
    pub heap_evictions: u64,
}

impl DaatStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &DaatStats) {
        self.postings_advanced += other.postings_advanced;
        self.candidates_pruned += other.candidates_pruned;
        self.fuzzy_expansions += other.fuzzy_expansions;
        self.heap_evictions += other.heap_evictions;
    }
}

#[derive(Debug, Default)]
struct CaptureFrame {
    stages: Vec<(&'static str, f64)>,
    daat: DaatStats,
}

/// Flushes one query's DAAT stats into the global counters, the active
/// capture frame, and the current span's counters. Call once per
/// `Index::search`.
pub fn record_daat(stats: DaatStats) {
    if !crate::enabled() || stats == DaatStats::default() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<crate::Counter>; 4]> = OnceLock::new();
    let [advanced, pruned, fuzzy, evicted] = COUNTERS.get_or_init(|| {
        let r = Registry::global();
        [
            r.counter(names::DAAT_POSTINGS_ADVANCED_TOTAL),
            r.counter(names::DAAT_CANDIDATES_PRUNED_TOTAL),
            r.counter(names::DAAT_FUZZY_EXPANSIONS_TOTAL),
            r.counter(names::DAAT_HEAP_EVICTIONS_TOTAL),
        ]
    });
    advanced.inc_by(stats.postings_advanced);
    pruned.inc_by(stats.candidates_pruned);
    fuzzy.inc_by(stats.fuzzy_expansions);
    evicted.inc_by(stats.heap_evictions);
    if let Some((sink, span)) = current_sink() {
        for (name, value) in [
            ("postings_advanced", stats.postings_advanced),
            ("candidates_pruned", stats.candidates_pruned),
            ("fuzzy_expansions", stats.fuzzy_expansions),
            ("heap_evictions", stats.heap_evictions),
        ] {
            if value != 0 {
                sink.add_counter(span, name, value);
            }
        }
    }
    CAPTURE.with(|c| {
        if let Some(frame) = c.borrow_mut().as_mut() {
            frame.daat.merge(&stats);
        }
    });
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

/// Records `seconds` into `metric{stage="..."}` and appends the stage
/// to the active capture frame (if a query capture is open).
pub fn observe_stage(metric: &'static str, stage: &'static str, seconds: f64) {
    if !crate::enabled() {
        return;
    }
    // A worker running under `buffered_stages` defers to its log; the
    // dispatching thread lands the observation at flush time.
    let diverted = STAGE_BUFFER.with(|b| {
        let mut slot = b.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                buf.push((metric, stage, seconds));
                true
            }
            None => false,
        }
    });
    if diverted {
        return;
    }
    Registry::global()
        .histogram_with(metric, &[("stage", stage)])
        .observe_traced(seconds, current_trace_raw());
    CAPTURE.with(|c| {
        if let Some(frame) = c.borrow_mut().as_mut() {
            frame.stages.push((stage, seconds));
        }
    });
}

/// RAII stage span: records wall time into `metric{stage=...}` on drop
/// and, on sampled requests, doubles as a node in the span tree.
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

/// Per-query capture: times the whole query, opens a capture frame so
/// stage spans and DAAT flushes on this thread attach to it, then on
/// `finish` records the total latency and hands the frame to the
/// slow-query log.
#[must_use = "call finish(..) to record the query"]
pub struct QueryCapture {
    start: Option<Instant>,
}

impl QueryCapture {
    /// Opens a capture frame on this thread. Two `Instant` reads and a
    /// thread-local swap on the warm-cache path; everything else is
    /// deferred to `finish`.
    pub fn begin() -> QueryCapture {
        if !crate::enabled() {
            return QueryCapture { start: None };
        }
        CAPTURE.with(|c| *c.borrow_mut() = Some(CaptureFrame::default()));
        QueryCapture {
            start: Some(Instant::now()),
        }
    }

    /// Closes the frame, records total query latency, and offers the
    /// query to the slow-query log.
    pub fn finish(self, query: &str, k: usize, policy: &'static str) {
        let Some(start) = self.start else {
            return;
        };
        let total = start.elapsed();
        let frame = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        static QUERY_HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
        QUERY_HIST
            .get_or_init(|| Registry::global().histogram(names::QUERY_SECONDS))
            .observe_traced(total.as_secs_f64(), current_trace_raw());
        crate::slowlog::maybe_record(total, query, k, policy, &frame.stages, frame.daat);
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
        {
            let _outer = install_context(Some(TraceContext {
                trace_id: 0xa,
                span_id: 1,
                sink: None,
            }));
            assert_eq!(current_trace_raw(), Some(0xa));
            assert_eq!(current_trace_id().as_deref(), Some("000000000000000a"));
            {
                let _inner = install_context(Some(TraceContext {
                    trace_id: 0xb,
                    span_id: 1,
                    sink: None,
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
        let mut trace = RequestTrace::begin(None);
        trace.set_root("nest");
        let hex = trace.hex().to_string();
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
        drop(trace);
        let record = crate::recorder::find_trace(&hex).expect("recorded");
        let outer = record.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = record.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 1);
        assert_eq!(inner.parent, outer.id);
    }

    #[test]
    fn daat_stats_merge_adds_fields() {
        let mut a = DaatStats {
            postings_advanced: 1,
            candidates_pruned: 2,
            fuzzy_expansions: 3,
            heap_evictions: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.postings_advanced, 2);
        assert_eq!(a.heap_evictions, 8);
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

    #[cfg(feature = "enabled")]
    #[test]
    fn buffered_stages_divert_then_flush_into_registry() {
        let h = Registry::global().histogram_with("test_buffered_seconds", &[("stage", "unit")]);
        let before = h.count();
        let ((), log) = buffered_stages(|| {
            observe_stage("test_buffered_seconds", "unit", 0.002);
            observe_stage("test_buffered_seconds", "unit", 0.003);
        });
        assert_eq!(
            h.count(),
            before,
            "buffered observations bypass the registry"
        );
        assert_eq!(log.len(), 2);
        flush_stages(log);
        assert_eq!(h.count(), before + 2, "flush lands every observation");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn buffered_stages_nest_and_restore() {
        let ((), outer) = buffered_stages(|| {
            observe_stage("test_nested_seconds", "outer", 0.001);
            let ((), inner) = buffered_stages(|| {
                observe_stage("test_nested_seconds", "inner", 0.001);
            });
            assert_eq!(inner.len(), 1);
            observe_stage("test_nested_seconds", "outer", 0.001);
        });
        assert_eq!(outer.len(), 2, "outer buffer survives the nested scope");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn capture_collects_stages_and_daat() {
        let _cap = QueryCapture::begin();
        observe_stage("test_capture_seconds", "alpha", 0.001);
        record_daat(DaatStats {
            postings_advanced: 5,
            ..DaatStats::default()
        });
        let frame = CAPTURE.with(|c| c.borrow_mut().take()).expect("frame open");
        assert_eq!(frame.stages, vec![("alpha", 0.001)]);
        assert_eq!(frame.daat.postings_advanced, 5);
    }
}
