//! Std-only observability layer for the CREATe workspace.
//!
//! Four pieces, all dependency-free:
//!
//! - **Metrics registry** ([`metrics`]): atomic counters, gauges, and
//!   fixed-bucket latency histograms with p50/p95/p99 extraction,
//!   rendered in the Prometheus text exposition format.
//! - **Spans and traces** ([`trace`]): a propagated per-request
//!   [`TraceContext`] (captured by `create-util::pool` when jobs are
//!   injected, re-installed on the worker), `Span::enter(metric,
//!   stage)` RAII guards that record wall time into stage histograms
//!   *and* the request's span tree, and histogram exemplars linking
//!   latency buckets to trace IDs.
//! - **Flight recorder** ([`recorder`]): every request's completed span
//!   tree, in two fixed-size rings (general + always-retained slow, the
//!   latter over a runtime-configurable threshold), served as
//!   `GET /trace/{id}`, `GET /slowlog` and `GET /debug/traces`.
//! - **Event log** ([`events`]): severity-filtered events, counted per
//!   level and printed to stderr.
//!
//! The `enabled` feature (default on) compiles the recording paths
//! in. The top crates (`create-core`, `create-server`, `create-bench`)
//! turn it on through their own `obs` feature, so
//! `--no-default-features` builds the uninstrumented system;
//! `scripts/verify.sh` checks that the stripped server still compiles
//! and gates no timing (the benchmark's per-layer `trace.overhead_pct`
//! reads a traced run's wall time against an untraced one). The
//! registry itself stays live either way so `/metrics` always renders.

pub mod events;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod trace;

pub use events::{log, log_level, set_log_level, Level};
pub use metrics::{
    escape_label_value, BucketExemplars, Counter, Exemplar, Gauge, Histogram, Registry,
    LATENCY_BUCKETS,
};
pub use recorder::{
    clear_recorded_traces, find_trace, set_slow_query_threshold, slow_query_threshold, slow_traces,
    trace_summaries, SpanRecord, TraceRecord, TraceSummary, RECORDER_CAPACITY,
    RECORDER_SLOW_CAPACITY,
};
pub use trace::{
    add_span_counter, carry_context, child_span, current_context, current_trace_id,
    current_trace_raw, install_context, next_trace_id, observe_stage, parse_trace_hex, record_daat,
    record_graph_exec, shard_span, ContextGuard, DaatStats, RequestTrace, Span, TraceContext,
    TreeSpan,
};

use std::sync::Arc;

/// Whether the recording paths are compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Global counter handle (see [`Registry::counter`]).
pub fn counter(name: &str) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// Global labelled counter handle.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    Registry::global().counter_with(name, labels)
}

/// Global gauge handle.
pub fn gauge(name: &str) -> Arc<Gauge> {
    Registry::global().gauge(name)
}

/// Global labelled gauge handle.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    Registry::global().gauge_with(name, labels)
}

/// Global latency histogram handle.
pub fn histogram(name: &str) -> Arc<Histogram> {
    Registry::global().histogram(name)
}

/// Global labelled latency histogram handle.
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    Registry::global().histogram_with(name, labels)
}

/// Renders the global registry in Prometheus text format.
pub fn render_prometheus() -> String {
    Registry::global().render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_flag_is_visible() {
        // The crate's own test build uses default features.
        assert!(enabled());
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        // Hammer one counter from the create-util thread pool:
        // every increment must land (satellite requirement).
        let registry = Registry::new();
        let counter = registry.counter("concurrent_total");
        let pool = create_util::ThreadPool::new(4);
        const TASKS: usize = 64;
        const PER_TASK: u64 = 1_000;
        let items: Vec<usize> = (0..TASKS).collect();
        let results = pool.parallel_map(&items, |_, _| {
            for _ in 0..PER_TASK {
                counter.inc();
            }
            1u64
        });
        assert_eq!(results.len(), TASKS);
        assert_eq!(counter.get(), TASKS as u64 * PER_TASK);
    }

    #[test]
    fn concurrent_histogram_observations_sum_exactly() {
        let registry = Registry::new();
        let hist = registry.histogram("concurrent_seconds");
        let pool = create_util::ThreadPool::new(4);
        const TASKS: usize = 32;
        const PER_TASK: usize = 500;
        let items: Vec<usize> = (0..TASKS).collect();
        pool.parallel_map(&items, |_, _| {
            for _ in 0..PER_TASK {
                hist.observe(0.001);
            }
        });
        assert_eq!(hist.count(), (TASKS * PER_TASK) as u64);
        let expected = 0.001 * (TASKS * PER_TASK) as f64;
        assert!((hist.sum() - expected).abs() < 1e-6, "sum {}", hist.sum());
    }
}
