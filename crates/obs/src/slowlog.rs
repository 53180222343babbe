//! Slow-query log: queries whose total latency crosses a runtime
//! threshold are captured into a fixed-capacity ring with their trace
//! ID, per-stage timings, and DAAT executor stats.

use crate::events::{log, Level};
use crate::trace::{current_trace_id, DaatStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Retained slow queries before the ring starts evicting.
pub const SLOWLOG_CAPACITY: usize = 128;

const DEFAULT_THRESHOLD_NANOS: u64 = 250_000_000; // 250ms

static THRESHOLD_NANOS: AtomicU64 = AtomicU64::new(DEFAULT_THRESHOLD_NANOS);

/// Sets the slow-query threshold. `Duration::ZERO` captures every
/// query (useful in tests and when profiling).
pub fn set_slow_query_threshold(threshold: Duration) {
    let nanos = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
    THRESHOLD_NANOS.store(nanos, Ordering::Relaxed);
}

/// The current slow-query threshold.
pub fn slow_query_threshold() -> Duration {
    Duration::from_nanos(THRESHOLD_NANOS.load(Ordering::Relaxed))
}

/// One captured slow query.
#[derive(Clone, Debug)]
pub struct SlowQueryRecord {
    /// Monotonic sequence number (process lifetime).
    pub seq: u64,
    /// Trace active on the query thread, if any. Pool workers inherit
    /// the submitting request's context, so batch queries carry the
    /// dispatching request's trace ID.
    pub trace_id: Option<String>,
    /// Query text.
    pub query: String,
    /// Requested result count.
    pub k: usize,
    /// Merge policy label.
    pub policy: String,
    /// End-to-end latency in seconds.
    pub total_seconds: f64,
    /// Per-stage wall times `(stage, seconds)` in execution order.
    pub stages: Vec<(String, f64)>,
    /// DAAT executor stats accumulated during the query.
    pub daat: DaatStats,
}

static RING: Mutex<VecDeque<SlowQueryRecord>> = Mutex::new(VecDeque::new());

/// Captures the query if it crossed the threshold. Called by
/// `QueryCapture::finish` with the closed capture frame.
pub(crate) fn maybe_record(
    total: Duration,
    query: &str,
    k: usize,
    policy: &'static str,
    stages: &[(&'static str, f64)],
    daat: DaatStats,
) {
    if total.as_nanos() < u128::from(THRESHOLD_NANOS.load(Ordering::Relaxed)) {
        return;
    }
    let total_seconds = total.as_secs_f64();
    log(
        Level::Warn,
        "slowlog",
        format!(
            "slow query ({:.1}ms, policy {policy}): {query}",
            total_seconds * 1e3
        ),
    );
    let mut ring = RING.lock().unwrap_or_else(|p| p.into_inner());
    let seq = ring.back().map(|r| r.seq + 1).unwrap_or(0);
    if ring.len() == SLOWLOG_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(SlowQueryRecord {
        seq,
        trace_id: current_trace_id(),
        query: query.to_string(),
        k,
        policy: policy.to_string(),
        total_seconds,
        stages: stages.iter().map(|(s, t)| (s.to_string(), *t)).collect(),
        daat,
    });
}

/// Snapshot of captured slow queries, oldest first.
pub fn slow_queries() -> Vec<SlowQueryRecord> {
    let ring = RING.lock().unwrap_or_else(|p| p.into_inner());
    ring.iter().cloned().collect()
}

/// Empties the slow-query ring (tests).
pub fn clear_slow_queries() {
    let mut ring = RING.lock().unwrap_or_else(|p| p.into_inner());
    ring.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn threshold_zero_captures_and_higher_skips() {
        let prior = slow_query_threshold();
        set_slow_query_threshold(Duration::ZERO);
        maybe_record(
            Duration::from_micros(5),
            "fast query captured at zero",
            10,
            "neo4j_first",
            &[("parse", 1e-6), ("merge", 2e-6)],
            DaatStats {
                postings_advanced: 7,
                ..DaatStats::default()
            },
        );
        set_slow_query_threshold(Duration::from_secs(3600));
        maybe_record(
            Duration::from_micros(5),
            "fast query skipped at 1h",
            10,
            "neo4j_first",
            &[],
            DaatStats::default(),
        );
        set_slow_query_threshold(prior);

        let records = slow_queries();
        let hit = records
            .iter()
            .find(|r| r.query == "fast query captured at zero")
            .expect("captured");
        assert_eq!(hit.policy, "neo4j_first");
        assert_eq!(hit.stages.len(), 2);
        assert_eq!(hit.daat.postings_advanced, 7);
        assert!(!records.iter().any(|r| r.query.contains("skipped")));
    }

    #[test]
    fn threshold_round_trips() {
        let prior = slow_query_threshold();
        set_slow_query_threshold(Duration::from_millis(15));
        assert_eq!(slow_query_threshold(), Duration::from_millis(15));
        set_slow_query_threshold(prior);
    }
}
