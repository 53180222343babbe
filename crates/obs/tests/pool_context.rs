//! `create-util`'s pool wraps every injected job in
//! [`create_obs::carry_context`]. These live in an integration test, not
//! in `trace.rs`'s unit tests: there the pool links the *library* build of
//! this crate while the test sees the `cfg(test)` build, two copies with
//! two thread-locals, and the assertions held only when the submitting
//! thread happened to run every job itself.
#![cfg(feature = "enabled")]

use create_obs::{
    add_span_counter, current_trace_raw, find_trace, names, shard_span, RequestTrace,
};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn carry_context_reinstalls_on_pool_workers() {
    let pool = create_util::ThreadPool::new(2);
    let _trace = RequestTrace::begin(Some("deadbeef"));
    let seen = AtomicU64::new(0);
    pool.scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                if current_trace_raw() == Some(0xdead_beef) {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        seen.load(Ordering::Relaxed),
        4,
        "every pooled job ran under the submitter's trace context"
    );
    assert_eq!(current_trace_raw(), Some(0xdead_beef));
}

#[test]
fn request_trace_records_spans_from_pool_workers() {
    let pool = create_util::ThreadPool::new(2);
    let hex = {
        let trace = RequestTrace::begin(Some("feedface"));
        assert_eq!(trace.hex(), "00000000feedface");
        pool.scope(|scope| {
            for shard in 0..3u32 {
                scope.spawn(move || {
                    let _span = shard_span(names::SPAN_KEYWORD_SHARD, shard);
                    add_span_counter("postings_advanced", 7);
                });
            }
        });
        trace.finish("/search", [])
    };
    let record = find_trace(&hex).expect("trace recorded on finish");
    assert_eq!(record.root, "/search");
    assert_eq!(record.spans[0].id, 1);
    assert_eq!(record.spans[0].name, "/search");
    let shards: Vec<_> = record
        .spans
        .iter()
        .filter(|s| s.name == names::SPAN_KEYWORD_SHARD)
        .collect();
    assert_eq!(shards.len(), 3, "one span per pooled shard job");
    for span in &shards {
        assert_eq!(
            span.parent, 1,
            "pool workers inherit the root span as parent"
        );
        assert!(span.duration_seconds >= 0.0);
        assert_eq!(span.counters, vec![("postings_advanced".to_string(), 7)]);
    }
    let mut shard_ids: Vec<_> = shards.iter().filter_map(|s| s.shard).collect();
    shard_ids.sort_unstable();
    assert_eq!(shard_ids, vec![0, 1, 2]);
}
