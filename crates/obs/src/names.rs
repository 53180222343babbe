//! Canonical metric and stage names, shared by the instrumented
//! crates, the `/metrics` endpoint, and the bench readouts so the
//! series line up everywhere.

/// Ingest pipeline stage latency, labelled `stage=...`.
pub const PIPELINE_STAGE_SECONDS: &str = "create_pipeline_stage_seconds";
/// `stage` values for [`PIPELINE_STAGE_SECONDS`], in pipeline order.
pub const PIPELINE_STAGES: [&str; 5] = [
    STAGE_SECTION_SPLIT,
    STAGE_NER,
    STAGE_TEMPORAL_RE,
    STAGE_GRAPH_BUILD,
    STAGE_INDEX_WRITE,
];
pub const STAGE_SECTION_SPLIT: &str = "section_split";
pub const STAGE_NER: &str = "ner";
pub const STAGE_TEMPORAL_RE: &str = "temporal_re";
/// Building a document's event record, which stands in for its part of
/// the property graph; the stage keeps the graph's name.
pub const STAGE_GRAPH_BUILD: &str = "graph_build";
pub const STAGE_INDEX_WRITE: &str = "index_write";

/// End-to-end facade query latency (cache hits included).
pub const QUERY_SECONDS: &str = "create_query_seconds";
/// Query stage latency, labelled `stage=...`.
pub const QUERY_STAGE_SECONDS: &str = "create_query_stage_seconds";
/// `stage` values for [`QUERY_STAGE_SECONDS`], in execution order. The
/// last four are the cohort plan stages (filter pushdown, temporal
/// evaluation, facet counting run after the shared parse/search stages).
pub const QUERY_STAGES: [&str; 8] = [
    QSTAGE_PARSE,
    QSTAGE_PLAN,
    QSTAGE_GRAPH_SEARCH,
    QSTAGE_KEYWORD_SEARCH,
    QSTAGE_FILTER,
    QSTAGE_TEMPORAL,
    QSTAGE_FACET_COUNT,
    QSTAGE_MERGE,
];
pub const QSTAGE_PARSE: &str = "parse";
pub const QSTAGE_PLAN: &str = "plan";
pub const QSTAGE_GRAPH_SEARCH: &str = "graph_search";
pub const QSTAGE_KEYWORD_SEARCH: &str = "keyword_search";
pub const QSTAGE_FILTER: &str = "filter";
pub const QSTAGE_TEMPORAL: &str = "temporal";
pub const QSTAGE_FACET_COUNT: &str = "facet_count";
pub const QSTAGE_MERGE: &str = "merge";

/// DAAT executor counters (flushed once per `Index::search`).
pub const DAAT_POSTINGS_ADVANCED_TOTAL: &str = "create_daat_postings_advanced_total";
pub const DAAT_CANDIDATES_PRUNED_TOTAL: &str = "create_daat_candidates_pruned_total";
pub const DAAT_HEAP_EVICTIONS_TOTAL: &str = "create_daat_heap_evictions_total";

/// Query-cache counters (mirror of the `/stats` fields).
pub const QUERY_CACHE_HITS_TOTAL: &str = "create_query_cache_hits_total";
pub const QUERY_CACHE_MISSES_TOTAL: &str = "create_query_cache_misses_total";

/// Graph executor counters (flushed once per Cypher query; the graph
/// search reads event records and walks no node).
pub const GRAPH_EXEC_NODES_VISITED_TOTAL: &str = "create_graph_exec_nodes_visited_total";
pub const GRAPH_EXEC_EDGES_TRAVERSED_TOTAL: &str = "create_graph_exec_edges_traversed_total";

/// Per-merge-policy search counts, labelled `policy=...`.
pub const SEARCH_POLICY_TOTAL: &str = "create_search_policy_total";

/// Poisoned-lock recoveries (server keeps serving instead of crashing).
pub const LOCK_POISONED_TOTAL: &str = "create_lock_poisoned_total";

/// Snapshot publications (one per completed write batch) and the time
/// spent building + swapping in the new snapshot.
pub const SNAPSHOT_PUBLISH_TOTAL: &str = "create_snapshot_publish_total";
pub const SNAPSHOT_PUBLISH_SECONDS: &str = "create_snapshot_publish_seconds";

/// Config values rejected or clamped at `Create::open`/`Create::new`
/// (e.g. a zero or absurd shard count).
pub const OPEN_BAD_CONFIG_TOTAL: &str = "create_open_bad_config_total";

/// Per-shard write-path series, labelled `shard=...`: the shard's
/// current generation stamp (a gauge refreshed at scrape time) and its
/// completed publishes.
pub const SHARD_GENERATION_GAUGE: &str = "create_shard_generation";
pub const SHARD_PUBLISH_TOTAL: &str = "create_shard_publish_total";

/// HTTP layer, labelled `route=...` (+ `status=...` on the counter).
pub const HTTP_REQUESTS_TOTAL: &str = "create_http_requests_total";
pub const HTTP_REQUEST_SECONDS: &str = "create_http_request_seconds";

/// Evented-server connection lifecycle: currently open sockets (gauge,
/// maintained by the event loop) and total accepted connections.
pub const HTTP_CONNECTIONS_OPEN_GAUGE: &str = "create_http_connections_open";
pub const HTTP_CONNECTIONS_ACCEPTED_TOTAL: &str = "create_http_connections_accepted_total";
/// Admission-control rejections, labelled `reason=` (`connection_ceiling`,
/// `route_limit`, `draining`) and, for route limits, `route=`.
pub const HTTP_SHED_TOTAL: &str = "create_http_shed_total";
/// Time a parsed request waited between admission and a pool worker
/// picking it up, labelled `route=`.
pub const HTTP_QUEUE_WAIT_SECONDS: &str = "create_http_queue_wait_seconds";
/// Requests rejected with 413 because `Content-Length` exceeded the
/// configured body cap.
pub const HTTP_BODY_REJECTED_TOTAL: &str = "create_http_body_rejected_total";
/// Requests rejected with 400 for malformed request lines or invalid /
/// oversized headers.
pub const HTTP_PARSE_ERROR_TOTAL: &str = "create_http_parse_error_total";
/// Connections reaped by a deadline, labelled `kind=` (`header`, `body`,
/// `idle`, `write`).
pub const HTTP_TIMEOUTS_TOTAL: &str = "create_http_timeouts_total";
/// Second-and-later requests served on a kept-alive connection.
pub const HTTP_KEEPALIVE_REUSE_TOTAL: &str = "create_http_keepalive_reuse_total";

/// Thread-pool series, maintained by `create-util::pool`: live worker
/// threads across all pools (a serving process runs one, so this is its
/// core count), jobs and scope tasks queued but not yet started, and
/// jobs and scope tasks started since process start (a scope's ticket
/// that finds no task left counts nothing).
pub const POOL_WORKERS_GAUGE: &str = "create_pool_workers";
pub const POOL_QUEUE_DEPTH_GAUGE: &str = "create_pool_queue_depth";
pub const POOL_JOBS_EXECUTED_TOTAL: &str = "create_pool_jobs_executed_total";

/// Flight-recorder accounting: completed request traces persisted into
/// the recorder rings.
pub const TRACES_RECORDED_TOTAL: &str = "create_traces_recorded_total";

/// Span-tree node names for the structural (non-stage) spans: the
/// per-query span under a request root, and the per-shard children of
/// the keyword/graph scatter stages. Stage spans reuse the `stage=`
/// label values above.
pub const SPAN_SEARCH: &str = "search";
pub const SPAN_KEYWORD_SHARD: &str = "keyword_shard";
pub const SPAN_GRAPH_SHARD: &str = "graph_shard";
/// The per-request cohort-retrieval span (the `/cohort` analogue of
/// [`SPAN_SEARCH`]) and its per-shard scatter children.
pub const SPAN_COHORT: &str = "cohort";
pub const SPAN_COHORT_SHARD: &str = "cohort_shard";

/// Query-plan executor counters: logical plan nodes executed (every node
/// of every optimized plan, keyword and cohort alike) and sorted-run
/// bitmap intersections performed by the facet-filter pushdown.
pub const PLAN_NODES_TOTAL: &str = "create_plan_nodes_total";
pub const BITMAP_INTERSECTIONS_TOTAL: &str = "create_bitmap_intersections_total";

/// Log events by severity, labelled `level=...`.
pub const LOG_EVENTS_TOTAL: &str = "create_log_events_total";

/// Durable storage engine series. The WAL counter totals framed bytes
/// appended across shards; the segment gauges reflect the live manifest
/// (refreshed at scrape and after every flush/compaction); compaction
/// counters total merge runs and the documents they rewrote; the
/// recovery counter totals WAL records replayed by `Create::open`.
pub const WAL_APPENDED_BYTES_TOTAL: &str = "create_wal_appended_bytes_total";
pub const WAL_APPEND_SECONDS: &str = "create_wal_append_seconds";
pub const SEGMENT_COUNT_GAUGE: &str = "create_segment_count";
pub const SEGMENT_BYTES_GAUGE: &str = "create_segment_bytes";
pub const SEGMENT_SEAL_SECONDS: &str = "create_segment_seal_seconds";
pub const COMPACTION_RUNS_TOTAL: &str = "create_compaction_runs_total";
pub const COMPACTION_MERGED_DOCS_TOTAL: &str = "create_compaction_merged_docs_total";
pub const RECOVERY_REPLAYED_RECORDS_TOTAL: &str = "create_recovery_replayed_records_total";

/// Heap bytes the published snapshot holds, labelled `component=`
/// (`postings`, `graph`, `docstore`, `facet`, `tagger`), computed from the
/// structures' own lengths at `/metrics` scrape and `/stats` time. The
/// `graph` component is the event records, which stand in for the
/// property graph and keep its name.
pub const RESIDENT_BYTES_GAUGE: &str = "create_resident_bytes";

/// Corpus/system size gauges, refreshed at `/metrics` scrape time (the
/// graph's node and edge counts from the event records).
pub const REPORTS_GAUGE: &str = "create_reports";
pub const GRAPH_NODES_GAUGE: &str = "create_graph_nodes";
pub const GRAPH_EDGES_GAUGE: &str = "create_graph_edges";
pub const INDEX_TERMS_GAUGE: &str = "create_index_terms";
pub const QUERY_CACHE_ENTRIES_GAUGE: &str = "create_query_cache_entries";
pub const INDEX_GENERATION_GAUGE: &str = "create_index_generation";
