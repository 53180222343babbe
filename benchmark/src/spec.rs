//! Names, units and directions of everything the benchmark reports. The
//! same tables drive the output, the A/A comparison and the test that keeps
//! `BENCHMARK.json` in step with the code.

use crate::stats::Better;

/// Shard count of the system under test. Pinned: `CreateConfig::default()`
/// sizes itself to the host, which would make results host-dependent.
pub const SHARDS: usize = 2;
/// Result count of every `/search`.
pub const K: usize = 10;
/// Reports in the fixture corpus.
pub const CORPUS_REPORTS: usize = 2000;
/// Reports in the `--quick` smoke fixture.
pub const QUICK_REPORTS: usize = 500;
/// Default length of the timed part of a run, the contract's `run_seconds`.
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchUnique,
    SearchRepeat,
    CohortMix,
    IngestInterleaved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchUnique,
        Workload::SearchRepeat,
        Workload::CohortMix,
        Workload::IngestInterleaved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchUnique => "search_unique",
            Workload::SearchRepeat => "search_repeat",
            Workload::CohortMix => "cohort_mix",
            Workload::IngestInterleaved => "ingest_interleaved",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed rounds of a run that is to measure for `seconds`.
    ///
    /// A count, not a deadline: the estimate takes a minimum over rounds,
    /// so it falls as rounds are added, and a run that played fewer rounds
    /// because the host was slow would read slower twice over. The count
    /// is `seconds` over the round's length on a quiet 2-vCPU host, and at
    /// least 5 (3 for `ingest_interleaved`, whose rounds are 10 s).
    pub fn rounds(self, seconds: u64, quick: bool) -> usize {
        if quick {
            return 1;
        }
        let (round_seconds, fewest) = match self {
            Workload::SearchUnique => (1.7, 5),
            Workload::SearchRepeat => (1.45, 5),
            Workload::CohortMix => (0.87, 5),
            Workload::IngestInterleaved => (10.0, 3),
        };
        ((seconds as f64 / round_seconds).ceil() as usize).max(fewest)
    }

    /// Whether the workload changes the data directory. One that does
    /// plays every round on a fresh copy of the fixture.
    pub fn writes(self) -> bool {
        self == Workload::IngestInterleaved
    }

    /// Path of the request whose latency is `op_p50_ms` / `op_p90_ms`.
    pub fn primary_path(self) -> &'static str {
        match self {
            Workload::SearchUnique | Workload::SearchRepeat => "/search",
            Workload::CohortMix => "/cohort",
            Workload::IngestInterleaved => "/submit_batch",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics with a bound, the same set on every workload. These
/// are the ones two sets of runs of identical code agree on; see `TIMINGS`.
pub const END_TO_END: [MetricSpec; 3] = [
    m("setup_s", "s", Better::Lower),
    m("peak_rss_mb", "MiB", Better::Lower),
    m("disk_bytes_per_user_byte", "ratio", Better::Lower),
];

/// End-to-end timings. On a shared host identical code reads 1.5 to 1.8
/// times slower in one quarter of an hour than in the next, so none of them
/// holds a bound of 25 %, the widest the contract allows; they are reported
/// without one, first in the per-layer list, under their end-to-end names.
pub const TIMINGS: [MetricSpec; 6] = [
    m("open_s", "s", Better::Lower),
    m("ops_per_s", "1/s", Better::Higher),
    m("op_p50_ms", "ms", Better::Lower),
    m("op_p90_ms", "ms", Better::Lower),
    m("read_p50_ms", "ms", Better::Lower),
    m("cpu_ms_per_op", "ms", Better::Lower),
];

/// Per-layer metrics of the traced run; the prefix is the crate measured.
pub const LAYERS: [MetricSpec; 46] = [
    m("server.http_ms", "ms", Better::Lower),
    m("server.render_ms", "ms", Better::Lower),
    m("server.parse_req_ms", "ms", Better::Lower),
    m("server.keepalive_reuse_ratio", "ratio", Better::Higher),
    m("server.shed", "count", Better::Lower),
    m("core.search_ms", "ms", Better::Lower),
    m("core.search_hit_ms", "ms", Better::Lower),
    m("core.parse_ms", "ms", Better::Lower),
    m("core.plan_ms", "ms", Better::Lower),
    m("core.search_es_only_ms", "ms", Better::Lower),
    m("core.search_graph_only_ms", "ms", Better::Lower),
    m("core.search_unattributed_ms", "ms", Better::Lower),
    m("core.cache_hit_ratio", "ratio", Better::Higher),
    m("core.cohort_filter_ms", "ms", Better::Lower),
    m("core.cohort_keyword_ms", "ms", Better::Lower),
    m("core.cohort_temporal_ms", "ms", Better::Lower),
    m("core.cohort_plan_ms", "ms", Better::Lower),
    m("core.extract_ms", "ms", Better::Lower),
    m("core.apply_ms", "ms", Better::Lower),
    m("core.ingest_batch_ms", "ms", Better::Lower),
    m("core.publish_per_write", "ratio", Better::Lower),
    m("core.flush_ms", "ms", Better::Lower),
    m("core.flush_compact_ms", "ms", Better::Lower),
    m("core.open_ms", "ms", Better::Lower),
    m("index.keyword_shard0_ms", "ms", Better::Lower),
    m("index.postings_per_query", "count", Better::Lower),
    m("index.pruned_per_query", "count", Better::Higher),
    m("index.bitmap_intersections_per_op", "count", Better::Lower),
    m("index.ram_postings_bytes_per_doc", "bytes", Better::Lower),
    m("graphdb.nodes_visited_per_query", "count", Better::Lower),
    m("graphdb.edges_traversed_per_query", "count", Better::Lower),
    m("ner.tag_ms", "ms", Better::Lower),
    m("text.split_ms", "ms", Better::Lower),
    m("text.analyze_ms", "ms", Better::Lower),
    m("core.extract_rest_ms", "ms", Better::Lower),
    m("docstore.parse_json_ms", "ms", Better::Lower),
    m("docstore.jsonl_bytes_per_user_byte", "ratio", Better::Lower),
    m("storage.wal_append_sync_ms", "ms", Better::Lower),
    m("storage.wal_bytes_per_user_byte", "ratio", Better::Lower),
    m(
        "storage.segment_bytes_per_user_byte",
        "ratio",
        Better::Lower,
    ),
    m("storage.segment_read_ms", "ms", Better::Lower),
    m("storage.segment_write_ms", "ms", Better::Lower),
    m("storage.compaction_runs", "count", Better::Lower),
    m("storage.compaction_docs_per_doc", "ratio", Better::Lower),
    m("util.pool_jobs_per_op", "count", Better::Lower),
    m("trace.overhead_pct", "%", Better::Lower),
];

/// What a traced run prints: the unbounded end-to-end timings, then the
/// layers.
pub fn per_layer() -> impl Iterator<Item = &'static MetricSpec> {
    TIMINGS.iter().chain(&LAYERS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_docstore::json::parse_json;
    use create_docstore::Value;

    /// `BENCHMARK.json` is what the driver reads; it must name exactly what
    /// the program prints.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .to_vec()
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_i64),
            Some(RUN_SECONDS as i64)
        );

        let per_layer: Vec<&MetricSpec> = per_layer().collect();
        for (key, specs) in [
            ("end_to_end", END_TO_END.iter().collect::<Vec<_>>()),
            ("per_layer", per_layer),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = specs
                .iter()
                .map(|s| {
                    let better = match s.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    };
                    (s.name.to_string(), s.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{} bound {bound}",
                text(&m, "name")
            );
        }
    }

    #[test]
    fn round_counts_follow_seconds() {
        assert_eq!(Workload::SearchUnique.rounds(8, false), 5);
        assert_eq!(Workload::CohortMix.rounds(8, false), 10);
        assert_eq!(Workload::CohortMix.rounds(1, false), 5);
        assert_eq!(Workload::IngestInterleaved.rounds(8, false), 3);
        assert_eq!(Workload::IngestInterleaved.rounds(60, false), 6);
        assert_eq!(Workload::SearchRepeat.rounds(60, true), 1);
    }
}
