//! What the platform reports about itself: the four `*Stats` readouts
//! (each from the published snapshot or the live manifest, never under
//! the write lock) and the metric series the facade pre-registers.

use crate::{durability, graph_build, search::MergePolicy, system::Create};
use create_index::Index;
use create_ner::CrfTagger;
use create_obs::names as obs_names;
use create_storage::ShardManifest;
use create_util::arc_slice_bytes;
use std::sync::{Arc, OnceLock};

/// Counts describing the system state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Stored reports.
    pub reports: usize,
    /// Nodes of the property graph the reports project to, counted from
    /// the event records (see [`graph_build::graph_counts`]).
    pub graph_nodes: usize,
    /// Edges of that graph.
    pub graph_edges: usize,
    /// Distinct index terms across fields.
    pub index_terms: usize,
}

/// Facet-bitmap size totals (see [`Create::facet_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FacetStats {
    /// Each shard's distinct `(field, value)` runs, summed over the
    /// shards: a value two shards hold counts twice (see
    /// [`Index::facet_values`](create_index::Index::facet_values)).
    pub values: usize,
    /// Total bytes held by the runs.
    pub postings_bytes: usize,
    /// Documents covered (equals the report count).
    pub docs: usize,
}

/// Resident heap bytes by component (see [`Create::memory_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// The inverted indexes' terms and posting arrays
    /// ([`Index::postings_bytes`](create_index::Index::postings_bytes)).
    pub postings_bytes: usize,
    /// The event records that stand in for the property graph
    /// ([`graph_build::column_bytes`]); the component keeps the graph's
    /// name.
    pub graph_bytes: usize,
    /// The stored payloads, exactly: each text with its `Arc` header,
    /// and the chunked slot array that indexes them by doc id.
    pub docstore_bytes: usize,
    /// The facet bitmaps' values and runs.
    pub facet_bytes: usize,
    /// The attached NER tagger: its `Arc` allocation and the CRF weights
    /// and label set it holds
    /// ([`CrfTagger::heap_bytes`](create_ner::CrfTagger::heap_bytes)),
    /// once per distinct tagger — every shard shares one.
    pub tagger_bytes: usize,
}

impl MemoryStats {
    /// `(component, bytes)` — the `component` label of
    /// `create_resident_bytes`, and `<component>_bytes` in `/stats`.
    pub fn components(&self) -> [(&'static str, usize); 5] {
        [
            ("postings", self.postings_bytes),
            ("graph", self.graph_bytes),
            ("docstore", self.docstore_bytes),
            ("facet", self.facet_bytes),
            ("tagger", self.tagger_bytes),
        ]
    }
}

/// One shard's segments in RAM and on disk (see
/// [`Create::shard_segments`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSegments {
    /// Segments of the shard's index, as published: every one holds
    /// documents.
    pub ram: usize,
    /// Live segment files (0 for an in-memory instance).
    pub disk: usize,
}

/// Sealed on-disk segment totals (see [`Create::storage_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Live segment files across all shards.
    pub segments: usize,
    /// Their total size in bytes.
    pub segment_bytes: u64,
}

/// Bytes an index's facet bitmaps hold, summed over its segments: a
/// value several segments hold is counted in each.
fn facet_bytes(index: &Index) -> usize {
    index
        .facets()
        .map(|(_, facets)| facets.postings_bytes())
        .sum()
}

impl Create {
    /// System counters, read from one composite snapshot (mutually
    /// consistent) and summed across shards.
    pub fn stats(&self) -> SystemStats {
        let snapshot = self.snapshot();
        let mut stats = SystemStats::default();
        for shard in &snapshot.shards {
            stats.reports += shard.index.num_docs();
            let (nodes, edges) = graph_build::graph_counts(&shard.events);
            stats.graph_nodes += nodes;
            stats.graph_edges += edges;
            stats.index_terms += shard.index.vocabulary_size("body")
                + shard.index.vocabulary_size("title")
                + shard.index.vocabulary_size("body_ngram");
        }
        stats
    }

    /// Facet-bitmap totals summed across the current snapshot's shards
    /// (the bench's bytes/doc readout).
    pub fn facet_stats(&self) -> FacetStats {
        let snapshot = self.snapshot();
        let mut stats = FacetStats::default();
        for shard in &snapshot.shards {
            stats.values += shard.index.facet_values();
            stats.postings_bytes += facet_bytes(&shard.index);
            stats.docs += shard.index.num_docs();
        }
        stats
    }

    /// Heap bytes the published snapshot holds, by component and summed
    /// across shards — a structure shards share (the tagger) once — from
    /// the structures' own lengths and capacities
    /// (see [`graph_build::column_bytes`]). Walks every shard's event
    /// records, payloads, dictionary and bitmaps, so it is for the stats
    /// and scrape paths. Also refreshes the `create_resident_bytes`
    /// gauges.
    pub fn memory_stats(&self) -> MemoryStats {
        let snapshot = self.snapshot();
        let mut stats = MemoryStats::default();
        let mut taggers: Vec<&Arc<CrfTagger>> = Vec::new();
        for shard in &snapshot.shards {
            if let Some(tagger) = &shard.tagger {
                if !taggers.iter().any(|seen| Arc::ptr_eq(seen, tagger)) {
                    taggers.push(tagger);
                    stats.tagger_bytes +=
                        arc_slice_bytes(std::mem::size_of::<CrfTagger>()) + tagger.heap_bytes();
                }
            }
            stats.postings_bytes += shard.index.postings_bytes();
            stats.graph_bytes += graph_build::column_bytes(&shard.events);
            stats.docstore_bytes += shard.docs.heap_bytes();
            stats.facet_bytes += facet_bytes(&shard.index);
        }
        if create_obs::enabled() {
            for (component, bytes) in stats.components() {
                create_obs::gauge_with(
                    obs_names::RESIDENT_BYTES_GAUGE,
                    &[("component", component)],
                )
                .set(bytes as i64);
            }
        }
        stats
    }

    /// Per shard, its index's segments in RAM (from the published
    /// snapshot) beside its segment files (from the live manifest).
    pub fn shard_segments(&self) -> Vec<ShardSegments> {
        let snapshot = self.snapshot();
        let disk: Vec<usize> = self.storage.as_ref().map_or_else(Vec::new, |root| {
            let manifest = root.lock_manifest();
            manifest.shards.iter().map(|s| s.segments.len()).collect()
        });
        snapshot
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardSegments {
                ram: shard.index.segment_count(),
                disk: disk.get(i).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Sealed-segment totals from the live manifest (`None` for
    /// in-memory instances). Takes only the manifest lock, so the
    /// metrics scrape path can call it while writes are in flight. Also
    /// refreshes the segment gauges.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        let root = self.storage.as_ref()?;
        let manifest = root.lock_manifest();
        durability::refresh_segment_gauges(&manifest);
        Some(StorageStats {
            segments: manifest.shards.iter().map(|s| s.segments.len()).sum(),
            segment_bytes: manifest.shards.iter().map(ShardManifest::total_bytes).sum(),
        })
    }
}

/// Pre-registers every instrument the facade can emit so `/metrics`
/// renders the full series set (zero-valued) from the first scrape,
/// before any ingest or query traffic arrives.
pub(crate) fn register_metrics() {
    if !create_obs::enabled() {
        return;
    }
    for stage in obs_names::PIPELINE_STAGES {
        create_obs::histogram_with(obs_names::PIPELINE_STAGE_SECONDS, &[("stage", stage)]);
    }
    for stage in obs_names::QUERY_STAGES {
        create_obs::histogram_with(obs_names::QUERY_STAGE_SECONDS, &[("stage", stage)]);
    }
    create_obs::histogram(obs_names::QUERY_SECONDS);
    create_obs::histogram(obs_names::SNAPSHOT_PUBLISH_SECONDS);
    for name in [
        obs_names::DAAT_POSTINGS_ADVANCED_TOTAL,
        obs_names::DAAT_CANDIDATES_PRUNED_TOTAL,
        obs_names::DAAT_FUZZY_EXPANSIONS_TOTAL,
        obs_names::DAAT_HEAP_EVICTIONS_TOTAL,
        obs_names::QUERY_CACHE_HITS_TOTAL,
        obs_names::QUERY_CACHE_MISSES_TOTAL,
        obs_names::GRAPH_EXEC_NODES_VISITED_TOTAL,
        obs_names::GRAPH_EXEC_EDGES_TRAVERSED_TOTAL,
        obs_names::SNAPSHOT_PUBLISH_TOTAL,
        obs_names::OPEN_BAD_CONFIG_TOTAL,
        obs_names::WAL_APPENDED_BYTES_TOTAL,
        obs_names::COMPACTION_RUNS_TOTAL,
        obs_names::COMPACTION_MERGED_DOCS_TOTAL,
        obs_names::RECOVERY_REPLAYED_RECORDS_TOTAL,
        obs_names::PLAN_NODES_TOTAL,
        obs_names::BITMAP_INTERSECTIONS_TOTAL,
    ] {
        create_obs::counter(name);
    }
    create_obs::histogram(obs_names::WAL_APPEND_SECONDS);
    create_obs::histogram(obs_names::SEGMENT_SEAL_SECONDS);
    create_obs::gauge(obs_names::SEGMENT_COUNT_GAUGE);
    create_obs::gauge(obs_names::SEGMENT_BYTES_GAUGE);
    for (component, _) in MemoryStats::default().components() {
        create_obs::gauge_with(obs_names::RESIDENT_BYTES_GAUGE, &[("component", component)]);
    }
    for policy in ALL_POLICIES {
        create_obs::counter_with(
            obs_names::SEARCH_POLICY_TOTAL,
            &[("policy", policy.label())],
        );
    }
}

/// Pre-registers the per-shard series for the instance's actual shard
/// count, so `/metrics` shows every `shard=...` label from first scrape.
pub(crate) fn register_shard_metrics(shards: usize) {
    if !create_obs::enabled() {
        return;
    }
    for i in 0..shards {
        let label = i.to_string();
        create_obs::gauge_with(obs_names::SHARD_GENERATION_GAUGE, &[("shard", &label)]);
        create_obs::counter_with(obs_names::SHARD_PUBLISH_TOTAL, &[("shard", &label)]);
    }
}

/// Every merge policy, in [`count_policy`] index order.
const ALL_POLICIES: [MergePolicy; 5] = [
    MergePolicy::Neo4jFirst,
    MergePolicy::EsFirst,
    MergePolicy::EsOnly,
    MergePolicy::GraphOnly,
    MergePolicy::Interleave,
];

/// Records one query's end-to-end latency into `create_query_seconds`
/// (with a trace exemplar) through a cached handle.
pub(crate) fn note_query(seconds: f64) {
    if !create_obs::enabled() {
        return;
    }
    static QUERY_SECONDS: OnceLock<Arc<create_obs::Histogram>> = OnceLock::new();
    QUERY_SECONDS
        .get_or_init(|| create_obs::histogram(obs_names::QUERY_SECONDS))
        .observe_traced(seconds, create_obs::current_trace_raw());
}

/// Bumps `create_search_policy_total{policy=...}` through cached
/// handles — no registry lock on the warm search path.
pub(crate) fn count_policy(policy: MergePolicy) {
    if !create_obs::enabled() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<create_obs::Counter>; 5]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ALL_POLICIES.map(|p| {
            create_obs::counter_with(obs_names::SEARCH_POLICY_TOTAL, &[("policy", p.label())])
        })
    });
    let idx = ALL_POLICIES
        .iter()
        .position(|p| *p == policy)
        .expect("ALL_POLICIES is exhaustive");
    counters[idx].inc();
}
