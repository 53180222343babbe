//! The [`Create`] facade — the public API of the platform.
//!
//! State is partitioned into independent **shards** keyed by
//! `hash(report_id) % N`: each shard owns its own stored documents,
//! property graph, inverted index and generation stamp behind its own writer
//! `Mutex`. A global write gate serializes write
//! *operations* (and hands out global ingest ordinals), but the heavy
//! per-shard apply work of a batch fans out across the pool with no
//! cross-shard contention. Readers run against an immutable composite
//! [`Snapshot`] — one `Arc` per shard — published through a single
//! [`ArcCell`]. A shard's writer holds the very `ShardSnapshot` it
//! publishes, its tables behind `Arc`s: a publish bumps reference
//! counts, and the first write after it copies the tables it touches
//! (`Arc::make_mut`). Reads stay lock-free and can never observe a torn
//! mix of shard generations. Scatter-gather search (see
//! [`crate::search`]) merges per-shard top-k lists under globally merged
//! corpus statistics, so rankings are bit-identical for any shard count.
//! The facade exposes the user-facing operations of the demo: ingest
//! (gold corpus entries, raw text, or PDF submissions), CREATe-IR search
//! with a merge policy, report/annotation retrieval, and Fig-7
//! visualization.

use crate::cache::{CacheStats, QueryCache};
use crate::durability::{self, corrupt_at, DocPayload, ReportFields, ShardStorage, StorageRoot};
use crate::facet_build::index_doc;
use crate::graph_build::{find_report, GraphBuilder, ReportMeta};
use crate::pipeline::{ExtractedAnnotations, QueryIE};
use crate::plan::{self, CohortCriteria, CohortResult, PlanMode};
use crate::search::{MergePolicy, SearchAnswer, SearchHit};
use create_annotate::{case_report_to_brat, BratDocument};
use create_corpus::CaseReport;
use create_docstore::{json::obj, Value};
use create_graphdb::PropertyGraph;
use create_grobid::{process_pdf, ExtractedDocument, PdfError};
use create_index::facets::FacetIndex;
use create_index::index::IndexError;
use create_index::Index;
use create_ner::CrfTagger;
use create_ontology::Ontology;
use create_obs::names as obs_names;
use create_obs::{QueryCapture, Span, StageLog};
use create_storage::manifest::{segment_file_name, shard_dir_name, sweep_orphans};
use create_storage::segment::write_segment;
use create_storage::{Manifest, SegmentMeta, ShardManifest, StorageError, Wal};
use create_util::{arc_slice_bytes, ArcCell, ThreadPool};
use create_viz::{render_svg, SvgOptions, VizEdge, VizGraph, VizNode};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Answers the query cache keeps, whatever the shard count: enough for a
/// busy console session's working set; every cache operation is O(1) so
/// the cap is purely a memory bound.
const QUERY_CACHE_CAPACITY: usize = 512;

/// Upper bound on the shard count: beyond this the per-query scatter cost
/// dwarfs any write-parallelism win, so larger requests are clamped.
pub const MAX_SHARDS: usize = 64;

/// System configuration.
#[derive(Debug, Clone)]
pub struct CreateConfig {
    /// Number of independent shards. Defaults to the machine's available
    /// cores. `Create::new` clamps out-of-range values (with a warning and
    /// a `create_open_bad_config_total` tick); `Create::open` rejects `0`
    /// outright, sizes a fresh data directory with the value, and on an
    /// existing one ignores it in favour of the count the manifest
    /// recorded.
    pub shards: usize,
}

impl Default for CreateConfig {
    fn default() -> Self {
        CreateConfig {
            shards: default_shards(),
        }
    }
}

/// One shard per available core, the sweet spot for write fan-out.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_SHARDS)
}

/// FNV-1a — deterministic across processes and platforms, unlike the
/// std `RandomState` hasher, so a data directory reopens with every
/// document routed to the shard that sealed it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The owning shard for an external report id.
fn shard_index(id: &str, shards: usize) -> usize {
    (fnv1a(id.as_bytes()) % shards as u64) as usize
}

/// Clamps a requested shard count into `1..=MAX_SHARDS`, counting and
/// logging any adjustment so a misconfigured deployment is visible.
fn clamp_shards(requested: usize) -> usize {
    let clamped = requested.clamp(1, MAX_SHARDS);
    if clamped != requested && create_obs::enabled() {
        create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).inc();
        create_obs::log(
            create_obs::Level::Warn,
            "create-core",
            format!("shard count {requested} out of range; clamped to {clamped}"),
        );
    }
    clamped
}

/// Counts describing the system state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Stored reports.
    pub reports: usize,
    /// Property-graph nodes.
    pub graph_nodes: usize,
    /// Property-graph edges.
    pub graph_edges: usize,
    /// Distinct index terms across fields.
    pub index_terms: usize,
}

/// One shard's state at a single shard generation: what its [`Writer`]
/// holds and, cloned into an `Arc`, what a publish hands readers. The
/// clone bumps reference counts; the tables stay shared until a write
/// copies them.
#[derive(Clone)]
pub(crate) struct ShardSnapshot {
    /// This shard's write generation, bumped by every write operation
    /// that touches the shard.
    pub(crate) generation: u64,
    /// Shard-local internal doc id → the report's stored payload, the
    /// exact text its segment stores (see [`crate::durability`]): the
    /// report, its BRAT export and its extraction. Read by id through the
    /// index's id map.
    pub(crate) docs: Arc<Vec<Arc<str>>>,
    pub(crate) graph: Arc<PropertyGraph>,
    pub(crate) index: Arc<Index>,
    pub(crate) tagger: Option<Arc<CrfTagger>>,
    /// Shard-local internal doc id → global ingest ordinal. The scatter
    /// merge tie-breaks equal scores on this, which reproduces the
    /// single-shard internal-id tie-break exactly (see [`crate::search`]).
    pub(crate) ordinals: Arc<Vec<u64>>,
    /// Ingest-time facet bitmaps over the shard's doc ids (the cohort
    /// planner's filter-pushdown and facet-count substrate).
    pub(crate) facets: Arc<FacetIndex>,
}

/// An immutable, internally consistent view of the platform: one
/// [`ShardSnapshot`] per shard, all published together in a single atomic
/// swap.
///
/// Published by the write path after every completed write operation and
/// held by readers for the duration of one operation: everything read
/// through one snapshot — postings, graph neighbourhoods, stored
/// documents — comes from the same moment, so a concurrent ingest can
/// never produce a torn result (not even a torn mix of shard
/// generations). Old snapshots stay valid (and allocated) until the last
/// reader drops its `Arc`; reclamation is plain reference counting.
pub struct Snapshot {
    pub(crate) shards: Vec<Arc<ShardSnapshot>>,
}

impl Snapshot {
    /// The composite write generation: the sum of all shard generations.
    /// Every write operation bumps exactly the shards it touched, so this
    /// advances by at least one per publish — query-cache entries stamped
    /// with it die on the first write anywhere, exactly as before
    /// sharding.
    pub fn generation(&self) -> u64 {
        self.shards.iter().map(|s| s.generation).sum()
    }

    /// Per-shard generation stamps, in shard order.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.generation).collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard 0's property graph (the whole graph in single-shard
    /// deployments; Cypher-level access targets this shard).
    pub fn graph(&self) -> &PropertyGraph {
        &self.shards[0].graph
    }

    /// Shard 0's inverted index (the whole index in single-shard
    /// deployments; field configuration is identical on every shard).
    pub fn index(&self) -> &Index {
        &self.shards[0].index
    }
}

/// The write half of one shard. Exactly one write operation runs at a
/// time (the facade's write gate is the serialization point); nothing
/// reads these fields outside the shard's lock.
struct Writer {
    /// The shard's state. After a publish its tables are shared with the
    /// published snapshot, and every write reaches them through
    /// `Arc::make_mut`, so the first write copies what it touches and
    /// readers never see a change.
    shard: ShardSnapshot,
    graph_builder: GraphBuilder,
    /// Durable state (WAL + sealed segments) — `None` for in-memory
    /// instances, which skip the log entirely.
    storage: Option<ShardStorage>,
}

impl Writer {
    /// Appends one document's record to the shard's WAL (nothing, for an
    /// in-memory instance). Called *before* the corresponding in-memory
    /// apply, so any write the system goes on to acknowledge is already
    /// recoverable from the log.
    fn wal_log(&mut self, ordinal: u64, payload: &DocPayload<'_>) -> Result<(), IngestError> {
        let Some(storage) = self.storage.as_mut() else {
            return Ok(());
        };
        let record = durability::doc_record(ordinal, payload);
        let started = Instant::now();
        let bytes = storage
            .wal
            .append(record.as_bytes())
            .map_err(IngestError::Storage)?;
        durability::note_wal_append(bytes, started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Puts one document into the shard: its stored payload as it is
    /// (spliced from serialized member texts, or read from a segment),
    /// its graph projection and its ordinal. Every document enters a
    /// shard here — the batch apply phase logs it to the WAL first,
    /// segment recovery and WAL replay call this alone — and its postings
    /// and facet bitmaps enter through [`Writer::merge`], at the same doc
    /// id.
    fn apply(
        &mut self,
        ontology: &Ontology,
        ordinal: u64,
        fields: &ReportFields<'_>,
        annotations: &ExtractedAnnotations,
        payload: &str,
    ) {
        Arc::make_mut(&mut self.shard.docs).push(Arc::from(payload));
        {
            let _span =
                Span::enter(obs_names::PIPELINE_STAGE_SECONDS, obs_names::STAGE_GRAPH_BUILD);
            self.graph_builder.add_report(
                Arc::make_mut(&mut self.shard.graph),
                ontology,
                &ReportMeta {
                    report_id: fields.id.to_string(),
                    title: fields.title.to_string(),
                    year: fields.year,
                    category: fields.category.to_string(),
                },
                annotations,
            );
        }
        Arc::make_mut(&mut self.shard.ordinals).push(ordinal);
    }

    /// Merges a segment's postings and its facet twin at the shard's
    /// current doc count, which keeps bitmap ids aligned with index ids.
    /// Postings and facets enter a writer in no other form: workers
    /// built the pair, WAL replay built it, or a segment file decoded to
    /// it.
    fn merge(&mut self, segment: Index, facets: FacetIndex) -> Result<(), IndexError> {
        let _span = Span::enter(obs_names::PIPELINE_STAGE_SECONDS, obs_names::STAGE_INDEX_WRITE);
        let base = self.shard.index.num_docs() as u32;
        Arc::make_mut(&mut self.shard.index).merge_segment(segment)?;
        Arc::make_mut(&mut self.shard.facets).merge(facets, base);
        Ok(())
    }

    /// Recovers one sealed segment: every stored payload is applied as
    /// the file holds it, and the postings and facet bitmaps merge as
    /// decoded — no re-tokenization. A document whose three ids disagree
    /// ([`durability::check_ids`]) fails the segment.
    fn recover_segment(
        &mut self,
        ontology: &Ontology,
        path: &std::path::Path,
    ) -> Result<(), StorageError> {
        let (segment, facets, docs) = durability::load_segment(path, &self.shard.index)?;
        // By value: a file payload is freed once the shard holds its
        // copy, so the stored fields are never resident twice over.
        for (doc, stored) in docs.into_iter().enumerate() {
            let (text, payload) =
                durability::parse_payload_bytes(&stored.payload).map_err(corrupt_at(path))?;
            let (fields, annotations) = payload.parts().map_err(corrupt_at(path))?;
            let indexed = segment.external_id(doc as u32);
            durability::check_ids(path, doc, &stored.id, indexed, fields.id)?;
            self.apply(ontology, stored.ordinal, &fields, &annotations, text);
        }
        self.merge(segment, facets).map_err(corrupt_at(path))
    }

    /// Replays the records of the WAL at `path` whose ordinal is past
    /// `sealed_max`, as one segment for the whole tail. A record that
    /// does not read back is corruption, never skipped. Returns the
    /// number of records replayed.
    fn replay_wal(
        &mut self,
        ontology: &Ontology,
        path: &std::path::Path,
        records: &[Vec<u8>],
        sealed_max: Option<u64>,
    ) -> Result<u64, StorageError> {
        let (mut segment, mut facets) = (self.shard.index.segment(), FacetIndex::new());
        let mut replayed = 0u64;
        for record in records {
            let (ordinal, payload) =
                durability::parse_wal_record(record).map_err(corrupt_at(path))?;
            // Already sealed: the crash hit between a seal and its WAL
            // reset.
            if sealed_max.is_some_and(|max| ordinal <= max) {
                continue;
            }
            let (fields, annotations) = payload.parts().map_err(corrupt_at(path))?;
            index_doc(&mut segment, &mut facets, &fields, &annotations)
                .map_err(corrupt_at(path))?;
            let text = durability::payload_text(&payload.texts);
            self.apply(ontology, ordinal, &fields, &annotations, &text);
            replayed += 1;
        }
        self.merge(segment, facets).map_err(corrupt_at(path))?;
        Ok(replayed)
    }

    /// Fsyncs the shard's WAL — the durability point of the write path,
    /// reached once per operation before the publish that acknowledges
    /// it.
    fn wal_sync(&mut self) -> Result<(), IngestError> {
        let Some(storage) = self.storage.as_mut() else {
            return Ok(());
        };
        let started = Instant::now();
        storage.wal.sync().map_err(IngestError::Storage)?;
        durability::note_wal_sync(started.elapsed().as_secs_f64());
        Ok(())
    }
}

fn empty_writer() -> Writer {
    Writer {
        shard: ShardSnapshot {
            generation: 0,
            docs: Arc::default(),
            graph: Arc::default(),
            index: Arc::new(Index::clinical()),
            tagger: None,
            ordinals: Arc::default(),
            facets: Arc::default(),
        },
        graph_builder: GraphBuilder::new(),
        storage: None,
    }
}

/// One shard: its serialized write half.
struct Shard {
    writer: Mutex<Writer>,
}

impl Shard {
    fn new(writer: Writer) -> Shard {
        Shard {
            writer: Mutex::new(writer),
        }
    }

    /// Locks the shard's write half, recovering (and counting) poisoned
    /// locks: a panicking batch leaves per-operation invariants intact,
    /// so serving on is strictly better than wedging every future write.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|poisoned| {
            if create_obs::enabled() {
                create_obs::counter(obs_names::LOCK_POISONED_TOTAL).inc();
                create_obs::log(
                    create_obs::Level::Warn,
                    "create-core",
                    "recovered a poisoned writer lock".to_string(),
                );
            }
            poisoned.into_inner()
        })
    }
}

/// The CREATe platform.
pub struct Create {
    ontology: Arc<Ontology>,
    /// The shards, routing key `fnv1a(report_id) % shards.len()`.
    shards: Vec<Shard>,
    /// The global write gate: every write operation holds it end-to-end
    /// (shard writer locks nest inside, in ascending shard order). The
    /// guarded value is the next global ingest ordinal.
    gate: Mutex<u64>,
    /// The published composite snapshot; every read loads this
    /// (lock-free with respect to writers — a load never waits on an
    /// in-flight batch).
    current: ArcCell<Snapshot>,
    /// The one memo on the search path: `(query text, k, policy)` → the
    /// whole answer, stamped with the composite generation (see
    /// [`crate::cache`]).
    cache: Mutex<QueryCache>,
    /// Durable storage root (`None` for in-memory instances): the
    /// storage directory and the live segment manifest.
    storage: Option<StorageRoot>,
}

impl std::fmt::Debug for Create {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Create")
            .field("reports", &stats.reports)
            .field("shards", &self.shards.len())
            .field("graph_nodes", &stats.graph_nodes)
            .field("tagger", &self.current.load().shards[0].tagger.is_some())
            .finish()
    }
}

/// Pre-registers every instrument the facade can emit so `/metrics`
/// renders the full series set (zero-valued) from the first scrape,
/// before any ingest or query traffic arrives.
fn register_metrics() {
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
        create_obs::counter_with(obs_names::SEARCH_POLICY_TOTAL, &[("policy", policy.label())]);
    }
}

/// Pre-registers the per-shard series for the instance's actual shard
/// count, so `/metrics` shows every `shard=...` label from first scrape.
fn register_shard_metrics(shards: usize) {
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

/// Bumps `create_search_policy_total{policy=...}` through cached
/// handles — no registry lock on the warm search path.
fn count_policy(policy: MergePolicy) {
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

/// Write access to the property graph, for the Cypher executor (which may
/// `CREATE`). Targets shard 0's graph and holds the write gate for its
/// lifetime; the first mutable borrow copies the graph if the published
/// snapshot shares it, and dropping the guard bumps shard 0's generation
/// (the borrow may have written) and publishes a fresh composite snapshot
/// so readers observe the mutation.
pub struct GraphWriteGuard<'a> {
    system: &'a Create,
    _gate: MutexGuard<'a, u64>,
    writer: MutexGuard<'a, Writer>,
}

impl Deref for GraphWriteGuard<'_> {
    type Target = PropertyGraph;
    fn deref(&self) -> &PropertyGraph {
        &self.writer.shard.graph
    }
}

impl DerefMut for GraphWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut PropertyGraph {
        Arc::make_mut(&mut self.writer.shard.graph)
    }
}

impl Drop for GraphWriteGuard<'_> {
    fn drop(&mut self) {
        self.writer.shard.generation += 1;
        self.system.publish_shards(&[(0, &self.writer)]);
    }
}

/// Work redistributed to one shard's apply task: documents in batch
/// order, plus the index segments built for this shard (in worker-range
/// order, which is also batch order).
#[derive(Default)]
struct ShardWork {
    docs: Vec<(usize, PreparedDoc)>,
    /// Index segments paired with their facet twins: both are built over
    /// the same worker-local doc range, so the apply task merges them at
    /// the same base.
    segments: Vec<(Index, FacetIndex)>,
}

impl Create {
    /// Builds an empty in-memory platform over the built-in clinical
    /// ontology. An out-of-range `shards` value is clamped into
    /// `1..=MAX_SHARDS` (with a warning and a bad-config tick).
    pub fn new(config: CreateConfig) -> Create {
        register_metrics();
        let shards = clamp_shards(config.shards);
        register_shard_metrics(shards);
        let writers = (0..shards).map(|_| empty_writer()).collect();
        Create::build(
            Arc::new(create_ontology::clinical_ontology()),
            writers,
            0,
            None,
        )
    }

    /// Assembles the facade from per-shard writers, the next global
    /// ingest ordinal, and (for disk-backed instances) the durable
    /// storage root.
    fn build(
        ontology: Arc<Ontology>,
        writers: Vec<Writer>,
        next_ordinal: u64,
        storage: Option<StorageRoot>,
    ) -> Create {
        let published = writers.iter().map(|w| Arc::new(w.shard.clone())).collect();
        Create {
            ontology,
            shards: writers.into_iter().map(Shard::new).collect(),
            gate: Mutex::new(next_ordinal),
            current: ArcCell::new(Arc::new(Snapshot { shards: published })),
            cache: Mutex::new(QueryCache::new(QUERY_CACHE_CAPACITY)),
            storage,
        }
    }

    /// Opens a disk-backed platform whose only on-disk state is
    /// `dir/storage`: the manifest, each shard's sealed segments, and
    /// each shard's WAL tail. Recovery is three steps:
    ///
    /// 1. **Load the manifest.** Its shard count is authoritative:
    ///    `config.shards` sizes a fresh directory only, and a differing
    ///    value is logged and ignored — documents never change shards.
    /// 2. **Per shard, recover each segment** in manifest order (the
    ///    original ingest order, so internal doc ids and ordinals come
    ///    out exactly as the writing process assigned them): every
    ///    stored payload goes through `Writer::apply` — refilling the
    ///    shard's stored payloads and the graph — and the postings and
    ///    facet bitmaps go through `Writer::merge` as decoded.
    /// 3. **Replay the WAL tail** — whatever a flush had not yet sealed —
    ///    through the same two functions, its postings and facets built
    ///    by the `index_doc` live ingestion uses; then seal every tail
    ///    so the whole acknowledged corpus is segment-durable and the
    ///    WALs start empty before the instance accepts writes.
    ///
    /// A kill-and-reopen therefore loses no acknowledged write, and
    /// cold-open cost scales with sealed bytes plus the unflushed tail.
    ///
    /// Rejected with [`IngestError::Config`]: a zero shard count (unlike
    /// [`Create::new`], nothing is clamped silently here), and a
    /// directory that holds a pre-storage-engine `reports.jsonl` but no
    /// manifest — that layout is no longer read.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        config: CreateConfig,
    ) -> Result<Create, IngestError> {
        register_metrics();
        let mut config = config;
        if config.shards == 0 {
            if create_obs::enabled() {
                create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).inc();
                create_obs::log(
                    create_obs::Level::Warn,
                    "create-core",
                    "rejected Create::open with shard count 0".to_string(),
                );
            }
            return Err(IngestError::Config(
                "shard count must be at least 1 (0 requested)".to_string(),
            ));
        }
        config.shards = clamp_shards(config.shards);
        let dir = dir.as_ref();
        let storage_dir = dir.join(create_storage::STORAGE_DIR);
        let prior = Manifest::load(&storage_dir).map_err(IngestError::Storage)?;
        let fresh = prior.is_none();
        let mut manifest = match prior {
            Some(m) => {
                if m.shard_count == 0 || m.shard_count > MAX_SHARDS {
                    return Err(IngestError::Storage(StorageError::Corrupt {
                        path: storage_dir.join(create_storage::manifest::MANIFEST_FILE),
                        message: format!("shard count {} out of range", m.shard_count),
                    }));
                }
                if m.shard_count != config.shards {
                    create_obs::log(
                        create_obs::Level::Warn,
                        "create-core",
                        format!(
                            "configured shard count {} ignored: {} was written with {}",
                            config.shards,
                            dir.display(),
                            m.shard_count
                        ),
                    );
                    config.shards = m.shard_count;
                }
                m
            }
            None => {
                let legacy = dir.join("reports.jsonl");
                if legacy.exists() {
                    return Err(IngestError::Config(format!(
                        "{} is a JSONL-only data directory ({} without {}/{}), \
                         which is no longer read",
                        dir.display(),
                        legacy.display(),
                        create_storage::STORAGE_DIR,
                        create_storage::manifest::MANIFEST_FILE,
                    )));
                }
                Manifest::new(config.shards)
            }
        };
        register_shard_metrics(config.shards);
        let ontology = Arc::new(create_ontology::clinical_ontology());
        let mut writers = Vec::with_capacity(config.shards);
        let mut next_ordinal = 0u64;
        let mut replayed = 0u64;
        for (i, entry) in manifest.shards.iter().enumerate() {
            let mut writer = empty_writer();
            let shard_dir = storage_dir.join(shard_dir_name(i));
            for meta in &entry.segments {
                writer
                    .recover_segment(&ontology, &shard_dir.join(&meta.file))
                    .map_err(IngestError::Storage)?;
            }
            let sealed_docs = writer.shard.index.num_docs();
            let sealed_max = entry.segments.last().map(|s| s.max_ordinal);
            let (wal, wal_replay) = Wal::open(shard_dir.join(create_storage::WAL_FILE))
                .map_err(IngestError::Storage)?;
            replayed += writer
                .replay_wal(&ontology, wal.path(), &wal_replay.records, sealed_max)
                .map_err(IngestError::Storage)?;
            if let Some(&last) = writer.shard.ordinals.last() {
                next_ordinal = next_ordinal.max(last + 1);
            }
            writer.storage = Some(ShardStorage {
                wal,
                dir: shard_dir,
                sealed_docs,
            });
            writers.push(writer);
        }
        durability::note_recovery(replayed);
        // Seal every unsealed tail, register the new segments in one
        // manifest swap, and only then reset the WALs.
        let mut dirty = fresh;
        for (writer, entry) in writers.iter_mut().zip(&mut manifest.shards) {
            dirty |= Self::seal_shard_tail(writer, entry)?;
        }
        if dirty {
            manifest.store(&storage_dir).map_err(IngestError::Storage)?;
        }
        for (writer, entry) in writers.iter_mut().zip(&manifest.shards) {
            let num_docs = writer.shard.index.num_docs();
            let storage = writer.storage.as_mut().expect("storage attached above");
            storage.wal.reset().map_err(IngestError::Storage)?;
            storage.sealed_docs = num_docs;
            sweep_orphans(&storage.dir, entry);
        }
        durability::refresh_segment_gauges(&manifest);
        Ok(Create::build(
            ontology,
            writers,
            next_ordinal,
            Some(StorageRoot {
                dir: storage_dir,
                manifest: Mutex::new(manifest),
            }),
        ))
    }

    /// Seals a shard's unsealed tail (`[sealed_docs..num_docs)`) into a
    /// new on-disk segment and registers it in the shard's manifest
    /// entry. Returns whether a segment was written. The caller stores
    /// the manifest before advancing `sealed_docs` and resetting the
    /// WAL, so a crash at any point leaves a recoverable state.
    fn seal_shard_tail(
        writer: &mut Writer,
        entry: &mut ShardManifest,
    ) -> Result<bool, IngestError> {
        let shard = &writer.shard;
        let num = shard.index.num_docs();
        let Some(storage) = writer.storage.as_ref() else {
            return Ok(false);
        };
        if num <= storage.sealed_docs {
            return Ok(false);
        }
        let started = Instant::now();
        let base = storage.sealed_docs;
        let data = durability::seal_data(
            &shard.index,
            &shard.facets,
            &shard.docs,
            &shard.ordinals,
            base,
        );
        let file = segment_file_name(entry.next_segment_id);
        let info = write_segment(&storage.dir.join(&file), &data)
            .map_err(IngestError::Storage)?;
        entry.segments.push(SegmentMeta {
            file,
            docs: (num - base) as u64,
            bytes: info.bytes,
            crc: info.crc,
            min_ordinal: shard.ordinals[base],
            max_ordinal: shard.ordinals[num - 1],
        });
        entry.next_segment_id += 1;
        durability::note_seal(started.elapsed().as_secs_f64());
        Ok(true)
    }

    /// The owning shard for an external report id.
    fn shard_of(&self, id: &str) -> usize {
        shard_index(id, self.shards.len())
    }

    /// Locks the global write gate, recovering (and counting) poisoned
    /// locks. The guarded value is the next global ingest ordinal.
    fn lock_gate(&self) -> MutexGuard<'_, u64> {
        self.gate.lock().unwrap_or_else(|poisoned| {
            if create_obs::enabled() {
                create_obs::counter(obs_names::LOCK_POISONED_TOTAL).inc();
                create_obs::log(
                    create_obs::Level::Warn,
                    "create-core",
                    "recovered a poisoned write gate".to_string(),
                );
            }
            poisoned.into_inner()
        })
    }

    /// Rebuilds the composite snapshot — sharing the state of exactly the
    /// shards in `touched` (reference counts, no table is copied) and
    /// reusing the published `Arc`s for the rest — and swaps it in
    /// atomically. One call per write operation, so readers always
    /// observe a complete generation vector, never a torn mix. Callers
    /// hold the write gate.
    fn publish_shards(&self, touched: &[(usize, &Writer)]) {
        let started = Instant::now();
        let mut shards = self.current.load().shards.clone();
        for &(i, writer) in touched {
            shards[i] = Arc::new(writer.shard.clone());
            if create_obs::enabled() {
                create_obs::counter_with(
                    obs_names::SHARD_PUBLISH_TOTAL,
                    &[("shard", &i.to_string())],
                )
                .inc();
            }
        }
        self.current.store(Arc::new(Snapshot { shards }));
        if create_obs::enabled() {
            create_obs::counter(obs_names::SNAPSHOT_PUBLISH_TOTAL).inc();
            create_obs::histogram(obs_names::SNAPSHOT_PUBLISH_SECONDS)
                .observe(started.elapsed().as_secs_f64());
        }
    }

    /// The currently published snapshot. Everything read through one
    /// snapshot is mutually consistent — it observes exactly one
    /// composite generation, no matter what writers do concurrently.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.load()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard generation stamps from the published snapshot.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.current.load().shard_generations()
    }

    /// Persists every shard: fsyncs the WALs, seals each shard's
    /// unsealed tail (postings, facets, stored documents) into an immutable
    /// on-disk segment registered by an atomic manifest swap (after
    /// which the WALs reset — recovery cost returns to zero), and
    /// compacts shards that accumulated enough segments. No-op for
    /// in-memory instances.
    pub fn flush(&self) -> Result<(), IngestError> {
        if self.flush_shards()? {
            // Between compactions the first write after each publish
            // copies the tables it touches (ROADMAP item 1) on
            // whichever worker took the call, and glibc keeps what
            // those copies free in that thread's arena; left there,
            // resident memory grows by one such working set per thread,
            // in an order the scheduler picks. A compaction (which
            // streams, holding a few blocks) is the point where trimming
            // pays for its walk. The locks are released by now.
            create_util::release_free_heap();
        }
        Ok(())
    }

    /// [`Create::flush`] under the write gate; whether a shard was
    /// compacted.
    fn flush_shards(&self) -> Result<bool, IngestError> {
        let _gate = self.lock_gate();
        let mut guards: Vec<MutexGuard<'_, Writer>> =
            self.shards.iter().map(|s| s.lock_writer()).collect();
        for writer in guards.iter_mut() {
            writer.wal_sync()?;
        }
        let Some(root) = self.storage.as_ref() else {
            return Ok(false);
        };
        let mut manifest = root.lock_manifest();
        let mut dirty = false;
        for (i, writer) in guards.iter_mut().enumerate() {
            if Self::seal_shard_tail(writer, &mut manifest.shards[i])? {
                dirty = true;
            }
        }
        if dirty {
            // One swap registers every new segment; only after it lands
            // do the WALs reset and `sealed_docs` advance — a crash
            // before the swap replays the tail from the old WALs, a
            // crash after it skips the (now sealed) records by ordinal.
            manifest.store(&root.dir).map_err(IngestError::Storage)?;
            for (i, writer) in guards.iter_mut().enumerate() {
                let num_docs = writer.shard.index.num_docs();
                let Some(storage) = writer.storage.as_mut() else {
                    continue;
                };
                storage.wal.reset().map_err(IngestError::Storage)?;
                storage.sealed_docs = num_docs;
                sweep_orphans(&storage.dir, &manifest.shards[i]);
            }
        }
        // Compact shards that accumulated enough segments; the rewrite
        // lands in a second manifest swap, after which the replaced
        // files are orphans and are swept.
        let mut compacted = false;
        for (i, writer) in guards.iter().enumerate() {
            let Some(storage) = writer.storage.as_ref() else {
                continue;
            };
            if manifest.shards[i].segments.len() < durability::COMPACT_SEGMENT_THRESHOLD {
                continue;
            }
            let entry = &mut manifest.shards[i];
            let merged = durability::compact_shard(&storage.dir, entry, &writer.shard.index)
                .map_err(IngestError::Storage)?;
            durability::note_compaction(merged);
            compacted = true;
        }
        if compacted {
            manifest.store(&root.dir).map_err(IngestError::Storage)?;
            for (i, writer) in guards.iter().enumerate() {
                if let Some(storage) = writer.storage.as_ref() {
                    sweep_orphans(&storage.dir, &manifest.shards[i]);
                }
            }
        }
        durability::refresh_segment_gauges(&manifest);
        Ok(compacted)
    }

    /// The shared ontology (for training taggers against the same concept
    /// inventory).
    pub fn ontology(&self) -> Arc<Ontology> {
        Arc::clone(&self.ontology)
    }

    /// Attaches a trained NER tagger, enabling automatic extraction for
    /// raw-text/PDF ingestion and model-based query parsing. A query
    /// parses differently under the new tagger, so this is a write like
    /// any other: every shard's generation is bumped and answers cached
    /// before the attachment die on first touch.
    pub fn attach_tagger(&self, tagger: CrfTagger) {
        let tagger = Arc::new(tagger);
        let _gate = self.lock_gate();
        let mut guards: Vec<MutexGuard<'_, Writer>> =
            self.shards.iter().map(|s| s.lock_writer()).collect();
        for guard in guards.iter_mut() {
            guard.shard.tagger = Some(Arc::clone(&tagger));
            guard.shard.generation += 1;
        }
        let touched: Vec<(usize, &Writer)> =
            guards.iter().enumerate().map(|(i, g)| (i, &**g)).collect();
        self.publish_shards(&touched);
    }

    /// Shard 0's property graph as of the current snapshot (for
    /// Cypher-level read queries and diagnostics; the whole graph in
    /// single-shard deployments).
    pub fn graph(&self) -> Arc<PropertyGraph> {
        Arc::clone(&self.current.load().shards[0].graph)
    }

    /// Mutable graph access (for the Cypher executor which may CREATE),
    /// targeting shard 0. The returned guard serializes against all other
    /// writes and publishes a generation-bumped snapshot on drop — which
    /// also conservatively invalidates the query cache, since the borrow
    /// may have written.
    pub fn graph_mut(&self) -> GraphWriteGuard<'_> {
        GraphWriteGuard {
            system: self,
            _gate: self.lock_gate(),
            writer: self.shards[0].lock_writer(),
        }
    }

    /// Shard 0's inverted index as of the current snapshot (the whole
    /// index in single-shard deployments).
    pub fn index(&self) -> Arc<Index> {
        Arc::clone(&self.current.load().shards[0].index)
    }

    /// Ingests a gold-annotated corpus report (the curated literature
    /// path): stores the document and its BRAT export, projects the graph,
    /// and indexes the text — all in the report's owning shard. A batch
    /// of one.
    pub fn ingest_gold(&self, report: &CaseReport) -> Result<(), IngestError> {
        self.ingest_gold_batch(std::slice::from_ref(report), 1)?;
        Ok(())
    }

    /// Ingests raw text with automatic extraction (requires a tagger). A
    /// batch of one.
    pub fn ingest_text(
        &self,
        id: &str,
        title: &str,
        text: &str,
        year: u32,
    ) -> Result<(), IngestError> {
        let tagger = self.tagger()?;
        self.ingest_batch(&[id], 1, |_| {
            PreparedDoc::from_text(id, title, text, year, &tagger, &self.ontology)
        })?;
        Ok(())
    }

    /// Ingests a PDF submission: Grobid-style extraction, then the raw
    /// text path as a batch of one, the header's authors and affiliation
    /// stored as fields of the report. Returns the extracted
    /// header/sections for display.
    pub fn ingest_pdf(&self, id: &str, bytes: &[u8]) -> Result<ExtractedDocument, IngestError> {
        let doc = process_pdf(bytes).map_err(IngestError::Pdf)?;
        let body = doc.body_text();
        let tagger = self.tagger()?;
        self.ingest_batch(&[id], 1, |_| PreparedDoc {
            authors: doc.authors.clone(),
            pdf_affiliation: Some(doc.affiliation.clone()),
            ..PreparedDoc::from_text(id, &doc.title, &body, 2020, &tagger, &self.ontology)
        })?;
        Ok(doc)
    }

    /// The attached tagger, which raw-text ingestion needs.
    fn tagger(&self) -> Result<Arc<CrfTagger>, IngestError> {
        self.current.load().shards[0]
            .tagger
            .clone()
            .ok_or(IngestError::NoTagger)
    }

    /// Parallel batch ingestion of gold-annotated reports.
    ///
    /// The batch is split into `threads` contiguous worker ranges (0 =
    /// one per pool worker). Workers run the expensive per-document
    /// stages — annotation conversion, BRAT export, tokenization, and
    /// per-shard segment construction — with no shared mutable
    /// state; the prepared work is then redistributed by owning shard and
    /// applied by one pool task per shard, each locking only its own
    /// shard's writer — no cross-shard write contention. The result is
    /// identical to calling [`Create::ingest_gold`] per report, for any
    /// thread count and any shard count: same [`SystemStats`], same
    /// graphs, same postings, same ingest ordinals. Searches keep running
    /// against the previous snapshot throughout; the batch becomes
    /// visible in one composite publish at the end.
    ///
    /// The whole batch is validated for duplicates up front, before any
    /// store mutation. Returns the number of reports ingested.
    pub fn ingest_gold_batch(
        &self,
        reports: &[CaseReport],
        threads: usize,
    ) -> Result<usize, IngestError> {
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        self.ingest_batch(&ids, threads, |i| {
            let report = &reports[i];
            PreparedDoc {
                id: report.id.clone(),
                title: report.title.clone(),
                text: report.text.clone(),
                year: report.metadata.year,
                category: report.category.coarse_label().to_string(),
                authors: report.metadata.authors.clone(),
                pdf_affiliation: None,
                annotations: ExtractedAnnotations::from_gold(report),
                brat: case_report_to_brat(report),
            }
        })
    }

    /// Parallel batch ingestion of raw-text submissions with automatic
    /// extraction (requires a tagger). CRF NER, ontology normalization,
    /// and temporal-relation derivation run across workers; the apply
    /// phase is identical to [`Create::ingest_gold_batch`] and equally
    /// deterministic.
    pub fn ingest_text_batch(
        &self,
        docs: &[TextSubmission],
        threads: usize,
    ) -> Result<usize, IngestError> {
        let tagger = self.tagger()?;
        let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
        self.ingest_batch(&ids, threads, |i| {
            let doc = &docs[i];
            PreparedDoc::from_text(
                &doc.id,
                &doc.title,
                &doc.text,
                doc.year,
                &tagger,
                &self.ontology,
            )
        })
    }

    /// Rejects a batch containing an already-ingested or repeated id —
    /// checked before any mutation so a failed batch leaves the system
    /// untouched. Shard writer locks are taken in ascending order (the
    /// gate is held, so they are uncontended).
    fn check_batch_ids(&self, ids: &[&str], routes: &[usize]) -> Result<(), IngestError> {
        let guards: Vec<MutexGuard<'_, Writer>> =
            self.shards.iter().map(|s| s.lock_writer()).collect();
        let mut seen = HashSet::new();
        for (id, &route) in ids.iter().zip(routes) {
            if guards[route].shard.index.internal_id(id).is_some() || !seen.insert(*id) {
                return Err(IngestError::Duplicate(id.to_string()));
            }
        }
        Ok(())
    }

    /// The one write route — a lone submit is a batch of one — in two
    /// pool phases under one held gate:
    ///
    /// 1. **Prepare** — `prepare` and per-(worker, shard) segment builds
    ///    ([`index_doc`]) fan across contiguous batch ranges; workers
    ///    buffer their stage observations locally
    ///    ([`create_obs::buffered_stages`]) so the histograms are flushed
    ///    once, atomically, at apply time.
    /// 2. **Apply** — the prepared documents are regrouped by owning
    ///    shard and applied by one pool task per shard that received any
    ///    (WAL record, [`Writer::apply`], then [`Writer::merge`] of the
    ///    shard's segments); each task locks only its own shard's
    ///    writer, so shards never contend.
    ///
    /// Global ingest ordinals are `base + batch position`, independent of
    /// both the worker count and the shard count.
    fn ingest_batch<F>(&self, ids: &[&str], threads: usize, prepare: F) -> Result<usize, IngestError>
    where
        F: Fn(usize) -> PreparedDoc + Sync,
    {
        let n = ids.len();
        if n == 0 {
            return Ok(0);
        }
        let mut gate = self.lock_gate();
        let routes: Vec<usize> = ids.iter().map(|id| self.shard_of(id)).collect();
        self.check_batch_ids(ids, &routes)?;
        let pool = ThreadPool::global();
        let workers = if threads == 0 { pool.threads() } else { threads };
        let ranges = shard_ranges(n, workers);
        let nshards = self.shards.len();
        // Segment template: every shard's index has the same field
        // configuration, so any published index can stamp out segments.
        let template = Arc::clone(&self.current.load().shards[0].index);

        // Phase 1: extraction + per-shard segment build, no shared
        // mutable state. Each worker also builds the facet twin of every
        // segment it starts, using the segment's local doc ids so the
        // apply task can merge both at the same base.
        type Prepared = (
            Vec<(usize, PreparedDoc)>,
            Vec<Option<(Index, FacetIndex)>>,
        );
        let outputs: Vec<(Result<Prepared, IngestError>, StageLog)> =
            pool.parallel_map(&ranges, |_, range| {
                create_obs::buffered_stages(|| {
                    let mut segments: Vec<Option<(Index, FacetIndex)>> =
                        (0..nshards).map(|_| None).collect();
                    let mut prepared = Vec::with_capacity(range.len());
                    let mut index_elapsed = std::time::Duration::ZERO;
                    for i in range.clone() {
                        let doc = prepare(i);
                        let t0 = Instant::now();
                        let (segment, facets) = segments[routes[i]]
                            .get_or_insert_with(|| (template.segment(), FacetIndex::new()));
                        index_doc(segment, facets, &doc.fields(), &doc.annotations)
                            .map_err(|e| IngestError::Store(e.to_string()))?;
                        index_elapsed += t0.elapsed();
                        prepared.push((i, doc));
                    }
                    create_obs::observe_stage(
                        obs_names::PIPELINE_STAGE_SECONDS,
                        obs_names::STAGE_INDEX_WRITE,
                        index_elapsed.as_secs_f64(),
                    );
                    Ok((prepared, segments))
                })
            });

        // Regroup by owning shard. Worker ranges are contiguous and
        // iterated in order, so each shard sees its documents (and
        // segments) in batch order — ordinals and internal doc ids come
        // out exactly as sequential ingestion would assign them.
        let mut stage_log = StageLog::default();
        let mut per_shard: Vec<ShardWork> = (0..nshards).map(|_| ShardWork::default()).collect();
        let mut failed = None;
        for (result, log) in outputs {
            stage_log.merge(log);
            match result {
                Ok((prepared, segments)) => {
                    for (i, doc) in prepared {
                        per_shard[routes[i]].docs.push((i, doc));
                    }
                    for (s, segment) in segments.into_iter().enumerate() {
                        if let Some(pair) = segment {
                            per_shard[s].segments.push(pair);
                        }
                    }
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            create_obs::flush_stages(stage_log);
            return Err(e);
        }

        // Phase 2: per-shard apply, over the shards that received
        // documents — ownership of each one's work moves to the pool
        // task that locks that shard's writer.
        let base = *gate;
        let touched: Vec<(usize, Mutex<Option<ShardWork>>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, work)| !work.docs.is_empty())
            .map(|(s, work)| (s, Mutex::new(Some(work))))
            .collect();
        let applied: Vec<(Result<(), IngestError>, StageLog)> =
            pool.parallel_map(&touched, |_, (s, slot)| {
                create_obs::buffered_stages(|| {
                    let work = slot
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .take()
                        .expect("each shard's work is taken once");
                    let mut writer = self.shards[*s].lock_writer();
                    for &(i, ref doc) in &work.docs {
                        // WAL first: the record is appended (and fsynced
                        // below) before any in-memory apply, so every
                        // write the system acknowledges is recoverable
                        // from the log. The record and the shard's
                        // payload splice the same member texts.
                        let ordinal = base + i as u64;
                        let [report, ann, extraction] = doc.stored_texts();
                        let payload = DocPayload {
                            report: &report,
                            ann: Some(&ann),
                            extraction: Some(&extraction),
                        };
                        writer.wal_log(ordinal, &payload)?;
                        writer.apply(
                            &self.ontology,
                            ordinal,
                            &doc.fields(),
                            &doc.annotations,
                            &durability::payload_text(&payload),
                        );
                    }
                    for (segment, facets) in work.segments {
                        writer
                            .merge(segment, facets)
                            .map_err(|e| IngestError::Store(e.to_string()))?;
                    }
                    // One fsync covers the shard's whole batch slice —
                    // the records are on disk before the composite
                    // publish acknowledges the batch.
                    writer.wal_sync()?;
                    writer.shard.generation += 1;
                    Ok(())
                })
            });
        let mut failed = None;
        for (result, log) in applied {
            stage_log.merge(log);
            if let Err(e) = result {
                failed.get_or_insert(e);
            }
        }
        create_obs::flush_stages(stage_log);
        if let Some(e) = failed {
            return Err(e);
        }
        *gate = base + n as u64;
        // One composite publish for the whole batch: share the state of
        // exactly the touched shards, reuse the rest.
        let guards: Vec<(usize, MutexGuard<'_, Writer>)> = touched
            .iter()
            .map(|(s, _)| (*s, self.shards[*s].lock_writer()))
            .collect();
        let writers: Vec<(usize, &Writer)> = guards.iter().map(|(s, g)| (*s, &**g)).collect();
        self.publish_shards(&writers);
        Ok(n)
    }

    /// Parses a query through the IE pipeline (model-based when a tagger is
    /// attached, gazetteer otherwise).
    pub fn parse_query(&self, query: &str) -> QueryIE {
        self.parse_query_against(&self.current.load(), query)
    }

    /// Query parsing against an explicit snapshot's tagger, so search and
    /// parse see the same state.
    fn parse_query_against(&self, snapshot: &Snapshot, query: &str) -> QueryIE {
        match &snapshot.shards[0].tagger {
            Some(t) => QueryIE::parse(query, t, &self.ontology),
            None => QueryIE::parse_gazetteer(query, &self.ontology),
        }
    }

    /// CREATe-IR search with the paper's default policy, Neo4j-first.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.search_with_policy(query, k, MergePolicy::Neo4jFirst)
    }

    /// CREATe-IR search with an explicit merge policy (Fig. 6 ablation):
    /// the hits of [`Create::search_answer`], copied out.
    pub fn search_with_policy(&self, query: &str, k: usize, policy: MergePolicy) -> Vec<SearchHit> {
        self.search_answer(query, k, policy).hits.clone()
    }

    /// The whole answer to a query — its IE parse, the merged hits and
    /// the rendered `/search` body — under an explicit merge policy.
    ///
    /// Answers are cached by `(query text, k, policy)` and stamped with
    /// the composite generation of the snapshot they were computed from;
    /// any publish anywhere invalidates them wholesale on first touch
    /// (see [`crate::cache`]). A hit is one lock, one probe and one
    /// reference count. A miss runs against the one snapshot loaded
    /// here, so a concurrent ingest can never produce a torn answer
    /// (mentions from one tagger, graph hits from one generation,
    /// keyword hits from another). The cache lock is dropped during
    /// execution, so concurrent `search_many` workers never serialize
    /// while computing.
    pub fn search_answer(&self, query: &str, k: usize, policy: MergePolicy) -> Arc<SearchAnswer> {
        let capture = QueryCapture::begin();
        let span = create_obs::child_span(obs_names::SPAN_SEARCH);
        count_policy(policy);
        let snapshot = self.current.load();
        let generation = snapshot.generation();
        let cached = self
            .cache
            .lock()
            .ok()
            .and_then(|mut cache| cache.get(query, k, policy, generation));
        let answer = match cached {
            Some(answer) => {
                create_obs::add_span_counter("cache_hit", 1);
                answer
            }
            None => {
                create_obs::add_span_counter("cache_miss", 1);
                let answer = Arc::new(self.execute_search(&snapshot, query, k, policy));
                if let Ok(mut cache) = self.cache.lock() {
                    cache.insert(query, k, policy, generation, Arc::clone(&answer));
                }
                answer
            }
        };
        // Close the search span before `finish` so the query histogram
        // exemplar attaches while the context is still this request's.
        drop(span);
        capture.finish(query, k, policy.label());
        answer
    }

    /// The uncached execution path behind [`Create::search_answer`]: the
    /// query is parsed, lowered into its typed plan, and the plan run by
    /// the one executor over every shard of the given snapshot (see
    /// [`crate::plan`]).
    fn execute_search(
        &self,
        snapshot: &Snapshot,
        query: &str,
        k: usize,
        policy: MergePolicy,
    ) -> SearchAnswer {
        let parsed = {
            let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_PARSE);
            self.parse_query_against(snapshot, query)
        };
        let plan = {
            let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_PLAN);
            plan::lower_search(query, &parsed, k, policy).optimize()
        };
        let hits = plan::execute(&snapshot.shards, &plan, PlanMode::Optimized).hits;
        SearchAnswer::new(parsed, hits)
    }

    /// Cohort retrieval: answers a criteria set (facet filters, optional
    /// keywords, temporal-interval constraints) with the ranked matching
    /// reports plus facet aggregations over the full matching set.
    ///
    /// The criteria lower into the typed plan IR, normalize, and execute
    /// per shard with bitmap filter pushdown (see [`crate::plan`]).
    /// Results are bit-identical for any shard count.
    pub fn cohort(&self, criteria: &CohortCriteria) -> CohortResult {
        self.cohort_with_mode(criteria, PlanMode::Optimized)
    }

    /// Cohort retrieval with an explicit execution mode.
    /// [`PlanMode::Naive`] ranks exhaustively and post-filters — the
    /// reference order the plan-equivalence tests compare against.
    pub fn cohort_with_mode(&self, criteria: &CohortCriteria, mode: PlanMode) -> CohortResult {
        let _span = create_obs::child_span(obs_names::SPAN_COHORT);
        let snapshot = self.current.load();
        let plan = {
            let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_PLAN);
            match mode {
                PlanMode::Optimized => plan::lower_cohort(criteria).optimize(),
                PlanMode::Naive => plan::lower_cohort(criteria),
            }
        };
        plan::execute(&snapshot.shards, &plan, mode)
    }

    /// Parses a criteria JSON document against this instance's ontology
    /// and answers it — the `/cohort` endpoint's entry point.
    pub fn cohort_from_json(&self, json: &Value) -> Result<CohortResult, String> {
        let criteria = plan::parse_cohort_criteria(json, &self.ontology)?;
        Ok(self.cohort(&criteria))
    }

    /// Facet-bitmap totals summed across the current snapshot's shards
    /// (the bench's bytes/doc readout).
    pub fn facet_stats(&self) -> FacetStats {
        let snapshot = self.current.load();
        let mut stats = FacetStats {
            values: 0,
            postings_bytes: 0,
            docs: 0,
        };
        for shard in &snapshot.shards {
            stats.values += shard.facets.num_values();
            stats.postings_bytes += shard.facets.postings_bytes();
            stats.docs += shard.facets.num_docs() as usize;
        }
        stats
    }

    /// Answers a batch of queries in parallel over the global pool with
    /// the default policy. Results are in query order and
    /// identical to calling [`Create::search`] per query — search is
    /// read-only, so the fan-out needs no coordination beyond the pool.
    /// This is how the server amortizes concurrent user queries.
    pub fn search_many<S: AsRef<str> + Sync>(&self, queries: &[S], k: usize) -> Vec<Vec<SearchHit>> {
        self.search_many_with_policy(queries, k, MergePolicy::Neo4jFirst)
    }

    /// Batch search with an explicit merge policy.
    pub fn search_many_with_policy<S: AsRef<str> + Sync>(
        &self,
        queries: &[S],
        k: usize,
        policy: MergePolicy,
    ) -> Vec<Vec<SearchHit>> {
        ThreadPool::global().parallel_map(queries, |_, q| {
            self.search_with_policy(q.as_ref(), k, policy)
        })
    }

    /// One member of a report's stored payload, parsed, from its owning
    /// shard: the index maps the id to the doc id that indexes the
    /// payload column.
    fn stored_member(&self, id: &str, key: &str) -> Option<Value> {
        let snapshot = self.current.load();
        let shard = &snapshot.shards[self.shard_of(id)];
        let doc = shard.index.internal_id(id)?;
        durability::payload_member(shard.docs.get(doc as usize)?, key)
    }

    /// Fetches a stored report document from its owning shard.
    pub fn report(&self, id: &str) -> Option<Value> {
        self.stored_member(id, "report")
    }

    /// Fetches a report's BRAT annotation export from its owning shard.
    pub fn annotations(&self, id: &str) -> Option<BratDocument> {
        let doc = self.stored_member(id, "ann")?;
        BratDocument::parse(doc.get("ann")?.as_str()?).ok()
    }

    /// Renders the Fig-7 network-graph visualization of a report's events
    /// (read from the report's owning shard — its events and temporal
    /// edges all live there).
    pub fn visualize(&self, id: &str) -> Option<String> {
        let snapshot = self.current.load();
        let graph = &snapshot.shards[self.shard_of(id)].graph;
        let report_node = find_report(graph, id)?;
        let events: Vec<_> = graph
            .outgoing(report_node)
            .into_iter()
            .filter(|e| &*e.rel_type == "CONTAINS")
            .map(|e| e.target)
            .collect();
        if events.is_empty() {
            return None;
        }
        let mut viz = VizGraph::default();
        let mut node_index = std::collections::HashMap::new();
        for &ev in &events {
            let node = graph.node(ev)?;
            node_index.insert(ev, viz.nodes.len());
            viz.nodes.push(VizNode {
                label: node
                    .props
                    .get("label")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                kind: node
                    .props
                    .get("entityType")
                    .and_then(|v| v.as_str())
                    .unwrap_or("Other")
                    .to_string(),
            });
        }
        for &ev in &events {
            for edge in graph.outgoing(ev) {
                if &*edge.rel_type != "BEFORE" && &*edge.rel_type != "OVERLAP" {
                    continue;
                }
                let (Some(&s), Some(&t)) = (node_index.get(&ev), node_index.get(&edge.target))
                else {
                    continue;
                };
                viz.edges.push(VizEdge {
                    source: s,
                    target: t,
                    label: edge.rel_type.to_string(),
                });
            }
        }
        Some(render_svg(&viz, &SvgOptions::default()))
    }

    /// Query-cache counters (hits, misses, live entries) and the current
    /// composite generation, for the REST stats surface.
    pub fn cache_stats(&self) -> CacheStats {
        let generation = self.current.load().generation();
        // Reading the counters is sound whatever a panicking holder left
        // half-done.
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stats(generation)
    }

    /// System counters, read from one composite snapshot (mutually
    /// consistent) and summed across shards.
    pub fn stats(&self) -> SystemStats {
        let snapshot = self.current.load();
        let mut stats = SystemStats {
            reports: 0,
            graph_nodes: 0,
            graph_edges: 0,
            index_terms: 0,
        };
        for shard in &snapshot.shards {
            stats.reports += shard.index.num_docs();
            stats.graph_nodes += shard.graph.node_count();
            stats.graph_edges += shard.graph.edge_count();
            stats.index_terms += shard.index.vocabulary_size("body")
                + shard.index.vocabulary_size("title")
                + shard.index.vocabulary_size("body_ngram");
        }
        stats
    }

    /// Heap bytes the published snapshot holds, by component and summed
    /// across shards, from the structures' own lengths and capacities
    /// (see [`PropertyGraph::heap_bytes`]). Walks every shard's graph,
    /// payloads, dictionary and bitmaps, so it is for the stats and scrape
    /// paths; it takes no writer lock. Also refreshes the
    /// `create_resident_bytes` gauges.
    pub fn memory_stats(&self) -> MemoryStats {
        let snapshot = self.current.load();
        let mut stats = MemoryStats::default();
        for shard in &snapshot.shards {
            stats.postings_bytes += shard.index.postings_bytes();
            stats.graph_bytes += shard.graph.heap_bytes();
            stats.docstore_bytes += shard.docs.capacity() * std::mem::size_of::<Arc<str>>()
                + shard
                    .docs
                    .iter()
                    .map(|payload| arc_slice_bytes(payload.len()))
                    .sum::<usize>();
            stats.facet_bytes += shard.facets.postings_bytes();
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

    /// Sealed-segment totals from the live manifest (`None` for
    /// in-memory instances). Takes only the manifest lock — never a
    /// writer lock — so the metrics scrape path can call it while
    /// writes are in flight. Also refreshes the segment gauges.
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

/// Facet-bitmap size totals (see [`Create::facet_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FacetStats {
    /// Distinct `(field, value)` runs across shards.
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
    /// ([`Index::postings_bytes`]).
    pub postings_bytes: usize,
    /// The property graphs.
    pub graph_bytes: usize,
    /// The stored payloads, exactly: each text with its `Arc` header,
    /// and the slot array that indexes them by doc id.
    pub docstore_bytes: usize,
    /// The facet bitmaps' values and runs.
    pub facet_bytes: usize,
}

impl MemoryStats {
    /// `(component, bytes)` — the `component` label of
    /// `create_resident_bytes`, and `<component>_bytes` in `/stats`.
    pub fn components(&self) -> [(&'static str, usize); 4] {
        [
            ("postings", self.postings_bytes),
            ("graph", self.graph_bytes),
            ("docstore", self.docstore_bytes),
            ("facet", self.facet_bytes),
        ]
    }
}

/// Sealed on-disk segment totals (see [`Create::storage_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Live segment files across all shards.
    pub segments: usize,
    /// Their total size in bytes.
    pub segment_bytes: u64,
}

/// A raw-text document queued for batch submission.
#[derive(Debug, Clone)]
pub struct TextSubmission {
    /// External report id (must be unused).
    pub id: String,
    /// Title.
    pub title: String,
    /// Body text to extract from and index.
    pub text: String,
    /// Publication/submission year.
    pub year: u32,
}

/// A fully extracted document waiting for its shard's apply task.
struct PreparedDoc {
    id: String,
    title: String,
    text: String,
    year: u32,
    category: String,
    authors: Vec<String>,
    /// The header affiliation of a PDF submission; its presence also
    /// marks the stored report `source: "pdf"`.
    pdf_affiliation: Option<String>,
    annotations: ExtractedAnnotations,
    brat: BratDocument,
}

impl PreparedDoc {
    /// Automatic extraction over one raw-text submission.
    fn from_text(
        id: &str,
        title: &str,
        text: &str,
        year: u32,
        tagger: &CrfTagger,
        ontology: &Ontology,
    ) -> PreparedDoc {
        let annotations = ExtractedAnnotations::from_text(text, tagger, ontology);
        let brat = annotations.to_brat();
        PreparedDoc {
            id: id.to_string(),
            title: title.to_string(),
            text: text.to_string(),
            year,
            category: "user".to_string(),
            authors: Vec::new(),
            pdf_affiliation: None,
            annotations,
            brat,
        }
    }

    fn fields(&self) -> ReportFields<'_> {
        ReportFields {
            id: &self.id,
            title: &self.title,
            text: &self.text,
            year: self.year,
            category: &self.category,
        }
    }

    /// The three members of the report's payload (`report`, `ann`,
    /// `extraction`), each serialized once: objects serialize key-sorted,
    /// so a text is the same whichever order its fields were set in.
    fn stored_texts(&self) -> [String; 3] {
        let id = || Value::from(self.id.as_str());
        let mut report = obj([
            ("_id", id()),
            ("title", self.title.as_str().into()),
            ("text", self.text.as_str().into()),
            ("year", (self.year as i64).into()),
            ("category", self.category.as_str().into()),
            (
                "authors",
                Value::Array(self.authors.iter().map(|a| a.as_str().into()).collect()),
            ),
        ]);
        if let Some(affiliation) = &self.pdf_affiliation {
            report.set("affiliation", affiliation.as_str());
            report.set("source", "pdf");
        }
        let ann = obj([("_id", id()), ("ann", self.brat.serialize().into())]);
        let extraction = obj([("_id", id()), ("extraction", self.annotations.to_json())]);
        [report.to_json(), ann.to_json(), extraction.to_json()]
    }
}

/// Splits `0..n` into up to `shards` contiguous, near-equal ranges in
/// order — contiguity is what keeps parallel doc-id assignment identical
/// to sequential ingestion.
fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, n.max(1));
    let chunk = n.div_ceil(shards);
    (0..n).step_by(chunk.max(1)).map(|start| start..(start + chunk).min(n)).collect()
}

/// Ingestion errors.
#[derive(Debug)]
pub enum IngestError {
    /// Raw-text ingestion attempted without an attached tagger.
    NoTagger,
    /// Report id already ingested.
    Duplicate(String),
    /// PDF parsing failed.
    Pdf(PdfError),
    /// Storage layer failure.
    Store(String),
    /// Durable storage engine failure — a typed error distinguishing
    /// I/O failures ([`StorageError::Io`]) from on-disk corruption
    /// ([`StorageError::Corrupt`]).
    Storage(StorageError),
    /// Rejected configuration (e.g. a zero shard count at `open`).
    Config(String),
}

impl IngestError {
    /// Whether the error is detected on-disk corruption (as opposed to
    /// an I/O failure or a request-level error).
    pub fn is_corruption(&self) -> bool {
        matches!(self, IngestError::Storage(e) if e.is_corruption())
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::NoTagger => write!(f, "no NER tagger attached"),
            IngestError::Duplicate(id) => write!(f, "report {id:?} already ingested"),
            IngestError::Pdf(e) => write!(f, "{e}"),
            IngestError::Store(m) => write!(f, "storage error: {m}"),
            IngestError::Storage(e) => write!(f, "{e}"),
            IngestError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_corpus::{CorpusConfig, Generator, QuerySet};
    use create_grobid::{write_pdf, PdfSource};

    fn loaded_system(n: usize, seed: u64) -> (Create, Vec<CaseReport>) {
        let generator = Generator::new(CorpusConfig {
            num_reports: n,
            seed,
            ..Default::default()
        });
        let reports = generator.generate();
        let system = Create::new(CreateConfig::default());
        for r in &reports {
            system.ingest_gold(r).unwrap();
        }
        (system, reports)
    }

    #[test]
    fn ingest_populates_all_stores() {
        let (system, reports) = loaded_system(20, 1);
        let stats = system.stats();
        assert_eq!(stats.reports, 20);
        assert!(stats.graph_nodes > 20);
        assert!(stats.graph_edges > 20);
        assert!(stats.index_terms > 100);
        assert!(system.report(&reports[0].id).is_some());
    }

    #[test]
    fn duplicate_ingest_rejected() {
        let (system, reports) = loaded_system(1, 2);
        assert!(matches!(
            system.ingest_gold(&reports[0]),
            Err(IngestError::Duplicate(_))
        ));
    }

    #[test]
    fn annotations_round_trip() {
        let (system, reports) = loaded_system(3, 3);
        let brat = system.annotations(&reports[0].id).expect("brat stored");
        assert_eq!(brat.text_bounds.len(), reports[0].entities.len());
        assert!(brat.validate(&reports[0].text).is_ok());
    }

    #[test]
    fn search_returns_relevant_reports() {
        let (system, _) = loaded_system(60, 4);
        let queries = QuerySet::generate(
            &Generator::new(CorpusConfig {
                num_reports: 60,
                seed: 4,
                ..Default::default()
            })
            .generate(),
            5,
            8,
        );
        let mut any_relevant = 0;
        for q in &queries.queries {
            let hits = system.search(&q.text, 10);
            if hits.iter().any(|h| q.judgments.contains_key(&h.report_id)) {
                any_relevant += 1;
            }
        }
        assert!(
            any_relevant >= queries.queries.len() / 2,
            "only {any_relevant}/{} queries found a relevant doc",
            queries.queries.len()
        );
    }

    #[test]
    fn graph_only_requires_all_concepts() {
        let (system, _) = loaded_system(40, 5);
        let hits = system.search_with_policy("fever and cough", 10, MergePolicy::GraphOnly);
        for h in &hits {
            let doc = system.report(&h.report_id).unwrap();
            let text = doc.get("text").unwrap().as_str().unwrap().to_lowercase();
            // Every graph hit mentions both concepts (by some surface form,
            // so check via the graph instead of raw text when absent).
            assert!(
                text.contains("fever") || text.contains("pyrexia") || text.contains("febrile"),
                "graph hit without fever: {text}"
            );
        }
    }

    #[test]
    fn visualize_produces_svg() {
        let (system, reports) = loaded_system(3, 6);
        let svg = system.visualize(&reports[0].id).expect("svg");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn pdf_ingestion_extracts_metadata() {
        let system = Create::new(CreateConfig::default());
        // A gazetteer-less system cannot auto-extract; attach a tiny tagger.
        let reports = Generator::new(CorpusConfig {
            num_reports: 15,
            seed: 7,
            ..Default::default()
        })
        .generate();
        let dataset =
            create_ner::NerDataset::from_reports(&reports, create_ner::LabelSet::ner_targets());
        let tagger = CrfTagger::train(
            &dataset,
            create_ner::CrfTaggerConfig {
                feature_bits: 16,
                train: create_ml::CrfTrainConfig {
                    epochs: 2,
                    ..Default::default()
                },
                gazetteer_features: true,
            },
            Some(system.ontology()),
            None,
        );
        system.attach_tagger(tagger);
        let pdf = write_pdf(&PdfSource {
            title: "Myocarditis after infection: a case report".into(),
            authors: "Chen W, Smith J".into(),
            affiliation: "Department of Cardiology, Example University".into(),
            body_lines: vec![
                "Abstract".into(),
                "A patient presented with fever and chest pain.".into(),
                "Case report".into(),
                "An echocardiogram revealed myocarditis. The patient recovered.".into(),
            ],
        });
        let extracted = system.ingest_pdf("user:pdf1", &pdf).unwrap();
        assert_eq!(extracted.authors, vec!["Chen W", "Smith J"]);
        let stored = system.report("user:pdf1").unwrap();
        assert_eq!(
            stored.get("title").unwrap().as_str().unwrap(),
            "Myocarditis after infection: a case report"
        );
        assert_eq!(stored.get("source").unwrap().as_str(), Some("pdf"));
        // The ingested report is searchable.
        let hits = system.search("fever chest pain", 5);
        assert!(hits.iter().any(|h| h.report_id == "user:pdf1"));
    }

    #[test]
    fn text_ingest_without_tagger_errors() {
        let system = Create::new(CreateConfig::default());
        assert!(matches!(
            system.ingest_text("x", "t", "body", 2020),
            Err(IngestError::NoTagger)
        ));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "create-core-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_flush_round_trip() {
        let dir = temp_dir("open-test");
        let reports = Generator::new(CorpusConfig {
            num_reports: 3,
            seed: 11,
            ..Default::default()
        })
        .generate();
        {
            let system = Create::open(&dir, CreateConfig::default()).unwrap();
            for r in &reports {
                system.ingest_gold(r).unwrap();
            }
            system.flush().unwrap();
        }

        // Every report comes back from the sealed segments alone, and
        // the reopened system answers searches.
        let system = Create::open(&dir, CreateConfig::default()).unwrap();
        assert_eq!(system.stats().reports, reports.len());
        for r in &reports {
            assert!(system.report(&r.id).is_some(), "report {} lost", r.id);
        }
        assert!(system
            .search(&reports[0].title, 5)
            .iter()
            .any(|h| h.report_id == reports[0].id));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_only_directory_is_refused_with_a_typed_error() {
        let dir = temp_dir("jsonl-only");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("reports.jsonl"),
            "{\"_id\":\"a\",\"title\":\"t\",\"text\":\"fever\",\"year\":2020}\n",
        )
        .unwrap();
        match Create::open(&dir, CreateConfig::default()) {
            Err(IngestError::Config(message)) => {
                assert!(message.contains("reports.jsonl"), "names the file: {message}")
            }
            other => panic!("expected a Config error, got {other:?}"),
        }
        assert!(
            !dir.join(create_storage::STORAGE_DIR).exists(),
            "a refused open writes nothing"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_with_an_impossible_shard_count_is_corruption() {
        let dir = temp_dir("zero-manifest");
        Manifest::new(0)
            .store(&dir.join(create_storage::STORAGE_DIR))
            .unwrap();
        let err = Create::open(&dir, CreateConfig::default()).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `Create` is shared behind a plain `Arc` by the server and fanned
    /// across pool workers by `search_many` — it must stay `Sync`.
    #[test]
    fn create_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Create>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let (system, _) = loaded_system(5, 30);
        let snapshot = system.snapshot();
        assert_eq!(snapshot.generation(), 5);
        let nodes_before = snapshot.graph().node_count();
        let mut extra = Generator::new(CorpusConfig {
            num_reports: 1,
            seed: 31,
            ..Default::default()
        })
        .generate()
        .remove(0);
        extra.id = "extra:1".to_string();
        system.ingest_gold(&extra).unwrap();
        // The old snapshot still sees exactly the pre-ingest state...
        assert_eq!(snapshot.generation(), 5);
        assert_eq!(snapshot.graph().node_count(), nodes_before);
        // ...while new reads observe the publish.
        assert_eq!(system.snapshot().generation(), 6);
        assert!(system.stats().graph_nodes > nodes_before);
    }

    #[test]
    fn graph_mut_guard_publishes_on_drop() {
        let system = Create::new(CreateConfig::default());
        let before = system.cache_stats().generation;
        {
            let mut guard = system.graph_mut();
            guard.create_node(["Probe"], Vec::<(&str, Value)>::new());
        }
        assert_eq!(
            system.cache_stats().generation,
            before + 1,
            "guard drop bumps the generation"
        );
        assert_eq!(system.stats().graph_nodes, 1, "guard drop publishes");
    }

    #[test]
    fn batch_ingest_matches_sequential_for_any_thread_count() {
        let (sequential, reports) = loaded_system(40, 21);
        let seq_stats = sequential.stats();
        let seq_bytes = sequential.index().postings_bytes();
        for threads in [1, 2, 8] {
            let batched = Create::new(CreateConfig::default());
            assert_eq!(batched.ingest_gold_batch(&reports, threads).unwrap(), 40);
            assert_eq!(batched.stats(), seq_stats, "stats at {threads} threads");
            assert_eq!(
                batched.index().postings_bytes(),
                seq_bytes,
                "postings at {threads} threads"
            );
            for query in ["fever and cough", "myocardial infarction", "headache"] {
                let a: Vec<(String, u64)> = sequential
                    .search(query, 10)
                    .into_iter()
                    .map(|h| (h.report_id, h.score.to_bits()))
                    .collect();
                let b: Vec<(String, u64)> = batched
                    .search(query, 10)
                    .into_iter()
                    .map(|h| (h.report_id, h.score.to_bits()))
                    .collect();
                assert_eq!(a, b, "query {query:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn batch_ingest_rejects_duplicates_without_mutation() {
        let (system, reports) = loaded_system(5, 22);
        let before = system.stats();
        // Re-ingesting an existing report fails the whole batch...
        assert!(matches!(
            system.ingest_gold_batch(&reports[..2], 2),
            Err(IngestError::Duplicate(_))
        ));
        // ...as does a repeated id within the batch.
        let fresh = Generator::new(CorpusConfig {
            num_reports: 2,
            seed: 23,
            ..Default::default()
        })
        .generate();
        let doubled = vec![fresh[0].clone(), fresh[1].clone(), fresh[0].clone()];
        assert!(matches!(
            system.ingest_gold_batch(&doubled, 2),
            Err(IngestError::Duplicate(_))
        ));
        assert_eq!(system.stats(), before, "failed batches must not mutate");
    }

    #[test]
    fn text_batch_requires_tagger_and_ingests_with_one() {
        let system = Create::new(CreateConfig::default());
        let submissions = vec![
            TextSubmission {
                id: "user:1".into(),
                title: "Fever case".into(),
                text: "A patient presented with fever and cough. Later developed myocarditis."
                    .into(),
                year: 2021,
            },
            TextSubmission {
                id: "user:2".into(),
                title: "Chest pain case".into(),
                text: "Severe chest pain was reported. An echocardiogram was performed.".into(),
                year: 2022,
            },
        ];
        assert!(matches!(
            system.ingest_text_batch(&submissions, 2),
            Err(IngestError::NoTagger)
        ));
        let reports = Generator::new(CorpusConfig {
            num_reports: 15,
            seed: 24,
            ..Default::default()
        })
        .generate();
        let dataset =
            create_ner::NerDataset::from_reports(&reports, create_ner::LabelSet::ner_targets());
        let tagger = CrfTagger::train(
            &dataset,
            create_ner::CrfTaggerConfig {
                feature_bits: 16,
                train: create_ml::CrfTrainConfig {
                    epochs: 2,
                    ..Default::default()
                },
                gazetteer_features: true,
            },
            Some(system.ontology()),
            None,
        );
        system.attach_tagger(tagger);
        assert_eq!(system.ingest_text_batch(&submissions, 2).unwrap(), 2);
        assert_eq!(system.stats().reports, 2);
        // Tagger survives the batch (workers share it by `Arc`).
        assert!(system.ingest_text("user:3", "t", "More fever.", 2023).is_ok());
        // And the batch path matches the per-document text path.
        let sequential = Create::new(CreateConfig::default());
        let dataset2 =
            create_ner::NerDataset::from_reports(&reports, create_ner::LabelSet::ner_targets());
        let tagger2 = CrfTagger::train(
            &dataset2,
            create_ner::CrfTaggerConfig {
                feature_bits: 16,
                train: create_ml::CrfTrainConfig {
                    epochs: 2,
                    ..Default::default()
                },
                gazetteer_features: true,
            },
            Some(sequential.ontology()),
            None,
        );
        sequential.attach_tagger(tagger2);
        for s in &submissions {
            sequential.ingest_text(&s.id, &s.title, &s.text, s.year).unwrap();
        }
        let batched_stats = {
            let fresh = Create::new(CreateConfig::default());
            let dataset3 =
                create_ner::NerDataset::from_reports(&reports, create_ner::LabelSet::ner_targets());
            let tagger3 = CrfTagger::train(
                &dataset3,
                create_ner::CrfTaggerConfig {
                    feature_bits: 16,
                    train: create_ml::CrfTrainConfig {
                        epochs: 2,
                        ..Default::default()
                    },
                    gazetteer_features: true,
                },
                Some(fresh.ontology()),
                None,
            );
            fresh.attach_tagger(tagger3);
            fresh.ingest_text_batch(&submissions, 4).unwrap();
            fresh.stats()
        };
        assert_eq!(batched_stats, sequential.stats());
    }

    #[test]
    fn search_many_matches_individual_searches() {
        let (system, _) = loaded_system(30, 25);
        let queries = ["fever and cough", "chest pain", "syncope after fever", ""];
        let batched = system.search_many(&queries, 5);
        assert_eq!(batched.len(), queries.len());
        for (q, hits) in queries.iter().zip(&batched) {
            let individual = system.search(q, 5);
            let a: Vec<(&str, u64)> = individual
                .iter()
                .map(|h| (h.report_id.as_str(), h.score.to_bits()))
                .collect();
            let b: Vec<(&str, u64)> = hits
                .iter()
                .map(|h| (h.report_id.as_str(), h.score.to_bits()))
                .collect();
            assert_eq!(a, b, "query {q:?}");
        }
    }

    #[test]
    fn repeated_search_is_served_from_cache_with_identical_hits() {
        let (system, _) = loaded_system(30, 26);
        let cold = system.search("fever and cough", 10);
        let after_cold = system.cache_stats();
        assert_eq!(after_cold.hits, 0);
        assert!(after_cold.misses >= 1);
        let warm = system.search("fever and cough", 10);
        let after_warm = system.cache_stats();
        assert_eq!(after_warm.hits, 1, "second identical query hits the cache");
        assert_eq!(cold.len(), warm.len());
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.report_id, b.report_id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.source, b.source);
        }
        // Different k or policy must not be conflated with the cached key.
        let _ = system.search("fever and cough", 3);
        let _ = system.search_with_policy("fever and cough", 10, MergePolicy::EsOnly);
        assert_eq!(system.cache_stats().hits, 1);
    }

    #[test]
    fn ingest_invalidates_cached_results() {
        let (system, _) = loaded_system(10, 27);
        let stale = system.search("myocarditis zzqy", 10);
        assert!(system.search("myocarditis zzqy", 10).len() == stale.len());
        let gen_before = system.cache_stats().generation;
        system
            .ingest_gold(&{
                let mut r = Generator::new(CorpusConfig {
                    num_reports: 1,
                    seed: 28,
                    ..Default::default()
                })
                .generate()
                .remove(0);
                r.id = "fresh:1".to_string();
                r.text = format!("{} myocarditis zzqy", r.text);
                r
            })
            .unwrap();
        assert!(
            system.cache_stats().generation > gen_before,
            "ingest bumps the generation"
        );
        let fresh = system.search("myocarditis zzqy", 10);
        assert!(
            fresh.iter().any(|h| h.report_id == "fresh:1"),
            "post-ingest search must see the new report, not the cached result"
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let system = Create::new(CreateConfig::default());
        assert_eq!(system.ingest_gold_batch(&[], 4).unwrap(), 0);
        assert_eq!(system.stats().reports, 0);
    }

    #[test]
    fn temporal_query_prefers_pattern_matches() {
        let (system, reports) = loaded_system(80, 8);
        // Build a temporal query from a report with a BEFORE pair.
        let queries = QuerySet::generate(&reports, 9, 16);
        let temporal: Vec<_> = queries
            .of_family(create_corpus::QueryFamily::Temporal)
            .into_iter()
            .cloned()
            .collect();
        assert!(!temporal.is_empty());
        let mut checked = false;
        for q in &temporal {
            let hits = system.search_with_policy(&q.text, 10, MergePolicy::GraphOnly);
            if let Some(top) = hits.first() {
                if top.pattern_matched {
                    checked = true;
                    // Pattern-matched hits must outrank non-matched ones.
                    for later in &hits[1..] {
                        assert!(top.score >= later.score);
                    }
                }
            }
        }
        assert!(
            checked,
            "no temporal query produced a pattern-matched top hit"
        );
    }

    #[test]
    fn zero_shards_clamped_on_new_and_rejected_on_open() {
        let bad_before = create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).get();
        let system = Create::new(CreateConfig { shards: 0 });
        assert_eq!(system.shard_count(), 1, "zero clamps to one shard");
        assert!(
            create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).get() > bad_before,
            "the clamp is counted"
        );
        let dir = temp_dir("badcfg");
        let err = Create::open(&dir, CreateConfig { shards: 0 });
        assert!(
            matches!(err, Err(IngestError::Config(_))),
            "open rejects a zero shard count"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_shard_count_is_clamped_to_max() {
        let bad_before = create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).get();
        let system = Create::new(CreateConfig { shards: 100_000 });
        assert_eq!(system.shard_count(), MAX_SHARDS);
        assert!(create_obs::counter(obs_names::OPEN_BAD_CONFIG_TOTAL).get() > bad_before);
    }

    #[test]
    fn reopening_with_a_different_configured_count_keeps_the_persisted_count() {
        let dir = temp_dir("reshard");
        let reports = Generator::new(CorpusConfig {
            num_reports: 10,
            seed: 42,
            ..Default::default()
        })
        .generate();
        let bits = |system: &Create| -> Vec<(String, u64)> {
            system
                .search(&reports[0].title, 5)
                .into_iter()
                .map(|h| (h.report_id, h.score.to_bits()))
                .collect()
        };
        let written = Create::open(&dir, CreateConfig { shards: 3 }).unwrap();
        assert_eq!(written.ingest_gold_batch(&reports, 2).unwrap(), 10);
        written.flush().unwrap();
        // The manifest's count wins over the configured one: nothing is
        // re-routed, nothing is lost, and searches rank bit-identically.
        for configured in [2, 8] {
            let system = Create::open(&dir, CreateConfig { shards: configured }).unwrap();
            assert_eq!(system.shard_count(), 3, "configured {configured}");
            assert_eq!(system.stats().reports, 10);
            for r in &reports {
                assert_eq!(
                    system.report(&r.id).map(|v| v.to_json()),
                    written.report(&r.id).map(|v| v.to_json()),
                    "report {}",
                    r.id
                );
                assert_eq!(
                    system.annotations(&r.id).map(|a| a.serialize()),
                    written.annotations(&r.id).map(|a| a.serialize()),
                    "annotations of {}",
                    r.id
                );
            }
            assert_eq!(bits(&system), bits(&written));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_ingest_routes_and_answers_lookups() {
        let generator = Generator::new(CorpusConfig {
            num_reports: 12,
            seed: 41,
            ..Default::default()
        });
        let reports = generator.generate();
        let system = Create::new(CreateConfig { shards: 3 });
        assert_eq!(system.shard_count(), 3);
        assert_eq!(system.ingest_gold_batch(&reports, 2).unwrap(), 12);
        assert_eq!(system.stats().reports, 12);
        // Per-shard lookups find every document, whichever shard owns it.
        for r in &reports {
            assert!(system.report(&r.id).is_some(), "report {} lost", r.id);
            assert!(system.annotations(&r.id).is_some());
        }
        // The composite generation advanced once per touched shard; the
        // sum of per-shard generations is the composite.
        let gens = system.shard_generations();
        assert_eq!(gens.len(), 3);
        assert_eq!(
            gens.iter().sum::<u64>(),
            system.snapshot().generation()
        );
    }
}
