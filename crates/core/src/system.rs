//! The [`Create`] facade — the public API of the platform — its
//! [`Snapshot`] and the read API.
//!
//! State is partitioned into independent **shards** keyed by
//! `hash(report_id) % N`: each shard owns its own stored documents,
//! event records, inverted index and generation stamp. All write state —
//! every shard's [`Writer`](crate::writer::Writer) and the next global
//! ingest ordinal — sits behind one `Mutex`, held by every write
//! operation from start to publish; the heavy per-shard apply work of a
//! batch still fans out across the pool, each task owning its shard's
//! writer. Readers never take that lock: they run against an immutable
//! composite [`Snapshot`] — one `Arc` per shard — published through a
//! single [`ArcCell`]. A shard's writer holds the very `ShardSnapshot` it
//! publishes, its tables behind `Arc`s: a publish bumps reference counts,
//! and the first write after it copies what it touches
//! (`Arc::make_mut`) — the index's list of segment pointers, never a
//! segment, and the last chunks of the columns. Reads can
//! never observe a torn mix of shard generations. Scatter-gather search
//! (see [`crate::search`]) merges per-shard top-k lists under globally
//! merged corpus statistics, so rankings are bit-identical for any shard
//! count.
//!
//! The write lock and the publish are [`crate::writer`], the write route
//! [`crate::ingest`], open [`crate::recovery`], flush [`crate::flush`]
//! and the counters [`crate::stats`].

use crate::cache::{CacheStats, QueryCache};
use crate::durability::{self, StorageRoot};
use crate::payloads::Payloads;
use crate::plan::{self, CohortCriteria, CohortResult, PlanMode};
use crate::search::{MergePolicy, SearchAnswer, SearchHit};
use crate::stats::{count_policy, note_query, register_metrics, register_shard_metrics};
use crate::{
    graph_build::{self, EventColumn, ReportMeta},
    pipeline::{ExtractedAnnotations, QueryIE},
    writer::{empty_writer, Writers},
};
use create_annotate::BratDocument;
use create_docstore::Value;
use create_graphdb::PropertyGraph;
use create_index::Index;
use create_ner::CrfTagger;
use create_obs::{names as obs_names, Span};
use create_ontology::Ontology;
use create_storage::StorageError;
use create_util::{ArcCell, Chunked, ThreadPool};
use create_viz::{render_svg, SvgOptions, VizEdge, VizGraph, VizNode};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
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
    /// One shard per available core, the sweet spot for write fan-out.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get());
        CreateConfig {
            shards: cores.unwrap_or(1).min(MAX_SHARDS),
        }
    }
}

/// The owning shard for an external report id: its FNV-1a hash modulo
/// the shard count. FNV-1a is deterministic across processes and
/// platforms, unlike the std `RandomState` hasher, so a data directory
/// reopens with every document routed to the shard that sealed it.
pub(crate) fn shard_index(id: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Clamps a requested shard count into `1..=MAX_SHARDS`, counting and
/// logging any adjustment so a misconfigured deployment is visible.
pub(crate) fn clamp_shards(requested: usize) -> usize {
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

/// One shard's state at a single shard generation: what its
/// [`Writer`](crate::writer::Writer) holds and, cloned into an `Arc`,
/// what a publish hands readers. The clone bumps reference counts; the
/// tables stay shared until a write copies them.
#[derive(Clone)]
pub(crate) struct ShardSnapshot {
    /// This shard's write generation, bumped by every write operation
    /// that touches the shard.
    pub(crate) generation: u64,
    /// Shard-local internal doc id → the report's stored payload, the
    /// exact text its segment stores (see [`crate::durability`]): the
    /// report and its extraction. Read by id through the index's id map;
    /// a sealed document's from its segment file, an unsealed one's
    /// from RAM (see [`crate::payloads`]).
    pub(crate) docs: Arc<Payloads>,
    /// Shard-local internal doc id → the report's event record: what
    /// the graph search, the temporal operators and the graph counts
    /// read (see [`graph_build::EventRecord`]). No shard holds a graph;
    /// [`Snapshot::graph`] builds one for Cypher.
    pub(crate) events: Arc<EventColumn>,
    pub(crate) index: Arc<Index>,
    pub(crate) tagger: Option<Arc<CrfTagger>>,
    /// Shard-local internal doc id → global ingest ordinal. The scatter
    /// merge tie-breaks equal scores on this, which reproduces the
    /// single-shard internal-id tie-break exactly (see [`crate::search`]).
    pub(crate) ordinals: Arc<Chunked<u64>>,
}

/// An immutable, internally consistent view of the platform: one
/// [`ShardSnapshot`] per shard, all published together in a single atomic
/// swap.
///
/// Published by the write path after every completed write operation and
/// held by readers for the duration of one operation: everything read
/// through one snapshot — postings, event records, stored documents —
/// comes from the same moment, so a concurrent ingest can
/// never produce a torn result (not even a torn mix of shard
/// generations). Old snapshots stay valid (and allocated) until the last
/// reader drops its `Arc`; reclamation is plain reference counting.
pub struct Snapshot {
    pub(crate) shards: Vec<Arc<ShardSnapshot>>,
    /// The platform's ontology, which names the graph's concept nodes.
    pub(crate) ontology: Arc<Ontology>,
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

    /// The property graph of every shard's reports, built on demand:
    /// [`graph_build::add_report`] over the stored payloads in global
    /// ingest order, so node and edge ids follow ingest order, a concept
    /// is one node whichever shards its reports live on, and the graph is
    /// the same at any shard count. An error when a sealed payload does
    /// not read back from its segment file.
    pub fn graph(&self) -> Result<PropertyGraph, StorageError> {
        let mut docs: Vec<(u64, usize, usize)> = (self.shards.iter().enumerate())
            .flat_map(|(s, shard)| {
                (0..shard.docs.len()).map(move |doc| (shard.ordinals[doc], s, doc))
            })
            .collect();
        docs.sort_unstable();
        self.build_graph(docs.into_iter().map(|(_, shard, doc)| (shard, doc)))
    }

    /// The property graph of shard `shard`'s reports alone, built on
    /// demand as [`Snapshot::graph`] is, over the shard's payloads in doc
    /// order (the order they entered the shard).
    pub fn shard_graph(&self, shard: usize) -> Result<PropertyGraph, StorageError> {
        let docs = 0..self.shards[shard].docs.len();
        self.build_graph(docs.map(|doc| (shard, doc)))
    }

    /// [`graph_build::add_report`] over the stored payloads of `docs`,
    /// `(shard, doc id)` pairs, in the order given.
    fn build_graph(
        &self,
        docs: impl Iterator<Item = (usize, usize)>,
    ) -> Result<PropertyGraph, StorageError> {
        let mut graph = graph_build::report_graph();
        for (shard, doc) in docs {
            let payload = self.shards[shard].docs.get(doc)?;
            let payload = payload.expect("every doc has its payload");
            let stored = durability::decode_payload(payload.as_bytes())
                .expect("a stored payload reads back");
            let (fields, annotations) = (&stored.fields, &stored.annotations);
            let meta = ReportMeta {
                report_id: fields.id.to_string(),
                title: fields.title.to_string(),
                year: fields.year,
                category: fields.category.to_string(),
            };
            graph_build::add_report(&mut graph, &self.ontology, &meta, annotations);
        }
        Ok(graph)
    }

    /// Shard 0's inverted index (the whole index in single-shard
    /// deployments; field configuration is identical on every shard).
    pub fn index(&self) -> &Index {
        &self.shards[0].index
    }

    /// The shard that owns an external report id.
    fn owner(&self, id: &str) -> &ShardSnapshot {
        &self.shards[shard_index(id, self.shards.len())]
    }

    /// A report's stored payload, from its owning shard: the index maps
    /// the id to the doc id that indexes the payload column. `Ok(None)`
    /// for an unknown id; an error when a sealed payload does not read
    /// back from its segment file.
    fn stored_payload(&self, id: &str) -> Result<Option<Cow<'_, str>>, StorageError> {
        let shard = self.owner(id);
        let Some(doc) = shard.index.internal_id(id) else {
            return Ok(None);
        };
        shard.docs.get(doc as usize)
    }

    /// The stored report document, as of this snapshot (see
    /// [`Create::report`]).
    pub fn report(&self, id: &str) -> Result<Option<Value>, StorageError> {
        let payload = self.stored_payload(id)?;
        Ok(payload.and_then(|payload| durability::payload_member(&payload, "report")))
    }

    /// A report's stored extraction, which ingest wrote and recovery
    /// read back, so it decodes.
    fn stored_annotations(&self, id: &str) -> Result<Option<ExtractedAnnotations>, StorageError> {
        let payload = self.stored_payload(id)?;
        Ok(payload.map(|payload| {
            durability::decode_payload(payload.as_bytes())
                .expect("a stored payload reads back")
                .annotations
        }))
    }

    /// The report's BRAT annotation export, as of this snapshot (see
    /// [`Create::annotations`]): rendered from its stored extraction.
    pub fn annotations(&self, id: &str) -> Result<Option<BratDocument>, StorageError> {
        Ok(self.stored_annotations(id)?.map(|a| a.to_brat()))
    }

    /// Cohort retrieval against this snapshot (see [`Create::cohort`]).
    pub fn cohort(&self, criteria: &CohortCriteria) -> CohortResult {
        self.cohort_with_mode(criteria, PlanMode::Optimized)
    }

    /// [`Snapshot::cohort`] with an explicit execution mode (see
    /// [`Create::cohort_with_mode`]).
    pub fn cohort_with_mode(&self, criteria: &CohortCriteria, mode: PlanMode) -> CohortResult {
        let _span = create_obs::child_span(obs_names::SPAN_COHORT);
        let plan = {
            let _span = Span::enter(obs_names::QUERY_STAGE_SECONDS, obs_names::QSTAGE_PLAN);
            match mode {
                PlanMode::Optimized => plan::lower_cohort(criteria).optimize(),
                PlanMode::Naive => plan::lower_cohort(criteria),
            }
        };
        plan::execute(&self.shards, &plan, mode)
    }
}

/// The CREATe platform.
pub struct Create {
    pub(crate) ontology: Arc<Ontology>,
    /// The one write lock: every write operation holds it end-to-end.
    pub(crate) writers: Mutex<Writers>,
    /// The published composite snapshot; every read loads this
    /// (lock-free with respect to writers — a load never waits on an
    /// in-flight batch).
    pub(crate) current: ArcCell<Snapshot>,
    /// The one memo on the search path: `(query text, k, policy)` → the
    /// whole answer, stamped with the composite generation (see
    /// [`crate::cache`]).
    cache: Mutex<QueryCache>,
    /// Durable storage root (`None` for in-memory instances): the
    /// storage directory and the live segment manifest.
    pub(crate) storage: Option<StorageRoot>,
}

impl std::fmt::Debug for Create {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        let snapshot = self.snapshot();
        f.debug_struct("Create")
            .field("reports", &stats.reports)
            .field("shards", &snapshot.shard_count())
            .field("graph_nodes", &stats.graph_nodes)
            .field("tagger", &snapshot.shards[0].tagger.is_some())
            .finish()
    }
}

impl Create {
    /// Builds an empty in-memory platform over the built-in clinical
    /// ontology. An out-of-range `shards` value is clamped into
    /// `1..=MAX_SHARDS` (with a warning and a bad-config tick).
    pub fn new(config: CreateConfig) -> Create {
        register_metrics();
        let shards = clamp_shards(config.shards);
        register_shard_metrics(shards);
        let shards = (0..shards).map(|_| empty_writer()).collect();
        let ontology = Arc::new(create_ontology::clinical_ontology());
        Create::build(
            ontology,
            Writers {
                next_ordinal: 0,
                shards,
            },
            None,
        )
    }

    /// Assembles the facade around its write state and (for disk-backed
    /// instances) the durable storage root, publishing what the writers
    /// hold.
    pub(crate) fn build(
        ontology: Arc<Ontology>,
        writers: Writers,
        storage: Option<StorageRoot>,
    ) -> Create {
        let published = writers
            .shards
            .iter()
            .map(|w| Arc::new(w.shard.clone()))
            .collect();
        let snapshot = Snapshot {
            shards: published,
            ontology: Arc::clone(&ontology),
        };
        Create {
            ontology,
            writers: Mutex::new(writers),
            current: ArcCell::new(Arc::new(snapshot)),
            cache: Mutex::new(QueryCache::new(QUERY_CACHE_CAPACITY)),
            storage,
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
        self.current.load().shard_count()
    }

    /// Per-shard generation stamps from the published snapshot.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.current.load().shard_generations()
    }

    /// The shared ontology (for training taggers against the same concept
    /// inventory).
    pub fn ontology(&self) -> Arc<Ontology> {
        Arc::clone(&self.ontology)
    }

    /// The property graph of every report as of the current snapshot,
    /// built on demand (for Cypher-level read queries and diagnostics;
    /// see [`Snapshot::graph`]).
    pub fn graph(&self) -> Result<PropertyGraph, StorageError> {
        self.current.load().graph()
    }

    /// Shard 0's event records as of the current snapshot, by doc id
    /// (the whole column in single-shard deployments).
    pub fn events(&self) -> Arc<EventColumn> {
        Arc::clone(&self.current.load().shards[0].events)
    }

    /// Shard 0's inverted index as of the current snapshot (the whole
    /// index in single-shard deployments).
    pub fn index(&self) -> Arc<Index> {
        Arc::clone(&self.current.load().shards[0].index)
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
        let start = Instant::now();
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
                let answer = Arc::new(self.search_against(&snapshot, query, k, policy));
                if let Ok(mut cache) = self.cache.lock() {
                    cache.insert(query, k, policy, generation, Arc::clone(&answer));
                }
                answer
            }
        };
        drop(span);
        note_query(start.elapsed().as_secs_f64());
        answer
    }

    /// The uncached execution path behind [`Create::search_answer`],
    /// against an explicit snapshot — the one loaded there, or one a
    /// caller pinned: the query is parsed, lowered into its typed plan,
    /// and the plan run by the one executor over every shard of the
    /// snapshot (see [`crate::plan`]).
    pub fn search_against(
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

    /// Answers a batch of queries in parallel over the global pool.
    /// Results are in query order and identical to calling
    /// [`Create::search_with_policy`] per query — search is read-only, so
    /// the fan-out needs no coordination beyond the pool. This is how the
    /// server amortizes concurrent user queries.
    pub fn search_many<S: AsRef<str> + Sync>(
        &self,
        queries: &[S],
        k: usize,
        policy: MergePolicy,
    ) -> Vec<Vec<SearchHit>> {
        ThreadPool::global().parallel_map(queries, |_, q| {
            self.search_with_policy(q.as_ref(), k, policy)
        })
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
        self.current.load().cohort_with_mode(criteria, mode)
    }

    /// Parses a criteria JSON document against this instance's ontology
    /// and answers it — the `/cohort` endpoint's entry point.
    pub fn cohort_from_json(&self, json: &Value) -> Result<CohortResult, String> {
        let criteria = plan::parse_cohort_criteria(json, &self.ontology)?;
        Ok(self.cohort(&criteria))
    }

    /// Fetches a stored report document from its owning shard: `Ok(None)`
    /// for an unknown id, an error when a sealed report's payload does
    /// not read back from its segment file (see [`crate::payloads`]).
    pub fn report(&self, id: &str) -> Result<Option<Value>, StorageError> {
        self.current.load().report(id)
    }

    /// Renders a report's BRAT annotation export from the extraction its
    /// owning shard stores, fetched as [`Create::report`] fetches the
    /// report.
    pub fn annotations(&self, id: &str) -> Result<Option<BratDocument>, StorageError> {
        self.current.load().annotations(id)
    }

    /// Renders the Fig-7 network-graph visualization of a report's events
    /// — its event mentions and the temporal edges between them — from
    /// the extraction its owning shard stores, fetched as
    /// [`Create::report`] fetches the report. `Ok(None)` for an unknown
    /// id or a report without events.
    pub fn visualize(&self, id: &str) -> Result<Option<String>, StorageError> {
        let Some(annotations) = self.current.load().stored_annotations(id)? else {
            return Ok(None);
        };
        let events = graph_build::event_mentions(&annotations);
        if events.is_empty() {
            return Ok(None);
        }
        let nodes = (events.iter().map(|&i| &annotations.mentions[i]))
            .map(|m| VizNode {
                label: m.text.clone(),
                kind: m.etype.label().to_string(),
            })
            .collect();
        let edges = graph_build::temporal_edges(&annotations, &events);
        let edges = (graph_build::walk_order(edges).into_iter())
            .map(|(source, target, rel)| VizEdge {
                source: source as usize,
                target: target as usize,
                label: rel.label().to_string(),
            })
            .collect();
        let viz = VizGraph { nodes, edges };
        Ok(Some(render_svg(&viz, &SvgOptions::default())))
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use create_corpus::{CaseReport, CorpusConfig, Generator, QuerySet};

    pub(crate) fn loaded_system(n: usize, seed: u64) -> (Create, Vec<CaseReport>) {
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

    pub(crate) fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "create-core-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn annotations_render_the_gold_export() {
        let (system, reports) = loaded_system(3, 3);
        for report in &reports {
            let brat = system
                .annotations(&report.id)
                .unwrap()
                .expect("a known report");
            assert_eq!(
                brat.serialize(),
                create_annotate::case_report_to_brat(report).serialize()
            );
            assert!(brat.validate(&report.text).is_ok());
        }
        assert!(system.annotations("no-such-report").unwrap().is_none());
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
            let doc = system.report(&h.report_id).unwrap().unwrap();
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
        let svg = system.visualize(&reports[0].id).unwrap().expect("svg");
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<circle"));
        assert_eq!(system.visualize("no-such-report").unwrap(), None);
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
        let nodes_before = snapshot.graph().unwrap().node_count();
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
        assert_eq!(snapshot.graph().unwrap().node_count(), nodes_before);
        // ...while new reads observe the publish.
        assert_eq!(system.snapshot().generation(), 6);
        assert!(system.stats().graph_nodes > nodes_before);
    }

    #[test]
    fn search_many_matches_individual_searches() {
        let (system, _) = loaded_system(30, 25);
        let queries = ["fever and cough", "chest pain", "syncope after fever", ""];
        let batched = system.search_many(&queries, 5, MergePolicy::Neo4jFirst);
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
}
