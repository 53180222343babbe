//! CREATe-IR: the end-to-end clinical case-report platform (the paper's
//! primary contribution).
//!
//! This crate wires every substrate into the system of Fig. 3: reports are
//! ingested (from gold-annotated corpus entries, raw text, or PDF
//! submissions via the Grobid substrate), their entities and temporal
//! relations extracted, then stored three ways — one stored JSON payload
//! per report (MongoDB role), one event record per report, the part of
//! the property graph the graph engine reads (Neo4j role; Cypher gets
//! the graph itself built on demand), and the inverted index
//! (ElasticSearch role). Queries run through the same information
//! extraction ("A patient was admitted to the hospital because of fever
//! and cough." → hospital/Nonbiological_location, fever+cough/Sign_symptom,
//! OVERLAP(fever, cough)), are answered by both engines, and merged with
//! the Neo4j-first policy of Fig. 6.
//!
//! * [`pipeline`] — ingestion: annotation sourcing (gold vs. automatic
//!   tagging), sentence/timeline assignment, query information extraction;
//! * [`graph_build`] — report → event record, and the property graph
//!   built from the stored reports;
//! * [`search`] — keyword engine, graph engine, merge policies;
//! * [`eval`] — retrieval metrics (P@k, MRR, nDCG@k);
//! * [`cache`] — the one memo on the search path: a generation-stamped
//!   LRU from `(query text, k, policy)` to the whole answer;
//! * [`plan`] — the typed query-plan IR: lowering, normalization, and the
//!   one executor both `/search` and `/cohort` run (filter pushdown over
//!   facet bitmaps, temporal-interval constraints, the graph and keyword
//!   legs, and the merge);
//! * [`system`] — the [`Create`] facade, its [`Snapshot`] and the read
//!   API; the write side is [`writer`] (the one write lock and the
//!   publish), [`ingest`] (the one write route), [`recovery`]
//!   ([`Create::open`]) and [`flush`] ([`Create::flush`]);
//! * [`durability`] — WAL/segment/manifest glue onto `create-storage`;
//! * [`payloads`] — a shard's stored payloads: the sealed ones read from
//!   their segment files, the unsealed ones in RAM;
//! * [`stats`] — the `*Stats` readouts and metric pre-registration.

pub mod cache;
pub(crate) mod durability;
pub mod eval;
pub(crate) mod facet_build;
mod flush;
pub mod graph_build;
mod ingest;
mod payloads;
pub mod pipeline;
pub mod plan;
mod recovery;
pub mod search;
mod stats;
pub mod system;
mod writer;

pub use cache::CacheStats;
/// The storage failure a write, an open or a read of a sealed report
/// reports.
pub use create_storage::StorageError;
pub use durability::{decode_payload, decode_wal_record, DocPayload, ReportFields, StoredDoc};
pub use ingest::{IngestError, TextSubmission};
pub use pipeline::{ExtractedAnnotations, QueryIE};
pub use plan::{
    CohortCriteria, CohortResult, FacetCounts, FacetFilter, PlanMode, PlanNode, QueryPlan,
    TemporalConstraint, TemporalOp,
};
pub use search::{MergePolicy, SearchAnswer, SearchHit, SearchSource};
pub use stats::{FacetStats, MemoryStats, ShardSegments, StorageStats, SystemStats};
pub use system::{Create, CreateConfig, Snapshot};
