//! The one write route: every ingest call — gold corpus entries, raw
//! text, PDF submissions; alone or in a batch — is
//! [`Create::ingest_batch`].

use crate::durability::{self, DocPayload, ReportFields};
use crate::system::{shard_index, Create};
use crate::writer::{Writer, Writers};
use crate::{facet_build::index_doc, pipeline::ExtractedAnnotations};
use create_corpus::CaseReport;
use create_docstore::{json::obj, Value};
use create_grobid::{process_pdf, ExtractedDocument, PdfError};
use create_index::{index::IndexError, Index, Segment};
use create_ner::CrfTagger;
use create_obs::names as obs_names;
use create_ontology::Ontology;
use create_storage::StorageError;
use create_util::ThreadPool;
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

impl Create {
    /// Ingests a gold-annotated corpus report (the curated literature
    /// path): stores the document and its annotations, records its
    /// events, and indexes the text — all in the report's owning shard. A batch
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
        self.snapshot().shards[0]
            .tagger
            .clone()
            .ok_or(IngestError::NoTagger)
    }

    /// Parallel batch ingestion of gold-annotated reports, split into
    /// `threads` contiguous worker ranges (0 = one per pool worker). The
    /// result is identical to calling [`Create::ingest_gold`] per report,
    /// for any thread count and any shard count: same
    /// [`SystemStats`](crate::SystemStats), same event records, same postings,
    /// same ingest ordinals. Searches keep running against the previous
    /// snapshot throughout; the batch becomes visible in one composite
    /// publish at the end.
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
            let d = &docs[i];
            PreparedDoc::from_text(&d.id, &d.title, &d.text, d.year, &tagger, &self.ontology)
        })
    }

    /// The one write route — a lone submit is a batch of one. Under the
    /// write lock: [`route_batch`], two pool phases ([`prepare_batch`],
    /// then [`regroup`] and [`apply_batch`]) and one composite publish of
    /// exactly the touched shards. Global ingest ordinals are
    /// `next_ordinal + batch position`, whatever the worker and shard
    /// counts.
    fn ingest_batch(
        &self,
        ids: &[&str],
        threads: usize,
        prepare: impl Fn(usize) -> PreparedDoc + Sync,
    ) -> Result<usize, IngestError> {
        let n = ids.len();
        if n == 0 {
            return Ok(0);
        }
        let mut writers = self.lock_writers();
        let routes = route_batch(&writers, ids)?;
        let workers = if threads == 0 {
            ThreadPool::global().threads()
        } else {
            threads
        };
        let shards = writers.shards.len();
        // Every shard's index has the same field configuration, so any
        // one can stamp out segments.
        let template = &writers.shards[0].shard.index;
        let ranges = worker_ranges(n, workers);
        let prepared = prepare_batch(template, &ranges, &routes, shards, &prepare);
        let base = writers.next_ordinal;
        let work = regroup(prepared, &routes, shards)?;
        let touched = apply_batch(&mut writers.shards, work, base)?;
        writers.next_ordinal = base + n as u64;
        self.publish_shards(&writers, touched);
        Ok(n)
    }
}

/// Each id's owning shard, once no id is already ingested or repeated in
/// the batch — checked against the held writers before any mutation, so
/// a failed batch leaves the system untouched.
fn route_batch(writers: &Writers, ids: &[&str]) -> Result<Vec<usize>, IngestError> {
    let mut seen = HashSet::new();
    ids.iter()
        .map(|&id| {
            let route = shard_index(id, writers.shards.len());
            if writers.shards[route].shard.index.internal_id(id).is_some() || !seen.insert(id) {
                return Err(IngestError::Duplicate(id.to_string()));
            }
            Ok(route)
        })
        .collect()
}

/// A worker range's prepared documents, with the segment it built for
/// each shard it reached.
type Prepared = (Vec<(usize, PreparedDoc)>, Vec<Option<Segment>>);

/// Phase 1: extraction and per-(worker, shard) segment builds across the
/// worker ranges, no shared mutable state.
fn prepare_batch(
    template: &Index,
    ranges: &[Range<usize>],
    routes: &[usize],
    shards: usize,
    prepare: &(impl Fn(usize) -> PreparedDoc + Sync),
) -> Vec<Result<Prepared, IngestError>> {
    ThreadPool::global().parallel_map(ranges, |_, range| {
        let mut segments: Vec<Option<Segment>> = (0..shards).map(|_| None).collect();
        let mut prepared = Vec::with_capacity(range.len());
        let mut index_elapsed = std::time::Duration::ZERO;
        for i in range.clone() {
            let doc = prepare(i);
            let t0 = Instant::now();
            let segment = segments[routes[i]].get_or_insert_with(|| template.segment());
            index_doc(segment, &doc.fields(), &doc.annotations).map_err(IngestError::Index)?;
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
}

/// Work redistributed to one shard's apply task: documents in batch
/// order, plus the index segments built for this shard (in worker-range
/// order, which is also batch order).
#[derive(Default)]
struct ShardWork {
    docs: Vec<(usize, PreparedDoc)>,
    segments: Vec<Segment>,
}

/// Regroups the prepared work by owning shard. Worker ranges are
/// contiguous and iterated in order, so each shard sees its documents
/// (and segments) in batch order — ordinals and internal doc ids come
/// out exactly as sequential ingestion would assign them. The first
/// failed range's error fails the batch.
fn regroup(
    prepared: Vec<Result<Prepared, IngestError>>,
    routes: &[usize],
    shards: usize,
) -> Result<Vec<ShardWork>, IngestError> {
    let mut per_shard: Vec<ShardWork> = (0..shards).map(|_| ShardWork::default()).collect();
    for task in prepared {
        let (docs, segments) = task?;
        for (i, doc) in docs {
            per_shard[routes[i]].docs.push((i, doc));
        }
        for (s, segment) in segments.into_iter().enumerate() {
            per_shard[s].segments.extend(segment);
        }
    }
    Ok(per_shard)
}

/// Phase 2: one pool task per shard that received documents, each
/// handed that shard's writer with its work — WAL record, then
/// [`Writer::apply`], per document; [`Writer::merge`] of the shard's
/// segments; one fsync; a generation bump. Returns the touched shards.
fn apply_batch(
    writers: &mut [Writer],
    work: Vec<ShardWork>,
    base: u64,
) -> Result<Vec<usize>, IngestError> {
    let touched = (0..work.len())
        .filter(|&s| !work[s].docs.is_empty())
        .collect();
    let tasks: Vec<Mutex<Option<(&mut Writer, ShardWork)>>> = writers
        .iter_mut()
        .zip(work)
        .filter(|(_, work)| !work.docs.is_empty())
        .map(|task| Mutex::new(Some(task)))
        .collect();
    let applied = ThreadPool::global().parallel_map(&tasks, |_, slot| {
        let (writer, work) = slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each shard's work is taken once");
        for &(i, ref doc) in &work.docs {
            // WAL first: the record is appended (and fsynced below)
            // before any in-memory apply, so every write the system
            // acknowledges is recoverable from the log. The record
            // and the shard's payload splice the same member texts.
            let ordinal = base + i as u64;
            let [extraction, report] = doc.stored_texts();
            let payload = DocPayload {
                extraction: &extraction,
                report: &report,
            };
            writer.wal_log(ordinal, &payload)?;
            writer.apply(
                ordinal,
                &doc.fields(),
                &doc.annotations,
                Some(&durability::payload_text(&payload)),
            );
        }
        for segment in work.segments {
            writer.merge(segment).map_err(IngestError::Index)?;
        }
        // One fsync covers the shard's whole batch slice — the
        // records are on disk before the composite publish
        // acknowledges the batch.
        writer.wal_sync()?;
        writer.shard.generation += 1;
        Ok(())
    });
    applied.into_iter().collect::<Result<(), _>>()?;
    Ok(touched)
}

/// Splits `0..n` into up to `workers` contiguous, near-equal ranges in
/// order — contiguity is what keeps parallel doc-id assignment identical
/// to sequential ingestion.
fn worker_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, n.max(1));
    let chunk = n.div_ceil(workers);
    (0..n)
        .step_by(chunk.max(1))
        .map(|start| start..(start + chunk).min(n))
        .collect()
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
        PreparedDoc {
            id: id.to_string(),
            title: title.to_string(),
            text: text.to_string(),
            year,
            category: "user".to_string(),
            authors: Vec::new(),
            pdf_affiliation: None,
            annotations,
        }
    }

    fn fields(&self) -> ReportFields<'_> {
        ReportFields {
            id: Cow::Borrowed(&self.id),
            title: Cow::Borrowed(&self.title),
            text: Cow::Borrowed(&self.text),
            year: self.year,
            category: Cow::Borrowed(&self.category),
        }
    }

    /// The two members of the report's payload (`extraction`, `report`),
    /// each serialized once: objects serialize key-sorted, so a text is
    /// the same whichever order its fields were set in.
    fn stored_texts(&self) -> [String; 2] {
        let mut report = obj([
            ("_id", self.id.as_str().into()),
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
        [self.annotations.to_json().to_json(), report.to_json()]
    }
}

/// Why a write operation (an ingest, [`Create::open`] or
/// [`Create::flush`]) failed.
#[derive(Debug)]
pub enum IngestError {
    /// Raw-text ingestion attempted without an attached tagger.
    NoTagger,
    /// Report id already ingested.
    Duplicate(String),
    /// PDF parsing failed.
    Pdf(PdfError),
    /// The inverted index refused a document or a segment.
    Index(IndexError),
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
            IngestError::Index(e) => write!(f, "index error: {e}"),
            IngestError::Storage(e) => write!(f, "{e}"),
            IngestError::Config(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Index(e) => Some(e),
            IngestError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::loaded_system;
    use crate::CreateConfig;
    use create_corpus::{CorpusConfig, Generator};
    use create_grobid::{write_pdf, PdfSource};

    /// A small CRF tagger trained on `reports` against `system`'s
    /// ontology.
    fn tiny_tagger(system: &Create, reports: &[CaseReport]) -> CrfTagger {
        let dataset =
            create_ner::NerDataset::from_reports(reports, create_ner::LabelSet::ner_targets());
        CrfTagger::train(
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
        )
    }

    #[test]
    fn ingest_populates_all_stores() {
        let (system, reports) = loaded_system(20, 1);
        let stats = system.stats();
        assert_eq!(stats.reports, 20);
        assert!(stats.graph_nodes > 20);
        assert!(stats.graph_edges > 20);
        assert!(stats.index_terms > 100);
        assert!(system.report(&reports[0].id).unwrap().is_some());
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
    fn pdf_ingestion_extracts_metadata() {
        let system = Create::new(CreateConfig::default());
        // A gazetteer-less system cannot auto-extract; attach a tiny tagger.
        let reports = Generator::new(CorpusConfig {
            num_reports: 15,
            seed: 7,
            ..Default::default()
        })
        .generate();
        system.attach_tagger(tiny_tagger(&system, &reports));
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
        let stored = system.report("user:pdf1").unwrap().unwrap();
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

    #[test]
    fn batch_ingest_matches_sequential_for_any_thread_count() {
        let (sequential, reports) = loaded_system(40, 21);
        let seq_stats = sequential.stats();
        // The encoding of every document of shard 0, however its writes
        // cut them into segments.
        let postings = |system: &Create| {
            let index = system.index();
            let inputs = index.frozen().map(|s| (s.blob(), s.blob().len() as u64));
            let mut blob = Vec::new();
            create_index::codec::merge_postings(inputs.collect(), &index, &mut blob).unwrap();
            blob
        };
        let seq_postings = postings(&sequential);
        for threads in [1, 2, 8] {
            let batched = Create::new(CreateConfig::default());
            assert_eq!(batched.ingest_gold_batch(&reports, threads).unwrap(), 40);
            assert_eq!(batched.stats(), seq_stats, "stats at {threads} threads");
            assert!(
                postings(&batched) == seq_postings,
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
        system.attach_tagger(tiny_tagger(&system, &reports));
        assert_eq!(system.ingest_text_batch(&submissions, 2).unwrap(), 2);
        assert_eq!(system.stats().reports, 2);
        // Tagger survives the batch (workers share it by `Arc`).
        assert!(system
            .ingest_text("user:3", "t", "More fever.", 2023)
            .is_ok());
        // And the batch path matches the per-document text path.
        let sequential = Create::new(CreateConfig::default());
        sequential.attach_tagger(tiny_tagger(&sequential, &reports));
        for s in &submissions {
            sequential
                .ingest_text(&s.id, &s.title, &s.text, s.year)
                .unwrap();
        }
        let batched = Create::new(CreateConfig::default());
        batched.attach_tagger(tiny_tagger(&batched, &reports));
        batched.ingest_text_batch(&submissions, 4).unwrap();
        assert_eq!(batched.stats(), sequential.stats());
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
            assert!(
                system.report(&r.id).unwrap().is_some(),
                "report {} lost",
                r.id
            );
            assert!(system.annotations(&r.id).unwrap().is_some());
        }
        // The composite generation advanced once per touched shard; the
        // sum of per-shard generations is the composite.
        let gens = system.shard_generations();
        assert_eq!(gens.len(), 3);
        assert_eq!(gens.iter().sum::<u64>(), system.snapshot().generation());
    }
}
