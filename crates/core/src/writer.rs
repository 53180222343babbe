//! The write half of the platform: the one write lock on [`Create`],
//! its value [`Writers`] — one [`Writer`] per shard and the next ingest
//! ordinal — the publish that ends every write operation, and the one
//! that is not an ingest, [`Create::attach_tagger`].

use crate::durability::{self, DocPayload, ReportFields, ShardStorage};
use crate::graph_build::EventRecord;
use crate::system::{Create, ShardSnapshot, Snapshot};
use crate::{ingest::IngestError, pipeline::ExtractedAnnotations};
use create_index::{index::IndexError, Index, Segment};
use create_ner::CrfTagger;
use create_obs::{names as obs_names, Span};
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

impl Create {
    /// Takes the write lock, recovering (and counting) a poisoned one: a
    /// panicking write leaves per-operation invariants intact, so serving
    /// on is strictly better than wedging every future write.
    pub(crate) fn lock_writers(&self) -> MutexGuard<'_, Writers> {
        self.writers.lock().unwrap_or_else(|poisoned| {
            if create_obs::enabled() {
                create_obs::counter(obs_names::LOCK_POISONED_TOTAL).inc();
                create_obs::log(
                    create_obs::Level::Warn,
                    "create-core",
                    "recovered a poisoned write lock".to_string(),
                );
            }
            poisoned.into_inner()
        })
    }

    /// Holds the one write lock until the returned guard drops, as every
    /// write operation does from start to publish: writes wait for it,
    /// reads do not. For tests that read while a write is open.
    #[doc(hidden)]
    #[must_use = "the lock is released when the guard drops"]
    pub fn hold_write_lock(&self) -> impl Sized + '_ {
        self.lock_writers()
    }

    /// Rebuilds the composite snapshot — sharing the state of exactly the
    /// shards in `touched` (reference counts, no table is copied) and
    /// reusing the published `Arc`s for the rest — and swaps it in
    /// atomically. One call per write operation, made with the write lock
    /// held (`writers` is its value), so readers always observe a
    /// complete generation vector, never a torn mix.
    pub(crate) fn publish_shards(
        &self,
        writers: &Writers,
        touched: impl IntoIterator<Item = usize>,
    ) {
        let started = Instant::now();
        let mut shards = self.current.load().shards.clone();
        for i in touched {
            shards[i] = Arc::new(writers.shards[i].shard.clone());
            if create_obs::enabled() {
                create_obs::counter_with(
                    obs_names::SHARD_PUBLISH_TOTAL,
                    &[("shard", &i.to_string())],
                )
                .inc();
            }
        }
        self.current.store(Arc::new(Snapshot {
            shards,
            ontology: Arc::clone(&self.ontology),
        }));
        if create_obs::enabled() {
            create_obs::counter(obs_names::SNAPSHOT_PUBLISH_TOTAL).inc();
            create_obs::histogram(obs_names::SNAPSHOT_PUBLISH_SECONDS)
                .observe(started.elapsed().as_secs_f64());
        }
    }

    /// Attaches a trained NER tagger, enabling automatic extraction for
    /// raw-text/PDF ingestion and model-based query parsing. A query
    /// parses differently under the new tagger, so this is a write like
    /// any other: every shard's generation is bumped and answers cached
    /// before the attachment die on first touch.
    pub fn attach_tagger(&self, tagger: CrfTagger) {
        let tagger = Arc::new(tagger);
        let mut writers = self.lock_writers();
        for writer in &mut writers.shards {
            writer.shard.tagger = Some(Arc::clone(&tagger));
            writer.shard.generation += 1;
        }
        self.publish_shards(&writers, 0..writers.shards.len());
    }
}

/// The value of the one write lock. Every write operation holds the
/// lock from start to publish, so writes run one at a time; readers
/// never take it.
pub(crate) struct Writers {
    /// The next global ingest ordinal.
    pub(crate) next_ordinal: u64,
    /// One writer per shard, in shard order (see
    /// [`shard_index`](crate::system::shard_index)).
    pub(crate) shards: Vec<Writer>,
}

/// The write half of one shard.
pub(crate) struct Writer {
    /// The shard's state. After a publish its tables are shared with the
    /// published snapshot, and every write reaches them through
    /// `Arc::make_mut`, so the first write copies what it touches — the
    /// index's segment list and the columns' last chunks —
    /// and readers never see a change.
    pub(crate) shard: ShardSnapshot,
    /// Durable state (WAL + sealed segments) — `None` for in-memory
    /// instances, which skip the log entirely.
    pub(crate) storage: Option<ShardStorage>,
}

impl Writer {
    /// Appends one document's record to the shard's WAL (nothing, for an
    /// in-memory instance). Called *before* the corresponding in-memory
    /// apply, so any write the system goes on to acknowledge is already
    /// recoverable from the log.
    pub(crate) fn wal_log(
        &mut self,
        ordinal: u64,
        payload: &DocPayload<'_>,
    ) -> Result<(), IngestError> {
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

    /// Puts one document into the shard: its event record, its ordinal
    /// and — `Some` for a document no segment file holds yet — its
    /// stored payload as it is, spliced from serialized member texts.
    /// A document read from a segment file passes `None`: the file serves
    /// its payload, and recovery appends the file to the column once its
    /// documents are in ([`Payloads::push_file`](crate::payloads::Payloads::push_file)).
    /// Every document enters a shard here — the batch apply phase logs it
    /// to the WAL first, segment recovery and WAL replay call this alone
    /// — and its segment enters at the same doc id, through
    /// [`Writer::merge`] or, read from a file, [`Index::adopt_frozen`].
    pub(crate) fn apply(
        &mut self,
        ordinal: u64,
        fields: &ReportFields<'_>,
        annotations: &ExtractedAnnotations,
        payload: Option<&str>,
    ) {
        if let Some(payload) = payload {
            Arc::make_mut(&mut self.shard.docs).push(payload);
        }
        {
            let _span = Span::enter(
                obs_names::PIPELINE_STAGE_SECONDS,
                obs_names::STAGE_GRAPH_BUILD,
            );
            let record = EventRecord::new(fields.year, annotations);
            Arc::make_mut(&mut self.shard.events).push(Arc::new(record));
        }
        Arc::make_mut(&mut self.shard.ordinals).push(ordinal);
    }

    /// Merges a segment — postings and facets — after the shard's
    /// documents. Workers or WAL replay built it; a segment file's enters
    /// by [`Index::adopt_frozen`] instead. It is frozen as it enters
    /// ([`Index::merge_segment`]), so a merge after a publish copies the
    /// index's list of segment pointers, never a segment.
    pub(crate) fn merge(&mut self, segment: Segment) -> Result<(), IndexError> {
        let _span = Span::enter(
            obs_names::PIPELINE_STAGE_SECONDS,
            obs_names::STAGE_INDEX_WRITE,
        );
        Arc::make_mut(&mut self.shard.index).merge_segment(segment)
    }

    /// Fsyncs the shard's WAL — the durability point of the write path,
    /// reached once per operation before the publish that acknowledges
    /// it.
    pub(crate) fn wal_sync(&mut self) -> Result<(), IngestError> {
        let Some(storage) = self.storage.as_mut() else {
            return Ok(());
        };
        let started = Instant::now();
        storage.wal.sync().map_err(IngestError::Storage)?;
        durability::note_wal_sync(started.elapsed().as_secs_f64());
        Ok(())
    }
}

pub(crate) fn empty_writer() -> Writer {
    Writer {
        shard: ShardSnapshot {
            generation: 0,
            docs: Arc::default(),
            events: Arc::default(),
            index: Arc::new(Index::clinical()),
            tagger: None,
            ordinals: Arc::default(),
        },
        storage: None,
    }
}
