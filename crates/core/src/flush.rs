//! Making the platform durable: [`Create::flush`], the seal every flush
//! and every open ends with ([`seal_tails`]), and the compaction a flush
//! triggers ([`compact_shards`]).

use crate::durability::{self, COMPACT_SEGMENT_THRESHOLD};
use crate::{ingest::IngestError, system::Create, writer::Writer};
use create_storage::manifest::{segment_file_name, sweep_orphans};
use create_storage::segment::PayloadFile;
use create_storage::{Manifest, SegmentMeta, ShardManifest};
use std::sync::Arc;
use std::{path::Path, time::Instant};

impl Create {
    /// Persists every shard: fsyncs the WALs, seals each shard's
    /// unsealed documents (postings, facets, stored documents) into an
    /// immutable on-disk segment registered by an atomic manifest swap
    /// (after which the WALs reset — recovery cost returns to zero), and
    /// compacts shards that accumulated enough segments. The shards that
    /// sealed are published as they are now — the same documents, so no
    /// cached answer dies — their unsealed in-RAM segments merged into
    /// the one the seal wrote and their unsealed payloads read from it;
    /// the shards that compacted are published again, their payloads read
    /// from the compacted file. An in-memory instance has nothing to
    /// persist: every write froze its documents when it published them.
    pub fn flush(&self) -> Result<(), IngestError> {
        let Some(root) = self.storage.as_ref() else {
            return Ok(());
        };
        let compacted = {
            let mut writers = self.lock_writers();
            for writer in &mut writers.shards {
                writer.wal_sync()?;
            }
            let mut manifest = root.lock_manifest();
            let sealed = seal_tails(&mut writers.shards, &mut manifest, &root.dir, false)?;
            self.publish_shards(&writers, sealed);
            let compacted = compact_shards(&mut writers.shards, &mut manifest, &root.dir)?;
            self.publish_shards(&writers, compacted.iter().copied());
            durability::refresh_segment_gauges(&manifest);
            compacted
        };
        if !compacted.is_empty() {
            // Writes free what they allocated in passing — extraction,
            // each batch's own segment, the copies a publish leaves behind
            // — in the arena of whichever worker ran them, and glibc keeps
            // it there. A compaction is where trimming pays for its walk
            // (DESIGN.md, *Memory after a compaction*, measured again once
            // a write stopped copying the index); the locks are released
            // by now.
            create_util::release_free_heap();
        }
        Ok(())
    }
}

/// Seals every shard's unsealed documents into a new segment, then — if
/// one was written, or `store_anyway` (a fresh data directory at open) —
/// registers them all in one manifest swap and only after it lands
/// resets each WAL, sweeps orphans and marks the documents sealed in the
/// index ([`Index::seal`](create_index::Index::seal)) and in the payload
/// column, which reads them from the new file from then on (a failed
/// swap leaves them unsealed, to the next seal). A crash before the swap
/// replays them from the old WALs; a crash after it skips the (now
/// sealed) records by ordinal. Sealing nothing writes nothing. Returns
/// the shards that sealed.
pub(crate) fn seal_tails(
    writers: &mut [Writer],
    manifest: &mut Manifest,
    dir: &Path,
    store_anyway: bool,
) -> Result<Vec<usize>, IngestError> {
    let mut sealed = Vec::with_capacity(writers.len());
    for (writer, entry) in writers.iter_mut().zip(&mut manifest.shards) {
        sealed.push(seal_tail(writer, entry)?);
    }
    if sealed.iter().all(Option::is_none) && !store_anyway {
        return Ok(Vec::new());
    }
    manifest.store(dir).map_err(IngestError::Storage)?;
    let mut touched = Vec::new();
    for (i, ((writer, entry), sealed)) in writers
        .iter_mut()
        .zip(&manifest.shards)
        .zip(sealed)
        .enumerate()
    {
        let Some(storage) = writer.storage.as_mut() else {
            continue;
        };
        storage.wal.reset().map_err(IngestError::Storage)?;
        sweep_orphans(&storage.dir, entry);
        if let Some(payloads) = sealed {
            Arc::make_mut(&mut writer.shard.index).seal();
            Arc::make_mut(&mut writer.shard.docs).seal(payloads);
            touched.push(i);
        }
    }
    Ok(touched)
}

/// Seals a shard's unsealed documents (`[sealed_docs..num_docs)`) into a
/// new on-disk segment and registers it in the shard's manifest entry:
/// the index merges its unsealed segments into one
/// ([`Index::merge_unsealed`](create_index::Index::merge_unsealed)),
/// whose blob is the file's postings region. Returns the new file's
/// payloads, or `None` when there was nothing to seal.
fn seal_tail(
    writer: &mut Writer,
    entry: &mut ShardManifest,
) -> Result<Option<PayloadFile>, IngestError> {
    let Some(storage) = writer.storage.as_ref() else {
        return Ok(None);
    };
    let (base, num) = (
        writer.shard.index.sealed_docs(),
        writer.shard.index.num_docs(),
    );
    if num == base {
        return Ok(None);
    }
    let started = Instant::now();
    let postings = Arc::make_mut(&mut writer.shard.index)
        .merge_unsealed()
        .map_err(IngestError::Index)?
        .expect("documents are unsealed");
    let file = segment_file_name(entry.next_segment_id);
    let shard = &writer.shard;
    let (info, payloads) = durability::write_tail(&storage.dir.join(&file), shard, base, &postings)
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
    Ok(Some(payloads))
}

/// Compacts every shard that reached [`COMPACT_SEGMENT_THRESHOLD`]
/// segments; the rewrites land in one manifest swap, after which each
/// such shard's payload column reads from its compacted file, and the
/// replaced files are orphans and are swept — a snapshot that still
/// holds one reads on through its open descriptor. Returns the shards
/// that compacted.
fn compact_shards(
    writers: &mut [Writer],
    manifest: &mut Manifest,
    dir: &Path,
) -> Result<Vec<usize>, IngestError> {
    let mut compacted = Vec::new();
    for (i, (writer, entry)) in writers.iter().zip(&mut manifest.shards).enumerate() {
        let Some(storage) = writer.storage.as_ref() else {
            continue;
        };
        if entry.segments.len() < COMPACT_SEGMENT_THRESHOLD {
            continue;
        }
        let payloads = durability::compact_shard(&storage.dir, entry, &writer.shard.index)
            .map_err(IngestError::Storage)?;
        durability::note_compaction(payloads.docs() as u64);
        compacted.push((i, payloads));
    }
    if compacted.is_empty() {
        return Ok(Vec::new());
    }
    manifest.store(dir).map_err(IngestError::Storage)?;
    let touched = compacted.iter().map(|&(i, _)| i).collect();
    for (i, payloads) in compacted {
        let writer = &mut writers[i];
        Arc::make_mut(&mut writer.shard.docs).compacted(payloads);
        if let Some(storage) = writer.storage.as_ref() {
            sweep_orphans(&storage.dir, &manifest.shards[i]);
        }
    }
    Ok(touched)
}

#[cfg(test)]
mod tests {
    use crate::system::tests::temp_dir;
    use crate::{Create, CreateConfig};
    use create_corpus::{CorpusConfig, Generator};

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
            assert!(
                system.report(&r.id).unwrap().is_some(),
                "report {} lost",
                r.id
            );
        }
        assert!(system
            .search(&reports[0].title, 5)
            .iter()
            .any(|h| h.report_id == reports[0].id));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
