//! Making the platform durable: [`Create::flush`], the seal every flush
//! and every open ends with ([`seal_tails`]), and the compaction a flush
//! triggers ([`compact_shards`]).

use crate::durability::{self, COMPACT_SEGMENT_THRESHOLD};
use crate::{ingest::IngestError, system::Create, writer::Writer};
use create_index::codec;
use create_storage::manifest::{segment_file_name, sweep_orphans};
use create_storage::{Manifest, SegmentMeta, ShardManifest};
use std::{path::Path, time::Instant};

impl Create {
    /// Persists every shard: fsyncs the WALs, seals each shard's
    /// unsealed tail (postings, facets, stored documents) into an immutable
    /// on-disk segment registered by an atomic manifest swap (after
    /// which the WALs reset — recovery cost returns to zero, and the
    /// index's tail is frozen in RAM), and compacts shards that
    /// accumulated enough segments. An in-memory instance has nothing to
    /// persist and only freezes its tails, so the writes after it copy
    /// what they add, not what came before. Either way the shards whose
    /// tails froze are published as they are now — the same documents,
    /// so no cached answer dies — and the published tails' posting lists
    /// are freed once no reader holds them: the frozen segments are the
    /// tails' encodings, not the lists.
    pub fn flush(&self) -> Result<(), IngestError> {
        let compacted = {
            let mut writers = self.lock_writers();
            for writer in &mut writers.shards {
                writer.wal_sync()?;
            }
            let frozen: Vec<usize> = (0..writers.shards.len())
                .filter(|&i| writers.shards[i].shard.index.tail().num_docs() > 0)
                .collect();
            let Some(root) = self.storage.as_ref() else {
                for writer in &mut writers.shards {
                    writer.freeze();
                }
                self.publish_shards(&writers, frozen);
                return Ok(());
            };
            let mut manifest = root.lock_manifest();
            seal_tails(&mut writers.shards, &mut manifest, &root.dir, false)?;
            self.publish_shards(&writers, frozen);
            let compacted = compact_shards(&writers.shards, &mut manifest, &root.dir)?;
            durability::refresh_segment_gauges(&manifest);
            compacted
        };
        if compacted {
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

/// Seals every shard's unsealed tail into a new segment, then — if one
/// was written, or `store_anyway` (a fresh data directory at open) —
/// registers them all in one manifest swap and only after it lands
/// resets each WAL, advances `sealed_docs`, sweeps orphans and freezes
/// the index's tail as the postings the seal wrote (a failed swap leaves
/// the tail to the next seal). A crash before the swap replays the tails
/// from the old WALs; a crash after it skips the (now sealed) records by
/// ordinal. Sealing nothing writes nothing.
pub(crate) fn seal_tails(
    writers: &mut [Writer],
    manifest: &mut Manifest,
    dir: &Path,
    store_anyway: bool,
) -> Result<(), IngestError> {
    let mut sealed = Vec::with_capacity(writers.len());
    for (writer, entry) in writers.iter_mut().zip(&mut manifest.shards) {
        sealed.push(seal_tail(writer, entry)?);
    }
    if sealed.iter().all(Option::is_none) && !store_anyway {
        return Ok(());
    }
    manifest.store(dir).map_err(IngestError::Storage)?;
    for ((writer, entry), postings) in writers.iter_mut().zip(&manifest.shards).zip(sealed) {
        let num_docs = writer.shard.index.num_docs();
        let Some(storage) = writer.storage.as_mut() else {
            continue;
        };
        storage.wal.reset().map_err(IngestError::Storage)?;
        storage.sealed_docs = num_docs;
        sweep_orphans(&storage.dir, entry);
        if let Some(postings) = postings {
            writer.freeze_encoded(postings);
        }
    }
    Ok(())
}

/// Seals a shard's unsealed tail (`[sealed_docs..num_docs)`) into a new
/// on-disk segment and registers it in the shard's manifest entry.
/// Returns the postings region it wrote — the tail's encoding — or
/// `None` when there was nothing to seal.
fn seal_tail(writer: &Writer, entry: &mut ShardManifest) -> Result<Option<Vec<u8>>, IngestError> {
    let shard = &writer.shard;
    let num = shard.index.num_docs();
    let Some(storage) = writer.storage.as_ref() else {
        return Ok(None);
    };
    if num <= storage.sealed_docs {
        return Ok(None);
    }
    let started = Instant::now();
    let base = storage.sealed_docs;
    let file = segment_file_name(entry.next_segment_id);
    let mut postings = Vec::new();
    codec::encode_index_tail(&shard.index, &mut postings).expect("a Vec takes every byte");
    let info = durability::write_tail(&storage.dir.join(&file), shard, base, &postings)
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
    Ok(Some(postings))
}

/// Compacts every shard that reached [`COMPACT_SEGMENT_THRESHOLD`]
/// segments; the rewrites land in one manifest swap, after which the
/// replaced files are orphans and are swept. Returns whether a shard was
/// compacted.
fn compact_shards(
    writers: &[Writer],
    manifest: &mut Manifest,
    dir: &Path,
) -> Result<bool, IngestError> {
    let mut compacted = false;
    for (writer, entry) in writers.iter().zip(&mut manifest.shards) {
        let Some(storage) = writer.storage.as_ref() else {
            continue;
        };
        if entry.segments.len() < COMPACT_SEGMENT_THRESHOLD {
            continue;
        }
        let merged = durability::compact_shard(&storage.dir, entry, &writer.shard.index)
            .map_err(IngestError::Storage)?;
        durability::note_compaction(merged);
        compacted = true;
    }
    if compacted {
        manifest.store(dir).map_err(IngestError::Storage)?;
        for (writer, entry) in writers.iter().zip(&manifest.shards) {
            if let Some(storage) = writer.storage.as_ref() {
                sweep_orphans(&storage.dir, entry);
            }
        }
    }
    Ok(compacted)
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
            assert!(system.report(&r.id).is_some(), "report {} lost", r.id);
        }
        assert!(system
            .search(&reports[0].title, 5)
            .iter()
            .any(|h| h.report_id == reports[0].id));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
