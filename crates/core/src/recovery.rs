//! Opening a disk-backed platform: [`Create::open`], with segment
//! recovery ([`Writer::recover_segment`]) and WAL replay
//! ([`Writer::replay_wal`]).

use crate::durability::{self, corrupt_at, ShardStorage, StorageRoot};
use crate::stats::{register_metrics, register_shard_metrics};
use crate::system::{clamp_shards, Create, CreateConfig, MAX_SHARDS};
use crate::writer::{empty_writer, Writer, Writers};
use crate::{facet_build::index_doc, flush::seal_tails, ingest::IngestError};
use create_obs::names as obs_names;
use create_storage::{manifest::shard_dir_name, Manifest, SegmentMeta, StorageError, Wal};
use std::path::Path;
use std::sync::{Arc, Mutex};

impl Create {
    /// Opens a disk-backed platform whose only on-disk state is
    /// `dir/storage`: the manifest, each shard's sealed segments, and
    /// each shard's WAL tail. Recovery is three steps:
    ///
    /// 1. **Load the manifest.** Its shard count is authoritative:
    ///    `config.shards` sizes a fresh directory only, and a differing
    ///    value is logged and ignored — documents never change shards.
    /// 2. **Per shard, recover each segment** in manifest order (the
    ///    original ingest order, so internal doc ids and ordinals come
    ///    out exactly as the writing process assigned them), each file
    ///    checked against its manifest entry (size, CRC, doc count, first
    ///    and last ordinal — the last is where WAL replay starts): every
    ///    stored payload is parsed where its block holds it and goes
    ///    through `Writer::apply` — refilling the event records and the
    ///    ordinals; no graph is built — and the file itself joins the
    ///    shard's payload column, which
    ///    reads the payloads from it from then on; the postings region is
    ///    checked and adopted undecoded, with the decoded facet region,
    ///    as one frozen in-RAM segment (`Index::adopt_frozen`), not
    ///    merged into one index.
    /// 3. **Replay the WAL tail** — whatever a flush had not yet sealed —
    ///    through the same two functions, its segment built by the
    ///    `index_doc` live ingestion uses; then seal every tail
    ///    ([`seal_tails`]) so the whole acknowledged corpus is
    ///    segment-durable and the WALs start empty before the instance
    ///    accepts writes.
    ///
    /// A kill-and-reopen therefore loses no acknowledged write, and
    /// cold-open cost scales with sealed bytes plus the unflushed tail.
    ///
    /// Rejected with [`IngestError::Config`]: a zero shard count (unlike
    /// [`Create::new`], nothing is clamped silently here), and a
    /// directory that holds a pre-storage-engine `reports.jsonl` but no
    /// manifest — that layout is no longer read.
    pub fn open(dir: impl AsRef<Path>, mut config: CreateConfig) -> Result<Create, IngestError> {
        register_metrics();
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
        let mut shards = Vec::with_capacity(config.shards);
        let (mut next_ordinal, mut replayed) = (0u64, 0u64);
        for (i, entry) in manifest.shards.iter().enumerate() {
            let mut writer = empty_writer();
            let shard_dir = storage_dir.join(shard_dir_name(i));
            for meta in &entry.segments {
                writer
                    .recover_segment(&shard_dir.join(&meta.file), meta)
                    .map_err(IngestError::Storage)?;
            }
            let sealed_max = entry.segments.last().map(|s| s.max_ordinal);
            let (wal, wal_replay) = Wal::open(shard_dir.join(create_storage::WAL_FILE))
                .map_err(IngestError::Storage)?;
            replayed += writer
                .replay_wal(wal.path(), &wal_replay.records, sealed_max)
                .map_err(IngestError::Storage)?;
            if let Some(&last) = writer.shard.ordinals.last() {
                next_ordinal = next_ordinal.max(last + 1);
            }
            writer.storage = Some(ShardStorage {
                wal,
                dir: shard_dir,
            });
            shards.push(writer);
        }
        durability::note_recovery(replayed);
        seal_tails(&mut shards, &mut manifest, &storage_dir, fresh)?;
        durability::refresh_segment_gauges(&manifest);
        Ok(Create::build(
            ontology,
            Writers {
                next_ordinal,
                shards,
            },
            Some(StorageRoot {
                dir: storage_dir,
                manifest: Mutex::new(manifest),
            }),
        ))
    }
}

impl Writer {
    /// Recovers one sealed segment, which must be the file its manifest
    /// entry `meta` describes ([`durability::load_segment`]): every
    /// document is applied as the file holds it, the file joins the
    /// payload column, which serves the payloads from it, and the
    /// postings region — no re-tokenization, no decoding — becomes one
    /// frozen segment of the shard's index with the facet region's
    /// bitmaps (the tier rule may merge it with the newest one before
    /// it). A document whose three ids disagree fails the segment.
    fn recover_segment(&mut self, path: &Path, meta: &SegmentMeta) -> Result<(), StorageError> {
        let template = Arc::clone(&self.shard.index);
        let (segment, payloads) =
            durability::load_segment(path, meta, &template, |ordinal, fields, annotations| {
                self.apply(ordinal, fields, annotations, None)
            })?;
        drop(template);
        Arc::make_mut(&mut self.shard.docs).push_file(payloads);
        let index = Arc::make_mut(&mut self.shard.index);
        index.adopt_frozen(segment).map_err(corrupt_at(path))
    }

    /// Replays the records of the WAL at `path` whose ordinal is past
    /// `sealed_max`, as one segment for the whole tail. A record that
    /// does not read back is corruption, never skipped. Returns the
    /// number of records replayed.
    fn replay_wal(
        &mut self,
        path: &Path,
        records: &[Vec<u8>],
        sealed_max: Option<u64>,
    ) -> Result<u64, StorageError> {
        let mut segment = self.shard.index.segment();
        let mut replayed = 0u64;
        for record in records {
            let (ordinal, payload) =
                durability::decode_wal_record(record).map_err(corrupt_at(path))?;
            // Already sealed: the crash hit between a seal and its WAL
            // reset.
            if sealed_max.is_some_and(|max| ordinal <= max) {
                continue;
            }
            let (fields, annotations) = (&payload.fields, &payload.annotations);
            index_doc(&mut segment, fields, annotations).map_err(corrupt_at(path))?;
            let text = durability::payload_text(&payload.texts);
            self.apply(ordinal, fields, annotations, Some(&text));
            replayed += 1;
        }
        self.merge(segment).map_err(corrupt_at(path))?;
        Ok(replayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::temp_dir;
    use create_corpus::{CorpusConfig, Generator};

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
                assert!(
                    message.contains("reports.jsonl"),
                    "names the file: {message}"
                )
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
                    system.report(&r.id).unwrap().map(|v| v.to_json()),
                    written.report(&r.id).unwrap().map(|v| v.to_json()),
                    "report {}",
                    r.id
                );
                assert_eq!(
                    system.annotations(&r.id).unwrap().map(|a| a.serialize()),
                    written.annotations(&r.id).unwrap().map(|a| a.serialize()),
                    "annotations of {}",
                    r.id
                );
            }
            assert_eq!(bits(&system), bits(&written));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
