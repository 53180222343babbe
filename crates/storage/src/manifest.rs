//! The storage manifest: the single source of truth for which segment
//! files are live.
//!
//! A segment file only becomes visible to recovery once the manifest
//! names it, and the manifest is swapped atomically: serialize to
//! `MANIFEST.tmp`, fsync the file, rename over `MANIFEST`, fsync the
//! directory. A crash at any point leaves either the old or the new
//! manifest intact — never a blend — so recovery always sees a
//! consistent segment set. Orphaned segment files (written but never
//! named, or superseded by compaction) are deleted on the next
//! successful swap.

use crate::StorageError;
use create_docstore::json::{parse_json, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// Manifest file name inside the storage directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Bumped whenever the on-disk layout changes incompatibly. Format 2
/// stores a report's payload as its report and its extraction; a
/// format-1 directory also stored a BRAT export, and its gold
/// extractions lack their non-temporal relations, so it is refused.
pub const FORMAT_VERSION: i64 = 2;

/// One sealed, immutable segment file as registered in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name relative to the shard directory (`seg-NNNNNN.seg`).
    pub file: String,
    /// Number of documents the segment holds.
    pub docs: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// CRC-32 of the entire file (footer-verified on open).
    pub crc: u32,
    /// Smallest global ingest ordinal sealed into the segment.
    pub min_ordinal: u64,
    /// Largest global ingest ordinal sealed into the segment.
    pub max_ordinal: u64,
}

/// Per-shard manifest entry: the ordered list of live segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardManifest {
    /// Segments in ingest order; doc ids are assigned by concatenation.
    pub segments: Vec<SegmentMeta>,
    /// Monotonic counter naming the next segment file for this shard.
    pub next_segment_id: u64,
}

impl ShardManifest {
    /// Total documents across the shard's live segments.
    pub fn sealed_docs(&self) -> u64 {
        self.segments.iter().map(|s| s.docs).sum()
    }

    /// Total bytes across the shard's live segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }
}

/// The whole-engine manifest covering every shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Number of shards the data was written with; a mismatch at open
    /// forces a re-shard migration.
    pub shard_count: usize,
    pub shards: Vec<ShardManifest>,
}

impl Manifest {
    /// Fresh manifest for `shard_count` empty shards.
    pub fn new(shard_count: usize) -> Manifest {
        Manifest {
            shard_count,
            shards: vec![ShardManifest::default(); shard_count],
        }
    }

    /// Loads the manifest from `dir`, or `None` when no manifest exists
    /// (a fresh or legacy data directory).
    pub fn load(dir: &Path) -> Result<Option<Manifest>, StorageError> {
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(StorageError::io(&path)(err)),
        };
        let value = parse_json(&text).map_err(|err| StorageError::Corrupt {
            path: path.clone(),
            message: format!("manifest is not valid JSON: {err}"),
        })?;
        Self::from_value(&value)
            .map(Some)
            .map_err(|message| StorageError::Corrupt { path, message })
    }

    /// Atomically replaces the manifest in `dir` (tmp + fsync + rename
    /// + directory fsync).
    pub fn store(&self, dir: &Path) -> Result<(), StorageError> {
        std::fs::create_dir_all(dir).map_err(StorageError::io(dir))?;
        let tmp = dir.join(MANIFEST_TMP);
        let target = dir.join(MANIFEST_FILE);
        {
            use std::io::Write;
            let mut file = File::create(&tmp).map_err(StorageError::io(&tmp))?;
            file.write_all(self.to_value().to_json_pretty().as_bytes())
                .map_err(StorageError::io(&tmp))?;
            file.sync_all().map_err(StorageError::io(&tmp))?;
        }
        std::fs::rename(&tmp, &target).map_err(StorageError::io(&target))?;
        // Persist the rename itself: fsync the containing directory.
        if let Ok(dir_handle) = OpenOptions::new().read(true).open(dir) {
            let _ = dir_handle.sync_all();
        }
        Ok(())
    }

    /// Paths (relative file names per shard index) the manifest names;
    /// used to sweep orphaned segment files after a swap.
    pub fn live_files(&self) -> BTreeMap<usize, Vec<String>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| (i, shard.segments.iter().map(|s| s.file.clone()).collect()))
            .collect()
    }

    fn to_value(&self) -> Value {
        let mut root = Value::object();
        root.set("format", Value::from(FORMAT_VERSION));
        root.set("shard_count", Value::from(self.shard_count as i64));
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|shard| {
                let mut entry = Value::object();
                entry.set("next_segment_id", Value::from(shard.next_segment_id as i64));
                let segments: Vec<Value> = shard
                    .segments
                    .iter()
                    .map(|seg| {
                        let mut s = Value::object();
                        s.set("file", Value::from(seg.file.as_str()));
                        s.set("docs", Value::from(seg.docs as i64));
                        s.set("bytes", Value::from(seg.bytes as i64));
                        s.set("crc", Value::from(seg.crc as i64));
                        s.set("min_ordinal", Value::from(seg.min_ordinal as i64));
                        s.set("max_ordinal", Value::from(seg.max_ordinal as i64));
                        s
                    })
                    .collect();
                entry.set("segments", Value::Array(segments));
                entry
            })
            .collect();
        root.set("shards", Value::Array(shards));
        root
    }

    fn from_value(value: &Value) -> Result<Manifest, String> {
        let format = value
            .get("format")
            .and_then(Value::as_i64)
            .ok_or("missing format field")?;
        if format != FORMAT_VERSION {
            return Err(format!("unsupported manifest format {format}"));
        }
        let shard_count: usize = integer(value, "shard_count")?;
        let shards_value = value
            .get("shards")
            .and_then(Value::as_array)
            .ok_or("missing shards array")?;
        if shards_value.len() != shard_count {
            return Err(format!(
                "shard_count {} disagrees with {} shard entries",
                shard_count,
                shards_value.len()
            ));
        }
        let mut shards = Vec::with_capacity(shards_value.len());
        for entry in shards_value {
            let next_segment_id = integer(entry, "next_segment_id")?;
            let mut segments = Vec::new();
            for seg in entry
                .get("segments")
                .and_then(Value::as_array)
                .ok_or("missing segments array")?
            {
                segments.push(SegmentMeta {
                    file: seg
                        .get("file")
                        .and_then(Value::as_str)
                        .ok_or("segment missing file")?
                        .to_string(),
                    docs: integer(seg, "docs")?,
                    bytes: integer(seg, "bytes")?,
                    crc: integer(seg, "crc")?,
                    min_ordinal: integer(seg, "min_ordinal")?,
                    max_ordinal: integer(seg, "max_ordinal")?,
                });
            }
            shards.push(ShardManifest {
                segments,
                next_segment_id,
            });
        }
        Ok(Manifest {
            shard_count,
            shards,
        })
    }
}

/// `object`'s `key` as a non-negative integer in `T`'s range. Anything
/// else is refused, not cast: a cast reads `-1` as 2^64 − 1 and a `crc`
/// of 2^32 + 5 as 5.
fn integer<T: TryFrom<i64>>(object: &Value, key: &str) -> Result<T, String> {
    let value = object.get(key).ok_or_else(|| format!("missing {key}"))?;
    value
        .as_i64()
        // `as_i64` saturates a number past `i64`'s range to its maximum.
        .filter(|&n| n != i64::MAX)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| {
            format!(
                "{key} {} is not a non-negative integer in range",
                value.to_json()
            )
        })
}

/// Removes segment files in `shard_dir` that the shard manifest does
/// not name (crash leftovers and compacted-away inputs). WAL and
/// non-segment files are untouched. Best-effort: deletion failures are
/// ignored — an orphan is re-swept next time.
pub fn sweep_orphans(shard_dir: &Path, shard: &ShardManifest) {
    let Ok(entries) = std::fs::read_dir(shard_dir) else {
        return;
    };
    let live: Vec<&str> = shard.segments.iter().map(|s| s.file.as_str()).collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".seg") && !live.contains(&name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// File name for segment number `id` (zero-padded so lexicographic
/// order matches numeric order in directory listings).
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// Shard subdirectory name inside the storage directory.
pub fn shard_dir_name(index: usize) -> String {
    format!("shard-{index}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "create-manifest-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Manifest {
        let mut manifest = Manifest::new(2);
        manifest.shards[0].segments.push(SegmentMeta {
            file: segment_file_name(0),
            docs: 10,
            bytes: 2048,
            crc: 0xdead_beef,
            min_ordinal: 0,
            max_ordinal: 18,
        });
        manifest.shards[0].next_segment_id = 1;
        manifest.shards[1].next_segment_id = 0;
        manifest
    }

    #[test]
    fn store_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let manifest = sample();
        manifest.store(&dir).unwrap();
        let loaded = Manifest::load(&dir).unwrap().expect("manifest present");
        assert_eq!(loaded, manifest);
        assert!(
            !dir.join(MANIFEST_TMP).exists(),
            "tmp file cleaned by rename"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = temp_dir("missing");
        assert!(Manifest::load(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_manifest_is_corrupt_not_io() {
        let dir = temp_dir("garbage");
        std::fs::write(dir.join(MANIFEST_FILE), b"not json {{{").unwrap();
        match Manifest::load(&dir) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swap_replaces_previous_manifest() {
        let dir = temp_dir("swap");
        let mut manifest = sample();
        manifest.store(&dir).unwrap();
        manifest.shards[1].segments.push(SegmentMeta {
            file: segment_file_name(0),
            docs: 4,
            bytes: 512,
            crc: 1,
            min_ordinal: 19,
            max_ordinal: 22,
        });
        manifest.shards[1].next_segment_id = 1;
        manifest.store(&dir).unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, manifest);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_unnamed_segments() {
        let dir = temp_dir("sweep");
        let manifest = sample();
        std::fs::write(dir.join(segment_file_name(0)), b"live").unwrap();
        std::fs::write(dir.join(segment_file_name(7)), b"orphan").unwrap();
        std::fs::write(dir.join("wal.log"), b"wal").unwrap();
        sweep_orphans(&dir, &manifest.shards[0]);
        assert!(dir.join(segment_file_name(0)).exists());
        assert!(!dir.join(segment_file_name(7)).exists());
        assert!(dir.join("wal.log").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
