//! The per-shard write-ahead log.
//!
//! Every acknowledged write appends one framed record *before* the
//! in-memory apply: `[payload len: u32 LE][crc32(payload): u32 LE]
//! [payload]`, followed by an fsync. Recovery replays records in append
//! order and stops at the first frame that is short, overlong, or fails
//! its checksum — the torn tail a crash mid-append leaves behind — and
//! truncates the file there so the log is clean for new appends.
//! Everything before the torn frame was acknowledged and is replayed;
//! the torn frame itself was never acknowledged (the fsync hadn't
//! returned), so dropping it loses no acknowledged write.

use crate::checksum::crc32;
use crate::StorageError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header: 4-byte length + 4-byte CRC.
const FRAME_HEADER: usize = 8;
/// A single WAL payload is bounded far above any real record (reports
/// are a few KiB); anything larger is a corrupt length field.
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// An open write-ahead log, positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of valid framed records currently in the file.
    len: u64,
    /// Appends since the last [`Wal::sync`].
    dirty: bool,
}

/// The result of replaying a WAL file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Acknowledged record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of valid frames (the replay horizon).
    pub valid_len: u64,
    /// Bytes discarded past the horizon (0 for a clean log).
    pub truncated_bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scanning existing
    /// frames and truncating any torn tail so the file ends on a record
    /// boundary. Returns the log plus the replayable records.
    pub fn open(path: impl AsRef<Path>) -> Result<(Wal, WalReplay), StorageError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(StorageError::io(&path))?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)
            .map_err(StorageError::io(&path))?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))
            .map_err(StorageError::io(&path))?;
        file.read_to_end(&mut bytes)
            .map_err(StorageError::io(&path))?;
        let replay = Self::replay_bytes(&bytes);
        if replay.truncated_bytes > 0 {
            file.set_len(replay.valid_len)
                .map_err(StorageError::io(&path))?;
            file.sync_data().map_err(StorageError::io(&path))?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))
            .map_err(StorageError::io(&path))?;
        let wal = Wal {
            file,
            len: replay.valid_len,
            path,
            dirty: false,
        };
        Ok((wal, replay))
    }

    /// Parses framed records out of a raw WAL image, stopping at the
    /// first torn or corrupt frame.
    pub fn replay_bytes(bytes: &[u8]) -> WalReplay {
        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            if len > MAX_PAYLOAD {
                break;
            }
            let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize)
            else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            records.push(payload.to_vec());
            pos += FRAME_HEADER + len as usize;
        }
        WalReplay {
            records,
            valid_len: pos as u64,
            truncated_bytes: (bytes.len() - pos) as u64,
        }
    }

    /// Appends one record (no fsync — call [`Wal::sync`] before
    /// acknowledging the write). Returns the framed size in bytes.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(StorageError::io(&self.path))?;
        self.len += frame.len() as u64;
        self.dirty = true;
        Ok(frame.len() as u64)
    }

    /// Fsyncs pending appends; the durability point for every record
    /// appended since the last sync. No-op when nothing is pending.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if !self.dirty {
            return Ok(());
        }
        self.file
            .sync_data()
            .map_err(StorageError::io(&self.path))?;
        self.dirty = false;
        Ok(())
    }

    /// Discards every record — called after a seal makes the logged
    /// writes durable in a segment. The truncation is fsynced so a
    /// crash cannot resurrect sealed records.
    pub fn reset(&mut self) -> Result<(), StorageError> {
        self.file.set_len(0).map_err(StorageError::io(&self.path))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(StorageError::io(&self.path))?;
        self.file
            .sync_data()
            .map_err(StorageError::io(&self.path))?;
        self.len = 0;
        self.dirty = false;
        Ok(())
    }

    /// Bytes of framed records currently in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "create-wal-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.append(b"three").unwrap();
            wal.sync().unwrap();
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(
            replay.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(wal.len(), replay.valid_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"first record").unwrap();
            wal.append(b"second record").unwrap();
            wal.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_frame = FRAME_HEADER + b"first record".len();
        // Cut the file anywhere inside the second frame: the first
        // record must survive, the torn one must be dropped and the
        // file truncated back to the boundary.
        for cut in first_frame + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.records, vec![b"first record".to_vec()], "cut {cut}");
            assert_eq!(replay.valid_len, first_frame as u64);
            assert!(replay.truncated_bytes > 0);
            assert_eq!(wal.len(), first_frame as u64);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first_frame as u64,
                "file truncated to the last clean boundary at cut {cut}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"flipped").unwrap();
            wal.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"good".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absurd_length_field_is_a_torn_frame() {
        let path = temp_path("length");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_clears_records_and_new_appends_survive() {
        let path = temp_path("reset");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"sealed away").unwrap();
            wal.sync().unwrap();
            wal.reset().unwrap();
            assert!(wal.is_empty());
            wal.append(b"fresh").unwrap();
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_payloads_are_legal() {
        let path = temp_path("empty");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(b"").unwrap();
            wal.append(b"x").unwrap();
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![Vec::new(), b"x".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }
}
