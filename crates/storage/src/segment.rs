//! Immutable on-disk segment files.
//!
//! A segment is the durable form of a sealed memtable slice: every
//! document's stored fields (the WAL-shaped JSON payload), a directory
//! of `(ordinal, doc id)` entries, and the codec-encoded postings for
//! the same doc range. Layout:
//!
//! ```text
//! magic "CSEG" | format u32 LE
//! directory region: block framing, uncompressed content is
//!     doc_count varint, then per doc
//!     ordinal varint | id_len varint | id bytes
//! stored-fields region: block framing, content is per doc
//!     payload_len varint | payload bytes
//! postings region:      block framing
//! facets region:        block framing
//! footer: crc32(everything above) u32 LE | magic "GESC"
//! ```
//!
//! The facets region holds the facet-bitmap tail for the segment's doc
//! range (opaque here; `create-index::facets` encodes it). Format 3 is
//! the only format written and the only one read: a file whose header
//! names another — format 2, the three-region layout without a facets
//! region that nothing has written since format 3 appeared — is refused
//! as [`StorageError::Corrupt`] ("unsupported segment format 2").
//!
//! Block framing is `block_count varint`, then per block
//! `uncompressed_len varint | compressed_len varint | crc32(compressed)
//! u32 LE | compressed bytes`. Blocks cover at most [`BLOCK_TARGET`]
//! uncompressed bytes so a single flipped bit is localized to one
//! block's CRC. The footer CRC guards the framing itself; it is also
//! recorded in the manifest so recovery can detect a swapped or
//! rolled-back segment file without reading it fully. Files are written
//! once, fsynced, and never modified.
//!
//! The directory region lists `(ordinal, doc id)` apart from the
//! payloads; [`read_segment`] joins the two back into [`StoredDoc`]s.

use crate::block;
use crate::checksum::crc32;
use crate::StorageError;
use create_util::varint;
use std::fs::File;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"CSEG";
const FOOTER_MAGIC: &[u8; 4] = b"GESC";
/// The segment format: four regions.
pub const FORMAT: u32 = 3;
/// Maximum uncompressed bytes per block.
pub const BLOCK_TARGET: usize = 256 * 1024;

/// One document's durable record inside a segment: the global ingest
/// ordinal, the external doc id, and an opaque payload (the same JSON
/// shape the WAL logs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    pub ordinal: u64,
    pub id: String,
    pub payload: Vec<u8>,
}

/// The logical content of a segment file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentData {
    /// Documents in ingest order; segment-local doc ids are positions.
    pub docs: Vec<StoredDoc>,
    /// Codec-encoded postings for exactly these documents (opaque to
    /// the storage layer; `create-index` encodes and decodes it).
    pub postings: Vec<u8>,
    /// Facet-bitmap tail for these documents (opaque).
    pub facets: Vec<u8>,
}

/// Size and checksum of a written segment file, as the manifest records
/// them.
#[derive(Debug, Clone, Copy)]
pub struct SegmentFileInfo {
    pub bytes: u64,
    pub crc: u32,
}

/// Serializes `data`, writes it to `path`, and fsyncs the file. The
/// file only becomes live once the manifest names it.
pub fn write_segment(path: &Path, data: &SegmentData) -> Result<SegmentFileInfo, StorageError> {
    let mut directory = Vec::new();
    varint::write_u64(&mut directory, data.docs.len() as u64);
    for doc in &data.docs {
        varint::write_u64(&mut directory, doc.ordinal);
        varint::write_u64(&mut directory, doc.id.len() as u64);
        directory.extend_from_slice(doc.id.as_bytes());
    }
    let mut stored = Vec::new();
    for doc in &data.docs {
        varint::write_u64(&mut stored, doc.payload.len() as u64);
        stored.extend_from_slice(&doc.payload);
    }

    let mut image = Vec::with_capacity(stored.len() / 2 + data.postings.len() / 2 + 64);
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&FORMAT.to_le_bytes());
    write_region(&mut image, &directory);
    write_region(&mut image, &stored);
    write_region(&mut image, &data.postings);
    write_region(&mut image, &data.facets);
    let file_crc = crc32(&image);
    image.extend_from_slice(&file_crc.to_le_bytes());
    image.extend_from_slice(FOOTER_MAGIC);

    let mut file = File::create(path).map_err(StorageError::io(path))?;
    file.write_all(&image).map_err(StorageError::io(path))?;
    file.sync_all().map_err(StorageError::io(path))?;
    Ok(SegmentFileInfo {
        bytes: image.len() as u64,
        crc: file_crc,
    })
}

fn write_region(out: &mut Vec<u8>, payload: &[u8]) {
    let blocks: Vec<&[u8]> = if payload.is_empty() {
        Vec::new()
    } else {
        payload.chunks(BLOCK_TARGET).collect()
    };
    varint::write_u64(out, blocks.len() as u64);
    for chunk in blocks {
        let packed = block::compress(chunk);
        varint::write_u64(out, chunk.len() as u64);
        varint::write_u64(out, packed.len() as u64);
        out.extend_from_slice(&crc32(&packed).to_le_bytes());
        out.extend_from_slice(&packed);
    }
}

/// Validated segment framing: the byte ranges of the regions, ready to
/// be decompressed independently.
struct Frame<'a> {
    directory: Region<'a>,
    stored: Region<'a>,
    postings: Region<'a>,
    facets: Region<'a>,
}

struct Region<'a> {
    body: &'a [u8],
    start: usize,
}

fn frame<'a>(path: &Path, bytes: &'a [u8]) -> Result<Frame<'a>, StorageError> {
    let corrupt = |message: &str| StorageError::Corrupt {
        path: path.to_path_buf(),
        message: message.to_string(),
    };
    if bytes.len() < 8 + 8 || &bytes[0..4] != MAGIC {
        return Err(corrupt("missing segment magic"));
    }
    let format = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if format != FORMAT {
        return Err(corrupt(&format!("unsupported segment format {format}")));
    }
    let footer_at = bytes.len() - 8;
    if &bytes[footer_at + 4..] != FOOTER_MAGIC {
        return Err(corrupt("missing footer magic"));
    }
    let declared_crc =
        u32::from_le_bytes(bytes[footer_at..footer_at + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..footer_at]) != declared_crc {
        return Err(corrupt("footer checksum mismatch"));
    }

    let body = &bytes[8..footer_at];
    let mut pos = 0usize;
    let mut next_region = || -> Result<Region<'a>, StorageError> {
        let start = pos;
        skip_region(body, &mut pos).map_err(|m| corrupt(m))?;
        Ok(Region { body, start })
    };
    let directory = next_region()?;
    let stored = next_region()?;
    let postings = next_region()?;
    let facets = next_region()?;
    if pos != body.len() {
        return Err(corrupt("trailing bytes after final region"));
    }
    Ok(Frame {
        directory,
        stored,
        postings,
        facets,
    })
}

/// Reads and verifies a segment file end-to-end: footer CRC, per-block
/// CRCs, block decompression, and stored-doc framing. Any mismatch is
/// [`StorageError::Corrupt`] — a sealed segment was fsynced before the
/// manifest named it, so unlike a WAL tail, damage here is never an
/// expected crash artifact.
pub fn read_segment(path: &Path) -> Result<SegmentData, StorageError> {
    let bytes = std::fs::read(path).map_err(StorageError::io(path))?;
    let corrupt = |message: &str| StorageError::Corrupt {
        path: path.to_path_buf(),
        message: message.to_string(),
    };
    let regions = frame(path, &bytes)?;
    let directory = decompress_region(&regions.directory).map_err(|m| corrupt(m))?;
    let stored = decompress_region(&regions.stored).map_err(|m| corrupt(m))?;
    let postings = decompress_region(&regions.postings).map_err(|m| corrupt(m))?;
    let facets = decompress_region(&regions.facets).map_err(|m| corrupt(m))?;

    let entries = parse_directory(&directory).map_err(|m| corrupt(m))?;
    let mut docs = Vec::with_capacity(entries.len());
    let mut at = 0usize;
    for (ordinal, id) in entries {
        let len = varint::read_u64(&stored, &mut at).ok_or_else(|| corrupt("doc payload length"))?
            as usize;
        let payload = stored
            .get(at..at + len)
            .ok_or_else(|| corrupt("doc payload past end"))?
            .to_vec();
        at += len;
        docs.push(StoredDoc {
            ordinal,
            id,
            payload,
        });
    }
    if at != stored.len() {
        return Err(corrupt("trailing bytes after stored docs"));
    }
    Ok(SegmentData {
        docs,
        postings,
        facets,
    })
}

/// Parses the directory region into `(ordinal, doc id)` entries.
fn parse_directory(directory: &[u8]) -> Result<Vec<(u64, String)>, &'static str> {
    let mut at = 0usize;
    let count = varint::read_u64(directory, &mut at).ok_or("doc count")? as usize;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let ordinal = varint::read_u64(directory, &mut at).ok_or("doc ordinal")?;
        let id_len = varint::read_u64(directory, &mut at).ok_or("doc id length")? as usize;
        let id_bytes = directory.get(at..at + id_len).ok_or("doc id past end")?;
        at += id_len;
        let id = std::str::from_utf8(id_bytes)
            .map_err(|_| "doc id not utf-8")?
            .to_string();
        entries.push((ordinal, id));
    }
    if at != directory.len() {
        return Err("trailing bytes after directory");
    }
    Ok(entries)
}

/// Decompresses one region, verifying every block's CRC and length.
fn decompress_region(region: &Region<'_>) -> Result<Vec<u8>, &'static str> {
    let body = region.body;
    let mut pos = region.start;
    let mut out = Vec::new();
    let blocks = varint::read_u64(body, &mut pos).ok_or("region block count")? as usize;
    for _ in 0..blocks {
        let uncompressed = varint::read_u64(body, &mut pos).ok_or("block uncompressed length")? as usize;
        let compressed = varint::read_u64(body, &mut pos).ok_or("block compressed length")? as usize;
        let crc_bytes = body.get(pos..pos + 4).ok_or("block checksum")?;
        let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        pos += 4;
        let packed = body.get(pos..pos + compressed).ok_or("block past end")?;
        pos += compressed;
        if crc32(packed) != declared {
            return Err("block checksum mismatch");
        }
        if uncompressed > BLOCK_TARGET {
            return Err("block larger than target");
        }
        let unpacked =
            block::decompress(packed, uncompressed).map_err(|_| "block decompression failed")?;
        out.extend_from_slice(&unpacked);
    }
    Ok(out)
}

/// Used by `frame` to find region boundaries without verifying content.
fn skip_region(body: &[u8], pos: &mut usize) -> Result<(), &'static str> {
    let blocks = varint::read_u64(body, pos).ok_or("region block count")? as usize;
    for _ in 0..blocks {
        let _ = varint::read_u64(body, pos).ok_or("block uncompressed length")?;
        let compressed = varint::read_u64(body, pos).ok_or("block compressed length")? as usize;
        *pos += 4; // block CRC
        if body.get(*pos..*pos + compressed).is_none() {
            return Err("block past end");
        }
        *pos += compressed;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "create-seg-{tag}-{}-{:?}.seg",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample(docs: usize) -> SegmentData {
        SegmentData {
            docs: (0..docs)
                .map(|i| StoredDoc {
                    ordinal: 100 + i as u64,
                    id: format!("pmid:{i}"),
                    payload: format!(
                        "{{\"id\":\"pmid:{i}\",\"title\":\"fever case {i}\",\"body\":\"{}\"}}",
                        "lorem ipsum dolor ".repeat(40)
                    )
                    .into_bytes(),
                })
                .collect(),
            postings: (0..9000u32).flat_map(|v| (v % 251).to_le_bytes()).collect(),
            facets: (0..700u32).flat_map(|v| (v % 13).to_le_bytes()).collect(),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let path = temp_path("roundtrip");
        let data = sample(25);
        let info = write_segment(&path, &data).unwrap();
        assert_eq!(info.bytes, std::fs::metadata(&path).unwrap().len());
        let back = read_segment(&path).unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_segment_round_trips() {
        let path = temp_path("emptyseg");
        let data = SegmentData::default();
        write_segment(&path, &data).unwrap();
        assert_eq!(read_segment(&path).unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn multi_block_payload_round_trips() {
        let path = temp_path("multiblock");
        let mut data = sample(2);
        // Force several stored-field blocks.
        data.docs[0].payload = b"x".repeat(BLOCK_TARGET * 2 + 1234);
        write_segment(&path, &data).unwrap();
        assert_eq!(read_segment(&path).unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stored_fields_compress() {
        let path = temp_path("ratio");
        let data = sample(200);
        let raw: usize = data.docs.iter().map(|d| d.payload.len()).sum();
        let info = write_segment(&path, &data).unwrap();
        assert!(
            (info.bytes as usize) < raw / 2,
            "repetitive stored fields should compress >2x: {} of {raw}",
            info.bytes
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn any_corrupt_byte_is_detected() {
        let path = temp_path("corrupt");
        write_segment(&path, &sample(10)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of positions across the file; every
        // flip must surface as Corrupt, never as wrong data or a panic.
        for at in (0..clean.len()).step_by(97).chain([clean.len() - 1]) {
            let mut bad = clean.clone();
            bad[at] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(read_segment(&path), Err(StorageError::Corrupt { .. })),
                "flip at {at} was not detected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_corrupt() {
        let path = temp_path("truncated");
        write_segment(&path, &sample(10)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for keep in [0, 3, 7, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                matches!(read_segment(&path), Err(StorageError::Corrupt { .. })),
                "kept {keep} bytes"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
