//! Immutable on-disk segment files.
//!
//! A segment is the durable form of a sealed memtable slice: every
//! document's stored fields (the WAL-shaped JSON payload), a directory
//! of `(ordinal, doc id)` entries, and the codec-encoded postings for
//! the same doc range. Layout:
//!
//! ```text
//! magic "CSEG" | format u32 LE
//! directory region:     content is doc_count varint, then per doc
//!     ordinal varint | id_len varint | id bytes
//! stored-fields region: content is per doc
//!     payload_len varint | payload bytes
//! postings region, facets region
//! footer: crc32(everything above) u32 LE | magic "GESC"
//!
//! region: blocks, then the end marker, a 0 byte
//! block:  uncompressed_len varint | compressed_len varint
//!         | crc32(compressed) u32 LE | compressed bytes
//! ```
//!
//! The facets region holds the segment's facet bitmaps (opaque here;
//! `create-index::facets` encodes them). Format 5 is
//! the only format written and read; a file whose header names another
//! is refused as [`StorageError::Corrupt`] ("unsupported segment format
//! 4"). Format 4 led each region with its block count, format 3's
//! postings carried positions in every field, and format 2 had no
//! facets region.
//!
//! A region ends with an empty block rather than starting with a count,
//! so a writer frames it as its content arrives: every segment, sealed
//! or compacted, is written in one pass. A block covers [`BLOCK_TARGET`]
//! uncompressed bytes (a region's last one, fewer), so a flipped bit is
//! localized to one block's CRC. The footer CRC guards the framing; the
//! manifest records it and the file's size, so recovery detects a
//! swapped or rolled-back file. Files are written once, fsynced, and
//! never modified.
//!
//! There is one implementation of the framing, in two streaming halves:
//! [`SegmentWriter`] frames each region's content into blocks as they
//! fill, and [`SegmentReader`] checks the footer CRC in one pass with a
//! fixed buffer, then hands out each region as a [`RegionReader`] that
//! decompresses one CRC-checked block at a time. Neither holds more than
//! a block of a region, so compaction ([`copy_directory`], [`copy_stored`]
//! and the postings merge in `create-index`) rewrites a shard in
//! O(block) memory. [`read_segment`] / [`write_segment`] are the
//! whole-file forms.
//!
//! The directory region lists `(ordinal, doc id)` apart from the
//! payloads; a [`DocReader`] streams the two side by side, lending each
//! payload from the block that holds it, and [`read_segment`] joins them
//! into [`StoredDoc`]s.
//!
//! A sealed document's payload is served from its file: a
//! [`PayloadFile`] holds the file open and locates every payload in the
//! stored-fields region (each block's file offset, each document's
//! content offset and length), and reads one by positional reads of the
//! one or two blocks that hold it, each CRC-checked and decompressed by
//! the code a [`RegionReader`] loads blocks with. A [`PayloadCursor`]
//! keeps the last block it loaded, so documents read in order cost one
//! read and one decompression per block, not per document. The writer
//! builds that table as it frames the region
//! ([`SegmentWriter::finish_payloads`]), and so does the reader that
//! streams it ([`DocReader::finish`]).
//! Every count and length in a region is untrusted: it is checked
//! against the bytes the region has left before anything is reserved or
//! copied for it.

use crate::block;
use crate::checksum::{crc32, Crc32};
use crate::StorageError;
use create_util::{arc_slice_bytes, varint};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CSEG";
const FOOTER_MAGIC: &[u8; 4] = b"GESC";
/// The segment format: four end-marked regions, postings without
/// positions in a field whose tokenizer has no word positions.
pub const FORMAT: u32 = 5;
/// Maximum uncompressed bytes per block.
pub const BLOCK_TARGET: usize = 256 * 1024;
/// Regions per segment file.
pub const REGIONS: usize = 4;

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

/// The regions of a segment file, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    Directory,
    Stored,
    Postings,
    Facets,
}

/// Serializes `data`, writes it to `path`, and fsyncs the file. The
/// file only becomes live once the manifest names it.
pub fn write_segment(path: &Path, data: &SegmentData) -> Result<SegmentFileInfo, StorageError> {
    SegmentWriter::write_file(path, |out| {
        out.next_region()?;
        out.doc_count(data.docs.len() as u64)?;
        for doc in &data.docs {
            out.entry(doc.ordinal, doc.id.as_bytes())?;
        }
        out.next_region()?;
        for doc in &data.docs {
            out.payload(&doc.payload)?;
        }
        for content in [&data.postings, &data.facets] {
            out.next_region()?;
            out.write_all(content)?;
        }
        Ok(())
    })
}

/// Reads and verifies a segment file end-to-end: footer CRC, per-block
/// CRCs, block decompression, and stored-doc framing. Any mismatch is
/// [`StorageError::Corrupt`] — a sealed segment was fsynced before the
/// manifest named it, so unlike a WAL tail, damage here is never an
/// expected crash artifact.
pub fn read_segment(path: &Path) -> Result<SegmentData, StorageError> {
    SegmentReader::open(path)?.read_all()
}

/// Joins the directory and the stored payloads into documents.
fn read_docs(segment: &SegmentReader) -> Result<Vec<StoredDoc>, StorageError> {
    let mut reader = segment.docs()?;
    // Not reserved for: the cap on the count is in bytes of content, and
    // a document here is larger than the two bytes it may take there.
    let mut docs = Vec::new();
    while let Some(doc) = reader.next_doc()? {
        docs.push(StoredDoc {
            ordinal: doc.ordinal,
            id: doc.id.to_string(),
            payload: doc.payload.to_vec(),
        });
    }
    reader.finish()?;
    Ok(docs)
}

/// The documents of one input of [`copy_directory`]: how many, and the
/// first and last ordinal (both 0 when there are none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocRange {
    pub docs: u64,
    pub min_ordinal: u64,
    pub max_ordinal: u64,
}

/// Writes the directory region of the segment that concatenates
/// `inputs`, in order, as `out`'s current region: the summed doc count,
/// then every input's entries, each checked as [`read_segment`] checks
/// it. Returns each input's documents.
pub fn copy_directory(
    inputs: &[SegmentReader],
    out: &mut SegmentWriter,
) -> Result<Vec<DocRange>, StorageError> {
    let mut directories: Vec<RegionReader<'_>> = inputs
        .iter()
        .map(|segment| segment.region(Region::Directory))
        .collect();
    let mut ranges = Vec::with_capacity(inputs.len());
    for (segment, directory) in inputs.iter().zip(&mut directories) {
        let docs = directory.doc_count().map_err(|e| segment.error(e))?;
        ranges.push(DocRange {
            docs,
            min_ordinal: 0,
            max_ordinal: 0,
        });
    }
    let total = ranges.iter().map(|range| range.docs).sum();
    out.doc_count(total).map_err(|e| out.error(e))?;
    let mut id = Vec::new();
    for ((segment, directory), range) in inputs.iter().zip(&mut directories).zip(&mut ranges) {
        for i in 0..range.docs {
            let ordinal = directory.entry(&mut id).map_err(|e| segment.error(e))?;
            if i == 0 {
                range.min_ordinal = ordinal;
            }
            range.max_ordinal = ordinal;
            out.entry(ordinal, &id).map_err(|e| out.error(e))?;
        }
        directory
            .end("trailing bytes after directory")
            .map_err(|e| segment.error(e))?;
    }
    Ok(ranges)
}

/// Writes the stored-fields region of the segment that concatenates
/// `inputs` as `out`'s current region, one input at a time: each input's
/// payloads, as many as its directory counted (`ranges`, from
/// [`copy_directory`]), each checked as [`read_segment`] checks it.
pub fn copy_stored(
    inputs: &[SegmentReader],
    ranges: &[DocRange],
    out: &mut SegmentWriter,
) -> Result<(), StorageError> {
    let mut payload = Vec::new();
    for (segment, range) in inputs.iter().zip(ranges) {
        let mut stored = segment.region(Region::Stored);
        for _ in 0..range.docs {
            let len = stored
                .count(1, "doc payload length")
                .map_err(|e| segment.error(e))?;
            payload.clear();
            stored
                .copy(len, &mut payload)
                .map_err(|e| segment.error(e))?;
            out.payload(&payload).map_err(|e| out.error(e))?;
        }
        stored
            .end("trailing bytes after stored docs")
            .map_err(|e| segment.error(e))?;
    }
    Ok(())
}

/// Region content that contradicts itself, as the `io::Error` a
/// [`RegionReader`] reports corruption with.
fn corrupt(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A [`SegmentWriter`] used against its contract.
fn misuse(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

/// A failure reading the file at `path`: corruption (`InvalidData`) or
/// I/O.
fn read_error(path: &Path, e: io::Error) -> StorageError {
    match e.kind() {
        io::ErrorKind::InvalidData => StorageError::Corrupt {
            path: path.to_path_buf(),
            message: e.to_string(),
        },
        _ => StorageError::Io {
            path: path.to_path_buf(),
            source: e,
        },
    }
}

/// Writes a segment file in one pass, a region at a time, framing each
/// region's content into blocks as they fill; it holds back at most one
/// block. A directory entry and a stored payload have one encoding each
/// ([`SegmentWriter::entry`], [`SegmentWriter::payload`]). Dropped before
/// [`SegmentWriter::finish`] returns, it removes its file, so a write
/// that fails half-way leaves nothing behind.
pub struct SegmentWriter {
    file: BufWriter<File>,
    path: PathBuf,
    crc: Crc32,
    bytes: u64,
    /// Regions begun; the current one is `begun - 1`.
    begun: usize,
    /// The current block's content.
    block: Vec<u8>,
    /// Content bytes of the current region framed into blocks so far.
    framed: u64,
    /// The stored-fields region's blocks, its payloads and its length,
    /// located as they are framed.
    stored: PayloadTable,
    /// Whether the file is complete and fsynced, and so kept.
    finished: bool,
}

/// Where a block lies: the file offset of its header, and the offset in
/// its region's content where its bytes start.
#[derive(Debug, Clone, Copy)]
struct BlockAt {
    file: u64,
    content: u64,
}

/// A stored-fields region's layout: its blocks, each document's payload
/// as `(content offset, length)`, and its content length.
#[derive(Debug, Default)]
struct PayloadTable {
    blocks: Vec<BlockAt>,
    docs: Vec<(u64, u64)>,
    len: u64,
}

impl SegmentWriter {
    /// Creates the file at `path` and writes its header.
    pub fn create(path: &Path) -> Result<SegmentWriter, StorageError> {
        let file = File::create(path).map_err(StorageError::io(path))?;
        let mut writer = SegmentWriter {
            file: BufWriter::new(file),
            path: path.to_path_buf(),
            crc: Crc32::default(),
            bytes: 0,
            begun: 0,
            block: Vec::new(),
            framed: 0,
            stored: PayloadTable::default(),
            finished: false,
        };
        let header = [*MAGIC, FORMAT.to_le_bytes()].concat();
        writer.emit(&header).map_err(|e| writer.error(e))?;
        Ok(writer)
    }

    /// Creates the file at `path`, has `content` write its regions —
    /// each begun with [`SegmentWriter::next_region`] — and finishes it;
    /// a failure removes the file.
    pub fn write_file(
        path: &Path,
        content: impl FnOnce(&mut SegmentWriter) -> io::Result<()>,
    ) -> Result<SegmentFileInfo, StorageError> {
        let mut out = SegmentWriter::create(path)?;
        content(&mut out).map_err(|e| out.error(e))?;
        out.finish()
    }

    /// Ends the current region, if one was begun, and begins the next.
    pub fn next_region(&mut self) -> io::Result<()> {
        if self.begun == REGIONS {
            return Err(misuse("segment region begun past the last"));
        }
        if self.begun > 0 {
            self.end_region()?;
        }
        self.begun += 1;
        self.framed = 0;
        Ok(())
    }

    /// Whether the current region is the stored fields.
    fn in_stored(&self) -> bool {
        self.begun == Region::Stored as usize + 1
    }

    /// Emits the current region's partial block, then its end marker.
    fn end_region(&mut self) -> io::Result<()> {
        if !self.block.is_empty() {
            self.emit_block()?;
        }
        if self.in_stored() {
            self.stored.len = self.framed;
        }
        self.emit(&[0])
    }

    /// Writes a directory's leading document count.
    pub fn doc_count(&mut self, docs: u64) -> io::Result<()> {
        self.put(docs, b"")
    }

    /// Writes one directory entry: a document's ordinal and its id.
    pub fn entry(&mut self, ordinal: u64, id: &[u8]) -> io::Result<()> {
        self.put(ordinal, b"")?;
        self.put(id.len() as u64, id)
    }

    /// Writes one stored payload, length first, into the stored-fields
    /// region, and notes where it lies.
    pub fn payload(&mut self, payload: &[u8]) -> io::Result<()> {
        self.put(payload.len() as u64, b"")?;
        let at = self.framed + self.block.len() as u64;
        self.stored.docs.push((at, payload.len() as u64));
        self.write_all(payload)
    }

    /// Writes `value` as a varint, then `bytes`.
    fn put(&mut self, value: u64, bytes: &[u8]) -> io::Result<()> {
        let mut varint = Vec::with_capacity(10);
        varint::write_u64(&mut varint, value);
        self.write_all(&varint)?;
        self.write_all(bytes)
    }

    /// A failure writing this file, naming it.
    pub fn error(&self, e: io::Error) -> StorageError {
        StorageError::Io {
            path: self.path.clone(),
            source: e,
        }
    }

    fn emit(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.bytes += bytes.len() as u64;
        self.file.write_all(bytes)
    }

    fn emit_block(&mut self) -> io::Result<()> {
        let packed = block::compress(&self.block);
        let mut header = Vec::with_capacity(24);
        varint::write_u64(&mut header, self.block.len() as u64);
        varint::write_u64(&mut header, packed.len() as u64);
        header.extend_from_slice(&crc32(&packed).to_le_bytes());
        if self.in_stored() {
            let at = BlockAt {
                file: self.bytes,
                content: self.framed,
            };
            self.stored.blocks.push(at);
        }
        self.emit(&header)?;
        self.emit(&packed)?;
        self.framed += self.block.len() as u64;
        self.block.clear();
        Ok(())
    }

    /// Ends the last region, writes the footer and fsyncs the file. All
    /// [`REGIONS`] regions must have been begun.
    pub fn finish(mut self) -> Result<SegmentFileInfo, StorageError> {
        if self.begun != REGIONS {
            return Err(self.error(misuse("segment finished before its last region")));
        }
        self.end_region().map_err(|e| self.error(e))?;
        let crc = self.crc.finish();
        self.emit(&[crc.to_le_bytes(), *FOOTER_MAGIC].concat())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.get_ref().sync_all())
            .map_err(|e| self.error(e))?;
        self.finished = true;
        Ok(SegmentFileInfo {
            bytes: self.bytes,
            crc,
        })
    }

    /// [`SegmentWriter::finish`], then opens the finished file read-only
    /// as the [`PayloadFile`] of the payloads written, located as they
    /// were framed — nothing is read back.
    pub fn finish_payloads(mut self) -> Result<(SegmentFileInfo, PayloadFile), StorageError> {
        let (path, table) = (self.path.clone(), std::mem::take(&mut self.stored));
        let info = self.finish()?;
        let file = File::open(&path).map_err(StorageError::io(&path))?;
        let payloads = PayloadFile::new(path, Arc::new(file), info.bytes - 8, table);
        Ok((info, payloads))
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Write for SegmentWriter {
    /// Appends to the current region's content.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.begun == 0 {
            return Err(misuse("segment content written before the first region"));
        }
        let n = buf.len().min(BLOCK_TARGET - self.block.len());
        self.block.extend_from_slice(&buf[..n]);
        if self.block.len() == BLOCK_TARGET {
            self.emit_block()?;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Where a region's first block starts, how many there are, and the content
/// they declare.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    at: u64,
    blocks: u64,
    len: u64,
}

/// An open, footer-verified segment file whose regions can be read as
/// streams.
pub struct SegmentReader {
    path: PathBuf,
    /// Shared with the [`PayloadFile`] a [`DocReader`] ends with.
    file: Arc<File>,
    /// Where the footer starts.
    end: u64,
    /// The footer's CRC, which the open checked.
    crc: u32,
    regions: [Span; REGIONS],
}

impl SegmentReader {
    /// Opens the file at `path` and verifies what does not need a
    /// region's content: magic, format, the footer CRC over the whole
    /// file (one pass, a fixed buffer) and the block framing of every
    /// region. Block CRCs and content are checked as the regions are
    /// read.
    pub fn open(path: &Path) -> Result<SegmentReader, StorageError> {
        let corrupt = |message: &str| StorageError::Corrupt {
            path: path.to_path_buf(),
            message: message.to_string(),
        };
        let mut file = File::open(path).map_err(StorageError::io(path))?;
        let size = file.metadata().map_err(StorageError::io(path))?.len();
        let mut header = [0u8; 8];
        if size < 8 + 8 {
            return Err(corrupt("missing segment magic"));
        }
        file.read_exact(&mut header)
            .map_err(StorageError::io(path))?;
        if &header[0..4] != MAGIC {
            return Err(corrupt("missing segment magic"));
        }
        let format = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if format != FORMAT {
            return Err(corrupt(&format!("unsupported segment format {format}")));
        }
        let end = size - 8;
        let mut footer = [0u8; 8];
        file.seek(SeekFrom::Start(end))
            .and_then(|_| file.read_exact(&mut footer))
            .map_err(StorageError::io(path))?;
        if &footer[4..] != FOOTER_MAGIC {
            return Err(corrupt("missing footer magic"));
        }
        let declared_crc = u32::from_le_bytes(footer[..4].try_into().expect("4 bytes"));
        let mut crc = Crc32::default();
        let mut buf = vec![0u8; 64 * 1024];
        file.seek(SeekFrom::Start(0))
            .map_err(StorageError::io(path))?;
        let mut left = end;
        while left > 0 {
            let chunk = &mut buf[..left.min(64 * 1024) as usize];
            file.read_exact(chunk).map_err(StorageError::io(path))?;
            crc.update(chunk);
            left -= chunk.len() as u64;
        }
        if crc.finish() != declared_crc {
            return Err(corrupt("footer checksum mismatch"));
        }

        file.seek(SeekFrom::Start(8))
            .map_err(StorageError::io(path))?;
        let mut framing = BufReader::with_capacity(8 * 1024, &file);
        let mut pos = 8u64;
        let mut regions = [Span::default(); REGIONS];
        for region in &mut regions {
            *region = skip_region(&mut framing, &mut pos, end).map_err(|e| read_error(path, e))?;
        }
        if pos != end {
            return Err(corrupt("trailing bytes after final region"));
        }
        drop(framing);
        Ok(SegmentReader {
            path: path.to_path_buf(),
            file: Arc::new(file),
            end,
            crc: declared_crc,
            regions,
        })
    }

    /// The file this reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's size in bytes.
    pub fn bytes(&self) -> u64 {
        self.end + 8
    }

    /// The file's footer CRC.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// A stream of one region's content.
    pub fn region(&self, which: Region) -> RegionReader<'_> {
        let span = self.regions[which as usize];
        RegionReader {
            segment: self,
            pos: span.at,
            blocks: span.blocks,
            len: span.len,
            left: span.len,
            block: Vec::new(),
            at: 0,
            packed: Vec::new(),
            loaded: Vec::new(),
        }
    }

    /// The documents — directory entries and stored payloads side by
    /// side — as a stream; its directory's document count is read here.
    pub fn docs(&self) -> Result<DocReader<'_>, StorageError> {
        let mut directory = self.region(Region::Directory);
        let count = directory.doc_count().map_err(|e| self.error(e))?;
        Ok(DocReader {
            segment: self,
            directory,
            stored: self.region(Region::Stored),
            count,
            docs: Vec::new(),
            id: Vec::new(),
            spill: Vec::new(),
            lent: 0,
        })
    }

    /// One region's whole content.
    pub fn read_region(&self, which: Region) -> Result<Vec<u8>, StorageError> {
        let mut content = Vec::new();
        self.region(which)
            .read_to_end(&mut content)
            .map_err(|e| self.error(e))?;
        Ok(content)
    }

    /// The whole file's content, checked as [`read_segment`] checks it.
    pub fn read_all(&self) -> Result<SegmentData, StorageError> {
        Ok(SegmentData {
            docs: read_docs(self)?,
            postings: self.read_region(Region::Postings)?,
            facets: self.read_region(Region::Facets)?,
        })
    }

    /// A failure reading this file: corruption (`InvalidData`, as a
    /// [`RegionReader`] reports it) or I/O, naming the file.
    pub fn error(&self, e: io::Error) -> StorageError {
        read_error(&self.path, e)
    }
}

/// Walks one region's block headers from `*pos` (the framing stream's
/// position) to its end marker, skipping the blocks' bodies. Every block
/// takes at least six bytes before `end`, so the walk ends.
fn skip_region(framing: &mut BufReader<&File>, pos: &mut u64, end: u64) -> io::Result<Span> {
    let mut span = Span {
        at: *pos,
        ..Span::default()
    };
    loop {
        match block_header(framing, pos, end)? {
            (0, _) => return Ok(span),
            (uncompressed, compressed) => {
                framing.seek_relative(4 + compressed as i64)?;
                *pos += 4 + compressed;
                span.blocks += 1;
                span.len += uncompressed;
            }
        }
    }
}

/// A block's declared uncompressed and compressed lengths, read from
/// `*pos` and checked against the bytes before `end`; the CRC and the
/// body follow. `(0, 0)` is a region's end marker, which is an
/// uncompressed length and nothing else.
fn block_header(framing: &mut impl BufRead, pos: &mut u64, end: u64) -> io::Result<(u64, u64)> {
    let uncompressed = framing_varint(framing, pos, end, "block uncompressed length")?;
    if uncompressed == 0 {
        return Ok((0, 0));
    }
    if uncompressed > BLOCK_TARGET as u64 {
        return Err(corrupt("block larger than target"));
    }
    let compressed = framing_varint(framing, pos, end, "block compressed length")?;
    // `compress` never adds more than its header byte.
    if compressed > uncompressed + 1 || compressed + 4 > end - *pos {
        return Err(corrupt("block past end"));
    }
    Ok((uncompressed, compressed))
}

/// The most bytes a block header takes: two varints and the CRC.
const HEADER_MAX: usize = 24;

/// Reads the block whose header starts at `pos` — its framing checked
/// against `end`, where the file's footer starts, and its CRC against its
/// bytes — and decompresses it into `block`, through `packed`. Returns
/// where the next block's header starts. Positional reads only, so a file
/// shared between threads has no cursor to race on. The one reader of a
/// block: a [`RegionReader`] and a [`PayloadFile`] both load through it.
fn read_block(
    file: &File,
    pos: u64,
    end: u64,
    packed: &mut Vec<u8>,
    block: &mut Vec<u8>,
) -> io::Result<u64> {
    let mut header = [0u8; HEADER_MAX];
    let header = &mut header[..end.saturating_sub(pos).min(HEADER_MAX as u64) as usize];
    file.read_exact_at(header, pos)?;
    let mut framing = &header[..];
    let mut at = pos;
    let (uncompressed, compressed) = match block_header(&mut framing, &mut at, end)? {
        (0, _) => return Err(corrupt("block missing")),
        lengths => lengths,
    };
    // `block_header` checked that the CRC and the body end before `end`,
    // and the header holds every byte up to `end` or `HEADER_MAX`.
    let mut declared = [0u8; 4];
    framing.read_exact(&mut declared)?;
    packed.resize(compressed as usize, 0);
    file.read_exact_at(packed, at + 4)?;
    if crc32(packed) != u32::from_le_bytes(declared) {
        return Err(corrupt("block checksum mismatch"));
    }
    block::decompress_into(packed, uncompressed as usize, block)
        .map_err(|_| corrupt("block decompression failed"))?;
    Ok(at + 4 + compressed)
}

fn framing_varint(
    framing: &mut impl BufRead,
    pos: &mut u64,
    end: u64,
    what: &str,
) -> io::Result<u64> {
    match varint::read_u64_from(framing)? {
        Some((value, len)) if *pos + len as u64 <= end => {
            *pos += len as u64;
            Ok(value)
        }
        _ => Err(corrupt(what)),
    }
}

/// One region's content as a stream, one CRC-checked block in memory
/// at a time. Corruption is an `io::Error` of kind `InvalidData`.
pub struct RegionReader<'a> {
    segment: &'a SegmentReader,
    /// The next block's header.
    pos: u64,
    /// Blocks not yet loaded.
    blocks: u64,
    /// The region's content length.
    len: u64,
    /// Content not yet consumed.
    left: u64,
    block: Vec<u8>,
    /// Consumed bytes of `block`.
    at: usize,
    packed: Vec<u8>,
    /// Where each block loaded so far lies.
    loaded: Vec<BlockAt>,
}

impl RegionReader<'_> {
    /// Content bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    fn varint(&mut self, what: &str) -> io::Result<u64> {
        varint::read_u64_from(self)?
            .map(|(value, _)| value)
            .ok_or_else(|| corrupt(what))
    }

    /// A count of items that take at least `min_bytes` each of what is
    /// left of the region (a length is a count of one-byte items).
    fn count(&mut self, min_bytes: u64, what: &str) -> io::Result<u64> {
        let count = self.varint(what)?;
        if count > self.left / min_bytes {
            return Err(corrupt(&format!("{what} exceeds the region")));
        }
        Ok(count)
    }

    /// A directory's document count: an entry takes at least an ordinal
    /// byte and an id-length byte.
    fn doc_count(&mut self) -> io::Result<u64> {
        self.count(2, "doc count")
    }

    /// A directory entry: its ordinal, with its UTF-8 id in `id`.
    fn entry(&mut self, id: &mut Vec<u8>) -> io::Result<u64> {
        let ordinal = self.varint("doc ordinal")?;
        let len = self.count(1, "doc id length")?;
        id.clear();
        self.copy(len, id)?;
        if std::str::from_utf8(id).is_err() {
            return Err(corrupt("doc id not utf-8"));
        }
        Ok(ordinal)
    }

    /// Copies the next `len` bytes (checked by [`RegionReader::count`])
    /// to `out`.
    fn copy(&mut self, len: u64, out: &mut impl Write) -> io::Result<()> {
        // Every block decompressed to its declared length, so the region
        // holds the `len` bytes the count was checked against.
        io::copy(&mut self.by_ref().take(len), out).map(drop)
    }

    fn end(&self, message: &str) -> io::Result<()> {
        match self.left {
            0 => Ok(()),
            _ => Err(corrupt(message)),
        }
    }

    /// Loads the next block; everything before it has been consumed.
    fn load(&mut self) -> io::Result<()> {
        let at = BlockAt {
            file: self.pos,
            content: self.len - self.left,
        };
        let (file, end) = (&self.segment.file, self.segment.end);
        self.pos = read_block(file, self.pos, end, &mut self.packed, &mut self.block)?;
        self.loaded.push(at);
        self.blocks -= 1;
        self.at = 0;
        Ok(())
    }
}

impl Read for RegionReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for RegionReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.at == self.block.len() && self.blocks > 0 {
            self.load()?;
        }
        Ok(&self.block[self.at..])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        self.left -= n as u64;
    }
}

/// One document as a [`DocReader`] lends it: its ordinal, its id and its
/// payload, borrowed from the reader until the next document.
#[derive(Debug, Clone, Copy)]
pub struct StoredRef<'a> {
    pub ordinal: u64,
    pub id: &'a str,
    pub payload: &'a [u8],
}

/// A segment's documents as a stream, the directory and the stored
/// fields read side by side, each checked as [`read_segment`] checks it.
/// A payload inside one block is lent from that block's buffer; one that
/// straddles blocks is copied out. Ends with the [`PayloadFile`] of the
/// payloads it passed.
pub struct DocReader<'a> {
    segment: &'a SegmentReader,
    directory: RegionReader<'a>,
    stored: RegionReader<'a>,
    count: u64,
    /// Each document's payload so far, as `(content offset, length)`.
    docs: Vec<(u64, u64)>,
    id: Vec<u8>,
    /// The last payload, when it straddled blocks.
    spill: Vec<u8>,
    /// Bytes of the stored block the last payload was lent, consumed when
    /// the reader moves on.
    lent: usize,
}

impl DocReader<'_> {
    /// The document count the directory declares.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The next document, or `None` after the last.
    pub fn next_doc(&mut self) -> Result<Option<StoredRef<'_>>, StorageError> {
        self.stored.consume(std::mem::take(&mut self.lent));
        if self.docs.len() as u64 == self.count {
            return Ok(None);
        }
        let segment = self.segment;
        self.read_next().map(Some).map_err(|e| segment.error(e))
    }

    fn read_next(&mut self) -> io::Result<StoredRef<'_>> {
        let ordinal = self.directory.entry(&mut self.id)?;
        let len = self.stored.count(1, "doc payload length")?;
        let offset = self.stored.len - self.stored.left;
        self.docs.push((offset, len));
        let payload = if self.stored.fill_buf()?.len() as u64 >= len {
            self.lent = len as usize;
            &self.stored.fill_buf()?[..self.lent]
        } else {
            self.spill.clear();
            self.stored.copy(len, &mut self.spill)?;
            &self.spill[..]
        };
        Ok(StoredRef {
            ordinal,
            id: std::str::from_utf8(&self.id).expect("checked by entry"),
            payload,
        })
    }

    /// Reads what documents are left, checks that both regions end with
    /// the last, and locates every payload in the file, which the
    /// [`PayloadFile`] keeps open.
    pub fn finish(mut self) -> Result<PayloadFile, StorageError> {
        while self.next_doc()?.is_some() {}
        let segment = self.segment;
        self.directory
            .end("trailing bytes after directory")
            .and_then(|()| self.stored.end("trailing bytes after stored docs"))
            .map_err(|e| segment.error(e))?;
        let table = PayloadTable {
            // Every block was loaded: each holds content, and all of it
            // was consumed.
            blocks: self.stored.loaded,
            docs: self.docs,
            len: self.stored.len,
        };
        let file = Arc::clone(&segment.file);
        Ok(PayloadFile::new(
            segment.path.clone(),
            file,
            segment.end,
            table,
        ))
    }
}

/// The stored payloads of one segment file, read from it by offset: the
/// open file, where each block of its stored-fields region lies, and
/// where each document's payload lies in that region's content. Holds
/// no payload byte.
///
/// The file stays open as long as this does, so a file that a compaction
/// has replaced and swept stays readable to whoever still holds it; its
/// disk space comes back when the last holder drops it.
#[derive(Debug)]
pub struct PayloadFile {
    path: PathBuf,
    file: Arc<File>,
    /// Where the file's footer starts.
    end: u64,
    /// The stored-fields region's blocks, in order.
    blocks: Box<[BlockAt]>,
    /// Per document, its payload's content offset and length.
    docs: Box<[(u64, u64)]>,
    /// The region's content length.
    len: u64,
}

impl PayloadFile {
    fn new(path: PathBuf, file: Arc<File>, end: u64, table: PayloadTable) -> PayloadFile {
        PayloadFile {
            path,
            file,
            end,
            blocks: table.blocks.into_boxed_slice(),
            docs: table.docs.into_boxed_slice(),
            len: table.len,
        }
    }

    /// The file this reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Documents in the file.
    pub fn docs(&self) -> usize {
        self.docs.len()
    }

    /// Document `doc`'s payload (`doc` < [`PayloadFile::docs`]): the one
    /// or two blocks that hold it, read, CRC-checked and decompressed. A
    /// block that does not read back, or no longer has the length it had
    /// when the table was built, is an error naming the file.
    pub fn get(&self, doc: usize) -> Result<Vec<u8>, StorageError> {
        self.cursor().get(doc)
    }

    /// A reader of this file's payloads that keeps the last block it
    /// decompressed (see [`PayloadCursor`]).
    pub fn cursor(&self) -> PayloadCursor<'_> {
        PayloadCursor {
            file: self,
            loaded: None,
            packed: Vec::new(),
            block: Vec::new(),
        }
    }

    /// Heap bytes held: the file's `Arc`, the path and the two tables.
    pub fn heap_bytes(&self) -> usize {
        arc_slice_bytes(std::mem::size_of::<File>())
            + self.path.capacity()
            + std::mem::size_of_val(&*self.blocks)
            + std::mem::size_of_val(&*self.docs)
    }
}

/// Reads a [`PayloadFile`]'s payloads, keeping the block it last
/// decompressed: a payload that starts in that block reads it from
/// memory, so documents read in order cost one read and one
/// decompression per block.
pub struct PayloadCursor<'a> {
    file: &'a PayloadFile,
    /// Which block `block` holds, as an index into the file's blocks.
    loaded: Option<usize>,
    packed: Vec<u8>,
    block: Vec<u8>,
}

impl PayloadCursor<'_> {
    /// Document `doc`'s payload, as [`PayloadFile::get`] reads it.
    pub fn get(&mut self, doc: usize) -> Result<Vec<u8>, StorageError> {
        let file = self.file;
        let (start, len) = file.docs[doc];
        let end = start + len;
        let mut payload = Vec::with_capacity(len as usize);
        // The block that holds `start`: the table was built from blocks
        // that held the payload.
        let mut b = file
            .blocks
            .partition_point(|at| at.content <= start)
            .saturating_sub(1);
        while (payload.len() as u64) < len {
            let at = file.blocks[b];
            let next = file.blocks.get(b + 1).map_or(file.len, |next| next.content);
            if self.loaded != Some(b) {
                self.loaded = None;
                read_block(
                    &file.file,
                    at.file,
                    file.end,
                    &mut self.packed,
                    &mut self.block,
                )
                .map_err(|e| read_error(&file.path, e))?;
                if self.block.len() as u64 != next - at.content {
                    return Err(read_error(&file.path, corrupt("block length changed")));
                }
                self.loaded = Some(b);
            }
            let from = start + payload.len() as u64 - at.content;
            let to = end.min(next) - at.content;
            payload.extend_from_slice(&self.block[from as usize..to as usize]);
            b += 1;
        }
        Ok(payload)
    }
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

    /// Writes `regions` as a segment file's region contents, framed with
    /// valid block and footer CRCs, whatever they hold.
    fn framed(path: &Path, regions: [&[u8]; REGIONS]) {
        SegmentWriter::write_file(path, |out| {
            for content in regions {
                out.next_region()?;
                out.write_all(content)?;
            }
            Ok(())
        })
        .unwrap();
    }

    fn assert_corrupt(path: &Path, what: &str) {
        match read_segment(path) {
            Err(StorageError::Corrupt { message, .. }) => println!("{what}: {message}"),
            other => panic!("{what}: {other:?}"),
        }
    }

    /// A directory declaring 2^40 documents behind valid CRCs: refused,
    /// not reserved for (it aborted on a 32 TiB allocation).
    #[test]
    fn a_directory_count_past_the_region_is_corrupt() {
        let path = temp_path("hugecount");
        let mut directory = Vec::new();
        varint::write_u64(&mut directory, 1 << 40);
        framed(&path, [&directory, b"", b"", b""]);
        assert_corrupt(&path, "2^40 docs");
        std::fs::remove_file(&path).unwrap();
    }

    /// `u64::MAX` id and payload lengths overflowed `at + len` (a panic
    /// in a debug build); they are corruption.
    #[test]
    fn u64_max_id_and_payload_lengths_are_corrupt() {
        let path = temp_path("hugelens");
        // One doc, ordinal 0, an id of u64::MAX bytes.
        let mut directory = vec![1, 0];
        varint::write_u64(&mut directory, u64::MAX);
        framed(&path, [&directory, b"", b"", b""]);
        assert_corrupt(&path, "id length");
        // One doc with id "a" whose payload claims u64::MAX bytes.
        let mut stored = Vec::new();
        varint::write_u64(&mut stored, u64::MAX);
        framed(&path, [&[1, 0, 1, b'a'], &stored, b"", b""]);
        assert_corrupt(&path, "payload length");
        std::fs::remove_file(&path).unwrap();
    }

    /// A block whose compressed length is `u64::MAX`, with a valid footer
    /// CRC: `pos + compressed` overflowed (a panic in a debug build).
    #[test]
    fn a_u64_max_compressed_length_is_corrupt() {
        let path = temp_path("hugeblock");
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&FORMAT.to_le_bytes());
        // Directory region: a block of 1 byte, compressed u64::MAX.
        image.push(1);
        varint::write_u64(&mut image, u64::MAX);
        image.extend_from_slice(&crc32(&[0, 0]).to_le_bytes());
        image.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
        let crc = crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        image.extend_from_slice(FOOTER_MAGIC);
        std::fs::write(&path, &image).unwrap();
        assert_corrupt(&path, "compressed length");
        std::fs::remove_file(&path).unwrap();
    }

    /// Blocks are cut at exactly [`BLOCK_TARGET`] bytes, a region's last
    /// one holding the rest, and never empty: an empty region is its end
    /// marker alone, so a file of four is 20 bytes.
    #[test]
    fn blocks_are_cut_at_the_target_and_a_region_ends_in_one_byte() {
        let path = temp_path("cuts");
        let sizes = [0, BLOCK_TARGET, 2 * BLOCK_TARGET + 1, 5];
        let contents = sizes.map(|len| vec![b'x'; len]);
        framed(&path, contents.each_ref().map(Vec::as_slice));
        let segment = SegmentReader::open(&path).unwrap();
        let spans = segment.regions.map(|span| (span.blocks, span.len));
        assert_eq!(
            spans,
            [(0, 0), (1, sizes[1] as u64), (3, sizes[2] as u64), (1, 5)]
        );
        framed(&path, [b"", b"", b"", b""]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 20);
        std::fs::remove_file(&path).unwrap();
    }

    /// Content written in uneven pieces, as a merge writes it, frames into
    /// the bytes `write_segment` writes; a writer used against its
    /// contract, or dropped before it finishes, leaves no file.
    #[test]
    fn pieces_frame_the_same_bytes_and_an_unfinished_file_is_removed() {
        let path = temp_path("whole");
        let data = sample(30);
        let info = write_segment(&path, &data).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let segment = SegmentReader::open(&path).unwrap();
        assert_eq!((segment.bytes(), segment.crc()), (info.bytes, info.crc));
        let regions = [
            Region::Directory,
            Region::Stored,
            Region::Postings,
            Region::Facets,
        ]
        .map(|which| segment.read_region(which).unwrap());
        let copy = temp_path("pieces");
        let copied = SegmentWriter::write_file(&copy, |out| {
            for content in &regions {
                out.next_region()?;
                for piece in content.chunks(7) {
                    out.write_all(piece)?;
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(std::fs::read(&copy).unwrap(), whole);
        assert_eq!((copied.bytes, copied.crc), (info.bytes, info.crc));

        let mut out = SegmentWriter::create(&copy).unwrap();
        assert!(out.write_all(b"before any region").is_err());
        for _ in 0..REGIONS {
            out.next_region().unwrap();
        }
        assert!(out.next_region().is_err(), "a fifth region");
        drop(out);
        assert!(!copy.exists(), "a dropped writer removes its file");
        let mut out = SegmentWriter::create(&copy).unwrap();
        out.next_region().unwrap();
        out.write_all(b"half a segment").unwrap();
        assert!(out.finish().is_err(), "finished after one region");
        assert!(!copy.exists(), "a refused finish removes the file");
        std::fs::remove_file(&path).unwrap();
    }

    /// Writes `data` as `write_segment` does, ending with the payloads the
    /// writer located as it framed them.
    fn write_payloads(path: &Path, data: &SegmentData) -> PayloadFile {
        let mut out = SegmentWriter::create(path).unwrap();
        out.next_region().unwrap();
        out.doc_count(data.docs.len() as u64).unwrap();
        for doc in &data.docs {
            out.entry(doc.ordinal, doc.id.as_bytes()).unwrap();
        }
        out.next_region().unwrap();
        for doc in &data.docs {
            out.payload(&doc.payload).unwrap();
        }
        for content in [&data.postings, &data.facets] {
            out.next_region().unwrap();
            out.write_all(content).unwrap();
        }
        out.finish_payloads().unwrap().1
    }

    /// Documents over several stored blocks: an empty payload, ones that
    /// straddle a block boundary and one longer than two blocks.
    fn spread_sample() -> SegmentData {
        let mut data = sample(700);
        data.docs[3].payload.clear();
        data.docs[350].payload = b"y".repeat(2 * BLOCK_TARGET + 77);
        data
    }

    /// The payloads the writer locates and the ones a reader streaming
    /// the file locates are the same table, and each reads back every
    /// payload — also once the file is unlinked, through the descriptor.
    #[test]
    fn payload_files_read_every_payload_by_offset() {
        let path = temp_path("payloads");
        let data = spread_sample();
        let written = write_payloads(&path, &data);
        let segment = SegmentReader::open(&path).unwrap();
        let mut reader = segment.docs().unwrap();
        let mut streamed = Vec::new();
        while let Some(doc) = reader.next_doc().unwrap() {
            streamed.push((doc.ordinal, doc.id.to_string(), doc.payload.to_vec()));
        }
        let read = reader.finish().unwrap();
        drop(segment);
        assert!(written.blocks.len() >= 4, "{} blocks", written.blocks.len());
        for file in [&written, &read] {
            assert_eq!(file.docs(), data.docs.len());
            assert_eq!(file.heap_bytes(), written.heap_bytes());
        }
        assert_eq!(
            format!("{:?}", written.blocks),
            format!("{:?}", read.blocks)
        );
        assert_eq!(written.docs, read.docs);
        std::fs::remove_file(&path).unwrap();
        for (i, doc) in data.docs.iter().enumerate() {
            let streamed = &streamed[i];
            assert_eq!((streamed.0, &streamed.1), (doc.ordinal, &doc.id));
            assert_eq!(streamed.2, doc.payload, "doc {i} streamed");
            assert_eq!(written.get(i).unwrap(), doc.payload, "doc {i} by offset");
            assert_eq!(read.get(i).unwrap(), doc.payload, "doc {i} by offset");
        }
    }

    /// A byte flipped in a stored block after the table was built fails
    /// the reads of that block's documents as corruption naming the file;
    /// a document in another block still reads back.
    #[test]
    fn a_flipped_stored_block_fails_only_its_documents() {
        let path = temp_path("flipped");
        let data = spread_sample();
        let payloads = write_payloads(&path, &data);
        let second = payloads.blocks[1];
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        // Past the block's header, inside its compressed bytes.
        let mut byte = [0u8];
        file.read_exact_at(&mut byte, second.file + 12).unwrap();
        file.write_all_at(&[byte[0] ^ 0x20], second.file + 12)
            .unwrap();
        let block_of = |doc: usize| {
            let start = payloads.docs[doc].0;
            payloads.blocks.partition_point(|at| at.content <= start) - 1
        };
        let hit = (0..data.docs.len())
            .find(|&doc| block_of(doc) == 1)
            .unwrap();
        let clear = (0..data.docs.len())
            .find(|&doc| block_of(doc) == 0)
            .unwrap();
        match payloads.get(hit) {
            Err(StorageError::Corrupt {
                path: named,
                message,
            }) => {
                assert_eq!(named, path);
                assert!(message.contains("block"), "{message}");
            }
            other => panic!("doc {hit} in the flipped block: {other:?}"),
        }
        assert_eq!(payloads.get(clear).unwrap(), data.docs[clear].payload);
        std::fs::remove_file(&path).unwrap();
    }

    /// A cursor reads every payload as `get` does, in order and out of
    /// order, and reads a block once while it keeps it: with a byte of
    /// the block it holds flipped on disk, the documents that lie wholly
    /// in that block still read back through it, while `get` and the
    /// cursor's next load of the block fail.
    #[test]
    fn a_cursor_reads_each_block_once() {
        let path = temp_path("cursor");
        let data = spread_sample();
        let payloads = write_payloads(&path, &data);
        let mut cursor = payloads.cursor();
        let order = (0..data.docs.len()).chain((0..data.docs.len()).rev().step_by(7));
        for doc in order {
            assert_eq!(
                cursor.get(doc).unwrap(),
                data.docs[doc].payload,
                "doc {doc}"
            );
        }
        let within = |doc: usize, block: usize| {
            let (start, len) = payloads.docs[doc];
            let at = payloads.blocks[block].content;
            let next = payloads.blocks[block + 1].content;
            len > 0 && at <= start && start + len <= next
        };
        let held: Vec<usize> = (0..data.docs.len()).filter(|&d| within(d, 1)).collect();
        let other = (0..data.docs.len()).find(|&d| within(d, 0)).unwrap();
        assert!(held.len() >= 2, "{held:?}");
        let mut cursor = payloads.cursor();
        cursor.get(held[0]).unwrap();
        let second = payloads.blocks[1];
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let mut byte = [0u8];
        File::open(&path)
            .unwrap()
            .read_exact_at(&mut byte, second.file + 12)
            .unwrap();
        file.write_all_at(&[byte[0] ^ 0x20], second.file + 12)
            .unwrap();
        for &doc in &held {
            assert_eq!(
                cursor.get(doc).unwrap(),
                data.docs[doc].payload,
                "doc {doc}"
            );
        }
        assert!(payloads.get(held[1]).is_err());
        assert_eq!(cursor.get(other).unwrap(), data.docs[other].payload);
        assert!(matches!(
            cursor.get(held[1]),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// Copying the directories and stored fields of several files, then
    /// their postings and facets, writes the file one `write_segment` of
    /// all their documents writes.
    #[test]
    fn copied_documents_equal_one_write_of_them_all() {
        let all = sample(40);
        let (mut paths, mut inputs) = (Vec::new(), Vec::new());
        for (i, docs) in [&all.docs[..1], &all.docs[1..25], &all.docs[25..]]
            .into_iter()
            .enumerate()
        {
            let path = temp_path(&format!("part{i}"));
            let part = SegmentData {
                docs: docs.to_vec(),
                postings: all.postings.clone(),
                facets: all.facets.clone(),
            };
            write_segment(&path, &part).unwrap();
            inputs.push(SegmentReader::open(&path).unwrap());
            paths.push(path);
        }
        let merged = temp_path("merged");
        let mut out = SegmentWriter::create(&merged).unwrap();
        out.next_region().unwrap();
        let ranges = copy_directory(&inputs, &mut out).unwrap();
        out.next_region().unwrap();
        copy_stored(&inputs, &ranges, &mut out).unwrap();
        for content in [&all.postings, &all.facets] {
            out.next_region().unwrap();
            out.write_all(content).unwrap();
        }
        out.finish().unwrap();
        assert_eq!(
            ranges
                .iter()
                .map(|r| (r.docs, r.min_ordinal, r.max_ordinal))
                .collect::<Vec<_>>(),
            [(1, 100, 100), (24, 101, 124), (15, 125, 139)]
        );
        let one = temp_path("one");
        write_segment(&one, &all).unwrap();
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            std::fs::read(&one).unwrap()
        );
        drop(inputs);
        for path in paths.iter().chain([&merged, &one]) {
            std::fs::remove_file(path).unwrap();
        }
    }
}
