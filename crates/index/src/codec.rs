//! The postings codec: the encoding of a [`Segment`]'s documents, which
//! is both a segment file's postings region and what an [`Index`] keeps
//! in RAM of every segment.
//!
//! [`Index::merge_segment`] encodes a builder segment
//! ([`encode_segment`]), no re-tokenization, and keeps the bytes,
//! through [`adopt`], as one more frozen segment ([`crate::frozen`]).
//! A seal writes the merge of the unsealed segments' bytes to its file
//! (see [`crate::segment`]); recovery adopts a segment file's region the
//! same way. A frozen segment's lists are decoded one term at a time,
//! when a query opens the term ([`decode_entry`]).
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! doc_count | per doc: external-id len, bytes
//! field_count | per field (sorted by name):
//!   name len, bytes
//!   doc_len[0..doc_count]
//!   per term (sorted, prefix-compressed):
//!     shared-prefix len, suffix len, suffix bytes
//!     posting_count
//!     skip_count | per skip: local doc id, byte offset into postings
//!     postings byte length
//!     postings: per doc: doc gap (first = local id), term frequency,
//!       then position deltas (first absolute) if the field has positions
//!   end entry: shared-prefix len 0, suffix len 0
//! ```
//!
//! A field's dictionary ends with an empty entry rather than starting
//! with its term count (segment format 5), so an encoder or a merge
//! writes each term as it reaches it, in one pass, without knowing how
//! many follow. No real term is empty — the analyzers drop empty tokens
//! — and the first entry that reads as one ends the dictionary. What
//! stays in front, the doc count, ids, field count and doc lengths,
//! every writer knows before it starts.
//!
//! Whether a field has positions is not in the blob: it is the
//! configuration's — a field's analyzer either produces word positions
//! or not (the n-gram field's does not; see
//! [`create_text::Tokenizer::word_positions`]) — and [`adopt`] and
//! [`merge_postings`] read it from the template index they are given.
//! Without positions a posting is two varints, mostly a byte each, which
//! the segment's block compression then shrinks further.
//!
//! Doc ids are stored *segment-local*, so a blob is one segment of an
//! index wherever its documents start, and [`decode_segment`] yields a
//! [`Segment`] that [`Index::merge_segment`] takes exactly as a live
//! parallel-ingest segment. Terms and fields are sorted, making the
//! encoding deterministic even though a builder's dictionaries are hash
//! maps.
//!
//! Skip entries record `(local doc id, byte offset)` every
//! [`SKIP_INTERVAL`] postings so long lists can be entered mid-stream;
//! the checks also use them as an integrity cross-check.
//!
//! [`merge_postings`] merges the blobs of consecutive segments, streamed,
//! into the blob of their concatenation without decoding them into an
//! index, through the same readers and checks as [`adopt`]: the one
//! kernel of disk compaction, of the in-RAM tier rule and of a seal.

use crate::frozen::{FrozenField, FrozenSegment};
use crate::index::{bucket_of, FieldIndex, Index, Segment};
use crate::postings::{Decoded, PostingList, Span};
use create_util::fxhash::{map_with_capacity, FxHashMap};
use create_util::varint;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// One skip entry per this many postings.
pub const SKIP_INTERVAL: usize = 128;
/// The entry that ends a field's dictionary: an empty term, shared-prefix
/// length 0 and suffix length 0.
const END_TERM: [u8; 2] = [0, 0];

/// A malformed postings blob. Segment files are CRC-guarded, so in
/// practice this means a logic error or hand-edited file rather than
/// disk rot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "postings codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(message: impl Into<String>) -> CodecError {
    CodecError(message.into())
}

/// Encodes a builder segment's documents as a segment blob, handed to
/// `out` a term at a time.
pub fn encode_segment(segment: &Segment, out: &mut impl Write) -> io::Result<()> {
    // The blob's bytes not yet handed to `out`.
    let mut record = Vec::new();
    varint::write_u64(&mut record, segment.num_docs() as u64);
    for id in &segment.external_ids {
        let bytes = id.as_bytes();
        varint::write_u64(&mut record, bytes.len() as u64);
        record.extend_from_slice(bytes);
    }

    let mut field_names: Vec<&String> = segment.fields.keys().collect();
    field_names.sort();
    varint::write_u64(&mut record, field_names.len() as u64);
    // Per-term scratch: the postings stream is encoded aside so skip
    // entries can carry byte offsets into it.
    let mut blob = Vec::new();
    let mut skips: Vec<(u32, u64)> = Vec::new();
    for name in field_names {
        let fi = &segment.fields[name];
        varint::write_u64(&mut record, name.len() as u64);
        record.extend_from_slice(name.as_bytes());
        for &len in &fi.doc_len {
            varint::write_u32(&mut record, len);
        }

        let mut terms: Vec<(&str, &PostingList)> = fi
            .dict
            .iter()
            .map(|(term, postings)| (&**term, postings))
            .collect();
        terms.sort_by(|a, b| a.0.cmp(b.0));

        let mut prev_term = "";
        for (term, postings) in terms {
            blob.clear();
            skips.clear();
            let mut prev_doc: u64 = 0;
            // A list of a field without positions yields none.
            for (i, (doc, tf, positions)) in postings.iter().enumerate() {
                let doc = u64::from(doc);
                if i > 0 && i % SKIP_INTERVAL == 0 {
                    skips.push((doc as u32, blob.len() as u64));
                }
                let gap = if i == 0 { doc } else { doc - prev_doc };
                prev_doc = doc;
                varint::write_u64(&mut blob, gap);
                varint::write_u32(&mut blob, tf);
                let mut prev_pos: u64 = 0;
                for (j, &pos) in positions.iter().enumerate() {
                    let delta = if j == 0 {
                        pos as u64
                    } else {
                        pos as u64 - prev_pos
                    };
                    prev_pos = pos as u64;
                    varint::write_u64(&mut blob, delta);
                }
            }
            write_term(
                &mut record,
                prev_term.as_bytes(),
                term.as_bytes(),
                postings.len(),
                &skips,
                &blob,
            );
            out.write_all(&record)?;
            record.clear();
            prev_term = term;
        }
        record.extend_from_slice(&END_TERM);
    }
    out.write_all(&record)
}

/// Appends one dictionary entry: `term` front-coded against `prev`, its
/// posting count, skip entries and postings stream.
fn write_term(
    out: &mut Vec<u8>,
    prev: &[u8],
    term: &[u8],
    postings: usize,
    skips: &[(u32, u64)],
    blob: &[u8],
) {
    let shared = term.iter().zip(prev).take_while(|(a, b)| a == b).count();
    varint::write_u64(out, shared as u64);
    varint::write_u64(out, (term.len() - shared) as u64);
    out.extend_from_slice(&term[shared..]);
    varint::write_u64(out, postings as u64);
    varint::write_u64(out, skips.len() as u64);
    for &(doc, offset) in skips {
        varint::write_u32(out, doc);
        varint::write_u64(out, offset);
    }
    varint::write_u64(out, blob.len() as u64);
    out.extend_from_slice(blob);
}

/// A bounds-checked read position in an untrusted stream of known
/// length — this codec's blobs, the postings streams inside them, and
/// the facet codec's blobs in [`crate::facets`]. Every count is checked
/// against the bytes left before anything is reserved for it. A failure
/// of the stream itself (an unreadable or corrupt block under a segment
/// region) is kept in `failed` for [`merge_postings`] to report as what
/// it is.
pub(crate) struct Reader<R> {
    src: R,
    left: u64,
    failed: Option<io::Error>,
}

impl<'a> Reader<&'a [u8]> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader::over(bytes, bytes.len() as u64)
    }
}

impl<R: BufRead> Reader<R> {
    fn over(src: R, len: u64) -> Self {
        Reader {
            src,
            left: len,
            failed: None,
        }
    }

    /// Bytes not yet read.
    pub(crate) fn left(&self) -> u64 {
        self.left
    }

    fn unreadable(&mut self, e: io::Error) -> CodecError {
        let message = format!("unreadable input: {e}");
        self.failed = Some(e);
        err(message)
    }

    /// A canonical LEB128 integer: the shortest encoding of its value,
    /// which is the only one the encoders write.
    #[inline]
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        // Fast path: one-byte values dominate postings streams (doc gaps
        // and position deltas are mostly below 128).
        if let Ok(&[byte, ..]) = self.src.fill_buf() {
            if byte < 0x80 && self.left > 0 {
                self.src.consume(1);
                self.left -= 1;
                return Ok(u64::from(byte));
            }
        }
        match varint::read_u64_from(&mut self.src).map_err(|e| self.unreadable(e))? {
            Some((value, len)) if len as u64 <= self.left => {
                self.left -= len as u64;
                if len != varint::len_u64(value) {
                    return Err(err(format!("overlong {what}")));
                }
                Ok(value)
            }
            _ => Err(err(format!("truncated {what}"))),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        u32::try_from(self.varint(what)?).map_err(|_| err(format!("{what} overflows u32")))
    }

    pub(crate) fn byte(&mut self, what: &str) -> Result<u8, CodecError> {
        let next = match self.src.fill_buf() {
            Ok(buf) => buf.first().copied(),
            Err(e) => return Err(self.unreadable(e)),
        };
        match next {
            Some(byte) if self.left > 0 => {
                self.src.consume(1);
                self.left -= 1;
                Ok(byte)
            }
            _ => Err(err(format!("truncated {what}"))),
        }
    }

    /// A count of items that each take at least `min_bytes` of the
    /// remaining input — the cap that makes it safe to reserve for.
    pub(crate) fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, CodecError> {
        let count = self.varint(what)?;
        match usize::try_from(count) {
            Ok(count) if count as u64 <= self.left / min_bytes as u64 => Ok(count),
            _ => Err(err(format!("{what} exceeds the remaining input"))),
        }
    }

    /// A length-prefixed byte run, into `out`.
    fn run(&mut self, what: &str, out: &mut Vec<u8>) -> Result<(), CodecError> {
        let len = self.count(1, what)?;
        out.clear();
        out.reserve(len);
        while out.len() < len {
            let available = match self.src.fill_buf() {
                Ok(available) => available,
                Err(e) => return Err(self.unreadable(e)),
            };
            if available.is_empty() {
                return Err(err(format!("truncated {what}")));
            }
            let n = available.len().min(len - out.len());
            out.extend_from_slice(&available[..n]);
            self.src.consume(n);
        }
        self.left -= len as u64;
        Ok(())
    }

    /// A length-prefixed UTF-8 string, read into `out`.
    pub(crate) fn utf8<'o>(
        &mut self,
        what: &str,
        out: &'o mut Vec<u8>,
    ) -> Result<&'o str, CodecError> {
        self.run(what, out)?;
        std::str::from_utf8(out).map_err(|_| err(format!("{what} is not UTF-8")))
    }
}

/// The leading document count of a blob: a document takes its id's
/// length byte plus one length byte per field.
fn doc_count<R: BufRead>(r: &mut Reader<R>, template: &Segment) -> Result<usize, CodecError> {
    r.count(1 + template.fields.len(), "doc count")
}

/// Reads `count` external ids, refusing one already in `ids` (which maps
/// each id to its position in `ids`), and hands each to `each`.
fn read_ids<R: BufRead>(
    r: &mut Reader<R>,
    count: usize,
    ids: &mut FxHashMap<Arc<str>, u32>,
    mut each: impl FnMut(&Arc<str>),
) -> Result<(), CodecError> {
    let mut scratch = Vec::new();
    for _ in 0..count {
        let id = r.utf8("external id", &mut scratch)?;
        if ids.contains_key(id) {
            return Err(err(format!("duplicate external id {id:?}")));
        }
        let id: Arc<str> = Arc::from(id);
        each(&id);
        ids.insert(id, ids.len() as u32);
    }
    Ok(())
}

/// The field count, which must be the configuration's.
fn field_count<R: BufRead>(r: &mut Reader<R>, template: &Segment) -> Result<(), CodecError> {
    if r.count(1, "field count")? != template.fields.len() {
        return Err(err("field count differs from the index configuration"));
    }
    Ok(())
}

/// A field's name, which must follow `prev` and be configured in
/// `template`; the configuration's own name and field.
fn field<'t, R: BufRead>(
    r: &mut Reader<R>,
    template: &'t Segment,
    prev: Option<&str>,
) -> Result<(&'t str, &'t FieldIndex), CodecError> {
    let mut scratch = Vec::new();
    let name = r.utf8("field name", &mut scratch)?;
    if prev.is_some_and(|prev| name <= prev) {
        return Err(err("fields out of order"));
    }
    template
        .fields
        .get_key_value(name)
        .map(|(name, config)| (name.as_str(), config))
        .ok_or_else(|| err(format!("field {name:?} not in index configuration")))
}

/// One posting of a term's stream, as [`Terms::walk`] found it.
struct Posting {
    doc: u32,
    /// Where its doc gap ends and its term frequency starts.
    gap_end: usize,
    /// Where it ends.
    end: usize,
    /// The term's occurrences so far, this posting's included (what
    /// [`PostingList`] keeps as its `ends`).
    tf_end: u32,
}

/// One field's dictionary, read a term at a time: the reconstructed
/// term, its posting count, skip entries and postings stream.
#[derive(Default)]
struct Terms {
    /// Whether the field's postings carry positions (the template's).
    positions: bool,
    /// Whether a term was read and not yet passed: the current one.
    has: bool,
    /// The input's bytes left where the current term's posting count
    /// starts.
    entry: u64,
    text: Vec<u8>,
    suffix: Vec<u8>,
    postings: usize,
    skips: Vec<(u32, u64)>,
    blob: Vec<u8>,
}

impl Terms {
    /// A dictionary not yet read, of a field whose postings carry
    /// positions or not.
    fn new(positions: bool) -> Terms {
        Terms {
            positions,
            ..Terms::default()
        }
    }

    /// Reads the next term; `false` once it reads the dictionary's end
    /// entry, the empty term. Terms must be strictly ascending and
    /// maximally prefix-shared, and a term's skip entries one per
    /// [`SKIP_INTERVAL`] postings.
    fn next<R: BufRead>(&mut self, r: &mut Reader<R>) -> Result<bool, CodecError> {
        // Indexes the previous term, not the input, and reserves
        // nothing: the previous term's length is its only bound.
        let shared = match usize::try_from(r.varint("term prefix length")?) {
            Ok(shared) if shared <= self.text.len() => shared,
            _ => return Err(err("term prefix longer than previous term")),
        };
        r.run("term suffix", &mut self.suffix)?;
        self.has = shared > 0 || !self.suffix.is_empty();
        if !self.has {
            return Ok(false);
        }
        // Ascending order and a maximal shared prefix both come down to
        // the first suffix byte beating the byte it replaces.
        let ascends = match (self.suffix.first(), self.text.get(shared)) {
            (Some(new), Some(old)) => new > old,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !ascends {
            return Err(err("terms out of order or prefix not maximal"));
        }
        self.text.truncate(shared);
        self.text.extend_from_slice(&self.suffix);
        if std::str::from_utf8(&self.text).is_err() {
            return Err(err("term is not UTF-8"));
        }
        self.entry = r.left();
        // A posting takes at least two bytes, doc gap and term frequency,
        // and one position more in a field with positions.
        self.postings = r.count(2 + usize::from(self.positions), "posting count")?;
        if self.postings == 0 {
            return Err(err("term without postings"));
        }
        let skip_count = r.count(2, "skip count")?;
        if skip_count != (self.postings - 1) / SKIP_INTERVAL {
            return Err(err("skip count disagrees with posting count"));
        }
        self.skips.clear();
        for _ in 0..skip_count {
            self.skips
                .push((r.u32("skip doc")?, r.varint("skip offset")?));
        }
        r.run("postings blob", &mut self.blob)?;
        Ok(true)
    }

    fn term(&self) -> &str {
        std::str::from_utf8(&self.text).expect("checked by next")
    }

    /// Walks the current term's postings stream over a segment whose
    /// documents have the field lengths `doc_len` — ascending docs, each
    /// with a term frequency from 1 to the document's length and, in a
    /// field with positions, that many positions; frequencies that sum
    /// to less than 2^32; the skip entries where the stream puts them —
    /// pushing each posting's positions onto `positions` and handing it
    /// to `each`.
    fn walk(
        &self,
        doc_len: &[u32],
        positions: &mut Vec<u32>,
        mut each: impl FnMut(Posting) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        let len = self.blob.len();
        let mut b = Reader::new(&self.blob[..]);
        let (mut prev_doc, mut tf_end) = (0u32, 0u32);
        for i in 0..self.postings {
            let at = len - b.left() as usize;
            let gap = b.u32("doc gap")?;
            if i > 0 && gap == 0 {
                return Err(err("posting docs not ascending"));
            }
            // The first gap is the doc id itself.
            let doc = prev_doc
                .checked_add(gap)
                .filter(|&doc| (doc as usize) < doc_len.len())
                .ok_or_else(|| err("posting doc id past segment doc count"))?;
            prev_doc = doc;
            if i % SKIP_INTERVAL == 0
                && i > 0
                && self.skips[i / SKIP_INTERVAL - 1] != (doc, at as u64)
            {
                return Err(err("skip entry disagrees with postings stream"));
            }
            let gap_end = len - b.left() as usize;
            let tf = b.u32("term frequency")?;
            if tf == 0 {
                return Err(err("posting with term frequency 0"));
            }
            // A document holds a term at most as often as it holds
            // tokens, which bounds a term's occurrences in a field by the
            // field's token count.
            if tf > doc_len[doc as usize] {
                return Err(err("term frequency exceeds the document's length"));
            }
            tf_end = tf_end
                .checked_add(tf)
                .ok_or_else(|| err("term frequencies overflow u32"))?;
            if self.positions {
                let mut prev_pos: u32 = 0;
                for _ in 0..tf {
                    // The first delta is the absolute position.
                    prev_pos = prev_pos
                        .checked_add(b.u32("position delta")?)
                        .ok_or_else(|| err("position overflows u32"))?;
                    positions.push(prev_pos);
                }
            }
            each(Posting {
                doc,
                gap_end,
                end: len - b.left() as usize,
                tf_end,
            })?;
        }
        if b.left() != 0 {
            return Err(err("trailing bytes in postings blob"));
        }
        Ok(())
    }
}

/// Checks a blob [`encode_segment`] or [`merge_postings`] wrote and
/// keeps it, as it is, as a frozen segment of `template`'s field
/// configuration, with the tables that find terms and ids in it (see
/// [`crate::frozen`]). No posting list is built.
///
/// The input is untrusted: every count is capped by what the remaining
/// bytes can hold before anything is reserved for it, and only the
/// canonical encoding is accepted (shortest varints, every template
/// field in name order, strictly ascending maximally prefix-shared
/// terms, unique ids, and postings [`Terms::walk`] accepts: ascending
/// docs within the segment, term frequencies within each document's
/// length, one skip entry per [`SKIP_INTERVAL`] postings) — a blob that
/// is adopted re-encodes to the same bytes. What it accepted,
/// [`decode_entry`] reads without checking again. [`merge_postings`]
/// applies the same checks through the same readers.
pub fn adopt(blob: Vec<u8>, template: &Index) -> Result<FrozenSegment, CodecError> {
    let config = &*template.config;
    // Offsets into the blob are `u32`s.
    let len = blob.len();
    if u32::try_from(len).is_err() {
        return Err(err("blob of 4 GiB or more"));
    }
    let mut r = Reader::new(&blob[..]);
    let doc_count = doc_count(&mut r, config)?;
    let mut at = len - r.left() as usize;
    read_ids(&mut r, doc_count, &mut map_with_capacity(doc_count), |_| {})?;
    // Each id's offset, found again in the bytes `read_ids` checked.
    let mut ids = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        ids.push(at as u32);
        let id_len = varint::read_u64(&blob, &mut at).expect("read by read_ids");
        at += id_len as usize;
    }
    field_count(&mut r, config)?;

    let mut fields = map_with_capacity(config.fields.len());
    let (mut prev, mut positions) = (None, Vec::new());
    for _ in 0..config.fields.len() {
        let (name, fi) = field(&mut r, config, prev)?;
        prev = Some(name);
        let mut doc_len = Vec::with_capacity(doc_count);
        for _ in 0..doc_count {
            doc_len.push(r.u32("doc length")?);
        }
        let (mut text, mut ends, mut entries) = (String::new(), Vec::new(), Vec::new());
        let mut buckets: FxHashMap<(u16, char), Vec<u32>> = FxHashMap::default();
        let mut terms = Terms::new(fi.positions);
        while terms.next(&mut r)? {
            positions.clear();
            terms.walk(&doc_len, &mut positions, |_| Ok(()))?;
            let ordinal = ends.len() as u32;
            buckets
                .entry(bucket_of(terms.term()))
                .or_default()
                .push(ordinal);
            text.push_str(terms.term());
            let end = u32::try_from(text.len()).map_err(|_| err("terms of 4 GiB or more"))?;
            ends.push(end);
            entries.push((len as u64 - terms.entry) as u32);
        }
        let frozen = FrozenField::new(fi, doc_len, text, ends, entries, buckets);
        fields.insert(name.to_string(), frozen);
    }
    if r.left() != 0 {
        return Err(err("trailing bytes after last field"));
    }
    Ok(FrozenSegment::new(blob, ids, fields))
}

/// What [`decode_entry`] does with each posting's positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Positions {
    /// The field stores none.
    Absent,
    /// Stored, but the read needs none (only a phrase does): passed over.
    Skip,
    /// Stored and decoded.
    Keep,
}

/// Decodes the entry of an [`adopt`]ed blob whose posting count starts at
/// byte `at` — a term's postings, their positions as `positions` says —
/// onto the end of `decoded`, and returns where it lies there. `adopt`
/// checked every entry, so nothing is checked again.
pub(crate) fn decode_entry(
    blob: &[u8],
    mut at: usize,
    positions: Positions,
    decoded: &mut Decoded,
) -> Span {
    let count = trusted(blob, &mut at) as usize;
    // Two varints a skip entry, then the postings' byte length.
    for _ in 0..2 * trusted(blob, &mut at) + 1 {
        trusted(blob, &mut at);
    }
    let opened = decoded.open();
    decoded.docs.reserve(count);
    decoded.ends.reserve(count);
    let (mut doc, mut tf_end) = (0u32, 0u32);
    let mut left = count;
    while left > 0 {
        // Without positions, four postings whose gaps and frequencies
        // are a byte each — most of a gram list — in one 8-byte read.
        if positions == Positions::Absent && left >= 4 {
            if let Some(bytes) = blob.get(at..at + 8) {
                let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                if word & 0x8080_8080_8080_8080 == 0 {
                    for pair in bytes.chunks_exact(2) {
                        doc += u32::from(pair[0]);
                        tf_end += u32::from(pair[1]);
                        decoded.docs.push(doc);
                        decoded.ends.push(tf_end);
                    }
                    (at, left) = (at + 8, left - 4);
                    continue;
                }
            }
        }
        left -= 1;
        // The first gap is the doc id itself.
        doc += trusted(blob, &mut at);
        let tf = trusted(blob, &mut at);
        tf_end += tf;
        decoded.docs.push(doc);
        decoded.ends.push(tf_end);
        match positions {
            Positions::Absent => {}
            Positions::Skip => {
                // A varint ends at its first byte below 0x80.
                for _ in 0..tf {
                    while blob[at] >= 0x80 {
                        at += 1;
                    }
                    at += 1;
                }
            }
            Positions::Keep => {
                // The first delta is the absolute position.
                let mut position = 0;
                for _ in 0..tf {
                    position += trusted(blob, &mut at);
                    decoded.positions.push(position);
                }
            }
        }
    }
    decoded.close(opened)
}

/// The varint at `*at` of an adopted blob, which `adopt` read as
/// canonical and within `u32` (a skip offset is one into the blob).
#[inline(always)]
fn trusted(blob: &[u8], at: &mut usize) -> u32 {
    let (mut value, mut shift) = (0u32, 0);
    loop {
        let byte = blob[*at];
        *at += 1;
        value |= u32::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Decodes a blob [`encode_segment`] wrote into a segment of posting
/// lists over segment-local doc ids with `template`'s field
/// configuration, each id one `Arc<str>` its two tables share — ready
/// for [`Index::merge_segment`]. It refuses what [`adopt`] refuses, by
/// adopting the blob, and decodes every list as a query decodes it.
pub fn decode_segment(bytes: &[u8], template: &Index) -> Result<Segment, CodecError> {
    Ok(adopt(bytes.to_vec(), template)?.thaw(template))
}

/// Where a [`merge_postings`] failed.
#[derive(Debug)]
pub enum MergeError {
    /// Input `i` could not be read, or does not decode (kind
    /// `InvalidData`, carrying the [`CodecError`]).
    Input(usize, io::Error),
    /// Writing the merged blob failed.
    Output(io::Error),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Input(i, e) => write!(f, "merge input {i}: {e}"),
            MergeError::Output(e) => write!(f, "merge output: {e}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges the blobs of consecutive segments — `inputs`, each a stream of
/// the given length holding what [`encode_segment`] wrote — into the
/// blob of their concatenation, written to `out` as it is produced, in
/// one pass. Returns each input's document count.
///
/// The bytes are exactly [`encode_segment`] of one builder segment
/// holding the inputs' documents in order, but nothing is decoded: the
/// inputs' dictionaries of each field are walked in step like sorted
/// runs, and a term's postings are the inputs' postings concatenated —
/// the first doc gap of each input rebased by the documents before it,
/// the skip entries recomputed over the whole list — in one per-term
/// buffer. Memory is one term's postings per input plus the inputs'
/// external ids (checked for duplicates, as `merge_segment` checks
/// them). Every input gets [`adopt`]'s checks, by the same code.
///
/// A field's dictionary ends with an entry rather than starting with a
/// count, so each merged term is written as soon as it is complete and
/// the field's end entry once every input's dictionary has ended.
pub fn merge_postings<R: BufRead>(
    inputs: Vec<(R, u64)>,
    template: &Index,
    out: &mut impl Write,
) -> Result<Vec<usize>, MergeError> {
    let template = &*template.config;
    let mut readers: Vec<Reader<R>> = inputs
        .into_iter()
        .map(|(src, len)| Reader::over(src, len))
        .collect();
    let input = |i: usize, readers: &mut [Reader<R>], e: CodecError| {
        let e = readers[i]
            .failed
            .take()
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidData, e));
        MergeError::Input(i, e)
    };
    let mut record = Vec::new();
    let mut emit = |record: &mut Vec<u8>| {
        let written = out.write_all(record).map_err(MergeError::Output);
        record.clear();
        written
    };

    let mut docs = Vec::with_capacity(readers.len());
    for i in 0..readers.len() {
        docs.push(doc_count(&mut readers[i], template).map_err(|e| input(i, &mut readers, e))?);
    }
    let total: usize = docs.iter().sum();
    varint::write_u64(&mut record, total as u64);
    let mut ids = map_with_capacity(total);
    for i in 0..readers.len() {
        read_ids(&mut readers[i], docs[i], &mut ids, |id| {
            varint::write_u64(&mut record, id.len() as u64);
            record.extend_from_slice(id.as_bytes());
        })
        .map_err(|e| input(i, &mut readers, e))?;
        emit(&mut record)?;
    }
    drop(ids);
    for i in 0..readers.len() {
        field_count(&mut readers[i], template).map_err(|e| input(i, &mut readers, e))?;
    }
    varint::write_u64(&mut record, template.fields.len() as u64);

    let mut names: Vec<&str> = template.fields.keys().map(String::as_str).collect();
    names.sort_unstable();
    let mut terms: Vec<Terms> = Vec::with_capacity(readers.len());
    let bases: Vec<u64> = docs
        .iter()
        .scan(0u64, |base, &n| {
            let at = *base;
            *base += n as u64;
            Some(at)
        })
        .collect();
    let (mut blob, mut skips, mut positions) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prev_term, mut holders) = (Vec::new(), Vec::new());
    // Each input's document lengths in the current field.
    let mut lens: Vec<Vec<u32>> = docs.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (f, name) in names.iter().enumerate() {
        varint::write_u64(&mut record, name.len() as u64);
        record.extend_from_slice(name.as_bytes());
        let prev = f.checked_sub(1).map(|p| names[p]);
        for i in 0..readers.len() {
            let (r, lens) = (&mut readers[i], &mut lens[i]);
            lens.clear();
            let read = field(r, template, prev).and_then(|_| {
                for _ in 0..docs[i] {
                    let len = r.u32("doc length")?;
                    varint::write_u32(&mut record, len);
                    lens.push(len);
                }
                Ok(())
            });
            read.map_err(|e| input(i, &mut readers, e))?;
            emit(&mut record)?;
        }
        let positional = template.fields[*name].positions;
        terms.clear();
        for i in 0..readers.len() {
            let mut t = Terms::new(positional);
            t.next(&mut readers[i])
                .map_err(|e| input(i, &mut readers, e))?;
            terms.push(t);
        }

        // Each round writes the smallest current term of any input, its
        // postings gathered from every input holding it, in input order.
        prev_term.clear();
        while let Some(first) = (0..terms.len())
            .filter(|&i| terms[i].has)
            .min_by(|&a, &b| terms[a].text.cmp(&terms[b].text))
        {
            holders.clear();
            holders.extend(
                (first..terms.len())
                    .filter(|&i| terms[i].has && terms[i].text == terms[first].text),
            );
            let (mut n, mut prev_doc, mut tf_end) = (0usize, 0u64, 0u32);
            blob.clear();
            skips.clear();
            for &i in &holders {
                let t = &terms[i];
                positions.clear();
                let mut input_tf_end = 0;
                t.walk(&lens[i], &mut positions, |posting| {
                    let doc = bases[i] + u64::from(posting.doc);
                    if n > 0 && n % SKIP_INTERVAL == 0 {
                        let doc =
                            u32::try_from(doc).map_err(|_| err("merged doc id overflows u32"))?;
                        skips.push((doc, blob.len() as u64));
                    }
                    // Only an input's first gap changes: the rest are
                    // already relative to the posting before them.
                    varint::write_u64(&mut blob, if n == 0 { doc } else { doc - prev_doc });
                    blob.extend_from_slice(&t.blob[posting.gap_end..posting.end]);
                    (n, prev_doc, input_tf_end) = (n + 1, doc, posting.tf_end);
                    Ok(())
                })
                .and_then(|()| {
                    // Each input's sum fits a `u32`; the merged one must
                    // too, as `decode_entry` keeps it in one.
                    tf_end = tf_end
                        .checked_add(input_tf_end)
                        .ok_or_else(|| err("merged term frequencies overflow u32"))?;
                    Ok(())
                })
                .map_err(|e| input(i, &mut readers, e))?;
            }
            let text = &terms[first].text;
            write_term(&mut record, &prev_term, text, n, &skips, &blob);
            prev_term.clone_from(text);
            emit(&mut record)?;
            for &i in &holders {
                terms[i]
                    .next(&mut readers[i])
                    .map_err(|e| input(i, &mut readers, e))?;
            }
        }
        record.extend_from_slice(&END_TERM);
    }
    for i in 0..readers.len() {
        if readers[i].left() != 0 {
            return Err(input(
                i,
                &mut readers,
                err("trailing bytes after last field"),
            ));
        }
    }
    emit(&mut record)?;
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;

    const DOCS: &[(&str, &str)] = &[
        ("pmid:1", "Fever and cough persisted for three days."),
        ("pmid:2", "The patient developed fever after admission."),
        (
            "pmid:3",
            "Amiodarone-induced pulmonary toxicity was confirmed.",
        ),
        ("pmid:4", "Cough resolved; fever recurred on day five."),
        ("pmid:5", "Echocardiogram revealed myocarditis."),
        ("pmid:6", ""),
    ];

    /// The blob [`encode_segment`] writes.
    fn encoded(segment: &Segment) -> Vec<u8> {
        let mut blob = Vec::new();
        encode_segment(segment, &mut blob).unwrap();
        blob
    }

    /// `docs` in one builder segment.
    fn build(docs: &[(&str, &str)]) -> Segment {
        let mut segment = Index::clinical().segment();
        for (id, text) in docs {
            segment
                .add_document(
                    id,
                    &[("title", id), ("body", text), ("body_ngram", text)],
                    [],
                )
                .unwrap();
        }
        segment
    }

    /// The blob of every document of `idx`: its segments' blobs merged.
    fn index_blob(idx: &Index) -> Vec<u8> {
        let blobs: Vec<&[u8]> = idx.frozen().map(FrozenSegment::blob).collect();
        merged(&blobs).unwrap()
    }

    fn assert_identical(a: &Segment, b: &Segment) {
        assert_eq!(a.external_ids, b.external_ids);
        for (name, fa) in &a.fields {
            let fb = b.fields.get(name).expect("same fields");
            assert_eq!(fa.doc_len, fb.doc_len, "doc_len of {name}");
            assert_eq!(fa.dict, fb.dict, "postings of {name}");
        }
    }

    #[test]
    fn full_index_round_trips_through_codec() {
        let segment = build(DOCS);
        let rebuilt = decode_segment(&encoded(&segment), &Index::clinical()).unwrap();
        assert_identical(&segment, &rebuilt);
    }

    #[test]
    fn tail_encoding_splices_back_exactly() {
        let whole = encoded(&build(DOCS));
        // Cut at every possible boundary: head built live, tail from the
        // codec, the result must be the encoding of the uninterrupted
        // build.
        for base in 0..=DOCS.len() {
            let blob = encoded(&build(&DOCS[base..]));
            let mut rebuilt = Index::clinical();
            rebuilt.merge_segment(build(&DOCS[..base])).unwrap();
            let segment = decode_segment(&blob, &rebuilt).unwrap();
            rebuilt.merge_segment(segment).unwrap();
            assert!(index_blob(&rebuilt) == whole, "cut at {base}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encoded(&build(DOCS));
        let b = encoded(&build(DOCS));
        assert_eq!(a, b, "sorted fields/terms make the blob byte-stable");
    }

    #[test]
    fn empty_segment_is_valid() {
        let blob = encoded(&build(&[]));
        let segment = decode_segment(&blob, &Index::clinical()).unwrap();
        assert_eq!(segment.num_docs(), 0);
        let mut rebuilt = Index::clinical();
        rebuilt.merge_segment(build(DOCS)).unwrap();
        rebuilt.merge_segment(segment).unwrap();
        assert_eq!(
            (rebuilt.num_docs(), rebuilt.segment_count()),
            (DOCS.len(), 1)
        );
    }

    #[test]
    fn long_posting_lists_exercise_skip_entries() {
        let mut segment = Index::clinical().segment();
        for i in 0..(SKIP_INTERVAL * 3 + 17) {
            segment
                .add_document(
                    &format!("pmid:{i}"),
                    &[("body", "fever recurred with fever spikes")],
                    [],
                )
                .unwrap();
        }
        let rebuilt = decode_segment(&encoded(&segment), &Index::clinical()).unwrap();
        assert_identical(&segment, &rebuilt);
    }

    /// The blob's last term shares more bytes with its predecessor than
    /// the input has left: the prefix length is bounded by the previous
    /// term alone.
    #[test]
    fn final_term_may_share_more_than_the_remaining_input() {
        let mut segment = Index::clinical().segment();
        for (id, title) in [("a", "12345678901"), ("b", "123456789012")] {
            segment.add_document(id, &[("title", title)], []).unwrap();
        }
        let blob = encoded(&segment);
        // shared 11 | suffix "2" | 1 posting | 0 skips | 3 bytes: doc 1,
        // 1 position, position 0 | the end entry.
        assert!(blob.ends_with(&[11, 1, b'2', 1, 0, 3, 1, 1, 0, 0, 0]));
        let rebuilt = decode_segment(&blob, &Index::clinical()).unwrap();
        assert_identical(&segment, &rebuilt);
    }

    #[test]
    fn compresses_against_in_memory_representation() {
        let mut segment = Index::clinical().segment();
        for i in 0..400 {
            let text = format!(
                "patient {i} presented with fever cough and chest pain on day {}",
                i % 9
            );
            segment
                .add_document(
                    &format!("pmid:{i}"),
                    &[("body", &text), ("body_ngram", &text)],
                    [],
                )
                .unwrap();
        }
        // A builder's lists: per term its text, 4 B doc id and 4 B end a
        // posting, 4 B a position.
        let in_ram: usize = segment
            .fields
            .values()
            .flat_map(|f| &f.dict)
            .map(|(term, list)| {
                let positions: usize = list.iter().map(|(_, _, p)| p.len()).sum();
                term.len() + 8 * list.len() + 4 * positions
            })
            .sum();
        let blob = encoded(&segment);
        assert!(
            blob.len() < in_ram / 2,
            "delta/varint should beat the in-RAM layout >2x: {} of {in_ram}",
            blob.len(),
        );
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let idx = Index::clinical();
        let blob = encoded(&build(DOCS));
        // Truncations at assorted depths.
        for keep in [0, 1, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
            assert!(
                decode_segment(&blob[..keep], &idx).is_err(),
                "kept {keep} bytes"
            );
        }
        // Trailing garbage.
        let mut padded = blob.clone();
        padded.push(0);
        assert!(decode_segment(&padded, &idx).is_err());
        // A field the template does not know.
        let other = Index::new(vec![crate::index::FieldConfig {
            name: "unrelated".into(),
            analyzer: std::sync::Arc::new(create_text::Analyzer::clinical_standard()),
            boost: 1.0,
        }]);
        assert!(decode_segment(&blob, &other).is_err());
    }

    #[test]
    fn hostile_counts_and_lengths_are_errors_not_aborts() {
        let idx = Index::clinical();
        // doc_count = 2^40 in six bytes: reserving for it would abort.
        let mut huge_count = Vec::new();
        varint::write_u64(&mut huge_count, 1 << 40);
        assert_eq!(huge_count.len(), 6);
        assert!(decode_segment(&huge_count, &idx).is_err());
        // One document whose id claims u64::MAX bytes: `pos + len` must
        // not overflow.
        let mut huge_len = vec![1u8];
        varint::write_u64(&mut huge_len, u64::MAX);
        assert!(decode_segment(&huge_len, &idx).is_err());
        // An overlong varint (0 in two bytes) is not what the encoder
        // writes, so it is refused rather than normalised.
        assert!(decode_segment(&[0x80, 0x00], &idx).is_err());
    }

    /// A fixed pseudo-random corpus: lists long enough for skip entries,
    /// repeated words (multi-position postings) and empty documents.
    fn golden_docs() -> Vec<(String, String, String)> {
        const WORDS: &str = "fever cough amiodarone toxicity pulmonary patient myocarditis \
            echocardiogram admission resolved chest pain troponin elevated biopsy confirmed \
            sarcoidosis prednisone dyspnea recurrent";
        let vocabulary: Vec<&str> = WORDS.split(' ').collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..300)
            .map(|i| {
                let words: Vec<&str> = (0..next() % 24)
                    .map(|_| vocabulary[next() % vocabulary.len()])
                    .collect();
                (format!("pmid:{i}"), format!("case {i}"), words.join(" "))
            })
            .collect()
    }

    /// `docs` in one builder segment.
    fn segment_of(docs: &[(String, String, String)]) -> Segment {
        let mut segment = Index::clinical().segment();
        for (id, title, text) in docs {
            segment
                .add_document(
                    id,
                    &[("title", title), ("body", text), ("body_ngram", text)],
                    [],
                )
                .unwrap();
        }
        segment
    }

    /// [`merge_postings`] over in-memory blobs, into the merged blob.
    fn merged(blobs: &[&[u8]]) -> Result<Vec<u8>, MergeError> {
        let inputs = blobs.iter().map(|b| (*b, b.len() as u64)).collect();
        let mut out = Vec::new();
        merge_postings(inputs, &Index::clinical(), &mut out)?;
        Ok(out)
    }

    /// Merging the blobs of consecutive document ranges writes the blob
    /// of the whole range — with skip boundaries inside later inputs,
    /// one-document and empty inputs.
    #[test]
    fn merged_blobs_equal_the_blob_of_the_concatenation() {
        let docs = golden_docs();
        let whole = encoded(&segment_of(&docs));
        for cuts in [
            &[0, 300][..],
            &[0, 1, 300],
            &[0, 100, 200, 250, 300],
            &[0, 128, 129, 300],
            &[0, 299, 300],
            &[0, 0, 150, 150, 300],
        ] {
            let blobs: Vec<Vec<u8>> = cuts
                .windows(2)
                .map(|w| encoded(&segment_of(&docs[w[0]..w[1]])))
                .collect();
            let inputs: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
            assert!(merged(&inputs).unwrap() == whole, "cuts {cuts:?}");
        }
        assert_eq!(merged(&[]).unwrap(), encoded(&segment_of(&[])));
    }

    #[test]
    fn merge_refuses_what_decode_and_merge_segment_refuse() {
        let docs = golden_docs();
        let (a, b) = (
            encoded(&segment_of(&docs[..10])),
            encoded(&segment_of(&docs[10..20])),
        );
        // The same ids twice: `merge_segment` refuses the second input.
        match merged(&[&a, &b, &a]) {
            Err(MergeError::Input(2, e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("{other:?}"),
        }
        let mut padded = b.clone();
        padded.push(0);
        assert!(matches!(
            merged(&[&a, &padded]),
            Err(MergeError::Input(1, _))
        ));
        assert!(matches!(
            merged(&[&a[..a.len() - 1], &b]),
            Err(MergeError::Input(0, _))
        ));
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The on-disk bytes are pinned, so a change of in-RAM layout cannot
    /// move the segment format. Re-pinned once, when `body_ngram`
    /// stopped storing positions (its tokenizer numbers grams, not
    /// words): these are the blobs of the earlier pins (274 858 and
    /// 149 266 bytes, taken over the one-`Vec`-per-posting layout of
    /// commit ea0f7f5) with that field's position deltas left out and
    /// the lengths and skip offsets that frame them recomputed. Re-pinned
    /// a second time for format 5, whose dictionaries end with an entry
    /// instead of starting with a count: these are the blobs of the
    /// format-4 pins (144 171 and 78 469 bytes, digests
    /// `0x34aa1daffdf63c8b` and `0xa75792ba0d75068a`) with each field's
    /// leading term count left out and the two-byte end entry written
    /// after its last term.
    #[test]
    fn encoding_matches_the_golden_digests() {
        let docs = golden_docs();
        for (base, len, digest) in [
            (0, 144_172, 0xd5ff_c1be_f991_50c4u64),
            (137, 78_470, 0xe3cc_f6e2_eaf7_3cd5),
        ] {
            let blob = encoded(&segment_of(&docs[base..]));
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, digest),
                "docs from {base}"
            );
        }
    }
}
