//! Glue between the [`Create`](crate::Create) facade and the
//! `create-storage` engine: the WAL record shape, the segment seal, the
//! recovery load, the streaming compaction, and the storage metric
//! emitters.
//!
//! The durable unit everywhere is the **document payload** — one JSON
//! object bundling the two documents a report contributes: the report
//! itself and its extraction, the one stored record of its annotations
//! (the BRAT export is rendered from it on read,
//! [`ExtractedAnnotations::to_brat`]):
//!
//! ```json
//! {"extraction": {"mentions": [...], "relations": [...]}, "report": {...}}
//! ```
//!
//! A shard keeps each unsealed report's payload as text, by internal
//! doc id (see [`crate::payloads`]); a sealed segment stores exactly
//! those bytes per document, and serves them from then on, and a WAL
//! `doc` record — the only record type — wraps the same members with the
//! report's global ingest ordinal: `{"extraction","ordinal","report","t"}`.
//! The segments and the WAL are the only durable copies. Recovery re-applies payloads through the same
//! `Writer::apply` / `Writer::merge` live ingestion uses, which is what
//! makes post-crash rankings bit-identical. What recovery cannot read it
//! refuses: every content error of a record or a payload, and a segment
//! whose copies of a document's id disagree, is reported as
//! [`StorageError::Corrupt`] naming the file. Both members are required:
//! a payload or record without its extraction is refused too, never read
//! as a report without annotations.
//!
//! A seal ([`write_tail`], from the shard's unsealed payloads and its
//! index's unsealed segment) and a compaction ([`compact_shard`], from
//! the encoded inputs) each write their segment in one pass through one
//! `SegmentWriter`, so neither holds a copy of the documents, and each
//! ends with the file's [`PayloadFile`], located as it was framed;
//! recovery checks each file against its manifest entry and its postings
//! region with the codec's checks ([`load_segment`]), adopts that region,
//! undecoded, as one frozen in-RAM segment, and streams the documents,
//! parsing each payload where its block holds it.
//!
//! Ingest serializes each member once and splices the texts into the
//! WAL record and the payload; WAL replay splices the record's member
//! texts into the payload. Nobody re-serializes a parsed tree, and the
//! bytes are what serializing the whole object would give (its keys
//! come out in the same sorted order).

use crate::pipeline::{ExtractedAnnotations, ResolvedMention};
use crate::system::ShardSnapshot;
use create_docstore::json::{object_members, JsonError, Kind, Reader, Value};
use create_index::codec::{self, MergeError};
use create_index::facets::FacetIndex;
use create_index::{FrozenSegment, Index};
use create_obs::names as obs_names;
use create_ontology::{ConceptId, EntityType, RelationType};
use create_storage::manifest::segment_file_name;
use create_storage::segment::{PayloadFile, Region, SegmentReader, SegmentWriter};
use create_storage::{
    segment, Manifest, SegmentFileInfo, SegmentMeta, ShardManifest, StorageError, Wal,
};
use create_text::Span;
use std::borrow::Cow;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A flush compacts a shard once it holds this many segments: they are
/// merged, block by block and term by term, into one file
/// ([`compact_shard`]) — the file one seal of the same documents would
/// have written.
pub(crate) const COMPACT_SEGMENT_THRESHOLD: usize = 4;

/// Per-shard durable state, owned by the shard's writer (so it shares
/// the writer's serialization — WAL appends never race). Which documents
/// the segment files hold the shard's index knows
/// ([`Index::sealed_docs`]); the rest live only in the WAL until the
/// next flush seals them.
pub(crate) struct ShardStorage {
    /// The shard's write-ahead log.
    pub wal: Wal,
    /// The shard's storage directory (`<data>/storage/shard-<i>`).
    pub dir: PathBuf,
}

/// Engine-wide durable state, owned by the facade.
pub(crate) struct StorageRoot {
    /// The storage directory (`<data>/storage`).
    pub dir: PathBuf,
    /// The live manifest; mutated under the write lock only.
    pub manifest: Mutex<Manifest>,
}

impl StorageRoot {
    pub(crate) fn lock_manifest(&self) -> std::sync::MutexGuard<'_, Manifest> {
        self.manifest
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The two members of one report's payload, as serialized text.
pub struct DocPayload<'a> {
    /// The extraction, as stored.
    pub extraction: &'a str,
    /// The report, as stored.
    pub report: &'a str,
}

/// A payload read back from a WAL record or a segment, decoded in the
/// pass that checked it ([`decode_payload`], [`decode_wal_record`]):
/// its documents' texts, borrowed from the record, its report's core
/// fields and its extraction.
pub struct StoredDoc<'a> {
    /// The payload's two members as they stand in the record.
    pub texts: DocPayload<'a>,
    /// The report's core fields — what `index_doc` and `Writer::apply`
    /// read of it.
    pub fields: ReportFields<'a>,
    /// The report's annotations.
    pub annotations: ExtractedAnnotations,
}

/// The core fields of a stored report, borrowed from its document where
/// the JSON string holds no escape.
#[derive(Debug)]
pub struct ReportFields<'a> {
    /// `_id`
    pub id: Cow<'a, str>,
    /// `title`
    pub title: Cow<'a, str>,
    /// `text`
    pub text: Cow<'a, str>,
    /// `year`
    pub year: u32,
    /// `category`
    pub category: Cow<'a, str>,
}

/// Serializes an object whose members' values are already serialized:
/// `{"key":text,…}`. Given in key order — and only then — the bytes are
/// what serializing the parsed object gives.
fn splice_object(members: &[(&str, &str)]) -> String {
    debug_assert!(members.is_sorted_by_key(|(key, _)| key));
    let mut out = String::from("{");
    for (key, text) in members {
        if out.len() > 1 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        out.push_str(text);
    }
    out.push('}');
    out
}

/// Builds a document payload: what the shard keeps and a segment stores.
pub(crate) fn payload_text(payload: &DocPayload<'_>) -> String {
    splice_object(&[
        ("extraction", payload.extraction),
        ("report", payload.report),
    ])
}

/// Builds a WAL `doc` record.
pub(crate) fn doc_record(ordinal: u64, payload: &DocPayload<'_>) -> String {
    splice_object(&[
        ("extraction", payload.extraction),
        ("ordinal", &ordinal.to_string()),
        ("report", payload.report),
        ("t", "\"doc\""),
    ])
}

/// Decodes a stored payload — `{"extraction":…,"report":…}`, other
/// members ignored — in one pass over its bytes.
///
/// What reads back is what a parse of the payload into a JSON tree
/// would have read: the payload is one JSON object under the grammar and
/// depth cap of [`create_docstore::parse_json`]; of a repeated key the
/// last member counts, in the payload and in every object inside it;
/// both members must be present. The report must be an object with
/// string `_id`, `title`, `text` and `category` and an integral `year`
/// in `u32` range. The extraction must be an object whose `mentions` and
/// `relations` are arrays:
///
/// * a mention is an object with a string `text` and a `type` naming an
///   entity type; a string `concept` must parse as a concept id, and any
///   other `concept` means none; a numeric `step` is cast `as u32`
///   (saturating, toward zero), any other means none; a `span` is an
///   array whose first two items are numbers, start not past end, cast
///   `as usize` — any other `span` means none;
/// * a relation is an array of exactly three items: two numbers, cast
///   `as usize`, and a string naming a relation type.
///
/// Anything else is an error, never a default.
pub fn decode_payload(bytes: &[u8]) -> Result<StoredDoc<'_>, String> {
    members(bytes, "payload")?.doc()
}

/// Decodes one WAL record — a `doc` record, the only type there is — in
/// one pass: its global ingest ordinal (the last `ordinal`, a
/// non-negative integer) and its payload, decoded as
/// [`decode_payload`] decodes one. The last `t` must be `"doc"`.
pub fn decode_wal_record(bytes: &[u8]) -> Result<(u64, StoredDoc<'_>), String> {
    let members = members(bytes, "WAL record")?;
    match members.record_type.as_deref() {
        Some("doc") => {}
        other => return Err(format!("unknown WAL record type {other:?}")),
    }
    let ordinal = members
        .ordinal
        .ok_or("doc record's ordinal is not a non-negative integer")?;
    Ok((ordinal, members.doc()?))
}

/// The members a payload or a WAL record is read for, each as its last
/// occurrence left it.
#[derive(Default)]
struct Members<'a> {
    report: Option<(ReportSlots<'a>, &'a str)>,
    extraction: Option<(Option<ExtractedAnnotations>, &'a str)>,
    /// `t`, when a string.
    record_type: Option<Cow<'a, str>>,
    /// `ordinal`, when a non-negative integer.
    ordinal: Option<u64>,
}

impl<'a> Members<'a> {
    /// The payload, when both of its documents read back.
    fn doc(self) -> Result<StoredDoc<'a>, String> {
        let (report, report_text) = self.report.ok_or("payload missing report")?;
        let (extraction, extraction_text) = self.extraction.ok_or("payload missing extraction")?;
        let fields = report.fields()?;
        let annotations = extraction.ok_or("stored extraction does not deserialize")?;
        Ok(StoredDoc {
            texts: DocPayload {
                extraction: extraction_text,
                report: report_text,
            },
            fields,
            annotations,
        })
    }
}

/// Walks a serialized payload or WAL record once, decoding the members
/// [`Members`] keeps and checking the rest.
fn members<'a>(bytes: &'a [u8], what: &str) -> Result<Members<'a>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))?;
    let mut r = Reader::new(text);
    let mut members = Members::default();
    let mut walk = |r: &mut Reader<'a>| {
        if r.kind() != Some(Kind::Object) {
            return Err(r.err("expected an object"));
        }
        r.object(&mut |r, key| {
            match &*key {
                "report" => members.report = Some(r.spanned(read_report)?),
                "extraction" => members.extraction = Some(r.spanned(read_extraction)?),
                "t" => members.record_type = string(r)?,
                "ordinal" => {
                    members.ordinal = number(r)?
                        .and_then(integral)
                        .and_then(|ordinal| u64::try_from(ordinal).ok())
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.finish()
    };
    walk(&mut r).map_err(|e| format!("{what} is not a JSON object: {e}"))?;
    Ok(members)
}

/// A stored report's core fields, each as its last member left it:
/// `None` where it is absent or of the wrong type.
#[derive(Default)]
struct ReportSlots<'a> {
    id: Option<Cow<'a, str>>,
    title: Option<Cow<'a, str>>,
    text: Option<Cow<'a, str>>,
    year: Option<u32>,
    category: Option<Cow<'a, str>>,
}

impl<'a> ReportSlots<'a> {
    /// Ingest always writes all five fields, so a missing one — or a
    /// `year` that is not an integer in `u32` range — is an error, never
    /// a default.
    fn fields(self) -> Result<ReportFields<'a>, String> {
        let field = |value: Option<Cow<'a, str>>, key: &str| {
            value.ok_or_else(|| format!("stored report missing {key:?}"))
        };
        let year = self
            .year
            .ok_or("stored report's year is not an integer in 0..2^32")?;
        Ok(ReportFields {
            id: field(self.id, "_id")?,
            title: field(self.title, "title")?,
            text: field(self.text, "text")?,
            year,
            category: field(self.category, "category")?,
        })
    }
}

/// Reads a stored report's core fields; a report that is not an object
/// has none.
fn read_report<'a>(r: &mut Reader<'a>) -> Result<ReportSlots<'a>, JsonError> {
    let mut slots = ReportSlots::default();
    if r.kind() != Some(Kind::Object) {
        r.skip()?;
        return Ok(slots);
    }
    r.object(&mut |r, key| {
        let slot = match &*key {
            "_id" => &mut slots.id,
            "title" => &mut slots.title,
            "text" => &mut slots.text,
            "category" => &mut slots.category,
            "year" => {
                slots.year = number(r)?
                    .and_then(integral)
                    .and_then(|year| u32::try_from(year).ok());
                return Ok(());
            }
            _ => return r.skip(),
        };
        *slot = string(r)?;
        Ok(())
    })?;
    Ok(slots)
}

/// Reads a stored extraction: `None` when it is not of the shape
/// [`decode_payload`] describes.
fn read_extraction(r: &mut Reader<'_>) -> Result<Option<ExtractedAnnotations>, JsonError> {
    if r.kind() != Some(Kind::Object) {
        r.skip()?;
        return Ok(None);
    }
    let (mut mentions, mut relations) = (None, None);
    r.object(&mut |r, key| {
        match &*key {
            "mentions" => mentions = list(r, read_mention)?,
            "relations" => relations = list(r, read_relation)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(mentions
        .zip(relations)
        .map(|(mentions, relations)| ExtractedAnnotations {
            mentions,
            relations,
        }))
}

/// Reads an array with `item`: `None` when the value is not an array or
/// any item is not of its shape (every item is read either way).
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, JsonError>,
) -> Result<Option<Vec<T>>, JsonError> {
    if r.kind() != Some(Kind::Array) {
        r.skip()?;
        return Ok(None);
    }
    let mut items = Some(Vec::new());
    r.array(&mut |r| {
        let read = item(r)?;
        items = items.take().zip(read).map(|(mut items, read)| {
            items.push(read);
            items
        });
        Ok(())
    })?;
    Ok(items)
}

/// Reads one stored mention.
fn read_mention(r: &mut Reader<'_>) -> Result<Option<ResolvedMention>, JsonError> {
    if r.kind() != Some(Kind::Object) {
        r.skip()?;
        return Ok(None);
    }
    let (mut text, mut etype, mut concept, mut step, mut span) = (None, None, None, None, None);
    r.object(&mut |r, key| {
        match &*key {
            "text" => text = string(r)?,
            "type" => etype = string(r)?,
            "concept" => concept = string(r)?,
            "step" => step = number(r)?,
            "span" => span = read_span(r)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let concept = match concept {
        Some(cui) => match ConceptId::parse(&cui) {
            Some(concept) => Some(concept),
            None => return Ok(None),
        },
        None => None,
    };
    let (Some(text), Some(Ok(etype))) = (text, etype.map(|e| e.parse::<EntityType>())) else {
        return Ok(None);
    };
    Ok(Some(ResolvedMention {
        text: text.into_owned(),
        etype,
        concept,
        time_step: step.map(|step| step as u32),
        span,
    }))
}

/// Reads a mention's `span`: the first two items of an array, when both
/// are numbers and the start is not past the end.
fn read_span(r: &mut Reader<'_>) -> Result<Option<Span>, JsonError> {
    if r.kind() != Some(Kind::Array) {
        r.skip()?;
        return Ok(None);
    }
    let (mut bounds, mut at) = ([None, None], 0);
    r.array(&mut |r| {
        match bounds.get_mut(at) {
            Some(bound) => *bound = number(r)?,
            None => r.skip()?,
        }
        at += 1;
        Ok(())
    })?;
    Ok(match bounds {
        [Some(start), Some(end)] if start <= end => Some(Span::new(start as usize, end as usize)),
        _ => None,
    })
}

/// Reads one stored relation: `[source, target, type]`.
fn read_relation(r: &mut Reader<'_>) -> Result<Option<(usize, usize, RelationType)>, JsonError> {
    if r.kind() != Some(Kind::Array) {
        r.skip()?;
        return Ok(None);
    }
    let (mut source, mut target, mut rel, mut items) = (None, None, None, 0);
    r.array(&mut |r| {
        match items {
            0 => source = number(r)?,
            1 => target = number(r)?,
            2 => rel = string(r)?,
            _ => r.skip()?,
        }
        items += 1;
        Ok(())
    })?;
    let (Some(source), Some(target), Some(Ok(rel)), 3) = (
        source,
        target,
        rel.map(|r| r.parse::<RelationType>()),
        items,
    ) else {
        return Ok(None);
    };
    Ok(Some((source as usize, target as usize, rel)))
}

/// The next value when it is a string; `None`, the value skipped, when
/// it is not.
fn string<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if r.kind() == Some(Kind::String) {
        r.string().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// The next value when it is a number; `None`, the value skipped, when
/// it is not.
fn number(r: &mut Reader<'_>) -> Result<Option<f64>, JsonError> {
    if r.kind() == Some(Kind::Number) {
        r.number().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// A number as an integer when it is one: finite with no fraction, cast
/// `as i64` (saturating).
fn integral(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.is_finite()).then_some(n as i64)
}

/// A parsed member of a stored payload (`"report"` or `"extraction"`),
/// or `None` when the payload has no such member.
pub(crate) fn payload_member(payload: &str, key: &str) -> Option<Value> {
    let members = object_members(payload, |k| k == key).ok()?;
    members.into_iter().rfind(|member| member.key == key)?.value
}

/// Writes index docs `[base..num_docs)` of `shard` — its unsealed
/// documents — as the segment file at `path`, each region streamed from
/// the shard's own columns (indexed by doc id, like the index) and from
/// `unsealed`, the index's one unsealed segment: the directory from its
/// ids and the ordinals, each payload as the shard holds it, its blob,
/// and the encoding of its facets. Holds a block of the region being
/// written and the facet encoding — never a copy of the documents.
/// Returns the file's size and CRC, and its payloads, which now serve
/// the documents.
pub(crate) fn write_tail(
    path: &Path,
    shard: &ShardSnapshot,
    base: usize,
    unsealed: &FrozenSegment,
) -> Result<(SegmentFileInfo, PayloadFile), StorageError> {
    let num = shard.index.num_docs();
    debug_assert!(
        shard.docs.len() == num && shard.ordinals.len() == num,
        "every column must cover every indexed doc at seal time"
    );
    assert_eq!(unsealed.num_docs(), num - base, "the unsealed docs");
    assert_eq!(shard.docs.sealed_docs(), base, "the unsealed payloads");
    let mut out = SegmentWriter::create(path)?;
    write_tail_regions(&mut out, shard, base, unsealed).map_err(|e| out.error(e))?;
    out.finish_payloads()
}

/// The four regions of [`write_tail`]'s file.
fn write_tail_regions(
    out: &mut SegmentWriter,
    shard: &ShardSnapshot,
    base: usize,
    unsealed: &FrozenSegment,
) -> io::Result<()> {
    let num = shard.index.num_docs();
    out.next_region()?;
    out.doc_count((num - base) as u64)?;
    for doc in base..num {
        let id = unsealed.external_id((doc - base) as u32).expect("unsealed");
        out.entry(shard.ordinals[doc], id.as_bytes())?;
    }
    out.next_region()?;
    for payload in shard.docs.unsealed().iter() {
        out.payload(payload.as_bytes())?;
    }
    out.next_region()?;
    out.write_all(unsealed.blob())?;
    out.next_region()?;
    out.write_all(&unsealed.facets().encode())
}

/// Adapter for `map_err`: a content error found in the file at `path`,
/// as [`StorageError::Corrupt`] naming the file.
pub(crate) fn corrupt_at<E: ToString>(path: &Path) -> impl FnOnce(E) -> StorageError + '_ {
    move |e| StorageError::Corrupt {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// Reads one sealed segment file back into what it was sealed from: the
/// frozen segment the shard's index adopts — the postings region checked
/// and kept as it is ([`codec::adopt`], with `template`'s field
/// configuration) and the facet region decoded beside it
/// ([`FrozenSegment::with_facets`]) — and the file's [`PayloadFile`],
/// which serves the documents' payloads from then on. Each document is
/// handed to `apply` — its ordinal, its report's fields and its
/// extraction — parsed from its payload where its block holds it, once
/// its three copies of its id agree ([`check_ids`]); no payload is
/// kept. Recovery's reader of segment files; compaction streams them
/// instead ([`compact_shard`]).
///
/// The file must be the one the manifest entry `meta` describes: its
/// size and footer CRC, and its directory's document count and first
/// and last ordinal. A swapped or rolled-back file — or an entry whose
/// `max_ordinal` would make WAL replay skip records the file does not
/// hold — is corruption naming the file and the value.
pub(crate) fn load_segment(
    path: &Path,
    meta: &SegmentMeta,
    template: &Index,
    mut apply: impl FnMut(u64, &ReportFields<'_>, &ExtractedAnnotations),
) -> Result<(FrozenSegment, PayloadFile), StorageError> {
    let segment = SegmentReader::open(path)?;
    check_meta(path, "bytes", meta.bytes, segment.bytes())?;
    check_meta(path, "crc", meta.crc.into(), segment.crc().into())?;
    let facets = segment.read_region(Region::Facets)?;
    let facets = FacetIndex::decode(&facets).map_err(corrupt_at(path))?;
    let postings = segment.read_region(Region::Postings)?;
    let postings = codec::adopt(postings, template).map_err(corrupt_at(path))?;
    let frozen = postings.with_facets(facets).map_err(corrupt_at(path))?;
    let mut docs = segment.docs()?;
    check_meta(path, "docs", meta.docs, docs.count())?;
    let faceted = frozen.facets().num_docs() as usize;
    check_doc_counts(path, docs.count() as usize, frozen.num_docs(), faceted)?;
    let (mut doc, mut first, mut last) = (0, 0, 0);
    while let Some(stored) = docs.next_doc()? {
        let payload = decode_payload(stored.payload).map_err(corrupt_at(path))?;
        let indexed = frozen.external_id(doc as u32);
        check_ids(path, doc, stored.id, indexed, &payload.fields.id)?;
        apply(stored.ordinal, &payload.fields, &payload.annotations);
        if doc == 0 {
            first = stored.ordinal;
        }
        (doc, last) = (doc + 1, stored.ordinal);
    }
    let payloads = docs.finish()?;
    check_meta(path, "min_ordinal", meta.min_ordinal, first)?;
    check_meta(path, "max_ordinal", meta.max_ordinal, last)?;
    Ok((frozen, payloads))
}

/// A segment file's `field` must be what its manifest entry records.
fn check_meta(path: &Path, field: &str, manifest: u64, file: u64) -> Result<(), StorageError> {
    if manifest != file {
        return Err(corrupt_at(path)(format!(
            "the manifest records {field} {manifest}, the file has {file}"
        )));
    }
    Ok(())
}

/// A segment's three regions must cover the same documents.
fn check_doc_counts(
    path: &Path,
    stored: usize,
    indexed: usize,
    faceted: usize,
) -> Result<(), StorageError> {
    if indexed != stored || faceted != stored {
        return Err(corrupt_at(path)(format!(
            "segment stores {stored} docs but indexes {indexed} and its facets cover {faceted}"
        )));
    }
    Ok(())
}

/// A segment names document `doc` three times — in its directory, its
/// postings and its payload's `report._id` — and a shard's columns are
/// positional, so the three must agree: a reordered region would
/// otherwise open with every column but one misaligned.
fn check_ids(
    path: &Path,
    doc: usize,
    directory: &str,
    postings: Option<&str>,
    payload: &str,
) -> Result<(), StorageError> {
    if postings == Some(directory) && payload == directory {
        return Ok(());
    }
    Err(corrupt_at(path)(format!(
        "doc {doc}: directory id {directory:?}, postings id {postings:?} \
         and payload id {payload:?} disagree"
    )))
}

/// Rewrites a shard's segments as one file, streaming, in one pass: a
/// k-way merge of the encoded segments that holds one block per input
/// and one term's postings, never a decoded index or the shard's
/// documents. Directory entries and stored payloads are copied through,
/// postings merge term by term ([`codec::merge_postings`], with
/// `template`'s field configuration), and the facets — a few KB a
/// segment — are decoded, concatenated ([`FacetIndex::concat`], the
/// kernel of the in-RAM merges) and re-encoded. The file is byte for
/// byte what one seal of the same documents writes.
///
/// Each input's three regions must count the same documents, which is
/// known once they are read: a disagreement, like any failure part-way,
/// drops the unfinished file. The old files stay on disk until the
/// caller swaps the manifest and sweeps orphans — a crash
/// mid-compaction changes nothing. Returns the new file's payloads,
/// which hold every document rewritten.
pub(crate) fn compact_shard(
    shard_dir: &Path,
    entry: &mut ShardManifest,
    template: &Index,
) -> Result<PayloadFile, StorageError> {
    let inputs = entry
        .segments
        .iter()
        .map(|meta| SegmentReader::open(&shard_dir.join(&meta.file)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut faceted = Vec::with_capacity(inputs.len());
    for input in &inputs {
        let region = input.read_region(Region::Facets)?;
        faceted.push(FacetIndex::decode(&region).map_err(corrupt_at(input.path()))?);
    }
    let facets = FacetIndex::concat(&faceted).encode();

    let file = segment_file_name(entry.next_segment_id);
    let mut out = SegmentWriter::create(&shard_dir.join(&file))?;
    let written = write_compacted(&inputs, template, &facets, &mut out)?;
    for (i, input) in inputs.iter().enumerate() {
        let stored = written.ranges[i].docs as usize;
        let facets = faceted[i].num_docs() as usize;
        check_doc_counts(input.path(), stored, written.indexed[i], facets)?;
    }
    let (info, payloads) = out.finish_payloads()?;

    let filled = || written.ranges.iter().filter(|range| range.docs > 0);
    let min_ordinal = filled().next().map_or(0, |range| range.min_ordinal);
    let max_ordinal = filled().next_back().map_or(0, |range| range.max_ordinal);
    let count = written.ranges.iter().map(|range| range.docs).sum();
    entry.segments = vec![SegmentMeta {
        file,
        docs: count,
        bytes: info.bytes,
        crc: info.crc,
        min_ordinal,
        max_ordinal,
    }];
    entry.next_segment_id += 1;
    Ok(payloads)
}

/// What [`write_compacted`] learned of its inputs.
struct Compacted {
    /// Each input's documents, as its directory lists them.
    ranges: Vec<segment::DocRange>,
    /// Each input's documents, as its postings count them.
    indexed: Vec<usize>,
}

/// Writes the segment that concatenates `inputs` into `out`, one region
/// after another: directory and stored fields copied through, postings
/// merged, then the merged `facets`.
fn write_compacted(
    inputs: &[SegmentReader],
    template: &Index,
    facets: &[u8],
    out: &mut SegmentWriter,
) -> Result<Compacted, StorageError> {
    out.next_region().map_err(|e| out.error(e))?;
    let ranges = segment::copy_directory(inputs, out)?;
    out.next_region().map_err(|e| out.error(e))?;
    segment::copy_stored(inputs, &ranges, out)?;
    out.next_region().map_err(|e| out.error(e))?;
    let postings = inputs
        .iter()
        .map(|input| {
            let region = input.region(Region::Postings);
            let len = region.remaining();
            (region, len)
        })
        .collect();
    let indexed = codec::merge_postings(postings, template, out).map_err(|e| match e {
        MergeError::Input(i, e) => inputs[i].error(e),
        MergeError::Output(e) => out.error(e),
    })?;
    out.next_region()
        .and_then(|()| out.write_all(facets))
        .map_err(|e| out.error(e))?;
    Ok(Compacted { ranges, indexed })
}

/// Counts a WAL append (framed bytes + latency, with a trace exemplar
/// when the append runs under a traced request).
pub(crate) fn note_wal_append(bytes: u64, seconds: f64) {
    if !create_obs::enabled() {
        return;
    }
    create_obs::counter(obs_names::WAL_APPENDED_BYTES_TOTAL).inc_by(bytes);
    create_obs::histogram(obs_names::WAL_APPEND_SECONDS)
        .observe_traced(seconds, create_obs::current_trace_raw());
}

/// Records a WAL fsync latency (the durability point of the append
/// path) into the same histogram as the appends it covers.
pub(crate) fn note_wal_sync(seconds: f64) {
    if !create_obs::enabled() {
        return;
    }
    create_obs::histogram(obs_names::WAL_APPEND_SECONDS)
        .observe_traced(seconds, create_obs::current_trace_raw());
}

/// Records a segment seal latency.
pub(crate) fn note_seal(seconds: f64) {
    if !create_obs::enabled() {
        return;
    }
    create_obs::histogram(obs_names::SEGMENT_SEAL_SECONDS)
        .observe_traced(seconds, create_obs::current_trace_raw());
}

/// Counts one compaction run and the documents it rewrote.
pub(crate) fn note_compaction(merged_docs: u64) {
    if !create_obs::enabled() {
        return;
    }
    create_obs::counter(obs_names::COMPACTION_RUNS_TOTAL).inc();
    create_obs::counter(obs_names::COMPACTION_MERGED_DOCS_TOTAL).inc_by(merged_docs);
}

/// Counts WAL records replayed during recovery.
pub(crate) fn note_recovery(records: u64) {
    if create_obs::enabled() && records > 0 {
        create_obs::counter(obs_names::RECOVERY_REPLAYED_RECORDS_TOTAL).inc_by(records);
    }
}

/// Refreshes the segment gauges from the live manifest.
pub(crate) fn refresh_segment_gauges(manifest: &Manifest) {
    if !create_obs::enabled() {
        return;
    }
    let segments: usize = manifest.shards.iter().map(|s| s.segments.len()).sum();
    let bytes: u64 = manifest.shards.iter().map(ShardManifest::total_bytes).sum();
    create_obs::gauge(obs_names::SEGMENT_COUNT_GAUGE).set(segments as i64);
    create_obs::gauge(obs_names::SEGMENT_BYTES_GAUGE).set(bytes as i64);
}
