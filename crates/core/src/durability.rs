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

use crate::pipeline::ExtractedAnnotations;
use crate::system::ShardSnapshot;
use create_docstore::json::{object_members, Member, Value};
use create_index::codec::{self, MergeError};
use create_index::facets::FacetIndex;
use create_index::{FrozenSegment, Index};
use create_obs::names as obs_names;
use create_storage::manifest::segment_file_name;
use create_storage::segment::{PayloadFile, Region, SegmentReader, SegmentWriter};
use create_storage::{
    segment, Manifest, SegmentFileInfo, SegmentMeta, ShardManifest, StorageError, Wal,
};
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
pub(crate) struct DocPayload<'a> {
    pub extraction: &'a str,
    pub report: &'a str,
}

/// A payload read back from a WAL record or a segment: its documents'
/// texts, borrowed from the record, and both parsed in the pass that
/// split the payload.
pub(crate) struct RecoveredDoc<'a> {
    pub texts: DocPayload<'a>,
    report: Value,
    extraction: Value,
}

impl RecoveredDoc<'_> {
    /// The report's core fields and its extraction — what `index_doc`
    /// and `Writer::apply` read of a document.
    pub(crate) fn parts(&self) -> Result<(ReportFields<'_>, ExtractedAnnotations), String> {
        Ok((
            report_fields(&self.report)?,
            stored_annotations(&self.extraction)?,
        ))
    }
}

/// The core fields of a stored report, borrowed from its document.
pub(crate) struct ReportFields<'a> {
    pub id: &'a str,
    pub title: &'a str,
    pub text: &'a str,
    pub year: u32,
    pub category: &'a str,
}

/// Reads the core fields of a stored report. Ingest always writes all
/// five, so a missing one — or a `year` that is not an integer in `u32`
/// range — is an error, never a default.
fn report_fields(report: &Value) -> Result<ReportFields<'_>, String> {
    let field = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("stored report missing {key:?}"))
    };
    let year = report
        .get("year")
        .and_then(Value::as_i64)
        .and_then(|year| u32::try_from(year).ok())
        .ok_or("stored report's year is not an integer in 0..2^32")?;
    Ok(ReportFields {
        id: field("_id")?,
        title: field("title")?,
        text: field("text")?,
        year,
        category: field("category")?,
    })
}

/// A stored extraction, which must read back.
fn stored_annotations(extraction: &Value) -> Result<ExtractedAnnotations, String> {
    ExtractedAnnotations::from_json(extraction)
        .ok_or_else(|| "stored extraction does not deserialize".to_string())
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

/// Picks the two documents out of a split payload object (a repeated
/// key's last member wins, as in a parse); a missing one is an error.
fn take_payload(members: Vec<Member<'_>>) -> Result<RecoveredDoc<'_>, String> {
    let (mut report, mut extraction) = (None, None);
    for member in members {
        let parsed = member.value.map(|value| (member.text, value));
        match member.key.as_str() {
            "report" => report = parsed,
            "extraction" => extraction = parsed,
            _ => {}
        }
    }
    let (report_text, report) = report.ok_or("payload missing report")?;
    let (extraction_text, extraction) = extraction.ok_or("payload missing extraction")?;
    Ok(RecoveredDoc {
        texts: DocPayload {
            extraction: extraction_text,
            report: report_text,
        },
        report,
        extraction,
    })
}

/// Splits a serialized payload or WAL record into its members, each
/// parsed.
fn split_record<'a>(bytes: &'a [u8], what: &str) -> Result<Vec<Member<'a>>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))?;
    object_members(text, |_| true).map_err(|e| format!("{what} is not a JSON object: {e}"))
}

/// Splits a stored payload into its documents.
pub(crate) fn parse_payload_bytes(bytes: &[u8]) -> Result<RecoveredDoc<'_>, String> {
    take_payload(split_record(bytes, "payload")?)
}

/// Parses one WAL record — a `doc` record, the only type there is — into
/// its global ingest ordinal and its payload.
pub(crate) fn parse_wal_record(bytes: &[u8]) -> Result<(u64, RecoveredDoc<'_>), String> {
    let mut members = split_record(bytes, "WAL record")?;
    let mut take = |key: &str| {
        let at = members.iter().rposition(|m| m.key == key)?;
        members[at].value.take()
    };
    match take("t").as_ref().and_then(Value::as_str) {
        Some("doc") => {}
        other => return Err(format!("unknown WAL record type {other:?}")),
    }
    let ordinal = take("ordinal")
        .as_ref()
        .and_then(Value::as_i64)
        .and_then(|ordinal| u64::try_from(ordinal).ok())
        .ok_or("doc record's ordinal is not a non-negative integer")?;
    Ok((ordinal, take_payload(members)?))
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
        let payload = parse_payload_bytes(stored.payload).map_err(corrupt_at(path))?;
        let (fields, annotations) = payload.parts().map_err(corrupt_at(path))?;
        let indexed = frozen.external_id(doc as u32);
        check_ids(path, doc, stored.id, indexed, fields.id)?;
        apply(stored.ordinal, &fields, &annotations);
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
