//! On-disk postings codec: serializes an index *tail* for segment files.
//!
//! A flush seals the documents ingested since the previous seal. Because
//! doc ids are dense and append-only, those documents occupy the suffix
//! `[base..num_docs)` of every posting list, so the codec can encode the
//! sealed slice straight from the live index — no re-tokenization — by
//! taking each term's postings past `partition_point(doc < base)`.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! doc_count | per doc: external-id len, bytes
//! field_count | per field (sorted by name):
//!   name len, bytes
//!   doc_len[0..doc_count]
//!   term_count | per term (sorted, prefix-compressed):
//!     shared-prefix len, suffix len, suffix bytes
//!     posting_count
//!     skip_count | per skip: local doc id, byte offset into postings
//!     postings byte length
//!     postings: doc gaps (first = local id), then per doc:
//!       position count, position deltas (first absolute)
//! ```
//!
//! Doc ids are stored *segment-local* (`doc - base`), so decoding yields
//! an [`IndexSegment`] that [`Index::merge_segment`] remaps exactly as a
//! live parallel-ingest segment — recovery reproduces the never-crashed
//! index bit-for-bit. Terms and fields are sorted, making the encoding
//! deterministic even though the live dictionaries are hash maps.
//!
//! Skip entries record `(local doc id, byte offset)` every
//! [`SKIP_INTERVAL`] postings so long lists can be entered mid-stream;
//! the decoder also uses them as an integrity cross-check.

use crate::index::{FieldIndex, Index};
use crate::postings::PostingList;
use crate::segment::IndexSegment;
use create_util::fxhash::{map_with_capacity, FxHashMap};
use create_util::varint;
use std::sync::Arc;

/// One skip entry per this many postings.
pub const SKIP_INTERVAL: usize = 128;

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

/// Encodes documents `[base..num_docs)` of `index` as a segment blob.
pub fn encode_index_tail(index: &Index, base: usize) -> Vec<u8> {
    let num_docs = index.external_ids.len();
    assert!(base <= num_docs, "tail base past end of index");
    let tail = num_docs - base;
    let mut out = Vec::new();
    varint::write_u64(&mut out, tail as u64);
    for id in &index.external_ids[base..] {
        let bytes = id.as_bytes();
        varint::write_u64(&mut out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    let mut field_names: Vec<&String> = index.fields.keys().collect();
    field_names.sort();
    varint::write_u64(&mut out, field_names.len() as u64);
    // Per-term scratch: the postings stream is encoded aside so skip
    // entries can carry byte offsets into it.
    let mut blob = Vec::new();
    let mut skips: Vec<(u32, usize)> = Vec::new();
    for name in field_names {
        let fi = &index.fields[name];
        varint::write_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        for &len in &fi.doc_len[base..] {
            varint::write_u32(&mut out, len);
        }

        // Terms whose posting lists reach into the tail, with the index
        // of their first tail posting. Postings are sorted by doc, so
        // "last doc >= base" is the complete filter.
        let mut terms: Vec<(&str, &PostingList, usize)> = fi
            .dict
            .iter()
            .filter_map(|(term, postings)| {
                let docs = postings.docs();
                let reaches = docs.last().is_some_and(|&doc| doc as usize >= base);
                reaches.then(|| {
                    let cut = docs.partition_point(|&doc| (doc as usize) < base);
                    (&**term, &**postings, cut)
                })
            })
            .collect();
        terms.sort_by(|a, b| a.0.cmp(b.0));

        varint::write_u64(&mut out, terms.len() as u64);
        let mut prev_term = "";
        for (term, postings, cut) in terms {
            let shared = common_prefix_len(prev_term, term);
            varint::write_u64(&mut out, shared as u64);
            let suffix = &term.as_bytes()[shared..];
            varint::write_u64(&mut out, suffix.len() as u64);
            out.extend_from_slice(suffix);
            prev_term = term;

            varint::write_u64(&mut out, (postings.len() - cut) as u64);

            blob.clear();
            skips.clear();
            let mut prev_doc: u64 = 0;
            for (i, (doc, positions)) in postings.iter_from(cut).enumerate() {
                let local = (doc as usize - base) as u64;
                if i > 0 && i % SKIP_INTERVAL == 0 {
                    skips.push((local as u32, blob.len()));
                }
                let gap = if i == 0 { local } else { local - prev_doc };
                prev_doc = local;
                varint::write_u64(&mut blob, gap);
                varint::write_u64(&mut blob, positions.len() as u64);
                let mut prev_pos: u64 = 0;
                for (j, &pos) in positions.iter().enumerate() {
                    let delta = if j == 0 { pos as u64 } else { pos as u64 - prev_pos };
                    prev_pos = pos as u64;
                    varint::write_u64(&mut blob, delta);
                }
            }
            varint::write_u64(&mut out, skips.len() as u64);
            for &(doc, offset) in &skips {
                varint::write_u32(&mut out, doc);
                varint::write_u64(&mut out, offset as u64);
            }
            varint::write_u64(&mut out, blob.len() as u64);
            out.extend_from_slice(&blob);
        }
    }
    out
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    a.as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count()
}

/// A bounds-checked read position in an untrusted blob (this codec's,
/// and the facet codec's in [`crate::facets`]).
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// A canonical LEB128 integer: the shortest encoding of its value,
    /// which is the only one the encoders write.
    pub(crate) fn varint(&mut self, what: &str) -> Result<u64, CodecError> {
        let start = self.pos;
        let value = varint::read_u64(self.bytes, &mut self.pos)
            .ok_or_else(|| err(format!("truncated {what}")))?;
        if self.pos - start > 1 && self.bytes[self.pos - 1] == 0 {
            return Err(err(format!("overlong {what}")));
        }
        Ok(value)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        u32::try_from(self.varint(what)?).map_err(|_| err(format!("{what} overflows u32")))
    }

    /// A count of items that each take at least `min_bytes` of the
    /// remaining input — the cap that makes it safe to reserve for.
    pub(crate) fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, CodecError> {
        let count = self.varint(what)?;
        let fits = (self.bytes.len() - self.pos) / min_bytes;
        match usize::try_from(count) {
            Ok(count) if count <= fits => Ok(count),
            _ => Err(err(format!("{what} exceeds the remaining input"))),
        }
    }

    /// A length-prefixed byte run.
    fn run(&mut self, what: &str) -> Result<&'a [u8], CodecError> {
        let len = self.count(1, what)?;
        let run = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(run)
    }

    pub(crate) fn utf8(&mut self, what: &str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.run(what)?).map_err(|_| err(format!("{what} is not UTF-8")))
    }
}

/// Decodes a blob produced by [`encode_index_tail`] into a segment with
/// `template`'s field configuration, ready for
/// [`Index::merge_segment`].
///
/// The input is untrusted: every count is capped by what the remaining
/// bytes can hold before anything is reserved for it, and only the
/// canonical encoding is accepted (shortest varints, every template
/// field in name order, strictly ascending maximally prefix-shared
/// terms, ascending docs, one skip entry per [`SKIP_INTERVAL`]
/// postings) — a blob that decodes re-encodes to the same bytes.
pub fn decode_segment(bytes: &[u8], template: &Index) -> Result<IndexSegment, CodecError> {
    let mut r = Reader { bytes, pos: 0 };

    // A document takes its id's length byte plus one length byte per
    // field.
    let doc_count = r.count(1 + template.fields.len(), "doc count")?;
    let mut external_ids = Vec::with_capacity(doc_count);
    let mut id_map = map_with_capacity(doc_count);
    for i in 0..doc_count {
        let id = r.utf8("external id")?.to_string();
        if id_map.insert(id.clone(), i as u32).is_some() {
            return Err(err(format!("duplicate external id {id:?}")));
        }
        external_ids.push(id);
    }

    let field_count = r.count(1, "field count")?;
    if field_count != template.fields.len() {
        return Err(err("field count differs from the index configuration"));
    }
    let mut fields: FxHashMap<String, FieldIndex> = map_with_capacity(field_count);
    let mut prev_name = "";
    // Skip entries of the term being decoded, reused across terms.
    let mut skips: Vec<(u32, u64)> = Vec::new();
    for f in 0..field_count {
        let name = r.utf8("field name")?;
        if f > 0 && name <= prev_name {
            return Err(err("fields out of order"));
        }
        prev_name = name;
        let config = template
            .fields
            .get(name)
            .ok_or_else(|| err(format!("field {name:?} not in index configuration")))?;
        let mut fi = FieldIndex::empty(config.analyzer.clone(), config.boost);

        fi.doc_len = Vec::with_capacity(doc_count);
        for _ in 0..doc_count {
            fi.doc_len.push(r.u32("doc length")?);
        }
        fi.total_len = fi.doc_len.iter().map(|&l| l as u64).sum();
        fi.docs_with_field = fi.doc_len.iter().filter(|&&l| l > 0).count();

        // A term takes at least five bytes: prefix and suffix lengths,
        // posting and skip counts, postings length.
        let term_count = r.count(5, "term count")?;
        fi.dict = map_with_capacity(term_count);
        // Terms are reconstructed in a reused scratch buffer so each one
        // costs exactly one allocation (the dictionary key); ngram
        // fields make the vocabulary large enough for this to matter.
        let mut prev_term: Vec<u8> = Vec::new();
        for t in 0..term_count {
            // Indexes the previous term, not the input, and reserves
            // nothing: the previous term's length is its only bound.
            let shared = match usize::try_from(r.varint("term prefix length")?) {
                Ok(shared) if shared <= prev_term.len() => shared,
                _ => return Err(err("term prefix longer than previous term")),
            };
            let suffix = r.run("term suffix")?;
            // Ascending order and a maximal shared prefix both come down
            // to the first suffix byte beating the byte it replaces.
            let ascends = match (suffix.first(), prev_term.get(shared)) {
                (Some(new), Some(old)) => new > old,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if t > 0 && !ascends {
                return Err(err("terms out of order or prefix not maximal"));
            }
            prev_term.truncate(shared);
            prev_term.extend_from_slice(suffix);
            let term: Arc<str> = std::str::from_utf8(&prev_term)
                .map_err(|_| err("term is not UTF-8"))?
                .into();

            // A posting takes at least three bytes: doc gap, position
            // count, one position.
            let posting_count = r.count(3, "posting count")?;
            if posting_count == 0 {
                return Err(err("term without postings"));
            }
            let skip_count = r.count(2, "skip count")?;
            if skip_count != (posting_count - 1) / SKIP_INTERVAL {
                return Err(err("skip count disagrees with posting count"));
            }
            skips.clear();
            for _ in 0..skip_count {
                skips.push((r.u32("skip doc")?, r.varint("skip offset")?));
            }
            let blob = r.run("postings blob")?;

            // Every varint ends in exactly one byte below 0x80 and the
            // stream is gap, position count, positions — so the bytes
            // below 0x80 count the positions exactly, and the three
            // arrays are allocated once at their final size.
            let varints = blob.iter().filter(|&&b| b < 0x80).count();
            let mut docs = Vec::with_capacity(posting_count);
            let mut ends = Vec::with_capacity(posting_count);
            let mut positions: Vec<u32> =
                Vec::with_capacity(varints.saturating_sub(2 * posting_count));
            let mut b = Reader {
                bytes: blob,
                pos: 0,
            };
            let mut prev_doc: u32 = 0;
            for i in 0..posting_count {
                let at = b.pos as u64;
                let gap = b.u32("doc gap")?;
                if i > 0 && gap == 0 {
                    return Err(err("posting docs not ascending"));
                }
                // The first gap is the doc id itself.
                let doc = prev_doc
                    .checked_add(gap)
                    .filter(|&doc| (doc as usize) < doc_count)
                    .ok_or_else(|| err("posting doc id past segment doc count"))?;
                prev_doc = doc;
                if i % SKIP_INTERVAL == 0 && i > 0 && skips[i / SKIP_INTERVAL - 1] != (doc, at) {
                    return Err(err("skip entry disagrees with postings stream"));
                }
                let n_pos = b.count(1, "position count")?;
                if n_pos == 0 {
                    return Err(err("posting without positions"));
                }
                let mut prev_pos: u32 = 0;
                for _ in 0..n_pos {
                    // The first delta is the absolute position.
                    prev_pos = prev_pos
                        .checked_add(b.u32("position delta")?)
                        .ok_or_else(|| err("position overflows u32"))?;
                    positions.push(prev_pos);
                }
                docs.push(doc);
                ends.push(
                    u32::try_from(positions.len())
                        .map_err(|_| err("term position count overflows u32"))?,
                );
            }
            if b.pos != blob.len() {
                return Err(err("trailing bytes in postings blob"));
            }
            fi.dict.insert(
                term,
                Arc::new(PostingList::from_parts(docs, ends, positions)),
            );
        }
        // term_buckets stay empty: merge_segment buckets new terms on
        // the index side and never reads the segment's own buckets.
        fields.insert(name.to_string(), fi);
    }
    if r.pos != bytes.len() {
        return Err(err("trailing bytes after last field"));
    }
    Ok(IndexSegment {
        fields,
        external_ids,
        id_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;

    const DOCS: &[(&str, &str)] = &[
        ("pmid:1", "Fever and cough persisted for three days."),
        ("pmid:2", "The patient developed fever after admission."),
        ("pmid:3", "Amiodarone-induced pulmonary toxicity was confirmed."),
        ("pmid:4", "Cough resolved; fever recurred on day five."),
        ("pmid:5", "Echocardiogram revealed myocarditis."),
        ("pmid:6", ""),
    ];

    fn build(docs: &[(&str, &str)]) -> Index {
        let mut idx = Index::clinical();
        for (id, text) in docs {
            idx.add_document(id, &[("title", id), ("body", text), ("body_ngram", text)])
                .unwrap();
        }
        idx
    }

    fn assert_identical(a: &Index, b: &Index) {
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.postings_bytes(), b.postings_bytes());
        for doc in 0..a.num_docs() as u32 {
            assert_eq!(a.external_id(doc), b.external_id(doc));
        }
        for (name, fa) in &a.fields {
            let fb = b.fields.get(name).expect("same fields");
            assert_eq!(fa.doc_len, fb.doc_len, "doc_len of {name}");
            assert_eq!(fa.total_len, fb.total_len, "total_len of {name}");
            assert_eq!(fa.docs_with_field, fb.docs_with_field);
            assert_eq!(fa.dict.len(), fb.dict.len(), "vocab of {name}");
            for (term, pa) in &fa.dict {
                assert_eq!(Some(&**pa), fb.dict.get(term).map(|p| &**p), "{term}");
            }
        }
    }

    #[test]
    fn full_index_round_trips_through_codec() {
        let idx = build(DOCS);
        let blob = encode_index_tail(&idx, 0);
        let segment = decode_segment(&blob, &Index::clinical()).unwrap();
        let mut rebuilt = Index::clinical();
        rebuilt.merge_segment(segment).unwrap();
        assert_identical(&idx, &rebuilt);
    }

    #[test]
    fn tail_encoding_splices_back_exactly() {
        let idx = build(DOCS);
        // Seal at every possible boundary: head built live, tail from
        // the codec, result must equal the uninterrupted build.
        for base in 0..=DOCS.len() {
            let blob = encode_index_tail(&idx, base);
            let mut rebuilt = build(&DOCS[..base]);
            let segment = decode_segment(&blob, &rebuilt).unwrap();
            rebuilt.merge_segment(segment).unwrap();
            assert_identical(&idx, &rebuilt);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode_index_tail(&build(DOCS), 0);
        let b = encode_index_tail(&build(DOCS), 0);
        assert_eq!(a, b, "sorted fields/terms make the blob byte-stable");
    }

    #[test]
    fn empty_tail_is_valid() {
        let idx = build(DOCS);
        let blob = encode_index_tail(&idx, DOCS.len());
        let segment = decode_segment(&blob, &idx).unwrap();
        assert_eq!(segment.num_docs(), 0);
        let mut rebuilt = build(DOCS);
        rebuilt.merge_segment(segment).unwrap();
        assert_identical(&idx, &rebuilt);
    }

    #[test]
    fn long_posting_lists_exercise_skip_entries() {
        let mut idx = Index::clinical();
        for i in 0..(SKIP_INTERVAL * 3 + 17) {
            idx.add_document(
                &format!("pmid:{i}"),
                &[("body", "fever recurred with fever spikes")],
            )
            .unwrap();
        }
        let blob = encode_index_tail(&idx, 0);
        let segment = decode_segment(&blob, &Index::clinical()).unwrap();
        let mut rebuilt = Index::clinical();
        rebuilt.merge_segment(segment).unwrap();
        assert_identical(&idx, &rebuilt);
    }

    /// The blob's last term shares more bytes with its predecessor than
    /// the input has left: the prefix length is bounded by the previous
    /// term alone.
    #[test]
    fn final_term_may_share_more_than_the_remaining_input() {
        let mut idx = Index::clinical();
        for (id, title) in [("a", "12345678901"), ("b", "123456789012")] {
            idx.add_document(id, &[("title", title)]).unwrap();
        }
        let blob = encode_index_tail(&idx, 0);
        // shared 11 | suffix "2" | 1 posting | 0 skips | 3 bytes: doc 1,
        // 1 position, position 0.
        assert!(blob.ends_with(&[11, 1, b'2', 1, 0, 3, 1, 1, 0]));
        let segment = decode_segment(&blob, &Index::clinical()).unwrap();
        let mut rebuilt = Index::clinical();
        rebuilt.merge_segment(segment).unwrap();
        assert_identical(&idx, &rebuilt);
    }

    #[test]
    fn compresses_against_in_memory_representation() {
        let mut idx = Index::clinical();
        for i in 0..400 {
            let text = format!(
                "patient {i} presented with fever cough and chest pain on day {}",
                i % 9
            );
            idx.add_document(&format!("pmid:{i}"), &[("body", &text), ("body_ngram", &text)])
                .unwrap();
        }
        let blob = encode_index_tail(&idx, 0);
        assert!(
            blob.len() < idx.postings_bytes() / 2,
            "delta/varint should beat the in-RAM layout >2x: {} of {}",
            blob.len(),
            idx.postings_bytes()
        );
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let idx = build(DOCS);
        let blob = encode_index_tail(&idx, 0);
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
    fn golden_corpus() -> Index {
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
        let mut idx = Index::clinical();
        for i in 0..300 {
            let words: Vec<&str> = (0..next() % 24)
                .map(|_| vocabulary[next() % vocabulary.len()])
                .collect();
            let text = words.join(" ");
            let title = format!("case {i}");
            idx.add_document(
                &format!("pmid:{i}"),
                &[("title", &title), ("body", &text), ("body_ngram", &text)],
            )
            .unwrap();
        }
        idx
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The on-disk bytes are pinned: these digests were computed from
    /// the encoder over the one-`Vec`-per-posting layout this one
    /// replaced (commit ea0f7f5), so a change of in-RAM layout cannot
    /// move the segment format.
    #[test]
    fn encoding_matches_the_golden_digests() {
        let idx = golden_corpus();
        for (base, len, digest) in [
            (0, 274_858, 0x95f3_3102_071a_1772u64),
            (137, 149_266, 0xd79b_915c_6847_7ea3),
        ] {
            let blob = encode_index_tail(&idx, base);
            assert_eq!(
                (blob.len(), fnv1a(&blob)),
                (len, digest),
                "tail from {base}"
            );
        }
    }
}
