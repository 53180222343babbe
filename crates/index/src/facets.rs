//! Facet bitmaps: sorted-run postings over low-cardinality document
//! attributes (category, year, entity types, demographics, staging).
//!
//! A facet is a `(field, value)` pair mapping to the sorted list of
//! internal doc ids carrying that value — the same dense id space the
//! inverted index uses, so a facet run can be intersected directly with
//! keyword candidates. Runs are `Arc`-shared: cloning a [`FacetIndex`]
//! for a snapshot is O(values), and appends copy-on-write only the runs
//! a published snapshot still shares (same discipline as the term
//! dictionary in [`crate::index`]).
//!
//! Doc ids only ever *append* (ingest is single-writer per shard), so a
//! run stays sorted by construction and set operations are linear
//! merges / galloping intersections — the "roaring-style" layout
//! degenerates to its sorted-array container, which is the right trade
//! for the few-thousand-doc shards this engine targets.
//!
//! The codec ([`FacetIndex::encode_tail`] / [`FacetIndex::decode`]) is
//! deterministic: entries in `(field, value)` order, delta-varint doc
//! ids. `encode_tail(base)` emits only docs `>= base` rebased to zero,
//! mirroring what a seal writes of the index, so each storage
//! segment carries exactly its own documents' facets.

use crate::codec::{CodecError, Reader};
use create_util::varint;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The closed set of facetable document attributes.
///
/// Variant order is the canonical field order — the codec and the
/// planner's filter normalization both sort by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FacetField {
    /// Coarse report category (`"cardiology"`, …).
    Category,
    /// Publication year, as its decimal string.
    Year,
    /// Entity types mentioned in the report (`"Medication"`, …).
    EntityType,
    /// Patient sex, normalized to `"female"` / `"male"`.
    Sex,
    /// Patient age bucketed to decades (`"40-49"`).
    AgeBand,
    /// TNM staging components (`"T2"`, `"N0"`, `"M1"`).
    Tnm,
    /// ICD-10 codes mentioned in the text (`"C50.9"`).
    Icd,
}

/// All facet fields in canonical order.
pub const ALL_FACET_FIELDS: [FacetField; 7] = [
    FacetField::Category,
    FacetField::Year,
    FacetField::EntityType,
    FacetField::Sex,
    FacetField::AgeBand,
    FacetField::Tnm,
    FacetField::Icd,
];

impl FacetField {
    /// Stable wire/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            FacetField::Category => "category",
            FacetField::Year => "year",
            FacetField::EntityType => "entity_type",
            FacetField::Sex => "sex",
            FacetField::AgeBand => "age_band",
            FacetField::Tnm => "tnm",
            FacetField::Icd => "icd",
        }
    }

    /// Parses a wire label back into the field.
    pub fn parse(label: &str) -> Option<FacetField> {
        ALL_FACET_FIELDS.into_iter().find(|f| f.label() == label)
    }

    fn tag(self) -> u8 {
        match self {
            FacetField::Category => 0,
            FacetField::Year => 1,
            FacetField::EntityType => 2,
            FacetField::Sex => 3,
            FacetField::AgeBand => 4,
            FacetField::Tnm => 5,
            FacetField::Icd => 6,
        }
    }

    fn from_tag(tag: u8) -> Option<FacetField> {
        ALL_FACET_FIELDS.get(tag as usize).copied()
    }
}

/// Facet-codec failure: the segment's facet region is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetCodecError(pub String);

impl std::fmt::Display for FacetCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "facet codec: {}", self.0)
    }
}

impl std::error::Error for FacetCodecError {}

impl From<CodecError> for FacetCodecError {
    fn from(e: CodecError) -> FacetCodecError {
        FacetCodecError(e.0)
    }
}

/// Sorted-run facet postings over a shard's documents.
#[derive(Debug, Clone, Default)]
pub struct FacetIndex {
    num_docs: u32,
    runs: BTreeMap<(FacetField, String), Arc<Vec<u32>>>,
}

impl FacetIndex {
    /// An empty facet index.
    pub fn new() -> FacetIndex {
        FacetIndex::default()
    }

    /// Number of documents registered (facet ids mirror index doc ids).
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Number of distinct `(field, value)` runs.
    pub fn num_values(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes held by the runs (for the bytes/doc metric).
    pub fn postings_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|((_, v), run)| v.len() + run.len() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Registers document `doc` with its facet values. Documents must
    /// arrive in increasing id order (the single-writer ingest order);
    /// duplicate values within one call are collapsed.
    pub fn add_doc<I>(&mut self, doc: u32, values: I)
    where
        I: IntoIterator<Item = (FacetField, String)>,
    {
        debug_assert!(doc >= self.num_docs, "facet docs must append in order");
        for (field, value) in values {
            let run = self.runs.entry((field, value)).or_default();
            if run.last() != Some(&doc) {
                Arc::make_mut(run).push(doc);
            }
        }
        self.num_docs = self.num_docs.max(doc + 1);
    }

    /// The sorted doc-id run for `(field, value)`, if any doc carries it.
    pub fn run(&self, field: FacetField, value: &str) -> Option<&[u32]> {
        self.runs
            .get(&(field, value.to_string()))
            .map(|r| r.as_slice())
    }

    /// All `(value, run)` pairs of a field, in value order.
    pub fn values(&self, field: FacetField) -> impl Iterator<Item = (&str, &[u32])> {
        self.runs
            .range((field, String::new())..)
            .take_while(move |((f, _), _)| *f == field)
            .map(|((_, v), run)| (v.as_str(), run.as_slice()))
    }

    /// Merges `other` (a segment-local facet index with ids from zero)
    /// onto the end of this one: every id becomes `base + id`. Mirrors
    /// [`crate::Index::merge_segment`]'s dense-id remapping so parallel
    /// ingest and recovery reproduce the sequential build exactly.
    pub fn merge(&mut self, other: FacetIndex, base: u32) {
        for ((field, value), run) in other.runs {
            match self.runs.entry((field, value)) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    if base == 0 {
                        v.insert(run);
                    } else {
                        let mut ids =
                            Arc::try_unwrap(run).unwrap_or_else(|shared| (*shared).clone());
                        for d in &mut ids {
                            *d += base;
                        }
                        v.insert(Arc::new(ids));
                    }
                }
                // A run a published snapshot shares is copied once, with
                // room for the appended ids (`Arc::make_mut` would copy it
                // at its length and then grow it to twice that).
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let ids = o.get_mut();
                    if Arc::get_mut(ids).is_none() {
                        let mut copy = Vec::with_capacity(ids.len() + run.len());
                        copy.extend_from_slice(ids);
                        *ids = Arc::new(copy);
                    }
                    let ids = Arc::get_mut(ids).expect("unshared, or copied just above");
                    ids.extend(run.iter().map(|d| d + base));
                }
            }
        }
        self.num_docs = self.num_docs.max(base + other.num_docs);
    }

    /// Encodes documents `>= base` rebased to zero. Deterministic:
    /// entries in `(field, value)` order, delta-varint ids.
    pub fn encode_tail(&self, base: u32) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, (self.num_docs.saturating_sub(base)) as u64);
        let mut entries = Vec::new();
        for ((field, value), run) in &self.runs {
            let start = run.partition_point(|&d| d < base);
            if start < run.len() {
                entries.push((*field, value.as_str(), &run[start..]));
            }
        }
        varint::write_u64(&mut out, entries.len() as u64);
        for (field, value, ids) in entries {
            out.push(field.tag());
            varint::write_u64(&mut out, value.len() as u64);
            out.extend_from_slice(value.as_bytes());
            varint::write_u64(&mut out, ids.len() as u64);
            let mut prev = 0u32;
            for (i, &d) in ids.iter().enumerate() {
                let rebased = d - base;
                let delta = if i == 0 { rebased } else { rebased - prev - 1 };
                varint::write_u64(&mut out, delta as u64);
                prev = rebased;
            }
        }
        out
    }

    /// Decodes a segment-local facet index (ids from zero) previously
    /// produced by [`FacetIndex::encode_tail`].
    ///
    /// The input is untrusted: every count is capped by what the
    /// remaining bytes can hold before anything is reserved for it, ids
    /// are summed with checked arithmetic, and only the canonical
    /// encoding is accepted (shortest varints, strictly ascending
    /// `(field, value)` entries, no empty run) — a blob that decodes
    /// re-encodes through `encode_tail(0)` to the same bytes.
    pub fn decode(bytes: &[u8]) -> Result<FacetIndex, FacetCodecError> {
        let mut r = Reader::new(bytes);
        let num_docs = r.u32("doc count")?;
        // An entry takes its tag, its value's length, its id count and
        // at least one id.
        let entries = r.count(4, "entry count")?;
        let mut runs: BTreeMap<(FacetField, String), Arc<Vec<u32>>> = BTreeMap::new();
        let mut scratch = Vec::new();
        for _ in 0..entries {
            let tag = r.byte("field tag")?;
            let field = FacetField::from_tag(tag)
                .ok_or_else(|| FacetCodecError(format!("unknown field tag {tag}")))?;
            let value = r.utf8("value", &mut scratch)?;
            if runs
                .last_key_value()
                .is_some_and(|((f, v), _)| (field, value) <= (*f, v.as_str()))
            {
                return Err(FacetCodecError("entries out of order".into()));
            }
            let n = r.count(1, "id count")?;
            if n == 0 {
                return Err(FacetCodecError("empty run".into()));
            }
            let mut ids = Vec::with_capacity(n);
            // The smallest id the next delta can name.
            let mut floor = 0u32;
            for _ in 0..n {
                let doc = r
                    .u32("doc delta")?
                    .checked_add(floor)
                    .filter(|&doc| doc < num_docs)
                    .ok_or_else(|| {
                        FacetCodecError(format!("doc out of range (num_docs {num_docs})"))
                    })?;
                ids.push(doc);
                floor = doc + 1;
            }
            runs.insert((field, value.to_string()), Arc::new(ids));
        }
        if r.left() != 0 {
            return Err(FacetCodecError("trailing bytes".into()));
        }
        Ok(FacetIndex { num_docs, runs })
    }
}

/// Intersection of two sorted runs by galloping over the longer one.
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::new();
    let mut lo = 0usize;
    for &d in short {
        lo += gallop(&long[lo..], d);
        if long.get(lo) == Some(&d) {
            out.push(d);
            lo += 1;
        }
    }
    out
}

/// Union of sorted runs (linear merge, deduplicated).
pub fn union(lists: &[&[u32]]) -> Vec<u32> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        _ => {
            let mut out: Vec<u32> = Vec::new();
            for list in lists {
                let merged = merge_two(&out, list);
                out = merged;
            }
            out
        }
    }
}

/// Number of elements of `candidates` present in the sorted `run`.
pub fn intersect_count(run: &[u32], candidates: &[u32]) -> u64 {
    let (short, long) = if run.len() <= candidates.len() {
        (run, candidates)
    } else {
        (candidates, run)
    };
    let mut count = 0u64;
    let mut lo = 0usize;
    for &d in short {
        lo += gallop(&long[lo..], d);
        if long.get(lo) == Some(&d) {
            count += 1;
            lo += 1;
        }
    }
    count
}

fn merge_two(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Index of the first element `>= target` in sorted `slice`, found by
/// doubling steps then binary search of the bracketed window.
fn gallop(slice: &[u32], target: u32) -> usize {
    if slice.first().is_none_or(|&d| d >= target) {
        return 0;
    }
    let mut step = 1usize;
    let mut lo = 0usize; // invariant: slice[lo] < target
    while lo + step < slice.len() && slice[lo + step] < target {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(slice.len());
    lo + slice[lo..hi].partition_point(|&d| d < target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FacetIndex {
        let mut fx = FacetIndex::new();
        fx.add_doc(
            0,
            [
                (FacetField::Category, "cardiology".to_string()),
                (FacetField::Year, "2019".to_string()),
                (FacetField::Sex, "female".to_string()),
            ],
        );
        fx.add_doc(1, [(FacetField::Category, "cardiology".to_string())]);
        fx.add_doc(
            2,
            [
                (FacetField::Category, "oncology".to_string()),
                (FacetField::Year, "2019".to_string()),
                (FacetField::Tnm, "T2".to_string()),
            ],
        );
        fx.add_doc(3, []);
        fx
    }

    #[test]
    fn runs_are_sorted_and_deduplicated() {
        let mut fx = FacetIndex::new();
        fx.add_doc(
            0,
            [
                (FacetField::EntityType, "Medication".to_string()),
                (FacetField::EntityType, "Medication".to_string()),
            ],
        );
        assert_eq!(
            fx.run(FacetField::EntityType, "Medication"),
            Some(&[0u32][..])
        );
    }

    #[test]
    fn values_iterate_in_order_within_field() {
        let fx = sample();
        let cats: Vec<&str> = fx.values(FacetField::Category).map(|(v, _)| v).collect();
        assert_eq!(cats, vec!["cardiology", "oncology"]);
        let years: Vec<(&str, usize)> = fx
            .values(FacetField::Year)
            .map(|(v, r)| (v, r.len()))
            .collect();
        assert_eq!(years, vec![("2019", 2)]);
    }

    #[test]
    fn codec_roundtrip_full() {
        let fx = sample();
        let bytes = fx.encode_tail(0);
        let back = FacetIndex::decode(&bytes).unwrap();
        assert_eq!(back.num_docs(), fx.num_docs());
        assert_eq!(back.num_values(), fx.num_values());
        for field in ALL_FACET_FIELDS {
            let a: Vec<_> = fx
                .values(field)
                .map(|(v, r)| (v.to_string(), r.to_vec()))
                .collect();
            let b: Vec<_> = back
                .values(field)
                .map(|(v, r)| (v.to_string(), r.to_vec()))
                .collect();
            assert_eq!(a, b, "{field:?}");
        }
    }

    #[test]
    fn encode_tail_rebases_and_merge_restores() {
        let fx = sample();
        let tail = FacetIndex::decode(&fx.encode_tail(2)).unwrap();
        assert_eq!(tail.num_docs(), 2);
        assert_eq!(
            tail.run(FacetField::Category, "oncology"),
            Some(&[0u32][..])
        );
        // rebuild by splitting at 2 and merging back
        let mut rebuilt = FacetIndex::new();
        rebuilt.merge(FacetIndex::decode(&head_tail(&fx, 0, 2)).unwrap(), 0);
        rebuilt.merge(tail, 2);
        for field in ALL_FACET_FIELDS {
            let a: Vec<_> = fx
                .values(field)
                .map(|(v, r)| (v.to_string(), r.to_vec()))
                .collect();
            let b: Vec<_> = rebuilt
                .values(field)
                .map(|(v, r)| (v.to_string(), r.to_vec()))
                .collect();
            assert_eq!(a, b, "{field:?}");
        }
        assert_eq!(rebuilt.num_docs(), fx.num_docs());
    }

    /// Encodes docs `[base, end)` by truncating a clone.
    fn head_tail(fx: &FacetIndex, base: u32, end: u32) -> Vec<u8> {
        let mut clipped = FacetIndex::new();
        for d in base..end {
            let mut values = Vec::new();
            for field in ALL_FACET_FIELDS {
                for (value, run) in fx.values(field) {
                    if run.binary_search(&d).is_ok() {
                        values.push((field, value.to_string()));
                    }
                }
            }
            clipped.add_doc(d, values);
        }
        clipped.encode_tail(base)
    }

    #[test]
    fn merge_mirrors_sequential_build() {
        let mut seq = FacetIndex::new();
        seq.add_doc(0, [(FacetField::Sex, "male".to_string())]);
        seq.add_doc(1, [(FacetField::Sex, "female".to_string())]);
        seq.add_doc(2, [(FacetField::Sex, "male".to_string())]);

        let mut a = FacetIndex::new();
        a.add_doc(0, [(FacetField::Sex, "male".to_string())]);
        let mut b = FacetIndex::new();
        b.add_doc(0, [(FacetField::Sex, "female".to_string())]);
        b.add_doc(1, [(FacetField::Sex, "male".to_string())]);
        let mut merged = FacetIndex::new();
        merged.merge(a, 0);
        merged.merge(b, 1);
        assert_eq!(
            merged.run(FacetField::Sex, "male"),
            seq.run(FacetField::Sex, "male")
        );
        assert_eq!(
            merged.run(FacetField::Sex, "female"),
            seq.run(FacetField::Sex, "female")
        );
        assert_eq!(merged.num_docs(), 3);
    }

    #[test]
    fn set_operations() {
        assert_eq!(intersect(&[1, 3, 5, 9], &[2, 3, 4, 5, 10]), vec![3, 5]);
        assert_eq!(intersect_count(&[1, 3, 5, 9], &[3, 9, 11]), 2);
        assert_eq!(
            union(&[&[1, 4][..], &[2, 4, 8][..], &[][..]]),
            vec![1, 2, 4, 8]
        );
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u32>::new());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FacetIndex::decode(&[0x80]).is_err());
        let fx = sample();
        let mut bytes = fx.encode_tail(0);
        bytes.push(7);
        assert!(FacetIndex::decode(&bytes).is_err());
        // One doc, one entry (category, ""), a run of 2^40 ids: the count
        // must be refused before anything is reserved for it.
        let mut huge_run = vec![1, 1, 0, 0];
        varint::write_u64(&mut huge_run, 1 << 40);
        assert!(FacetIndex::decode(&huge_run).is_err());
        // Ids 1 then 1 + 1 + (u32::MAX - 1): the sum overflows `u32`.
        let mut overflow = vec![5, 1, 0, 0, 2, 1];
        varint::write_u64(&mut overflow, u64::from(u32::MAX) - 1);
        assert!(FacetIndex::decode(&overflow).is_err());
    }

    #[test]
    fn field_labels_roundtrip() {
        for f in ALL_FACET_FIELDS {
            assert_eq!(FacetField::parse(f.label()), Some(f));
            assert_eq!(FacetField::from_tag(f.tag()), Some(f));
        }
        assert_eq!(FacetField::parse("nope"), None);
    }
}
