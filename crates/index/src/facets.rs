//! Facet bitmaps: sorted-run postings over low-cardinality document
//! attributes (category, year, entity types, demographics, staging).
//!
//! A facet is a `(field, value)` pair mapping to the sorted list of doc
//! ids carrying that value. A [`FacetIndex`] is a segment's column, like
//! its postings: a builder [`Segment`](crate::Segment) fills one beside
//! the postings, at the same local doc ids, and its
//! [`FrozenSegment`](crate::FrozenSegment) keeps it. Reads shift a
//! segment's runs by its base ([`crate::Index::facets`]).
//!
//! Doc ids only ever *append*, so a run stays sorted by construction and
//! set operations are linear merges / galloping intersections — the
//! "roaring-style" layout degenerates to its sorted-array container,
//! which is the right trade for the few-thousand-doc shards this engine
//! targets. One kernel, [`FacetIndex::concat`], merges segments' facets
//! for the tier rule, a seal and a disk compaction.
//!
//! The codec ([`FacetIndex::encode`] / [`FacetIndex::decode`]) is
//! deterministic: entries in `(field, value)` order, delta-varint doc
//! ids. It writes a segment file's facet region.

use crate::codec::{CodecError, Reader};
use create_util::varint;
use std::collections::BTreeMap;

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

    /// The field's codec tag: its position in [`ALL_FACET_FIELDS`].
    fn tag(self) -> u8 {
        self as u8
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

/// Sorted-run facet postings over one segment's documents.
#[derive(Debug, Clone, Default)]
pub struct FacetIndex {
    num_docs: u32,
    runs: BTreeMap<(FacetField, String), Vec<u32>>,
}

impl FacetIndex {
    /// An empty facet index.
    pub fn new() -> FacetIndex {
        FacetIndex::default()
    }

    /// `num_docs` documents that carry no facet value.
    pub(crate) fn blank(num_docs: u32) -> FacetIndex {
        FacetIndex {
            num_docs,
            runs: BTreeMap::new(),
        }
    }

    /// Number of documents registered (facet ids mirror index doc ids).
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Every `(field, value)` some document carries, in order.
    pub fn keys(&self) -> impl Iterator<Item = &(FacetField, String)> {
        self.runs.keys()
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
                run.push(doc);
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

    /// The concatenation of `parts`: each part's documents after the
    /// documents of the parts before it, so a part's id `d` becomes
    /// `base + d`, `base` being the doc counts of the parts before it —
    /// the remapping [`crate::Index::merge_segment`] gives postings. Each
    /// run is allocated once, at its final length.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a FacetIndex> + Clone) -> FacetIndex {
        let mut lens: BTreeMap<&(FacetField, String), usize> = BTreeMap::new();
        for part in parts.clone() {
            for (key, run) in &part.runs {
                *lens.entry(key).or_default() += run.len();
            }
        }
        let mut runs = BTreeMap::new();
        for (key, len) in lens {
            runs.insert(key.clone(), Vec::with_capacity(len));
        }
        let mut num_docs = 0;
        for part in parts {
            for (key, run) in &part.runs {
                let ids = runs.get_mut(key).expect("sized above");
                ids.extend(run.iter().map(|d| d + num_docs));
            }
            num_docs += part.num_docs;
        }
        FacetIndex { num_docs, runs }
    }

    /// Encodes the index. Deterministic: entries in `(field, value)`
    /// order, delta-varint ids.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, u64::from(self.num_docs));
        varint::write_u64(&mut out, self.runs.len() as u64);
        for ((field, value), ids) in &self.runs {
            out.push(field.tag());
            varint::write_u64(&mut out, value.len() as u64);
            out.extend_from_slice(value.as_bytes());
            varint::write_u64(&mut out, ids.len() as u64);
            let mut next = 0u32;
            for &d in ids {
                varint::write_u64(&mut out, u64::from(d - next));
                next = d + 1;
            }
        }
        out
    }

    /// Decodes a facet index [`FacetIndex::encode`] produced.
    ///
    /// The input is untrusted: every count is capped by what the
    /// remaining bytes can hold before anything is reserved for it, ids
    /// are summed with checked arithmetic, and only the canonical
    /// encoding is accepted (shortest varints, strictly ascending
    /// `(field, value)` entries, no empty run) — a blob that decodes
    /// re-encodes through `encode` to the same bytes.
    pub fn decode(bytes: &[u8]) -> Result<FacetIndex, FacetCodecError> {
        let mut r = Reader::new(bytes);
        let num_docs = r.u32("doc count")?;
        // An entry takes its tag, its value's length, its id count and
        // at least one id.
        let entries = r.count(4, "entry count")?;
        let mut runs: BTreeMap<(FacetField, String), Vec<u32>> = BTreeMap::new();
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
            runs.insert((field, value.to_string()), ids);
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

/// Union of sorted runs, sorted and deduplicated.
pub fn union(lists: &[&[u32]]) -> Vec<u32> {
    let mut out = lists.concat();
    out.sort_unstable();
    out.dedup();
    out
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

    /// Every `(field, value, run)` of `fx`.
    fn contents(fx: &FacetIndex) -> Vec<(FacetField, String, Vec<u32>)> {
        ALL_FACET_FIELDS
            .into_iter()
            .flat_map(|field| {
                fx.values(field)
                    .map(move |(v, r)| (field, v.to_string(), r.to_vec()))
            })
            .collect()
    }

    #[test]
    fn codec_roundtrip_full() {
        let fx = sample();
        let bytes = fx.encode();
        let back = FacetIndex::decode(&bytes).unwrap();
        assert_eq!(back.num_docs(), fx.num_docs());
        assert!(back.keys().eq(fx.keys()));
        assert_eq!(contents(&back), contents(&fx));
        assert_eq!(back.encode(), bytes);
    }

    /// Docs `[base, end)` of `fx`, rebased to zero.
    fn slice(fx: &FacetIndex, base: u32, end: u32) -> FacetIndex {
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
            clipped.add_doc(d - base, values);
        }
        clipped
    }

    #[test]
    fn concat_of_the_pieces_is_the_whole() {
        let fx = sample();
        let tail = slice(&fx, 2, 4);
        assert_eq!(tail.num_docs(), 2);
        assert_eq!(
            tail.run(FacetField::Category, "oncology"),
            Some(&[0u32][..])
        );
        for cut in 0..=fx.num_docs() {
            let (head, tail) = (slice(&fx, 0, cut), slice(&fx, cut, fx.num_docs()));
            let whole = FacetIndex::concat([&head, &tail]);
            assert_eq!(whole.num_docs(), fx.num_docs(), "cut {cut}");
            assert_eq!(whole.encode(), fx.encode(), "cut {cut}");
        }
        // One piece per document, an empty one among them.
        let pieces: Vec<FacetIndex> = (0..fx.num_docs()).map(|d| slice(&fx, d, d + 1)).collect();
        let empty = FacetIndex::new();
        let parts = pieces.iter().take(2).chain([&empty]).chain(&pieces[2..]);
        assert_eq!(contents(&FacetIndex::concat(parts)), contents(&fx));
    }

    #[test]
    fn concat_mirrors_sequential_build() {
        let mut seq = FacetIndex::new();
        seq.add_doc(0, [(FacetField::Sex, "male".to_string())]);
        seq.add_doc(1, [(FacetField::Sex, "female".to_string())]);
        seq.add_doc(2, [(FacetField::Sex, "male".to_string())]);

        let mut a = FacetIndex::new();
        a.add_doc(0, [(FacetField::Sex, "male".to_string())]);
        let mut b = FacetIndex::new();
        b.add_doc(0, [(FacetField::Sex, "female".to_string())]);
        b.add_doc(1, [(FacetField::Sex, "male".to_string())]);
        let merged = FacetIndex::concat([&a, &b]);
        assert_eq!(contents(&merged), contents(&seq));
        assert_eq!(merged.num_docs(), 3);
        // A document without values still takes its id.
        let blank = FacetIndex::blank(2);
        let merged = FacetIndex::concat([&blank, &a]);
        assert_eq!(merged.run(FacetField::Sex, "male"), Some(&[2u32][..]));
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
        assert_eq!(union(&[]), Vec::<u32>::new());
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u32>::new());

        // Seeded random runs: the union is the sorted set of every id.
        const SEED: u64 = 0x0F_ACE7_5EED;
        println!("union seed {SEED:#x}");
        let mut state = SEED;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below) as u32
        };
        for _ in 0..200 {
            let runs: Vec<Vec<u32>> = (0..next(8))
                .map(|_| {
                    let mut run: Vec<u32> = (0..next(40)).map(|_| next(100)).collect();
                    run.sort_unstable();
                    run.dedup();
                    run
                })
                .collect();
            let lists: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
            let want: std::collections::BTreeSet<u32> = runs.iter().flatten().copied().collect();
            assert_eq!(union(&lists), want.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FacetIndex::decode(&[0x80]).is_err());
        let fx = sample();
        let mut bytes = fx.encode();
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
