//! A frozen segment answers exactly as the tail it was frozen from.
//!
//! Seeded random corpora (the seed is printed, and every failure names
//! its corpus) are indexed twice: once never frozen — every document in
//! the mutable tail, as posting lists — and once frozen at a random
//! cadence, so the index is frozen segments kept as their encoding (the
//! tier rule merging them as it goes) plus a tail. Every query kind
//! ranks bit-identically on the two, and every term's list a frozen
//! segment decodes is the never-frozen list's postings of that
//! segment's documents.

mod support;

use create_index::{FrozenSegment, Index, Segment};
use create_util::Rng;
use support::{assert_same_rankings, queries};

const SEED: u64 = 0xF402_E115;
const CORPORA: u64 = 24;

/// Words with shared prefixes, near-misses one and two edits apart,
/// stopwords and numbers.
const WORDS: &[&str] = &[
    "fever",
    "fevers",
    "feverish",
    "cough",
    "coughing",
    "chest",
    "pain",
    "painful",
    "cardiac",
    "cardiology",
    "amiodarone",
    "toxicity",
    "toxic",
    "pulmonary",
    "patient",
    "admitted",
    "admission",
    "the",
    "with",
    "and",
    "troponin",
    "elevated",
    "biopsy",
    "sarcoidosis",
    "rash",
    "dyspnea",
    "myocarditis",
    "echo",
    "2019",
    "a",
];

/// `(id, title, body)` of 1–160 documents: titles of up to three words,
/// bodies of up to 40 with repeats, some documents empty.
fn corpus(rng: &mut Rng) -> Vec<(String, String, String)> {
    let text = |rng: &mut Rng, most: usize| {
        let words: Vec<&str> = (0..rng.below(most + 1))
            .map(|_| WORDS[rng.zipf(WORDS.len(), 1.1)])
            .collect();
        words.join(" ")
    };
    (0..1 + rng.below(160))
        .map(|i| (format!("doc:{i}"), text(rng, 3), text(rng, 40)))
        .collect()
}

/// The corpus indexed in order, frozen after every document for which
/// `freeze` says so.
fn build(docs: &[(String, String, String)], mut freeze: impl FnMut() -> bool) -> Index {
    let mut index = Index::clinical();
    for (id, title, body) in docs {
        let fields = [("title", &title[..]), ("body", body), ("body_ngram", body)];
        index.add_document(id, &fields).unwrap();
        if freeze() {
            index.freeze();
        }
    }
    index
}

/// `(doc, tf, positions)` of each posting.
type Postings = Vec<(u32, u32, Vec<u32>)>;

/// The postings of `term` in `segment`'s tail list with doc ids in
/// `[base, base + len)`, shifted down by `base`.
fn slice(segment: &Segment, field: &str, term: &str, base: u32, len: u32) -> Postings {
    segment.postings(field, term).map_or(Vec::new(), |list| {
        list.iter()
            .filter(|&(doc, _, _)| (base..base + len).contains(&doc))
            .map(|(doc, tf, positions)| (doc - base, tf, positions.to_vec()))
            .collect()
    })
}

/// Every term a frozen segment holds decodes to the never-frozen tail's
/// postings of its documents, and every term with postings among its
/// documents is one it holds; the same of the frozen index's tail.
fn assert_lists_match(label: &str, frozen: &Index, whole: &Index, vocabulary: &FrozenSegment) {
    let mut base = 0u32;
    for segment in frozen.frozen() {
        let len = segment.num_docs() as u32;
        for field in ["title", "body", "body_ngram"] {
            for term in vocabulary.terms(field) {
                let want = slice(whole.tail(), field, term, base, len);
                let got: Postings = segment.postings(field, term).map_or(Vec::new(), |list| {
                    list.iter().map(|(d, tf, p)| (d, tf, p.to_vec())).collect()
                });
                assert_eq!(got, want, "{label}: {field}:{term} of docs from {base}");
            }
            assert!(
                segment
                    .terms(field)
                    .all(|term| vocabulary.postings(field, term).is_some()),
                "{label}: a frozen segment holds a term the corpus does not"
            );
        }
        base += len;
    }
    let len = frozen.tail().num_docs() as u32;
    for field in ["title", "body", "body_ngram"] {
        for term in vocabulary.terms(field) {
            let want = slice(whole.tail(), field, term, base, len);
            assert_eq!(
                slice(frozen.tail(), field, term, 0, len),
                want,
                "{label}: {field}:{term} of the tail"
            );
        }
    }
}

#[test]
fn frozen_segments_rank_and_decode_as_the_tail_they_froze() {
    println!("frozen_equivalence seed {SEED:#x}");
    for corpus_no in 0..CORPORA {
        let label = format!("seed {SEED:#x} corpus {corpus_no}");
        let mut rng = Rng::seed_from_u64(SEED + corpus_no);
        let docs = corpus(&mut rng);
        let whole = build(&docs, || false);
        let cadence = *rng.choose(&[0.02, 0.1, 0.3, 1.0]);
        let frozen = build(&docs, || rng.chance(cadence));
        assert_eq!(
            frozen.tail().num_docs() + frozen.frozen().map(FrozenSegment::num_docs).sum::<usize>(),
            docs.len(),
            "{label}"
        );
        // Every term of the corpus, from one freeze of all of it.
        let mut all = whole.clone();
        all.freeze();
        let vocabulary = all.frozen().next().expect("the corpus froze");
        assert_lists_match(&label, &frozen, &whole, vocabulary);
        for doc in 0..docs.len() as u32 {
            let id = whole.external_id(doc).expect("a doc");
            assert_eq!(frozen.external_id(doc), Some(id), "{label}");
            assert_eq!(frozen.internal_id(id), Some(doc), "{label}");
        }

        let words: Vec<&str> = (0..4).map(|_| *rng.choose(WORDS)).collect();
        let allowed: Vec<u32> = (0..docs.len() as u32).filter(|_| rng.chance(0.5)).collect();
        let queries = queries(&whole, &words);
        let label = format!(
            "{label} (cadence {cadence}, {} segments)",
            frozen.segment_count()
        );
        let ks = [1, 3, 10, 1000];
        assert_same_rankings(&label, (&frozen, &whole), &queries, &allowed, &ks);
        assert_same_rankings(&label, (&all, &whole), &queries, &allowed, &ks);
    }
}
