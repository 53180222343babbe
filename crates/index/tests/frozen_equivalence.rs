//! A frozen segment answers exactly as the builder it was frozen from.
//!
//! Seeded random corpora (the seed is printed, and every failure names
//! its corpus) are indexed twice: once by a single `merge_segment` of
//! every document, so the index is one frozen segment, and once in
//! batches of random sizes, so it is several frozen segments (the tier
//! rule merging them as it goes). Every query kind ranks bit-identically
//! on the two, and every term's list a frozen segment decodes is the
//! list a builder `Segment` of that segment's documents holds.

mod support;

use create_index::{FrozenSegment, Index, PostingList, Segment};
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

/// `docs` in one builder segment of `index`'s configuration.
fn builder(index: &Index, docs: &[(String, String, String)]) -> Segment {
    let mut segment = index.segment();
    for (id, title, body) in docs {
        let fields = [("title", &title[..]), ("body", body), ("body_ngram", body)];
        segment.add_document(id, &fields, []).unwrap();
    }
    segment
}

/// The corpus indexed in order, in batches of the sizes `batch` says.
fn build(docs: &[(String, String, String)], mut batch: impl FnMut() -> usize) -> Index {
    let mut index = Index::clinical();
    let mut at = 0;
    while at < docs.len() {
        let end = (at + batch()).min(docs.len());
        index
            .merge_segment(builder(&index, &docs[at..end]))
            .unwrap();
        at = end;
    }
    index
}

/// `(doc, tf, positions)` of each posting.
type Postings = Vec<(u32, u32, Vec<u32>)>;

fn postings(list: Option<PostingList>) -> Postings {
    list.map_or(Vec::new(), |list| {
        list.iter().map(|(d, tf, p)| (d, tf, p.to_vec())).collect()
    })
}

/// Every term a frozen segment of `batched` holds decodes to the list a
/// builder segment of its documents holds, and every term with postings
/// among its documents is one it holds.
fn assert_lists_match(
    label: &str,
    batched: &Index,
    docs: &[(String, String, String)],
    vocabulary: &FrozenSegment,
) {
    let mut base = 0;
    for segment in batched.frozen() {
        let len = segment.num_docs();
        let want = builder(batched, &docs[base..base + len]);
        for field in ["title", "body", "body_ngram"] {
            for term in vocabulary.terms(field) {
                assert_eq!(
                    postings(segment.postings(field, term)),
                    postings(want.postings(field, term).cloned()),
                    "{label}: {field}:{term} of docs from {base}"
                );
            }
            assert!(
                segment
                    .terms(field)
                    .all(|term| want.postings(field, term).is_some()),
                "{label}: a frozen segment holds a term its documents do not"
            );
        }
        base += len;
    }
    assert_eq!(base, docs.len(), "{label}");
}

#[test]
fn frozen_segments_rank_and_decode_as_the_builders_they_froze() {
    println!("frozen_equivalence seed {SEED:#x}");
    for corpus_no in 0..CORPORA {
        let label = format!("seed {SEED:#x} corpus {corpus_no}");
        let mut rng = Rng::seed_from_u64(SEED + corpus_no);
        let docs = corpus(&mut rng);
        let whole = build(&docs, || docs.len());
        assert_eq!(whole.segment_count(), 1, "{label}");
        let largest = *rng.choose(&[1, 3, 10, 60]);
        let batched = build(&docs, || 1 + rng.below(largest));
        // Every term of the corpus: the one segment's.
        let vocabulary = whole.frozen().next().expect("one segment");
        assert_lists_match(&label, &batched, &docs, vocabulary);
        for doc in 0..docs.len() as u32 {
            let id = whole.external_id(doc).expect("a doc");
            assert_eq!(batched.external_id(doc), Some(id), "{label}");
            assert_eq!(batched.internal_id(id), Some(doc), "{label}");
        }

        let words: Vec<&str> = (0..4).map(|_| *rng.choose(WORDS)).collect();
        let allowed: Vec<u32> = (0..docs.len() as u32).filter(|_| rng.chance(0.5)).collect();
        let queries = queries(&whole, &words);
        let label = format!(
            "{label} (batches of 1..={largest}, {} segments)",
            batched.segment_count()
        );
        let ks = [1, 3, 10, 1000];
        assert_same_rankings(&label, (&batched, &whole), &queries, &allowed, &ks);
    }
}
