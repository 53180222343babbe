//! Invariant tests over the core data structures, driven by seeded
//! deterministic fuzzing (the offline replacement for the former
//! proptest suite — same properties, explicit `create::util::Rng`
//! input generation so the workspace builds with no external deps).

use create::annotate::BratDocument;
use create::core::graph_build::EventRecord;
use create::core::plan::{TemporalOp, STEP_DAYS};
use create::docstore::{parse_json, Value};
use create::ontology::{ConceptId, RelationType};
use create::temporal::TemporalGraph;
use create::text::stem::porter_stem;
use create::text::{split_sentences, Span, StandardTokenizer, Tokenizer};
use create::util::Rng;

/// A printable-ish random string with some multi-byte and escape-relevant
/// characters mixed in, `0..max_len` chars.
fn arb_string(rng: &mut Rng, max_len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', ' ', '_', '-', '"', '\\', '\n', '\t', '.', ',',
        '(', ')', '{', '}', '[', ']', ':', ';', 'é', '中', '°', '\u{7f}',
    ];
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

fn arb_json(rng: &mut Rng, depth: u32) -> Value {
    let choices = if depth == 0 { 4 } else { 6 };
    match rng.below(choices) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Number(rng.f64_range(-1e9, 1e9)),
        3 => Value::String(arb_string(rng, 24)),
        4 => Value::Array(
            (0..rng.below(6))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut obj = std::collections::BTreeMap::new();
            for _ in 0..rng.below(6) {
                let len = 1 + rng.below(8);
                let key: String = (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                obj.insert(key, arb_json(rng, depth - 1));
            }
            Value::Object(obj)
        }
    }
}

// ---- JSON ----

#[test]
fn json_round_trips() {
    let mut rng = Rng::seed_from_u64(0x1001);
    for _ in 0..256 {
        let value = arb_json(&mut rng, 3);
        let compact = value.to_json();
        let reparsed = parse_json(&compact).expect("own output must parse");
        assert_eq!(reparsed, value, "compact round trip of {compact}");
        let pretty = value.to_json_pretty();
        assert_eq!(parse_json(&pretty).expect("pretty parses"), value);
    }
}

#[test]
fn json_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x1002);
    for _ in 0..512 {
        let _ = parse_json(&arb_string(&mut rng, 200));
    }
}

// ---- Text ----

#[test]
fn tokenizer_spans_always_slice_back() {
    let mut rng = Rng::seed_from_u64(0x2001);
    for _ in 0..256 {
        let text = arb_string(&mut rng, 300);
        for t in StandardTokenizer.tokenize(&text) {
            assert_eq!(t.span.slice(&text), t.text.as_str());
        }
    }
}

#[test]
fn sentence_spans_are_ordered_and_in_bounds() {
    let mut rng = Rng::seed_from_u64(0x2002);
    for _ in 0..256 {
        let text = arb_string(&mut rng, 400);
        let spans = split_sentences(&text);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for s in &spans {
            assert!(s.end <= text.len());
            assert!(text.is_char_boundary(s.start) && text.is_char_boundary(s.end));
        }
    }
}

#[test]
fn porter_stem_never_grows_much() {
    let mut rng = Rng::seed_from_u64(0x2003);
    for _ in 0..512 {
        let len = 1 + rng.below(24);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let stem = porter_stem(&word);
        // Porter may add at most one char (e.g. conflat+e) but never more.
        assert!(stem.len() <= word.len() + 1, "{word} -> {stem}");
        assert!(!stem.is_empty());
    }
}

#[test]
fn span_algebra_consistent() {
    let mut rng = Rng::seed_from_u64(0x2004);
    for _ in 0..512 {
        let (a, b, c, d) = (
            rng.below(100),
            rng.below(100),
            rng.below(100),
            rng.below(100),
        );
        let s1 = Span::new(a.min(b), a.max(b));
        let s2 = Span::new(c.min(d), c.max(d));
        // overlap ⇒ touches; containment ⇒ overlap-or-empty.
        if s1.overlaps(&s2) {
            assert!(s1.touches(&s2));
            assert!(s1.intersect(&s2).is_some());
        }
        if let Some(i) = s1.intersect(&s2) {
            assert!(s1.contains(&i) && s2.contains(&i));
        }
        let cover = s1.cover(&s2);
        assert!(cover.contains(&s1) && cover.contains(&s2));
    }
}

// ---- Corpus / gold-annotation invariants ----

#[test]
fn generated_reports_always_validate() {
    let mut rng = Rng::seed_from_u64(0x3001);
    for _ in 0..16 {
        let seed = rng.below(10_000) as u64;
        let report = create::corpus::Generator::new(create::corpus::CorpusConfig {
            num_reports: 1,
            seed,
            ..Default::default()
        })
        .generate()
        .remove(0);
        assert_eq!(report.validate(), Ok(()), "seed {seed}");
        // And export to BRAT validates against the text.
        let brat = create::annotate::case_report_to_brat(&report);
        assert!(brat.validate(&report.text).is_ok(), "seed {seed}");
    }
}

#[test]
fn generated_temporal_gold_is_transitive() {
    let mut rng = Rng::seed_from_u64(0x3002);
    for _ in 0..16 {
        let seed = rng.below(5_000) as u64;
        let ds = create::corpus::temporal_data::i2b2_like(seed, 3);
        for doc in &ds.docs {
            use std::collections::HashMap;
            let mut label: HashMap<(usize, usize), RelationType> = HashMap::new();
            for &(i, j, l) in &doc.pairs {
                label.insert((i, j), l);
            }
            for (&(a, b), &ab) in &label {
                for (&(b2, c), &bc) in &label {
                    if b2 != b {
                        continue;
                    }
                    if let Some(&ac) = label.get(&(a, c)) {
                        if ab == RelationType::Before && bc == RelationType::Before {
                            assert_eq!(ac, RelationType::Before);
                        }
                        if ab == RelationType::After && bc == RelationType::After {
                            assert_eq!(ac, RelationType::After);
                        }
                    }
                }
            }
        }
    }
}

// ---- Temporal graph ----

/// What `/cohort`'s temporal operators answered for events `a` and `b`
/// before the timeline steps became the one temporal semantics: for
/// `before` / `after` / `overlaps`, the relation `infer` derives over
/// the report's edges, falling back to the steps when none is derived
/// (or `a == b`); for `within`, the steps.
fn closure_rule(
    g: &TemporalGraph,
    steps: &[Option<u32>],
    a: usize,
    b: usize,
    op: TemporalOp,
) -> bool {
    let rel = match op {
        TemporalOp::Before => RelationType::Before,
        TemporalOp::After => RelationType::After,
        TemporalOp::Overlaps => RelationType::Overlap,
        TemporalOp::Within(days) => {
            return match (steps[a], steps[b]) {
                (Some(sa), Some(sb)) => {
                    f64::from(sa.abs_diff(sb)) * f64::from(STEP_DAYS) <= f64::from(days)
                }
                _ => false,
            }
        }
    };
    if a != b {
        if let Some(derived) = g.infer(a, b) {
            return derived == rel;
        }
    }
    match (steps[a], steps[b]) {
        (Some(sa), Some(sb)) => match rel {
            RelationType::Before => sa < sb,
            RelationType::After => sa > sb,
            _ => sa == sb,
        },
        _ => false,
    }
}

#[test]
fn timeline_graphs_are_always_consistent() {
    let mut rng = Rng::seed_from_u64(0x4001);
    let ops = [
        TemporalOp::Before,
        TemporalOp::After,
        TemporalOp::Overlaps,
        TemporalOp::Within(0),
        TemporalOp::Within(30),
        TemporalOp::Within(365),
    ];
    for _ in 0..64 {
        // Build edges consistent with a latent step assignment; the graph
        // must be consistent and inference must agree with the steps.
        let n = 2 + rng.below(8);
        let steps: Vec<u32> = (0..n).map(|_| rng.below(5) as u32).collect();
        // Events without a step, and without edges, after the stepped ones.
        let stepless = rng.below(3);
        let mut g = TemporalGraph::new((0..n + stepless).map(|i| format!("e{i}")).collect());
        for i in 0..n {
            for j in (i + 1)..n {
                if !rng.chance(0.5) {
                    continue;
                }
                let rel = match steps[i].cmp(&steps[j]) {
                    std::cmp::Ordering::Less => RelationType::Before,
                    std::cmp::Ordering::Greater => RelationType::After,
                    std::cmp::Ordering::Equal => RelationType::Overlap,
                };
                g.add_edge(i, j, rel);
            }
        }
        assert!(g.is_consistent());
        // Whatever is inferred must agree with the latent steps.
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                match g.infer(a, b) {
                    Some(RelationType::Before) => assert!(steps[a] < steps[b]),
                    Some(RelationType::After) => assert!(steps[a] > steps[b]),
                    Some(RelationType::Overlap) => assert_eq!(steps[a], steps[b]),
                    _ => {}
                }
            }
        }
        // So the closure never changes an operator's answer: over every
        // ordered pair of events, itself included, the closure rule and
        // the step rule (`EventRecord::realizes`, each event its own
        // concept) agree.
        let steps: Vec<Option<u32>> = (steps.into_iter().map(Some))
            .chain(std::iter::repeat_n(None, stepless))
            .collect();
        let record = EventRecord {
            year: 2020,
            concepts: (0..steps.len() as u32).map(ConceptId).collect(),
            events: (steps.iter().enumerate())
                .map(|(i, &step)| (ConceptId(i as u32), step))
                .collect(),
            edges: g.edges().len() as u32,
        };
        for a in 0..steps.len() {
            for b in 0..steps.len() {
                for op in ops {
                    let by_steps = record.realizes(ConceptId(a as u32), ConceptId(b as u32), op);
                    assert_eq!(
                        closure_rule(&g, &steps, a, b, op),
                        by_steps,
                        "{op:?} between e{a} and e{b}, steps {steps:?}, edges {:?}",
                        g.edges()
                    );
                }
            }
        }
    }
}

// ---- BRAT ----

#[test]
fn brat_serialization_round_trips() {
    let mut rng = Rng::seed_from_u64(0x5001);
    for _ in 0..32 {
        // Build a synthetic but well-formed BRAT document.
        let n_entities = 1 + rng.below(7);
        let mut doc = BratDocument::default();
        for i in 0..n_entities {
            let start = rng.below(50);
            let len = 1 + rng.below(10);
            doc.text_bounds.push(create::annotate::TextBoundAnn {
                id: i as u32 + 1,
                type_name: "Sign_symptom".to_string(),
                start,
                end: start + len,
                text: "x".repeat(len),
            });
        }
        if n_entities >= 2 {
            doc.relations.push(create::annotate::RelationAnn {
                id: 1,
                type_name: "BEFORE".to_string(),
                arg1: 1,
                arg2: 2,
            });
        }
        let reparsed = BratDocument::parse(&doc.serialize()).expect("own output parses");
        assert_eq!(reparsed, doc);
    }
}

#[test]
fn brat_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x5002);
    for _ in 0..256 {
        let _ = BratDocument::parse(&arb_string(&mut rng, 200));
    }
}

// ---- PDF ----

#[test]
fn pdf_text_round_trips_ascii() {
    const BODY_CHARS: &[char] = &[
        'a', 'e', 'i', 'o', 'u', 'x', 'A', 'Z', '0', '9', ' ', ',', '.', ';', '(', ')', '-',
    ];
    let mut rng = Rng::seed_from_u64(0x6001);
    for _ in 0..32 {
        let title: String = (0..1 + rng.below(60))
            .map(|_| BODY_CHARS[rng.below(BODY_CHARS.len())])
            .collect();
        let lines: Vec<String> = (0..rng.below(20))
            .map(|_| {
                (0..rng.below(70))
                    .map(|_| BODY_CHARS[rng.below(BODY_CHARS.len())])
                    .collect()
            })
            .collect();
        let src = create::grobid::PdfSource {
            title: title.clone(),
            authors: "Smith J".to_string(),
            affiliation: "University Hospital".to_string(),
            body_lines: lines.clone(),
        };
        let bytes = create::grobid::write_pdf(&src);
        let pages = create::grobid::extract_text(&bytes).expect("own PDFs parse");
        let all: Vec<String> = pages.concat();
        assert_eq!(all[0].as_str(), title.as_str());
        // Every non-empty body line must be recovered verbatim.
        for line in lines.iter().filter(|l| !l.is_empty()) {
            assert!(all.iter().any(|l| l == line), "missing line {line:?}");
        }
    }
}

#[test]
fn pdf_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x6002);
    for _ in 0..64 {
        let bytes: Vec<u8> = (0..rng.below(400)).map(|_| rng.below(256) as u8).collect();
        let _ = create::grobid::extract_text(&bytes);
    }
}

// ---- Cypher ----

#[test]
fn cypher_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x7001);
    for _ in 0..256 {
        let _ = create::graphdb::parse_query(&arb_string(&mut rng, 120));
    }
}
