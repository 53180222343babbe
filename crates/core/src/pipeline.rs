//! Ingestion and query information extraction.
//!
//! Two annotation sources feed the platform (Fig. 3): curated/gold
//! annotations (literature depositions reviewed in BRAT) and automatic
//! extraction for raw submissions. Both normalize to
//! [`ExtractedAnnotations`]: concept-resolved mentions with timeline steps
//! plus the relations between them. It is the one stored record of a
//! report's annotations: the graph, the facets and the BRAT export
//! ([`ExtractedAnnotations::to_brat`], the one renderer) are built from
//! it.
//!
//! The query path (Section III-C) applies the same machinery to user
//! queries: NER over the query text, ontology normalization, and rule
//! cues ("because of X and Y" → OVERLAP; "X before Y", "later developed"
//! → BEFORE).

use create_corpus::CaseReport;
use create_ner::{CrfTagger, Mention};
use create_obs::names as obs_names;
use create_ontology::{ConceptId, EntityType, Ontology, RelationType};
use create_text::{split_sentences, Span};
use std::time::{Duration, Instant};

/// One concept-resolved mention.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedMention {
    /// Surface text.
    pub text: String,
    /// Schema type.
    pub etype: EntityType,
    /// Normalized concept, when resolvable.
    pub concept: Option<ConceptId>,
    /// Timeline step (sentence-order based for automatic extraction).
    pub time_step: Option<u32>,
    /// Document-absolute byte span, when known (gold and automatic
    /// extraction both track it; query mentions do not).
    pub span: Option<Span>,
}

/// Normalized annotations for one report, ready for graph/index building.
#[derive(Debug, Clone, Default)]
pub struct ExtractedAnnotations {
    /// Mentions in document order.
    pub mentions: Vec<ResolvedMention>,
    /// Relations between mention indices, every type: a gold report
    /// keeps all its gold relations, of which the graph keeps three
    /// (BEFORE, AFTER, OVERLAP).
    pub relations: Vec<(usize, usize, RelationType)>,
}

impl ExtractedAnnotations {
    /// Converts a corpus report's gold annotations (the curated path).
    pub fn from_gold(report: &CaseReport) -> ExtractedAnnotations {
        let mentions: Vec<ResolvedMention> = report
            .entities
            .iter()
            .map(|e| ResolvedMention {
                text: e.text.clone(),
                etype: e.etype,
                concept: e.concept,
                time_step: e.time_step,
                span: Some(e.span),
            })
            .collect();
        let relations = report
            .relations
            .iter()
            .map(|r| (r.source, r.target, r.rtype))
            .collect();
        ExtractedAnnotations {
            mentions,
            relations,
        }
    }

    /// Automatic extraction from raw text: CRF NER per sentence, ontology
    /// normalization, and sentence-order timeline assignment with
    /// time-cue advancement ("later", "after", "following" start a new
    /// step). Temporal relations are derived from the step assignment
    /// (same step → OVERLAP, adjacent steps → BEFORE).
    pub fn from_text(text: &str, tagger: &CrfTagger, ontology: &Ontology) -> ExtractedAnnotations {
        let mut mentions = Vec::new();
        let mut step = 1u32;
        let split_started = Instant::now();
        let sentences = split_sentences(text);
        create_obs::observe_stage(
            obs_names::PIPELINE_STAGE_SECONDS,
            obs_names::STAGE_SECTION_SPLIT,
            split_started.elapsed().as_secs_f64(),
        );
        let mut ner_elapsed = Duration::ZERO;
        for (si, sspan) in sentences.into_iter().enumerate() {
            let sentence = sspan.slice(text);
            if si > 0 {
                step += 1;
            }
            let lower = sentence.to_lowercase();
            if ["later", "after ", "following", "subsequently", "a day"]
                .iter()
                .any(|cue| lower.contains(cue))
            {
                step += 1;
            }
            let history = ["history of", "long-term", "previously", "prior"]
                .iter()
                .any(|cue| lower.contains(cue));
            let ner_started = Instant::now();
            let tagged = tagger.tag(sentence);
            ner_elapsed += ner_started.elapsed();
            for m in tagged {
                let normalized = ontology.normalize(&m.text, Some(m.etype));
                let this_step = if m.etype.is_event() {
                    Some(if history { 0 } else { step })
                } else {
                    None
                };
                mentions.push(ResolvedMention {
                    text: m.text.clone(),
                    etype: m.etype,
                    concept: normalized.map(|n| n.concept),
                    time_step: this_step,
                    span: Some(m.span.shift(sspan.start)),
                });
            }
        }
        create_obs::observe_stage(
            obs_names::PIPELINE_STAGE_SECONDS,
            obs_names::STAGE_NER,
            ner_elapsed.as_secs_f64(),
        );
        let relations_started = Instant::now();
        let relations = derive_relations(&mentions);
        create_obs::observe_stage(
            obs_names::PIPELINE_STAGE_SECONDS,
            obs_names::STAGE_TEMPORAL_RE,
            relations_started.elapsed().as_secs_f64(),
        );
        ExtractedAnnotations {
            mentions,
            relations,
        }
    }

    /// Mentions that resolved to concepts, deduped, with their first
    /// timeline step.
    pub fn concepts(&self) -> Vec<(ConceptId, EntityType, Option<u32>)> {
        let mut out: Vec<(ConceptId, EntityType, Option<u32>)> = Vec::new();
        for m in &self.mentions {
            if let Some(c) = m.concept {
                if !out.iter().any(|(existing, ..)| *existing == c) {
                    out.push((c, m.etype, m.time_step));
                }
            }
        }
        out
    }
}

impl ExtractedAnnotations {
    /// The BRAT standoff export, rendered on read (it is not stored): per
    /// mention with a span a T line, an E line if it is an event and an
    /// N line (`UMLS`, its cui, its text) if it is normalized; an R line
    /// per relation between two of them. A gold report's is what
    /// `create_annotate::case_report_to_brat` writes.
    pub fn to_brat(&self) -> create_annotate::BratDocument {
        use create_annotate::{
            BratDocument, EventAnn, NormalizationAnn, RelationAnn, TextBoundAnn,
        };
        let mut doc = BratDocument::default();
        let mut t_ids = Vec::with_capacity(self.mentions.len());
        for m in &self.mentions {
            let Some(span) = m.span else {
                t_ids.push(None);
                continue;
            };
            let t_id = doc.text_bounds.len() as u32 + 1;
            doc.text_bounds.push(TextBoundAnn {
                id: t_id,
                type_name: m.etype.label().to_string(),
                start: span.start,
                end: span.end,
                text: m.text.clone(),
            });
            if m.etype.is_event() {
                doc.events.push(EventAnn {
                    id: doc.events.len() as u32 + 1,
                    type_name: m.etype.label().to_string(),
                    trigger: t_id,
                    args: Vec::new(),
                });
            }
            if let Some(cui) = m.concept {
                doc.normalizations.push(NormalizationAnn {
                    id: doc.normalizations.len() as u32 + 1,
                    target: t_id,
                    resource: "UMLS".to_string(),
                    external_id: cui.to_string(),
                    preferred: m.text.clone(),
                });
            }
            t_ids.push(Some(t_id));
        }
        let t_of = |i: usize| t_ids.get(i).copied().flatten();
        for &(s, t, rel) in &self.relations {
            let (Some(arg1), Some(arg2)) = (t_of(s), t_of(t)) else {
                continue;
            };
            doc.relations.push(RelationAnn {
                id: doc.relations.len() as u32 + 1,
                type_name: rel.label().to_string(),
                arg1,
                arg2,
            });
        }
        doc
    }

    /// Serializes to a JSON value for docstore persistence.
    pub fn to_json(&self) -> create_docstore::Value {
        use create_docstore::{json::obj, Value};
        let or_null = |value: Option<Value>| value.unwrap_or(Value::Null);
        let mentions: Vec<Value> = self
            .mentions
            .iter()
            .map(|m| {
                obj([
                    ("text", m.text.as_str().into()),
                    ("type", m.etype.label().into()),
                    ("concept", or_null(m.concept.map(|c| c.to_string().into()))),
                    ("step", or_null(m.time_step.map(|s| f64::from(s).into()))),
                    ("span", or_null(m.span.map(|s| vec![s.start, s.end].into()))),
                ])
            })
            .collect();
        let relations: Vec<Value> = self
            .relations
            .iter()
            .map(|&(s, t, rel)| vec![Value::from(s), t.into(), rel.label().into()].into())
            .collect();
        obj([
            ("mentions", mentions.into()),
            ("relations", relations.into()),
        ])
    }
}

/// Derives step-consistent temporal relations among event mentions.
fn derive_relations(mentions: &[ResolvedMention]) -> Vec<(usize, usize, RelationType)> {
    let events: Vec<usize> = mentions
        .iter()
        .enumerate()
        .filter(|(_, m)| m.etype.is_event() && m.time_step.is_some())
        .map(|(i, _)| i)
        .collect();
    let mut relations = Vec::new();
    for w in events.windows(2) {
        let (a, b) = (w[0], w[1]);
        let (sa, sb) = (
            mentions[a].time_step.expect("filtered"),
            mentions[b].time_step.expect("filtered"),
        );
        let rel = match sa.cmp(&sb) {
            std::cmp::Ordering::Less => RelationType::Before,
            std::cmp::Ordering::Greater => RelationType::After,
            std::cmp::Ordering::Equal => RelationType::Overlap,
        };
        relations.push((a, b, rel));
    }
    relations
}

/// The result of parsing a user query (Section III-C's worked example).
#[derive(Debug, Clone, Default)]
pub struct QueryIE {
    /// Raw query text.
    pub text: String,
    /// Concept-resolved mentions.
    pub mentions: Vec<ResolvedMention>,
    /// Detected temporal/relational pattern between two concepts.
    pub pattern: Option<(ConceptId, ConceptId, RelationType)>,
}

impl QueryIE {
    /// Extracts mentions and a temporal pattern from a query. The tagger
    /// locates clinical terms; a gazetteer fallback catches terms the
    /// model misses; cue rules order them.
    pub fn parse(query: &str, tagger: &CrfTagger, ontology: &Ontology) -> QueryIE {
        let mut mentions: Vec<(Mention, Option<ConceptId>)> = tagger
            .tag(query)
            .into_iter()
            .map(|m| {
                let c = ontology
                    .normalize(&m.text, Some(m.etype))
                    .map(|n| n.concept);
                (m, c)
            })
            .collect();
        // Gazetteer fallback over the query for anything missed.
        let gazetteer =
            create_ner::GazetteerTagger::new(ontology, create_ner::LabelSet::ner_targets());
        for g in gazetteer.tag(query) {
            if !mentions.iter().any(|(m, _)| m.span.overlaps(&g.span)) {
                let c = ontology
                    .normalize(&g.text, Some(g.etype))
                    .map(|n| n.concept);
                mentions.push((g, c));
            }
        }
        mentions.sort_by_key(|(m, _)| m.span.start);

        let pattern = detect_pattern(query, &mentions);
        QueryIE {
            text: query.to_string(),
            mentions: mentions
                .into_iter()
                .map(|(m, concept)| ResolvedMention {
                    text: m.text,
                    etype: m.etype,
                    concept,
                    time_step: None,
                    span: Some(m.span),
                })
                .collect(),
            pattern,
        }
    }

    /// Gazetteer-only parse for systems without a trained tagger.
    pub fn parse_gazetteer(query: &str, ontology: &Ontology) -> QueryIE {
        let gazetteer =
            create_ner::GazetteerTagger::new(ontology, create_ner::LabelSet::ner_targets());
        let mentions: Vec<(Mention, Option<ConceptId>)> = gazetteer
            .tag(query)
            .into_iter()
            .map(|m| {
                let c = ontology
                    .normalize(&m.text, Some(m.etype))
                    .map(|n| n.concept);
                (m, c)
            })
            .collect();
        let pattern = detect_pattern(query, &mentions);
        QueryIE {
            text: query.to_string(),
            mentions: mentions
                .into_iter()
                .map(|(m, concept)| ResolvedMention {
                    text: m.text,
                    etype: m.etype,
                    concept,
                    time_step: None,
                    span: Some(m.span),
                })
                .collect(),
            pattern,
        }
    }

    /// The query's distinct event concepts (what both search engines
    /// match on).
    pub fn event_concepts(&self) -> Vec<ConceptId> {
        let mut out = Vec::new();
        for m in &self.mentions {
            if let Some(c) = m.concept {
                if m.etype.is_event() && !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }
}

/// Temporal-cue rules over the query surface.
fn detect_pattern(
    query: &str,
    mentions: &[(Mention, Option<ConceptId>)],
) -> Option<(ConceptId, ConceptId, RelationType)> {
    let lower = query.to_lowercase();
    // Candidate events with concepts, in surface order.
    let events: Vec<(usize, ConceptId)> = mentions
        .iter()
        .filter(|(m, c)| m.etype.is_event() && c.is_some())
        .map(|(m, c)| (m.span.start, c.expect("filtered")))
        .collect();
    if events.len() < 2 {
        return None;
    }
    let (first, second) = (events[0].1, events[1].1);
    if first == second && events.len() > 2 {
        return detect_pattern_fallback(&lower, &events);
    }
    // Explicit order cues.
    if let Some(pos) = lower.find(" before ") {
        // "X before Y": mention left of the cue precedes the one right of it.
        return order_by_cue(&events, pos, RelationType::Before);
    }
    if let Some(pos) = lower.find(" after ") {
        return order_by_cue(&events, pos, RelationType::After);
    }
    if lower.contains("later") || lower.contains("then developed") || lower.contains("followed by")
    {
        return Some((first, second, RelationType::Before));
    }
    // Co-occurrence cues.
    if lower.contains("because of") || lower.contains(" and ") || lower.contains(" with ") {
        return Some((first, second, RelationType::Overlap));
    }
    None
}

fn detect_pattern_fallback(
    lower: &str,
    events: &[(usize, ConceptId)],
) -> Option<(ConceptId, ConceptId, RelationType)> {
    let distinct: Vec<ConceptId> = {
        let mut seen = Vec::new();
        for (_, c) in events {
            if !seen.contains(c) {
                seen.push(*c);
            }
        }
        seen
    };
    if distinct.len() < 2 {
        return None;
    }
    let rel = if lower.contains("before") || lower.contains("later") {
        RelationType::Before
    } else {
        RelationType::Overlap
    };
    Some((distinct[0], distinct[1], rel))
}

fn order_by_cue(
    events: &[(usize, ConceptId)],
    cue_pos: usize,
    cue: RelationType,
) -> Option<(ConceptId, ConceptId, RelationType)> {
    let left = events.iter().rev().find(|(pos, _)| *pos < cue_pos)?;
    let right = events.iter().find(|(pos, _)| *pos > cue_pos)?;
    match cue {
        // "X before Y" → X BEFORE Y; "X after Y" → Y BEFORE X.
        RelationType::Before => Some((left.1, right.1, RelationType::Before)),
        RelationType::After => Some((right.1, left.1, RelationType::Before)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_corpus::{CorpusConfig, Generator};
    use create_ner::{CrfTaggerConfig, LabelSet, NerDataset};

    struct Fixture {
        ontology: std::sync::Arc<Ontology>,
        dataset: NerDataset,
    }

    fn fixture() -> Fixture {
        let generator = Generator::new(CorpusConfig {
            num_reports: 30,
            seed: 61,
            ..Default::default()
        });
        let ontology = std::sync::Arc::new(create_ontology::clinical_ontology());
        let reports = generator.generate();
        let dataset = NerDataset::from_reports(&reports, LabelSet::ner_targets());
        Fixture { ontology, dataset }
    }

    fn quick_tagger(f: &Fixture) -> CrfTagger {
        CrfTagger::train(
            &f.dataset,
            CrfTaggerConfig {
                feature_bits: 16,
                train: create_ml::CrfTrainConfig {
                    epochs: 3,
                    ..Default::default()
                },
                gazetteer_features: true,
            },
            Some(f.ontology.clone()),
            None,
        )
    }

    #[test]
    fn gazetteer_parse_matches_paper_example() {
        let ontology = create_ontology::clinical_ontology();
        let q = QueryIE::parse_gazetteer(
            "A patient was admitted to the hospital because of fever and cough.",
            &ontology,
        );
        let texts: Vec<&str> = q.mentions.iter().map(|m| m.text.as_str()).collect();
        assert!(texts.contains(&"fever"));
        assert!(texts.contains(&"cough"));
        assert!(matches!(q.pattern, Some((_, _, RelationType::Overlap))));
    }

    #[test]
    fn gold_annotations_convert() {
        let report = Generator::new(CorpusConfig {
            num_reports: 1,
            seed: 3,
            ..Default::default()
        })
        .generate()
        .remove(0);
        let ann = ExtractedAnnotations::from_gold(&report);
        assert_eq!(ann.mentions.len(), report.entities.len());
        assert_eq!(ann.relations.len(), report.relations.len());
        assert!(!ann.relations.is_empty());
        assert!(!ann.concepts().is_empty());
    }

    #[test]
    fn extraction_round_trips_every_relation_type() {
        let mention = |text: &str, etype, concept, time_step, span| ResolvedMention {
            text: text.to_string(),
            etype,
            concept,
            time_step,
            span,
        };
        let ontology = create_ontology::clinical_ontology();
        let fever = ontology.lookup("fever").unwrap().id;
        let ann = ExtractedAnnotations {
            mentions: vec![
                mention(
                    "fever",
                    EntityType::SignSymptom,
                    Some(fever),
                    Some(2),
                    Some(Span::new(4, 9)),
                ),
                mention("severe", EntityType::Severity, None, None, None),
            ],
            relations: RelationType::all()
                .iter()
                .enumerate()
                .map(|(i, &rel)| (i % 2, 1 - i % 2, rel))
                .collect(),
        };
        assert!(ann.relations.iter().any(|(.., rel)| !rel.is_temporal()));
        let json = ann.to_json();
        let back = read_back(&json);
        assert_eq!(back.mentions, ann.mentions);
        assert_eq!(back.relations, ann.relations);
        assert_eq!(back.to_json().to_json(), json.to_json());
    }

    /// A serialized extraction as recovery reads it back: the
    /// extraction member of a stored payload.
    fn read_back(extraction: &create_docstore::Value) -> ExtractedAnnotations {
        use crate::durability::{decode_payload, payload_text, DocPayload};
        let extraction = extraction.to_json();
        let report = r#"{"_id":"r","category":"c","text":"","title":"","year":1}"#;
        let payload = payload_text(&DocPayload {
            extraction: &extraction,
            report,
        });
        decode_payload(payload.as_bytes())
            .expect("reads back")
            .annotations
    }

    #[test]
    fn stored_gold_extraction_renders_the_gold_export() {
        let reports = Generator::new(CorpusConfig {
            num_reports: 20,
            seed: 3,
            ..Default::default()
        })
        .generate();
        assert!(reports
            .iter()
            .any(|r| r.relations.iter().any(|rel| !rel.rtype.is_temporal())));
        for report in &reports {
            let stored = ExtractedAnnotations::from_gold(report).to_json();
            let brat = read_back(&stored).to_brat();
            assert_eq!(
                brat.serialize(),
                create_annotate::case_report_to_brat(report).serialize(),
                "{}",
                report.id
            );
        }
    }

    #[test]
    fn auto_extraction_brat_export_validates() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let text = "A 58-year-old woman presented with severe chest pain. \
                    An electrocardiogram revealed myocardial infarction.";
        let ann = ExtractedAnnotations::from_text(text, &tagger, &f.ontology);
        let brat = ann.to_brat();
        assert!(!brat.text_bounds.is_empty());
        brat.validate(text)
            .expect("auto-extracted spans must anchor to the text");
    }

    #[test]
    fn auto_extraction_produces_stepped_mentions() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let text = "A 60-year-old man presented with severe chest pain. \
                    An electrocardiogram was performed. \
                    Two days later, he developed fever.";
        let ann = ExtractedAnnotations::from_text(text, &tagger, &f.ontology);
        assert!(ann.mentions.len() >= 2, "mentions: {:?}", ann.mentions);
        // "later" sentence should have a later step than the first.
        let steps: Vec<u32> = ann.mentions.iter().filter_map(|m| m.time_step).collect();
        assert!(steps.windows(2).any(|w| w[1] > w[0]), "steps: {steps:?}");
        assert!(!ann.relations.is_empty());
    }

    #[test]
    fn query_ie_extracts_paper_example() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let q = QueryIE::parse(
            "A patient was admitted to the hospital because of fever and cough.",
            &tagger,
            &f.ontology,
        );
        let texts: Vec<&str> = q.mentions.iter().map(|m| m.text.as_str()).collect();
        assert!(texts.contains(&"fever"), "mentions: {texts:?}");
        assert!(texts.contains(&"cough"), "mentions: {texts:?}");
        assert!(texts.contains(&"hospital"), "mentions: {texts:?}");
        // The paper's parse: OVERLAP between fever and cough.
        let (c1, c2, rel) = q.pattern.expect("pattern detected");
        assert_eq!(rel, RelationType::Overlap);
        let fever = f.ontology.lookup("fever").unwrap().id;
        let cough = f.ontology.lookup("cough").unwrap().id;
        assert_eq!(
            {
                let mut v = [c1, c2];
                v.sort();
                v
            },
            {
                let mut v = [fever, cough];
                v.sort();
                v
            }
        );
    }

    #[test]
    fn query_ie_detects_before() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let q = QueryIE::parse("fever before syncope", &tagger, &f.ontology);
        let (c1, c2, rel) = q.pattern.expect("pattern");
        assert_eq!(rel, RelationType::Before);
        assert_eq!(c1, f.ontology.lookup("fever").unwrap().id);
        assert_eq!(c2, f.ontology.lookup("syncope").unwrap().id);
    }

    #[test]
    fn query_ie_after_swaps_direction() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let q = QueryIE::parse("syncope after fever", &tagger, &f.ontology);
        let (c1, c2, rel) = q.pattern.expect("pattern");
        assert_eq!(rel, RelationType::Before);
        assert_eq!(c1, f.ontology.lookup("fever").unwrap().id);
        assert_eq!(c2, f.ontology.lookup("syncope").unwrap().id);
    }

    #[test]
    fn query_without_events_has_no_pattern() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let q = QueryIE::parse("general search terms", &tagger, &f.ontology);
        assert!(q.pattern.is_none());
    }

    #[test]
    fn event_concepts_dedupes() {
        let f = fixture();
        let tagger = quick_tagger(&f);
        let q = QueryIE::parse("fever and fever and cough", &tagger, &f.ontology);
        let concepts = q.event_concepts();
        let mut sorted = concepts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(concepts.len(), sorted.len());
    }
}
