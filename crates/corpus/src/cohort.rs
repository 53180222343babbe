//! Gold-labeled cohort criteria queries.
//!
//! The cohort-retrieval harness needs criteria queries *and* exact
//! expected report sets. Each [`CohortSpec`] is a declarative criteria
//! document (facet filters plus temporal constraints — deliberately
//! keyword-free, so the engine's eligible set must equal the gold set
//! exactly, with no ranking fuzziness) together with
//! [`CohortSpec::matches`]: an independent evaluation of the same
//! criteria against a report's **gold labels** (category enum, metadata
//! year, gold entity types and timeline steps). The engine answers from
//! its facet bitmaps and property graph; the gold evaluator never looks
//! at either — agreement between the two is the precision/recall
//! experiment, not a tautology.
//!
//! The gold set stays off the `tnm`/`icd` facets: those are derived from
//! body text by the rule extractors, so gold evaluation would have to
//! re-run the very code under test. Staging/coding facets are covered
//! separately by crafted-report tests.

use crate::report::CaseReport;
use create_ontology::{ConceptId, EntityType, Ontology};

/// A declarative cohort criteria query with gold-evaluable semantics.
#[derive(Debug, Clone)]
pub struct CohortSpec {
    /// Stable name for diagnostics.
    pub name: &'static str,
    /// `(facet field label, accepted values)` — AND across entries, OR
    /// across one entry's values. Field labels are the wire labels
    /// (`"category"`, `"year"`, `"entity_type"`, `"sex"`, `"age_band"`).
    pub filters: Vec<(&'static str, Vec<&'static str>)>,
    /// `(concept surface a, op label, concept surface b, days)` — `days`
    /// only for `"within"`.
    pub temporal: Vec<(&'static str, &'static str, &'static str, Option<u32>)>,
    /// Facet fields to request aggregations for.
    pub facets: Vec<&'static str>,
    /// Result cap to request (large enough to return the whole cohort).
    pub k: usize,
}

/// One timeline step ≈ this many days (must agree with the engine's
/// `create_core::plan::STEP_DAYS`).
const STEP_DAYS: u32 = 30;

impl CohortSpec {
    /// Renders the criteria JSON the `/cohort` endpoint accepts.
    pub fn criteria_json(&self) -> String {
        let mut out = String::from("{");
        if !self.filters.is_empty() {
            out.push_str("\"filters\":[");
            for (i, (field, values)) in self.filters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"field\":\"{field}\",\"values\":["));
                for (j, v) in values.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{v}\""));
                }
                out.push_str("]}");
            }
            out.push_str("],");
        }
        if !self.temporal.is_empty() {
            out.push_str("\"temporal\":[");
            for (i, (a, op, b, days)) in self.temporal.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match days {
                    Some(d) => out.push_str(&format!(
                        "{{\"a\":\"{a}\",\"op\":\"{op}\",\"days\":{d},\"b\":\"{b}\"}}"
                    )),
                    None => {
                        out.push_str(&format!("{{\"a\":\"{a}\",\"op\":\"{op}\",\"b\":\"{b}\"}}"))
                    }
                }
            }
            out.push_str("],");
        }
        if !self.facets.is_empty() {
            out.push_str("\"facets\":[");
            for (i, f) in self.facets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{f}\""));
            }
            out.push_str("],");
        }
        out.push_str(&format!("\"k\":{}}}", self.k));
        out
    }

    /// Gold evaluation: does `report` belong to this cohort, judged from
    /// its gold labels only?
    pub fn matches(&self, report: &CaseReport, ontology: &Ontology) -> bool {
        self.filters
            .iter()
            .all(|(field, values)| filter_matches(report, field, values))
            && self
                .temporal
                .iter()
                .all(|c| temporal_matches(report, ontology, c))
    }

    /// The gold cohort: ids of matching reports, in corpus order.
    pub fn expected_ids(&self, corpus: &[CaseReport], ontology: &Ontology) -> Vec<String> {
        corpus
            .iter()
            .filter(|r| self.matches(r, ontology))
            .map(|r| r.id.clone())
            .collect()
    }
}

/// Gold evaluation of one facet filter against a report's labels.
fn filter_matches(report: &CaseReport, field: &str, values: &[&str]) -> bool {
    match field {
        "category" => values.contains(&report.category.coarse_label()),
        "year" => {
            let year = report.metadata.year.to_string();
            values.iter().any(|v| *v == year)
        }
        "entity_type" => report
            .entities
            .iter()
            .any(|e| values.contains(&e.etype.label())),
        "sex" => report
            .entities
            .iter()
            .filter(|e| e.etype == EntityType::Sex)
            .find_map(|e| gold_sex(&e.text))
            .is_some_and(|sex| values.contains(&sex)),
        "age_band" => report
            .entities
            .iter()
            .filter(|e| e.etype == EntityType::Age)
            .find_map(|e| gold_age_band(&e.text))
            .is_some_and(|band| values.iter().any(|v| *v == band)),
        other => panic!("gold cohort specs do not cover facet field {other:?}"),
    }
}

/// Gold evaluation of one temporal constraint: some pair of gold EVENT
/// mentions resolving to the two concepts must realize the operator on
/// the latent timeline.
fn temporal_matches(
    report: &CaseReport,
    ontology: &Ontology,
    (a, op, b, days): &(&str, &str, &str, Option<u32>),
) -> bool {
    let Some(ca) = resolve(ontology, a) else {
        return false;
    };
    let Some(cb) = resolve(ontology, b) else {
        return false;
    };
    let steps_of = |concept: ConceptId| -> Vec<u32> {
        report
            .entities
            .iter()
            .filter(|e| e.etype.is_event() && e.concept == Some(concept))
            .filter_map(|e| e.time_step)
            .collect()
    };
    let sa = steps_of(ca);
    let sb = steps_of(cb);
    sa.iter().any(|&x| {
        sb.iter().any(|&y| match *op {
            "before" => x < y,
            "after" => x > y,
            "overlaps" => x == y,
            "within" => {
                let budget = days.expect("within has days");
                x.abs_diff(y) * STEP_DAYS <= budget
            }
            other => panic!("unknown temporal op {other:?}"),
        })
    })
}

fn resolve(ontology: &Ontology, surface: &str) -> Option<ConceptId> {
    ontology.normalize(surface, None).map(|n| n.concept)
}

/// Independent sex normalization (mirrors the facet extractor's contract:
/// female patterns checked before male — "woman" contains "man").
fn gold_sex(surface: &str) -> Option<&'static str> {
    let lower = surface.to_lowercase();
    if ["female", "woman", "girl"]
        .iter()
        .any(|p| lower.contains(p))
    {
        return Some("female");
    }
    if ["male", "man", "boy"].iter().any(|p| lower.contains(p)) {
        return Some("male");
    }
    None
}

/// Independent decade banding of an Age mention's leading integer.
fn gold_age_band(surface: &str) -> Option<String> {
    let digits: String = surface.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() || digits.len() > 3 {
        return None;
    }
    let age: u32 = digits.parse().ok()?;
    let lo = (age / 10) * 10;
    Some(format!("{lo}-{}", lo + 9))
}

/// The gold cohort workload: 22 criteria queries spanning demographic,
/// categorical, entity-type, and temporal axes, plus combinations.
pub fn gold_cohorts() -> Vec<CohortSpec> {
    let k = 2000; // large enough to return every matching report
    let spec = |name,
                filters: Vec<(&'static str, Vec<&'static str>)>,
                temporal: Vec<(&'static str, &'static str, &'static str, Option<u32>)>,
                facets: Vec<&'static str>| CohortSpec {
        name,
        filters,
        temporal,
        facets,
        k,
    };
    vec![
        spec(
            "cancer-reports",
            vec![("category", vec!["cancer"])],
            vec![],
            vec!["sex", "year"],
        ),
        spec(
            "cardiovascular-reports",
            vec![("category", vec!["cardiovascular"])],
            vec![],
            vec!["age_band"],
        ),
        spec(
            "infectious-or-respiratory",
            vec![("category", vec!["infectious", "respiratory"])],
            vec![],
            vec!["category"],
        ),
        spec(
            "female-patients",
            vec![("sex", vec!["female"])],
            vec![],
            vec!["category"],
        ),
        spec("male-patients", vec![("sex", vec!["male"])], vec![], vec![]),
        spec(
            "sixties-cohort",
            vec![("age_band", vec!["60-69"])],
            vec![],
            vec!["sex"],
        ),
        spec(
            "elderly-cohort",
            vec![("age_band", vec!["70-79", "80-89", "90-99"])],
            vec![],
            vec!["age_band"],
        ),
        spec(
            "published-2015",
            vec![("year", vec!["2015"])],
            vec![],
            vec![],
        ),
        spec(
            "recent-reports",
            vec![("year", vec!["2018", "2019", "2020"])],
            vec![],
            vec!["year"],
        ),
        spec(
            "medicated-patients",
            vec![("entity_type", vec!["Medication"])],
            vec![],
            vec!["category"],
        ),
        spec(
            "lab-documented",
            vec![("entity_type", vec!["Lab_value"])],
            vec![],
            vec![],
        ),
        spec(
            "female-cancer",
            vec![("category", vec!["cancer"]), ("sex", vec!["female"])],
            vec![],
            vec!["age_band"],
        ),
        spec(
            "male-cardiovascular-recent",
            vec![
                ("category", vec!["cardiovascular"]),
                ("sex", vec!["male"]),
                ("year", vec!["2016", "2017", "2018", "2019", "2020"]),
            ],
            vec![],
            vec![],
        ),
        spec(
            "elderly-female-medicated",
            vec![
                ("sex", vec!["female"]),
                ("age_band", vec!["60-69", "70-79", "80-89"]),
                ("entity_type", vec!["Medication"]),
            ],
            vec![],
            vec!["category"],
        ),
        spec(
            "weight-loss-before-fatigue",
            vec![],
            vec![("weight loss", "before", "fatigue", None)],
            vec!["category"],
        ),
        spec(
            "fatigue-after-weight-loss",
            vec![],
            vec![("fatigue", "after", "weight loss", None)],
            vec![],
        ),
        spec(
            "fever-with-malaise",
            vec![],
            vec![("fever", "overlaps", "malaise", None)],
            vec![],
        ),
        spec(
            "anorexia-within-2-months-of-weight-loss",
            vec![],
            vec![("anorexia", "within", "weight loss", Some(60))],
            vec!["sex"],
        ),
        spec(
            "chest-pain-near-palpitations",
            vec![],
            vec![("chest pain", "within", "palpitations", Some(90))],
            vec!["category"],
        ),
        spec(
            "cough-near-rhinorrhea",
            vec![],
            vec![("cough", "within", "rhinorrhea", Some(120))],
            vec![],
        ),
        spec(
            "female-weight-loss-before-fatigue",
            vec![("sex", vec!["female"])],
            vec![("weight loss", "before", "fatigue", None)],
            vec!["age_band"],
        ),
        spec(
            "cardiovascular-palpitations-near-syncope",
            vec![("category", vec!["cardiovascular"])],
            vec![("palpitations", "within", "syncope", Some(180))],
            vec!["year", "sex"],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, Generator};

    fn corpus() -> (Vec<CaseReport>, Ontology) {
        let generator = Generator::new(CorpusConfig {
            num_reports: 120,
            seed: 11,
            ..CorpusConfig::default()
        });
        let reports = generator.generate();
        (reports, create_ontology::clinical_ontology())
    }

    #[test]
    fn gold_set_has_at_least_twenty_queries() {
        assert!(gold_cohorts().len() >= 20);
    }

    #[test]
    fn criteria_json_is_well_formed_per_spec() {
        for spec in gold_cohorts() {
            let json = spec.criteria_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains("\"k\":2000"), "{json}");
            let has_axis = json.contains("\"filters\"") || json.contains("\"temporal\"");
            assert!(has_axis, "{}: criteria must constrain something", spec.name);
        }
    }

    #[test]
    fn gold_evaluation_is_deterministic_and_nontrivial() {
        let (corpus, ontology) = corpus();
        let mut nonempty = 0usize;
        let mut temporal_nonempty = 0usize;
        for spec in gold_cohorts() {
            let a = spec.expected_ids(&corpus, &ontology);
            let b = spec.expected_ids(&corpus, &ontology);
            assert_eq!(a, b, "{} must be deterministic", spec.name);
            assert!(
                a.len() < corpus.len(),
                "{} matched everything — not a filter",
                spec.name
            );
            if !a.is_empty() {
                nonempty += 1;
                if !spec.temporal.is_empty() {
                    temporal_nonempty += 1;
                }
            }
        }
        assert!(
            nonempty >= 10,
            "only {nonempty} gold cohorts matched any report — workload too thin"
        );
        assert!(
            temporal_nonempty >= 2,
            "only {temporal_nonempty} temporal cohorts matched — temporal axis untested"
        );
    }

    #[test]
    fn demographic_filters_agree_with_entities() {
        let (corpus, ontology) = corpus();
        let female = CohortSpec {
            name: "f",
            filters: vec![("sex", vec!["female"])],
            temporal: vec![],
            facets: vec![],
            k: 10,
        };
        let male = CohortSpec {
            name: "m",
            filters: vec![("sex", vec!["male"])],
            temporal: vec![],
            facets: vec![],
            k: 10,
        };
        for report in &corpus {
            assert!(
                !(female.matches(report, &ontology) && male.matches(report, &ontology)),
                "{}: cannot be both sexes (first Sex mention decides)",
                report.id
            );
        }
    }

    #[test]
    fn temporal_ops_are_mutually_consistent() {
        let (corpus, ontology) = corpus();
        let before = CohortSpec {
            name: "b",
            filters: vec![],
            temporal: vec![("weight loss", "before", "fatigue", None)],
            facets: vec![],
            k: 10,
        };
        let after_swapped = CohortSpec {
            name: "a",
            filters: vec![],
            temporal: vec![("fatigue", "after", "weight loss", None)],
            facets: vec![],
            k: 10,
        };
        for report in &corpus {
            assert_eq!(
                before.matches(report, &ontology),
                after_swapped.matches(report, &ontology),
                "{}: X before Y must equal Y after X",
                report.id
            );
        }
    }
}
