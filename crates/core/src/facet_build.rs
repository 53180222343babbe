//! What a document contributes to its shard's index: postings under the
//! indexed fields and the facet values of the ingest-time facet bitmaps.
//!
//! [`index_doc`] is the one place that names the indexed fields and
//! derives facet values. A document submitted alone or in a batch and a
//! document replayed from the WAL all pass through it, into a
//! [`Segment`] that holds both — the postings and the facet bitmaps, at
//! one local doc id — and that the shard's writer then merges; a sealed
//! segment carries both already encoded, and recovery and compaction
//! read them without coming here.
//! The cohort planner's bitmap pushdown has to agree bit-for-bit with
//! the facet region persisted in sealed segments, which is why
//! everything here is a pure function of the ingest-time payload
//! (metadata + body text + extracted mentions), never of post-hoc shard
//! state.
//!
//! Facet inventory (see [`create_index::facets::FacetField`]):
//! * `category` — the report's coarse disease category;
//! * `year` — publication year, as a decimal string;
//! * `entity_type` — each distinct mention type in the extraction
//!   (`"Sign_symptom"`, `"Medication"`, …);
//! * `sex` — normalized to `"female"`/`"male"` from the first Sex
//!   mention that matches a known pattern;
//! * `age_band` — decade band (`"60-69"`) from the first Age mention
//!   with a leading integer;
//! * `tnm` / `icd` — rule-extracted staging components and dotted
//!   ICD-10 codes from the body text
//!   (see [`create_annotate::facets`]).

use crate::durability::ReportFields;
use crate::pipeline::ExtractedAnnotations;
use create_index::facets::FacetField;
use create_index::index::IndexError;
use create_index::Segment;
use create_ontology::EntityType;

/// Adds one document, its postings and its facet values, to a segment
/// under construction.
pub(crate) fn index_doc(
    segment: &mut Segment,
    fields: &ReportFields<'_>,
    annotations: &ExtractedAnnotations,
) -> Result<(), IndexError> {
    segment.add_document(
        &fields.id,
        &[
            ("title", &fields.title),
            ("body", &fields.text),
            ("body_ngram", &fields.text),
        ],
        facet_values(&fields.category, fields.year, &fields.text, annotations),
    )?;
    Ok(())
}

/// Computes the full facet-value list for one document, in canonical
/// field order. Deterministic: same inputs, same output, always.
fn facet_values(
    category: &str,
    year: u32,
    text: &str,
    annotations: &ExtractedAnnotations,
) -> Vec<(FacetField, String)> {
    let mut out: Vec<(FacetField, String)> = Vec::new();
    out.push((FacetField::Category, category.to_string()));
    out.push((FacetField::Year, year.to_string()));
    for m in &annotations.mentions {
        let label = m.etype.label().to_string();
        if !out
            .iter()
            .any(|(f, v)| *f == FacetField::EntityType && *v == label)
        {
            out.push((FacetField::EntityType, label));
        }
    }
    if let Some(sex) = annotations
        .mentions
        .iter()
        .filter(|m| m.etype == EntityType::Sex)
        .find_map(|m| normalize_sex(&m.text))
    {
        out.push((FacetField::Sex, sex.to_string()));
    }
    if let Some(band) = annotations
        .mentions
        .iter()
        .filter(|m| m.etype == EntityType::Age)
        .find_map(|m| age_band(&m.text))
    {
        out.push((FacetField::AgeBand, band));
    }
    for tnm in create_annotate::facets::extract_tnm(text) {
        out.push((FacetField::Tnm, tnm));
    }
    for icd in create_annotate::facets::extract_icd(text) {
        out.push((FacetField::Icd, icd));
    }
    out
}

/// Normalizes a Sex-mention surface form. Female patterns are checked
/// first: "woman" contains "man", so the order is load-bearing.
pub(crate) fn normalize_sex(surface: &str) -> Option<&'static str> {
    let lower = surface.to_lowercase();
    for female in ["female", "woman", "girl"] {
        if lower.contains(female) {
            return Some("female");
        }
    }
    for male in ["male", "man", "boy"] {
        if lower.contains(male) {
            return Some("male");
        }
    }
    None
}

/// Decade band from the leading integer of an Age mention
/// (`"63-year-old"` → `"60-69"`).
pub(crate) fn age_band(surface: &str) -> Option<String> {
    let digits: String = surface.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() || digits.len() > 3 {
        return None;
    }
    let age: u32 = digits.parse().ok()?;
    let lo = (age / 10) * 10;
    Some(format!("{lo}-{}", lo + 9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ResolvedMention;

    fn mention(text: &str, etype: EntityType) -> ResolvedMention {
        ResolvedMention {
            text: text.to_string(),
            etype,
            concept: None,
            time_step: None,
            span: None,
        }
    }

    #[test]
    fn sex_normalization_checks_female_first() {
        assert_eq!(normalize_sex("a 63-year-old woman"), Some("female"));
        assert_eq!(normalize_sex("Female"), Some("female"));
        assert_eq!(normalize_sex("man"), Some("male"));
        assert_eq!(normalize_sex("male patient"), Some("male"));
        assert_eq!(normalize_sex("patient"), None);
    }

    #[test]
    fn age_bands_are_decades() {
        assert_eq!(age_band("63-year-old").as_deref(), Some("60-69"));
        assert_eq!(age_band("7").as_deref(), Some("0-9"));
        assert_eq!(age_band("104-year-old").as_deref(), Some("100-109"));
        assert!(age_band("year-old").is_none());
        assert!(age_band("1234x").is_none());
    }

    #[test]
    fn facet_values_cover_every_field() {
        let ann = ExtractedAnnotations {
            mentions: vec![
                mention("chest pain", EntityType::SignSymptom),
                mention("aspirin", EntityType::Medication),
                mention("chest pain", EntityType::SignSymptom),
                mention("63-year-old", EntityType::Age),
                mention("woman", EntityType::Sex),
            ],
            relations: Vec::new(),
        };
        let values = facet_values("cancer", 2019, "Staging was pT2N0M0, coded C50.9.", &ann);
        assert!(values.contains(&(FacetField::Category, "cancer".into())));
        assert!(values.contains(&(FacetField::Year, "2019".into())));
        assert!(values.contains(&(FacetField::EntityType, "Sign_symptom".into())));
        assert!(values.contains(&(FacetField::EntityType, "Medication".into())));
        assert!(values.contains(&(FacetField::Sex, "female".into())));
        assert!(values.contains(&(FacetField::AgeBand, "60-69".into())));
        assert!(values.contains(&(FacetField::Tnm, "T2".into())));
        assert!(values.contains(&(FacetField::Icd, "C50.9".into())));
        // Entity types deduplicate.
        let st = values
            .iter()
            .filter(|(f, v)| *f == FacetField::EntityType && v == "Sign_symptom")
            .count();
        assert_eq!(st, 1);
    }
}
