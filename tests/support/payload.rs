//! The stored-payload reader recovery ran before payloads decoded in one
//! pass: split the payload or WAL record into its members, parse each
//! into a `Value` tree of `BTreeMap`s, then read the report's fields and
//! the extraction off the trees. It is the oracle for
//! `create::core::decode_payload` and `decode_wal_record`, which must
//! accept exactly what it accepts and read the same documents.

use create::core::pipeline::ResolvedMention;
use create::core::ExtractedAnnotations;
use create::docstore::json::{object_members, Member, Value};
use create::ontology::ConceptId;
use create::text::Span;

/// A payload as the tree path reads it: its members' texts, the
/// report's core fields (`_id`, `title`, `text`, `year`, `category`) and
/// the extraction.
pub struct OracleDoc<'a> {
    pub extraction_text: &'a str,
    pub report_text: &'a str,
    pub fields: (String, String, String, u32, String),
    pub annotations: ExtractedAnnotations,
}

/// Reads a stored payload.
pub fn payload(bytes: &[u8]) -> Result<OracleDoc<'_>, String> {
    take_payload(split_record(bytes, "payload")?)
}

/// Reads a WAL `doc` record: its ordinal and its payload.
pub fn wal_record(bytes: &[u8]) -> Result<(u64, OracleDoc<'_>), String> {
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

fn split_record<'a>(bytes: &'a [u8], what: &str) -> Result<Vec<Member<'a>>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))?;
    object_members(text, |_| true).map_err(|e| format!("{what} is not a JSON object: {e}"))
}

/// Picks the two documents out of a split payload object (a repeated
/// key's last member wins) and reads them.
fn take_payload(members: Vec<Member<'_>>) -> Result<OracleDoc<'_>, String> {
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
    let fields = report_fields(&report)?;
    let annotations = from_json(&extraction)
        .ok_or_else(|| "stored extraction does not deserialize".to_string())?;
    Ok(OracleDoc {
        extraction_text,
        report_text,
        fields,
        annotations,
    })
}

fn report_fields(report: &Value) -> Result<(String, String, String, u32, String), String> {
    let field = |key: &str| {
        report
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("stored report missing {key:?}"))
    };
    let year = report
        .get("year")
        .and_then(Value::as_i64)
        .and_then(|year| u32::try_from(year).ok())
        .ok_or("stored report's year is not an integer in 0..2^32")?;
    Ok((
        field("_id")?,
        field("title")?,
        field("text")?,
        year,
        field("category")?,
    ))
}

/// The extraction's persisted JSON form read off its tree; `None` on
/// any shape mismatch.
fn from_json(value: &Value) -> Option<ExtractedAnnotations> {
    let mut mentions = Vec::new();
    for m in value.get("mentions")?.as_array()? {
        mentions.push(ResolvedMention {
            text: m.get("text")?.as_str()?.to_string(),
            etype: m.get("type")?.as_str()?.parse().ok()?,
            concept: match m.get("concept") {
                Some(Value::String(s)) => Some(ConceptId::parse(s)?),
                _ => None,
            },
            time_step: m.get("step").and_then(Value::as_f64).map(|s| s as u32),
            span: m.get("span").and_then(Value::as_array).and_then(|a| {
                match (
                    a.first().and_then(Value::as_f64),
                    a.get(1).and_then(Value::as_f64),
                ) {
                    (Some(s), Some(e)) if s <= e => Some(Span::new(s as usize, e as usize)),
                    _ => None,
                }
            }),
        });
    }
    let mut relations = Vec::new();
    for r in value.get("relations")?.as_array()? {
        let [s, t, rel] = r.as_array()? else {
            return None;
        };
        let index = |v: &Value| v.as_f64().map(|i| i as usize);
        relations.push((index(s)?, index(t)?, rel.as_str()?.parse().ok()?));
    }
    Some(ExtractedAnnotations {
        mentions,
        relations,
    })
}
