//! Rule-based facet extractors: TNM staging and ICD-10 codes.
//!
//! Deterministic, dictionary-free scanners in the spirit of the
//! rule-based clinical NLP pipelines the paper's annotation stack
//! substitutes (regex + lookup rules, no learned models). They feed the
//! facet bitmaps built at ingest, so the same text always yields the
//! same facet values — recovery recomputation and segment-persisted
//! bitmaps must agree bit-for-bit.
//!
//! * **TNM** — contiguous staging tokens like `pT2N0M0`, `T4bN1M0`,
//!   `ycT1` or the standalone `Tis`; each component is emitted
//!   normalized (`T2`, `N0`, `M0`, `TIS`). A lowercase `c`/`p`/`y`/`r`/`a`
//!   prefix (clinical / pathological / post-therapy / recurrent /
//!   autopsy) is accepted and dropped.
//! * **ICD-10** — dotted codes only (`C50.9`, `I21.02`): one uppercase
//!   letter, two digits, a dot, then one or two alphanumerics. The
//!   undotted three-character form is deliberately rejected — it
//!   collides with too much clinical shorthand (`B12`, `T4`).

/// Extracts normalized TNM staging components in order of appearance,
/// deduplicated (`pT2N0M0` → `["T2", "N0", "M0"]`).
pub fn extract_tnm(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        // A staging token starts at a word boundary, optionally after
        // one or two lowercase prefix letters (c/p/y/r/a, e.g. "ypT2").
        if !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        let mut prefixes = 0;
        while j < bytes.len()
            && prefixes < 2
            && matches!(bytes[j], b'c' | b'p' | b'y' | b'r' | b'a')
        {
            j += 1;
            prefixes += 1;
        }
        let mut components = Vec::new();
        let mut k = j;
        while let Some((component, next)) = tnm_component(bytes, k) {
            components.push(component);
            k = next;
        }
        // Must end at a word boundary and contain at least one
        // component; "T2x9" or "Tumor" never match.
        if !components.is_empty() && (k >= bytes.len() || !bytes[k].is_ascii_alphanumeric()) {
            for c in components {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            i = k.max(i + 1);
        } else {
            i += 1;
        }
    }
    out
}

/// One TNM component at `at`: `T0`–`T4` (optional a–d subletter),
/// `Tis`, `Tx`, `N0`–`N3` (optional a–c), or `M0`/`M1`.
fn tnm_component(bytes: &[u8], at: usize) -> Option<(String, usize)> {
    let letter = *bytes.get(at)?;
    let digit = bytes.get(at + 1).copied();
    match letter {
        b'T' => {
            if bytes.get(at + 1..at + 3) == Some(b"is") {
                return Some(("TIS".to_string(), at + 3));
            }
            if digit == Some(b'x') || digit == Some(b'X') {
                return Some(("TX".to_string(), at + 2));
            }
            let d = digit.filter(|d| (b'0'..=b'4').contains(d))?;
            let mut next = at + 2;
            if bytes.get(next).is_some_and(|&b| (b'a'..=b'd').contains(&b)) {
                next += 1;
            }
            Some((format!("T{}", d as char), next))
        }
        b'N' => {
            let d = digit.filter(|d| (b'0'..=b'3').contains(d))?;
            let mut next = at + 2;
            if bytes.get(next).is_some_and(|&b| (b'a'..=b'c').contains(&b)) {
                next += 1;
            }
            Some((format!("N{}", d as char), next))
        }
        b'M' => {
            let d = digit.filter(|d| (b'0'..=b'1').contains(d))?;
            Some((format!("M{}", d as char), at + 2))
        }
        _ => None,
    }
}

/// Extracts dotted ICD-10 codes in order of appearance, deduplicated
/// and uppercased (`"c50.9"` → `["C50.9"]`).
pub fn extract_icd(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_boundary(bytes, i) || !bytes[i].is_ascii_alphabetic() {
            i += 1;
            continue;
        }
        let Some(code_len) = icd_at(bytes, i) else {
            i += 1;
            continue;
        };
        let code = text[i..i + code_len].to_ascii_uppercase();
        if !out.contains(&code) {
            out.push(code);
        }
        i += code_len;
    }
    out
}

/// Length of an ICD-10 code starting at `at`, if one is present:
/// letter, two digits, dot, one or two alphanumerics, then a boundary.
fn icd_at(bytes: &[u8], at: usize) -> Option<usize> {
    if !bytes.get(at)?.is_ascii_alphabetic() {
        return None;
    }
    if !bytes.get(at + 1)?.is_ascii_digit() || !bytes.get(at + 2)?.is_ascii_digit() {
        return None;
    }
    if *bytes.get(at + 3)? != b'.' {
        return None;
    }
    if !bytes.get(at + 4)?.is_ascii_alphanumeric() {
        return None;
    }
    let mut len = 5;
    if bytes.get(at + 5).is_some_and(|b| b.is_ascii_alphanumeric()) {
        len = 6;
    }
    // Boundary: the next byte may not extend the code — either another
    // alphanumeric or a dot that itself continues into one ("1.2.3"
    // version chains). A sentence-final dot is fine.
    if bytes
        .get(at + len)
        .is_some_and(|b| b.is_ascii_alphanumeric())
    {
        return None;
    }
    if bytes.get(at + len) == Some(&b'.')
        && bytes
            .get(at + len + 1)
            .is_some_and(|b| b.is_ascii_alphanumeric())
    {
        return None;
    }
    Some(len)
}

/// True when position `i` starts a word (start of text or preceded by a
/// non-alphanumeric byte).
fn is_boundary(bytes: &[u8], i: usize) -> bool {
    i == 0 || !bytes[i - 1].is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_tnm_token() {
        assert_eq!(
            extract_tnm("Staging was pT2N0M0 after resection."),
            vec!["T2", "N0", "M0"]
        );
        assert_eq!(extract_tnm("cT4bN1M0 disease"), vec!["T4", "N1", "M0"]);
        assert_eq!(extract_tnm("ypT1N0"), vec!["T1", "N0"]);
    }

    #[test]
    fn standalone_components_and_special_t() {
        assert_eq!(extract_tnm("Tis lesion with N2 nodes"), vec!["TIS", "N2"]);
        assert_eq!(extract_tnm("TxN0"), vec!["TX", "N0"]);
    }

    #[test]
    fn tnm_rejects_lookalikes() {
        assert!(extract_tnm("Tumor markers and T-cell counts were normal").is_empty());
        assert!(extract_tnm("MRI at T12 vertebra").is_empty());
        assert!(extract_tnm("vitamin T25x").is_empty());
        assert!(extract_tnm("N95 masks and M2 macrophages").is_empty());
    }

    #[test]
    fn tnm_requires_word_boundary() {
        assert!(extract_tnm("xT2N0M0y").is_empty());
        assert_eq!(extract_tnm("(pT2N0M0)"), vec!["T2", "N0", "M0"]);
    }

    #[test]
    fn tnm_deduplicates_in_order() {
        assert_eq!(extract_tnm("T2N0 ... again T2N1"), vec!["T2", "N0", "N1"]);
    }

    #[test]
    fn icd_dotted_codes() {
        assert_eq!(
            extract_icd("diagnosed with C50.9 and I21.02."),
            vec!["C50.9", "I21.02"]
        );
        assert_eq!(extract_icd("(ICD-10 J18.9)"), vec!["J18.9"]);
        assert_eq!(extract_icd("code c50.9 lowercase"), vec!["C50.9"]);
    }

    #[test]
    fn icd_rejects_undotted_and_noise() {
        assert!(extract_icd("vitamin B12 deficiency").is_empty());
        assert!(extract_icd("E11 without dot").is_empty());
        assert!(extract_icd("version 1.2.3 and 50.9").is_empty());
        assert!(extract_icd("C50.9x7 is not a code").is_empty());
    }

    #[test]
    fn icd_deduplicates() {
        assert_eq!(extract_icd("C50.9, C50.9, C50.1"), vec!["C50.9", "C50.1"]);
    }

    #[test]
    fn extractors_are_deterministic() {
        let text = "pT2N0M0 with C50.9; later Tis and J18.9, J18.9";
        assert_eq!(extract_tnm(text), extract_tnm(text));
        assert_eq!(extract_icd(text), extract_icd(text));
    }
}
