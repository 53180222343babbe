//! Analyzer pipelines (character filters → tokenizer → token filters).
//!
//! This is the composition layer of the ElasticSearch analyzer model the
//! paper configures. Two presets reproduce the paper's setup:
//!
//! * [`Analyzer::clinical_standard`] — standard tokenizer with the paper's
//!   filter chain (`asciifolding`, `lowercase`, `stop`, `snowball` stemmer);
//!   used for the document body field.
//! * [`Analyzer::clinical_ngram`] — the customized N-gram analyzer with
//!   `min_gram=3, max_gram=25` used so long symptom/medication names match
//!   on partial strings (Section III-D).

use crate::filter::{
    AsciiFoldingFilter, CharFilter, LowercaseFilter, StemFilter, StopFilter, TokenFilter,
};
use crate::token::{NGramTokenizer, StandardTokenizer, Token, Tokenizer, WhitespaceTokenizer};
use std::sync::Arc;

/// A complete, reusable analysis pipeline.
pub struct Analyzer {
    name: String,
    char_filters: Vec<Arc<dyn CharFilter>>,
    tokenizer: Arc<dyn Tokenizer>,
    filters: Vec<Arc<dyn TokenFilter>>,
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("name", &self.name)
            .field("char_filters", &self.char_filters.len())
            .field(
                "filters",
                &self.filters.iter().map(|x| x.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Analyzer {
    /// Starts building a custom analyzer.
    pub fn builder(name: impl Into<String>) -> AnalyzerBuilder {
        AnalyzerBuilder {
            name: name.into(),
            char_filters: Vec::new(),
            tokenizer: Arc::new(StandardTokenizer),
            filters: Vec::new(),
        }
    }

    /// The paper's standard clinical analyzer: standard tokenizer +
    /// asciifolding + lowercase + stop + stemmer.
    ///
    /// ```
    /// use create_text::Analyzer;
    /// let a = Analyzer::clinical_standard();
    /// assert_eq!(a.terms("The patient had Fevers"), vec!["patient", "had", "fever"]);
    /// ```
    pub fn clinical_standard() -> Analyzer {
        Analyzer::builder("clinical_standard")
            .tokenizer(StandardTokenizer)
            .filter(AsciiFoldingFilter)
            .filter(LowercaseFilter)
            .filter(StopFilter::english())
            .filter(StemFilter)
            .build()
    }

    /// The paper's customized N-gram analyzer (`min_gram=3, max_gram=25`),
    /// with asciifolding + lowercase applied to each gram. Stemming is not
    /// applied to grams (grams are substrings, not words).
    pub fn clinical_ngram() -> Analyzer {
        Analyzer::builder("clinical_ngram")
            .tokenizer(NGramTokenizer::paper_config())
            .filter(AsciiFoldingFilter)
            .filter(LowercaseFilter)
            .build()
    }

    /// Whitespace + lowercase; the "simple keyword match" strawman used as
    /// the weakest baseline in the retrieval ablations.
    pub fn simple() -> Analyzer {
        Analyzer::builder("simple")
            .tokenizer(WhitespaceTokenizer)
            .filter(LowercaseFilter)
            .build()
    }

    /// The analyzer's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the tokens' positions are word positions (see
    /// [`Tokenizer::word_positions`]); filters keep the tokenizer's
    /// positions, so this is the tokenizer's answer.
    pub fn word_positions(&self) -> bool {
        self.tokenizer.word_positions()
    }

    /// Runs the full pipeline over `text`.
    pub fn analyze(&self, text: &str) -> Vec<Token> {
        // Character filters (length-preserving) first.
        let mut filtered: Option<String> = None;
        for cf in &self.char_filters {
            let current = filtered.as_deref().unwrap_or(text);
            let next = cf.apply(current);
            debug_assert_eq!(
                next.len(),
                current.len(),
                "char filters must preserve byte length for span alignment"
            );
            filtered = Some(next);
        }
        let tokens = self.tokenizer.tokenize(filtered.as_deref().unwrap_or(text));
        let mut out = Vec::with_capacity(tokens.len());
        'next_token: for token in tokens {
            let mut t = token;
            for f in &self.filters {
                match f.apply(t) {
                    Some(next) => t = next,
                    None => continue 'next_token,
                }
            }
            if !t.text.is_empty() {
                out.push(t);
            }
        }
        out
    }

    /// Analyzes and returns just the term strings — the common case for
    /// query parsing.
    pub fn terms(&self, text: &str) -> Vec<String> {
        self.analyze(text).into_iter().map(|t| t.text).collect()
    }
}

/// Builder for [`Analyzer`].
pub struct AnalyzerBuilder {
    name: String,
    char_filters: Vec<Arc<dyn CharFilter>>,
    tokenizer: Arc<dyn Tokenizer>,
    filters: Vec<Arc<dyn TokenFilter>>,
}

impl AnalyzerBuilder {
    /// Adds a character filter (applied in insertion order).
    pub fn char_filter(mut self, f: impl CharFilter + 'static) -> Self {
        self.char_filters.push(Arc::new(f));
        self
    }

    /// Sets the tokenizer (default: [`StandardTokenizer`]).
    pub fn tokenizer(mut self, t: impl Tokenizer + 'static) -> Self {
        self.tokenizer = Arc::new(t);
        self
    }

    /// Adds a token filter (applied in insertion order).
    pub fn filter(mut self, f: impl TokenFilter + 'static) -> Self {
        self.filters.push(Arc::new(f));
        self
    }

    /// Finalizes the analyzer.
    pub fn build(self) -> Analyzer {
        Analyzer {
            name: self.name,
            char_filters: self.char_filters,
            tokenizer: self.tokenizer,
            filters: self.filters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::HtmlStripCharFilter;

    #[test]
    fn clinical_standard_normalizes() {
        let a = Analyzer::clinical_standard();
        let terms = a.terms("The patient presented with Fevers and PALPITATIONS");
        // "the", "with", "and" are stopwords; the rest are stemmed+lowered.
        assert_eq!(terms, vec!["patient", "present", "fever", "palpit"]);
    }

    #[test]
    fn clinical_standard_matches_inflections() {
        let a = Analyzer::clinical_standard();
        assert_eq!(a.terms("admitted"), a.terms("admitting"));
    }

    #[test]
    fn ngram_analyzer_produces_grams() {
        let a = Analyzer::clinical_ngram();
        let terms = a.terms("Amiodarone");
        assert!(terms.contains(&"amio".to_string()));
        assert!(terms.contains(&"darone".to_string()));
        assert!(terms.iter().all(|t| t.chars().count() >= 3));
    }

    #[test]
    fn simple_analyzer_lowercases_only() {
        let a = Analyzer::simple();
        assert_eq!(a.terms("The Fever"), vec!["the", "fever"]);
    }

    #[test]
    fn builder_composes_char_filters() {
        let a = Analyzer::builder("html")
            .char_filter(HtmlStripCharFilter)
            .filter(LowercaseFilter)
            .build();
        let terms = a.terms("<p>Fever</p>");
        assert_eq!(terms, vec!["fever"]);
    }

    #[test]
    fn spans_survive_filtering() {
        let a = Analyzer::clinical_standard();
        let input = "Fevers and chills";
        for t in a.analyze(input) {
            // Span still points at the original surface form.
            let surface = t.span.slice(input);
            assert!(
                surface
                    .to_lowercase()
                    .starts_with(&t.text[..2.min(t.text.len())]),
                "span {surface:?} should anchor term {:?}",
                t.text
            );
        }
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(Analyzer::clinical_standard().terms("").is_empty());
        assert!(Analyzer::clinical_ngram().terms(" .. ").is_empty());
    }

    #[test]
    fn word_positions_follow_the_tokenizer() {
        assert!(Analyzer::clinical_standard().word_positions());
        assert!(Analyzer::simple().word_positions());
        assert!(!Analyzer::clinical_ngram().word_positions());
    }

    #[test]
    fn analyzer_name_is_reported() {
        assert_eq!(Analyzer::clinical_ngram().name(), "clinical_ngram");
    }
}
