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
use crate::span::Span;
use crate::token::{
    for_each_word, NGramTokenizer, StandardTokenizer, Token, Tokenizer, WhitespaceTokenizer,
};
use std::any::{Any, TypeId};
use std::sync::Arc;

/// A complete, reusable analysis pipeline.
pub struct Analyzer {
    name: String,
    char_filters: Vec<Arc<dyn CharFilter>>,
    tokenizer: Arc<dyn Tokenizer>,
    filters: Vec<Arc<dyn TokenFilter>>,
    /// `Some` when the pipeline is exactly an n-gram tokenizer followed
    /// by `asciifolding` and `lowercase`, with no character filter — the
    /// paper's n-gram analyzer — which [`Analyzer::for_each_term`] runs
    /// on slices of one lowercased copy of each ASCII word.
    grams: Option<NGramTokenizer>,
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
            grams: None,
            filters: Vec::new(),
            filter_types: Vec::new(),
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

    /// Calls `term` with each term of `text` and its position, in
    /// stream order — what [`Analyzer::analyze`] returns, without a
    /// `String` per term: the one pass indexing and query parsing make.
    ///
    /// The paper's n-gram analyzer lowercases an ASCII word once and
    /// hands out each gram as a slice of that copy; for ASCII text
    /// `asciifolding` is the identity and `lowercase` the ASCII one, so
    /// the terms are the chain's. A word with any other character goes
    /// through the chain gram by gram, since folding can change a
    /// word's character count (`æ` → `ae`) and lowercasing depends on
    /// context (a word-final `Σ`).
    ///
    /// ```
    /// use create_text::Analyzer;
    /// let mut terms = Vec::new();
    /// Analyzer::clinical_ngram().for_each_term("Cough", |term, position| {
    ///     terms.push((term.to_string(), position))
    /// });
    /// assert_eq!(terms[..2], [("cou".to_string(), 0), ("coug".to_string(), 1)]);
    /// ```
    pub fn for_each_term(&self, text: &str, mut term: impl FnMut(&str, usize)) {
        self.visit(text, &mut |text, _, position| term(text, position));
    }

    /// Runs the full pipeline over `text`: the terms
    /// [`Analyzer::for_each_term`] visits, as tokens with their spans.
    pub fn analyze(&self, text: &str) -> Vec<Token> {
        if self.grams.is_none() {
            return self.chain(text);
        }
        let mut out = Vec::new();
        self.visit(text, &mut |term, span, position| {
            out.push(Token::new(term, span, position))
        });
        out
    }

    /// Analyzes and returns just the term strings — the common case for
    /// query parsing.
    pub fn terms(&self, text: &str) -> Vec<String> {
        self.analyze(text).into_iter().map(|t| t.text).collect()
    }

    /// Calls `visit` with each term, its span in `text` and its position.
    fn visit(&self, text: &str, visit: &mut dyn FnMut(&str, Span, usize)) {
        let Some(grams) = self.grams else {
            for token in self.chain(text) {
                visit(&token.text, token.span, token.position);
            }
            return;
        };
        let mut lower = String::new();
        let mut position = 0;
        for_each_word(text, |word| {
            let surface = word.slice(text);
            if surface.is_ascii() {
                lower.clear();
                lower.push_str(surface);
                lower.make_ascii_lowercase();
                let n = lower.len();
                for start in 0..n {
                    for end in start + grams.min_gram..=(start + grams.max_gram).min(n) {
                        let span = Span::new(word.start + start, word.start + end);
                        visit(&lower[start..end], span, position);
                        position += 1;
                    }
                }
            } else {
                grams.for_each_gram(surface, word.start, |gram, span| {
                    if let Some(token) = self.filtered(Token::new(gram, span, position)) {
                        visit(&token.text, token.span, token.position);
                    }
                    position += 1;
                });
            }
        });
    }

    /// The general pipeline: character filters, the tokenizer, then each
    /// token through the token filters.
    fn chain(&self, text: &str) -> Vec<Token> {
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
        tokens
            .into_iter()
            .filter_map(|token| self.filtered(token))
            .collect()
    }

    /// One token through the token filters: `None` when a filter drops
    /// it or its text ends up empty.
    fn filtered(&self, mut token: Token) -> Option<Token> {
        for f in &self.filters {
            token = f.apply(token)?;
        }
        (!token.text.is_empty()).then_some(token)
    }
}

/// Builder for [`Analyzer`].
pub struct AnalyzerBuilder {
    name: String,
    char_filters: Vec<Arc<dyn CharFilter>>,
    tokenizer: Arc<dyn Tokenizer>,
    /// The tokenizer, when it is an [`NGramTokenizer`].
    grams: Option<NGramTokenizer>,
    filters: Vec<Arc<dyn TokenFilter>>,
    /// The concrete type of each filter, in order.
    filter_types: Vec<TypeId>,
}

impl AnalyzerBuilder {
    /// Adds a character filter (applied in insertion order).
    pub fn char_filter(mut self, f: impl CharFilter + 'static) -> Self {
        self.char_filters.push(Arc::new(f));
        self
    }

    /// Sets the tokenizer (default: [`StandardTokenizer`]).
    pub fn tokenizer<T: Tokenizer + 'static>(mut self, t: T) -> Self {
        self.grams = (&t as &dyn Any).downcast_ref::<NGramTokenizer>().copied();
        self.tokenizer = Arc::new(t);
        self
    }

    /// Adds a token filter (applied in insertion order).
    pub fn filter<F: TokenFilter + 'static>(mut self, f: F) -> Self {
        self.filters.push(Arc::new(f));
        self.filter_types.push(TypeId::of::<F>());
        self
    }

    /// Finalizes the analyzer.
    pub fn build(self) -> Analyzer {
        let folds_then_lowercases = self.filter_types
            == [
                TypeId::of::<AsciiFoldingFilter>(),
                TypeId::of::<LowercaseFilter>(),
            ];
        let sliced = folds_then_lowercases && self.char_filters.is_empty();
        Analyzer {
            name: self.name,
            char_filters: self.char_filters,
            tokenizer: self.tokenizer,
            filters: self.filters,
            grams: self.grams.filter(|_| sliced),
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
    fn only_the_fold_then_lowercase_ngram_chain_is_sliced() {
        let ngram = |filters: &[&str], html: bool| {
            let mut b = Analyzer::builder("g").tokenizer(NGramTokenizer::new(2, 4));
            if html {
                b = b.char_filter(HtmlStripCharFilter);
            }
            for f in filters {
                b = match *f {
                    "fold" => b.filter(AsciiFoldingFilter),
                    _ => b.filter(LowercaseFilter),
                };
            }
            b.build().grams.is_some()
        };
        assert!(Analyzer::clinical_ngram().grams.is_some());
        assert!(ngram(&["fold", "lower"], false));
        assert!(!ngram(&["fold", "lower"], true));
        assert!(!ngram(&["lower", "fold"], false));
        assert!(!ngram(&["lower"], false));
        assert!(Analyzer::clinical_standard().grams.is_none());
        let standard = Analyzer::builder("s")
            .filter(AsciiFoldingFilter)
            .filter(LowercaseFilter)
            .build();
        assert!(standard.grams.is_none());
    }

    #[test]
    fn analyzer_name_is_reported() {
        assert_eq!(Analyzer::clinical_ngram().name(), "clinical_ngram");
    }
}
