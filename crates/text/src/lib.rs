//! Text analysis substrate for CREATe.
//!
//! Reimplements the Lucene-style analysis chain that the paper configures in
//! ElasticSearch (Section III-D): character filters → tokenizer → token
//! filters. The paper's customized analyzer uses the `asciifolding`,
//! `lowercase`, `snowball`, `stop` and `stemmer` token filters and an N-gram
//! tokenizer with `min_gram=3`, `max_gram=25`; all of those are implemented
//! here from scratch, plus the sentence splitter used by the ingestion
//! pipeline and the bounded edit distance ontology normalization matches
//! concept names with.

pub mod analyzer;
pub mod distance;
pub mod filter;
pub mod sentence;
pub mod span;
pub mod stem;
pub mod token;

pub use analyzer::{Analyzer, AnalyzerBuilder};
pub use sentence::split_sentences;
pub use span::Span;
pub use token::{NGramTokenizer, StandardTokenizer, Token, Tokenizer, WhitespaceTokenizer};
