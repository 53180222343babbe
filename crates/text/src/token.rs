//! Tokenizers.
//!
//! Three tokenizers are provided, mirroring the ElasticSearch configuration
//! space the paper uses:
//!
//! * [`StandardTokenizer`] — Unicode-ish word tokenizer that emits runs of
//!   alphanumeric characters (keeping internal hyphens/apostrophes inside
//!   clinical terms like `beta-blocker`), used for general indexing and as
//!   the NER token stream.
//! * [`WhitespaceTokenizer`] — trivial splitter, used in tests and as a
//!   baseline.
//! * [`NGramTokenizer`] — the paper's customized tokenizer with
//!   `min_gram=3, max_gram=25`, chosen because "some of the symptoms or
//!   medications may have longer names" (Section III-D).

use crate::span::Span;

/// A token: its text (owned, possibly rewritten by filters) and the span of
/// the original document it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text after any filtering.
    pub text: String,
    /// Source span in the original input (pre-filter offsets).
    pub span: Span,
    /// Ordinal position in the token stream (for phrase queries).
    pub position: usize,
}

impl Token {
    /// Convenience constructor used by tokenizers.
    pub fn new(text: impl Into<String>, span: Span, position: usize) -> Token {
        Token {
            text: text.into(),
            span,
            position,
        }
    }
}

/// A tokenizer turns raw text into a token stream.
pub trait Tokenizer: Send + Sync {
    /// Tokenizes `text`, producing tokens with byte spans into `text`.
    fn tokenize(&self, text: &str) -> Vec<Token>;

    /// Whether [`Token::position`]s are word positions — consecutive
    /// positions are adjacent words, so a phrase query can match them.
    /// An index stores positions only for a tokenizer that says yes.
    fn word_positions(&self) -> bool {
        true
    }
}

/// Standard word tokenizer.
///
/// A token is a maximal run of alphanumeric characters, where single `-`,
/// `'` or `.` characters *between* alphanumerics are kept inside the token
/// (`beta-blocker`, `Dr.`-style abbreviations are handled by the sentence
/// splitter, `3.5` stays one number token).
#[derive(Debug, Default, Clone, Copy)]
pub struct StandardTokenizer;

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric()
}

/// Calls `word` with the span of each word of `text`, as
/// [`StandardTokenizer`] finds them: a maximal run of word characters,
/// where a single `-`, `'` or `.` between two of them joins the run.
pub(crate) fn for_each_word(text: &str, mut word: impl FnMut(Span)) {
    let mut chars = text.char_indices();
    while let Some((start, c)) = chars.next() {
        if !is_word_char(c) {
            continue;
        }
        let mut end = start + c.len_utf8();
        loop {
            let mut ahead = chars.clone();
            match ahead.next() {
                Some((at, cj)) if is_word_char(cj) => end = at + cj.len_utf8(),
                Some((_, '-' | '\'' | '.')) => match ahead.next() {
                    Some((at, ck)) if is_word_char(ck) => end = at + ck.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
            chars = ahead;
        }
        word(Span::new(start, end));
    }
}

impl Tokenizer for StandardTokenizer {
    fn tokenize(&self, text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        for_each_word(text, |span| {
            let position = tokens.len();
            tokens.push(Token::new(span.slice(text), span, position));
        });
        tokens
    }
}

/// Whitespace tokenizer: splits on Unicode whitespace only.
#[derive(Debug, Default, Clone, Copy)]
pub struct WhitespaceTokenizer;

impl Tokenizer for WhitespaceTokenizer {
    fn tokenize(&self, text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut position = 0;
        let mut start: Option<usize> = None;
        for (idx, c) in text.char_indices() {
            if c.is_whitespace() {
                if let Some(s) = start.take() {
                    let span = Span::new(s, idx);
                    tokens.push(Token::new(span.slice(text), span, position));
                    position += 1;
                }
            } else if start.is_none() {
                start = Some(idx);
            }
        }
        if let Some(s) = start {
            let span = Span::new(s, text.len());
            tokens.push(Token::new(span.slice(text), span, position));
        }
        tokens
    }
}

/// Character N-gram tokenizer (ElasticSearch `ngram` tokenizer).
///
/// Emits all character n-grams of each word with lengths in
/// `[min_gram, max_gram]`. The paper sets `min_gram=3, max_gram=25` so that
/// long medication names remain findable by partial matches.
#[derive(Debug, Clone, Copy)]
pub struct NGramTokenizer {
    /// Minimum gram length in characters.
    pub min_gram: usize,
    /// Maximum gram length in characters.
    pub max_gram: usize,
}

impl NGramTokenizer {
    /// Creates an n-gram tokenizer; `0 < min_gram <= max_gram` required.
    pub fn new(min_gram: usize, max_gram: usize) -> NGramTokenizer {
        assert!(
            min_gram > 0 && min_gram <= max_gram,
            "invalid ngram bounds {min_gram}..={max_gram}"
        );
        NGramTokenizer { min_gram, max_gram }
    }

    /// The paper's configuration: `min_gram=3, max_gram=25`.
    pub fn paper_config() -> NGramTokenizer {
        NGramTokenizer::new(3, 25)
    }
}

impl NGramTokenizer {
    /// Calls `gram` with each n-gram of `word` — all of one start
    /// character's lengths, shortest first, then the next start's — and
    /// its span, `word` lying at byte `offset` of the text.
    pub(crate) fn for_each_gram(
        &self,
        word: &str,
        offset: usize,
        mut gram: impl FnMut(&str, Span),
    ) {
        let chars: Vec<usize> = word.char_indices().map(|(at, _)| at).collect();
        let n = chars.len();
        let byte = |char_index: usize| chars.get(char_index).copied().unwrap_or(word.len());
        for (start, &from) in chars.iter().enumerate() {
            for len in self.min_gram..=(n - start).min(self.max_gram) {
                let to = byte(start + len);
                gram(&word[from..to], Span::new(offset + from, offset + to));
            }
        }
    }
}

impl Tokenizer for NGramTokenizer {
    fn tokenize(&self, text: &str) -> Vec<Token> {
        // First isolate words with the standard tokenizer, then emit grams
        // within each word; this is how ES's ngram tokenizer is typically
        // deployed for term matching (token_chars: letter,digit).
        let mut tokens = Vec::new();
        for_each_word(text, |word| {
            self.for_each_gram(word.slice(text), word.start, |gram, span| {
                let position = tokens.len();
                tokens.push(Token::new(gram, span, position));
            });
        });
        tokens
    }

    /// No: grams are numbered in emission order, so the grams of one
    /// word take many positions and the next word's first gram does not
    /// follow the last word's.
    fn word_positions(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_tokenizes_words_and_punct() {
        let toks = StandardTokenizer.tokenize("Fever, cough; dyspnea.");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["Fever", "cough", "dyspnea"]);
    }

    #[test]
    fn standard_keeps_internal_hyphen() {
        let toks = StandardTokenizer.tokenize("started beta-blocker therapy");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["started", "beta-blocker", "therapy"]);
    }

    #[test]
    fn standard_keeps_decimal_numbers() {
        let toks = StandardTokenizer.tokenize("troponin 3.52 ng/mL");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["troponin", "3.52", "ng", "mL"]);
    }

    #[test]
    fn standard_handles_trailing_hyphen() {
        let toks = StandardTokenizer.tokenize("dose- and time-dependent");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["dose", "and", "time-dependent"]);
    }

    #[test]
    fn standard_spans_are_correct() {
        let input = "acute MI";
        for t in StandardTokenizer.tokenize(input) {
            assert_eq!(t.span.slice(input), t.text);
        }
    }

    #[test]
    fn standard_positions_are_sequential() {
        let toks = StandardTokenizer.tokenize("a b c d");
        let positions: Vec<usize> = toks.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3]);
    }

    #[test]
    fn whitespace_basic() {
        let toks = WhitespaceTokenizer.tokenize("  chest   pain ");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["chest", "pain"]);
    }

    #[test]
    fn whitespace_keeps_punctuation_attached() {
        let toks = WhitespaceTokenizer.tokenize("fever, cough");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["fever,", "cough"]);
    }

    #[test]
    fn ngram_emits_expected_grams() {
        let toks = NGramTokenizer::new(2, 3).tokenize("abcd");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["ab", "abc", "bc", "bcd", "cd"]);
    }

    #[test]
    fn ngram_skips_words_shorter_than_min() {
        let toks = NGramTokenizer::new(3, 25).tokenize("an MI");
        // "an" (2 chars) yields nothing; "MI" likewise.
        assert!(toks.is_empty());
    }

    #[test]
    fn ngram_caps_at_max_gram() {
        let word = "pseudohypoparathyroidism"; // 24 chars
        let toks = NGramTokenizer::new(3, 5).tokenize(word);
        assert!(toks.iter().all(|t| {
            let len = t.text.chars().count();
            (3..=5).contains(&len)
        }));
    }

    #[test]
    fn ngram_spans_point_into_source() {
        let input = "amiodarone therapy";
        for t in NGramTokenizer::paper_config().tokenize(input) {
            assert_eq!(t.span.slice(input), t.text);
        }
    }

    #[test]
    fn paper_config_is_3_25() {
        let t = NGramTokenizer::paper_config();
        assert_eq!((t.min_gram, t.max_gram), (3, 25));
    }

    #[test]
    #[should_panic(expected = "invalid ngram bounds")]
    fn ngram_rejects_zero_min() {
        let _ = NGramTokenizer::new(0, 3);
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let toks = StandardTokenizer.tokenize("fièvre et café — naïve");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["fièvre", "et", "café", "naïve"]);
        let _ = NGramTokenizer::new(2, 4).tokenize("fièvre");
    }
}
