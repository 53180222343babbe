//! Seeded differential test of the n-gram analyzer's term visitor.
//!
//! `Analyzer::for_each_term` hands out the grams of an ASCII word as
//! slices of one lowercased copy, and sends any other word through the
//! filter chain gram by gram. The oracle here is the chain as it runs
//! token by token: the standard tokenizer's word loop over the text's
//! characters, every n-gram of each word as a `Token` of its own, then
//! `asciifolding` and `lowercase` on each. Both must give the same terms,
//! in the same order, at the same positions and spans, and the same
//! count — the field length (`doc_len`) an index records for the text.
//!
//! Words are 1–40 characters of ASCII letters of both cases, digits and
//! hyphens, mixed with characters whose folding or lowercasing is not
//! one ASCII byte for one: `é`, `æ` (folds to two), `ß`, `İ` (lowercases
//! to two characters), a word-final `Σ` (lowercases by context), CJK and
//! an emoji. The seed is printed.

use create_text::filter::{AsciiFoldingFilter, LowercaseFilter, TokenFilter};
use create_text::{Analyzer, NGramTokenizer, Span, Token};
use create_util::Rng;

const SEED: u64 = 0x6E67_7261_6D73;
const TEXTS: usize = 400;

/// The analyzer chain applied token by token: the reference.
fn oracle(grams: NGramTokenizer, text: &str) -> Vec<Token> {
    let word_char = |c: char| c.is_alphanumeric();
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let mut words = Vec::new();
    let mut i = 0;
    while i < n {
        if !word_char(chars[i].1) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < n {
            if word_char(chars[j].1) {
                j += 1;
            } else if matches!(chars[j].1, '-' | '\'' | '.')
                && j + 1 < n
                && word_char(chars[j + 1].1)
            {
                j += 2;
            } else {
                break;
            }
        }
        let end = if j < n { chars[j].0 } else { text.len() };
        words.push(Span::new(chars[i].0, end));
        i = j;
    }
    let mut tokens = Vec::new();
    let mut position = 0;
    for word in words {
        let surface = word.slice(text);
        let at: Vec<usize> = surface.char_indices().map(|(b, _)| b).collect();
        for start in 0..at.len() {
            for len in grams.min_gram..=(at.len() - start).min(grams.max_gram) {
                let end = at.get(start + len).copied().unwrap_or(surface.len());
                let span = Span::new(word.start + at[start], word.start + end);
                let token = Token::new(&surface[at[start]..end], span, position);
                position += 1;
                let token = AsciiFoldingFilter.apply(token).unwrap();
                let token = LowercaseFilter.apply(token).unwrap();
                if !token.text.is_empty() {
                    tokens.push(token);
                }
            }
        }
    }
    tokens
}

/// One word of 1–40 characters.
fn word(rng: &mut Rng) -> String {
    const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    const OTHER: [char; 7] = ['é', 'æ', 'ß', 'İ', '病', '痛', '😀'];
    let len = rng.range(1, 41);
    let ascii = rng.chance(0.5);
    let mut out = String::new();
    for i in 0..len {
        let c = if i > 0 && i + 1 < len && rng.chance(0.05) {
            '-'
        } else if i + 1 == len && rng.chance(0.1) {
            'Σ'
        } else if !ascii && rng.chance(0.15) {
            OTHER[rng.below(OTHER.len())]
        } else {
            ASCII[rng.below(ASCII.len())] as char
        };
        out.push(c);
    }
    out
}

/// Words joined by separators, some of which join words themselves.
fn text(rng: &mut Rng) -> String {
    const SEPARATORS: [&str; 7] = [" ", " ", ", ", ". ", "'", "-", " — "];
    let mut out = String::new();
    for i in 0..rng.range(1, 12) {
        if i > 0 {
            out.push_str(SEPARATORS[rng.below(SEPARATORS.len())]);
        }
        out.push_str(&word(rng));
    }
    out
}

fn check(analyzer: &Analyzer, grams: NGramTokenizer, text: &str) {
    let expected = oracle(grams, text);
    let mut visited = Vec::new();
    analyzer.for_each_term(text, |term, position| {
        visited.push((term.to_string(), position))
    });
    let oracle_terms: Vec<(String, usize)> = expected
        .iter()
        .map(|t| (t.text.clone(), t.position))
        .collect();
    assert_eq!(visited, oracle_terms, "terms of {text:?}");
    assert_eq!(
        visited.len(),
        expected.len(),
        "doc_len of {text:?}: one term a visit"
    );
    assert_eq!(analyzer.analyze(text), expected, "tokens of {text:?}");
    let terms: Vec<String> = expected.into_iter().map(|t| t.text).collect();
    assert_eq!(analyzer.terms(text), terms, "terms() of {text:?}");
}

#[test]
fn for_each_term_is_the_per_gram_chain() {
    println!("ngram differential seed {SEED:#x}");
    let mut rng = Rng::seed_from_u64(SEED);
    let paper = NGramTokenizer::paper_config();
    let small = NGramTokenizer::new(1, 3);
    let analyzers = [
        (Analyzer::clinical_ngram(), paper),
        (
            Analyzer::builder("ngram_1_3")
                .tokenizer(small)
                .filter(AsciiFoldingFilter)
                .filter(LowercaseFilter)
                .build(),
            small,
        ),
    ];
    let fixed = [
        "",
        "ΣΣΣ ΟΔΟΣ",
        "İstanbul İİİ",
        "æther Straße Encyclopædia",
        "beta-blocker's 3.52 ng/mL",
        "病痛😀abc ABC😀",
        "a-b-c 'x' .y.",
    ];
    for text in fixed {
        for (analyzer, grams) in &analyzers {
            check(analyzer, *grams, text);
        }
    }
    let mut non_ascii = 0;
    for _ in 0..TEXTS {
        let text = text(&mut rng);
        non_ascii += usize::from(!text.is_ascii());
        for (analyzer, grams) in &analyzers {
            check(analyzer, *grams, &text);
        }
    }
    assert!(
        non_ascii > TEXTS / 4,
        "{non_ascii} of {TEXTS} texts were not ASCII"
    );
}
