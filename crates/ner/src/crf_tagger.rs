//! The main NER tagger: linear-chain CRF over hand-crafted features,
//! optionally augmented with C-FLAIR-style embedding features.
//!
//! Feature template (per token): word identity, lowercase form, word shape,
//! prefixes/suffixes (2–3 chars), digit/hyphen flags, neighboring words,
//! and gazetteer membership. With [`FlairFeatures`] enabled, each token
//! additionally gets k-means cluster ids of its contextual embedding at two
//! granularities plus bucketed char-LM surprisals — the discrete injection
//! of the paper's "rich token embeddings" (experiment E2 compares the CRF
//! with and without this block).

use crate::bio::{LabelSet, Mention};
use crate::data::{NerDataset, NerSentence};
use create_ml::cluster::KMeans;
use create_ml::crf::{Crf, CrfExample, CrfTrainConfig};
use create_ml::embed::{EmbedConfig, TokenEmbedder};
use create_ml::features::{FeatureHasher, SparseVec};
use create_ontology::Ontology;
use create_text::{StandardTokenizer, Token, Tokenizer};
use std::sync::Arc;

/// C-FLAIR-style feature provider: pre-trained char LMs + vocabulary
/// clustering + embedding nearest neighbors.
pub struct FlairFeatures {
    embedder: TokenEmbedder,
    coarse: KMeans,
    fine: KMeans,
    /// Pre-training vocabulary with unit-normalized embeddings, for the
    /// nearest-neighbor canonicalization feature.
    vocab: Vec<(String, Vec<f64>)>,
}

impl std::fmt::Debug for FlairFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlairFeatures")
            .field("coarse_k", &self.coarse.k())
            .field("fine_k", &self.fine.k())
            .finish()
    }
}

impl FlairFeatures {
    /// Pre-trains the char LMs on `raw_text` and clusters the vocabulary
    /// extracted from it, with the default configuration (LM order 4,
    /// 48-dimensional n-gram projection).
    pub fn pretrain(raw_text: &str, seed: u64) -> FlairFeatures {
        FlairFeatures::pretrain_with(raw_text, seed, 4, EmbedConfig::default())
    }

    /// Pre-training with explicit char-LM order and embedding configuration
    /// (the E2-extension ablation sweeps these).
    pub fn pretrain_with(
        raw_text: &str,
        seed: u64,
        lm_order: usize,
        config: EmbedConfig,
    ) -> FlairFeatures {
        let mut embedder = TokenEmbedder::new(lm_order, config);
        embedder.pretrain(raw_text);
        // Vocabulary = distinct lowercased word forms.
        let mut vocab: Vec<String> = StandardTokenizer
            .tokenize(raw_text)
            .into_iter()
            .map(|t| t.text.to_lowercase())
            .collect();
        vocab.sort_unstable();
        vocab.dedup();
        let points: Vec<Vec<f64>> = vocab.iter().map(|w| embedder.embed_isolated(w)).collect();
        let coarse = KMeans::fit(&points, 32, 20, seed);
        let fine = KMeans::fit(&points, 128, 20, seed.wrapping_add(1));
        let vocab_embeds = vocab
            .into_iter()
            .zip(points)
            .map(|(w, p)| {
                let norm = p.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                (w, p.into_iter().map(|x| x / norm).collect())
            })
            .collect();
        FlairFeatures {
            embedder,
            coarse,
            fine,
            vocab: vocab_embeds,
        }
    }

    /// Nearest pre-training vocabulary word by embedding cosine, when the
    /// similarity clears a confidence floor. This is how the embedding
    /// space canonicalizes unseen or misspelled surfaces onto forms whose
    /// label behaviour was observed in training.
    fn nearest_vocab(&self, token_lower: &str) -> Option<&str> {
        let v = self.embedder.embed_isolated(token_lower);
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        let mut best: Option<(&str, f64)> = None;
        for (word, embed) in &self.vocab {
            let dot: f64 = v.iter().zip(embed).map(|(a, b)| a * b).sum();
            let sim = dot / norm;
            if best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((word, sim));
            }
        }
        best.and_then(|(w, s)| (s > 0.55).then_some(w))
    }

    /// Adds the embedding-derived features for one token.
    fn add_features(&self, h: &mut FeatureHasher, token: &str, left: &str, right: &str) {
        let _ = (left, right, &self.coarse, &self.fine);
        let lower = token.to_lowercase();
        if let Some(nn) = self.nearest_vocab(&lower) {
            // Canonicalized word-identity: unseen surfaces inherit the
            // weights their nearest training-vocabulary neighbor earned.
            h.add2("nnw", nn);
        }
    }
}

/// Tagger configuration.
#[derive(Debug, Clone)]
pub struct CrfTaggerConfig {
    /// Hashed feature space bits (dimension = 2^bits).
    pub feature_bits: u32,
    /// CRF training hyperparameters.
    pub train: CrfTrainConfig,
    /// Use gazetteer membership features.
    pub gazetteer_features: bool,
}

impl Default for CrfTaggerConfig {
    fn default() -> Self {
        CrfTaggerConfig {
            feature_bits: 18,
            train: CrfTrainConfig::default(),
            gazetteer_features: true,
        }
    }
}

/// The CRF-based tagger.
pub struct CrfTagger {
    crf: Crf,
    labels: LabelSet,
    config: CrfTaggerConfig,
    ontology: Option<Arc<Ontology>>,
    flair: Option<Arc<FlairFeatures>>,
}

impl std::fmt::Debug for CrfTagger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrfTagger")
            .field("labels", &self.labels.num_labels())
            .field("flair", &self.flair.is_some())
            .finish()
    }
}

fn word_shape(word: &str) -> String {
    let mut shape = String::new();
    let mut last = ' ';
    for c in word.chars() {
        let s = if c.is_uppercase() {
            'X'
        } else if c.is_lowercase() {
            'x'
        } else if c.is_ascii_digit() {
            'd'
        } else {
            c
        };
        // Collapse runs.
        if s != last {
            shape.push(s);
            last = s;
        }
    }
    shape
}

impl CrfTagger {
    /// Trains the tagger. `ontology` enables gazetteer features; `flair`
    /// enables the embedding feature block.
    pub fn train(
        dataset: &NerDataset,
        config: CrfTaggerConfig,
        ontology: Option<Arc<Ontology>>,
        flair: Option<Arc<FlairFeatures>>,
    ) -> CrfTagger {
        let mut tagger = CrfTagger {
            crf: Crf::new(1 << config.feature_bits, dataset.labels.num_labels()),
            labels: dataset.labels.clone(),
            config,
            ontology,
            flair,
        };
        let examples: Vec<CrfExample> = dataset
            .sentences
            .iter()
            .map(|s| CrfExample {
                features: tagger.sentence_features(&s.text, &s.tokens),
                labels: s.labels.clone(),
            })
            .filter(|e| !e.features.is_empty())
            .collect();
        tagger.crf.train(&examples, &tagger.config.train);
        tagger
    }

    /// Heap bytes the tagger holds: the CRF's weights and the label set.
    /// The ontology and the flair features it shares by `Arc` are not
    /// counted.
    pub fn heap_bytes(&self) -> usize {
        self.crf.heap_bytes() + std::mem::size_of_val(self.labels.types())
    }

    /// Extracts per-token feature vectors for a tokenized sentence.
    pub fn sentence_features(&self, text: &str, tokens: &[Token]) -> Vec<SparseVec> {
        let mut h = FeatureHasher::new(self.config.feature_bits);
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let mut out = Vec::with_capacity(tokens.len());
        for (i, tok) in tokens.iter().enumerate() {
            let w = words[i];
            let lower = w.to_lowercase();
            h.add2("w", &lower);
            h.add2("shape", &word_shape(w));
            let chars: Vec<char> = lower.chars().collect();
            if chars.len() >= 2 {
                let p2: String = chars[..2].iter().collect();
                let s2: String = chars[chars.len() - 2..].iter().collect();
                h.add2("p2", &p2);
                h.add2("s2", &s2);
            }
            if chars.len() >= 3 {
                let p3: String = chars[..3].iter().collect();
                let s3: String = chars[chars.len() - 3..].iter().collect();
                h.add2("p3", &p3);
                h.add2("s3", &s3);
            }
            if w.chars().any(|c| c.is_ascii_digit()) {
                h.add("has_digit");
            }
            if w.contains('-') {
                h.add("has_hyphen");
            }
            if i == 0 {
                h.add("bos");
            } else {
                h.add2("w-1", &words[i - 1].to_lowercase());
            }
            if i + 1 == words.len() {
                h.add("eos");
            } else {
                h.add2("w+1", &words[i + 1].to_lowercase());
            }
            if self.config.gazetteer_features {
                if let Some(o) = self.ontology.as_deref() {
                    if let Some(c) = o.lookup(&lower) {
                        h.add2("gaz", c.semantic_type.label());
                    }
                    // Two-token window lookup ("chest pain").
                    if i + 1 < tokens.len() {
                        let span_text = &text[tok.span.start..tokens[i + 1].span.end];
                        if let Some(c) = o.lookup(span_text) {
                            h.add2("gaz2", c.semantic_type.label());
                        }
                    }
                }
            }
            if let Some(flair) = self.flair.as_deref() {
                let left = &text[..tok.span.start];
                let right = &text[tok.span.end.min(text.len())..];
                flair.add_features(&mut h, w, left, right);
            }
            out.push(h.finish());
        }
        out
    }

    /// Tags one raw sentence.
    pub fn tag(&self, sentence: &str) -> Vec<Mention> {
        let tokens = StandardTokenizer.tokenize(sentence);
        if tokens.is_empty() {
            return Vec::new();
        }
        let features = self.sentence_features(sentence, &tokens);
        let label_ids = self.crf.decode(&features);
        self.labels.decode(sentence, &tokens, &label_ids)
    }

    /// Tags a pre-tokenized dataset sentence (no re-tokenization).
    pub fn tag_sentence(&self, s: &NerSentence) -> Vec<Mention> {
        let features = self.sentence_features(&s.text, &s.tokens);
        let label_ids = self.crf.decode(&features);
        self.labels.decode(&s.text, &s.tokens, &label_ids)
    }

    /// The label set.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::span_f1;
    use create_corpus::{CorpusConfig, Generator};
    use create_ontology::clinical_ontology;

    fn datasets() -> (NerDataset, NerDataset) {
        let reports = Generator::new(CorpusConfig {
            num_reports: 30,
            seed: 44,
            ..Default::default()
        })
        .generate();
        NerDataset::from_reports(&reports, LabelSet::ner_targets()).split(0.8)
    }

    fn quick_config() -> CrfTaggerConfig {
        CrfTaggerConfig {
            feature_bits: 16,
            train: CrfTrainConfig {
                epochs: 3,
                ..Default::default()
            },
            gazetteer_features: true,
        }
    }

    #[test]
    fn word_shape_collapses_runs() {
        assert_eq!(word_shape("Fever"), "Xx");
        assert_eq!(word_shape("COVID-19"), "X-d");
        assert_eq!(word_shape("3.52"), "d.d");
    }

    #[test]
    fn crf_learns_to_tag() {
        let (train, test) = datasets();
        let ontology = Arc::new(clinical_ontology());
        let tagger = CrfTagger::train(&train, quick_config(), Some(ontology), None);
        let (report, _) = span_f1(&tagger, &test);
        assert!(
            report.f1 > 0.6,
            "span F1 {:.3} too low for an in-domain CRF",
            report.f1
        );
    }

    #[test]
    fn tags_paper_query_example() {
        let (train, _) = datasets();
        let ontology = Arc::new(clinical_ontology());
        let tagger = CrfTagger::train(&train, quick_config(), Some(ontology), None);
        let mentions =
            tagger.tag("A patient was admitted to the hospital because of fever and cough.");
        let texts: Vec<&str> = mentions.iter().map(|m| m.text.as_str()).collect();
        assert!(texts.contains(&"fever"), "mentions: {texts:?}");
        assert!(texts.contains(&"cough"), "mentions: {texts:?}");
    }

    #[test]
    fn flair_features_are_usable() {
        let (train, test) = datasets();
        let flair = Arc::new(FlairFeatures::pretrain(&train.raw_text(), 3));
        let tagger = CrfTagger::train(&train, quick_config(), None, Some(flair));
        let (report, _) = span_f1(&tagger, &test);
        assert!(report.f1 > 0.4, "flair-only F1 {:.3}", report.f1);
    }

    #[test]
    fn empty_sentence_tags_empty() {
        let (train, _) = datasets();
        let tagger = CrfTagger::train(&train, quick_config(), None, None);
        assert!(tagger.tag("").is_empty());
    }

    /// FNV-1a over the bits of every weight of `crf`: each learned
    /// emission row with its feature id, in id order, then the
    /// transitions, the start and the end potentials.
    fn weights_digest(crf: &Crf, dim: u32) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for id in 0..dim {
            if let Some(row) = crf.emission_row(id) {
                eat(u64::from(id));
                row.iter().for_each(|w| eat(w.to_bits()));
            }
        }
        let fixed = [crf.transitions(), crf.start_weights(), crf.end_weights()];
        fixed
            .iter()
            .flat_map(|ws| ws.iter())
            .for_each(|w| eat(w.to_bits()));
        digest
    }

    /// The tagger the benchmark trains — the first 60 reports of corpus
    /// seed `0xC0FFEE`, the default configuration — has these weights to
    /// the bit.
    #[test]
    fn benchmark_tagger_weights_are_pinned() {
        let reports = Generator::new(CorpusConfig {
            num_reports: 60,
            seed: 0xC0FFEE,
            ..Default::default()
        })
        .generate();
        let dataset = NerDataset::from_reports(&reports, LabelSet::ner_targets());
        let config = CrfTaggerConfig::default();
        let dim = 1u32 << config.feature_bits;
        let ontology = Arc::new(clinical_ontology());
        let tagger = CrfTagger::train(&dataset, config, Some(ontology), None);
        assert_eq!(
            format!("{:016x}", weights_digest(&tagger.crf, dim)),
            "d34a55d00a5a0420"
        );
    }
}
