//! Linear-chain conditional random field.
//!
//! The sequence labeler behind the named entity recognizer (Section III-C).
//! Emission scores come from hashed sparse features per position: each
//! hashed feature training met has a row of `L` weights, and one it never
//! met scores zero and has no row. Transition scores are a dense `L × L`
//! matrix plus start/end potentials. Training
//! minimizes the exact negative conditional log-likelihood by SGD: the
//! gradient is `E_model[features] - E_gold[features]`, with model
//! expectations computed by the log-space forward–backward algorithm.
//! Decoding is Viterbi.

use crate::features::SparseVec;
use create_util::Rng;

/// A labeled training sequence: per-position feature vectors and gold
/// label ids in `0..num_labels`.
#[derive(Debug, Clone)]
pub struct CrfExample {
    /// Feature vector for each position.
    pub features: Vec<SparseVec>,
    /// Gold label id for each position.
    pub labels: Vec<usize>,
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct CrfTrainConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Base learning rate (decayed 1/(1+decay*t)).
    pub learning_rate: f64,
    /// Learning-rate decay factor per example.
    pub decay: f64,
    /// L2 strength applied lazily per update.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for CrfTrainConfig {
    fn default() -> Self {
        CrfTrainConfig {
            epochs: 8,
            learning_rate: 0.1,
            decay: 1e-4,
            l2: 1e-7,
            seed: 7,
        }
    }
}

/// A linear-chain CRF model.
#[derive(Debug, Clone)]
pub struct Crf {
    num_labels: usize,
    dim: usize,
    /// The hashed feature ids (reduced modulo `dim`) that have emission
    /// weights, ascending: every id a training example used, and no other.
    rows: Vec<u32>,
    /// Emission weights, `emit[row * L + label]` for the feature
    /// `rows[row]`.
    emit: Vec<f64>,
    /// Transition weights, `t[prev * L + next]`.
    trans: Vec<f64>,
    /// Start potentials per label.
    start: Vec<f64>,
    /// End potentials per label.
    end: Vec<f64>,
}

impl Crf {
    /// Creates a zero-initialized CRF over a hashed emission feature space
    /// of `dim` dimensions and `num_labels` labels. No emission weight is
    /// stored until [`Crf::train`] meets a feature.
    pub fn new(dim: usize, num_labels: usize) -> Crf {
        assert!(num_labels >= 2);
        assert!(dim > 0);
        Crf {
            num_labels,
            dim,
            rows: Vec::new(),
            emit: Vec::new(),
            trans: vec![0.0; num_labels * num_labels],
            start: vec![0.0; num_labels],
            end: vec![0.0; num_labels],
        }
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// The emission weights of hashed feature `feature` (reduced modulo
    /// the feature space), one per label; `None` for a feature no
    /// training example used, whose weights are all zero.
    pub fn emission_row(&self, feature: u32) -> Option<&[f64]> {
        let row = self.row(feature)?;
        Some(&self.emit[row * self.num_labels..(row + 1) * self.num_labels])
    }

    /// Transition weights, `[prev * L + next]`.
    pub fn transitions(&self) -> &[f64] {
        &self.trans
    }

    /// Start potentials per label.
    pub fn start_weights(&self) -> &[f64] {
        &self.start
    }

    /// End potentials per label.
    pub fn end_weights(&self) -> &[f64] {
        &self.end
    }

    /// Heap bytes the model holds, from its vectors' capacities.
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + (self.emit.capacity()
                + self.trans.capacity()
                + self.start.capacity()
                + self.end.capacity())
                * std::mem::size_of::<f64>()
    }

    /// The hashed feature id of a feature index.
    fn id(&self, feature: u32) -> u32 {
        (feature as usize % self.dim) as u32
    }

    /// The row holding `feature`'s weights, if training met it.
    fn row(&self, feature: u32) -> Option<usize> {
        self.rows.binary_search(&self.id(feature)).ok()
    }

    /// The emission lattice of a sequence, `cells[pos * L + label]`: per
    /// position, each feature's weight row times its value, added in entry
    /// order. `row_of` is called once per entry, in order, and names its
    /// row; an entry without one adds nothing, exactly as all-zero weights
    /// times a finite value would: a cell starts at `+0.0` and a sum is
    /// `-0.0` only when both terms are, so adding `±0.0` leaves it
    /// bit-unchanged.
    fn emissions(
        &self,
        seq: &[SparseVec],
        mut row_of: impl FnMut(u32) -> Option<usize>,
    ) -> Vec<f64> {
        let l = self.num_labels;
        let mut cells = vec![0.0; seq.len() * l];
        for (x, cell) in seq.iter().zip(cells.chunks_exact_mut(l)) {
            for &(i, v) in x.entries() {
                if let Some(row) = row_of(i) {
                    for (c, &w) in cell.iter_mut().zip(&self.emit[row * l..(row + 1) * l]) {
                        *c += w * v;
                    }
                }
            }
        }
        cells
    }

    /// Viterbi decoding: most probable label sequence.
    pub fn decode(&self, seq: &[SparseVec]) -> Vec<usize> {
        let n = seq.len();
        if n == 0 {
            return Vec::new();
        }
        let l = self.num_labels;
        let emissions = self.emissions(seq, |i| self.row(i));
        let mut delta = vec![f64::NEG_INFINITY; n * l];
        let mut back = vec![0usize; n * l];
        for y in 0..l {
            delta[y] = self.start[y] + emissions[y];
        }
        for t in 1..n {
            for y in 0..l {
                let mut best = f64::NEG_INFINITY;
                let mut best_prev = 0;
                for prev in 0..l {
                    let s = delta[(t - 1) * l + prev] + self.trans[prev * l + y];
                    if s > best {
                        best = s;
                        best_prev = prev;
                    }
                }
                delta[t * l + y] = best + emissions[t * l + y];
                back[t * l + y] = best_prev;
            }
        }
        let mut best_last = 0;
        let mut best_score = f64::NEG_INFINITY;
        for y in 0..l {
            let s = delta[(n - 1) * l + y] + self.end[y];
            if s > best_score {
                best_score = s;
                best_last = y;
            }
        }
        let mut path = vec![0usize; n];
        path[n - 1] = best_last;
        for t in (1..n).rev() {
            path[t - 1] = back[t * l + path[t]];
        }
        path
    }

    /// Log-space forward algorithm over an emission lattice; returns
    /// (alphas, logZ).
    fn forward(&self, emissions: &[f64]) -> (Vec<f64>, f64) {
        let l = self.num_labels;
        let n = emissions.len() / l;
        let mut alpha = vec![f64::NEG_INFINITY; n * l];
        for y in 0..l {
            alpha[y] = self.start[y] + emissions[y];
        }
        let mut scratch = vec![0.0; l];
        for t in 1..n {
            for y in 0..l {
                for prev in 0..l {
                    scratch[prev] = alpha[(t - 1) * l + prev] + self.trans[prev * l + y];
                }
                alpha[t * l + y] = log_sum_exp(&scratch) + emissions[t * l + y];
            }
        }
        for y in 0..l {
            scratch[y] = alpha[(n - 1) * l + y] + self.end[y];
        }
        let log_z = log_sum_exp(&scratch);
        (alpha, log_z)
    }

    /// Log-space backward algorithm over an emission lattice.
    fn backward(&self, emissions: &[f64]) -> Vec<f64> {
        let l = self.num_labels;
        let n = emissions.len() / l;
        let mut beta = vec![f64::NEG_INFINITY; n * l];
        for y in 0..l {
            beta[(n - 1) * l + y] = self.end[y];
        }
        let mut scratch = vec![0.0; l];
        for t in (0..n - 1).rev() {
            for y in 0..l {
                for next in 0..l {
                    scratch[next] = self.trans[y * l + next]
                        + emissions[(t + 1) * l + next]
                        + beta[(t + 1) * l + next];
                }
                beta[t * l + y] = log_sum_exp(&scratch);
            }
        }
        beta
    }

    /// Sequence log-likelihood `log p(labels | seq)`.
    pub fn log_likelihood(&self, example: &CrfExample) -> f64 {
        assert_eq!(example.features.len(), example.labels.len());
        if example.features.is_empty() {
            return 0.0;
        }
        let emissions = self.emissions(&example.features, |i| self.row(i));
        let (_, log_z) = self.forward(&emissions);
        self.gold_score(example, &emissions) - log_z
    }

    /// One SGD step on a single example whose entries' rows are
    /// `entry_rows`, in entry order; returns its NLL before the step.
    fn sgd_step(&mut self, example: &CrfExample, entry_rows: &[u32], lr: f64, l2: f64) -> f64 {
        let n = example.features.len();
        let l = self.num_labels;
        if n == 0 {
            return 0.0;
        }
        let mut next_row = entry_rows.iter().map(|&row| row as usize);
        let emissions = self.emissions(&example.features, |_| next_row.next());
        let (alpha, log_z) = self.forward(&emissions);
        let beta = self.backward(&emissions);

        // Position marginals p(y_t = y | x).
        let mut marginal = vec![0.0; n * l];
        for t in 0..n {
            for y in 0..l {
                marginal[t * l + y] = (alpha[t * l + y] + beta[t * l + y] - log_z).exp();
            }
        }

        // Emission gradient: (marginal - gold) per feature.
        let mut next_row = entry_rows.iter().map(|&row| row as usize);
        for t in 0..n {
            let gold = example.labels[t];
            for &(_, v) in example.features[t].entries() {
                let base = next_row.next().expect("a row per entry") * l;
                for y in 0..l {
                    let g = (marginal[t * l + y] - f64::from(y == gold)) * v;
                    let idx = base + y;
                    self.emit[idx] -= lr * (g + l2 * self.emit[idx]);
                }
            }
        }

        // Transition gradient via edge marginals.
        for t in 1..n {
            for prev in 0..l {
                for next in 0..l {
                    let log_edge = alpha[(t - 1) * l + prev]
                        + self.trans[prev * l + next]
                        + emissions[t * l + next]
                        + beta[t * l + next]
                        - log_z;
                    let p_edge = log_edge.exp();
                    let gold =
                        f64::from(example.labels[t - 1] == prev && example.labels[t] == next);
                    let idx = prev * l + next;
                    self.trans[idx] -= lr * ((p_edge - gold) + l2 * self.trans[idx]);
                }
            }
        }

        // Start/end gradients.
        for y in 0..l {
            let g_start = marginal[y] - f64::from(example.labels[0] == y);
            self.start[y] -= lr * (g_start + l2 * self.start[y]);
            let g_end = marginal[(n - 1) * l + y] - f64::from(example.labels[n - 1] == y);
            self.end[y] -= lr * (g_end + l2 * self.end[y]);
        }

        // NLL of the gold path (pre-step, using already-computed pieces).
        let mut gold_score = self.gold_score(example, &emissions);
        gold_score -= log_z;
        -gold_score
    }

    /// Unnormalized score of the gold path over an emission lattice.
    fn gold_score(&self, example: &CrfExample, emissions: &[f64]) -> f64 {
        let l = self.num_labels;
        let mut score = self.start[example.labels[0]] + emissions[example.labels[0]];
        for t in 1..example.labels.len() {
            score += self.trans[example.labels[t - 1] * l + example.labels[t]]
                + emissions[t * l + example.labels[t]];
        }
        score + self.end[*example.labels.last().expect("non-empty")]
    }

    /// Gives every feature id the examples use a row — new rows start at
    /// zero, existing weights are kept — and returns, per example, the row
    /// of each of its entries in entry order.
    fn add_rows(&mut self, examples: &[CrfExample]) -> Vec<Vec<u32>> {
        let mut ids: Vec<u32> = examples
            .iter()
            .flat_map(|e| &e.features)
            .flat_map(SparseVec::entries)
            .map(|&(i, _)| self.id(i))
            .chain(self.rows.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() > self.rows.len() {
            ids.shrink_to_fit();
            let l = self.num_labels;
            let mut emit = vec![0.0; ids.len() * l];
            for (old, id) in self.rows.iter().enumerate() {
                let new = ids.binary_search(id).expect("every existing id is kept");
                emit[new * l..(new + 1) * l].copy_from_slice(&self.emit[old * l..(old + 1) * l]);
            }
            self.rows = ids;
            self.emit = emit;
        }
        examples
            .iter()
            .map(|e| {
                e.features
                    .iter()
                    .flat_map(SparseVec::entries)
                    .map(|&(i, _)| self.row(i).expect("every used id has a row") as u32)
                    .collect()
            })
            .collect()
    }

    /// Trains by SGD over the examples; returns the mean NLL per sequence
    /// of the final epoch. Every feature id the examples use gets a row
    /// first (a later call keeps the rows and weights an earlier one
    /// learned), so the epochs do no lookup.
    pub fn train(&mut self, examples: &[CrfExample], config: &CrfTrainConfig) -> f64 {
        assert!(!examples.is_empty());
        for e in examples {
            assert_eq!(e.features.len(), e.labels.len(), "ragged example");
            assert!(
                e.labels.iter().all(|&y| y < self.num_labels),
                "label id out of range"
            );
        }
        let entry_rows = self.add_rows(examples);
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut step = 0usize;
        let mut last_nll = 0.0;
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0;
            let mut count = 0usize;
            for &idx in &order {
                let lr = config.learning_rate / (1.0 + config.decay * step as f64);
                total += self.sgd_step(&examples[idx], &entry_rows[idx], lr, config.l2);
                count += 1;
                step += 1;
            }
            last_nll = total / count as f64;
        }
        last_nll
    }

    /// Token-level accuracy on a labeled set.
    pub fn token_accuracy(&self, examples: &[CrfExample]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for e in examples {
            let pred = self.decode(&e.features);
            for (p, g) in pred.iter().zip(&e.labels) {
                correct += usize::from(p == g);
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// Log-sum-exp of a slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureHasher;

    fn feats(names: &[&str]) -> SparseVec {
        let mut h = FeatureHasher::new(12);
        for n in names {
            h.add(n);
        }
        h.finish()
    }

    /// A toy BIO task: label "fever"/"cough" tokens as 1 (entity), rest 0.
    fn toy_sequences() -> Vec<CrfExample> {
        let mut out = Vec::new();
        let sents: Vec<Vec<(&str, usize)>> = vec![
            vec![("the", 0), ("patient", 0), ("had", 0), ("fever", 1)],
            vec![("fever", 1), ("and", 0), ("cough", 1), ("developed", 0)],
            vec![("she", 0), ("reported", 0), ("cough", 1)],
            vec![("no", 0), ("fever", 1), ("was", 0), ("noted", 0)],
            vec![("cough", 1), ("persisted", 0)],
            vec![("examination", 0), ("was", 0), ("normal", 0)],
        ];
        for s in sents {
            out.push(CrfExample {
                features: s.iter().map(|(w, _)| feats(&[&format!("w={w}")])).collect(),
                labels: s.iter().map(|(_, y)| *y).collect(),
            });
        }
        out
    }

    #[test]
    fn log_sum_exp_is_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-12);
        assert!((log_sum_exp(&[1000.0, 1000.0]) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn untrained_log_likelihood_is_uniform() {
        let crf = Crf::new(1 << 12, 3);
        let e = CrfExample {
            features: vec![feats(&["a"]), feats(&["b"])],
            labels: vec![0, 1],
        };
        // With zero weights every path has equal probability: ll = -2*ln(3).
        let ll = crf.log_likelihood(&e);
        assert!((ll + 2.0 * 3.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_nll_and_learns() {
        let data = toy_sequences();
        let mut crf = Crf::new(1 << 12, 2);
        let before: f64 = data.iter().map(|e| -crf.log_likelihood(e)).sum();
        let final_nll = crf.train(&data, &CrfTrainConfig::default());
        let after: f64 = data.iter().map(|e| -crf.log_likelihood(e)).sum();
        assert!(after < before, "NLL did not decrease: {before} -> {after}");
        assert!(final_nll < 1.0);
        assert!(crf.token_accuracy(&data) > 0.9, "accuracy too low");
    }

    #[test]
    fn decode_matches_gold_after_training() {
        let data = toy_sequences();
        let mut crf = Crf::new(1 << 12, 2);
        crf.train(
            &data,
            &CrfTrainConfig {
                epochs: 20,
                ..Default::default()
            },
        );
        let test = CrfExample {
            features: vec![
                feats(&["w=patient"]),
                feats(&["w=had"]),
                feats(&["w=cough"]),
            ],
            labels: vec![0, 0, 1],
        };
        assert_eq!(crf.decode(&test.features), test.labels);
    }

    #[test]
    fn decode_empty_sequence() {
        let crf = Crf::new(1 << 10, 2);
        assert!(crf.decode(&[]).is_empty());
    }

    #[test]
    fn transitions_are_learned() {
        // Task where emission features are useless and only transitions
        // disambiguate: label alternates 0,1,0,1...
        let e = CrfExample {
            features: vec![feats(&["x"]); 6],
            labels: vec![0, 1, 0, 1, 0, 1],
        };
        let mut crf = Crf::new(1 << 10, 2);
        crf.train(
            std::slice::from_ref(&e),
            &CrfTrainConfig {
                epochs: 60,
                learning_rate: 0.3,
                ..Default::default()
            },
        );
        assert_eq!(crf.decode(&e.features), e.labels);
    }

    #[test]
    fn deterministic_training() {
        let data = toy_sequences();
        let cfg = CrfTrainConfig::default();
        let mut a = Crf::new(1 << 12, 2);
        let mut b = Crf::new(1 << 12, 2);
        a.train(&data, &cfg);
        b.train(&data, &cfg);
        assert_eq!(a.emit, b.emit);
        assert_eq!(a.trans, b.trans);
    }

    #[test]
    #[should_panic(expected = "ragged example")]
    fn rejects_ragged_examples() {
        let mut crf = Crf::new(1 << 10, 2);
        let bad = CrfExample {
            features: vec![feats(&["a"])],
            labels: vec![0, 1],
        };
        crf.train(&[bad], &CrfTrainConfig::default());
    }

    #[test]
    fn likelihoods_are_normalized() {
        // Sum of p(y|x) over all 4 label paths of length 2 must be 1.
        let mut crf = Crf::new(1 << 10, 2);
        crf.train(
            &toy_sequences(),
            &CrfTrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let features = vec![feats(&["w=fever"]), feats(&["w=and"])];
        let mut total = 0.0;
        for y0 in 0..2 {
            for y1 in 0..2 {
                let e = CrfExample {
                    features: features.clone(),
                    labels: vec![y0, y1],
                };
                total += crf.log_likelihood(&e).exp();
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "paths sum to {total}");
    }
}
