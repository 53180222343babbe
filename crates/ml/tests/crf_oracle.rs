//! The CRF against a dense reference.
//!
//! `Crf` stores emission weights only for the hashed feature ids its
//! training examples use. `DenseCrf` below is the layout it replaced — a
//! `dim × L` matrix with a row for every id, the same arithmetic in the
//! same order — kept here as the oracle, not in the shipping crate. Over
//! seeded random sequences the two must agree bit for bit (`to_bits`) on
//! every weight, on `log_likelihood` and on `decode`: for features that
//! training met, for features it never met (a row the dense matrix holds
//! as zeros, the compact model not at all), for feature indices past the
//! hashed space (both reduce them modulo `dim`), and across a second
//! `train` call that brings new features. A failure names its seed.

use create_ml::crf::{log_sum_exp, Crf, CrfExample, CrfTrainConfig};
use create_ml::SparseVec;
use create_util::Rng;

/// The dense-matrix CRF: `emit[(feature % dim) * L + label]`.
struct DenseCrf {
    num_labels: usize,
    dim: usize,
    emit: Vec<f64>,
    trans: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
}

impl DenseCrf {
    fn new(dim: usize, num_labels: usize) -> DenseCrf {
        DenseCrf {
            num_labels,
            dim,
            emit: vec![0.0; dim * num_labels],
            trans: vec![0.0; num_labels * num_labels],
            start: vec![0.0; num_labels],
            end: vec![0.0; num_labels],
        }
    }

    fn emissions(&self, seq: &[SparseVec]) -> Vec<Vec<f64>> {
        seq.iter()
            .map(|x| {
                let mut row = vec![0.0; self.num_labels];
                for &(i, v) in x.entries() {
                    let base = (i as usize % self.dim) * self.num_labels;
                    for (l, r) in row.iter_mut().enumerate() {
                        *r += self.emit[base + l] * v;
                    }
                }
                row
            })
            .collect()
    }

    fn decode(&self, seq: &[SparseVec]) -> Vec<usize> {
        let n = seq.len();
        if n == 0 {
            return Vec::new();
        }
        let l = self.num_labels;
        let emissions = self.emissions(seq);
        let mut delta = vec![f64::NEG_INFINITY; n * l];
        let mut back = vec![0usize; n * l];
        for y in 0..l {
            delta[y] = self.start[y] + emissions[0][y];
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
                delta[t * l + y] = best + emissions[t][y];
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

    fn forward(&self, emissions: &[Vec<f64>]) -> (Vec<f64>, f64) {
        let n = emissions.len();
        let l = self.num_labels;
        let mut alpha = vec![f64::NEG_INFINITY; n * l];
        for y in 0..l {
            alpha[y] = self.start[y] + emissions[0][y];
        }
        let mut scratch = vec![0.0; l];
        for t in 1..n {
            for y in 0..l {
                for prev in 0..l {
                    scratch[prev] = alpha[(t - 1) * l + prev] + self.trans[prev * l + y];
                }
                alpha[t * l + y] = log_sum_exp(&scratch) + emissions[t][y];
            }
        }
        let mut final_scores = vec![0.0; l];
        for y in 0..l {
            final_scores[y] = alpha[(n - 1) * l + y] + self.end[y];
        }
        let log_z = log_sum_exp(&final_scores);
        (alpha, log_z)
    }

    fn backward(&self, emissions: &[Vec<f64>]) -> Vec<f64> {
        let n = emissions.len();
        let l = self.num_labels;
        let mut beta = vec![f64::NEG_INFINITY; n * l];
        for y in 0..l {
            beta[(n - 1) * l + y] = self.end[y];
        }
        let mut scratch = vec![0.0; l];
        for t in (0..n - 1).rev() {
            for y in 0..l {
                for next in 0..l {
                    scratch[next] = self.trans[y * l + next]
                        + emissions[t + 1][next]
                        + beta[(t + 1) * l + next];
                }
                beta[t * l + y] = log_sum_exp(&scratch);
            }
        }
        beta
    }

    fn gold_score(&self, example: &CrfExample, emissions: &[Vec<f64>]) -> f64 {
        let l = self.num_labels;
        let mut score = self.start[example.labels[0]] + emissions[0][example.labels[0]];
        for t in 1..example.labels.len() {
            score += self.trans[example.labels[t - 1] * l + example.labels[t]]
                + emissions[t][example.labels[t]];
        }
        score + self.end[*example.labels.last().expect("non-empty")]
    }

    fn log_likelihood(&self, example: &CrfExample) -> f64 {
        if example.features.is_empty() {
            return 0.0;
        }
        let emissions = self.emissions(&example.features);
        let (_, log_z) = self.forward(&emissions);
        self.gold_score(example, &emissions) - log_z
    }

    fn sgd_step(&mut self, example: &CrfExample, lr: f64, l2: f64) -> f64 {
        let n = example.features.len();
        let l = self.num_labels;
        if n == 0 {
            return 0.0;
        }
        let emissions = self.emissions(&example.features);
        let (alpha, log_z) = self.forward(&emissions);
        let beta = self.backward(&emissions);
        let mut marginal = vec![0.0; n * l];
        for t in 0..n {
            for y in 0..l {
                marginal[t * l + y] = (alpha[t * l + y] + beta[t * l + y] - log_z).exp();
            }
        }
        for t in 0..n {
            let gold = example.labels[t];
            for &(i, v) in example.features[t].entries() {
                let base = (i as usize % self.dim) * l;
                for y in 0..l {
                    let g = (marginal[t * l + y] - f64::from(y == gold)) * v;
                    let idx = base + y;
                    self.emit[idx] -= lr * (g + l2 * self.emit[idx]);
                }
            }
        }
        for t in 1..n {
            for prev in 0..l {
                for next in 0..l {
                    let log_edge = alpha[(t - 1) * l + prev]
                        + self.trans[prev * l + next]
                        + emissions[t][next]
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
        for y in 0..l {
            let g_start = marginal[y] - f64::from(example.labels[0] == y);
            self.start[y] -= lr * (g_start + l2 * self.start[y]);
            let g_end = marginal[(n - 1) * l + y] - f64::from(example.labels[n - 1] == y);
            self.end[y] -= lr * (g_end + l2 * self.end[y]);
        }
        let mut gold_score = self.gold_score(example, &emissions);
        gold_score -= log_z;
        -gold_score
    }

    fn train(&mut self, examples: &[CrfExample], config: &CrfTrainConfig) -> f64 {
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
                total += self.sgd_step(&examples[idx], lr, config.l2);
                count += 1;
                step += 1;
            }
            last_nll = total / count as f64;
        }
        last_nll
    }
}

/// Hashed feature space of the random models.
const DIM: usize = 1 << 10;
/// Seeds of the random cases; each is one model pair trained twice.
const SEEDS: std::ops::Range<u64> = 0..24;

/// A random sequence over feature ids drawn from `ids` (plus, now and
/// then, an index past the hashed space, which both models reduce
/// modulo `DIM`), with values of either sign.
fn sequence(rng: &mut Rng, ids: std::ops::Range<usize>, labels: usize) -> CrfExample {
    let n = rng.range(1, 9);
    let features = (0..n)
        .map(|_| {
            let entries = (0..rng.range(1, 7))
                .map(|_| {
                    let mut id = rng.range(ids.start, ids.end) as u32;
                    if rng.chance(0.1) {
                        id += DIM as u32 * rng.range(1, 4) as u32;
                    }
                    let value = *rng.choose(&[1.0, 1.0, 1.0, 0.5, -1.0, 2.5, -0.25]);
                    (id, value)
                })
                .collect();
            SparseVec::from_entries(entries)
        })
        .collect();
    CrfExample {
        features,
        labels: (0..n).map(|_| rng.below(labels)).collect(),
    }
}

/// Every weight, log-likelihood and decoded path of `probes`, bit for
/// bit, or the first difference.
fn compare(crf: &Crf, dense: &DenseCrf, probes: &[CrfExample]) -> Result<(), String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(crf.transitions()) != bits(&dense.trans)
        || bits(crf.start_weights()) != bits(&dense.start)
        || bits(crf.end_weights()) != bits(&dense.end)
    {
        return Err("transition / start / end weights differ".to_string());
    }
    let l = dense.num_labels;
    for id in 0..DIM as u32 {
        let row = &dense.emit[id as usize * l..(id as usize + 1) * l];
        match crf.emission_row(id) {
            Some(weights) if bits(weights) != bits(row) => {
                return Err(format!("emission row {id} differs"));
            }
            None if row.iter().any(|w| w.to_bits() != 0) => {
                return Err(format!("row {id} has dense weights but no compact row"));
            }
            _ => {}
        }
    }
    for (i, probe) in probes.iter().enumerate() {
        let (a, b) = (crf.log_likelihood(probe), dense.log_likelihood(probe));
        if a.to_bits() != b.to_bits() {
            return Err(format!("log_likelihood of probe {i}: {a} vs {b}"));
        }
        if crf.decode(&probe.features) != dense.decode(&probe.features) {
            return Err(format!("decode of probe {i} differs"));
        }
    }
    Ok(())
}

/// One seeded case: train both models on sequences over the lower half
/// of the feature ids, compare on probes over all of them, train both
/// again on sequences over the upper half, compare again.
fn case(seed: u64) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(seed);
    let labels = rng.range(2, 6);
    let config = CrfTrainConfig {
        epochs: rng.range(1, 4),
        seed,
        ..Default::default()
    };
    let mut crf = Crf::new(DIM, labels);
    let mut dense = DenseCrf::new(DIM, labels);
    let half = DIM / 2;
    let probes: Vec<CrfExample> = (0..12)
        .map(|_| sequence(&mut rng, 0..DIM, labels))
        .collect();
    let first: Vec<CrfExample> = (0..16)
        .map(|_| sequence(&mut rng, 0..half, labels))
        .collect();
    let (a, b) = (crf.train(&first, &config), dense.train(&first, &config));
    if a.to_bits() != b.to_bits() {
        return Err(format!("first train's NLL: {a} vs {b}"));
    }
    if let Some(id) = (half as u32..DIM as u32).find(|&id| crf.emission_row(id).is_some()) {
        return Err(format!(
            "a row for feature {id}, which the first training never met"
        ));
    }
    compare(&crf, &dense, &probes).map_err(|e| format!("after the first train: {e}"))?;
    let second: Vec<CrfExample> = (0..16)
        .map(|_| sequence(&mut rng, half / 2..DIM, labels))
        .collect();
    let (a, b) = (crf.train(&second, &config), dense.train(&second, &config));
    if a.to_bits() != b.to_bits() {
        return Err(format!("second train's NLL: {a} vs {b}"));
    }
    compare(&crf, &dense, &probes).map_err(|e| format!("after the second train: {e}"))
}

#[test]
fn compact_crf_is_bit_identical_to_the_dense_matrix() {
    for seed in SEEDS {
        if let Err(e) = case(seed) {
            panic!("crf_oracle seed {seed}: {e}");
        }
    }
}

#[test]
fn untrained_crf_holds_no_emission_rows() {
    let crf = Crf::new(1 << 18, 27);
    assert_eq!(crf.emission_row(12345), None);
    assert!(crf.heap_bytes() < 8 * 1024, "{} bytes", crf.heap_bytes());
}
