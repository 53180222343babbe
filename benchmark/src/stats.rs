//! Sample statistics: nearest-rank percentiles inside one round, and the
//! best / median / quartile summary across the rounds of a run.

/// Which direction of a metric is better; decides which round is "best".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. An actual observation, never
/// an interpolation between a cheap and an expensive request class.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample ascending; a NaN is a bug upstream, not a value.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    values
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// One metric's values over the timed rounds of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// The value a run reports: max for rates, min for times.
    pub best: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Summarises per-round values. Neighbour noise on a shared host only ever
/// slows a round, so the best round is the estimate least touched by it;
/// the median and quartiles beside it show the program's own variance.
pub fn summarize_rounds(values: &[f64], better: Better) -> RoundSummary {
    let s = sorted(values.to_vec());
    RoundSummary {
        best: match better {
            Better::Higher => s[s.len() - 1],
            Better::Lower => s[0],
        },
        median: percentile(&s, 0.5),
        q1: percentile(&s, 0.25),
        q3: percentile(&s, 0.75),
    }
}

/// Quartile spread of a set of runs as a share of their median, by the
/// rule of Python's `statistics.quantiles(values, n=4)` (exclusive method),
/// which is what the acceptance check computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| -> f64 {
        // position k*(n+1)/4 in 1-based ranks, linear between neighbours
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    let med = quantile(2);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observations() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.5], 0.9), 7.5);
    }

    #[test]
    fn p90_of_108_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=108).map(f64::from).collect();
        let p90 = percentile(&s, 0.9);
        assert_eq!(s.iter().filter(|v| **v > p90).count(), 10);
    }

    #[test]
    fn best_round_follows_direction() {
        let rounds = [50.0, 62.5, 40.0, 55.0, 61.0];
        let rate = summarize_rounds(&rounds, Better::Higher);
        assert_eq!(rate.best, 62.5);
        assert_eq!(rate.median, 55.0);
        assert_eq!((rate.q1, rate.q3), (50.0, 61.0));
        let time = summarize_rounds(&rounds, Better::Lower);
        assert_eq!(time.best, 40.0);
        assert_eq!(time.median, rate.median);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert!((iqr_share(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0]), 0.0);
    }
}
