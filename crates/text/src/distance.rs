//! The bounded edit distance ontology normalization matches concept
//! names with.

/// Levenshtein distance over Unicode scalar values with an early-exit
/// bound: returns `None` when the distance certainly exceeds `max`.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    // Shared prefixes and suffixes never change the distance; stripping
    // them shrinks the DP table (typo corrections share most characters).
    let prefix = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    if a.is_empty() {
        return (b.len() <= max).then_some(b.len());
    }
    if b.is_empty() {
        return (a.len() <= max).then_some(a.len());
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[b.len()];
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Levenshtein edit distance with the classic two-row dynamic
    /// program, over Unicode scalar values: the oracle
    /// [`levenshtein_bounded`] is checked against.
    fn levenshtein(a: &str, b: &str) -> usize {
        let a_chars: Vec<char> = a.chars().collect();
        let b_chars: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b_chars.len()).collect();
        let mut cur = vec![0usize; b_chars.len() + 1];
        for (i, ca) in a_chars.iter().enumerate() {
            cur[0] = i + 1;
            for (j, cb) in b_chars.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b_chars.len()]
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("fièvre", "fievre"), 1);
    }

    #[test]
    fn bounded_matches_exact_within_limit() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("abc", "abd", 1), Some(1));
    }

    #[test]
    fn bounded_short_circuits_on_length() {
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 2), None);
    }

    #[test]
    fn bounded_agrees_with_the_exact_distance() {
        let pairs = [
            ("kitten", "sitting"),
            ("fever", "fevr"),
            ("amiodarone", "amiodarona"),
            ("", "ab"),
            ("abc", ""),
            ("same", "same"),
            ("aaa", "aa"),
            ("fièvre", "fievre"),
            ("flaw", "lawn"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein(a, b);
            assert_eq!(exact, levenshtein(b, a), "{a:?} vs {b:?} is symmetric");
            for max in 0..4 {
                let want = (exact <= max).then_some(exact);
                assert_eq!(
                    levenshtein_bounded(a, b, max),
                    want,
                    "{a:?} vs {b:?} max {max}"
                );
                assert_eq!(
                    levenshtein_bounded(b, a, max),
                    want,
                    "{b:?} vs {a:?} max {max}"
                );
            }
        }
    }
}
