//! Order statistics and the compare verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this crate prints are the
//! ones a reader recomputes from the raw values with the standard library.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them. A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let q = |i: usize| {
        let (n, m) = (4, ld + 1);
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Interquartile distance as a share of the median (0 when the median is 0).
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Outcome of comparing one metric between a base and a head run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Head wins at least nine tenths of the pairs, and the medians differ
    /// by more than the base's own interquartile distance.
    Improved,
    /// Neither improved nor worse than the bound.
    Unchanged,
    /// Head's median is worse than base's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and not every head
    /// value beats every base value.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the compare table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `head` against `base` for a metric whose allowed worsening is
/// `bound` (a share of base's median). Pairs are `(base[i], head[i])`;
/// ties count for neither side.
///
/// # Panics
/// Panics if either sample is empty.
pub fn verdict(base: &[f64], head: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let better = |h: f64, b: f64| if lower_is_better { h < b } else { h > b };
    let (mb, mh) = (median(base), median(head));
    if spread(base).max(spread(head)) > bound {
        let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = base.len().min(head.len());
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count();
    let (q1, q3) = quartiles(base);
    if 10 * wins >= 9 * pairs && better(mh, mb) && (mh - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let worse = if lower_is_better { mh - mb } else { mb - mh };
    if worse > bound * mb.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_of_a_sample() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spread_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.001 * i as f64)).collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        let base = around(10.0, 10);
        let head = around(8.0, 10);
        assert_eq!(verdict(&base, &head, 0.1, true), Verdict::Improved);
        // The same numbers read as a regression when higher is better.
        assert_eq!(verdict(&base, &head, 0.1, false), Verdict::Regressed);
    }

    #[test]
    fn small_shift_inside_the_bound_is_unchanged() {
        let base = around(10.0, 10);
        let head = around(10.3, 10);
        assert_eq!(verdict(&base, &head, 0.1, true), Verdict::Unchanged);
    }

    #[test]
    fn slowdown_past_the_bound_is_regressed() {
        let base = around(10.0, 10);
        let head = around(11.5, 10);
        assert_eq!(verdict(&base, &head, 0.1, true), Verdict::Regressed);
    }

    #[test]
    fn wins_below_nine_tenths_are_not_an_improvement() {
        let base = around(10.0, 10);
        // Faster median, but three pairs lose: not a claimable gain.
        let mut head = around(9.7, 10);
        for h in head.iter_mut().take(3) {
            *h = 10.5;
        }
        assert_ne!(verdict(&base, &head, 0.1, true), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = vec![8.0, 10.0, 12.0, 9.0, 11.0];
        let head = vec![9.0, 11.0, 13.0, 10.0, 12.0];
        assert_eq!(verdict(&base, &head, 0.1, true), Verdict::Unresolved);
        // ...unless every head value beats every base value.
        let head = vec![5.0, 6.0, 7.0, 5.5, 6.5];
        assert_eq!(verdict(&base, &head, 0.1, true), Verdict::Improved);
    }

    #[test]
    fn identical_samples_are_unchanged_even_with_a_zero_bound() {
        let v = vec![3.0; 5];
        assert_eq!(verdict(&v, &v, 0.0, true), Verdict::Unchanged);
        let worse = vec![3.0001; 5];
        assert_eq!(verdict(&v, &worse, 0.0, true), Verdict::Regressed);
    }
}
