//! Order statistics and the parent-versus-change verdict of
//! `gw-benchmark compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so numbers printed here match the ones
//! Python computes from the same samples.

use crate::metrics::Better;

/// Median of `values` (mean of the two middle values for an even count).
/// `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, as `statistics.quantiles(values,
/// n=4)` computes them. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest percentile worth reporting for `n` samples: the largest
/// of 99.9, 99, 95, 90, 75 and 50 that still has at least ten samples
/// beyond it. `None` when even the median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Interquartile range as a share of the median (the run-to-run
/// spread the benchmark's bounds are set against).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Fraction of index-aligned pairs `(a[i], b[i])` in which `b` is
/// better than `a`. Ties count for neither side but stay in the
/// denominator.
pub fn win_fraction(a: &[f64], b: &[f64], better: Better) -> f64 {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| better.is_better(**y, **x))
        .count();
    wins as f64 / pairs as f64
}

/// What a change did to one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread exceeds the bound, so "unchanged" cannot be
    /// told apart from a regression hidden in the noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain may be claimed.
pub const MIN_PAIRS: usize = 10;

/// Win fraction a gain needs.
pub const WIN_FRACTION: f64 = 0.9;

/// Compares the parent's samples `a` with the change's samples `b`:
///
/// - *unresolved* when either side's spread (IQR over median) exceeds
///   `bound`, unless every run of `b` is better than every run of `a`;
/// - *better* when there are at least [`MIN_PAIRS`] pairs, `b` wins at
///   least [`WIN_FRACTION`] of them and the medians differ, in `b`'s
///   favour, by more than `a`'s interquartile range;
/// - *worse* when `b`'s median is worse than `a`'s by more than `bound`
///   (as a share of `a`'s median);
/// - *unchanged* otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let all_better = a.iter().all(|x| b.iter().all(|y| better.is_better(*y, *x)));
    if (relative_spread(a) > bound || relative_spread(b) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let [q1, _, q3] = quartiles(a);
    if a.len().min(b.len()) >= MIN_PAIRS
        && win_fraction(a, b, better) >= WIN_FRACTION
        && better.is_better(mb, ma)
        && (mb - ma).abs() > q3 - q1
    {
        return Verdict::Better;
    }
    if better.is_better(ma, mb) && (mb - ma).abs() > bound * ma.abs() {
        return Verdict::Worse;
    }
    Verdict::Unchanged
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&v);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        // Two samples extrapolate: quantiles([1, 3]) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert!(close(percentile(&v, 90.0), 9.0));
        assert!(close(percentile(&v, 95.0), 9.5));
        assert!(close(percentile(&v, 0.0), 0.0));
        assert!(close(percentile(&v, 100.0), 10.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // The paper sweep's 104 distinct cells: p90 has 10.4 beyond it.
        assert_eq!(tail_percentile(104), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn win_fraction_counts_ties_for_neither_side() {
        let a = [10.0, 10.0, 10.0, 10.0];
        let b = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(win_fraction(&a, &b, Better::Lower), 0.5);
        assert_eq!(win_fraction(&a, &b, Better::Higher), 0.25);
        // Unequal lengths pair up to the shorter side.
        assert_eq!(win_fraction(&a[..2], &b, Better::Lower), 0.5);
        assert_eq!(win_fraction(&[], &b, Better::Lower), 0.0);
    }

    fn spread_of(base: f64, k: usize, step: f64) -> Vec<f64> {
        (0..k).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_is_better_and_clear_loss_is_worse() {
        let parent = spread_of(100.0, 10, 0.2);
        let change = spread_of(80.0, 10, 0.2);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&change, &parent, Better::Lower, 0.1),
            Verdict::Worse
        );
        // The same numbers read as throughput flip direction.
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn small_shift_within_bound_is_unchanged() {
        let parent = spread_of(100.0, 10, 0.2);
        let change = spread_of(103.0, 10, 0.2);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_needs_ten_pairs() {
        let parent = spread_of(100.0, 5, 0.2);
        let change = spread_of(80.0, 5, 0.2);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        // IQR/median ≈ 0.45 > bound 0.1.
        let noisy = spread_of(60.0, 10, 10.0);
        let similar = spread_of(62.0, 10, 10.0);
        assert_eq!(
            verdict(&noisy, &similar, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent: the
        // noise cannot explain it, so the verdict stands.
        let far_better = spread_of(1.0, 10, 0.5);
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, 0.1),
            Verdict::Better
        );
    }
}
