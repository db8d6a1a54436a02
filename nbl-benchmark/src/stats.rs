//! Order statistics used by the reports: medians, nearest-rank
//! percentiles, and the exclusive-method quartiles that the spread
//! checks use (the same rule as Python's `statistics.quantiles(v, n=4)`).

/// Percentiles considered for a tail figure, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorted copy of `values` (total order, so NaN cannot poison the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of a sorted slice: the smallest sample with at
/// least `p`% of the samples at or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The highest of [`TAIL_PERCENTILES`] whose nearest-rank sample still
/// has at least [`TAIL_MIN_BEYOND`] samples above it, with that sample:
/// `(percentile, value)`. `None` when there are too few samples for any.
pub fn highest_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let r = rank(p, n.max(1));
        (n >= 1 && n - r >= TAIL_MIN_BEYOND).then(|| (p, sorted[r - 1]))
    })
}

/// Sum over columns of each column's smallest value: `samples[r][c]` is
/// repetition `r` of unit `c`. `None` without repetitions or when the
/// repetitions disagree on the number of units.
pub fn sum_of_minima(samples: &[Vec<f64>]) -> Option<f64> {
    let units = samples.first()?.len();
    if samples.iter().any(|r| r.len() != units) {
        return None;
    }
    Some(
        (0..units)
            .map(|c| samples.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)` default). `None` with fewer than
/// two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median; `None` with fewer than
/// two samples or a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(18.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(19.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(20.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0), "rank clamps to 1");
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn highest_tail_leaves_ten_samples_beyond() {
        // 20 samples: p50 is rank 10 with 10 beyond; p75 is rank 15 with
        // only 5 beyond, so no tail percentile qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_tail(&v), None);
        // 40 samples: p75 = rank 30 leaves exactly 10 beyond; p90 = rank 36
        // leaves 4.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_tail(&v), Some((75.0, 30.0)));
        // 100 samples: p90 = rank 90 leaves 10; p95 leaves 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 = rank 990 leaves 10; p99.9 leaves 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_tail(&v), Some((99.0, 990.0)));
        assert_eq!(highest_tail(&[]), None);
    }

    #[test]
    fn sum_of_minima_takes_each_units_fastest_repetition() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 0.5],
        ];
        assert_eq!(sum_of_minima(&reps), Some(2.0 + 1.0 + 0.5));
        assert_eq!(sum_of_minima(&reps[..1]), Some(9.0));
        assert_eq!(sum_of_minima(&[]), None);
        assert_eq!(sum_of_minima(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let spread = relative_spread(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
