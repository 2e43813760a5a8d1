//! Order statistics for timings: medians and the tail percentile the
//! benchmark is allowed to report at a given sample count.

/// Samples that must lie beyond a percentile before it is reported.
const MIN_TAIL_SAMPLES: usize = 10;

/// The percentiles the benchmark may report, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The median of `values` (mean of the middle pair for an even count), or
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `values`: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// The highest percentile of the ladder (99.9, 99, 90, 50) that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond its nearest-rank sample when
/// `n` samples were taken; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_TAIL_SAMPLES)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Rounded first so that 90% of 100 is rank 90, not 91 after the
    // binary fraction of 0.9 spills over.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // Rank of p50 at 20 samples is 10, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // Rank of p90 at 100 samples is 90: ten samples beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
