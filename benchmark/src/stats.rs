//! Order statistics over small samples.

/// Nearest-rank percentile (`0 < p <= 100`): the smallest sample such that
/// at least `p` percent of the samples are no larger. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty() && p > 0.0 && p <= 100.0);
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 91.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut v, 0.1), 1.0);
        assert_eq!(percentile(&mut [7.0], 90.0), 7.0);
        // 105 samples: p90 is the 95th, leaving ten beyond it.
        let mut pool: Vec<f64> = (1..=105).map(f64::from).collect();
        assert_eq!(percentile(&mut pool, 90.0), 95.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
