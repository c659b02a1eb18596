//! Percentiles and medians over measured samples.

/// Fewest samples that must lie beyond a reported percentile: a tail
/// percentile backed by fewer is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which `percentile(_, pct)` is defined.
pub fn min_samples(pct: u32) -> usize {
    let beyond = (100 - pct as usize).max(1);
    (MIN_BEYOND * 100).div_ceil(beyond)
}

/// The `pct`-th percentile of `samples`, linearly interpolated between the
/// two closest ranks (rank `(n − 1)·pct/100`, as numpy's default does).
///
/// # Errors
///
/// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond it,
/// i.e. fewer than `n·(100 − pct)/100 ≥ 10`.
pub fn percentile(samples: &[f64], pct: u32) -> Result<f64, String> {
    assert!(pct < 100, "percentile must be below 100, got {pct}");
    let n = samples.len();
    let beyond = n * (100 - pct as usize) / 100;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} needs at least {} samples ({MIN_BEYOND} beyond it), got {n}",
            min_samples(pct)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (n - 1) as f64 * f64::from(pct) / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of a non-empty sample set, for internal repetitions (set-up
/// passes, replay-cell rounds) whose count is fixed by the benchmark.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn percentiles_are_exact_on_known_vectors() {
        let v = ramp(101); // 0..=100
        assert_eq!(percentile(&v, 50).unwrap(), 50.0);
        assert_eq!(percentile(&v, 90).unwrap(), 90.0);
        let w = ramp(100); // 0..=99: ranks interpolate
        assert_eq!(percentile(&w, 50).unwrap(), 49.5);
        assert!((percentile(&w, 90).unwrap() - 89.1).abs() < 1e-12);
        let constant = vec![7.25; 1_000];
        assert_eq!(percentile(&constant, 99).unwrap(), 7.25);
        let thousand = ramp(1_000);
        assert!((percentile(&thousand, 99).unwrap() - 989.01).abs() < 1e-9);
    }

    #[test]
    fn percentiles_refuse_thin_tails() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1_000);
        assert!(percentile(&ramp(99), 90).is_err());
        assert!(percentile(&ramp(100), 90).is_ok());
        assert!(percentile(&ramp(999), 99).is_err());
        assert!(percentile(&ramp(1_000), 99).is_ok());
        assert!(percentile(&ramp(19), 50).is_err());
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
