//! Sample summaries: named percentiles that refuse to be computed from
//! too few samples, medians and means.

/// A percentile level in per-mille (`500` is the median, `990` p99).
pub type Permille = u32;

/// The levels a report may name, lowest first.
pub const LEVELS: [Permille; 4] = [500, 900, 990, 999];

/// Samples needed so that at least ten lie beyond `level`:
/// p50 needs 20, p90 100, p99 1000, p99.9 10000.
#[must_use]
pub fn required_samples(level: Permille) -> usize {
    assert!(level < 1000, "percentile level {level} must be below 1000");
    (10_000 / (1000 - level)) as usize
}

/// The label of a level: `p50`, `p90`, `p99`, `p99.9`.
#[must_use]
pub fn label(level: Permille) -> String {
    if level.is_multiple_of(10) {
        format!("p{}", level / 10)
    } else {
        format!("p{}.{}", level / 10, level % 10)
    }
}

/// The highest of [`LEVELS`] with at least ten of `n` samples beyond it.
#[must_use]
pub fn highest_level(n: usize) -> Option<Permille> {
    LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&level| n >= required_samples(level))
}

/// Nearest-rank percentile of `samples` at `level`.
///
/// # Errors
///
/// Fails when there are too few samples for ten to lie beyond the level:
/// a short run must not pass off a lower percentile under this name.
pub fn percentile(samples: &[f64], level: Permille) -> Result<f64, String> {
    let need = required_samples(level);
    if samples.len() < need {
        return Err(format!(
            "{} needs at least {need} samples, the run produced {}",
            label(level),
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (level as usize * sorted.len()).div_ceil(1000);
    Ok(sorted[rank.max(1) - 1])
}

/// Median of any non-empty sample (no minimum count: used for repeated
/// set-up and per-layer figures, never for a named end-to-end
/// percentile).
#[must_use]
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

/// Mean of the samples left after dropping the lowest and the highest
/// tenth. Unlike a median, it moves smoothly with the share of samples a
/// fast or slow spell of the host contributed, and unlike a plain mean
/// it ignores the tail.
#[must_use]
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "trimmed mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n in scrambled order, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn required_samples_leave_ten_beyond() {
        assert_eq!(required_samples(500), 20);
        assert_eq!(required_samples(900), 100);
        assert_eq!(required_samples(990), 1000);
        assert_eq!(required_samples(999), 10_000);
    }

    #[test]
    fn labels() {
        assert_eq!(label(500), "p50");
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn highest_level_follows_the_sample_count() {
        assert_eq!(highest_level(19), None);
        assert_eq!(highest_level(20), Some(500));
        assert_eq!(highest_level(99), Some(500));
        assert_eq!(highest_level(100), Some(900));
        assert_eq!(highest_level(999), Some(900));
        assert_eq!(highest_level(1000), Some(990));
        assert_eq!(highest_level(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 500).unwrap(), 500.0);
        assert_eq!(percentile(&s, 900).unwrap(), 900.0);
        assert_eq!(percentile(&s, 990).unwrap(), 990.0);
        // Ten samples lie beyond p99 of 1000: 991..=1000.
        assert_eq!(s.iter().filter(|&&v| v > 990.0).count(), 10);
        let s = ramp(101);
        assert_eq!(percentile(&s, 900).unwrap(), 91.0);
    }

    #[test]
    fn too_few_samples_fail_instead_of_falling_back() {
        let err = percentile(&ramp(999), 990).unwrap_err();
        assert!(err.contains("p99 needs at least 1000"), "{err}");
        assert!(percentile(&ramp(99), 900).is_err());
        assert!(percentile(&ramp(19), 500).is_err());
        assert!(percentile(&[], 500).is_err());
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let mut s: Vec<f64> = (1..=18).map(f64::from).collect();
        s.push(1000.0);
        s.push(-1000.0);
        // 20 samples: the lowest two and highest two go.
        assert_eq!(
            trimmed_mean(&s),
            (2..=17).map(f64::from).sum::<f64>() / 16.0
        );
        assert_eq!(trimmed_mean(&[4.0]), 4.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
