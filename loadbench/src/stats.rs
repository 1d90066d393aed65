//! Order statistics for the benchmark's reported figures.
//!
//! Every percentile here is nearest-rank on the sorted sample, so a
//! reported value is always one that was measured. A tail percentile is
//! only reported when at least [`MIN_BEYOND_TAIL`] samples lie beyond
//! it; a run with fewer fails rather than silently reporting a lower
//! percentile.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` for an
/// empty sample. Does not require sorted input.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest-rank p50); `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Number of samples strictly above the nearest-rank position of `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    len - rank.clamp(1, len.max(1)).min(len)
}

/// The tail percentile `p` of `samples`, or an error naming `what` when
/// fewer than [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let n_beyond = beyond(samples.len(), p);
    if n_beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "{what}: p{p} of {} samples has only {n_beyond} beyond it (need {MIN_BEYOND_TAIL}); \
             lengthen the run instead of lowering the percentile",
            samples.len()
        ));
    }
    Ok(percentile(samples, p).expect("non-empty: samples lie beyond the tail"))
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Mean of the samples between the 10th and 90th percentiles (nearest
/// rank): smooth where a lumpy distribution makes the median jump between
/// modes, and robust to the outliers that move a plain mean.
pub fn interdecile_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: the helpers must sort themselves.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_returns_a_measured_value() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0]), Some(3.0));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(15, 33.0), 10);
        assert_eq!(beyond(0, 90.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_refuses_thin_samples_instead_of_lowering_the_percentile() {
        let err = tail(&ramp(15), 90.0, "latency").unwrap_err();
        assert!(err.contains("only 1 beyond"), "{err}");
        assert!(tail(&ramp(99), 90.0, "latency").is_err());
        assert_eq!(tail(&ramp(100), 90.0, "latency"), Ok(90.0));
        assert_eq!(tail(&ramp(1000), 99.0, "latency"), Ok(990.0));
    }

    #[test]
    fn tail_is_never_below_the_median() {
        // Includes heavy ties and skew, where a rank mix-up would show.
        let samples = [
            ramp(200),
            vec![7.0; 300],
            (0..300).map(|i| ((i * 37) % 101) as f64).collect(),
            (0..600)
                .map(|i| if i % 3 == 0 { 1e3 } else { 1.0 })
                .collect(),
        ];
        for s in &samples {
            for p in [90.0, 95.0] {
                let t = tail(s, p, "x").expect("enough samples");
                assert!(t >= median(s).unwrap(), "p{p} {t} below median");
            }
        }
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        // One outlier in twenty is trimmed away.
        let mut s = vec![1.0; 19];
        s.push(1e6);
        assert_eq!(interdecile_mean(&s), Some(1.0));
        assert_eq!(interdecile_mean(&ramp(20)), Some(10.5));
        assert_eq!(interdecile_mean(&[4.0]), Some(4.0));
        assert_eq!(interdecile_mean(&[]), None);
    }
}
