//! Order statistics for the reported timings.

/// Samples sorted ascending (NaNs are not expected; `total_cmp` keeps the
/// sort total anyway).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail value with the percentile it sits at and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample with exactly ten larger ones. With fewer than 21
/// samples that rank falls at or below the median, so the median is
/// reported instead and labelled p50.
pub fn tail(samples: &[f64]) -> Tail {
    tail_beyond(samples, TAIL_BEYOND)
}

/// The sample with exactly `beyond` larger ones, or the median labelled
/// p50 when that rank falls at or below it.
pub fn tail_beyond(samples: &[f64], beyond: usize) -> Tail {
    let n = samples.len();
    if n <= 2 * beyond {
        return Tail {
            value: median(samples),
            percentile: 50.0,
            samples: n,
        };
    }
    let v = sorted(samples);
    Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 89.0);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
    }

    #[test]
    fn tail_beyond_keeps_that_many_samples_beyond() {
        let samples: Vec<f64> = (0..600).map(f64::from).collect();
        let t = tail_beyond(&samples, 20);
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), 20);
        assert_eq!(t.percentile, tail(&samples[..300]).percentile);
    }

    #[test]
    fn tail_of_few_samples_is_the_median() {
        let samples: Vec<f64> = (0..15).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!((t.value, t.percentile, t.samples), (7.0, 50.0, 15));
    }
}
