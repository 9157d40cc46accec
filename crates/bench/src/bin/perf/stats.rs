//! The one percentile function every reported number goes through, plus
//! the small summaries built on it.

/// Samples that must lie beyond a percentile before it is reported: a
/// tail estimated from fewer is mostly the luck of one run.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut values: Vec<f64>) -> Sorted {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Sorted(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn max(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile `q` in `(0, 1)`, whatever the sample count;
    /// 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly beyond the nearest-rank `q`.
    pub fn beyond(&self, q: f64) -> usize {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0.len() - rank.clamp(1, self.0.len())
    }

    /// The tail percentile `q`, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        (self.beyond(q) >= MIN_BEYOND).then(|| self.quantile(q))
    }
}

pub fn median_of(values: &[f64]) -> f64 {
    Sorted::new(values.to_vec()).median()
}

/// `(max − min) / median` of a handful of repetition values; 0 when the
/// median is 0.
pub fn spread_of(values: &[f64]) -> f64 {
    let sorted = Sorted::new(values.to_vec());
    let median = sorted.median();
    if sorted.is_empty() || median == 0.0 {
        return 0.0;
    }
    (sorted.max() - sorted.0[0]) / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sorted {
        Sorted::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        assert_eq!(Sorted::default().quantile(0.5), 0.0);
        assert_eq!(ramp(1).quantile(0.99), 1.0);
        assert_eq!(ramp(4).median(), 2.0);
        assert_eq!(ramp(5).median(), 3.0);
        assert_eq!(ramp(100).quantile(0.99), 99.0);
        assert_eq!(ramp(100).quantile(0.999), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1 000 samples has exactly ten beyond it; of 999, nine.
        assert_eq!(ramp(1000).beyond(0.99), 10);
        assert_eq!(ramp(1000).tail(0.99), Some(990.0));
        assert_eq!(ramp(999).beyond(0.99), 9);
        assert_eq!(ramp(999).tail(0.99), None);
        assert_eq!(ramp(10_000).tail(0.999), Some(9990.0));
        assert_eq!(ramp(9_999).tail(0.999), None);
        assert_eq!(Sorted::default().tail(0.5), None);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let s = Sorted::new(vec![f64::NAN, 2.0, f64::INFINITY, 1.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max(), 2.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_of(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread_of(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread_of(&[]), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
