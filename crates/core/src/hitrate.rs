//! Tail-query hit-rate estimation (paper §IV-A2).
//!
//! Within a batch the *slowest* query bounds completion, and the slowest
//! query is the one with the fewest cached probes. The estimator therefore
//! models per-query hit rates as `Beta(α, β)` with method-of-moments
//! parameters, using the variance approximation
//! `σ² ≈ 4·σ²_max·η̄(1−η̄)` (validated in paper Fig. 8 right), and computes
//! the batch-minimum expectation by order statistics. Inverting the chain
//! `coverage → mean → Beta → E[η_min]` yields `HitRate2Coverage`, the
//! subroutine at the heart of the partitioning algorithm.

use crate::stats::{expected_batch_min, BetaDist};
use crate::AccessProfile;

/// Estimator mapping cache coverage to expected batch-minimum hit rates.
///
/// # Examples
///
/// ```
/// use vlite_core::{AccessProfile, HitRateEstimator};
/// use vlite_workload::DatasetPreset;
///
/// let preset = DatasetPreset::tiny();
/// let wl = preset.workload(5);
/// let profile = AccessProfile::from_workload(&preset, &wl, 2_000, 5);
/// let est = HitRateEstimator::from_profile(&profile);
/// // A batch's minimum is below the (single-query) mean.
/// assert!(est.eta_min(0.3, 8) <= est.mean_hit_rate(0.3) + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct HitRateEstimator {
    /// Monotone `coverage → mean hit rate` table (per-mille resolution).
    coverage_to_mean: Vec<f64>,
    sigma2_max: f64,
}

impl HitRateEstimator {
    /// Builds the estimator from a profiled access distribution, fitting
    /// `σ²_max` from the retained probe-set sample.
    pub fn from_profile(profile: &AccessProfile) -> HitRateEstimator {
        Self::with_sigma2_max(profile, profile.fit_sigma2_max())
    }

    /// Builds the estimator with an explicit `σ²_max`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < σ²_max < 0.25` (the Beta-feasible range).
    pub fn with_sigma2_max(profile: &AccessProfile, sigma2_max: f64) -> HitRateEstimator {
        assert!(
            sigma2_max > 0.0 && sigma2_max < 0.25,
            "sigma2_max must be in (0, 0.25), got {sigma2_max}"
        );
        const STEPS: usize = 1000;
        let coverage_to_mean = (0..=STEPS)
            .map(|i| profile.mean_hit_rate(i as f64 / STEPS as f64))
            .collect();
        HitRateEstimator {
            coverage_to_mean,
            sigma2_max,
        }
    }

    /// The fitted peak hit-rate variance.
    pub fn sigma2_max(&self) -> f64 {
        self.sigma2_max
    }

    /// Mean hit rate at `coverage` (interpolated from the profile).
    pub fn mean_hit_rate(&self, coverage: f64) -> f64 {
        let steps = self.coverage_to_mean.len() - 1;
        let x = coverage.clamp(0.0, 1.0) * steps as f64;
        let lo = x.floor() as usize;
        let hi = (lo + 1).min(steps);
        let frac = x - lo as f64;
        self.coverage_to_mean[lo] * (1.0 - frac) + self.coverage_to_mean[hi] * frac
    }

    /// The Beta distribution of per-query hit rates at `coverage` under the
    /// paper's variance model, or `None` at degenerate means (≈0 or ≈1).
    pub fn beta_at(&self, coverage: f64) -> Option<BetaDist> {
        let mean = self.mean_hit_rate(coverage);
        if !(1e-6..=1.0 - 1e-6).contains(&mean) {
            return None;
        }
        let var = 4.0 * self.sigma2_max * mean * (1.0 - mean);
        BetaDist::from_mean_variance(mean, var)
    }

    /// Expected minimum hit rate in a batch of `batch` queries at
    /// `coverage` — paper Eq. 2.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn eta_min(&self, coverage: f64, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be >= 1");
        match self.beta_at(coverage) {
            Some(dist) => expected_batch_min(&dist, batch),
            // Degenerate mean: no variance left to model.
            None => self.mean_hit_rate(coverage),
        }
    }

    /// `HitRate2Coverage` (paper §IV-A2): the smallest coverage whose
    /// expected batch-minimum hit rate reaches `eta_target` for batches of
    /// `batch`. Targets at or below zero need no cache; unreachable targets
    /// saturate to 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn hit_rate_to_coverage(&self, eta_target: f64, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be >= 1");
        if eta_target <= 0.0 {
            return 0.0;
        }
        if self.eta_min(1.0, batch) < eta_target {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.eta_min(mid, batch) >= eta_target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_workload::DatasetPreset;

    fn estimator() -> HitRateEstimator {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(5);
        let profile = AccessProfile::from_workload(&preset, &wl, 3000, 5);
        HitRateEstimator::from_profile(&profile)
    }

    #[test]
    fn eta_min_decreases_with_batch_size() {
        let est = estimator();
        let cov = 0.25;
        let mut prev = 1.0;
        for batch in [1usize, 2, 4, 8, 16] {
            let eta = est.eta_min(cov, batch);
            assert!(eta <= prev + 1e-12, "batch={batch}");
            prev = eta;
        }
    }

    #[test]
    fn eta_min_increases_with_coverage() {
        let est = estimator();
        let batch = 8;
        let mut prev: f64 = 0.0;
        for step in 1..=10 {
            let eta = est.eta_min(step as f64 / 10.0, batch);
            assert!(eta >= prev - 1e-6, "coverage step {step}: {eta} < {prev}");
            prev = prev.max(eta);
        }
    }

    #[test]
    fn eta_min_at_batch_one_is_the_mean() {
        let est = estimator();
        for &cov in &[0.1, 0.3, 0.6] {
            // E[min of 1 draw] = E[X] = mean; tolerance covers the Simpson
            // grid error at near-singular Beta shapes (α < 1).
            let diff = (est.eta_min(cov, 1) - est.mean_hit_rate(cov)).abs();
            assert!(diff < 2e-3, "cov={cov} diff={diff}");
        }
    }

    #[test]
    fn inversion_round_trips() {
        let est = estimator();
        for &cov in &[0.15, 0.3, 0.5] {
            for &batch in &[2usize, 8] {
                let eta = est.eta_min(cov, batch);
                let back = est.hit_rate_to_coverage(eta, batch);
                // The found coverage must reproduce at least the target η.
                assert!(
                    est.eta_min(back, batch) >= eta - 1e-6,
                    "cov={cov} batch={batch} back={back}"
                );
                assert!(back <= cov + 0.02, "inversion overshot: {back} vs {cov}");
            }
        }
    }

    #[test]
    fn trivial_and_unreachable_targets() {
        let est = estimator();
        assert_eq!(est.hit_rate_to_coverage(0.0, 4), 0.0);
        assert_eq!(est.hit_rate_to_coverage(-1.0, 4), 0.0);
        assert_eq!(est.hit_rate_to_coverage(1.5, 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma2_max")]
    fn invalid_sigma_rejected() {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(5);
        let profile = AccessProfile::from_workload(&preset, &wl, 500, 5);
        HitRateEstimator::with_sigma2_max(&profile, 0.3);
    }
}
