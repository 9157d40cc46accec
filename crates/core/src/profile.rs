//! Profiling: cluster access statistics and latency curves.
//!
//! VectorLiteRAG's offline stage (paper §IV-A1) collects, from calibration
//! queries: (1) the cluster access frequency distribution, (2) the CPU
//! search latency breakdown across batch sizes. [`AccessProfile`] is the
//! first; [`PerfModel`](crate::PerfModel) is fit from the second.
//!
//! The profile also owns the coverage bookkeeping every later stage needs:
//! clusters sorted by access count with prefix sums of accesses, sizes and
//! bytes, so `coverage → (mean hit rate, hot set, resident bytes)` are all
//! O(1)/O(k) lookups.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vlite_workload::{ClusterWorkload, DatasetPreset};

/// Per-cluster access statistics plus cluster geometry (sizes/bytes).
///
/// # Examples
///
/// ```
/// use vlite_core::AccessProfile;
/// use vlite_workload::DatasetPreset;
///
/// let preset = DatasetPreset::tiny();
/// let wl = preset.workload(7);
/// let profile = AccessProfile::from_workload(&preset, &wl, 2_000, 7);
/// let eta = profile.mean_hit_rate(0.2);
/// assert!(eta > 0.2 && eta <= 1.0); // skew ⇒ top-20% covers more than 20%
/// ```
#[derive(Debug, Clone)]
pub struct AccessProfile {
    nlist: usize,
    /// Access count per cluster (cluster id order).
    counts: Vec<u64>,
    /// Vector count per cluster (cluster id order).
    sizes: Vec<u64>,
    /// Index bytes per cluster (cluster id order).
    bytes: Vec<u64>,
    /// Cluster ids sorted by access count descending (ties by id).
    order: Vec<u32>,
    /// Prefix sums over `order` of counts / sizes / bytes.
    prefix_counts: Vec<u64>,
    prefix_bytes: Vec<u64>,
    /// Sample of per-query probe sets kept for variance estimation.
    probe_sets: Vec<Vec<u32>>,
}

impl AccessProfile {
    /// Profiles a modeled-tier workload with `n_queries` calibration
    /// queries (paper: 0.5% of the training set sufficed, §IV-B3).
    pub fn from_workload(
        preset: &DatasetPreset,
        workload: &ClusterWorkload,
        n_queries: usize,
        seed: u64,
    ) -> AccessProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0u64; workload.nlist()];
        let keep = n_queries.min(4096);
        let mut probe_sets = Vec::with_capacity(keep);
        for q in 0..n_queries {
            let probes = workload.gen_probe_set(&mut rng);
            for &c in &probes {
                counts[c as usize] += 1;
            }
            // Keep an evenly spaced sample of probe sets for variance fits.
            if q % n_queries.div_ceil(keep).max(1) == 0 {
                probe_sets.push(probes);
            }
        }
        let sizes = preset.cluster_sizes(workload);
        let bytes = preset.cluster_bytes(workload);
        Self::from_parts(counts, sizes, bytes, probe_sets)
    }

    /// Builds a profile from raw observations — the real-tier path, where
    /// counts and probe sets come from [`IvfIndex::probe`] on calibration
    /// queries and sizes/bytes from the index itself.
    ///
    /// [`IvfIndex::probe`]: vlite_ann::IvfIndex::probe
    ///
    /// # Panics
    ///
    /// Panics if the per-cluster arrays disagree in length.
    pub fn from_parts(
        counts: Vec<u64>,
        sizes: Vec<u64>,
        bytes: Vec<u64>,
        probe_sets: Vec<Vec<u32>>,
    ) -> AccessProfile {
        assert_eq!(counts.len(), sizes.len(), "counts/sizes length mismatch");
        assert_eq!(counts.len(), bytes.len(), "counts/bytes length mismatch");
        let nlist = counts.len();
        let mut order: Vec<u32> = (0..nlist as u32).collect();
        order.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
        let mut prefix_counts = Vec::with_capacity(nlist);
        let mut prefix_bytes = Vec::with_capacity(nlist);
        let (mut ca, mut by) = (0u64, 0u64);
        for &c in &order {
            ca += counts[c as usize];
            by += bytes[c as usize];
            prefix_counts.push(ca);
            prefix_bytes.push(by);
        }
        AccessProfile {
            nlist,
            counts,
            sizes,
            bytes,
            order,
            prefix_counts,
            prefix_bytes,
            probe_sets,
        }
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Access count of one cluster.
    pub fn count(&self, cluster: u32) -> u64 {
        self.counts[cluster as usize]
    }

    /// Vector count per cluster, in cluster id order.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Index bytes per cluster, in cluster id order.
    pub fn cluster_bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// Total index bytes.
    pub fn total_bytes(&self) -> u64 {
        *self.prefix_bytes.last().unwrap_or(&0)
    }

    /// The retained sample of per-query probe sets.
    pub fn probe_sets(&self) -> &[Vec<u32>] {
        &self.probe_sets
    }

    fn hot_len(&self, coverage: f64) -> usize {
        ((self.nlist as f64 * coverage.clamp(0.0, 1.0)).round() as usize).min(self.nlist)
    }

    /// The hot set at `coverage`: top clusters by access count.
    pub fn hot_set(&self, coverage: f64) -> Vec<u32> {
        self.order[..self.hot_len(coverage)].to_vec()
    }

    /// Membership mask of the hot set at `coverage`.
    pub fn hot_mask(&self, coverage: f64) -> Vec<bool> {
        let mut mask = vec![false; self.nlist];
        for &c in &self.order[..self.hot_len(coverage)] {
            mask[c as usize] = true;
        }
        mask
    }

    /// Mean hit rate at `coverage`: the fraction of observed accesses that
    /// land on the hot set.
    pub fn mean_hit_rate(&self, coverage: f64) -> f64 {
        let k = self.hot_len(coverage);
        if k == 0 {
            return 0.0;
        }
        let total = *self.prefix_counts.last().expect("nlist > 0");
        if total == 0 {
            return 0.0;
        }
        self.prefix_counts[k - 1] as f64 / total as f64
    }

    /// GPU-resident index bytes at `coverage`.
    pub fn bytes_at(&self, coverage: f64) -> u64 {
        let k = self.hot_len(coverage);
        if k == 0 {
            0
        } else {
            self.prefix_bytes[k - 1]
        }
    }

    /// Per-query hit rates of the retained probe-set sample against the
    /// hot set at `coverage`.
    pub fn hit_rate_samples(&self, coverage: f64) -> Vec<f64> {
        let mask = self.hot_mask(coverage);
        self.probe_sets
            .iter()
            .map(|probes| {
                let hits = probes.iter().filter(|&&c| mask[c as usize]).count();
                hits as f64 / probes.len().max(1) as f64
            })
            .collect()
    }

    /// Empirical (mean, variance) of per-query hit rates at `coverage`.
    pub fn hit_rate_moments(&self, coverage: f64) -> (f64, f64) {
        let samples = self.hit_rate_samples(coverage);
        if samples.is_empty() {
            return (self.mean_hit_rate(coverage), 0.0);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        (mean, var)
    }

    /// Fits `σ²_max`, the hit-rate variance at mean 0.5, by scanning
    /// coverages and taking the variance at the coverage whose mean is
    /// closest to 0.5 (the paper's profiling recipe, §IV-A2). Clamped below
    /// 0.25 so the Beta moment fit stays feasible.
    pub fn fit_sigma2_max(&self) -> f64 {
        let mut best = (f64::INFINITY, 0.01);
        for step in 1..=60 {
            let coverage = step as f64 / 60.0;
            let (mean, var) = self.hit_rate_moments(coverage);
            let gap = (mean - 0.5).abs();
            if gap < best.0 && var > 0.0 {
                best = (gap, var);
            }
        }
        best.1.clamp(1e-6, 0.24)
    }

    /// Access shares sorted descending (Fig. 5's CDF input).
    pub fn access_shares_sorted(&self) -> Vec<f64> {
        let total = (*self.prefix_counts.last().expect("nlist > 0")).max(1) as f64;
        self.order
            .iter()
            .map(|&c| self.counts[c as usize] as f64 / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> AccessProfile {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(3);
        AccessProfile::from_workload(&preset, &wl, 3000, 3)
    }

    #[test]
    fn mean_hit_rate_is_monotone_and_bounded() {
        let p = tiny_profile();
        let mut prev = 0.0;
        for step in 0..=20 {
            let cov = step as f64 / 20.0;
            let eta = p.mean_hit_rate(cov);
            assert!((0.0..=1.0).contains(&eta));
            assert!(eta >= prev);
            prev = eta;
        }
        assert_eq!(p.mean_hit_rate(1.0), 1.0);
        assert_eq!(p.mean_hit_rate(0.0), 0.0);
    }

    #[test]
    fn skew_means_top_20_exceeds_20_percent() {
        let p = tiny_profile();
        // Tiny preset calibrates to 0.80 top-20% share.
        let eta = p.mean_hit_rate(0.2);
        assert!((eta - 0.8).abs() < 0.05, "eta={eta}");
    }

    #[test]
    fn bytes_at_is_monotone_and_totals() {
        let p = tiny_profile();
        assert_eq!(p.bytes_at(0.0), 0);
        assert!(p.bytes_at(0.3) > p.bytes_at(0.1));
        assert_eq!(p.bytes_at(1.0), p.total_bytes());
    }

    #[test]
    fn hot_set_holds_most_accessed_clusters() {
        let p = tiny_profile();
        let hot = p.hot_set(0.1);
        let min_hot = hot.iter().map(|&c| p.count(c)).min().unwrap();
        let cold_max = (0..p.nlist() as u32)
            .filter(|c| !hot.contains(c))
            .map(|c| p.count(c))
            .max()
            .unwrap();
        assert!(min_hot >= cold_max);
    }

    #[test]
    fn hit_rate_variance_peaks_near_half_mean() {
        // Paper Fig. 8 right: parabola in the mean.
        let p = tiny_profile();
        let (m_low, v_low) = p.hit_rate_moments(0.02);
        let mut v_mid = 0.0f64;
        for step in 1..=40 {
            let (m, v) = p.hit_rate_moments(step as f64 / 40.0);
            if (m - 0.5).abs() < 0.15 {
                v_mid = v_mid.max(v);
            }
        }
        assert!(
            v_mid > v_low,
            "variance at mean≈0.5 ({v_mid}) ≤ variance at mean≈{m_low} ({v_low})"
        );
    }

    #[test]
    fn sigma2_max_is_feasible_for_beta_fit() {
        let p = tiny_profile();
        let s = p.fit_sigma2_max();
        assert!(s > 0.0 && s < 0.25);
    }

    #[test]
    fn probe_set_sample_is_retained() {
        let p = tiny_profile();
        assert!(!p.probe_sets().is_empty());
        assert!(p.probe_sets().len() <= 4096);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_parts_rejected() {
        AccessProfile::from_parts(vec![1, 2], vec![1], vec![1, 1], vec![]);
    }
}
