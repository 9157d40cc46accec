//! Cluster-level access workload: the "semantic ring" model.
//!
//! A query against an IVF index probes `nprobe` clusters that are
//! *semantically close to each other* — not an independent sample. This
//! module models that with a ring of clusters whose popularity descends with
//! ring position: a query draws an anchor cluster (popularity-weighted),
//! places a window of `nprobe` consecutive ring positions over it at a
//! uniform offset, and probes exactly that window.
//!
//! Consequences, matching the paper's observations:
//!
//! - cluster access frequency is skewed (Fig. 5) and calibratable;
//! - a query's probes are correlated, so per-query cache hit rates have
//!   high variance across queries (Fig. 6) — anchor in the hot region ⇒
//!   η ≈ 1, anchor at the hot/cold boundary ⇒ η ≈ 0.5, cold ⇒ η ≈ 0;
//! - hit-rate variance peaks at mean ≈ 0.5 (Fig. 8 right), the property the
//!   Beta approximation exploits.

use rand::Rng;

use crate::ZipfSampler;

/// A calibrated cluster access workload over `nlist` clusters.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use vlite_workload::ClusterWorkload;
///
/// // ORCAS-like skew: top 20% of clusters take 93% of accesses.
/// let wl = ClusterWorkload::calibrate(2048, 128, 0.93, 1);
/// let share = wl.top_fraction_share(0.2);
/// assert!((share - 0.93).abs() < 0.02);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let probes = wl.gen_probe_set(&mut rng);
/// assert!(!probes.is_empty() && probes.len() <= 128);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    nlist: usize,
    nprobe: usize,
    /// Sub-windows per probe set: a query's probes split across this many
    /// popularity-anchored windows (queries touch several semantic
    /// regions). More windows ⇒ lower inter-query hit-rate variance.
    n_windows: usize,
    /// Anchor-draw popularity per ring position (descending, sums to 1).
    popularity: Vec<f64>,
    /// Cumulative popularity for anchor sampling.
    cum: Vec<f64>,
    /// Expected per-cluster access share (triangular smoothing of
    /// popularity by the probe sub-window), sums to 1.
    access: Vec<f64>,
    /// The Zipf exponent used to build `popularity`.
    exponent: f64,
}

/// Default sub-windows per query; calibrated so the peak hit-rate variance
/// σ²_max lands near the paper's profiled magnitude (Fig. 8 right) instead
/// of the fully bimodal single-window extreme.
const DEFAULT_WINDOWS: usize = 4;

impl ClusterWorkload {
    /// Builds a workload with an explicit Zipf exponent.
    ///
    /// # Panics
    ///
    /// Panics if `nprobe` is zero or exceeds `nlist`.
    pub fn new(nlist: usize, nprobe: usize, exponent: f64, _seed: u64) -> Self {
        assert!(nprobe > 0 && nprobe <= nlist, "need 0 < nprobe <= nlist");
        let n_windows = DEFAULT_WINDOWS.min(nprobe);
        let popularity = ZipfSampler::weights(nlist, exponent);
        let mut cum = Vec::with_capacity(nlist);
        let mut acc = 0.0;
        for &p in &popularity {
            acc += p;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let access = expected_access(&popularity, nprobe.div_ceil(n_windows));
        Self {
            nlist,
            nprobe,
            n_windows,
            popularity,
            cum,
            access,
            exponent,
        }
    }

    /// Finds the Zipf exponent whose *access* distribution gives the top
    /// 20% of clusters a `top20_target` share, then builds that workload.
    ///
    /// The paper's calibration points: Wiki-All ⇒ 0.59, ORCAS ⇒ 0.93
    /// (Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if `top20_target` is not in `(0.2, 1.0)` — a share of exactly
    /// 0.2 is the uniform baseline and 1.0 is unreachable.
    pub fn calibrate(nlist: usize, nprobe: usize, top20_target: f64, seed: u64) -> Self {
        assert!(
            top20_target > 0.2 && top20_target < 1.0,
            "top-20% share must be in (0.2, 1.0), got {top20_target}"
        );
        let (mut lo, mut hi) = (0.0f64, 8.0f64);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            let share = Self::new(nlist, nprobe, mid, seed).top_fraction_share(0.2);
            if share < top20_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Self::new(nlist, nprobe, 0.5 * (lo + hi), seed)
    }

    /// Number of clusters.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Probes per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// The calibrated Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Anchor-draw popularity per ring position (sums to 1).
    pub fn popularity(&self) -> &[f64] {
        &self.popularity
    }

    /// Returns a drifted copy of this workload: the popularity ring rotated
    /// by `offset` positions, i.e. the hot region migrates to previously
    /// cold clusters. Models the query-distribution drift the adaptive
    /// runtime update reacts to (paper §IV-B3).
    pub fn rotated(&self, offset: usize) -> ClusterWorkload {
        let n = self.nlist;
        let mut popularity = vec![0.0f64; n];
        for (i, &p) in self.popularity.iter().enumerate() {
            popularity[(i + offset) % n] = p;
        }
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &p in &popularity {
            acc += p;
            cum.push(acc);
        }
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        let access = expected_access(&popularity, self.nprobe.div_ceil(self.n_windows));
        ClusterWorkload {
            nlist: n,
            nprobe: self.nprobe,
            n_windows: self.n_windows,
            popularity,
            cum,
            access,
            exponent: self.exponent,
        }
    }

    /// Expected access share per cluster in ring order (sums to 1).
    pub fn access_shares(&self) -> &[f64] {
        &self.access
    }

    /// Access shares sorted descending — the paper's Fig. 5 x-axis order.
    pub fn access_shares_sorted(&self) -> Vec<f64> {
        let mut shares = self.access.clone();
        shares.sort_by(|a, b| b.partial_cmp(a).expect("shares are finite"));
        shares
    }

    /// Share of accesses landing on the most-accessed `fraction` of
    /// clusters (e.g. `0.2` → the paper's top-20% calibration metric).
    pub fn top_fraction_share(&self, fraction: f64) -> f64 {
        let take = ((self.nlist as f64 * fraction).round() as usize).clamp(1, self.nlist);
        self.access_shares_sorted().iter().take(take).sum()
    }

    /// The hot-cluster set of a given coverage: ids of the top
    /// `coverage · nlist` clusters by expected access share.
    pub fn hot_set(&self, coverage: f64) -> Vec<u32> {
        let take = ((self.nlist as f64 * coverage).round() as usize).min(self.nlist);
        let mut order: Vec<u32> = (0..self.nlist as u32).collect();
        order.sort_by(|&a, &b| {
            self.access[b as usize]
                .partial_cmp(&self.access[a as usize])
                .expect("shares are finite")
                .then(a.cmp(&b))
        });
        order.truncate(take);
        order
    }

    /// Expected (mean) hit rate of the hot set at `coverage` — the cache
    /// coverage → mean-hit-rate mapping the estimator consumes.
    pub fn mean_hit_rate(&self, coverage: f64) -> f64 {
        self.hot_set(coverage)
            .iter()
            .map(|&c| self.access[c as usize])
            .sum()
    }

    /// Draws one query's probe set: the union of
    /// [`n_windows`](Self::new) contiguous sub-windows, each around an
    /// independently popularity-weighted anchor. Windows may overlap, so
    /// the set holds *up to* `nprobe` distinct clusters (overlap is rare
    /// except at the very head of heavy-skew rings — semantically, a query
    /// whose topics coincide simply probes fewer distinct clusters).
    pub fn gen_probe_set<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u32> {
        let sub = self.nprobe.div_ceil(self.n_windows);
        let mut chosen = vec![false; self.nlist];
        let mut out = Vec::with_capacity(self.nprobe);
        let mut budget = self.nprobe;
        for _ in 0..self.n_windows {
            let want = sub.min(budget);
            if want == 0 {
                break;
            }
            budget -= want;
            let anchor = self.sample_anchor(rng);
            let offset = rng.random_range(0..sub);
            let start = (anchor + self.nlist - offset) % self.nlist;
            for i in 0..want {
                let c = (start + i) % self.nlist;
                if !chosen[c] {
                    chosen[c] = true;
                    out.push(c as u32);
                }
            }
        }
        out
    }

    /// Draws an anchor cluster by popularity.
    pub fn sample_anchor<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.nlist - 1),
            Err(i) => i.min(self.nlist - 1),
        }
    }

    /// Hit rate of one probe set against a hot-set membership mask.
    pub fn hit_rate(probes: &[u32], hot_mask: &[bool]) -> f64 {
        if probes.is_empty() {
            return 0.0;
        }
        let hits = probes.iter().filter(|&&c| hot_mask[c as usize]).count();
        hits as f64 / probes.len() as f64
    }

    /// Builds a membership mask for a hot set.
    pub fn hot_mask(&self, hot_set: &[u32]) -> Vec<bool> {
        let mut mask = vec![false; self.nlist];
        for &c in hot_set {
            mask[c as usize] = true;
        }
        mask
    }
}

/// Expected access share per cluster under the multi-window draw.
///
/// One window covers cluster `j` with probability
/// `t_j = Σ_a p_a · max(0, sub − |a−j|) / sub` (triangular overlap kernel);
/// with `W` independent windows the cluster is probed with probability
/// `1 − (1 − t_j)^W`, normalized into shares. The triangular kernel is the
/// convolution of two box kernels of the same width, so the smoothing runs
/// in O(n) with circular sliding sums — calibration stays cheap even at
/// `nlist = 65536`, `nprobe = 2048` (paper scale).
fn expected_access(popularity: &[f64], sub: usize) -> Vec<f64> {
    expected_access_windows(popularity, sub, DEFAULT_WINDOWS)
}

fn expected_access_windows(popularity: &[f64], sub: usize, windows: usize) -> Vec<f64> {
    let fwd = circular_box_forward(popularity, sub);
    let tri = circular_box_backward(&fwd, sub);
    // tri_j = Σ_a p_a (sub − |d|); per-window coverage prob = tri_j / sub.
    let w = windows as f64;
    let mut access: Vec<f64> = tri
        .iter()
        .map(|&t| {
            let cover = (t / sub as f64).clamp(0.0, 1.0);
            1.0 - (1.0 - cover).powf(w)
        })
        .collect();
    let total: f64 = access.iter().sum();
    for x in &mut access {
        *x /= total;
    }
    access
}

/// Circular sliding-window sum over `{j, j+1, …, j+m-1}`.
fn circular_box_forward(p: &[f64], m: usize) -> Vec<f64> {
    let n = p.len();
    let mut out = vec![0.0f64; n];
    let mut sum: f64 = (0..m).map(|k| p[k % n]).sum();
    for j in 0..n {
        out[j] = sum;
        sum -= p[j];
        sum += p[(j + m) % n];
    }
    out
}

/// Circular sliding-window sum over `{j-m+1, …, j-1, j}`.
fn circular_box_backward(p: &[f64], m: usize) -> Vec<f64> {
    let n = p.len();
    let mut out = vec![0.0f64; n];
    let mut sum: f64 = (0..m).map(|k| p[(n - k % n) % n]).sum();
    for j in 0..n {
        out[j] = sum;
        sum += p[(j + 1) % n];
        sum -= p[(j + 1 + n - (m % n)) % n];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probe_sets_are_distinct_clusters() {
        let wl = ClusterWorkload::new(100, 10, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let probes = wl.gen_probe_set(&mut rng);
            let mut sorted = probes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), probes.len(), "probes must be distinct");
            assert!(
                probes.len() <= 10 && probes.len() >= 3,
                "union of windows must stay near nprobe, got {}",
                probes.len()
            );
        }
    }

    #[test]
    fn calibration_hits_wiki_all_and_orcas_targets() {
        for target in [0.59, 0.93] {
            let wl = ClusterWorkload::calibrate(1024, 64, target, 3);
            let share = wl.top_fraction_share(0.2);
            assert!(
                (share - target).abs() < 0.01,
                "calibrated share {share} missed target {target}"
            );
        }
    }

    #[test]
    fn higher_exponent_means_more_skew() {
        let mild = ClusterWorkload::new(512, 32, 0.5, 0).top_fraction_share(0.2);
        let steep = ClusterWorkload::new(512, 32, 2.0, 0).top_fraction_share(0.2);
        assert!(steep > mild);
    }

    #[test]
    fn expected_access_matches_sampled_histogram() {
        let wl = ClusterWorkload::new(256, 16, 1.2, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u64; 256];
        for _ in 0..20_000 {
            for c in wl.gen_probe_set(&mut rng) {
                counts[c as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        for c in (0..256).step_by(17) {
            let sampled = counts[c] as f64 / total as f64;
            let expected = wl.access_shares()[c];
            assert!(
                (sampled - expected).abs() < 0.002,
                "cluster {c}: sampled {sampled} vs expected {expected}"
            );
        }
    }

    #[test]
    fn mean_hit_rate_is_monotone_in_coverage() {
        let wl = ClusterWorkload::calibrate(512, 32, 0.8, 1);
        let mut prev = 0.0;
        for cov in [0.05, 0.1, 0.2, 0.4, 0.8, 1.0] {
            let eta = wl.mean_hit_rate(cov);
            assert!(eta >= prev, "hit rate must grow with coverage");
            prev = eta;
        }
        assert!((wl.mean_hit_rate(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_query_hit_rates_have_variance() {
        // The core empirical premise of §III-C: caching helps on average
        // but leaves a long tail of low-hit queries.
        let wl = ClusterWorkload::calibrate(1024, 64, 0.93, 2);
        let hot = wl.hot_set(0.2);
        let mask = wl.hot_mask(&hot);
        let mut rng = StdRng::seed_from_u64(11);
        let rates: Vec<f64> = (0..2000)
            .map(|_| ClusterWorkload::hit_rate(&wl.gen_probe_set(&mut rng), &mask))
            .collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rates.len() as f64;
        assert!(
            mean > 0.5,
            "ORCAS-like skew should yield high mean hit rate, got {mean}"
        );
        assert!(
            var > 0.01,
            "probe-set correlation must create variance, got {var}"
        );
    }

    #[test]
    fn fast_triangular_filter_matches_naive_convolution() {
        // Naive O(n·m) triangular convolution + inclusion-exclusion as the
        // reference for the O(n) double-box implementation.
        let p: Vec<f64> = {
            let raw: Vec<f64> = (0..37).map(|i| 1.0 / (i + 1) as f64).collect();
            let s: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / s).collect()
        };
        let m = 5usize;
        let n = p.len();
        let mut tri = vec![0.0f64; n];
        for (a, &pa) in p.iter().enumerate() {
            for d in 0..m as isize {
                let w = (m as isize - d) as f64;
                tri[(a + d as usize) % n] += pa * w;
                if d != 0 {
                    tri[(a + n - d as usize) % n] += pa * w;
                }
            }
        }
        let mut naive: Vec<f64> = tri
            .iter()
            .map(|&t| 1.0 - (1.0 - (t / m as f64).clamp(0.0, 1.0)).powi(4))
            .collect();
        let total: f64 = naive.iter().sum();
        for x in &mut naive {
            *x /= total;
        }
        let fast = expected_access(&p, m);
        for j in 0..n {
            assert!(
                (fast[j] - naive[j]).abs() < 1e-12,
                "mismatch at {j}: fast={} naive={}",
                fast[j],
                naive[j]
            );
        }
    }

    #[test]
    fn rotation_moves_the_hot_region() {
        let wl = ClusterWorkload::calibrate(512, 32, 0.85, 1);
        let shifted = wl.rotated(256);
        // Same total skew...
        assert!((wl.top_fraction_share(0.2) - shifted.top_fraction_share(0.2)).abs() < 1e-9);
        // ...but a mostly different hot set.
        let a = wl.hot_set(0.1);
        let b = shifted.hot_set(0.1);
        let overlap = a.iter().filter(|c| b.contains(c)).count();
        assert!(
            overlap < a.len() / 2,
            "hot sets overlap too much: {overlap}/{}",
            a.len()
        );
    }

    #[test]
    fn hot_set_sizes_match_coverage() {
        let wl = ClusterWorkload::new(1000, 10, 1.0, 0);
        assert_eq!(wl.hot_set(0.2).len(), 200);
        assert_eq!(wl.hot_set(0.0), Vec::<u32>::new());
        assert_eq!(wl.hot_set(1.0).len(), 1000);
    }

    #[test]
    #[should_panic(expected = "nprobe")]
    fn oversized_nprobe_rejected() {
        ClusterWorkload::new(10, 11, 1.0, 0);
    }
}
