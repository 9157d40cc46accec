//! Latency-bounded partitioning — the paper's Algorithm 1.
//!
//! Finds the largest GPU cache coverage ρ that satisfies the search SLO
//! while accounting for the feedback loop between coverage and LLM
//! throughput: more GPU-resident index ⇒ less KV cache ⇒ lower throughput
//! ⇒ smaller expected batch ⇒ (usually) less coverage needed.
//! [`place`] is the whole placement pass around it, which the real tier's
//! offline build and every online repartition (§IV-B3) share.

use crate::{AccessProfile, HitRateEstimator, IndexSplit, PerfModel, RealConfig};

/// Inputs to the partitioning algorithm.
#[derive(Debug, Clone)]
pub struct PartitionInput {
    /// Search-stage latency SLO in seconds (`SLO_search`).
    pub slo_search: f64,
    /// Queueing factor ε; the paper sets 1.0 (worst case: queueing delay
    /// equals one batch latency; empirically 0.9–1.0 on the CPU baseline).
    pub epsilon: f64,
    /// Bare LLM peak throughput `µ_LLM0` in requests/s (node aggregate).
    pub mu_llm0: f64,
    /// KV-cache bytes available when no index is resident (node aggregate).
    pub kv_bytes_full: u64,
    /// Convergence threshold δ on coverage.
    pub delta: f64,
    /// Iteration cap (the loop provably oscillates within δ quickly; this
    /// is a backstop).
    pub max_iters: usize,
}

impl PartitionInput {
    /// Creates inputs with the paper's defaults (`ε = 1`, `δ = 1e-3`).
    pub fn new(slo_search: f64, mu_llm0: f64, kv_bytes_full: u64) -> Self {
        Self {
            slo_search,
            epsilon: 1.0,
            mu_llm0,
            kv_bytes_full,
            delta: 1e-3,
            max_iters: 64,
        }
    }
}

/// The partitioning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionDecision {
    /// Cache coverage ρ: fraction of clusters resident on GPUs.
    pub coverage: f64,
    /// GPU-resident index bytes at ρ.
    pub index_bytes: u64,
    /// KV bytes left for the LLM.
    pub kv_bytes_remaining: u64,
    /// Estimated LLM throughput after the KV reduction (requests/s).
    pub mu_llm: f64,
    /// Expected steady-state search batch size at that throughput.
    pub expected_batch: usize,
    /// The per-batch search latency budget `τ_s = SLO/(1+ε)`.
    pub tau_s: f64,
    /// Expected batch-minimum hit rate at the decision point.
    pub eta_min: f64,
    /// Predicted hybrid search latency at the decision point.
    pub predicted_latency: f64,
    /// Binary-search iterations used.
    pub iterations: usize,
    /// Whether the SLO is satisfiable at all (false ⇒ even full coverage
    /// misses `τ_s`; `coverage` is then 1.0, best effort).
    pub feasible: bool,
}

/// Runs Algorithm 1.
///
/// # Panics
///
/// Panics if `slo_search`, `mu_llm0` or `kv_bytes_full` are non-positive.
///
/// # Examples
///
/// ```
/// use vlite_core::{partition, AccessProfile, HitRateEstimator, PartitionInput, PerfModel,
///                  SearchCostModel};
/// use vlite_sim::devices;
/// use vlite_workload::DatasetPreset;
///
/// let preset = DatasetPreset::tiny();
/// let wl = preset.workload(2);
/// let profile = AccessProfile::from_workload(&preset, &wl, 2_000, 2);
/// let est = HitRateEstimator::from_profile(&profile);
/// let cost = SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
/// let perf = PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16]);
/// let input = PartitionInput::new(0.050, 20.0, 64 << 30);
/// let decision = partition(&input, &perf, &est, &profile);
/// assert!(decision.coverage >= 0.0 && decision.coverage <= 1.0);
/// ```
pub fn partition(
    input: &PartitionInput,
    perf: &PerfModel,
    estimator: &HitRateEstimator,
    profile: &AccessProfile,
) -> PartitionDecision {
    assert!(input.slo_search > 0.0, "SLO must be positive");
    assert!(input.mu_llm0 > 0.0, "bare throughput must be positive");
    assert!(input.kv_bytes_full > 0, "KV capacity must be positive");

    let tau_s = input.slo_search / (1.0 + input.epsilon);

    let mut rho_low = 0.0f64;
    let mut rho_high = 1.0f64;
    let mut rho = 0.0f64;
    let mut iterations = 0;
    while rho_high - rho_low > input.delta && iterations < input.max_iters {
        iterations += 1;
        let rho_m = 0.5 * (rho_low + rho_high);
        let mu = throughput_at(input, profile, rho_m);
        rho = infer_partition(tau_s, mu, perf, estimator);
        if rho > rho_m {
            rho_low = rho;
        } else {
            rho_high = rho_m;
        }
    }

    // Evaluate the decision point.
    let mu = throughput_at(input, profile, rho);
    let batch = (tau_s * mu).ceil().max(1.0) as usize;
    let eta_min = estimator.eta_min(rho, batch);
    let predicted = perf.hybrid_latency(batch as f64, eta_min);
    // Feasibility: full coverage at this batch size still meets τ_s?
    let feasible = predicted <= tau_s + 1e-9 || {
        let eta_full = estimator.eta_min(1.0, batch);
        perf.hybrid_latency(batch as f64, eta_full) <= tau_s + 1e-9
    };
    let index_bytes = profile.bytes_at(rho);
    PartitionDecision {
        coverage: rho,
        index_bytes,
        kv_bytes_remaining: input.kv_bytes_full.saturating_sub(index_bytes),
        mu_llm: mu,
        expected_batch: batch,
        tau_s,
        eta_min,
        predicted_latency: predicted,
        iterations,
        feasible,
    }
}

/// What one placement pass decided from a set of probe sets.
#[derive(Debug, Clone)]
pub struct PlacementPass {
    /// The access profile counted from the probe sets.
    pub profile: AccessProfile,
    /// The hit-rate estimator over `profile`.
    pub estimator: HitRateEstimator,
    /// Algorithm 1's decision, reported even when the coverage is pinned.
    pub decision: PartitionDecision,
    /// The split at the decided coverage, or at
    /// [`RealConfig::coverage_override`] when that is set.
    pub split: IndexSplit,
    /// `split`'s per-cluster hot flags: the tiers the store places.
    pub hot: Vec<bool>,
    /// Mean per-query hit rate of the probe sets under `split`: the
    /// statistic the runtime observes, so the drift monitors' expectation
    /// (the estimator's access-weighted mean is biased against it).
    pub mean_hit: f64,
}

/// The placement pass: counts `probe_sets` into an [`AccessProfile`] over
/// the index's per-cluster `sizes` and `bytes`, runs Algorithm 1 on `perf`
/// at `config`'s SLO and KV budget, and splits across `config.n_shards`
/// at the decided coverage or `config.coverage_override`.
///
/// # Panics
///
/// Panics if `sizes` and `bytes` differ in length, a probe names a cluster
/// past their end, or as [`partition`] and [`IndexSplit::build`] do.
pub fn place(
    config: &RealConfig,
    perf: &PerfModel,
    sizes: &[u64],
    bytes: &[u64],
    probe_sets: Vec<Vec<u32>>,
) -> PlacementPass {
    let mut counts = vec![0u64; sizes.len()];
    for &c in probe_sets.iter().flatten() {
        counts[c as usize] += 1;
    }
    let profile = AccessProfile::from_parts(counts, sizes.to_vec(), bytes.to_vec(), probe_sets);
    let estimator = HitRateEstimator::from_profile(&profile);
    let input = PartitionInput::new(config.slo_search, config.mu_llm0, config.kv_bytes_full);
    let decision = partition(&input, perf, &estimator, &profile);
    let coverage = config.coverage_override.unwrap_or(decision.coverage);
    let split = IndexSplit::build(&profile, coverage, config.n_shards);
    let hot = split.hot_flags();
    let sets = profile.probe_sets();
    let hit_sum = (sets.iter()).fold(0.0, |sum, probes| sum + split.route(probes).hit_rate());
    let mean_hit = hit_sum / sets.len().max(1) as f64;
    PlacementPass {
        profile,
        estimator,
        decision,
        split,
        hot,
        mean_hit,
    }
}

/// Line 5 of Algorithm 1: throughput under the KV reduction at coverage ρ.
/// Linear interpolation on the KV loss — "coarse, but a conservative lower
/// bound because the throughput–cache curve is generally convex".
fn throughput_at(input: &PartitionInput, profile: &AccessProfile, rho: f64) -> f64 {
    let index_bytes = profile.bytes_at(rho) as f64;
    let kv = input.kv_bytes_full as f64;
    let remaining = ((kv - index_bytes) / kv).max(0.05);
    input.mu_llm0 * remaining
}

/// The `INFERPARTITION` function (Algorithm 1, lines 15–25): given the
/// latency budget and a throughput bound, the two batch roundings each
/// yield a required hit rate and hence a coverage; the cheaper one wins.
fn infer_partition(tau_s: f64, mu: f64, perf: &PerfModel, estimator: &HitRateEstimator) -> f64 {
    // Rounding up: longer latency, must still meet τ_s.
    let b_up = (tau_s * mu).ceil().max(1.0);
    let eta1 = perf.required_hit_rate(b_up, tau_s);
    let rho1 = estimator.hit_rate_to_coverage(eta1, b_up as usize);

    // Rounding down: shorter latency bound B/µ to preserve throughput µ.
    let b_down = (tau_s * mu).floor().max(1.0);
    let eta2 = perf.required_hit_rate(b_down, b_down / mu);
    let rho2 = estimator.hit_rate_to_coverage(eta2, b_down as usize);

    rho1.min(rho2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchCostModel;
    use vlite_sim::devices;
    use vlite_workload::DatasetPreset;

    struct Fixture {
        perf: PerfModel,
        est: HitRateEstimator,
        profile: AccessProfile,
    }

    fn fixture(seed: u64) -> Fixture {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(seed);
        let profile = AccessProfile::from_workload(&preset, &wl, 3000, seed);
        let est = HitRateEstimator::from_profile(&profile);
        let cost =
            SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
        let perf = PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16, 32]);
        Fixture { perf, est, profile }
    }

    fn run(f: &Fixture, slo: f64, mu: f64) -> PartitionDecision {
        let input = PartitionInput::new(slo, mu, 64 << 30);
        partition(&input, &f.perf, &f.est, &f.profile)
    }

    #[test]
    fn coverage_is_in_unit_interval_and_converges() {
        let f = fixture(1);
        let d = run(&f, 0.060, 25.0);
        assert!((0.0..=1.0).contains(&d.coverage));
        assert!(d.iterations <= 64);
    }

    #[test]
    fn tighter_slo_needs_more_coverage() {
        let f = fixture(2);
        let relaxed = run(&f, 0.200, 25.0);
        let tight = run(&f, 0.050, 25.0);
        assert!(
            tight.coverage >= relaxed.coverage,
            "tight {} < relaxed {}",
            tight.coverage,
            relaxed.coverage
        );
    }

    #[test]
    fn generous_slo_needs_no_gpu_cache() {
        let f = fixture(3);
        // SLO far above the CPU-only latency at the expected batch.
        let d = run(&f, 5.0, 10.0);
        assert!(d.coverage < 0.01, "coverage {} should be ~0", d.coverage);
        assert!(d.feasible);
    }

    #[test]
    fn memory_accounting_is_consistent() {
        let f = fixture(4);
        let d = run(&f, 0.060, 25.0);
        assert_eq!(d.index_bytes, f.profile.bytes_at(d.coverage));
        assert_eq!(d.kv_bytes_remaining, (64u64 << 30) - d.index_bytes);
        assert!(d.mu_llm <= 25.0);
    }

    #[test]
    fn predicted_latency_meets_budget_when_feasible() {
        let f = fixture(5);
        let d = run(&f, 0.080, 20.0);
        if d.feasible {
            // Allow the δ-resolution slack of the binary search.
            assert!(
                d.predicted_latency <= d.tau_s * 1.1,
                "predicted {} exceeds budget {}",
                d.predicted_latency,
                d.tau_s
            );
        }
    }

    #[test]
    fn higher_throughput_demand_changes_batch() {
        let f = fixture(6);
        let low = run(&f, 0.080, 5.0);
        let high = run(&f, 0.080, 40.0);
        assert!(high.expected_batch >= low.expected_batch);
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn zero_slo_rejected() {
        let f = fixture(7);
        run(&f, 0.0, 10.0);
    }
}
