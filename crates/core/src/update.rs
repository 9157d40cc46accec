//! Adaptive runtime index update (paper §IV-B3, Fig. 9).
//!
//! The router monitors average hit rates, per-cluster access counts and SLO
//! attainment over a sliding window. When attainment drops below threshold
//! *and* observed hit rates diverge from expectation, an update cycle runs
//! in the background: re-profile → re-partition → re-split → load shards.
//! Full-shard (not per-cluster) updates avoid memory fragmentation; queries
//! for clusters on a shard being refreshed fall back to the CPU path, so
//! service never stops.

use std::time::Instant;

use vlite_sim::GpuSpec;
use vlite_workload::{ClusterWorkload, DatasetPreset};

use crate::{
    partition, AccessProfile, HitRateEstimator, IndexSplit, PartitionDecision, PartitionInput,
    PerfModel, SearchCostModel,
};

/// Thresholds for triggering an update cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateConfig {
    /// Trigger when windowed SLO attainment falls below this.
    pub slo_attainment_threshold: f64,
    /// ... and the observed mean hit rate diverges from the expected one
    /// by more than this (absolute).
    pub hit_rate_divergence: f64,
    /// Window length in requests before the counters reset.
    pub window_requests: usize,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            slo_attainment_threshold: 0.9,
            hit_rate_divergence: 0.1,
            window_requests: 2000,
        }
    }
}

/// Windowed drift detector fed by the router at runtime.
///
/// # Examples
///
/// ```
/// use vlite_core::{DriftMonitor, UpdateConfig};
///
/// let mut monitor = DriftMonitor::new(UpdateConfig::default(), 0.8);
/// for _ in 0..100 {
///     monitor.observe(0.2, false); // low hit rates, SLO violations
/// }
/// assert!(monitor.should_update());
/// ```
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: UpdateConfig,
    expected_mean_hit: f64,
    requests: usize,
    slo_met: usize,
    hit_sum: f64,
}

impl DriftMonitor {
    /// Creates a monitor expecting the given mean hit rate.
    pub fn new(config: UpdateConfig, expected_mean_hit: f64) -> Self {
        Self {
            config,
            expected_mean_hit,
            requests: 0,
            slo_met: 0,
            hit_sum: 0.0,
        }
    }

    /// Records one served request.
    pub fn observe(&mut self, hit_rate: f64, met_slo: bool) {
        self.requests += 1;
        self.hit_sum += hit_rate;
        if met_slo {
            self.slo_met += 1;
        }
    }

    /// Requests observed in the current window.
    pub fn window_len(&self) -> usize {
        self.requests
    }

    /// Windowed SLO attainment.
    pub fn attainment(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.requests as f64
        }
    }

    /// Windowed mean hit rate.
    pub fn observed_mean_hit(&self) -> f64 {
        if self.requests == 0 {
            self.expected_mean_hit
        } else {
            self.hit_sum / self.requests as f64
        }
    }

    /// The hit-rate half of the trigger: the windowed mean hit rate
    /// diverged from expectation. Requires a minimally filled window so a
    /// few early requests don't trigger a rebuild.
    pub fn hit_rate_diverged(&self) -> bool {
        self.requests >= self.config.window_requests.min(100)
            && (self.observed_mean_hit() - self.expected_mean_hit).abs()
                > self.config.hit_rate_divergence
    }

    /// The paper's dual trigger: attainment below threshold *and* hit rate
    /// diverged from expectation ([`DriftMonitor::hit_rate_diverged`]).
    pub fn should_update(&self) -> bool {
        self.hit_rate_diverged() && self.attainment() < self.config.slo_attainment_threshold
    }

    /// Whether the window is full and should be reset ("for every few
    /// thousand requests, it periodically resets the counters").
    pub fn window_full(&self) -> bool {
        self.requests >= self.config.window_requests
    }

    /// Resets the window, optionally installing a new expectation.
    pub fn reset(&mut self, expected_mean_hit: Option<f64>) {
        if let Some(e) = expected_mean_hit {
            self.expected_mean_hit = e;
        }
        self.requests = 0;
        self.slo_met = 0;
        self.hit_sum = 0.0;
    }
}

/// Wall-clock/modeled timing of one rebuild cycle (Fig. 9 stages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildTiming {
    /// Re-profiling query access patterns (seconds).
    pub profiling: f64,
    /// Running the latency-bounded partitioning algorithm (seconds,
    /// measured wall clock).
    pub algorithm: f64,
    /// Generating the shard sub-indexes (seconds).
    pub splitting: f64,
    /// Loading shards onto GPUs over PCIe (seconds).
    pub loading: f64,
}

impl RebuildTiming {
    /// Total cycle time.
    pub fn total(&self) -> f64 {
        self.profiling + self.algorithm + self.splitting + self.loading
    }
}

/// The outcome of one update cycle.
#[derive(Debug)]
pub struct UpdateCycle {
    /// The refreshed access profile.
    pub profile: AccessProfile,
    /// The refreshed partitioning decision.
    pub decision: PartitionDecision,
    /// The refreshed split.
    pub split: IndexSplit,
    /// Stage timings.
    pub timing: RebuildTiming,
}

/// Runs one full update cycle against a (possibly drifted) workload:
/// re-profile, re-run Algorithm 1, re-split, and model the load time.
///
/// `n_profile_queries` is the calibration-query budget (the paper found
/// 0.5% of the training queries sufficient); `n_shards` the GPU shard
/// count.
///
/// # Panics
///
/// Panics if `n_shards == 0`.
#[allow(clippy::too_many_arguments)]
pub fn run_update_cycle(
    preset: &DatasetPreset,
    workload: &ClusterWorkload,
    cost: &SearchCostModel,
    perf: &PerfModel,
    input: &PartitionInput,
    gpu: &GpuSpec,
    n_profile_queries: usize,
    n_shards: usize,
    seed: u64,
) -> UpdateCycle {
    // Stage 1: profiling — replaying calibration queries through the
    // coarse quantizer. Cost: one CQ per query at single-query batch rate.
    let profile = AccessProfile::from_workload(preset, workload, n_profile_queries, seed);
    let profiling = n_profile_queries as f64 * cost.cq_per_query;

    // Stage 2: the partitioning algorithm — real wall-clock measurement.
    // vlite-allow(clock-discipline): measures the solver's real runtime to
    // cost the update cycle; there is no virtual stand-in for it.
    let started = Instant::now();
    let estimator = HitRateEstimator::from_profile(&profile);
    let decision = partition(input, perf, &estimator, &profile);
    let algorithm = started.elapsed().as_secs_f64();

    // Stage 3: splitting — rearranging hot clusters into contiguous shard
    // layouts; bytes moved at a third of host memory bandwidth (read +
    // write + bookkeeping).
    let split = IndexSplit::build(&profile, decision.coverage, n_shards);
    let moved = split.total_gpu_bytes() as f64;
    let splitting = moved / (100e9 / 3.0);

    // Stage 4: loading — each shard streams over PCIe; shards load
    // sequentially per the paper ("per-shard index generation and loading
    // take less than ten seconds", with service continuing via CPU
    // fallback).
    let loading = split
        .shard_bytes()
        .iter()
        .map(|&b| b as f64 / gpu.h2d_bw)
        .sum::<f64>();

    UpdateCycle {
        profile,
        decision,
        split,
        timing: RebuildTiming {
            profiling,
            algorithm,
            splitting,
            loading,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_sim::devices;

    #[test]
    fn monitor_triggers_only_on_joint_condition() {
        let cfg = UpdateConfig {
            window_requests: 100,
            ..UpdateConfig::default()
        };
        // Violations but hit rate as expected: no trigger.
        let mut m = DriftMonitor::new(cfg, 0.5);
        for _ in 0..150 {
            m.observe(0.5, false);
        }
        assert!(!m.should_update(), "hit rate matched expectation");
        // Violations and diverged hit rate: trigger.
        let mut m = DriftMonitor::new(cfg, 0.8);
        for _ in 0..150 {
            m.observe(0.3, false);
        }
        assert!(m.should_update());
        // Diverged hit rate but SLO fine: no trigger.
        let mut m = DriftMonitor::new(cfg, 0.8);
        for _ in 0..150 {
            m.observe(0.3, true);
        }
        assert!(!m.should_update());
    }

    #[test]
    fn divergence_alone_trips_without_an_slo_breach() {
        let cfg = UpdateConfig {
            window_requests: 100,
            ..UpdateConfig::default()
        };
        let mut m = DriftMonitor::new(cfg, 0.8);
        for _ in 0..100 {
            assert!(!m.hit_rate_diverged(), "window not minimally filled");
            m.observe(0.3, true); // every request met its SLO
        }
        assert!(m.hit_rate_diverged());
        assert!(!m.should_update(), "no SLO breach, no dual trigger");
    }

    #[test]
    fn monitor_reset_clears_window() {
        let mut m = DriftMonitor::new(UpdateConfig::default(), 0.7);
        for _ in 0..2500 {
            m.observe(0.1, false);
        }
        assert!(m.window_full());
        m.reset(Some(0.2));
        assert_eq!(m.window_len(), 0);
        assert_eq!(m.attainment(), 1.0);
        assert_eq!(m.observed_mean_hit(), 0.2);
    }

    #[test]
    fn update_cycle_tracks_drifted_hot_set() {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(31);
        let drifted = wl.rotated(preset.nlist / 2);
        let cost =
            SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
        let perf = PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16]);
        let input = PartitionInput::new(0.004, 20.0, 64 << 30);
        let before = run_update_cycle(
            &preset,
            &wl,
            &cost,
            &perf,
            &input,
            &devices::h100(),
            1000,
            2,
            31,
        );
        let after = run_update_cycle(
            &preset,
            &drifted,
            &cost,
            &perf,
            &input,
            &devices::h100(),
            1000,
            2,
            31,
        );
        // The refreshed split must chase the rotated hot region.
        let hot_before = before.profile.hot_set(0.1);
        let hot_after = after.profile.hot_set(0.1);
        let overlap = hot_before.iter().filter(|c| hot_after.contains(c)).count();
        assert!(
            overlap < hot_before.len() / 2,
            "update failed to move the hot set: overlap {overlap}/{}",
            hot_before.len()
        );
    }

    #[test]
    fn rebuild_finishes_within_a_minute_at_paper_scale() {
        // Fig. 9's headline: "all stages, from profiling to loading,
        // complete in under a minute".
        let preset = DatasetPreset::wiki_all();
        let wl = preset.workload(33);
        let cost =
            SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
        let perf = PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16]);
        let input = PartitionInput::new(0.150, 30.0, 256u64 << 30);
        let cycle = run_update_cycle(
            &preset,
            &wl,
            &cost,
            &perf,
            &input,
            &devices::h100(),
            5000,
            8,
            33,
        );
        assert!(
            cycle.timing.total() < 60.0,
            "rebuild took {:.1}s (profiling {:.1} algorithm {:.3} splitting {:.1} loading {:.1})",
            cycle.timing.total(),
            cycle.timing.profiling,
            cycle.timing.algorithm,
            cycle.timing.splitting,
            cycle.timing.loading
        );
        assert!(
            cycle.timing.algorithm < 60.0,
            "Algorithm 1 convergence (paper: < 1 min)"
        );
    }
}
