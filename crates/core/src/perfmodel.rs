//! The fitted performance model: `T_CQ(b)`, `T_LUT(b)` and Eq. 1.

use crate::stats::PiecewiseLinear;
use crate::SearchCostModel;

/// Piecewise-linear latency model of the two CPU search stages, fit from
/// profiling samples (paper §IV-A1: "we model `T_CPU_CQ` and `T_CPU_LUT` as
/// piecewise linear functions of batch size").
///
/// # Examples
///
/// ```
/// use vlite_core::PerfModel;
///
/// let samples = vec![(1.0, 0.010, 0.090), (8.0, 0.020, 0.130), (16.0, 0.031, 0.178)];
/// let model = PerfModel::fit(&samples).unwrap();
/// let tau = model.hybrid_latency(8.0, 0.5);
/// assert!(tau < model.total(8.0)); // caching strictly helps
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    t_cq: PiecewiseLinear,
    t_lut: PiecewiseLinear,
}

impl PerfModel {
    /// Fits the model from `(batch, t_cq_seconds, t_lut_seconds)` samples.
    ///
    /// Returns `None` if `samples` is empty or contains non-finite values.
    pub fn fit(samples: &[(f64, f64, f64)]) -> Option<PerfModel> {
        let cq: Vec<(f64, f64)> = samples.iter().map(|&(b, cq, _)| (b, cq)).collect();
        let lut: Vec<(f64, f64)> = samples.iter().map(|&(b, _, lut)| (b, lut)).collect();
        Some(PerfModel {
            t_cq: PiecewiseLinear::from_points(cq)?,
            t_lut: PiecewiseLinear::from_points(lut)?,
        })
    }

    /// Builds the model by sampling an analytic cost model at the given
    /// batch sizes (the modeled-tier "profiling run").
    ///
    /// # Panics
    ///
    /// Panics if `batches` is empty.
    pub fn from_cost_model(cost: &SearchCostModel, batches: &[usize]) -> PerfModel {
        assert!(!batches.is_empty(), "need at least one batch size");
        let samples: Vec<(f64, f64, f64)> = batches
            .iter()
            .map(|&b| {
                let bf = b as f64;
                (bf, cost.t_cq(bf), cost.t_lut_full(bf))
            })
            .collect();
        Self::fit(&samples).expect("cost model produces finite samples")
    }

    /// Coarse-quantization latency at batch size `b`.
    pub fn t_cq(&self, b: f64) -> f64 {
        self.t_cq.eval(b).max(0.0)
    }

    /// Full LUT-stage latency at batch size `b`.
    pub fn t_lut(&self, b: f64) -> f64 {
        self.t_lut.eval(b).max(0.0)
    }

    /// Total CPU-only search latency at batch size `b`.
    pub fn total(&self, b: f64) -> f64 {
        self.t_cq(b) + self.t_lut(b)
    }

    /// Paper Eq. 1: `τ_s(b) = T_CQ(b) + (1 − η)·T_LUT(b)`, with `η` the
    /// (minimum) hit rate in the batch.
    pub fn hybrid_latency(&self, b: f64, eta: f64) -> f64 {
        self.t_cq(b) + (1.0 - eta.clamp(0.0, 1.0)) * self.t_lut(b)
    }

    /// Inverts Eq. 1 for the hit rate needed to reach `tau` at batch `b`:
    /// `η = (T_search(B) − τ)/T_LUT(B)` (Algorithm 1, line 18).
    ///
    /// Values above 1 mean the target is unreachable even with full
    /// caching; at or below 0 mean the CPU alone already meets it.
    pub fn required_hit_rate(&self, b: f64, tau: f64) -> f64 {
        let lut = self.t_lut(b);
        if lut <= 0.0 {
            return 0.0;
        }
        (self.total(b) - tau) / lut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_sim::devices;
    use vlite_workload::DatasetPreset;

    fn model() -> PerfModel {
        let preset = DatasetPreset::orcas_1k();
        let wl = preset.workload(1);
        let cost =
            SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
        PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16, 32])
    }

    #[test]
    fn eq1_endpoints() {
        let m = model();
        assert!((m.hybrid_latency(8.0, 1.0) - m.t_cq(8.0)).abs() < 1e-12);
        assert!((m.hybrid_latency(8.0, 0.0) - m.total(8.0)).abs() < 1e-12);
        // Monotone improvement with hit rate.
        assert!(m.hybrid_latency(8.0, 0.8) < m.hybrid_latency(8.0, 0.4));
    }

    #[test]
    fn required_hit_rate_inverts_eq1() {
        let m = model();
        for &eta in &[0.1, 0.4, 0.75, 0.95] {
            let tau = m.hybrid_latency(6.0, eta);
            let back = m.required_hit_rate(6.0, tau);
            assert!((back - eta).abs() < 1e-9, "eta={eta} back={back}");
        }
    }

    #[test]
    fn required_hit_rate_flags_infeasible_targets() {
        let m = model();
        // A target far below T_CQ is unreachable: required η > 1.
        assert!(m.required_hit_rate(8.0, m.t_cq(8.0) * 0.1) > 1.0);
        // A target above total latency needs no caching at all: η ≤ 0.
        assert!(m.required_hit_rate(8.0, m.total(8.0) * 1.5) <= 0.0);
    }

    #[test]
    fn latency_grows_with_batch() {
        let m = model();
        assert!(m.total(16.0) > m.total(2.0));
        assert!(m.t_cq(16.0) > m.t_cq(2.0));
    }

    #[test]
    fn fit_interpolates_measured_knots() {
        let samples = vec![(1.0, 0.01, 0.05), (4.0, 0.013, 0.08), (16.0, 0.025, 0.2)];
        let m = PerfModel::fit(&samples).unwrap();
        assert!((m.t_cq(4.0) - 0.013).abs() < 1e-12);
        assert!((m.t_lut(16.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_fit_is_none() {
        assert!(PerfModel::fit(&[]).is_none());
    }
}
