//! Distance functions and the [`Metric`] enum.
//!
//! The actual arithmetic lives in [`crate::kernel`]: runtime-dispatched
//! `std::arch` SIMD (AVX2+FMA / NEON) with the portable unrolled-scalar
//! loops as the always-tested fallback. The entry points here are the
//! crate's stable public API; they pay one relaxed atomic load of
//! dispatch state per call. Scan loops resolve a
//! [`crate::kernel::Kernels`] table once per pass instead, and score
//! 16-row panels — the hot tier's layout and the IVF probe's copy of the
//! centroids — through [`Metric::score_panels`], many rows per call.

use serde::{Deserialize, Serialize};

use crate::kernel::{self, Kernels};

/// Squared Euclidean (L2²) distance.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length.
///
/// # Examples
///
/// ```
/// assert_eq!(vlite_ann::l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
/// ```
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    kernel::l2_sq(a, b)
}

/// Inner (dot) product.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length.
///
/// # Examples
///
/// ```
/// assert_eq!(vlite_ann::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernel::dot(a, b)
}

/// Distance metric for index construction and search.
///
/// All metrics are expressed as "smaller is closer" scores so that top-k
/// selection is metric-agnostic: inner product is negated. Every tier —
/// flat lists, f32 panels, SQ8 codes — scores both metrics. For cosine
/// similarity, normalise the vectors and use inner product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Metric {
    /// Squared Euclidean distance.
    #[default]
    L2,
    /// (Negated) inner product — maximum inner product search.
    InnerProduct,
}

impl Metric {
    /// Computes the "smaller is closer" score between two vectors.
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -dot(a, b),
        }
    }

    /// Panel counterpart of [`Metric::score`] for scan loops: scores
    /// `query` against whole 16-row groups in the
    /// [`kernel::to_panels`](crate::kernel::to_panels) layout through
    /// `kern`'s panel entries, one distance per row, pad rows included.
    /// Inner product negates; the metric branch runs once per call, not
    /// per row.
    ///
    /// # Panics
    ///
    /// Panics on a panel shape the kernels refuse.
    pub fn score_panels(self, kern: &Kernels, query: &[f32], panels: &[f32], out: &mut [f32]) {
        match self {
            Metric::L2 => (kern.l2_sq_panels)(query, panels, out),
            Metric::InnerProduct => {
                (kern.dot_panels)(query, panels, out);
                for d in out.iter_mut() {
                    *d = -*d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn l2_matches_naive_on_odd_lengths() {
        for n in [1, 3, 4, 5, 7, 16, 33, 100] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (n - i) as f32 * 0.25).collect();
            let fast = l2_sq(&a, &b);
            let slow = naive_l2(&a, &b);
            assert!((fast - slow).abs() < 1e-3, "n={n}: {fast} vs {slow}");
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn metric_scores_are_smaller_is_closer() {
        let query = [1.0, 0.0];
        let near = [0.9, 0.1];
        let far = [-1.0, 0.0];
        for metric in [Metric::L2, Metric::InnerProduct] {
            assert!(
                metric.score(&query, &near) < metric.score(&query, &far),
                "{metric:?} must rank the near vector closer"
            );
        }
    }

    #[test]
    fn zero_distance_to_self() {
        let v = [1.5, -2.5, 3.0];
        assert_eq!(l2_sq(&v, &v), 0.0);
    }
}
