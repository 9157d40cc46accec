//! Piecewise-linear curves for latency-vs-batch-size models.
//!
//! "CPU search latency exhibits a piecewise linear relationship with batch
//! size" (paper §IV-A1, Fig. 8 left); the profiler fits these curves from
//! (batch, latency) samples and the partitioner evaluates/extrapolates
//! them.

/// A piecewise-linear function defined by sorted knots, linear between
/// knots and linearly extrapolated beyond the ends.
///
/// # Examples
///
/// ```
/// use vlite_core::stats::PiecewiseLinear;
///
/// let f = PiecewiseLinear::from_points(vec![(1.0, 10.0), (4.0, 40.0)]).unwrap();
/// assert_eq!(f.eval(2.0), 20.0);
/// assert_eq!(f.eval(8.0), 80.0); // extrapolates the last segment
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    /// Knots sorted by x, deduplicated.
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Builds a curve from `(x, y)` samples. Samples are sorted by `x`;
    /// duplicate `x` values are averaged.
    ///
    /// Returns `None` if fewer than one sample is provided or any value is
    /// not finite.
    pub fn from_points(mut samples: Vec<(f64, f64)>) -> Option<Self> {
        if samples.is_empty()
            || samples
                .iter()
                .any(|(x, y)| !x.is_finite() || !y.is_finite())
        {
            return None;
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(samples.len());
        let mut i = 0;
        while i < samples.len() {
            let x = samples[i].0;
            let mut sum = 0.0;
            let mut n = 0usize;
            while i < samples.len() && samples[i].0 == x {
                sum += samples[i].1;
                n += 1;
                i += 1;
            }
            points.push((x, sum / n as f64));
        }
        Some(Self { points })
    }

    /// The knots, sorted by x.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Evaluates the curve at `x` (linear interpolation between knots,
    /// linear extrapolation outside, constant for single-knot curves).
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if pts.len() == 1 {
            return pts[0].1;
        }
        // Select the segment: clamp to first/last for extrapolation.
        let seg = match pts.binary_search_by(|p| p.0.total_cmp(&x)) {
            Ok(i) => return pts[i].1,
            Err(0) => (pts[0], pts[1]),
            Err(i) if i >= pts.len() => (pts[pts.len() - 2], pts[pts.len() - 1]),
            Err(i) => (pts[i - 1], pts[i]),
        };
        let ((x0, y0), (x1, y1)) = seg;
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PiecewiseLinear {
        PiecewiseLinear::from_points(vec![(1.0, 5.0), (2.0, 6.0), (8.0, 30.0)]).unwrap()
    }

    #[test]
    fn interpolates_knots_exactly() {
        let f = ramp();
        assert_eq!(f.eval(1.0), 5.0);
        assert_eq!(f.eval(2.0), 6.0);
        assert_eq!(f.eval(8.0), 30.0);
    }

    #[test]
    fn interpolates_between_knots() {
        let f = ramp();
        assert_eq!(f.eval(5.0), 18.0); // midpoint of (2,6)-(8,30)
    }

    #[test]
    fn extrapolates_both_ends() {
        let f = ramp();
        assert_eq!(f.eval(0.0), 4.0); // slope 1 below
        assert_eq!(f.eval(10.0), 38.0); // slope 4 above
    }

    #[test]
    fn duplicate_x_samples_average() {
        let f = PiecewiseLinear::from_points(vec![(1.0, 10.0), (1.0, 20.0), (2.0, 2.0)]).unwrap();
        assert_eq!(f.eval(1.0), 15.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let f = PiecewiseLinear::from_points(vec![(8.0, 30.0), (1.0, 5.0), (2.0, 6.0)]).unwrap();
        assert_eq!(f.eval(5.0), 18.0);
    }

    #[test]
    fn single_point_is_constant() {
        let f = PiecewiseLinear::from_points(vec![(3.0, 7.0)]).unwrap();
        assert_eq!(f.eval(-10.0), 7.0);
        assert_eq!(f.eval(100.0), 7.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(PiecewiseLinear::from_points(vec![]).is_none());
        assert!(PiecewiseLinear::from_points(vec![(f64::NAN, 1.0)]).is_none());
    }
}
