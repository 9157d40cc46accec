//! Bounding balls: one per cluster and tier, so a scan can prove that
//! none of a cluster's rows can reach a query's top-k without scoring
//! them.
//!
//! A [`Ball`] is a centre `m` (the rows' mean, in f64) and a radius `r`
//! (the largest row distance to `m`, in f64, rounded up), taken in the
//! space its tier scores in: the f32 rows for a hot cluster, the decoded
//! codes `y = codes · scales` for a cold one (exact in f64: an 8-bit code
//! times a 24-bit scale). The query side `p` is the query `q` (hot) or
//! [`ScalarQuantizer::fold_query`](vlite_ann::ScalarQuantizer::fold_query)'s
//! `a = q − mins`, rounded in f32 exactly as the fold rounds it. Balls
//! are derived when a segment opens or a cluster is promoted, and never
//! written to disk.
//!
//! # Bounds on served distances
//!
//! By the triangle inequality every row `x` has
//! `ℓ ≤ ‖p − x‖ ≤ h`, with `ℓ = max(0, ‖p − m‖ − r)` and
//! `h = ‖p − m‖ + r`. The scan compares against the distances the
//! kernels *serve*, not real ones, so the bounds widen by the kernels'
//! rounding. Let `u = 2⁻²⁴` and `γ = γ₍dim+8₎`, where `γₙ = nu / (1 − nu)`.
//! A served L2 distance is a sum of `dim` squared differences, and every
//! term passes through at most `dim + 8` roundings: the difference and
//! its square (two, or three unfused), and the additions of a lane
//! chain, the four- or eight-lane sums and the horizontal adds of
//! every kernel table.
//!
//! - **Hot.** Each step is `d = fl(q − x)` and then an FMA, so
//!   `(1 − γ)·ℓ² ≤ D̂ ≤ (1 + γ)·h²`.
//! - **Cold.** The scalar reference computes `a − c·s` unfused, and
//!   `fl(c·s)` errs by up to `u·c·s` in each dimension. That perturbs the
//!   difference vector by at most `u·R` in norm, with
//!   `R = ‖255·scales‖₂`. The AVX2 entry fuses the decode, which only
//!   narrows the error. So `lower = (1 − γ)·ℓ·max(0, ℓ − 2uR)` (since
//!   `(ℓ − uR)² ≥ ℓ·(ℓ − 2uR)`) and
//!   `upper = (1 + γ)·(h² + 2uhR + u²R²) = (1 + γ)·(h + uR)²`.
//!
//! Two more terms keep the bounds rigorous where the model above is
//! silent. The f64 arithmetic that computes `‖p − m‖`, `r` and the
//! bounds rounds too: each result is scaled by `1 ∓ e`, with
//! `e = (dim + 8)·2⁻⁵²`, which exceeds its accumulated relative error.
//! Gradual underflow errs absolutely, by at most `2⁻¹⁵⁰` per rounding:
//! `τ = (dim + 8)·2⁻¹⁴⁹` leaves the lower bound and joins the upper one
//! and `uR`.
//!
//! Only L2 is bounded. An inner product's rounding error is absolute,
//! not relative to the score, so no bound of this shape holds, and the
//! scan scores every inner-product pair.
//!
//! A non-finite query, row or ball yields no bound at all: [`Bounds::NONE`]
//! has a NaN lower bound, which every pruning comparison reads as "scan",
//! and an infinite upper bound. So does an upper bound past `f32::MAX`,
//! where a served distance may overflow to `+∞`.

/// Unit roundoff of f32, `u = 2⁻²⁴`.
const U: f64 = f32::EPSILON as f64 / 2.0;

/// Largest absolute error of one rounding in the subnormal range,
/// doubled: `2⁻¹⁴⁹`.
const TINY: f64 = f32::MIN_POSITIVE as f64 / (1u32 << 23) as f64;

/// Roundings charged per term and per f64 result beyond `dim`.
const EXTRA_STEPS: usize = 8;

/// What one ball proves about the served distances from one query to
/// every row of its cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// No served distance is smaller; NaN when nothing is proven.
    pub lower: f64,
    /// No served distance is larger; `+∞` when nothing is proven.
    pub upper: f64,
}

impl Bounds {
    /// Nothing proven: every comparison against `lower` is false.
    pub const NONE: Bounds = Bounds {
        lower: f64::NAN,
        upper: f64::INFINITY,
    };
}

/// A bounding ball over one cluster's rows in the space its tier scores
/// in. See the module docs for what it proves.
#[derive(Debug)]
pub(crate) struct Ball {
    centre: Vec<f64>,
    /// `max ‖x − centre‖` over the rows, rounded up. NaN when a row is
    /// not finite or there are no rows.
    radius: f64,
    /// Norm of the largest perturbation of `p − x` the kernels' decode
    /// can add: `u·R + τ` for SQ8 codes, `0` for f32 rows.
    slack: f64,
}

/// `e`: the relative error allowance of one f64 result over `dim` terms.
fn f64_slack(dim: usize) -> f64 {
    (dim + EXTRA_STEPS) as f64 * f64::EPSILON
}

/// `τ`: the absolute underflow allowance over `dim` terms.
fn underflow_slack(dim: usize) -> f64 {
    (dim + EXTRA_STEPS) as f64 * TINY
}

impl Ball {
    /// The ball over `n` rows of `dim` values; `row(i, out)` writes row
    /// `i` into `out` (called twice per row: once for the mean, once for
    /// the radius).
    fn over(n: usize, dim: usize, slack: f64, mut row: impl FnMut(usize, &mut [f64])) -> Ball {
        let mut centre = vec![0.0f64; dim];
        let mut x = vec![0.0f64; dim];
        for i in 0..n {
            row(i, &mut x);
            for (m, v) in centre.iter_mut().zip(&x) {
                *m += v;
            }
        }
        for m in &mut centre {
            *m /= n as f64;
        }
        let mut radius2 = if n == 0 { f64::NAN } else { 0.0f64 };
        for i in 0..n {
            row(i, &mut x);
            let d2 = dist2(x.iter().copied(), &centre);
            // `f64::max` would drop a NaN; a NaN row must poison the ball.
            if d2 > radius2 || d2.is_nan() {
                radius2 = d2;
            }
        }
        let radius = if radius2.is_finite() {
            radius2.sqrt() * (1.0 + f64_slack(dim))
        } else {
            f64::NAN
        };
        Ball {
            centre,
            radius,
            slack,
        }
    }

    /// The hot ball over `n` f32 rows stored as 16-row panels
    /// ([`vlite_ann::kernel::to_panels`] layout).
    pub(crate) fn over_panels(n: usize, dim: usize, panels: &[f32]) -> Ball {
        use vlite_ann::kernel::PANEL_ROWS;
        Ball::over(n, dim, 0.0, |i, out| {
            let base = (i / PANEL_ROWS) * PANEL_ROWS * dim + i % PANEL_ROWS;
            for (d, o) in out.iter_mut().enumerate() {
                *o = f64::from(panels[base + d * PANEL_ROWS]);
            }
        })
    }

    /// The cold ball over `codes.len() / scales.len()` row-major SQ8 code
    /// rows, decoded into folded space `y = codes · scales` (offsets
    /// excluded: the query side carries `− mins`).
    pub(crate) fn over_codes(codes: &[u8], scales: &[f32]) -> Ball {
        let dim = scales.len();
        let e = f64_slack(dim);
        let reach2: f64 = scales.iter().map(|&s| (255.0 * f64::from(s)).powi(2)).sum();
        let slack = U * reach2.sqrt() * (1.0 + e) + underflow_slack(dim);
        Ball::over(codes.len() / dim, dim, slack, |i, out| {
            let row = &codes[i * dim..(i + 1) * dim];
            for ((o, &c), &s) in out.iter_mut().zip(row).zip(scales) {
                *o = f64::from(c) * f64::from(s);
            }
        })
    }

    /// The bounds on every served L2 distance from the query-side point
    /// `p` (the query for a hot ball, `q − mins` rounded in f32 for a
    /// cold one) to this ball's rows.
    pub(crate) fn bounds(&self, p: impl Iterator<Item = f64>) -> Bounds {
        let dim = self.centre.len();
        let dist = dist2(p, &self.centre).sqrt();
        if !(dist.is_finite() && self.radius.is_finite()) {
            return Bounds::NONE;
        }
        let (e, tau, w) = (f64_slack(dim), underflow_slack(dim), self.slack);
        // `1 − γ > 0` needs `nu < 1/2`: every dim below 2²³ − 8.
        let nu = (dim + EXTRA_STEPS) as f64 * U;
        if nu >= 0.5 {
            return Bounds::NONE;
        }
        let gamma = nu / (1.0 - nu);
        // ℓ and h, rounded down and up.
        let near = dist * (1.0 - e) - self.radius;
        let l = if near > 0.0 { near * (1.0 - e) } else { 0.0 };
        let h = (dist + self.radius) * (1.0 + e);
        let gap = l - 2.0 * w;
        let lower = (1.0 - gamma) * l * gap.max(0.0) * (1.0 - e) - tau;
        let upper = (1.0 + gamma) * (h + w) * (h + w) * (1.0 + e) + tau;
        Bounds {
            lower,
            // NaN fails `<=` too, so it also lands on `+∞`.
            upper: if upper <= f64::from(f32::MAX) {
                upper
            } else {
                f64::INFINITY
            },
        }
    }
}

/// `Σ (pⱼ − mⱼ)²` in f64.
fn dist2(p: impl Iterator<Item = f64>, centre: &[f64]) -> f64 {
    p.zip(centre).map(|(p, m)| (p - m) * (p - m)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_rows_queries_and_empty_clusters_prove_nothing() {
        let nan_row = Ball::over(2, 2, 0.0, |i, out| {
            out.copy_from_slice(&[i as f64, if i == 1 { f64::NAN } else { 0.0 }]);
        });
        assert!(nan_row.radius.is_nan());
        let finite = Ball::over(2, 2, 0.0, |i, out| out.fill(i as f64));
        for (ball, p) in [
            (&nan_row, [5.0, 5.0]),
            (&finite, [f64::NAN, 5.0]),
            (&finite, [f64::INFINITY, 5.0]),
            (&Ball::over(0, 2, 0.0, |_, _| {}), [5.0, 5.0]),
        ] {
            let b = ball.bounds(p.into_iter());
            assert!(b.lower.is_nan() && b.upper == f64::INFINITY, "{b:?}");
        }
        let huge = finite.bounds([1e30, 1e30].into_iter());
        assert_eq!(huge.upper, f64::INFINITY, "past f32::MAX may overflow");
        assert!(huge.lower > f64::from(f32::MAX));
    }
}
