//! Portable scalar kernels — the always-available dispatch fallback and
//! the reference implementation every SIMD kernel is property-tested
//! against.
//!
//! The f32 loops are manually unrolled 4-wide into independent lane
//! accumulators; on x86-64 the compiler auto-vectorizes them to SSE/AVX
//! even without the hand-written kernels, which is what stood in for
//! Faiss's SIMD before the `kernel` module existed.

/// Scalar squared Euclidean (L2²) distance.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            let d = a[base + lane] - b[base + lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Scalar inner (dot) product.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Scalar SQ8 LUT sum: `Σⱼ table[j·256 + codes[j]]` — the asymmetric-
/// distance accumulation over one stored vector's codes, `table` being
/// the per-query `dim × 256` lookup table.
///
/// # Panics
///
/// Panics in debug builds if `table.len() != codes.len() * 256`.
#[inline]
pub fn sq8_lut_sum(table: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(table.len(), codes.len() * 256);
    let mut sum = 0.0f32;
    for (j, &c) in codes.iter().enumerate() {
        sum += table[j * 256 + usize::from(c)];
    }
    sum
}

/// Scalar SQ8 block squared-L2, scoring codes directly:
/// `out[i] = Σⱼ (a[j] − codes[i·dim + j]·scale[j])²` with `dim = a.len()`,
/// `a` being the query with the quantizer's offsets folded in
/// (`query − mins`) and `scale` the quantizer's step sizes. The reference
/// the SIMD entry is held against; four lane accumulators per row, like
/// [`l2_sq`].
///
/// # Panics
///
/// Panics unless `scale.len() == a.len()` and
/// `codes.len() == out.len() · a.len()`.
pub fn sq8_l2_block(a: &[f32], scale: &[f32], codes: &[u8], out: &mut [f32]) {
    sq8_block(a, scale, codes, out, |a, s, c| {
        let d = a - c * s;
        d * d
    });
}

/// Scalar SQ8 block weighted sum: `out[i] = Σⱼ w[j]·codes[i·dim + j]` with
/// `dim = w.len()`, `w` being the query with the quantizer's step sizes
/// folded in (`query · scales`) — the code-dependent part of an inner
/// product against the decoded vector.
///
/// # Panics
///
/// Panics unless `codes.len() == out.len() · w.len()`.
pub fn sq8_dot_block(w: &[f32], codes: &[u8], out: &mut [f32]) {
    sq8_block(w, w, codes, out, |w, _, c| w * c);
}

/// Both SQ8 block entries: `out[i] = Σⱼ term(ctx[j], scale[j], code)` over
/// row `i`, four lane accumulators then the tail, like [`l2_sq`].
#[inline]
fn sq8_block(
    ctx: &[f32],
    scale: &[f32],
    codes: &[u8],
    out: &mut [f32],
    term: impl Fn(f32, f32, f32) -> f32,
) {
    let dim = ctx.len();
    assert_eq!(scale.len(), dim);
    assert_eq!(Some(codes.len()), out.len().checked_mul(dim));
    let (head_x, head_s) = (ctx.chunks_exact(4), scale.chunks_exact(4));
    let (tail_x, tail_s) = (head_x.remainder(), head_s.remainder());
    for (i, o) in out.iter_mut().enumerate() {
        let row = codes[i * dim..(i + 1) * dim].chunks_exact(4);
        let tail_c = row.remainder();
        let mut acc = [0.0f32; 4];
        for ((x4, s4), c4) in head_x.clone().zip(head_s.clone()).zip(row) {
            for lane in 0..4 {
                acc[lane] += term(x4[lane], s4[lane], f32::from(c4[lane]));
            }
        }
        let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
        for ((&x, &s), &c) in tail_x.iter().zip(tail_s).zip(tail_c) {
            sum += term(x, s, f32::from(c));
        }
        *o = sum;
    }
}

/// Scalar panel squared-L2 over whole 16-row groups
/// ([`to_panels`](super::to_panels) layout): each row accumulates
/// `(query[d] − x)²` in dimension order through `f32::mul_add` — the
/// exact operation sequence of the AVX2 and AVX-512 entries' `sub` +
/// `fmadd`, so all three agree bit for bit. That identity has a price on
/// x86_64 builds without `fma`: each `mul_add` is a libm call, about ten
/// times the AVX2 entry's cost per row. Dispatch never picks this table
/// on FMA hardware; on aarch64 `mul_add` is one `fmadd`.
///
/// # Panics
///
/// Panics unless `out.len() % 16 == 0` and
/// `panels.len() == out.len() · query.len()`.
pub fn l2_sq_panels(query: &[f32], panels: &[f32], out: &mut [f32]) {
    panels_by(query, panels, out, |q, x, acc| {
        let d = q - x;
        d.mul_add(d, acc)
    });
}

/// Scalar panel dot, `query[d]·x` accumulated per row in dimension order
/// through `f32::mul_add`; same shape contract as [`l2_sq_panels`].
pub fn dot_panels(query: &[f32], panels: &[f32], out: &mut [f32]) {
    panels_by(query, panels, out, |q, x, acc| q.mul_add(x, acc));
}

/// Both panel entries: [`PANEL_ROWS`](super::PANEL_ROWS) lane
/// accumulators per group, one `step` per (dimension, lane).
#[inline]
fn panels_by(query: &[f32], panels: &[f32], out: &mut [f32], step: impl Fn(f32, f32, f32) -> f32) {
    let dim = query.len();
    super::assert_panel_shape(dim, panels.len(), out.len());
    let group_len = super::PANEL_ROWS * dim;
    for (g, out) in out.chunks_exact_mut(super::PANEL_ROWS).enumerate() {
        let group = &panels[g * group_len..(g + 1) * group_len];
        let mut acc = [0.0f32; super::PANEL_ROWS];
        for (&q, lanes) in query.iter().zip(group.chunks_exact(super::PANEL_ROWS)) {
            for (a, &x) in acc.iter_mut().zip(lanes) {
                *a = step(q, x, *a);
            }
        }
        out.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_on_odd_lengths() {
        for n in [0, 1, 3, 4, 5, 7, 16, 33, 100] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
            let b: Vec<f32> = (0..n).map(|i| (n - i) as f32 * 0.25).collect();
            let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((l2_sq(&a, &b) - naive_l2).abs() < 1e-3, "n={n}");
            assert!((dot(&a, &b) - naive_dot).abs() < 1e-3, "n={n}");
        }
    }

    #[test]
    fn lut_sum_matches_naive() {
        let dim = 9;
        let table: Vec<f32> = (0..dim * 256).map(|i| i as f32 * 0.001).collect();
        let codes: Vec<u8> = (0..dim).map(|j| (j * 29) as u8).collect();
        let naive: f32 = codes
            .iter()
            .enumerate()
            .map(|(j, &c)| table[j * 256 + usize::from(c)])
            .sum();
        assert_eq!(sq8_lut_sum(&table, &codes), naive);
    }

    #[test]
    fn sq8_blocks_match_naive_on_odd_dims() {
        for dim in [1, 3, 4, 5, 9, 33] {
            let n = 3;
            let a: Vec<f32> = (0..dim).map(|j| j as f32 * 0.5 - 2.0).collect();
            let scale: Vec<f32> = (0..dim).map(|j| 0.01 + j as f32 * 0.002).collect();
            let codes: Vec<u8> = (0..n * dim).map(|i| (i * 37 % 256) as u8).collect();
            let (mut l2, mut dot) = (vec![0.0f32; n], vec![0.0f32; n]);
            sq8_l2_block(&a, &scale, &codes, &mut l2);
            sq8_dot_block(&a, &codes, &mut dot);
            for (i, row) in codes.chunks_exact(dim).enumerate() {
                let terms = |f: fn(f32, f32, f32) -> f32| -> f32 {
                    (0..dim).map(|j| f(a[j], scale[j], f32::from(row[j]))).sum()
                };
                let naive_l2 = terms(|a, s, c| (a - c * s) * (a - c * s));
                let naive_dot = terms(|w, _, c| w * c);
                assert!((l2[i] - naive_l2).abs() <= 1e-4 * naive_l2.abs().max(1.0));
                assert!((dot[i] - naive_dot).abs() <= 1e-4 * naive_dot.abs().max(1.0));
            }
        }
    }
}
