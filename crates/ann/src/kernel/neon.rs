//! NEON kernels for `aarch64`.
//!
//! Safe wrappers over `#[target_feature(enable = "neon")]` inner
//! functions, reachable only through the dispatcher in [`super`] after
//! one-time feature detection. 4-lane f32 with `vfmaq_f32`, two
//! independent accumulators for ILP. The SQ8 entries — the direct-decode
//! block kernels and the LUT walk kept for the benchmark ledger — and the
//! panel entries are the [`super::scalar`] reference (see the dispatch
//! table in [`super::kernels`]).
//!
//! Accuracy: same reassociation envelope as the AVX2 kernels, documented
//! in [`super`]; scalar tails and length ≤ 1 inputs are bit-exact.

use std::arch::aarch64::{vaddq_f32, vaddvq_f32, vdupq_n_f32, vfmaq_f32, vld1q_f32, vsubq_f32};

/// NEON inner (dot) product; dispatch-only entry.
///
/// # Panics
///
/// Panics if the slices differ in length (the assert is load-bearing:
/// it is what makes the unchecked 4-lane loads below sound).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    // SAFETY: the dispatcher routes to this module only after runtime
    // feature detection confirmed NEON, satisfying `dot_neon`'s sole
    // (target-feature) precondition; all loads stay within the slice
    // lengths just asserted equal (in all build profiles).
    unsafe { dot_neon(a, b) }
}

/// NEON squared-L2 distance; dispatch-only entry.
///
/// # Panics
///
/// Panics if the slices differ in length (the assert is load-bearing:
/// it is what makes the unchecked 4-lane loads below sound).
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    // SAFETY: same argument as `dot` — feature-gated dispatch
    // guarantees the NEON target-feature precondition of `l2_sq_neon`,
    // and the length equality the loads rely on was just asserted.
    unsafe { l2_sq_neon(a, b) }
}

// SAFETY: `unsafe` is the target-feature contract only (callers checked
// detection); every `vld1q_f32` reads 4 f32 at offset i with
// `i + 4 <= n` maintained by the loop bounds, tail via safe indexing.
#[target_feature(enable = "neon")]
unsafe fn dot_neon(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        i += 8;
    }
    if i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        i += 4;
    }
    let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        sum += a[i] * b[i];
        i += 1;
    }
    sum
}

// SAFETY: `unsafe` is the target-feature contract only (callers checked
// detection); load bounds identical to `dot_neon` (`i + 4 <= n` before
// each 4-lane load), scalar tail via safe indexing.
#[target_feature(enable = "neon")]
unsafe fn l2_sq_neon(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc0 = vfmaq_f32(acc0, d0, d0);
        let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc1 = vfmaq_f32(acc1, d1, d1);
        i += 8;
    }
    if i + 4 <= n {
        let d = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc0 = vfmaq_f32(acc0, d, d);
        i += 4;
    }
    let mut sum = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        let d = a[i] - b[i];
        sum += d * d;
        i += 1;
    }
    sum
}
