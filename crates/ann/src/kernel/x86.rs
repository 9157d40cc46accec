//! AVX2 + FMA kernels for `x86_64`.
//!
//! Each public entry is a safe wrapper over a `#[target_feature]` inner
//! function; the wrappers are only reachable through the dispatcher in
//! [`super`], which routes here strictly after one-time CPUID detection
//! confirmed `avx2` and `fma`. The f32 reductions run two independent
//! 8-lane FMA accumulators (breaking the dependency chain for ILP).
//!
//! The SQ8 block entries ([`sq8_l2_block`], [`sq8_dot_block`]) score code
//! rows directly, no table: 8 codes are widened to f32 lanes
//! (`vpmovzxbd` + `vcvtdq2ps`) and fed to one FMA (dot) or a fused decode
//! `a − c·scale` and one FMA (L2), four rows per iteration so each chunk
//! of the query context is loaded once per four rows, and the four 8-lane
//! sums are reduced together by [`hsum8x4`], whose `hadd` tree adds the
//! same operands in the same order as [`hsum8`]. A ragged last group
//! re-scores its last row in the spare lanes, so a row's sum never
//! depends on where in a run it sits: the block call is bit-identical to
//! one call per row. [`sq8_lut_sum`], the `vgatherdps` walk over a
//! per-query table these entries replaced, stays for the benchmark
//! ledger's kernel pass; no scan calls it.
//!
//! The panel entries ([`l2_sq_panels`], [`dot_panels`]) score 16-row
//! dim-major groups as two 8-lane halves: `query[d]` is broadcast once per
//! dimension and fed, with one `sub` + `fmadd` (L2) or one `fmadd` (dot),
//! to up to four groups' eight half accumulators — eight independent
//! chains, enough to cover the FMA latency on two ports — whose lanes are
//! the rows' distances, stored as they stand. The AVX-512 entries
//! ([`l2_sq_panels_avx512`], [`dot_panels_avx512`]), which the dispatcher
//! only hands out after detecting `avx512f`, hold a whole group in one
//! zmm register: the same steps, one chain per group. Each lane's
//! operation sequence is the scalar reference's `mul_add` chain, so both
//! forms are bit-identical to it.
//!
//! Accuracy: lane-parallel partial sums + FMA contraction reassociate
//! the reduction, bounded by the envelope documented in [`super`]
//! (`n · ε · Σ|termᵢ|`); scalar tails and length ≤ 1 inputs are
//! bit-exact against [`super::scalar`].

use std::arch::x86_64::{
    __m128, __m128i, __m256, __m512, _mm256_add_epi32, _mm256_add_ps, _mm256_castps256_ps128,
    _mm256_cvtepi32_ps, _mm256_cvtepu8_epi32, _mm256_extractf128_ps, _mm256_fmadd_ps,
    _mm256_fnmadd_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_set_epi32,
    _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm512_fmadd_ps, _mm512_loadu_ps,
    _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm512_sub_ps, _mm_add_ps, _mm_add_ss,
    _mm_cvtss_f32, _mm_hadd_ps, _mm_loadl_epi64, _mm_movehdup_ps, _mm_movehl_ps, _mm_storeu_ps,
};

/// AVX2+FMA inner (dot) product; dispatch-only entry.
///
/// # Panics
///
/// Panics if the slices differ in length (the assert is load-bearing:
/// it is what makes the unchecked 8-lane loads below sound).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    // SAFETY: the dispatcher routes to this module only after CPUID
    // detection confirmed avx2+fma, satisfying `dot_avx2`'s sole
    // (target-feature) precondition; slice lengths were just asserted
    // equal (in all build profiles) and all loads below stay within
    // them.
    unsafe { dot_avx2(a, b) }
}

/// AVX2+FMA squared-L2 distance; dispatch-only entry.
///
/// # Panics
///
/// Panics if the slices differ in length (the assert is load-bearing:
/// it is what makes the unchecked 8-lane loads below sound).
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    // SAFETY: same argument as `dot` — CPUID-gated dispatch guarantees
    // the avx2+fma target-feature precondition of `l2_sq_avx2`, and the
    // length equality the loads rely on was just asserted.
    unsafe { l2_sq_avx2(a, b) }
}

/// AVX2 gather-based SQ8 LUT sum; dispatch-only entry.
///
/// # Panics
///
/// Panics if `table.len() != codes.len() * 256` (the assert is
/// load-bearing: it is what makes the gather bound argument sound).
pub fn sq8_lut_sum(table: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(table.len(), codes.len() * 256);
    // SAFETY: CPUID-gated dispatch guarantees the avx2 target-feature
    // precondition; the table/codes length relation the gather bound
    // depends on was just asserted (in all build profiles), and the
    // gather index bound (< 2048 f32 from the moving base) is argued at
    // the gather site inside.
    unsafe { sq8_avx2(table, codes) }
}

/// AVX2+FMA SQ8 block squared-L2 over code rows
/// (`out[i] = Σⱼ (a[j] − codes[i·dim + j]·scale[j])²`); dispatch-only
/// entry.
///
/// # Panics
///
/// Panics unless `scale.len() == a.len()` and
/// `codes.len() == out.len() * a.len()` (the asserts are load-bearing:
/// they are what makes the unchecked 8-byte code loads and 8-lane context
/// loads sound).
pub fn sq8_l2_block(a: &[f32], scale: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(scale.len(), a.len());
    assert_eq!(Some(codes.len()), out.len().checked_mul(a.len()));
    // SAFETY: CPUID-gated dispatch guarantees the avx2+fma
    // target-feature precondition of `sq8_block_avx2`; the two shape
    // relations its load bounds are argued from were just asserted
    // (overflow-checked, in all build profiles).
    unsafe { sq8_block_avx2::<true>(a, scale, codes, out) }
}

/// AVX2+FMA SQ8 block weighted sum over code rows
/// (`out[i] = Σⱼ w[j]·codes[i·dim + j]`); dispatch-only entry.
///
/// # Panics
///
/// Panics unless `codes.len() == out.len() * w.len()` (load-bearing, as
/// for [`sq8_l2_block`]).
pub fn sq8_dot_block(w: &[f32], codes: &[u8], out: &mut [f32]) {
    assert_eq!(Some(codes.len()), out.len().checked_mul(w.len()));
    // SAFETY: same argument as `sq8_l2_block` — CPUID-gated dispatch for
    // the target features, the just-asserted shape for the load bounds;
    // the dot instantiation never reads `scale`, so the empty slice is
    // sound.
    unsafe { sq8_block_avx2::<false>(w, &[], codes, out) }
}

/// AVX2+FMA panel squared-L2 over whole 16-row groups (bit-identical to
/// the scalar reference); dispatch-only entry.
///
/// # Panics
///
/// Panics unless `out.len() % 16 == 0` and
/// `panels.len() == out.len() * query.len()` (the asserts are
/// load-bearing: they are what makes the unchecked 8-lane loads and
/// stores sound).
pub fn l2_sq_panels(query: &[f32], panels: &[f32], out: &mut [f32]) {
    super::assert_panel_shape(query.len(), panels.len(), out.len());
    // SAFETY: CPUID-gated dispatch guarantees the avx2+fma target-feature
    // precondition of `panels_avx2`; the shape relation its load and
    // store bounds are argued from was just asserted (overflow-checked,
    // in all build profiles).
    unsafe { panels_avx2::<true>(query, panels, out) }
}

/// AVX2+FMA panel dot over whole 16-row groups; dispatch-only entry.
///
/// # Panics
///
/// As [`l2_sq_panels`] (load-bearing there too).
pub fn dot_panels(query: &[f32], panels: &[f32], out: &mut [f32]) {
    super::assert_panel_shape(query.len(), panels.len(), out.len());
    // SAFETY: same argument as `l2_sq_panels` — CPUID-gated dispatch for
    // the target features, the just-asserted shape for the bounds.
    unsafe { panels_avx2::<false>(query, panels, out) }
}

/// AVX-512 panel squared-L2 over whole 16-row groups, one zmm register
/// per group (bit-identical to the scalar reference); dispatch-only
/// entry.
///
/// # Panics
///
/// Panics unless `out.len() % 16 == 0` and
/// `panels.len() == out.len() * query.len()` (load-bearing: they are what
/// makes the unchecked 16-lane loads and stores sound).
pub fn l2_sq_panels_avx512(query: &[f32], panels: &[f32], out: &mut [f32]) {
    super::assert_panel_shape(query.len(), panels.len(), out.len());
    // SAFETY: the dispatcher hands out the AVX-512 table only after CPUID
    // detection confirmed avx512f, `panels_avx512`'s target-feature
    // precondition; the shape relation its load and store bounds are
    // argued from was just asserted (overflow-checked, in all build
    // profiles).
    unsafe { panels_avx512::<true>(query, panels, out) }
}

/// AVX-512 panel dot over whole 16-row groups; dispatch-only entry.
///
/// # Panics
///
/// As [`l2_sq_panels_avx512`] (load-bearing there too).
pub fn dot_panels_avx512(query: &[f32], panels: &[f32], out: &mut [f32]) {
    super::assert_panel_shape(query.len(), panels.len(), out.len());
    // SAFETY: same argument as `l2_sq_panels_avx512` — CPUID-gated
    // dispatch for the target feature, the just-asserted shape for the
    // bounds.
    unsafe { panels_avx512::<false>(query, panels, out) }
}

/// Rows per panel group.
const ROWS: usize = super::PANEL_ROWS;

// Groups in balanced runs of at most 4 ([`super::balanced_runs`]), each
// group scored as two 8-lane halves: a run of `g` groups is `2g` chains,
// eight at most, and five groups run as 3 + 2, not 4 + 1.
//
// SAFETY: `unsafe` is the target-feature contract (callers checked CPUID)
// plus `out.len() % 16 == 0` and `panels.len() == out.len() * dim`,
// asserted by both callers. Bounds: every run `g..end` lies in
// `0..groups` with `groups = out.len() / 16`, so its panels span
// `[g * 16 * dim, end * 16 * dim) ⊆ [0, panels.len())` and its outputs
// `[g * 16, end * 16) ⊆ [0, out.len())` — `end - g` whole groups each,
// which is what `panel_run` requires of `2 * (end - g)` halves.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn panels_avx2<const L2: bool>(query: &[f32], panels: &[f32], out: &mut [f32]) {
    let dim = query.len();
    for run in super::balanced_runs(out.len() / ROWS, 4) {
        let src = panels.as_ptr().add(run.start * ROWS * dim);
        let dst = out.as_mut_ptr().add(run.start * ROWS);
        match run.len() {
            4 => panel_run::<L2, 8>(query, src, dst),
            3 => panel_run::<L2, 6>(query, src, dst),
            2 => panel_run::<L2, 4>(query, src, dst),
            _ => panel_run::<L2, 2>(query, src, dst),
        }
    }
}

// `H` half-groups at once (`H / 2` whole groups), one accumulator each.
// Each half is walked by its own pointer, four dimensions per step at
// constant offsets: the loads then use base + displacement addressing,
// which issues as one fused uop where base + index × scale (what one
// shared induction variable compiles to) splits in two and makes the
// loop front-end bound.
//
// SAFETY: target features plus raw 8-lane access: the caller guarantees
// `src` starts `H / 2` whole groups (`H * 8 * dim` readable floats) and
// `dst` `H * 8` writable ones. Half `h` reads dimension `d < dim` at
// `src + ((h / 2) * dim + d) * 16 + (h % 2) * 8 .. + 8`, inside group
// `h / 2`, and writes `dst + h * 8 .. + 8`, inside the caller's outputs.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn panel_run<const L2: bool, const H: usize>(query: &[f32], src: *const f32, dst: *mut f32) {
    let mut acc = [_mm256_setzero_ps(); H];
    let mut lanes: [*const f32; H] =
        std::array::from_fn(|h| src.add((h / 2) * ROWS * query.len() + (h % 2) * 8));
    let mut quads = query.chunks_exact(4);
    for quad in &mut quads {
        for (u, &q) in quad.iter().enumerate() {
            panel_step::<L2, H>(q, &lanes, u * ROWS, &mut acc);
        }
        for lanes in &mut lanes {
            *lanes = lanes.add(4 * ROWS);
        }
    }
    for (u, &q) in quads.remainder().iter().enumerate() {
        panel_step::<L2, H>(q, &lanes, u * ROWS, &mut acc);
    }
    for (h, acc) in acc.iter().enumerate() {
        _mm256_storeu_ps(dst.add(h * 8), *acc);
    }
}

// One dimension of `panel_run`: `q` against the 8 lanes at
// `lanes[h] + offset` of every half.
//
// SAFETY: `unsafe` is the target-feature contract plus one raw 8-lane
// load per half, which `panel_run` bounds (`lanes[h] + offset` is the
// current dimension's lanes inside half `h`).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn panel_step<const L2: bool, const H: usize>(
    q: f32,
    lanes: &[*const f32; H],
    offset: usize,
    acc: &mut [__m256; H],
) {
    let q = _mm256_set1_ps(q);
    for (acc, lanes) in acc.iter_mut().zip(lanes) {
        let x = _mm256_loadu_ps(lanes.add(offset));
        *acc = if L2 {
            let diff = _mm256_sub_ps(q, x);
            _mm256_fmadd_ps(diff, diff, *acc)
        } else {
            _mm256_fmadd_ps(q, x, *acc)
        };
    }
}

// `panels_avx2` with one 16-lane register per group: balanced runs of at
// most 4 groups, four chains.
//
// SAFETY: `unsafe` is the target-feature contract (callers checked CPUID
// for avx512f) plus the shape both callers asserted; the run bounds are
// `panels_avx2`'s, `end - g` whole groups each, which is what
// `panel_run_avx512` requires.
#[target_feature(enable = "avx512f")]
unsafe fn panels_avx512<const L2: bool>(query: &[f32], panels: &[f32], out: &mut [f32]) {
    let dim = query.len();
    for run in super::balanced_runs(out.len() / ROWS, 4) {
        let src = panels.as_ptr().add(run.start * ROWS * dim);
        let dst = out.as_mut_ptr().add(run.start * ROWS);
        match run.len() {
            4 => panel_run_avx512::<L2, 4>(query, src, dst),
            3 => panel_run_avx512::<L2, 3>(query, src, dst),
            2 => panel_run_avx512::<L2, 2>(query, src, dst),
            _ => panel_run_avx512::<L2, 1>(query, src, dst),
        }
    }
}

// `G` groups at once, one zmm accumulator and one pointer each, four
// dimensions per step at constant offsets (the addressing argued at
// `panel_run`).
//
// SAFETY: target feature plus raw 16-lane access: the caller guarantees
// `src` starts `G` whole groups (`G * 16 * dim` readable floats) and
// `dst` `G * 16` writable ones. Group `k`'s pointer starts at
// `src + k * 16 * dim` and advances 16 floats per dimension, so dimension
// `d < dim` is read at `src + (k * dim + d) * 16 .. + 16`, inside group
// `k`; `dst + k * 16 .. + 16` lies inside the caller's outputs.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn panel_run_avx512<const L2: bool, const G: usize>(
    query: &[f32],
    src: *const f32,
    dst: *mut f32,
) {
    let mut acc = [_mm512_setzero_ps(); G];
    let mut lanes: [*const f32; G] = std::array::from_fn(|k| src.add(k * ROWS * query.len()));
    let mut quads = query.chunks_exact(4);
    for quad in &mut quads {
        for (u, &q) in quad.iter().enumerate() {
            panel_step_avx512::<L2, G>(q, &lanes, u * ROWS, &mut acc);
        }
        for lanes in &mut lanes {
            *lanes = lanes.add(4 * ROWS);
        }
    }
    for (u, &q) in quads.remainder().iter().enumerate() {
        panel_step_avx512::<L2, G>(q, &lanes, u * ROWS, &mut acc);
    }
    for (k, acc) in acc.iter().enumerate() {
        _mm512_storeu_ps(dst.add(k * ROWS), *acc);
    }
}

// One dimension of `panel_run_avx512`: `q` against the 16 lanes at
// `lanes[k] + offset` of every group.
//
// SAFETY: `unsafe` is the target-feature contract plus one raw 16-lane
// load per group, which `panel_run_avx512` bounds (`lanes[k] + offset`
// is the current dimension's lanes inside group `k`).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn panel_step_avx512<const L2: bool, const G: usize>(
    q: f32,
    lanes: &[*const f32; G],
    offset: usize,
    acc: &mut [__m512; G],
) {
    let q = _mm512_set1_ps(q);
    for (acc, lanes) in acc.iter_mut().zip(lanes) {
        let x = _mm512_loadu_ps(lanes.add(offset));
        *acc = if L2 {
            let diff = _mm512_sub_ps(q, x);
            _mm512_fmadd_ps(diff, diff, *acc)
        } else {
            _mm512_fmadd_ps(q, x, *acc)
        };
    }
}

// SAFETY: `unsafe` is the target-feature contract plus one raw 8-byte
// load at `codes`, which the caller bounds (`j + 8 <= dim` inside a code
// row that lies wholly inside the block). Widens 8 codes to f32 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn widen8(codes: *const u8) -> __m256 {
    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(
        codes.cast::<__m128i>(),
    )))
}

// Four code rows per iteration, one accumulator per row (four independent
// FMA chains already cover the latency). `ctx` is `a` (L2) or `w` (dot).
//
// SAFETY: `unsafe` is the target-feature contract (callers checked CPUID)
// plus `codes.len() == out.len() * ctx.len()` and, when `L2`,
// `scale.len() == ctx.len()`, asserted by both callers. Load bounds: a
// group's row pointers are `(i + r') * dim` with `r' <= rows - 1` and
// `i + rows <= n`, so each row ends at or before `n * dim == codes.len()`;
// within a row every 8-byte code load, and the 8-lane `ctx` / `scale`
// loads beside it, sit at `j` under `j + 8 <= dim`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sq8_block_avx2<const L2: bool>(
    ctx: &[f32],
    scale: &[f32],
    codes: &[u8],
    out: &mut [f32],
) {
    let dim = ctx.len();
    let n = out.len();
    let mut i = 0usize;
    while i < n {
        let rows = (n - i).min(4);
        // A ragged group's spare lanes alias its last row: one code path
        // for whole and partial groups, the spare sums are dropped.
        let mut v = [codes.as_ptr(); 4];
        for (r, p) in v.iter_mut().enumerate() {
            *p = codes.as_ptr().add((i + r.min(rows - 1)) * dim);
        }
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut j = 0usize;
        while j + 8 <= dim {
            let c = _mm256_loadu_ps(ctx.as_ptr().add(j));
            if L2 {
                let s = _mm256_loadu_ps(scale.as_ptr().add(j));
                for r in 0..4 {
                    let d = _mm256_fnmadd_ps(widen8(v[r].add(j)), s, c);
                    acc[r] = _mm256_fmadd_ps(d, d, acc[r]);
                }
            } else {
                for r in 0..4 {
                    acc[r] = _mm256_fmadd_ps(c, widen8(v[r].add(j)), acc[r]);
                }
            }
            j += 8;
        }
        let mut sums = [0.0f32; 4];
        _mm_storeu_ps(sums.as_mut_ptr(), hsum8x4(acc[0], acc[1], acc[2], acc[3]));
        // The scalar reference's tail arithmetic, per row.
        for (r, sum) in sums.iter_mut().enumerate().take(rows) {
            let row = &codes[(i + r) * dim..(i + r + 1) * dim];
            for t in j..dim {
                if L2 {
                    let d = ctx[t] - f32::from(row[t]) * scale[t];
                    *sum += d * d;
                } else {
                    *sum += ctx[t] * f32::from(row[t]);
                }
            }
        }
        out[i..i + rows].copy_from_slice(&sums[..rows]);
        i += rows;
    }
}

// SAFETY: `unsafe` is the target-feature contract only (callers checked
// CPUID); every `loadu` reads 8 f32 at offset i with `i + 8 <= n`
// maintained by the loop bounds, and the tail indexes via safe slices.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        acc1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            acc1,
        );
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
        i += 8;
    }
    let mut sum = hsum8(_mm256_add_ps(acc0, acc1));
    while i < n {
        sum += a[i] * b[i];
        i += 1;
    }
    sum
}

// SAFETY: `unsafe` is the target-feature contract only (callers checked
// CPUID); load bounds identical to `dot_avx2` (`i + 8 <= n` before each
// 8-lane `loadu`), scalar tail via safe indexing.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        let d1 = _mm256_sub_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
        );
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        i += 16;
    }
    if i + 8 <= n {
        let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
        i += 8;
    }
    let mut sum = hsum8(_mm256_add_ps(acc0, acc1));
    while i < n {
        let d = a[i] - b[i];
        sum += d * d;
        i += 1;
    }
    sum
}

// SAFETY: `unsafe` is the target-feature contract only (callers checked
// CPUID). Bounds: the 8-byte `loadl_epi64` reads codes[j..j+8] under
// `j + 8 <= dim`; the gather reads lane k at f32 index
// `j·256 + k·256 + codes[j+k] ≤ (j+7)·256 + 255 < dim·256 = table.len()`
// (the caller asserted that length), so every gathered element is
// in-bounds.
#[target_feature(enable = "avx2")]
unsafe fn sq8_avx2(table: &[f32], codes: &[u8]) -> f32 {
    let dim = codes.len();
    // Per-lane row offsets: lane k of a gather starting at dim j reads
    // row j+k, i.e. byte-index (k·256 + code) into the f32 table slice
    // based at j·256. (`set_epi32` takes the highest lane first.)
    let row_off = _mm256_set_epi32(1792, 1536, 1280, 1024, 768, 512, 256, 0);
    let mut acc = _mm256_setzero_ps();
    let mut j = 0usize;
    while j + 8 <= dim {
        let codes8 = _mm_loadl_epi64(codes.as_ptr().add(j).cast::<__m128i>());
        let idx = _mm256_add_epi32(_mm256_cvtepu8_epi32(codes8), row_off);
        acc = _mm256_add_ps(
            acc,
            _mm256_i32gather_ps::<4>(table.as_ptr().add(j * 256), idx),
        );
        j += 8;
    }
    let mut sum = hsum8(acc);
    while j < dim {
        sum += table[j * 256 + usize::from(codes[j])];
        j += 1;
    }
    sum
}

// SAFETY: `unsafe` is the target-feature contract only (pure register
// shuffles and adds, no memory access); only called from the avx2
// kernels above, which are themselves CPUID-gated.
#[target_feature(enable = "avx2")]
unsafe fn hsum8(v: __m256) -> f32 {
    let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let s = _mm_add_ps(s, _mm_movehdup_ps(s));
    _mm_cvtss_f32(_mm_add_ss(s, _mm_movehl_ps(s, s)))
}

// SAFETY: `unsafe` is the target-feature contract only (pure register
// shuffles and adds, no memory access); only called from
// `sq8_block_avx2`, itself CPUID-gated. Lane r of the result is `hsum8`
// of the r-th argument, bit for bit: the same low-half + high-half add
// per vector, then `hadd` forms `hsum8`'s (s0+s1), (s2+s3) and, applied again, their
// sum — four vectors per instruction instead of one.
#[target_feature(enable = "avx2")]
unsafe fn hsum8x4(a: __m256, b: __m256, c: __m256, d: __m256) -> __m128 {
    let a = _mm_add_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps::<1>(a));
    let b = _mm_add_ps(_mm256_castps256_ps128(b), _mm256_extractf128_ps::<1>(b));
    let c = _mm_add_ps(_mm256_castps256_ps128(c), _mm256_extractf128_ps::<1>(c));
    let d = _mm_add_ps(_mm256_castps256_ps128(d), _mm256_extractf128_ps::<1>(d));
    _mm_hadd_ps(_mm_hadd_ps(a, b), _mm_hadd_ps(c, d))
}
