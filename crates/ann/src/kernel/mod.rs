//! Runtime-dispatched SIMD distance kernels.
//!
//! Every distance computed by this workspace funnels through two f32
//! primitives — dot product and squared-L2 — and their SQ8 counterparts,
//! which score a row of 8-bit codes directly against a query with the
//! quantizer folded in. All were scalar loops until this module; here
//! they get hand-written `std::arch` implementations:
//!
//! - **AVX2 + FMA** on `x86_64` (`x86`): 8-lane `f32` with fused
//!   multiply-add, two independent accumulators for ILP; SQ8 codes are
//!   widened in registers (`vpmovzxbd` + `vcvtdq2ps`), four rows per
//!   iteration; a 16-row panel group as two 8-lane halves, eight halves
//!   deep.
//! - **AVX-512** on `x86_64` with `avx512f` beside AVX2 + FMA: the AVX2
//!   table with the two panel entries in zmm form, one 16-lane register
//!   per 16-row group.
//! - **NEON** on `aarch64` (`neon`): 4-lane `f32` with `vfmaq_f32`
//!   (the SQ8 and panel entries point at the scalar reference).
//! - **Scalar** ([`scalar`]): the portable fallback, kept permanently as
//!   the reference the property tests compare the SIMD paths against.
//!
//! [`Kernels::sq8_lut_sum`] — the asymmetric-distance walk over a
//! per-query `dim × 256` table (`vgatherdps` on AVX2) that cold scans
//! used before the direct-decode entries — remains for the benchmark
//! ledger's kernel pass only; nothing that serves a query calls it.
//!
//! # Dispatch
//!
//! Feature detection runs **once** per process ([`detected`], a
//! `OnceLock` over CPUID / `getauxval`) — never inside a scan loop. Call
//! sites either use the convenience entry points ([`dot`], [`l2_sq`],
//! [`sq8_lut_sum`]), which cost one relaxed atomic load per call, or —
//! on scan hot paths — resolve a [`Kernels`] table once per cluster pass
//! via [`kernels`] and loop over plain function pointers, so the inner
//! loop carries no dispatch branching at all. Detection picks the widest
//! kind the CPU runs; [`table`] hands out any other table it can run
//! too, so tests hold every one of them against the scalar reference.
//!
//! # SQ8 block entries
//!
//! A cold scan does not call a kernel per stored code row. The SQ8
//! **block** entries — [`Kernels::sq8_l2_block`] `fn(a, scale, codes, out)`
//! and [`Kernels::sq8_dot_block`] `fn(w, codes, out)`, with
//! `codes.len() == out.len() * dim` — score one folded query against a
//! row-major run of code rows and write one distance per row, where
//! `a = query − mins` and `w = query · scales` are built once per
//! (query, batch) by
//! [`ScalarQuantizer::fold_query`](crate::ScalarQuantizer::fold_query).
//! Their contract is bit identity with *themselves*: a block call equals
//! one call per row, so a run boundary never moves a result.
//!
//! # Panel entries
//!
//! The hot tier does not store its vectors row-major. A resident cluster
//! is packed by [`to_panels`] into **16-row panels**: rows in groups of
//! [`PANEL_ROWS`], each group dim-major
//! (`panels[(g·dim + d)·16 + lane]` is dimension `d` of row `16g + lane`),
//! the last group zero-padded. [`Kernels::l2_sq_panels`] and
//! [`Kernels::dot_panels`], `fn(query, panels, out)` with
//! `panels.len() == out.len() · dim` and `out.len() % 16 == 0`, score one
//! query against whole groups and write one distance per row, pad rows
//! included (callers drop those). One 16-lane register holds a group, so
//! the AVX-512 form broadcasts `query[d]` and runs one subtract and one
//! FMA (L2) or one FMA (dot) per group per dimension, up to four groups
//! at a time for four independent accumulator chains, and stores the
//! lanes as they are: no horizontal sum at all. The AVX2 form runs the
//! same steps on each group's two 8-lane halves, eight chains deep. The
//! scalar reference accumulates each lane in the same dimension order
//! with `f32::mul_add`, so the contract is **bit identity across every
//! table**: the scalar, AVX2 and AVX-512 panel entries agree `to_bits()`
//! for `to_bits()` (NEON points at the scalar reference), and a row's
//! distance does not depend on which run of groups it was scored in.
//!
//! Scan loops fill a stack buffer of at most [`MAX_BLOCK`] distances
//! ([`sq8_block_len`] code rows at a time, sized so the sub-block stays
//! in L1 across the queries of a batch; panel rows in [`panel_runs`] of
//! up to four groups; an in-index flat list one pair-kernel call per row)
//! and hand it to [`TopK::offer`](crate::TopK::offer), which skips every
//! eight distances past the current k-th one with one test and lets
//! `push` decide the rest.
//!
//! Setting `VLITE_FORCE_SCALAR=1` in the environment pins dispatch to
//! the scalar kernels (read once, at first dispatch); CI's kernel
//! equivalence matrix runs the whole test suite under both settings.
//! [`force_scalar`] / [`clear_force`] override the choice at runtime for
//! in-process A/B runs (the perf gate's `kernel_scalar_p99` row).
//!
//! # Accuracy contract
//!
//! The SIMD kernels reassociate the reduction (lane-parallel partial
//! sums, FMA contraction), so results may differ from the scalar
//! kernels. The documented bound, asserted by the property tests in
//! `tests/kernel_props.rs`: each of the `n` accumulation steps may
//! contribute at most one unit of rounding at the running magnitude,
//! i.e. `|simd − scalar| ≤ n · ε_f32 · Σ|termᵢ|` (for L2 and the SQ8
//! LUT sum the terms are non-negative, so the envelope is
//! `n · ε · result`; for [`Kernels::sq8_dot_block`] the terms are
//! `w[j]·c[j]`). [`Kernels::sq8_l2_block`] on AVX2 also fuses the decode
//! `a − c·scale` (one rounding where the scalar reference takes two), so
//! each difference moves by up to `ε · c·scale` before it is squared; its
//! envelope is `(n + 2) · ε · Σ(|a[j]| + c[j]·scale[j])²`.
//! Where the operation order allows no reassociation (length ≤ 1 inputs,
//! the scalar tail) results are bit-exact. The panel entries differ from
//! the pair kernels by the same envelope (they accumulate sequentially,
//! with FMA, per row), and from each other across tables not at all.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod scalar;

// The audited unsafe surface of this crate: raw `std::arch` intrinsics
// behind CPUID-gated wrappers. `vlite-analyze`'s `unsafe-audit` rule
// allowlists exactly these files and still requires a SAFETY comment at
// every site.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Which kernel implementation dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar loops (always available, always tested).
    Scalar,
    /// AVX2 + FMA on `x86_64` (8-lane f32; SQ8 codes widened in
    /// registers, four rows per iteration).
    Avx2Fma,
    /// AVX-512 on `x86_64`: the AVX2 + FMA table with 16-lane panel
    /// entries.
    Avx512,
    /// NEON on `aarch64` (4-lane f32; SQ8 entries are the scalar
    /// reference).
    Neon,
}

impl KernelKind {
    /// Every kind, for tests that ask [`table`] about each one.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Scalar,
        KernelKind::Avx2Fma,
        KernelKind::Avx512,
        KernelKind::Neon,
    ];

    /// Stable lowercase name for reports, CSV rows and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2Fma => "avx2_fma",
            KernelKind::Avx512 => "avx512",
            KernelKind::Neon => "neon",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelKind::Scalar => 0,
            KernelKind::Avx2Fma => 1,
            KernelKind::Avx512 => 2,
            KernelKind::Neon => 3,
        }
    }
}

/// The widest kernel this CPU supports, independent of any override —
/// the dispatcher's one-time feature detection (CPUID on `x86_64`,
/// `getauxval`-backed detection on `aarch64`), cached in a `OnceLock` so
/// no scan path ever re-runs it.
pub fn detected() -> KernelKind {
    static DETECTED: OnceLock<KernelKind> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return KernelKind::Avx512;
                }
                return KernelKind::Avx2Fma;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return KernelKind::Neon;
            }
        }
        KernelKind::Scalar
    })
}

/// Whether `VLITE_FORCE_SCALAR=1` was set when dispatch first ran (the
/// environment is read once; changing it later has no effect).
fn env_forces_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("VLITE_FORCE_SCALAR")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// Runtime override: 0 = follow `VLITE_FORCE_SCALAR` + detection,
/// 1 = force scalar, 2 = force the detected kernel (ignore the env var).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces dispatch to the scalar kernels from now on — the in-process
/// counterpart of `VLITE_FORCE_SCALAR=1`, used by benchmarks that A/B
/// the kernels inside one process. Undo with [`clear_force`].
pub fn force_scalar() {
    // relaxed: a dispatch preference flag; every kernel it selects
    // computes the same mathematical result, so no ordering is needed.
    OVERRIDE.store(1, Ordering::Relaxed);
}

/// Forces dispatch to the detected kernel, overriding both a previous
/// [`force_scalar`] *and* `VLITE_FORCE_SCALAR` (benchmark use only).
pub fn force_native() {
    // relaxed: same dispatch preference flag as `force_scalar`.
    OVERRIDE.store(2, Ordering::Relaxed);
}

/// Restores default dispatch (`VLITE_FORCE_SCALAR` + detection).
pub fn clear_force() {
    // relaxed: same dispatch preference flag as `force_scalar`.
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// The kernel dispatch would select right now — the self-report the CI
/// kernel-equivalence matrix asserts against.
pub fn active() -> KernelKind {
    // relaxed: reading the dispatch preference; any raced value selects
    // a correct kernel.
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelKind::Scalar,
        2 => detected(),
        _ => {
            if env_forces_scalar() {
                KernelKind::Scalar
            } else {
                detected()
            }
        }
    }
}

/// How many times [`kernels`] resolved each kind — the "was the SIMD
/// path actually exercised?" evidence the equivalence tests assert.
static RESOLUTIONS: [AtomicU64; KernelKind::ALL.len()] =
    [const { AtomicU64::new(0) }; KernelKind::ALL.len()];

/// Times [`kernels`] has resolved to `kind` since process start.
pub fn resolution_count(kind: KernelKind) -> u64 {
    // relaxed: monotone telemetry counter, read only by tests/reports.
    RESOLUTIONS[kind.index()].load(Ordering::Relaxed)
}

/// [`Kernels::sq8_l2_block`]'s signature: `fn(a, scale, codes, out)`.
pub type Sq8L2Block = fn(&[f32], &[f32], &[u8], &mut [f32]);

/// A resolved kernel table: plain function pointers, so a scan loop pays
/// dispatch exactly once per pass and zero branches per vector.
#[derive(Clone, Copy)]
pub struct Kernels {
    /// Which implementation the table points at.
    pub kind: KernelKind,
    /// Inner (dot) product over equal-length slices.
    pub dot: fn(&[f32], &[f32]) -> f32,
    /// Squared Euclidean distance over equal-length slices.
    pub l2_sq: fn(&[f32], &[f32]) -> f32,
    /// SQ8 LUT sum: `Σⱼ table[j·256 + codes[j]]` with
    /// `table.len() == codes.len() · 256`. Kept for the benchmark
    /// ledger's kernel pass; scans use the two SQ8 block entries.
    pub sq8_lut_sum: fn(&[f32], &[u8]) -> f32,
    /// SQ8 block squared-L2 over code rows, `fn(a, scale, codes, out)`:
    /// `out[i] = Σⱼ (a[j] − codes[i·dim + j]·scale[j])²`, bit identical to
    /// one call per row; panics unless `scale.len() == a.len()` and
    /// `codes.len() == out.len() · a.len()`.
    pub sq8_l2_block: Sq8L2Block,
    /// SQ8 block weighted sum over code rows, `fn(w, codes, out)`:
    /// `out[i] = Σⱼ w[j]·codes[i·dim + j]`, bit identical to one call per
    /// row; panics unless `codes.len() == out.len() · w.len()`.
    pub sq8_dot_block: fn(&[f32], &[u8], &mut [f32]),
    /// Panel squared-L2 over whole 16-row groups ([`to_panels`] layout):
    /// `out[r] = Σ_d (query[d] − row_r[d])²`, accumulated per row in
    /// dimension order with one FMA per term, bit identical across
    /// tables; panics unless `out.len() % 16 == 0` and
    /// `panels.len() == out.len() · query.len()`.
    pub l2_sq_panels: fn(&[f32], &[f32], &mut [f32]),
    /// Panel dot, `out[r] = Σ_d query[d]·row_r[d]` in the same order and
    /// under the same shape contract as [`Kernels::l2_sq_panels`].
    pub dot_panels: fn(&[f32], &[f32], &mut [f32]),
}

/// The most distances a scan loop scores into its stack buffer at once —
/// the size of the callers' stack buffers.
pub const MAX_BLOCK: usize = 64;

/// Rows per panel group: one 16-lane f32 register's worth (two 8-lane
/// halves on AVX2).
pub const PANEL_ROWS: usize = 16;

/// The panel entries' shape contract, checked in every build profile (the
/// SIMD forms' unchecked loads and stores are argued from it).
fn assert_panel_shape(dim: usize, panels: usize, out: usize) {
    assert_eq!(
        out % PANEL_ROWS,
        0,
        "panel rows come in whole groups of PANEL_ROWS"
    );
    assert_eq!(
        Some(panels),
        out.checked_mul(dim),
        "panels must hold out.len() × dim floats"
    );
}

/// Packs `n` row-major vectors of `dim` floats, read in order from
/// `values`, into the panel layout the panel entries score: groups of
/// [`PANEL_ROWS`] rows, each group dim-major
/// (`panels[(g·dim + d)·16 + lane]`), the last group zero-padded. One
/// allocation, written in place as the values stream past.
///
/// # Panics
///
/// Panics if `values` yields fewer than `n · dim` floats.
pub fn to_panels(n: usize, dim: usize, values: impl IntoIterator<Item = f32>) -> Vec<f32> {
    let mut panels = vec![0.0f32; n.div_ceil(PANEL_ROWS) * PANEL_ROWS * dim];
    let mut values = values.into_iter();
    for r in 0..n {
        let first = (r / PANEL_ROWS) * PANEL_ROWS * dim + r % PANEL_ROWS;
        for slot in panels.iter_mut().skip(first).step_by(PANEL_ROWS).take(dim) {
            *slot = values.next().expect("to_panels needs n × dim values");
        }
    }
    panels
}

/// `0..total` cut into `total.div_ceil(max)` consecutive runs whose
/// lengths differ by at most one (none longer than `max`).
fn balanced_runs(total: usize, max: usize) -> impl Iterator<Item = Range<usize>> {
    let runs = total.div_ceil(max);
    (0..runs).map(move |r| r * total / runs..(r + 1) * total / runs)
}

/// The row runs a panel scan over `n` stored vectors scores against
/// every query in turn: whole groups of [`PANEL_ROWS`] covering the
/// padded rows `0..n.div_ceil(16)·16`, at most [`MAX_BLOCK`] rows (four
/// groups: the AVX-512 form's four accumulator chains, the AVX2 form's
/// eight half-group chains) each, and balanced — 9 groups run as
/// 3 × 3, not 4 + 4 + 1, so no run is one latency-bound group.
///
/// At dim 64 a run is 16 KiB, half of a 32 KiB L1d. Above it the
/// chains win over L1 residency: a cluster scan at dims 128, 256 and 768
/// with 8-row runs cut to 16 KiB (4, 2 and 1 chains) measured 1.3×, 2×
/// and 3.5× slower than with 64-row runs streaming from L2.
pub fn panel_runs(n: usize) -> impl Iterator<Item = Range<usize>> {
    balanced_runs(n.div_ceil(PANEL_ROWS), MAX_BLOCK / PANEL_ROWS)
        .map(|g| g.start * PANEL_ROWS..g.end * PANEL_ROWS)
}

/// SQ8 code rows (one byte per dimension) per sub-block at dimensionality
/// `dim`: as many as fit 16 KiB (half of a 32 KiB L1d, leaving room for
/// the queries), at least the 4 the AVX2 SQ8 block entries consume per
/// iteration, at most [`MAX_BLOCK`] — so [`MAX_BLOCK`] up to dim 256.
pub fn sq8_block_len(dim: usize) -> usize {
    (16 * 1024 / dim.max(1)).clamp(4, MAX_BLOCK)
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("kind", &self.kind).finish()
    }
}

/// The portable table: always available, and the reference the property
/// tests hold the dispatched table against.
pub const SCALAR_KERNELS: Kernels = Kernels {
    kind: KernelKind::Scalar,
    dot: scalar::dot,
    l2_sq: scalar::l2_sq,
    sq8_lut_sum: scalar::sq8_lut_sum,
    sq8_l2_block: scalar::sq8_l2_block,
    sq8_dot_block: scalar::sq8_dot_block,
    l2_sq_panels: scalar::l2_sq_panels,
    dot_panels: scalar::dot_panels,
};

/// The AVX2 + FMA table. Private: its entries may only be reached once
/// detection confirmed the features ([`kernels`], [`table`]).
#[cfg(target_arch = "x86_64")]
const AVX2_KERNELS: Kernels = Kernels {
    kind: KernelKind::Avx2Fma,
    dot: x86::dot,
    l2_sq: x86::l2_sq,
    sq8_lut_sum: x86::sq8_lut_sum,
    sq8_l2_block: x86::sq8_l2_block,
    sq8_dot_block: x86::sq8_dot_block,
    l2_sq_panels: x86::l2_sq_panels,
    dot_panels: x86::dot_panels,
};

/// Resolves the active kernel table. Call once per scan pass, not per
/// vector: the table is a few words and `Copy`.
pub fn kernels() -> Kernels {
    let kind = active();
    // relaxed: monotone telemetry counter (see `resolution_count`).
    RESOLUTIONS[kind.index()].fetch_add(1, Ordering::Relaxed);
    build(kind)
}

/// The table of `kind` if this CPU can run it: scalar always, a SIMD kind
/// when it is the [`detected`] one or narrower on the same arch (AVX-512
/// is only detected beside AVX2 + FMA). Tests loop over it so every table
/// the CPU runs — the AVX2 panel entries on an AVX-512 host included — is
/// held against the scalar reference; scans call [`kernels`].
pub fn table(kind: KernelKind) -> Option<Kernels> {
    let runnable = match (kind, detected()) {
        (KernelKind::Scalar, _) => true,
        (KernelKind::Avx2Fma, KernelKind::Avx512) => true,
        (kind, widest) => kind == widest,
    };
    runnable.then(|| build(kind))
}

/// The table of a kind this CPU runs ([`active`] or checked by [`table`]).
fn build(kind: KernelKind) -> Kernels {
    match kind {
        KernelKind::Scalar => SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => AVX2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => Kernels {
            kind,
            l2_sq_panels: x86::l2_sq_panels_avx512,
            dot_panels: x86::dot_panels_avx512,
            ..AVX2_KERNELS
        },
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => Kernels {
            kind,
            dot: neon::dot,
            l2_sq: neon::l2_sq,
            // Every SQ8 and panel entry is the scalar reference on NEON.
            sq8_lut_sum: scalar::sq8_lut_sum,
            sq8_l2_block: scalar::sq8_l2_block,
            sq8_dot_block: scalar::sq8_dot_block,
            l2_sq_panels: scalar::l2_sq_panels,
            dot_panels: scalar::dot_panels,
        },
        // A kind whose arch is compiled out is never active or runnable here.
        #[allow(unreachable_patterns)]
        _ => SCALAR_KERNELS,
    }
}

/// Dispatched inner (dot) product.
///
/// # Panics
///
/// Panics if the slices differ in length. The check is load-bearing for
/// the SIMD paths (their unchecked lane loads assume equal lengths), so
/// it runs in release builds too; one compare per kernel call is noise
/// next to the reduction itself.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma | KernelKind::Avx512 => x86::dot(a, b),
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => neon::dot(a, b),
        _ => scalar::dot(a, b),
    }
}

/// Dispatched squared Euclidean (L2²) distance.
///
/// # Panics
///
/// Panics if the slices differ in length (release builds included — see
/// [`dot`]).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma | KernelKind::Avx512 => x86::l2_sq(a, b),
        #[cfg(target_arch = "aarch64")]
        KernelKind::Neon => neon::l2_sq(a, b),
        _ => scalar::l2_sq(a, b),
    }
}

/// Dispatched SQ8 LUT sum: `Σⱼ table[j·256 + codes[j]]`.
///
/// # Panics
///
/// Panics if `table.len() != codes.len() * 256` (release builds
/// included — see [`dot`]).
#[inline]
pub fn sq8_lut_sum(table: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(table.len(), codes.len() * 256);
    match active() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma | KernelKind::Avx512 => x86::sq8_lut_sum(table, codes),
        _ => scalar::sq8_lut_sum(table, codes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared per-test tolerance: `n · ε · Σ|terms|` (the module's
    /// documented reassociation envelope) plus a whisker of absolute
    /// slack for all-zero inputs.
    fn bound(n: usize, abs_sum: f32) -> f32 {
        (n as f32) * f32::EPSILON * abs_sum + 1e-12
    }

    #[test]
    fn detected_kernel_matches_arch_expectations() {
        let k = detected();
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        assert_eq!(k, KernelKind::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert!(!matches!(k, KernelKind::Avx2Fma | KernelKind::Avx512));
        #[cfg(target_arch = "x86_64")]
        assert_ne!(k, KernelKind::Neon);
    }

    #[test]
    fn all_kernels_agree_on_fixed_vectors() {
        let n = 67; // odd length exercises every tail path
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).cos()).collect();
        let table = kernels();
        let dot_abs: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(
            ((table.dot)(&a, &b) - scalar::dot(&a, &b)).abs() <= bound(n, dot_abs),
            "dot disagrees beyond the documented envelope"
        );
        let l2_ref = scalar::l2_sq(&a, &b);
        assert!(((table.l2_sq)(&a, &b) - l2_ref).abs() <= bound(n, l2_ref));
    }

    #[test]
    fn sq8_kernels_agree_on_fixed_codes() {
        let dim = 19;
        let table: Vec<f32> = (0..dim * 256).map(|i| ((i % 97) as f32) * 0.013).collect();
        let codes: Vec<u8> = (0..dim).map(|j| (j * 41 % 256) as u8).collect();
        let want = scalar::sq8_lut_sum(&table, &codes);
        let got = (kernels().sq8_lut_sum)(&table, &codes);
        assert!((got - want).abs() <= bound(dim, want.abs()));
    }

    #[test]
    fn empty_and_single_lane_inputs_are_bit_exact() {
        let table = kernels();
        assert_eq!((table.dot)(&[], &[]), 0.0);
        assert_eq!((table.l2_sq)(&[], &[]), 0.0);
        // Length 1 admits no reassociation: bit-exact by contract.
        assert_eq!((table.dot)(&[3.5], &[-2.0]), scalar::dot(&[3.5], &[-2.0]));
        assert_eq!((table.sq8_lut_sum)(&[0.0; 256], &[7]), 0.0);
    }
}
