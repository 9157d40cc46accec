//! Kernel-equivalence properties and the dispatch self-report.
//!
//! These tests are the substance of CI's `kernels` matrix job: the suite
//! runs once with `VLITE_FORCE_SCALAR=1` (every dispatched call must hit
//! the scalar kernels) and once with native features (`RUSTFLAGS="-C
//! target-cpu=native"`, plus `VLITE_REQUIRE_SIMD=1` so this file *fails*
//! if a runner that supports SIMD did not actually exercise it — a
//! silently-rotten dispatcher cannot pass).
//!
//! Equivalence contract (documented in `vlite_ann::kernel`): SIMD
//! results match the scalar kernels bit-exactly wherever the operation
//! order admits no reassociation (empty inputs, length ≤ 1, the pure
//! scalar tail), and within the 1-ulp-per-accumulation envelope
//! `n · ε_f32 · Σ|termᵢ|` for the FMA-reassociated reductions.

use proptest::prelude::*;

use vlite_ann::kernel::{self, KernelKind};
use vlite_ann::{Metric, ScalarQuantizer};

/// The documented reassociation envelope, plus an absolute whisker so
/// all-zero inputs don't demand exact-zero agreement of `-0.0` vs `0.0`.
fn envelope(n: usize, abs_sum: f32) -> f32 {
    (n as f32) * f32::EPSILON * abs_sum + 1e-12
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatched dot matches the scalar reference within the envelope
    /// on arbitrary lengths (covering every unroll width and tail).
    #[test]
    fn dot_matches_scalar_within_envelope(
        a in prop::collection::vec(-8.0f32..8.0, 0..200),
        extra in 0usize..3,
    ) {
        let n = a.len();
        let b: Vec<f32> = (0..n).map(|i| ((i + extra) as f32 * 0.73).sin() * 4.0).collect();
        let table = kernel::kernels();
        let simd = (table.dot)(&a, &b);
        let scalar = kernel::scalar::dot(&a, &b);
        let abs_sum: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!(
            (simd - scalar).abs() <= envelope(n, abs_sum),
            "kind={:?} n={n} simd={simd} scalar={scalar}", table.kind
        );
    }

    /// Dispatched squared-L2 matches the scalar reference within the
    /// envelope (terms are non-negative, so Σ|terms| is the result).
    #[test]
    fn l2_matches_scalar_within_envelope(
        a in prop::collection::vec(-8.0f32..8.0, 0..200),
        extra in 0usize..3,
    ) {
        let n = a.len();
        let b: Vec<f32> = (0..n).map(|i| ((i + extra) as f32 * 0.41).cos() * 4.0).collect();
        let table = kernel::kernels();
        let simd = (table.l2_sq)(&a, &b);
        let scalar = kernel::scalar::l2_sq(&a, &b);
        prop_assert!(
            (simd - scalar).abs() <= envelope(n, scalar),
            "kind={:?} n={n} simd={simd} scalar={scalar}", table.kind
        );
    }

    /// Dispatched SQ8 LUT sum matches the scalar reference within the
    /// envelope over random tables and codes (gather-path coverage).
    #[test]
    fn sq8_lut_matches_scalar_within_envelope(
        raw_codes in prop::collection::vec(0u16..256, 0..70),
        scale in 0.001f32..2.0,
    ) {
        let codes: Vec<u8> = raw_codes.iter().map(|&c| c as u8).collect();
        let dim = codes.len();
        let table: Vec<f32> = (0..dim * 256)
            .map(|i| ((i % 131) as f32 - 40.0) * scale)
            .collect();
        let kern = kernel::kernels();
        let simd = (kern.sq8_lut_sum)(&table, &codes);
        let scalar = kernel::scalar::sq8_lut_sum(&table, &codes);
        let abs_sum: f32 = codes
            .iter()
            .enumerate()
            .map(|(j, &c)| table[j * 256 + usize::from(c)].abs())
            .sum();
        prop_assert!(
            (simd - scalar).abs() <= envelope(dim, abs_sum),
            "kind={:?} dim={dim} simd={simd} scalar={scalar}", kern.kind
        );
    }

    /// The dispatched SQ8 block entries match the scalar reference within
    /// their documented envelopes on random shapes, folds and codes: the
    /// dot entry within `n · ε · Σ|w·c|`, the L2 entry — whose AVX2 form
    /// fuses the decode — within `(n + 2) · ε · Σ(|a| + c·scale)²`.
    #[test]
    fn sq8_blocks_match_scalar_within_envelope(
        raw_codes in prop::collection::vec(0u16..256, 0..400),
        dim in 1usize..80,
        spread in 0.01f32..50.0,
        step in 0.0005f32..0.5,
    ) {
        let n = raw_codes.len() / dim;
        let codes: Vec<u8> = raw_codes[..n * dim].iter().map(|&c| c as u8).collect();
        let fold: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.91).sin() * spread).collect();
        let scale: Vec<f32> = (0..dim).map(|j| step * (1.0 + (j % 7) as f32)).collect();
        let kern = kernel::kernels();
        let (mut l2, mut l2_ref) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        let (mut dot, mut dot_ref) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        (kern.sq8_l2_block)(&fold, &scale, &codes, &mut l2);
        (kern.sq8_dot_block)(&fold, &codes, &mut dot);
        kernel::scalar::sq8_l2_block(&fold, &scale, &codes, &mut l2_ref);
        kernel::scalar::sq8_dot_block(&fold, &codes, &mut dot_ref);
        for (i, row) in codes.chunks_exact(dim).enumerate() {
            let terms = |term: fn(f32, f32, f32) -> f32| -> f32 {
                (0..dim).map(|j| term(fold[j], scale[j], f32::from(row[j]))).sum()
            };
            let l2_terms = terms(|a, s, c| (a.abs() + c * s) * (a.abs() + c * s));
            let dot_terms = terms(|w, _, c| (w * c).abs());
            prop_assert!(
                (l2[i] - l2_ref[i]).abs() <= envelope(dim + 2, l2_terms),
                "l2 kind={:?} dim={dim} row={i} simd={} scalar={}", kern.kind, l2[i], l2_ref[i]
            );
            prop_assert!(
                (dot[i] - dot_ref[i]).abs() <= envelope(dim, dot_terms),
                "dot kind={:?} dim={dim} row={i} simd={} scalar={}", kern.kind, dot[i], dot_ref[i]
            );
        }
    }

    /// Where the op order admits no reassociation — length ≤ 1 — every
    /// kernel is bit-exact against scalar, not merely within a bound.
    #[test]
    fn length_le_one_is_bit_exact(x in -100.0f32..100.0, y in -100.0f32..100.0) {
        let table = kernel::kernels();
        prop_assert_eq!((table.dot)(&[], &[]).to_bits(), 0.0f32.to_bits());
        prop_assert_eq!(
            (table.dot)(&[x], &[y]).to_bits(),
            kernel::scalar::dot(&[x], &[y]).to_bits()
        );
        prop_assert_eq!(
            (table.l2_sq)(&[x], &[y]).to_bits(),
            kernel::scalar::l2_sq(&[x], &[y]).to_bits()
        );
        let lut: Vec<f32> = (0..256).map(|i| i as f32 * 0.5 - x).collect();
        prop_assert_eq!(
            (table.sq8_lut_sum)(&lut, &[129]).to_bits(),
            kernel::scalar::sq8_lut_sum(&lut, &[129]).to_bits()
        );
    }

    /// The scalar tail of a SIMD kernel runs the same arithmetic as the
    /// scalar kernel's tail: extending both inputs by one element past a
    /// full SIMD block changes both results by the bit-identical term.
    #[test]
    fn simd_tail_is_the_scalar_tail(tail_a in -4.0f32..4.0, tail_b in -4.0f32..4.0) {
        let table = kernel::kernels();
        let base: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let whole_dot = (table.dot)(&a, &b);
        a.push(tail_a);
        b.push(tail_b);
        prop_assert_eq!(
            (table.dot)(&a, &b).to_bits(),
            (whole_dot + tail_a * tail_b).to_bits()
        );
    }
}

/// A deterministic, sign-mixed fill (no two rows alike).
fn wave(len: usize, phase: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 0.37 + phase).sin() * 6.0)
        .collect()
}

/// Every unroll width, tail length and four-row remainder of the SQ8
/// block kernels: dims around the 8- and 16-lane steps, row counts around
/// the four-row step and the 64-entry scan buffer.
const BLOCK_DIMS: [usize; 9] = [1, 7, 8, 9, 16, 24, 64, 67, 100];
const BLOCK_ROWS: [usize; 7] = [0, 1, 3, 4, 5, 64, 65];

/// A deterministic code fill that hits 0, 255 and everything between.
fn code_wave(len: usize, stride: usize) -> Vec<u8> {
    (0..len).map(|i| (i * stride % 256) as u8).collect()
}

/// The SQ8 block contract: a block call equals one call per row through
/// the same table, bit for bit — whole four-row groups, ragged last
/// groups and every dim tail — on the dispatched and the scalar table,
/// for both entries and for `Sq8Query::score_block` under both metrics.
#[test]
fn sq8_block_kernels_are_bit_identical_to_one_row_calls() {
    for table in [kernel::kernels(), kernel::SCALAR_KERNELS] {
        for dim in BLOCK_DIMS {
            let fold = wave(dim, 0.5);
            let scale: Vec<f32> = wave(dim, 3.0)
                .iter()
                .map(|x| x.abs() * 0.01 + 1e-3)
                .collect();
            let sq = ScalarQuantizer::from_params(wave(dim, 1.75), scale.clone());
            for n in BLOCK_ROWS {
                let codes = code_wave(n * dim, 37);
                let mut l2s = vec![f32::NAN; n];
                let mut dots = vec![f32::NAN; n];
                (table.sq8_l2_block)(&fold, &scale, &codes, &mut l2s);
                (table.sq8_dot_block)(&fold, &codes, &mut dots);
                let mut one = [f32::NAN];
                for (i, row) in codes.chunks_exact(dim).enumerate() {
                    let what = format!("kind={:?} dim={dim} n={n} row={i}", table.kind);
                    (table.sq8_l2_block)(&fold, &scale, row, &mut one);
                    assert_eq!(l2s[i].to_bits(), one[0].to_bits(), "sq8 l2 {what}");
                    (table.sq8_dot_block)(&fold, row, &mut one);
                    assert_eq!(dots[i].to_bits(), one[0].to_bits(), "sq8 dot {what}");
                }
                for metric in [Metric::L2, Metric::InnerProduct] {
                    let query = sq.fold_query(metric, &fold);
                    let mut out = vec![f32::NAN; n];
                    query.score_block(&table, &codes, &mut out);
                    for (i, row) in codes.chunks_exact(dim).enumerate() {
                        query.score_block(&table, row, &mut one);
                        assert_eq!(
                            out[i].to_bits(),
                            one[0].to_bits(),
                            "{metric:?} kind={:?} dim={dim} n={n} row={i}",
                            table.kind
                        );
                    }
                }
            }
        }
    }
}

/// Codes 0 and 255 in every lane (the widening must be unsigned, and a
/// zero code must contribute exactly the folded term): each row of all-0
/// or all-255 codes equals the closed form over the same folds, within
/// the envelope, and the two tables agree.
#[test]
fn sq8_block_kernels_handle_extreme_codes_in_every_lane() {
    for table in [kernel::kernels(), kernel::SCALAR_KERNELS] {
        for dim in BLOCK_DIMS {
            let fold = wave(dim, 0.25);
            let scale: Vec<f32> = wave(dim, 2.0)
                .iter()
                .map(|x| x.abs() * 0.02 + 1e-3)
                .collect();
            // Rows: all 0, all 255, alternating, and 255 in one lane only
            // (a fifth row, so the ragged group path sees extremes too).
            let mut codes = vec![0u8; dim];
            codes.extend(vec![255u8; dim]);
            codes.extend((0..dim).map(|j| if j % 2 == 0 { 0 } else { 255 }));
            codes.extend((0..dim).map(|j| if j % 2 == 0 { 255 } else { 0 }));
            codes.extend((0..dim).map(|j| if j == dim - 1 { 255 } else { 0 }));
            let n = codes.len() / dim;
            let (mut l2s, mut dots) = (vec![f32::NAN; n], vec![f32::NAN; n]);
            (table.sq8_l2_block)(&fold, &scale, &codes, &mut l2s);
            (table.sq8_dot_block)(&fold, &codes, &mut dots);
            for (i, row) in codes.chunks_exact(dim).enumerate() {
                let (mut l2, mut l2_terms, mut dot, mut dot_terms) =
                    (0.0f64, 0.0f32, 0.0f64, 0.0f32);
                for j in 0..dim {
                    let c = f32::from(row[j]);
                    let d = f64::from(fold[j]) - f64::from(c) * f64::from(scale[j]);
                    l2 += d * d;
                    l2_terms += (fold[j].abs() + c * scale[j]) * (fold[j].abs() + c * scale[j]);
                    dot += f64::from(fold[j]) * f64::from(c);
                    dot_terms += (fold[j] * c).abs();
                }
                let what = format!("kind={:?} dim={dim} row={i}", table.kind);
                assert!(
                    (f64::from(l2s[i]) - l2).abs() <= f64::from(envelope(dim + 2, l2_terms)),
                    "sq8 l2 {what}: {} vs {l2}",
                    l2s[i]
                );
                assert!(
                    (f64::from(dots[i]) - dot).abs() <= f64::from(envelope(dim, dot_terms)),
                    "sq8 dot {what}: {} vs {dot}",
                    dots[i]
                );
            }
        }
    }
}

/// Panel row counts: empty, lone ragged groups, one and two whole groups
/// ± 1, the 64-row run ± 1 and a multi-run cluster.
const PANEL_SIZES: [usize; 15] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129];

/// Every kernel table this CPU can run: scalar always, and on an AVX-512
/// host the AVX2 table beside the dispatched one, so its panel entries
/// stay tested where dispatch never picks them.
fn runnable_tables() -> Vec<kernel::Kernels> {
    KernelKind::ALL
        .into_iter()
        .filter_map(kernel::table)
        .collect()
}

/// The panel entries' per-row oracle: one `mul_add` per dimension, in
/// dimension order, from +0.0.
fn mul_add_oracle(l2: bool, query: &[f32], row: &[f32]) -> f32 {
    query.iter().zip(row).fold(0.0f32, |acc, (&q, &x)| {
        if l2 {
            (q - x).mul_add(q - x, acc)
        } else {
            q.mul_add(x, acc)
        }
    })
}

/// `n` rows of `rows` packed into panels, and the padded row count.
fn panels_of(rows: &[f32], n: usize, dim: usize) -> (Vec<f32>, usize) {
    (
        kernel::to_panels(n, dim, rows.iter().copied()),
        n.div_ceil(kernel::PANEL_ROWS) * kernel::PANEL_ROWS,
    )
}

/// The layout `to_panels` writes: `panels[(g·dim + d)·16 + lane]` is
/// dimension `d` of row `16g + lane`, pad lanes +0.0.
#[test]
fn to_panels_writes_the_documented_layout() {
    let rows_per = kernel::PANEL_ROWS;
    for dim in BLOCK_DIMS {
        for n in PANEL_SIZES {
            let rows = wave(n * dim, 0.3);
            let (panels, padded) = panels_of(&rows, n, dim);
            assert_eq!(panels.len(), padded * dim);
            for r in 0..padded {
                for d in 0..dim {
                    let want = if r < n { rows[r * dim + d] } else { 0.0 };
                    let got = panels[((r / rows_per) * dim + d) * rows_per + r % rows_per];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "dim {dim} n {n} row {r} d {d}"
                    );
                }
            }
        }
    }
}

/// The panel contract: every row's distance, pad rows included (scored
/// as the zero vector), equals the `mul_add` oracle `to_bits()` for
/// `to_bits()` — on every table the CPU runs (scalar, and AVX2 and
/// AVX-512 where present) and on the dispatched one, so all of them are
/// bit-identical to each other. `Metric::score_panels` is the same
/// oracle under L2 and, negated, under inner product.
#[test]
fn panel_kernels_equal_the_mul_add_oracle_on_every_table() {
    let tables = runnable_tables();
    assert!(tables.iter().any(|t| t.kind == kernel::detected()));
    for table in tables.into_iter().chain([kernel::kernels()]) {
        for dim in BLOCK_DIMS {
            let zero = vec![0.0f32; dim];
            for n in PANEL_SIZES {
                let query = wave(dim, 0.5);
                let rows = wave(n * dim, 1.25);
                let (panels, padded) = panels_of(&rows, n, dim);
                let (mut l2s, mut dots) = (vec![f32::NAN; padded], vec![f32::NAN; padded]);
                let (mut l2_scores, mut ip_scores) =
                    (vec![f32::NAN; padded], vec![f32::NAN; padded]);
                (table.l2_sq_panels)(&query, &panels, &mut l2s);
                (table.dot_panels)(&query, &panels, &mut dots);
                Metric::L2.score_panels(&table, &query, &panels, &mut l2_scores);
                Metric::InnerProduct.score_panels(&table, &query, &panels, &mut ip_scores);
                for i in 0..padded {
                    let row = rows.get(i * dim..(i + 1) * dim).unwrap_or(&zero);
                    let what = format!("kind={:?} dim={dim} n={n} row={i}", table.kind);
                    let (l2, dot) = (
                        mul_add_oracle(true, &query, row),
                        mul_add_oracle(false, &query, row),
                    );
                    assert_eq!(l2s[i].to_bits(), l2.to_bits(), "l2 {what}");
                    assert_eq!(dots[i].to_bits(), dot.to_bits(), "dot {what}");
                    assert_eq!(l2_scores[i].to_bits(), l2.to_bits(), "L2 score {what}");
                    assert_eq!(ip_scores[i].to_bits(), (-dot).to_bits(), "IP score {what}");
                }
            }
        }
    }
}

/// A run split never moves a result: scoring the groups in two calls,
/// split at any group boundary, writes the bits one call writes — on
/// every table the CPU runs.
#[test]
fn a_run_split_never_moves_a_panel_distance() {
    for table in runnable_tables() {
        for dim in [1, 7, 64, 67] {
            let n = 129;
            let query = wave(dim, 0.9);
            let (panels, padded) = panels_of(&wave(n * dim, 0.1), n, dim);
            for entry in [table.l2_sq_panels, table.dot_panels] {
                let mut whole = vec![f32::NAN; padded];
                entry(&query, &panels, &mut whole);
                for split in (0..=padded).step_by(kernel::PANEL_ROWS) {
                    let mut parts = vec![f32::NAN; padded];
                    let (head, tail) = parts.split_at_mut(split);
                    entry(&query, &panels[..split * dim], head);
                    entry(&query, &panels[split * dim..], tail);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&parts), bits(&whole), "dim {dim} split {split}");
                }
            }
        }
    }
}

/// `panel_runs` covers the padded rows exactly, in whole groups of at
/// most 64 rows whose lengths differ by at most one group.
#[test]
fn panel_runs_tile_the_padded_rows_in_balanced_groups() {
    let rows_per = kernel::PANEL_ROWS;
    for n in 0..400 {
        let runs: Vec<_> = kernel::panel_runs(n).collect();
        let padded = n.div_ceil(rows_per) * rows_per;
        assert_eq!(runs.first().map_or(0, |r| r.start), 0, "n {n}");
        assert_eq!(runs.last().map_or(0, |r| r.end), padded, "n {n}");
        for pair in runs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "n {n}: contiguous");
        }
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        assert!(lens
            .iter()
            .all(|&l| l % rows_per == 0 && (rows_per..=kernel::MAX_BLOCK).contains(&l)));
        let (lo, hi) = (lens.iter().min(), lens.iter().max());
        assert!(
            hi.zip(lo).is_none_or(|(hi, lo)| hi - lo <= rows_per),
            "n {n}: {lens:?}"
        );
    }
}

/// A panel buffer whose shape disagrees with `out` — or an `out` that is
/// not whole groups — is refused before any load, by both panel entries
/// of every table the CPU runs (the scalar one is the NEON table's).
#[test]
fn panel_kernels_reject_ragged_shapes_on_every_table() {
    let dim = 4;
    let whole = kernel::PANEL_ROWS;
    // (out rows, panel floats): ragged outs under matching panels, then
    // whole groups over short and long panels.
    let shapes = [
        (whole - 1, (whole - 1) * dim),
        (whole + 1, (whole + 1) * dim),
        (whole, whole * dim - 1),
        (whole, whole * dim + 1),
    ];
    for table in runnable_tables() {
        for entry in [table.l2_sq_panels, table.dot_panels] {
            for (rows, floats) in shapes {
                let refused = std::panic::catch_unwind(|| {
                    entry(&[0.0; 4], &vec![0.0; floats], &mut vec![0.0; rows]);
                });
                assert!(
                    refused.is_err(),
                    "kind={:?} out {rows} panels {floats}",
                    table.kind
                );
            }
        }
    }
}

/// Code rows whose total disagrees with `out` are refused before any
/// load, by every SQ8 entry of the dispatched table...
#[test]
#[should_panic]
fn sq8_l2_block_rejects_ragged_codes() {
    let mut out = [0.0f32; 4];
    (kernel::kernels().sq8_l2_block)(&[0.0; 8], &[1.0; 8], &[0u8; 31], &mut out);
}

#[test]
#[should_panic]
fn sq8_dot_block_rejects_ragged_codes() {
    let mut out = [0.0f32; 4];
    (kernel::kernels().sq8_dot_block)(&[0.0; 8], &[0u8; 33], &mut out);
}

/// ...as is an `out` too long for the codes, and a `scale` that does not
/// cover the fold.
#[test]
#[should_panic]
fn sq8_dot_block_rejects_a_long_out() {
    let mut out = [0.0f32; 5];
    (kernel::kernels().sq8_dot_block)(&[0.0; 8], &[0u8; 32], &mut out);
}

#[test]
#[should_panic]
fn sq8_l2_block_rejects_a_short_scale() {
    let mut out = [0.0f32; 4];
    (kernel::kernels().sq8_l2_block)(&[0.0; 8], &[1.0; 7], &[0u8; 32], &mut out);
}

/// The scalar table refuses the same shapes (it is the NEON table's SQ8
/// entry too).
#[test]
#[should_panic]
fn scalar_sq8_l2_block_rejects_ragged_codes() {
    let mut out = [0.0f32; 4];
    (kernel::SCALAR_KERNELS.sq8_l2_block)(&[0.0; 8], &[1.0; 8], &[0u8; 31], &mut out);
}

#[test]
#[should_panic]
fn scalar_sq8_dot_block_rejects_ragged_codes() {
    let mut out = [0.0f32; 4];
    (kernel::SCALAR_KERNELS.sq8_dot_block)(&[0.0; 8], &[0u8; 31], &mut out);
}

/// The only test that touches the process-global dispatch override: it
/// owns the whole force/clear lifecycle sequentially, then asserts the
/// self-report the CI matrix relies on. (The equivalence proptests above
/// stay correct under any concurrent override state — they compare
/// whatever table dispatch returns against the scalar module directly.)
#[test]
fn dispatch_overrides_and_self_report() {
    let env_scalar = std::env::var("VLITE_FORCE_SCALAR").map(|v| v == "1") == Ok(true);
    let default_kind = kernel::active();

    // Env semantics: VLITE_FORCE_SCALAR pins scalar, otherwise dispatch
    // follows one-time feature detection.
    if env_scalar {
        assert_eq!(
            default_kind,
            KernelKind::Scalar,
            "env override must pin scalar"
        );
    } else {
        assert_eq!(default_kind, kernel::detected());
    }

    // Runtime overrides (benchmark A/B hooks) take precedence over the
    // environment in both directions.
    kernel::force_scalar();
    assert_eq!(kernel::active(), KernelKind::Scalar);
    assert_eq!(kernel::kernels().kind, KernelKind::Scalar);
    kernel::force_native();
    assert_eq!(kernel::active(), kernel::detected());
    kernel::clear_force();
    assert_eq!(
        kernel::active(),
        default_kind,
        "clear_force restores env semantics"
    );

    // Self-report: resolving a table must tally under the active kind,
    // and the resolved table must agree with scalar on a smoke vector.
    let before = kernel::resolution_count(default_kind);
    let table = kernel::kernels();
    assert_eq!(table.kind, default_kind);
    assert!(kernel::resolution_count(default_kind) > before);
    let a: Vec<f32> = (0..33).map(|i| i as f32 * 0.1).collect();
    let diff = ((table.dot)(&a, &a) - kernel::scalar::dot(&a, &a)).abs();
    assert!(diff <= envelope(a.len(), (table.dot)(&a, &a).abs()));

    // Detection picks the widest kind the CPU runs, and `table` hands out
    // exactly the kinds up to it on the same arch. On Linux the kernel's
    // own flag list is an oracle independent of the dispatcher's.
    let runnable: Vec<KernelKind> = runnable_tables().iter().map(|t| t.kind).collect();
    let widest = match kernel::detected() {
        KernelKind::Scalar => vec![KernelKind::Scalar],
        KernelKind::Avx2Fma => vec![KernelKind::Scalar, KernelKind::Avx2Fma],
        KernelKind::Avx512 => vec![KernelKind::Scalar, KernelKind::Avx2Fma, KernelKind::Avx512],
        KernelKind::Neon => vec![KernelKind::Scalar, KernelKind::Neon],
    };
    assert_eq!(runnable, widest, "detected {:?}", kernel::detected());
    if let Some(flags) = cpuinfo_flags() {
        let has = |f: &str| flags.iter().any(|g| g == f);
        let widest = if has("avx2") && has("fma") && has("avx512f") {
            KernelKind::Avx512
        } else if has("avx2") && has("fma") {
            KernelKind::Avx2Fma
        } else {
            KernelKind::Scalar
        };
        assert_eq!(kernel::detected(), widest, "cpuinfo flags {flags:?}");
    }

    // The CI matrix's teeth: the native-feature job exports
    // VLITE_REQUIRE_SIMD=1, so a runner whose CPU supports a SIMD kernel
    // *fails* here if dispatch did not select it.
    if std::env::var("VLITE_REQUIRE_SIMD").map(|v| v == "1") == Ok(true) {
        assert_ne!(
            kernel::detected(),
            KernelKind::Scalar,
            "VLITE_REQUIRE_SIMD is set but this CPU detects no SIMD kernel — \
             run the forced-scalar lane instead"
        );
        assert_eq!(
            default_kind,
            kernel::detected(),
            "SIMD-capable runner dispatched scalar: the SIMD path was not exercised"
        );
    }
}

/// The first CPU's feature flags from `/proc/cpuinfo`, on x86_64 Linux.
fn cpuinfo_flags() -> Option<Vec<String>> {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return None;
    }
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("flags"))?;
    let (_, flags) = line.split_once(':')?;
    Some(flags.split_whitespace().map(str::to_owned).collect())
}
