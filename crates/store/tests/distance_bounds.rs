//! Soundness of the pruning bounds themselves: for every row of every
//! cluster, `lower ≤ D̂ ≤ upper`, where `D̂` is the distance the kernels
//! serve — through `Metric::score_panels` for a hot row and
//! `Sq8Query::score_block` for a cold one — on every kernel table this
//! CPU can run. The bounds must cover the kernels' rounding, not just the
//! real distance: single-row and duplicate-row clusters (radius 0) and
//! queries placed on decoded rows leave no other slack.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::kernel::{self, KernelKind, Kernels};
use vlite_ann::{Metric, VecSet};
use vlite_store::{StoreSnapshot, TieredStore};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vlite-bounds-{}-{tag}.seg", std::process::id()))
}

/// Every kernel table this CPU runs.
fn tables() -> Vec<Kernels> {
    KernelKind::ALL
        .into_iter()
        .filter_map(kernel::table)
        .collect()
}

/// Clusters around `offset` in `[offset − 2, offset + 2]`: a single-row
/// cluster, a cluster of one row repeated, a random one, and a one-row
/// and a 37-row tight cluster off to either side. Dimension 0 holds one
/// value across every row (a constant dimension, quantized with scale 1).
fn clusters(dim: usize, offset: f32, rng: &mut StdRng) -> Vec<(Vec<u64>, VecSet)> {
    let mut coord = |j: usize, spread: f32| {
        if j == 0 {
            offset + 0.75
        } else {
            offset + (rng.random::<f32>() - 0.5) * spread
        }
    };
    let single: Vec<f32> = (0..dim).map(|j| coord(j, 4.0)).collect();
    let repeated: Vec<f32> = (0..dim).map(|j| coord(j, 4.0)).collect();
    let shapes: Vec<Vec<Vec<f32>>> = vec![
        vec![single],
        vec![repeated; 19],
        (0..33)
            .map(|_| (0..dim).map(|j| coord(j, 4.0)).collect())
            .collect(),
        vec![(0..dim)
            .map(|j| coord(j, 0.5) + 1.5 * (j > 0) as u8 as f32)
            .collect()],
        (0..37)
            .map(|_| {
                (0..dim)
                    .map(|j| coord(j, 0.5) - 1.5 * (j > 0) as u8 as f32)
                    .collect()
            })
            .collect(),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(c, rows)| {
            let ids = (0..rows.len() as u64)
                .map(|i| ((c as u64) << 20) | i)
                .collect();
            (ids, VecSet::from_fn(rows.len(), dim, |i, j| rows[i][j]))
        })
        .collect()
}

/// Queries that stress each slack term: stored rows, their SQ8 decodes
/// (`mins + c·scale` in f32, so `q − mins` cancels back onto the code),
/// those decodes nudged by a few ulps, and random points near and far.
fn queries(
    store: &TieredStore,
    clusters: &[(Vec<u64>, VecSet)],
    rng: &mut StdRng,
) -> Vec<Vec<f32>> {
    let sq = store.sq();
    let mut out = Vec::new();
    for (_, vectors) in clusters {
        for v in vectors.iter().take(3) {
            out.push(v.to_vec());
            let decoded = sq.decode(&sq.encode(v));
            let nudged = decoded
                .iter()
                .map(|x| x * (1.0 + f32::EPSILON * 3.0))
                .collect();
            out.push(decoded);
            out.push(nudged);
        }
    }
    let offset = clusters[0].1.get(0)[0] - 0.75;
    let dim = clusters[0].1.dim();
    for spread in [1.0f32, 8.0, 200.0] {
        for _ in 0..4 {
            out.push(
                (0..dim)
                    .map(|_| offset + (rng.random::<f32>() - 0.5) * spread)
                    .collect(),
            );
        }
    }
    out
}

/// Asserts `lower ≤ served ≤ upper` for one row.
fn check(snap: &StoreSnapshot, c: u32, query: &[f32], served: f32, what: &str) {
    let b = snap.distance_bounds(c, query);
    let d = f64::from(served);
    assert!(
        b.lower <= d && d <= b.upper,
        "{what} cluster {c}: served {served:e} outside [{:e}, {:e}] for query {query:?}",
        b.lower,
        b.upper
    );
}

/// Checks every row of every cluster against every query on every
/// table: hot rows scored by the panel kernel on the arena's own panel
/// layout, cold rows by the SQ8 block kernel on the segment's codes.
fn assert_sound(dim: usize, offset: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = clusters(dim, offset, &mut rng);
    let n = clusters.len();
    let path = temp_path(&format!("{dim}-{offset}-{seed}"));
    let mut store =
        TieredStore::create(&path, dim, Metric::L2, &clusters, &vec![false; n]).expect("creates");
    store.set_ephemeral(true);
    let queries = queries(&store, &clusters, &mut rng);
    let cold = store.snapshot();
    store.apply_placement(&vec![true; n]);
    let hot = store.snapshot();
    for kern in tables() {
        for query in &queries {
            let folded = store.sq().fold_query(Metric::L2, query);
            for (c, (_, vectors)) in clusters.iter().enumerate() {
                let c = c as u32;
                let rows = vectors.len();
                let padded = rows.div_ceil(kernel::PANEL_ROWS) * kernel::PANEL_ROWS;
                let panels = kernel::to_panels(rows, dim, vectors.as_flat().iter().copied());
                let mut served = vec![0.0f32; padded];
                Metric::L2.score_panels(&kern, query, &panels, &mut served);
                let what = format!("{:?} hot dim {dim} offset {offset}", kern.kind);
                for &d in &served[..rows] {
                    check(&hot, c, query, d, &what);
                }
                let codes: Vec<u8> = vectors.iter().flat_map(|v| store.sq().encode(v)).collect();
                folded.score_block(&kern, &codes, &mut served[..rows]);
                let what = format!("{:?} cold dim {dim} offset {offset}", kern.kind);
                for &d in &served[..rows] {
                    check(&cold, c, query, d, &what);
                }
            }
        }
    }
}

/// Dims below, at and past the kernels' lane steps, around the origin
/// and offset by 1e4, where `q − mins` cancels.
#[test]
fn bounds_hold_for_served_distances_on_every_table() {
    for dim in [1, 6, 64, 100] {
        for offset in [0.0, 1e4] {
            assert_sound(dim, offset, 0xb0 + dim as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same check on random seeds, dims and offsets: the origin, a
    /// random offset in ±100 or 1e4.
    #[test]
    fn bounds_hold_on_random_inputs(
        seed in 0u64..1_000_000,
        dim in 1usize..40,
        which in 0usize..3,
        shift in -100.0f32..100.0,
    ) {
        assert_sound(dim, [0.0, shift, 1e4][which], seed);
    }
}
