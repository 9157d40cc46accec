//! Blocked-scan equivalence: a cluster-major batched scan through
//! [`TieredStore`] must return, for every query, exactly what the query
//! returns scanned alone (a batch of one, as `scan_lists_store` scans it)
//! — same ids, bit-identical distances — whatever mix of hot arenas and
//! cold SQ8 extents the probe lists hit.
//! The counters must also account a blocked pass correctly: every query
//! counts as a probe, the shared cluster's payload bytes count once.
//! Pruning (L2 passes that skip a query whose bounds rule the cluster
//! out) must not move a single result bit, and must fire where clusters
//! are well separated.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::{scan_lists_store, scan_lists_store_batch, BatchQuery, Metric, VecSet};
use vlite_store::{StoreStats, TieredStore};

fn sample_clusters(
    n_clusters: usize,
    per: usize,
    dim: usize,
    seed: u64,
) -> Vec<(Vec<u64>, VecSet)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_clusters)
        .map(|c| {
            let ids: Vec<u64> = (0..per as u64).map(|i| ((c as u64) << 20) | i).collect();
            let vectors = VecSet::from_fn(per, dim, |_, _| {
                (c as f32) * 2.0 + rng.random::<f32>() * 3.0 - 1.5
            });
            (ids, vectors)
        })
        .collect()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vlite-blocked-{}-{tag}.seg", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random tiers, batches, and (overlapping) probe lists, the
    /// blocked batch scan ≡ N one-query batches, per query, bit for bit.
    /// Holds because a row's score does not depend on which queries share
    /// its pass or on the run it sits in, and `TopK`'s `(distance, id)`
    /// total order makes the winner set independent of push order.
    #[test]
    fn blocked_batch_equals_query_at_a_time(
        seed in 0u64..1_000_000,
        n_clusters in 2usize..7,
        per in 4usize..32,
        dim in 2usize..24,
        n_queries in 1usize..6,
        k in 1usize..8,
    ) {
        let clusters = sample_clusters(n_clusters, per, dim, seed);
        let path = temp_path(&format!("prop-{seed}-{n_clusters}-{per}-{dim}-{n_queries}-{k}"));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb10c);
        let hot: Vec<bool> = (0..n_clusters).map(|_| rng.random::<bool>()).collect();
        let mut store = TieredStore::create(&path, dim, Metric::L2, &clusters, &hot)
            .expect("creates");
        store.set_ephemeral(true);

        // Random per-query probe lists, deliberately overlapping (every
        // busy query probes cluster 0) so blocked passes actually block.
        // About a third of the queries have no probes for this store, so
        // batches of one and batches with a single busy query are covered:
        // a server scans those through the same batch call.
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|_| (0..dim).map(|_| rng.random::<f32>() * 8.0).collect())
            .collect();
        let lists: Vec<Vec<u32>> = (0..n_queries)
            .map(|_| {
                if rng.random_range(0..3) == 0 {
                    return Vec::new();
                }
                let mut l: Vec<u32> = vec![0];
                for c in 1..n_clusters as u32 {
                    if rng.random::<bool>() {
                        l.push(c);
                    }
                }
                l
            })
            .collect();

        let snap = store.snapshot();
        let batch: Vec<BatchQuery<'_>> = (0..n_queries)
            .map(|qi| BatchQuery { query: &queries[qi], lists: &lists[qi] })
            .collect();
        let before = store.stats().blocked_scans;
        let blocked = scan_lists_store_batch(&snap, &batch, k);
        // A pass ticks `blocked_scans` only when ≥ 2 queries share it.
        let shared_passes = (0..n_clusters as u32)
            .filter(|c| lists.iter().filter(|l| l.contains(c)).count() >= 2)
            .count() as u64;
        prop_assert_eq!(store.stats().blocked_scans - before, shared_passes);
        for qi in 0..n_queries {
            let solo = scan_lists_store(&snap, &queries[qi], &lists[qi], k);
            prop_assert_eq!(blocked[qi].len(), solo.len(), "query {}", qi);
            for (b, s) in blocked[qi].iter().zip(&solo) {
                prop_assert_eq!(b.id, s.id, "query {}", qi);
                prop_assert_eq!(
                    b.distance.to_bits(), s.distance.to_bits(),
                    "query {}: {} vs {}", qi, b.distance, s.distance
                );
            }
        }
        drop(snap);
        let _ = std::fs::remove_file(store.path());
    }
}

/// Counter semantics of a blocked pass: with every query probing every
/// cluster, each cluster is streamed once per batch (bytes counted once)
/// while every query still counts as a probe, and each multi-query pass
/// ticks `blocked_scans`.
#[test]
fn blocked_pass_counts_bytes_once_and_probes_per_query() {
    let n_clusters = 3;
    let clusters = sample_clusters(n_clusters, 10, 4, 77);
    let path = temp_path("counters");
    let mut store = TieredStore::create(&path, 4, Metric::L2, &clusters, &[true, false, false])
        .expect("creates");
    store.set_ephemeral(true);

    let queries: Vec<Vec<f32>> = (0..4).map(|q| vec![q as f32; 4]).collect();
    let all: Vec<u32> = (0..n_clusters as u32).collect();
    let batch: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|q| BatchQuery {
            query: q,
            lists: &all,
        })
        .collect();
    let snap = store.snapshot();
    let _ = scan_lists_store_batch(&snap, &batch, 3);
    let stats = store.stats();
    // 4 queries × 1 hot cluster, 4 × 2 cold clusters.
    assert_eq!(stats.hot_probes, 4);
    assert_eq!(stats.cold_probes, 8);
    // Every pass covered all 4 queries → one blocked tick per cluster.
    assert_eq!(stats.blocked_scans, n_clusters as u64);
    // Bytes: each cluster streamed exactly once. Four one-query batches
    // over the same probe lists must cost 4× the bytes.
    let hot_once = stats.hot_bytes_scanned;
    let cold_once = stats.cold_bytes_scanned;
    for q in &queries {
        let _ = scan_lists_store(&snap, q, &all, 3);
    }
    let after = store.stats();
    assert_eq!(after.hot_bytes_scanned - hot_once, 4 * hot_once);
    assert_eq!(after.cold_bytes_scanned - cold_once, 4 * cold_once);
    assert_eq!(
        after.blocked_scans, stats.blocked_scans,
        "solo scans never block"
    );
}

/// Cluster sizes around the SQ8 block kernel's four-row step, the
/// eight-wide admission chunks, the hot panels' 16-row groups (a ragged
/// last group pads) and two of them, the 64-entry scan buffer and a
/// multi-run cluster; one cluster per size.
const SIZES: [usize; 18] = [
    0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129,
];

/// One cluster per size, each within ±2 of `(apart·c, …, apart·c)`:
/// overlapping at `apart = 0`, and well separated at `apart = 20`, as in
/// the benchmark corpus, where a query near one cluster rules most of the
/// others out.
fn sized_clusters(dim: usize, seed: u64, apart: f32) -> Vec<(Vec<u64>, VecSet)> {
    let mut rng = StdRng::seed_from_u64(seed);
    SIZES
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            let ids: Vec<u64> = (0..n as u64).map(|i| ((c as u64) << 20) | i).collect();
            let vectors = VecSet::from_fn(n, dim, |_, _| {
                apart * c as f32 + rng.random::<f32>() * 4.0 - 2.0
            });
            (ids, vectors)
        })
        .collect()
}

fn bits(hits: &[vlite_ann::Neighbor]) -> Vec<(u64, u32)> {
    hits.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// The counters that count routed work, which pruning never changes:
/// everything but `pairs_pruned`.
fn routed(stats: StoreStats) -> StoreStats {
    StoreStats {
        pairs_pruned: 0,
        ..stats
    }
}

/// The hot tier's per-row reference: the panel kernels' operation order,
/// one `mul_add` per dimension in dimension order, inner product negated.
fn panel_order_score(metric: Metric, query: &[f32], v: &[f32]) -> f32 {
    let terms = query.iter().zip(v);
    match metric {
        Metric::L2 => terms.fold(0.0f32, |acc, (q, x)| (q - x).mul_add(q - x, acc)),
        Metric::InnerProduct => -terms.fold(0.0f32, |acc, (q, x)| q.mul_add(*x, acc)),
    }
}

/// The brute-force oracle on any tier mix: every row of every probed
/// cluster scored alone — in the panel kernels' order on a hot cluster
/// (whatever run of groups a row lands in), through the same kernel
/// table's one-row SQ8 entry on a cold one — into one `TopK`.
fn brute_force(
    store: &TieredStore,
    clusters: &[(Vec<u64>, VecSet)],
    query: &[f32],
    lists: &[u32],
    k: usize,
) -> Vec<vlite_ann::Neighbor> {
    let (metric, snap) = (store.metric(), store.snapshot());
    let kern = vlite_ann::kernel::kernels();
    let folded = store.sq().fold_query(metric, query);
    let mut top = vlite_ann::TopK::new(k);
    let mut one = [0.0f32];
    for &c in lists {
        let (ids, vectors) = &clusters[c as usize];
        for (i, v) in vectors.iter().enumerate() {
            if snap.is_hot(c) {
                one[0] = panel_order_score(metric, query, v);
            } else {
                folded.score_block(&kern, &store.sq().encode(v), &mut one);
            }
            top.push(ids[i], one[0]);
        }
    }
    top.into_sorted()
}

/// The block scan loops against their oracles at every size boundary:
/// blocked batch ≡ one-query batches ≡ a per-row brute force, bit for bit,
/// on all-hot, mixed and all-cold stores — with a duplicate cluster id
/// inside one probe list, an empty probe list, both metrics, and dims
/// below, at and past the kernels' 8-lane steps (6, 64, 100). On every
/// store the routed counters tick exactly as the per-pair loops ticked
/// them: hot bytes are the payload `n · (8 + 4·dim)`, never the padded
/// panels. Well-separated clusters (L2, dims 6 and 64) make pruning
/// fire, batched and alone, without moving a result bit; whatever the
/// overlapping ones allow stays within the routed probes.
#[test]
fn block_scans_match_their_oracles_at_every_size_boundary() {
    let all: Vec<u32> = (0..SIZES.len() as u32).collect();
    let lists: Vec<Vec<u32>> = vec![
        all.clone(),
        all.iter().rev().copied().chain([10, 10]).collect(),
        vec![11, 2, 2, 7],
        vec![],
        vec![9],
    ];
    let k = 7;
    for (dim, metric, apart) in [
        (6, Metric::L2, 0.0),
        (64, Metric::L2, 0.0),
        (64, Metric::InnerProduct, 0.0),
        (100, Metric::L2, 0.0),
        (6, Metric::L2, 20.0),
        (64, Metric::L2, 20.0),
    ] {
        let clusters = sized_clusters(dim, 0xb10c + dim as u64, apart);
        let mut rng = StdRng::seed_from_u64(dim as u64);
        // Query `qi` sits in cluster `3·qi + 5`'s box.
        let queries: Vec<Vec<f32>> = (0..lists.len())
            .map(|qi| {
                let home = apart * ((3 * qi + 5) % SIZES.len()) as f32;
                (0..dim)
                    .map(|_| home + rng.random::<f32>() * 4.0 - 2.0)
                    .collect()
            })
            .collect();
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .zip(&lists)
            .map(|(query, lists)| BatchQuery { query, lists })
            .collect();
        let mixed: Vec<bool> = (0..SIZES.len()).map(|c| c % 2 == 1).collect();
        for hot in [vec![true; SIZES.len()], mixed, vec![false; SIZES.len()]] {
            let tiers: String = hot.iter().map(|&h| if h { 'h' } else { 'c' }).collect();
            let path = temp_path(&format!("sizes-{dim}-{metric:?}-{apart}-{tiers}"));
            let mut store =
                TieredStore::create(&path, dim, metric, &clusters, &hot).expect("creates");
            store.set_ephemeral(true);
            let snap = store.snapshot();

            let blocked = scan_lists_store_batch(&snap, &batch, k);
            let after_batch = store.stats();
            for (qi, q) in batch.iter().enumerate() {
                let solo = scan_lists_store(&snap, q.query, q.lists, k);
                assert_eq!(bits(&blocked[qi]), bits(&solo), "dim {dim} query {qi}");
                let brute = brute_force(&store, &clusters, q.query, q.lists, k);
                assert_eq!(bits(&solo), bits(&brute), "{tiers} dim {dim} query {qi}");
            }
            let after_solo = store.stats();

            // What one probe of cluster c costs, per tier.
            let bytes = |c: u32| {
                let n = SIZES[c as usize] as u64;
                let per = if hot[c as usize] { 4 * dim } else { dim };
                n * (8 + per as u64)
            };
            let mut want_batch = vlite_store::StoreStats::default();
            let mut want_solo = vlite_store::StoreStats::default();
            for &c in &all {
                let probers: Vec<usize> = (0..lists.len())
                    .flat_map(|qi| lists[qi].iter().filter(move |&&l| l == c).map(move |_| qi))
                    .collect();
                if probers.is_empty() {
                    continue;
                }
                let occurrences = probers.len() as u64;
                let multi = probers.iter().any(|&qi| qi != probers[0]);
                // A batch streams each cluster once, so the one-query
                // batches stream it once per query probing it.
                let mut solo_batches = probers.clone();
                solo_batches.dedup();
                let solo_bytes = solo_batches.len() as u64 * bytes(c);
                let batch_bytes = bytes(c);
                if hot[c as usize] {
                    want_batch.hot_probes += occurrences;
                    want_batch.hot_bytes_scanned += batch_bytes;
                    want_solo.hot_bytes_scanned += solo_bytes;
                } else {
                    want_batch.cold_probes += occurrences;
                    want_batch.cold_bytes_scanned += batch_bytes;
                    want_solo.cold_bytes_scanned += solo_bytes;
                }
                want_batch.blocked_scans += u64::from(multi);
            }
            assert_eq!(
                routed(after_batch),
                want_batch,
                "dim {dim}: one blocked batch"
            );
            // The solo reruns probe as often, stream each cluster once per
            // query, and never block.
            want_solo.hot_probes = 2 * want_batch.hot_probes;
            want_solo.cold_probes = 2 * want_batch.cold_probes;
            want_solo.hot_bytes_scanned += want_batch.hot_bytes_scanned;
            want_solo.cold_bytes_scanned += want_batch.cold_bytes_scanned;
            want_solo.blocked_scans = want_batch.blocked_scans;
            assert_eq!(
                routed(after_solo),
                want_solo,
                "dim {dim}: plus the solo reruns"
            );
            assert!(after_solo.pairs_pruned <= want_solo.hot_probes + want_solo.cold_probes);
            if apart > 0.0 {
                assert!(
                    after_batch.pairs_pruned > 0,
                    "{tiers} dim {dim}: batch pruned nothing"
                );
                assert!(
                    after_solo.pairs_pruned > after_batch.pairs_pruned,
                    "{tiers} dim {dim}: one-query batches pruned nothing"
                );
            }
        }
    }
}

/// Pad rows never reach `TopK`. A ragged last group is zero-padded, so
/// against the zero query every pad scores L2 distance 0 — closer than
/// any real row — and inner product −0, tying the real rows. With `k`
/// past the cluster sizes, every hot scan (blocked and solo) must return
/// exactly the probed clusters' real ids, each once, at the real rows'
/// own distances.
#[test]
fn zero_query_never_admits_a_pad_row() {
    let dim = 5;
    let clusters = sized_clusters(dim, 0x9ad, 0.0);
    let all: Vec<u32> = (0..SIZES.len() as u32).collect();
    let zero = vec![0.0f32; dim];
    let k = SIZES.iter().sum::<usize>() + 8;
    for metric in [Metric::L2, Metric::InnerProduct] {
        let path = temp_path(&format!("pads-{metric:?}"));
        let mut store = TieredStore::create(&path, dim, metric, &clusters, &[true; SIZES.len()])
            .expect("creates");
        store.set_ephemeral(true);
        let snap = store.snapshot();
        let mut want: Vec<(u64, u32)> = clusters
            .iter()
            .flat_map(|(ids, vectors)| ids.iter().zip(vectors.iter()))
            .map(|(&id, v)| (id, panel_order_score(metric, &zero, v).to_bits()))
            .collect();
        want.sort_unstable_by_key(|&(id, _)| id);
        let batch = [
            BatchQuery {
                query: &zero,
                lists: &all,
            },
            BatchQuery {
                query: &zero,
                lists: &all,
            },
        ];
        let blocked = scan_lists_store_batch(&snap, &batch, k);
        let solo = scan_lists_store(&snap, &zero, &all, k);
        for hits in [&blocked[0], &blocked[1], &solo] {
            let mut got = bits(hits);
            got.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(got, want, "{metric:?}: exactly the real rows");
        }
        if metric == Metric::L2 {
            assert!(solo[0].distance > 0.0, "a zero-distance pad was admitted");
        }
    }
}

/// A tie at the k-th distance across two clusters is never pruned away:
/// the row with the smaller id wins it, in whichever order the clusters
/// are visited, on both tiers. Integer coordinates in `[0, 255]` make
/// SQ8 lossless here (scale 1, offset 0), so both tiers serve the exact
/// distances 1, 4, 4, 9 and a far cluster that pruning removes.
#[test]
fn a_tie_at_the_kth_distance_keeps_the_smaller_id() {
    let dim = 4;
    let clusters: Vec<(Vec<u64>, VecSet)> = [
        (
            vec![100, 101],
            [[1.0f32, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]],
        ),
        (vec![5, 6], [[0.0, 2.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]]),
        (vec![900, 901], [[255.0; 4], [250.0; 4]]),
    ]
    .into_iter()
    .map(|(ids, rows)| (ids, VecSet::from_fn(rows.len(), dim, |i, j| rows[i][j])))
    .collect();
    let query = [0.0f32; 4];
    let orders: [&[u32]; 2] = [&[0, 1, 2], &[2, 1, 0]];
    for hot in [[true; 3], [false; 3], [false, true, false]] {
        let path = temp_path(&format!("tie-{}", hot.iter().filter(|&&h| h).count()));
        let mut store =
            TieredStore::create(&path, dim, Metric::L2, &clusters, &hot).expect("creates");
        store.set_ephemeral(true);
        let snap = store.snapshot();
        let batch: Vec<BatchQuery<'_>> = orders
            .iter()
            .map(|lists| BatchQuery {
                query: &query,
                lists,
            })
            .collect();
        let want = vec![(100, 1.0f32.to_bits()), (5, 4.0f32.to_bits())];
        for hits in scan_lists_store_batch(&snap, &batch, 2) {
            assert_eq!(bits(&hits), want, "tiers {hot:?}: batched");
        }
        for lists in orders {
            let hits = scan_lists_store(&snap, &query, lists, 2);
            assert_eq!(bits(&hits), want, "tiers {hot:?}: probe order {lists:?}");
        }
        // The far cluster went unscanned on every one of the four scans.
        assert_eq!(store.stats().pairs_pruned, 4, "tiers {hot:?}");
    }
}

/// A query with a NaN component proves nothing, so it prunes nothing:
/// alone it scans every pair, beside finite queries it leaves their
/// pruning and results untouched, and its own top-k (all NaN distances)
/// is the same batched and alone.
#[test]
fn a_nan_query_prunes_nothing() {
    let (dim, k) = (8, 3);
    let clusters = sized_clusters(dim, 0x9a9, 20.0);
    let n_clusters = clusters.len();
    let all: Vec<u32> = (0..n_clusters as u32).collect();
    let finite: Vec<f32> = clusters[6].1.get(3).to_vec();
    let mut nan = finite.clone();
    nan[dim / 2] = f32::NAN;
    for hot in [vec![true; n_clusters], vec![false; n_clusters]] {
        let path = temp_path(&format!("nan-{}", hot[0]));
        let mut store =
            TieredStore::create(&path, dim, Metric::L2, &clusters, &hot).expect("creates");
        store.set_ephemeral(true);
        let snap = store.snapshot();

        let alone = scan_lists_store(&snap, &nan, &all, k);
        assert_eq!(store.stats().pairs_pruned, 0, "a NaN query pruned a pair");
        assert!(alone.iter().all(|n| n.distance.is_nan()));

        let finite_only = scan_lists_store_batch(
            &snap,
            &[BatchQuery {
                query: &finite,
                lists: &all,
            }],
            k,
        );
        let finite_pruned = store.stats().pairs_pruned;
        assert!(finite_pruned > 0, "the finite query pruned nothing");
        let both = scan_lists_store_batch(
            &snap,
            &[
                BatchQuery {
                    query: &nan,
                    lists: &all,
                },
                BatchQuery {
                    query: &finite,
                    lists: &all,
                },
            ],
            k,
        );
        assert_eq!(
            store.stats().pairs_pruned,
            2 * finite_pruned,
            "only the finite query prunes"
        );
        assert_eq!(bits(&both[0]), bits(&alone));
        assert_eq!(bits(&both[1]), bits(&finite_only[0]));
        assert_eq!(
            bits(&both[1]),
            bits(&brute_force(&store, &clusters, &finite, &all, k))
        );
    }
}
