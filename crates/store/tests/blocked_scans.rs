//! Blocked-scan equivalence: a cluster-major batched scan through
//! [`TieredStore`] must return, for every query, exactly what the
//! query-at-a-time path returns — same ids, bit-identical distances —
//! whatever mix of hot arenas and cold SQ8 extents the probe lists hit.
//! The counters must also account a blocked pass correctly: every query
//! counts as a probe, the shared cluster's payload bytes count once.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::{scan_lists_store, scan_lists_store_batch, BatchQuery, Metric, VecSet};
use vlite_store::TieredStore;

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
    /// blocked batch scan ≡ the query-at-a-time scan, per query, bit for
    /// bit. Holds because both paths score through the same kernels and
    /// the same folded query, a row's score does not depend on the run it
    /// sits in, and `TopK`'s `(distance, id)` total order makes the winner
    /// set independent of push order.
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
    // Bytes: each cluster streamed exactly once. A query-at-a-time rerun
    // of the same probe lists must cost 4× the bytes.
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

fn sized_clusters(dim: usize, seed: u64) -> Vec<(Vec<u64>, VecSet)> {
    let mut rng = StdRng::seed_from_u64(seed);
    SIZES
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            let ids: Vec<u64> = (0..n as u64).map(|i| ((c as u64) << 20) | i).collect();
            let vectors = VecSet::from_fn(n, dim, |_, _| rng.random::<f32>() * 4.0 - 2.0);
            (ids, vectors)
        })
        .collect()
}

fn bits(hits: &[vlite_ann::Neighbor]) -> Vec<(u64, u32)> {
    hits.iter().map(|n| (n.id, n.distance.to_bits())).collect()
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

/// The block scan loops against their oracles at every size boundary:
/// blocked batch ≡ query-at-a-time ≡ a per-row brute force, bit for bit —
/// per vector in the panel kernels' order on an all-hot store (whatever
/// run of groups a row lands in), per code row through the same kernel
/// table's one-row SQ8 entry on an all-cold one — with a duplicate
/// cluster id inside one probe list, an empty probe list, both metrics,
/// and dims below, at and past the kernels' 8-lane steps (6, 64, 100).
/// On every store, the mixed hot/cold one included, the counters tick
/// exactly as the per-pair loops ticked them: hot bytes are the payload
/// `n · (8 + 4·dim)`, never the padded panels.
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
    for (dim, metric) in [
        (6, Metric::L2),
        (64, Metric::L2),
        (64, Metric::InnerProduct),
        (100, Metric::L2),
    ] {
        let clusters = sized_clusters(dim, 0xb10c + dim as u64);
        let mut rng = StdRng::seed_from_u64(dim as u64);
        let queries: Vec<Vec<f32>> = (0..lists.len())
            .map(|_| (0..dim).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect())
            .collect();
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .zip(&lists)
            .map(|(query, lists)| BatchQuery { query, lists })
            .collect();
        let mixed: Vec<bool> = (0..SIZES.len()).map(|c| c % 2 == 1).collect();
        let kern = vlite_ann::kernel::kernels();
        for hot in [vec![true; SIZES.len()], mixed, vec![false; SIZES.len()]] {
            let all_hot = hot.iter().all(|&h| h);
            let all_cold = hot.iter().all(|&h| !h);
            let path = temp_path(&format!("sizes-{dim}-{metric:?}-{all_hot}-{all_cold}"));
            let mut store =
                TieredStore::create(&path, dim, metric, &clusters, &hot).expect("creates");
            store.set_ephemeral(true);
            let snap = store.snapshot();

            let blocked = scan_lists_store_batch(&snap, &batch, k);
            let after_batch = store.stats();
            for (qi, q) in batch.iter().enumerate() {
                let solo = scan_lists_store(&snap, q.query, q.lists, k);
                assert_eq!(bits(&blocked[qi]), bits(&solo), "dim {dim} query {qi}");
                if all_hot {
                    let mut top = vlite_ann::TopK::new(k);
                    for &c in q.lists {
                        let (ids, vectors) = &clusters[c as usize];
                        for (i, v) in vectors.iter().enumerate() {
                            top.push(ids[i], panel_order_score(metric, q.query, v));
                        }
                    }
                    let brute = top.into_sorted();
                    assert_eq!(bits(&solo), bits(&brute), "dim {dim} query {qi}");
                }
                if all_cold {
                    let folded = store.sq().fold_query(metric, q.query);
                    let mut top = vlite_ann::TopK::new(k);
                    let mut one = [0.0f32];
                    for &c in q.lists {
                        let (ids, vectors) = &clusters[c as usize];
                        for (i, v) in vectors.iter().enumerate() {
                            folded.score_block(&kern, &store.sq().encode(v), &mut one);
                            top.push(ids[i], one[0]);
                        }
                    }
                    let brute = top.into_sorted();
                    assert_eq!(bits(&solo), bits(&brute), "cold dim {dim} query {qi}");
                }
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
                let (batch_bytes, solo_bytes) = (bytes(c), occurrences * bytes(c));
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
            assert_eq!(after_batch, want_batch, "dim {dim}: one blocked batch");
            // The solo reruns probe as often, stream bytes per probe, and
            // never block.
            want_solo.hot_probes = 2 * want_batch.hot_probes;
            want_solo.cold_probes = 2 * want_batch.cold_probes;
            want_solo.hot_bytes_scanned += want_batch.hot_bytes_scanned;
            want_solo.cold_bytes_scanned += want_batch.cold_bytes_scanned;
            want_solo.blocked_scans = want_batch.blocked_scans;
            assert_eq!(after_solo, want_solo, "dim {dim}: plus the solo reruns");
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
    let clusters = sized_clusters(dim, 0x9ad);
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
