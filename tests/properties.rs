//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;

use vectorlite_rag::ann::{merge_sorted, Neighbor, TopK, VecSet};
use vectorlite_rag::core::stats::{expected_batch_min, BetaDist, PiecewiseLinear};
use vectorlite_rag::core::{AccessProfile, HitRateEstimator, IndexSplit, Placement};
use vectorlite_rag::llm::PagedKvCache;
use vectorlite_rag::workload::{ClusterWorkload, DatasetPreset, ZipfSampler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Top-k selection must agree exactly with full sort + truncate.
    #[test]
    fn topk_equals_sorted_truth(distances in prop::collection::vec(0.0f32..1e6, 1..200), k in 1usize..32) {
        let mut top = TopK::new(k);
        for (i, &d) in distances.iter().enumerate() {
            top.push(i as u64, d);
        }
        let got = top.into_sorted();
        let mut truth: Vec<Neighbor> = distances
            .iter()
            .enumerate()
            .map(|(i, &d)| Neighbor::new(i as u64, d))
            .collect();
        truth.sort();
        truth.truncate(k);
        prop_assert_eq!(got, truth);
    }

    /// Merging partial sorted lists equals selecting over their union.
    #[test]
    fn merge_sorted_equals_union_topk(
        a in prop::collection::vec(0.0f32..100.0, 0..50),
        b in prop::collection::vec(0.0f32..100.0, 0..50),
        k in 1usize..16,
    ) {
        let la: Vec<Neighbor> = a.iter().enumerate().map(|(i, &d)| Neighbor::new(i as u64, d)).collect();
        let lb: Vec<Neighbor> = b.iter().enumerate().map(|(i, &d)| Neighbor::new((i + 1000) as u64, d)).collect();
        let merged = merge_sorted(&[la.clone(), lb.clone()], k);
        let mut union: Vec<Neighbor> = la.into_iter().chain(lb).collect();
        union.sort();
        union.truncate(k);
        prop_assert_eq!(merged, union);
    }

    /// Beta CDF is monotone and bounded for any feasible parameters.
    #[test]
    fn beta_cdf_monotone(alpha in 0.05f64..20.0, beta in 0.05f64..20.0) {
        let d = BetaDist::new(alpha, beta);
        let mut prev = 0.0;
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            let f = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-9);
            prev = f;
        }
    }

    /// The batch-minimum expectation never exceeds the mean and decreases
    /// with batch size.
    #[test]
    fn batch_min_below_mean_and_decreasing(mean in 0.05f64..0.95, sigma in 0.005f64..0.2) {
        let var = (4.0 * sigma * mean * (1.0 - mean)).min(0.95 * mean * (1.0 - mean));
        prop_assume!(var > 0.0);
        let d = BetaDist::from_mean_variance(mean, var).unwrap();
        let mut prev = f64::INFINITY;
        for batch in [1usize, 2, 4, 8] {
            let m = expected_batch_min(&d, batch);
            prop_assert!(m <= d.mean() + 2e-3, "E[min of {batch}] {m} above mean {}", d.mean());
            prop_assert!(m <= prev + 1e-9);
            prev = m;
        }
    }

    /// Piecewise-linear fits reproduce their knots exactly.
    #[test]
    fn piecewise_interpolates_knots(points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..20)) {
        // Deduplicate x values (duplicates are averaged by the builder).
        let mut seen = std::collections::BTreeSet::new();
        let unique: Vec<(f64, f64)> = points
            .into_iter()
            .filter(|(x, _)| seen.insert(x.to_bits()))
            .collect();
        let f = PiecewiseLinear::from_points(unique.clone()).unwrap();
        for (x, y) in unique {
            prop_assert!((f.eval(x) - y).abs() < 1e-9);
        }
    }

    /// The paged KV allocator conserves blocks across arbitrary
    /// reserve/free interleavings.
    #[test]
    fn kv_allocator_conserves_blocks(ops in prop::collection::vec((1u64..200, any::<bool>()), 1..60)) {
        let mut kv = PagedKvCache::new(16, 128);
        let mut live = Vec::new();
        for (tokens, free_one) in ops {
            if free_one && !live.is_empty() {
                let handle = live.swap_remove(0);
                kv.free(handle);
            } else if let Some(handle) = kv.try_reserve(tokens) {
                live.push(handle);
            }
            prop_assert!(kv.used_blocks() <= kv.total_blocks());
        }
        for handle in live {
            kv.free(handle);
        }
        prop_assert_eq!(kv.used_blocks(), 0);
    }

    /// Zipf weights are a normalized, descending distribution.
    #[test]
    fn zipf_weights_are_distribution(n in 1usize..500, s in 0.0f64..4.0) {
        let w = ZipfSampler::weights(n, s);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(w.windows(2).all(|p| p[0] >= p[1] - 1e-12));
    }

    /// Probe sets are always distinct clusters of the requested size.
    #[test]
    fn probe_sets_are_distinct(nlist in 16usize..256, seed in 0u64..1000) {
        let nprobe = nlist / 4;
        let wl = ClusterWorkload::new(nlist, nprobe, 1.0, 0);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let probes = wl.gen_probe_set(&mut rng);
        prop_assert!(!probes.is_empty() && probes.len() <= nprobe);
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), probes.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Routing conservation: every probe routes to exactly one destination,
    /// and each hot cluster is listed by exactly its placement's shard, for
    /// arbitrary coverage/shards.
    #[test]
    fn router_conserves_probes(coverage in 0.0f64..1.0, shards in 1usize..6, seed in 0u64..50) {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(seed);
        let profile = AccessProfile::from_workload(&preset, &wl, 300, seed);
        let split = IndexSplit::build(&profile, coverage, shards);
        // Each hot cluster sits in its shard's list; with the lists holding
        // exactly `hot_count` entries, that places each one exactly once.
        let mut gpu_total = 0usize;
        for c in 0..profile.nlist() as u32 {
            if let Placement::Gpu { shard } = split.placement(c) {
                prop_assert!(split.shard_clusters(usize::from(shard)).contains(&c));
                gpu_total += 1;
            }
        }
        prop_assert_eq!(gpu_total, split.hot_count());
        // Conservation check.
        let probes: Vec<u32> = (0..preset.nlist as u32).step_by(3).collect();
        let routed = split.route(&probes);
        prop_assert_eq!(routed.total_probes(), probes.len());
    }

    /// The estimator's coverage inversion is sound: the returned coverage
    /// achieves at least the requested batch-minimum hit rate.
    #[test]
    fn hit_rate_inversion_is_sound(target in 0.05f64..0.9, batch in 1usize..16, seed in 0u64..20) {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(seed);
        let profile = AccessProfile::from_workload(&preset, &wl, 500, seed);
        let est = HitRateEstimator::from_profile(&profile);
        let coverage = est.hit_rate_to_coverage(target, batch);
        prop_assert!((0.0..=1.0).contains(&coverage));
        if coverage < 1.0 {
            prop_assert!(
                est.eta_min(coverage, batch) >= target - 1e-6,
                "coverage {} gives {} < target {}",
                coverage,
                est.eta_min(coverage, batch),
                target
            );
        }
    }

    /// VecSet row selection preserves content.
    #[test]
    fn vecset_select_preserves_rows(n in 1usize..50, dim in 1usize..16) {
        let set = VecSet::from_fn(n, dim, |i, j| (i * dim + j) as f32);
        let rows: Vec<usize> = (0..n).rev().collect();
        let sel = set.select(&rows);
        for (out_row, &src_row) in rows.iter().enumerate() {
            prop_assert_eq!(sel.get(out_row), set.get(src_row));
        }
    }
}
