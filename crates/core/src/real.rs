//! Real-tier deployment: the VectorLiteRAG *offline* stage over an actual
//! [`IvfIndex`] (no cost models): train, replay calibration queries through
//! the coarse quantizer, fit the latency model from wall-clock
//! measurements, then run the placement pass ([`place`]: profile →
//! Algorithm 1 → split) that the online control loop re-runs on live probe
//! sets at every repartition.
//!
//! The *runtime* side — shard workers, the batcher that scans the cold
//! share itself (§IV-B2) and the online control loop — lives in the
//! `vlite-serve` crate, which consumes a [`RealDeployment`] as its offline
//! artifact. This module is deliberately a thin client: everything needed
//! to serve (index, split, perf model, estimator, decision) is exposed as
//! public state. The split keeps only cluster → shard: every shard worker
//! scans the one [`TieredStore`] by global cluster id, so routing needs no
//! shard-local id space.

use std::time::Instant;

use vlite_ann::{IvfConfig, IvfIndex, Neighbor};
use vlite_store::{StoreError, TieredStore};
use vlite_workload::SyntheticCorpus;

use crate::{
    place, AccessProfile, HitRateEstimator, IndexSplit, PartitionDecision, PerfModel, PlacementPass,
};

/// Configuration for a real-tier deployment.
#[derive(Debug, Clone)]
pub struct RealConfig {
    /// IVF configuration for the index.
    pub ivf: IvfConfig,
    /// Probes per query.
    pub nprobe: usize,
    /// Results per query.
    pub top_k: usize,
    /// Calibration queries for profiling.
    pub n_profile_queries: usize,
    /// Search-stage SLO in seconds.
    pub slo_search: f64,
    /// Bare LLM throughput assumed by the partitioner (requests/s).
    pub mu_llm0: f64,
    /// KV bytes available with no index resident.
    pub kv_bytes_full: u64,
    /// Number of shard workers ("GPUs").
    pub n_shards: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pins the split's cache coverage ρ instead of Algorithm 1's decision
    /// (the paper's fixed-ρ ablations, e.g. the Fig. 6 hit-rate violins).
    /// Algorithm 1 still runs and its decision is reported either way.
    pub coverage_override: Option<f64>,
}

impl RealConfig {
    /// Defaults suitable for the small synthetic corpora used in tests.
    pub fn small() -> Self {
        Self {
            ivf: IvfConfig::new(128),
            nprobe: 16,
            top_k: 10,
            n_profile_queries: 512,
            slo_search: 0.030,
            mu_llm0: 50.0,
            kv_bytes_full: 8 << 30,
            n_shards: 2,
            seed: 0x7ea1,
            coverage_override: None,
        }
    }

    /// Panics unless the offline stage can run on this config: at least
    /// one calibration query and one result per query, and a pinned
    /// coverage, when set, inside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.n_profile_queries > 0,
            "n_profile_queries must be positive"
        );
        assert!(self.top_k > 0, "top_k must be positive");
        if let Some(rho) = self.coverage_override {
            assert!(
                (0.0..=1.0).contains(&rho),
                "coverage_override must lie in [0, 1], got {rho}"
            );
        }
    }
}

/// A deployment over a real index: profile, model, decision, split.
#[derive(Debug)]
pub struct RealDeployment {
    /// The trained IVF index.
    pub index: IvfIndex,
    /// Access profile measured by replaying calibration queries.
    pub profile: AccessProfile,
    /// Latency model fitted from wall-clock measurements.
    pub perf: PerfModel,
    /// Hit-rate estimator over the measured profile.
    pub estimator: HitRateEstimator,
    /// Partitioning decision.
    pub decision: PartitionDecision,
    /// The built split; [`IndexSplit::route`] routes each probe list.
    pub router: IndexSplit,
    /// The calibration probe sets' mean hit rate under `router`
    /// ([`PlacementPass::mean_hit`]): the drift monitors' first expectation.
    pub expected_mean_hit: f64,
    /// The deployment configuration.
    pub config: RealConfig,
}

impl RealDeployment {
    /// Runs the full offline stage on a corpus: train the index, probe the
    /// calibration queries, fit the latency model from real measurements,
    /// then run the placement pass on the calibration probe sets.
    ///
    /// # Errors
    ///
    /// Propagates index-training errors.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`RealConfig::validate`].
    pub fn build(corpus: &SyntheticCorpus, config: RealConfig) -> vlite_ann::Result<Self> {
        config.validate();
        let index = IvfIndex::train(&corpus.vectors, &config.ivf)?;
        let calibration = corpus.queries(config.n_profile_queries, config.seed);

        // Access profiling: replay the coarse quantizer.
        let probe_sets = (calibration.iter())
            .map(|q| probe_ids(&index, q, config.nprobe))
            .collect();

        // Latency profiling: wall-clock CQ and LUT timings per batch size.
        let mut samples = Vec::new();
        for &batch in &[1usize, 2, 4, 8, 16] {
            let reps = (32 / batch).max(2);
            let (mut t_cq, mut t_lut) = (0.0f64, 0.0f64);
            for rep in 0..reps {
                let start_q = (rep * batch) % calibration.len().saturating_sub(batch).max(1);
                // vlite-allow(clock-discipline): PerfModel calibration times
                // the real machine; virtualizing it would fit a fiction.
                let t0 = Instant::now();
                let mut probe_lists = Vec::with_capacity(batch);
                for i in 0..batch {
                    let q = calibration.get((start_q + i) % calibration.len());
                    probe_lists.push(index.probe(q, config.nprobe));
                }
                // vlite-allow(clock-discipline): same wall-clock calibration
                // split point as t0 above.
                let cq_done = Instant::now();
                for (i, probes) in probe_lists.iter().enumerate() {
                    let q = calibration.get((start_q + i) % calibration.len());
                    let lists: Vec<u32> = probes.iter().map(|p| p.list).collect();
                    let _ = index.scan_lists(q, &lists, config.top_k);
                }
                // vlite-allow(clock-discipline): same wall-clock calibration
                // split point as t0 above.
                let scan_done = Instant::now();
                t_cq += cq_done.duration_since(t0).as_secs_f64();
                t_lut += scan_done.duration_since(cq_done).as_secs_f64();
            }
            samples.push((batch as f64, t_cq / reps as f64, t_lut / reps as f64));
        }
        let perf = PerfModel::fit(&samples).expect("timing samples are finite");

        let nlist = index.nlist();
        let sizes: Vec<u64> = (0..nlist).map(|l| index.list_len(l) as u64).collect();
        let bytes: Vec<u64> = (0..nlist).map(|l| index.list_bytes(l) as u64).collect();
        let PlacementPass {
            profile,
            estimator,
            decision,
            split: router,
            mean_hit: expected_mean_hit,
            ..
        } = place(&config, &perf, &sizes, &bytes, probe_sets);
        Ok(Self {
            index,
            profile,
            perf,
            estimator,
            decision,
            router,
            expected_mean_hit,
            config,
        })
    }

    /// Plain (non-hybrid) search, for ground-truthing the hybrid path.
    pub fn search_flat_path(&self, query: &[f32]) -> Vec<Neighbor> {
        self.index
            .search(query, self.config.top_k, self.config.nprobe)
    }

    /// Coarse-quantizes one query into its global probe list (the CPU's CQ
    /// stage the serving runtime performs before routing).
    pub fn probe_global(&self, query: &[f32]) -> Vec<u32> {
        probe_ids(&self.index, query, self.config.nprobe)
    }

    /// Builds (or reopens) a [`TieredStore`] at `segment_path` from this
    /// deployment, making the partitioner's placement physical: the
    /// split's hot clusters become resident full-precision arenas, the
    /// cold ones live in the segment's mmap'd SQ8 extents. The index's
    /// flat list payloads are *detached* into the store — after this call
    /// the deployment's bytes genuinely live where the placement says, and
    /// all scanning must go through
    /// [`scan_lists_store`](vlite_ann::scan_lists_store).
    ///
    /// If a segment file already exists at `segment_path` it is reopened
    /// and verified (per-cluster content checksums against the freshly
    /// trained index) instead of rewritten — the save → load → serve path.
    ///
    /// # Errors
    ///
    /// Any segment write/validation error.
    pub fn build_tiered_store(
        &mut self,
        segment_path: &std::path::Path,
    ) -> std::result::Result<TieredStore, StoreError> {
        let lists = self.index.take_flat_lists();
        TieredStore::create_or_open(
            segment_path,
            self.index.dim(),
            self.config.ivf.metric,
            &lists,
            &self.router.hot_flags(),
        )
    }
}

/// The ids of the `nprobe` clusters `index` probes for `query`, nearest
/// first.
fn probe_ids(index: &IvfIndex, query: &[f32], nprobe: usize) -> Vec<u32> {
    index.probe(query, nprobe).iter().map(|p| p.list).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_workload::CorpusConfig;

    fn deployment() -> RealDeployment {
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 6000,
            dim: 16,
            n_centers: 32,
            zipf_exponent: 1.2,
            noise: 0.25,
            seed: 9,
        });
        RealDeployment::build(&corpus, RealConfig::small()).expect("build succeeds")
    }

    fn validate_with(edit: impl FnOnce(&mut RealConfig)) {
        let mut config = RealConfig::small();
        edit(&mut config);
        config.validate();
    }

    #[test]
    #[should_panic(expected = "n_profile_queries must be positive")]
    fn zero_profile_queries_are_refused() {
        validate_with(|c| c.n_profile_queries = 0);
    }

    #[test]
    #[should_panic(expected = "top_k must be positive")]
    fn zero_top_k_is_refused() {
        validate_with(|c| c.top_k = 0);
    }

    #[test]
    #[should_panic(expected = "coverage_override must lie in [0, 1], got NaN")]
    fn nan_coverage_override_is_refused() {
        validate_with(|c| c.coverage_override = Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "coverage_override must lie in [0, 1], got 1.5")]
    fn coverage_override_past_one_is_refused() {
        validate_with(|c| c.coverage_override = Some(1.5));
    }

    #[test]
    fn profile_reflects_real_skew() {
        let d = deployment();
        // Zipf-weighted topics ⇒ skewed cluster accesses on a real index.
        let top20 = d.profile.mean_hit_rate(0.2);
        assert!(
            top20 > 0.3,
            "real access skew too weak: top-20% covers {top20}"
        );
    }

    #[test]
    fn probe_global_matches_index_probe() {
        let d = deployment();
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 6000,
            dim: 16,
            n_centers: 32,
            zipf_exponent: 1.2,
            noise: 0.25,
            seed: 9,
        });
        let queries = corpus.queries(4, 77);
        for q in queries.iter() {
            let direct: Vec<u32> = d
                .index
                .probe(q, d.config.nprobe)
                .iter()
                .map(|p| p.list)
                .collect();
            assert_eq!(d.probe_global(q), direct);
        }
    }

    #[test]
    fn decision_is_well_formed_on_real_measurements() {
        let d = deployment();
        assert!((0.0..=1.0).contains(&d.decision.coverage));
        assert!(d.decision.index_bytes <= d.profile.total_bytes());
        assert!(d.decision.expected_batch >= 1);
    }

    #[test]
    fn tiered_store_makes_the_placement_physical() {
        let mut d = deployment();
        let full_path = d.search_flat_path(&[0.5; 16]);
        let path =
            std::env::temp_dir().join(format!("vlite-real-store-{}.seg", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut store = d.build_tiered_store(&path).expect("store builds");
        store.set_ephemeral(true);

        // The store's tiers mirror the split's placement exactly.
        assert_eq!(store.hot_flags(), d.router.hot_flags());
        let residency = store.residency();
        assert_eq!(residency.total_clusters, d.index.nlist());
        assert_eq!(residency.hot_clusters, d.router.hot_count());

        // The index's own lists were detached: bytes moved into the store.
        assert!(d.index.search(&[0.5; 16], 10, 16).is_empty());

        // Scanning through the store still serves the query (hot clusters
        // exactly, cold ones within SQ8 bounds).
        let probes = d.probe_global(&[0.5; 16]);
        let snapshot = store.snapshot();
        let hits = vlite_ann::scan_lists_store(&snapshot, &[0.5; 16], &probes, 10);
        assert_eq!(hits.len(), 10);
        let full_ids: Vec<u64> = full_path.iter().map(|n| n.id).collect();
        let overlap = hits.iter().filter(|n| full_ids.contains(&n.id)).count();
        assert!(overlap >= 5, "tiered scan diverged badly: {overlap}/10");
    }
}
