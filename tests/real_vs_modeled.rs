//! Integration: the real tier (actual IVF index + one-shot dispatcher) and
//! its consistency with the modeled tier's abstractions.

use vectorlite_rag::ann::{eval, FlatIndex, IvfConfig, Metric};
use vectorlite_rag::core::{RealConfig, RealDeployment};
use vectorlite_rag::serve::hybrid_search_batch;
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 12_000,
        dim: 24,
        n_centers: 48,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 21,
    })
}

#[test]
fn real_deployment_full_stack() {
    let corpus = corpus();
    let mut config = RealConfig::small();
    config.ivf = IvfConfig::new(96);
    config.n_shards = 3;
    let deployment = RealDeployment::build(&corpus, config).expect("builds");

    // Offline stage invariants on measured (not modeled) statistics.
    assert!((0.0..=1.0).contains(&deployment.decision.coverage));
    assert!(
        deployment.profile.mean_hit_rate(0.2) > 0.2,
        "measured skew present"
    );
    assert!(deployment.estimator.sigma2_max() > 0.0);

    // Hybrid serving equals the single-path scan exactly, for every query.
    let queries = corpus.queries(10, 33);
    let outcome = hybrid_search_batch(&deployment, &queries);
    assert_eq!(outcome.results.len(), 10);
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(outcome.results[qi], deployment.search_flat_path(q));
    }
}

#[test]
fn real_index_quality_is_high() {
    // Quality of the *index structure* (coarse quantization + routing):
    // the paper's 0.91-NDCG operating point concerns recall of the probed
    // clusters, which full-precision lists measure without code error.
    let corpus = corpus();
    let mut config = RealConfig::small();
    config.ivf = IvfConfig::new(96);
    config.nprobe = 24;
    let deployment = RealDeployment::build(&corpus, config).expect("builds");
    let flat = FlatIndex::new(corpus.vectors.clone(), Metric::L2);
    let queries = corpus.queries(20, 44);
    let (mut ndcg, mut recall) = (0.0, 0.0);
    for q in queries.iter() {
        let truth = flat.search(q, 10);
        let approx = deployment.search_flat_path(q);
        ndcg += eval::ndcg_at_k(&truth, &approx, 10);
        recall += eval::recall_at_k(&truth, &approx, 10);
    }
    ndcg /= 20.0;
    recall /= 20.0;
    assert!(ndcg > 0.9, "NDCG@10 too low: {ndcg}");
    assert!(recall > 0.9, "recall@10 too low: {recall}");
}

#[test]
fn real_profile_feeds_the_same_estimator_api() {
    // The modeled and real tiers share AccessProfile/HitRateEstimator —
    // verify the measured profile supports the full estimation chain.
    let corpus = corpus();
    let deployment = RealDeployment::build(&corpus, RealConfig::small()).expect("builds");
    let est = &deployment.estimator;
    let m1 = est.eta_min(0.2, 1);
    let m8 = est.eta_min(0.2, 8);
    assert!(m8 <= m1 + 1e-9, "order statistic must not grow with batch");
    let cov = est.hit_rate_to_coverage(m8.max(0.01), 8);
    assert!((0.0..=1.0).contains(&cov));
}
