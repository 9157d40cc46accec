//! Real-tier retrieval: the full offline + runtime path over an actual
//! IVF index with the one-shot hybrid dispatcher — no cost models.
//!
//! Builds a synthetic Gaussian-mixture corpus, trains a real IVF index,
//! profiles it with wall-clock measurements, partitions it, and serves
//! a batch through one scan worker per shard plus one for the cold probes,
//! verifying that the hybrid path returns exactly what a single-path scan
//! would, and reporting retrieval quality against exhaustive search.
//!
//! Run with:
//! ```sh
//! cargo run --release --example real_retrieval
//! ```

use vectorlite_rag::ann::{eval, FlatIndex, Metric};
use vectorlite_rag::core::{RealConfig, RealDeployment};
use vectorlite_rag::serve::hybrid_search_batch;
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn main() {
    // A corpus large enough for meaningful skew, small enough to be quick.
    let corpus_cfg = CorpusConfig {
        n_vectors: 60_000,
        dim: 48,
        n_centers: 128,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 5,
    };
    println!(
        "generating corpus: {} vectors x {} dims ...",
        corpus_cfg.n_vectors, corpus_cfg.dim
    );
    let corpus = SyntheticCorpus::generate(&corpus_cfg);

    let mut config = RealConfig::small();
    config.ivf = vectorlite_rag::ann::IvfConfig::new(256);
    config.nprobe = 24;
    config.n_shards = 3;
    println!("training IVF index ({} lists) and profiling ...", 256);
    let deployment = RealDeployment::build(&corpus, config).expect("deployment builds");

    println!("\n=== measured profile ===");
    println!(
        "top-20% access share : {:.2}",
        deployment.profile.mean_hit_rate(0.2)
    );
    println!(
        "fitted sigma^2_max   : {:.4}",
        deployment.estimator.sigma2_max()
    );
    println!(
        "coverage decision    : {:.1}%",
        100.0 * deployment.decision.coverage
    );
    println!(
        "GPU-resident bytes   : {:.1} MiB of {:.1} MiB",
        deployment.decision.index_bytes as f64 / (1 << 20) as f64,
        deployment.profile.total_bytes() as f64 / (1 << 20) as f64
    );

    // Serve a batch through the one-shot dispatcher.
    let queries = corpus.queries(16, 99);
    let outcome = hybrid_search_batch(&deployment, &queries);
    println!("\n=== hybrid batch of 16 queries ===");

    // Verify hybrid == plain, and measure quality vs exhaustive search.
    let flat = FlatIndex::new(corpus.vectors.clone(), Metric::L2);
    let mut recall_sum = 0.0;
    let mut ndcg_sum = 0.0;
    for (qi, q) in queries.iter().enumerate() {
        let plain = deployment.search_flat_path(q);
        assert_eq!(
            outcome.results[qi], plain,
            "hybrid diverged from single-path scan"
        );
        let truth = flat.search(q, 10);
        recall_sum += eval::recall_at_k(&truth, &outcome.results[qi], 10);
        ndcg_sum += eval::ndcg_at_k(&truth, &outcome.results[qi], 10);
    }
    println!("hybrid path == single-path scan: verified for all 16 queries");
    println!("mean recall@10 vs exhaustive   : {:.3}", recall_sum / 16.0);
    println!("mean NDCG@10 vs exhaustive     : {:.3}", ndcg_sum / 16.0);
}
