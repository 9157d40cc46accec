//! Quickstart: build a VectorLiteRAG deployment and serve a request trace.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vectorlite_rag::core::{PipelineConfig, RagConfig, RagPipeline, RagSystem, SystemKind};
use vectorlite_rag::metrics::fmt_seconds;

fn main() {
    // 1. Configure a deployment: serving system, dataset, model, node.
    //    `tiny` keeps this example fast; see `rag_serving.rs` for the
    //    paper-scale configurations.
    let config = RagConfig::tiny(SystemKind::VectorLite);

    // 2. Run the offline stage: profiling, hit-rate estimation, bare-LLM
    //    throughput measurement, Algorithm 1, index splitting.
    let system = RagSystem::build(config);
    println!("=== offline stage ===");
    println!(
        "cache coverage rho   : {:.1}%",
        100.0 * system.decision.coverage
    );
    println!(
        "GPU-resident index   : {:.1} MiB across {} shards",
        system.decision.index_bytes as f64 / (1 << 20) as f64,
        system.router.n_shards()
    );
    println!("bare LLM throughput  : {:.1} req/s", system.mu_llm0);
    println!(
        "estimated throughput : {:.1} req/s (after KV reduction)",
        system.decision.mu_llm
    );
    println!("expected batch size  : {}", system.decision.expected_batch);
    println!(
        "predicted search lat : {} (budget {})",
        fmt_seconds(system.decision.predicted_latency),
        fmt_seconds(system.decision.tau_s)
    );

    // 3. Serve a Poisson trace through the runtime pipeline.
    let mut result = RagPipeline::new(&system).run(&PipelineConfig::new(12.0, 400, 42));
    println!("\n=== serving 400 requests at 12 req/s ===");
    println!("completed            : {}", result.completed);
    println!("TTFT                 : {}", result.ttft.summary());
    println!("end-to-end           : {}", result.e2e.summary());
    println!("search (incl. queue) : {}", result.search_total.summary());
    println!(
        "mean search batch    : {:.1}",
        result.search_stats.mean_batch()
    );
    println!(
        "TTFT SLO attainment  : {:.1}% (target {})",
        100.0 * result.slo_attainment(system.slo_ttft()),
        fmt_seconds(system.slo_ttft())
    );
}
