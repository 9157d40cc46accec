//! # VectorLiteRAG
//!
//! A reproduction of *"VectorLiteRAG: Latency-Aware and Fine-Grained
//! Resource Partitioning for Efficient RAG"* (Kim & Mahajan, HPCA 2026):
//! a serving system that co-schedules approximate-nearest-neighbor
//! retrieval and LLM inference on a shared GPU pool, partitioning the
//! vector index between CPU and GPUs so that end-to-end SLOs hold under
//! skewed, dynamic workloads.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `vlite-core` | Access-skew profiling, Beta/order-statistic hit-rate estimation, latency-bounded partitioning (Algorithm 1), index splitter, router, dynamic dispatcher, serving pipeline, adaptive update |
//! | [`ann`] | `vlite-ann` | IVF-Flat index (exact coarse quantizer, L2 or inner product), k-means, SQ8 scalar quantizer, runtime-dispatched SIMD kernels, recall/NDCG |
//! | [`llm`] | `vlite-llm` | Continuous-batching LLM engine simulator, paged KV cache, model specs, throughput probes |
//! | [`serve`] | `vlite-serve` | Real-time serving runtime: multi-tenant weighted-fair admission, dynamic batching, shard workers gathered by the batcher, retrieval → LLM co-scheduling with TTFT accounting, online SLO-aware repartitioning with live tier migration, real/virtual clocks |
//! | [`store`] | `vlite-store` | Tiered vector storage engine: resident full-precision hot arenas + mmap'd SQ8 cold segments (checksummed on-disk format) behind the `ClusterStore` trait, with non-blocking tier migration |
//! | [`sim`] | `vlite-sim` | Virtual time, event queue, device catalog, GPU memory ledgers, Poisson arrivals |
//! | [`workload`] | `vlite-workload` | Skew-calibrated cluster workloads, synthetic corpora, dataset presets |
//! | [`metrics`] | `vlite-metrics` | Latency recorders, lock-free counters/gauges/histograms, span stores, result tables/series |
//!
//! # Quickstart
//!
//! Partition a paper-scale dataset model and serve a Poisson trace:
//!
//! ```
//! use vectorlite_rag::core::{PipelineConfig, RagConfig, RagPipeline, RagSystem, SystemKind};
//!
//! let system = RagSystem::build(RagConfig::tiny(SystemKind::VectorLite));
//! let result = RagPipeline::new(&system).run(&PipelineConfig::new(10.0, 100, 7));
//! println!("SLO attainment: {:.1}%", 100.0 * result.slo_attainment(system.slo_ttft()));
//! assert_eq!(result.completed, 100);
//! ```
//!
//! See `examples/` for richer scenarios and `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vlite_ann as ann;
pub use vlite_core as core;
pub use vlite_llm as llm;
pub use vlite_metrics as metrics;
pub use vlite_serve as serve;
pub use vlite_sim as sim;
pub use vlite_store as store;
pub use vlite_workload as workload;
