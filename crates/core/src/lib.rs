//! VectorLiteRAG — latency-aware, fine-grained CPU–GPU resource
//! partitioning for Retrieval-Augmented Generation serving.
//!
//! This crate is the paper's contribution (Kim & Mahajan, HPCA 2026),
//! reimplemented in Rust over the substrate crates:
//!
//! 1. **Profiling** ([`AccessProfile`], [`PerfModel`]) — cluster access
//!    skew and piecewise-linear search latency curves from calibration
//!    queries (§IV-A1).
//! 2. **Hit-rate estimation** ([`HitRateEstimator`]) — Beta-distributed
//!    per-query hit rates; batch-minimum by order statistics; the
//!    `HitRate2Coverage` inversion (§IV-A2).
//! 3. **Latency-bounded partitioning** ([`partition`]) — Algorithm 1:
//!    binary search for the largest SLO-compliant cache coverage ρ under
//!    the KV-cache/throughput feedback loop (§IV-A3).
//! 4. **Index splitting** ([`IndexSplit`]) — hot clusters sharded
//!    round-robin by size with a cluster → shard mapping table (§IV-A4).
//! 5. **Distributed runtime** ([`IndexSplit::route`],
//!    [`HybridSearchEngine`], [`RagPipeline`]) — probe pruning by the
//!    split's placement (global cluster ids), dynamic dispatch of
//!    early-finishing queries, co-scheduled LLM serving (§IV-B). The
//!    wall-clock, multi-threaded serving runtime over a real index lives
//!    in the `vlite-serve` crate, consuming [`RealDeployment`] as its
//!    offline artifact.
//! 6. **Adaptive update** ([`DriftMonitor`]/[`run_update_cycle`]) — drift detection and online shard
//!    rebuilds (§IV-B3).
//!
//! Baselines (`CPU-Only`, `DED-GPU`, `ALL-GPU`, `HedraRAG`) are configured
//! through [`RagConfig`]; every evaluation figure of the paper is
//! regenerated by the `vlite-bench` harnesses.
//!
//! # Examples
//!
//! End-to-end partitioning on a paper-scale dataset model:
//!
//! ```
//! use vlite_core::{partition, AccessProfile, HitRateEstimator, PartitionInput, PerfModel,
//!                  SearchCostModel};
//! use vlite_sim::devices;
//! use vlite_workload::DatasetPreset;
//!
//! let preset = DatasetPreset::tiny();
//! let workload = preset.workload(42);
//! let profile = AccessProfile::from_workload(&preset, &workload, 2_000, 42);
//! let estimator = HitRateEstimator::from_profile(&profile);
//! let cost = SearchCostModel::from_preset(
//!     &preset, &workload, &devices::xeon_8462y(), &devices::h100());
//! let perf = PerfModel::from_cost_model(&cost, &[1, 2, 4, 8, 16]);
//!
//! let input = PartitionInput::new(preset.slo_search_ms / 1e3, 24.0, 64 << 30);
//! let decision = partition(&input, &perf, &estimator, &profile);
//! assert!(decision.coverage <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod config;
mod costmodel;
mod hitrate;
mod partition;
mod perfmodel;
mod pipeline;
mod profile;
mod real;
mod router;
mod search_engine;
mod splitter;
pub mod stats;
mod update;

pub use config::{NodeConfig, RagConfig, RagSystem, SystemKind};
pub use costmodel::SearchCostModel;
pub use hitrate::HitRateEstimator;
pub use partition::{partition, place, PartitionDecision, PartitionInput, PlacementPass};
pub use perfmodel::PerfModel;
pub use pipeline::{PipelineConfig, RagPipeline, RunResult};
pub use profile::AccessProfile;
pub use real::{RealConfig, RealDeployment};
pub use router::RoutedQuery;
pub use search_engine::{BatchPlan, HybridSearchEngine, QueryPlan, SearchRequest, SearchStats};
pub use splitter::{IndexSplit, Placement};
pub use update::{run_update_cycle, DriftMonitor, RebuildTiming, UpdateConfig, UpdateCycle};
