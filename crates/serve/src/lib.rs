//! `vlite-serve` — the real-time, wall-clock serving runtime of the
//! VectorLiteRAG reproduction (§IV-B over a real [`vlite_ann::IvfIndex`]).
//!
//! Where `vlite-core`'s [`RagPipeline`](vlite_core::RagPipeline) serves
//! requests in *virtual* time over cost models, this crate runs the paper's
//! coordination structure as a long-lived multi-threaded system:
//!
//! ```text
//!                 ┌────────────────────────────────────────────────┐
//!  submit_for() ─▶│ per-tenant bounded queues (reject the          │
//!                 │ over-quota tenant, never a victim)             │
//!                 └────────────┬───────────────────────────────────┘
//!                              ▼  weighted-fair drain (smooth WRR) +
//!                 ┌────────────────────────┐ on-demand batching
//!                 │ batcher: CQ + routing  │◀──── IndexSplit snapshot (RwLock),
//!                 └──┬─────────────┬───────┘      global cluster ids
//!   pruned, batches  ▼             ▼  cold probes (a lone query:
//!        of two or more               every share, in share order)
//!        ┌──────────────┐   ┌──────────────┐
//!        │ shard workers│   │ batcher scans│
//!        │ ("GPUs")     │   │ the CPU share│
//!        └──────┬───────┘   └──────┬───────┘
//!               │ every share scans the batch's one vlite-store
//!               │ StoreSnapshot, taken at formation, in one blocked call:
//!               │ hot = resident f32 arenas, cold = mmap'd SQ8 extents,
//!               │ tiers moved live by the control loop on repartition
//!               ▼ one share per shard, plus the CPU share
//!        ┌────────────────────────────────┐
//!        │ batcher: gather every share,   │──▶ per-request latencies,
//!        │ merge + deliver each query     │    SLO bookkeeping
//!        └──────┬───────┬─────────────────┘
//!               │       ▼ merged retrievals (co-scheduled servers)
//!               │  ┌────────────────────────────────┐
//!               │  │ generation worker: prompt      │──▶ TTFT + phase
//!               │  │ assembly → rung-4 admission    │    timings, sheds,
//!               │  │ → LlmEngine prefill/decode     │    final responses
//!               │  └────────────────────────────────┘
//!               ▼ observations (hit rate, search-SLO bit, probe set)
//!        ┌────────────────────────────────┐
//!        │ control loop: per-tenant       │──▶ hot-swap new IndexSplit,
//!        │ DriftMonitors → re-profile →   │    then migrate the tiers
//!        │ Algorithm 1 → re-split         │    (queue never drained)
//!        └────────────────────────────────┘
//! ```
//!
//! Every timestamp above is taken on a [`Clock`] — [`RealClock`] (wall
//! time) in production, [`VirtualClock`] (deterministic stepped time) in
//! tests — so the whole co-scheduled pipeline can be driven and asserted
//! to the exact tick without sleeping.
//!
//! - [`RagServer`] — owns the index's centroids, the tiered store that
//!   holds every list payload (flat L2 / inner-product indexes only; the
//!   server has no other scan path), and all runtime threads. A batch of
//!   one query never reaches a shard worker: the batcher scans its every
//!   share itself, sparing two thread hand-offs per request. Its one
//!   constructor, [`RagServer::start`] (or
//!   [`start_with_clock`](RagServer::start_with_clock)), runs the offline
//!   stage from [`ServeConfig::real`], so the runtime serves, places and
//!   re-places from the one config it was started with.
//! - [`ServeConfig`] / [`ControlConfig`] / [`TenantSpec`] — queueing,
//!   batching, online repartitioning, and per-tenant (weight, quota, SLO)
//!   knobs, checked once at start by [`ServeConfig::validate`];
//!   [`TenantId`] names a tenant throughout the pipeline.
//! - [`GenerationConfig`] / [`generation`] — the retrieval → LLM bridge:
//!   retrieved-document token costs, the engine's KV/batch budgets, the
//!   TTFT SLO, and the [`GenerationStage`](generation::GenerationStage)
//!   state machine the worker thread drives.
//! - [`hybrid_search_batch`] — the one-shot batch dispatcher (moved here
//!   from `vlite-core`'s prototype in `real.rs`) over a built
//!   [`RealDeployment`](vlite_core::RealDeployment): one scoped thread per
//!   shard plus one for the cold probes, then one merge per query. The
//!   runtime splits a batch into the same shares, but its batcher scans
//!   the cold share on its own thread beside persistent shard workers.
//! - [`http`] — the hand-rolled HTTP/1.1 network frontend
//!   ([`HttpFrontend`]): `POST /v1/search` (with an `X-Tenant` header),
//!   `GET /v1/report`, `GET /v1/metrics` (Prometheus text exposition),
//!   `GET /v1/traces`, `GET /v1/events`, `GET /v1/tenants` and
//!   `GET /healthz` over `std::net::TcpListener`, thread-per-connection
//!   with keep-alive.
//! - [`obs`] — the telemetry plane ([`ObsPlane`]), the one store of
//!   per-request measurements: every request that ends is recorded once,
//!   lock-free, into counters and stage histograms (global and per
//!   tenant) that both [`ServeReport`] and the `/v1/metrics` scrape are
//!   read from; plus the bounded journal of runtime events
//!   (repartitions, migrations, SLO burn transitions, panics — never a
//!   request).
//! - [`trace`] — the trace plane ([`TracePlane`]): the span store, the one
//!   place a finished request's timeline lives (written once per request
//!   that ends, sheds included, from its [`RequestOutcome`], whose trace
//!   id admission derives before it can refuse) — `GET /v1/traces` lists
//!   its `request` roots, `GET /v1/trace/{id}` drills into one tree and
//!   the batch it links — plus per-stage CPU profiling and the SLO
//!   burn-rate watchdog.
//! - [`loadgen`] — open-loop Poisson load generation with a rotating-hot-set
//!   query source for drift experiments, single- and multi-tenant, in
//!   process or over the HTTP frontend's socket.
//! - [`ServeReport`] — latency summaries (exact count/mean/min/max,
//!   percentiles at most ≈ 9.05 % high), SLO attainment, admission and
//!   repartition accounting for benches and figures, with a per-tenant
//!   breakdown ([`TenantReport`]).
//!
//! # Examples
//!
//! ```
//! use vlite_serve::{RagServer, ServeConfig};
//! use vlite_workload::{CorpusConfig, SyntheticCorpus};
//!
//! let corpus = SyntheticCorpus::generate(&CorpusConfig {
//!     n_vectors: 2_000,
//!     dim: 8,
//!     n_centers: 16,
//!     zipf_exponent: 1.0,
//!     noise: 0.2,
//!     seed: 7,
//! });
//! let server = RagServer::start(&corpus, ServeConfig::small()).expect("server starts");
//! let ticket = server.submit(corpus.vectors.get(0).to_vec()).expect("admitted");
//! let response = ticket.wait().expect("completes");
//! assert_eq!(response.neighbors[0].id, 0); // a vector is its own nearest neighbor
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod config;
mod control;
mod dispatch;
pub mod generation;
pub mod http;
pub mod loadgen;
pub mod obs;
mod queue;
mod report;
mod request;
mod server;
mod sync;
pub mod trace;

pub use clock::{Clock, RealClock, VirtualClock};
pub use config::{
    ControlConfig, DeadlinePolicy, GenerationConfig, HttpConfig, ServeConfig, StoreConfig,
    TenantSpec, TraceConfig,
};
pub use control::{MigrationEvent, RepartitionEvent};
pub use dispatch::{hybrid_search_batch, DispatchOutcome};
pub use http::HttpFrontend;
pub use obs::{BoundedRing, ObsConfig, ObsEvent, ObsPlane, Severity};
pub use report::{ServeReport, StoreReport, TenantReport};
pub use request::{
    AdmissionError, GenerationTimings, RequestTimings, SearchResponse, TenantId, Ticket,
};
pub use server::{RagServer, RequestOutcome, ShedCause};
pub use trace::{AlertLevel, AlertState, AlertTransition, StageProfile, TraceId, TracePlane};
