//! Serving-runtime configuration.

use std::path::PathBuf;

use vlite_core::{RealConfig, UpdateConfig};
use vlite_llm::{LlmCostModel, ModelSpec};
use vlite_sim::devices;

/// Which latency the control loop's SLO observations are keyed off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloSignal {
    /// Search-stage latency against `slo_search` (retrieval-only servers,
    /// and the default for co-scheduled ones).
    #[default]
    Search,
    /// End-to-end TTFT against [`GenerationConfig::slo_ttft`] — the metric
    /// users actually feel. Requires [`ServeConfig::generation`]; the SLO
    /// half of the drift trigger then reacts to queueing and prefill
    /// pressure in the generation stage, not just the search stage.
    Ttft,
}

/// Online-repartitioning (control-loop) knobs.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Drift-trigger thresholds fed to
    /// [`DriftMonitor`](vlite_core::DriftMonitor).
    pub update: UpdateConfig,
    /// How many recent probe sets the control loop keeps for re-profiling
    /// (the runtime analogue of the offline calibration-query budget).
    pub profile_window: usize,
    /// Minimum observed requests between two repartitions.
    pub cooldown_requests: usize,
    /// Whether a repartition requires the paper's dual condition (SLO
    /// attainment below threshold *and* hit-rate divergence). When `false`,
    /// hit-rate divergence alone triggers — useful on hardware where the
    /// latency side is pure noise (no actual GPUs behind the shard
    /// workers).
    pub require_slo_breach: bool,
    /// Which latency feeds the SLO half of the drift trigger.
    pub slo_signal: SloSignal,
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            update: UpdateConfig::default(),
            profile_window: 2048,
            cooldown_requests: 512,
            require_slo_breach: true,
            slo_signal: SloSignal::Search,
        }
    }
}

/// Generation-stage (retrieval → LLM co-scheduling) knobs.
///
/// When [`ServeConfig::generation`] is set, every merged retrieval result
/// is assembled into a prompt (the retrieved documents priced in tokens)
/// and fed through a [`vlite_llm::LlmEngine`] running on its own worker
/// thread, so a request's lifecycle ends at its generated tokens and its
/// [`timings`](crate::RequestTimings::generation) carry
/// queue/prefill/decode phases and TTFT.
#[derive(Debug, Clone)]
pub struct GenerationConfig {
    /// Iteration latency model (model × device × tensor parallelism).
    pub cost: LlmCostModel,
    /// KV-cache pool bytes available to the engine — what remains of GPU
    /// memory after the vector-index shard takes its partition.
    pub kv_bytes: u64,
    /// Running-batch cap (vLLM `max_num_seqs`).
    pub max_batch: usize,
    /// Prompt tokens admitted into one prefill iteration (vLLM
    /// `max_num_batched_tokens`).
    pub max_prefill_tokens: u64,
    /// Prompt tokens independent of retrieval (instruction + query).
    pub prompt_tokens_base: u64,
    /// Prompt tokens each retrieved document adds.
    pub tokens_per_doc: u64,
    /// Tokens generated per request.
    pub output_tokens: u64,
    /// End-to-end TTFT SLO in seconds (admission → first token), the
    /// target of the report's TTFT attainment rows.
    pub slo_ttft: f64,
    /// KV-aware admission: shed a request at generation enqueue when its
    /// prompt could not be KV-resident (and prefilled) within `slo_ttft`,
    /// instead of letting it queue into a guaranteed SLO miss. A shed
    /// request still receives its retrieval results (with
    /// `timings.generation == None`) and is counted as a TTFT miss in the
    /// submitting tenant's attainment. Off by default.
    pub kv_admission: bool,
}

impl GenerationConfig {
    /// A miniature model on one L40S — fast enough for tests and smoke
    /// runs while keeping realistic prefill/decode proportions.
    pub fn tiny() -> Self {
        Self {
            cost: LlmCostModel::new(ModelSpec::tiny(), devices::l40s(), 1),
            kv_bytes: 2 << 30,
            max_batch: 64,
            max_prefill_tokens: 8192,
            prompt_tokens_base: 64,
            tokens_per_doc: 32,
            output_tokens: 8,
            slo_ttft: 0.25,
            kv_admission: false,
        }
    }

    /// Prompt length for a request whose retrieval merged `n_docs`
    /// documents: the base prompt plus the per-document token cost.
    pub fn prompt_tokens(&self, n_docs: usize) -> u64 {
        self.prompt_tokens_base + self.tokens_per_doc * n_docs as u64
    }

    /// Panics unless the config is servable: positive token counts, a
    /// finite positive TTFT SLO, a positive running-batch cap, and a KV
    /// pool that fits the worst-case request (`top_k` retrieved docs plus
    /// the full output).
    pub(crate) fn validate(&self, top_k: usize) {
        assert!(self.output_tokens > 0, "output_tokens must be positive");
        assert!(
            self.slo_ttft.is_finite() && self.slo_ttft > 0.0,
            "slo_ttft must be positive and finite"
        );
        assert!(self.max_batch > 0, "max_batch must be positive");
        let worst = self.prompt_tokens(top_k).max(1) + self.output_tokens;
        // Size the check with the engine's own allocator so this start-time
        // assert can never drift from the submit-time one inside the worker.
        let capacity = vlite_llm::PagedKvCache::with_bytes(
            self.kv_bytes,
            self.cost.model().kv_bytes_per_token(),
        )
        .capacity_tokens();
        assert!(
            worst <= capacity,
            "a worst-case request needs {worst} KV tokens but the pool holds only {capacity}"
        );
    }
}

/// Deadline-budget (latency-enforcement) knobs.
///
/// `slo_search`/`slo_ttft` are *measured* targets; a [`DeadlinePolicy`]
/// makes latency an *enforced* input. Every admitted request carries an
/// absolute end-to-end deadline (the client's `X-Deadline-Ms`, or
/// [`default_deadline`](DeadlinePolicy::default_deadline)) and, when
/// [`enforce`](DeadlinePolicy::enforce) is on, each stage adapts to the
/// remaining budget — the degradation ladder, in order:
///
/// 1. **Admission shed**: when the estimated queue wait (lane depth over
///    the recent drain rate) already exceeds the whole budget, reject at
///    submit with [`AdmissionError::DeadlineUnmeetable`](crate::AdmissionError).
/// 2. **Queue-expiry shed**: a request whose deadline passed while queued
///    is dropped at batch formation instead of wasting a batch slot.
/// 3. **Probe shrinking**: a request that burned queue budget probes a
///    prefix of its closeness-ordered probe list, scaled to the remaining
///    budget (never below a quarter of the list).
/// 4. **Cold-tier skip**: when the remaining budget cannot absorb a
///    cold-tier (CPU) scan, the query keeps only its fast-tier probes.
/// 5. **Generation shed**: a request whose estimated first token lands
///    past the deadline is shed at generation admission (the retrieval
///    results are still delivered).
///
/// Every rung is counted (`deadline_sheds`, `degraded_probes`,
/// `cold_skips`) and per-stage budget burn is reported, so degradation is
/// observable, never silent. With `enforce == false` the budget is still
/// threaded and *measured* (burn + goodput accounting) but never acted on
/// — the measure-only baseline the perf gate's `deadline_goodput` row
/// compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlinePolicy {
    /// Default end-to-end deadline in seconds stamped on requests that do
    /// not carry their own. `None` leaves such requests unbudgeted (they
    /// are never shed or degraded).
    pub default_deadline: Option<f64>,
    /// Whether stages act on the budget. `false` = measure-only: budget
    /// burn and deadline attainment are reported but nothing is shed or
    /// degraded.
    pub enforce: bool,
    /// Estimated full-probe search-stage cost in seconds (a measured p50
    /// is a good value). Drives probe shrinking: a request whose remaining
    /// budget is below this probes proportionally fewer lists.
    pub est_search: f64,
    /// Estimated extra seconds a cold-tier (CPU/SQ8) scan adds on top of
    /// the fast tier. When the remaining budget is below
    /// `est_search + est_cold`, the query skips its cold-tier probes.
    pub est_cold: f64,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        Self {
            default_deadline: None,
            enforce: false,
            est_search: 0.005,
            est_cold: 0.050,
        }
    }
}

impl DeadlinePolicy {
    /// Panics unless the policy is servable: positive finite estimates and
    /// a positive default deadline when set.
    pub(crate) fn validate(&self) {
        if let Some(d) = self.default_deadline {
            assert!(
                d.is_finite() && d > 0.0,
                "default_deadline must be positive and finite"
            );
        }
        assert!(
            self.est_search.is_finite() && self.est_search > 0.0,
            "est_search must be positive and finite"
        );
        assert!(
            self.est_cold.is_finite() && self.est_cold >= 0.0,
            "est_cold must be non-negative and finite"
        );
    }
}

/// Tiered-storage (vlite-store) knobs.
///
/// Every server scans through a
/// [`TieredStore`](vlite_store::TieredStore): at start-up the runtime
/// detaches the index's flat list payloads into it, clusters the placement
/// marks hot become resident full-precision arenas, cold clusters live in
/// the segment file's mmap'd SQ8 extents, and the control loop moves
/// cluster extents between tiers right after every online repartition
/// without stalling the scans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Directory holding the segment file (`vlite-store.seg`). `None`
    /// uses a per-server temporary directory whose segment is removed at
    /// shutdown; set a real path to persist the segment across restarts —
    /// an existing file is reopened and verified instead of rewritten
    /// (save → load → serve).
    pub dir: Option<PathBuf>,
}

impl StoreConfig {
    /// The segment file this config points at, given a freshly created
    /// temp dir when [`StoreConfig::dir`] is `None`.
    pub(crate) fn segment_path(&self) -> (PathBuf, bool) {
        match &self.dir {
            Some(dir) => (dir.join("vlite-store.seg"), false),
            None => {
                static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                // relaxed: unique-suffix counter; atomicity is all that
                // distinct temp dirs need.
                let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("vlite-store-{}-{n}", std::process::id()));
                (dir.join("vlite-store.seg"), true)
            }
        }
    }
}

/// Causal-tracing, profiling and alerting switch
/// ([`TracePlane`](crate::trace::TracePlane)). Store capacities and the
/// watchdog's target, windows and thresholds are constants in
/// [`crate::trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Master switch, and the gate on per-request capture. When `false` no
    /// spans are recorded (`/v1/traces` lists nothing), no stage section
    /// is timed and the watchdog never fires; the trace/profile/alerts
    /// endpoints answer with empty bodies.
    pub enabled: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// One tenant (SLO class) of the serving runtime.
///
/// Tenants are identified by their index in [`ServeConfig::tenants`]
/// ([`TenantId(i)`](crate::TenantId)). Each tenant owns a bounded admission
/// queue sized by `queue_capacity` — overload by one tenant fills *its*
/// queue and rejects *its* submissions, never a victim's — and the batcher
/// drains the per-tenant queues by smooth weighted round-robin on `weight`,
/// so a backlogged tenant gets at most `weight / Σ weights` of each dynamic
/// batch while other tenants have queued work.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Weighted-fair share of each batch relative to other tenants.
    pub weight: u32,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Search-stage SLO target in seconds for this tenant's attainment
    /// accounting (per-tenant rows of the report).
    pub slo_search: f64,
}

/// Network-frontend knobs
/// ([`HttpFrontend`](crate::http::HttpFrontend)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpConfig {
    /// Listen address, `host:port`. Port `0` lets the OS pick (read the
    /// bound address back from
    /// [`HttpFrontend::addr`](crate::http::HttpFrontend::addr)).
    pub addr: String,
    /// Largest request body accepted; bigger ones are rejected with
    /// `413 Payload Too Large`.
    pub max_body: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_body: 1 << 20,
        }
    }
}

/// Configuration of a [`RagServer`](crate::RagServer).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Offline-stage configuration (index, probes, SLO, shard count).
    pub real: RealConfig,
    /// Admission-queue capacity for the implicit single tenant when
    /// [`ServeConfig::tenants`] is empty; ignored otherwise.
    pub queue_capacity: usize,
    /// Largest batch one launch may absorb.
    pub max_batch: usize,
    /// Control-loop configuration.
    pub control: ControlConfig,
    /// The tenant table. Empty means one implicit tenant with
    /// [`ServeConfig::queue_capacity`] and the global search SLO — the
    /// single-tenant configuration older callers expect.
    pub tenants: Vec<TenantSpec>,
    /// Network-frontend configuration, used when the runtime is exposed
    /// through an [`HttpFrontend`](crate::http::HttpFrontend); inert for
    /// purely in-process servers.
    pub http: HttpConfig,
    /// Generation-stage configuration. `None` serves retrieval only (the
    /// pre-co-scheduling behaviour); `Some` bridges every merged retrieval
    /// into the LLM engine and reports TTFT end to end.
    pub generation: Option<GenerationConfig>,
    /// Tiered-storage configuration: where the segment file lives.
    pub store: StoreConfig,
    /// Deadline-budget policy: default per-request budget, whether stages
    /// enforce it (shed/degrade) or only measure burn, and the cost
    /// estimates the degradation ladder scales against.
    pub deadline: DeadlinePolicy,
    /// Telemetry-plane configuration: the switch (on by default) for the
    /// event journal behind `/v1/events`, and the latency at which a
    /// request's trace is kept as slow. The lock-free aggregates behind
    /// `/v1/report` and `/v1/metrics` always record.
    pub obs: crate::obs::ObsConfig,
    /// Causal-tracing configuration (on by default): the per-request span
    /// trees behind `GET /v1/traces` and `GET /v1/trace/{id}`, the
    /// per-stage section profile behind `GET /v1/profile`, and the SLO
    /// burn-rate watchdog behind `GET /v1/alerts`.
    pub trace: TraceConfig,
}

impl ServeConfig {
    /// Defaults suitable for the small synthetic corpora used in tests.
    pub fn small() -> Self {
        Self {
            real: RealConfig::small(),
            queue_capacity: 4096,
            max_batch: 64,
            control: ControlConfig::default(),
            tenants: Vec::new(),
            http: HttpConfig::default(),
            generation: None,
            store: StoreConfig::default(),
            deadline: DeadlinePolicy::default(),
            obs: crate::obs::ObsConfig::default(),
            trace: TraceConfig::default(),
        }
    }

    /// The tenant table actually served: the configured tenants, or the
    /// implicit single tenant when none are configured.
    ///
    /// # Panics
    ///
    /// Panics if any configured tenant has a zero weight or capacity —
    /// a zero-weight tenant would starve by construction and a zero-capacity
    /// queue rejects everything, both always config bugs.
    pub fn effective_tenants(&self) -> Vec<TenantSpec> {
        if self.tenants.is_empty() {
            return vec![TenantSpec {
                weight: 1,
                queue_capacity: self.queue_capacity,
                slo_search: self.real.slo_search,
            }];
        }
        for (i, spec) in self.tenants.iter().enumerate() {
            assert!(spec.weight > 0, "tenant {i} has zero weight");
            assert!(
                spec.queue_capacity > 0,
                "tenant {i} has zero queue capacity"
            );
            assert!(
                spec.slo_search.is_finite() && spec.slo_search > 0.0,
                "tenant {i} SLO must be positive and finite"
            );
        }
        self.tenants.clone()
    }
}
