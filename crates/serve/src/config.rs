//! Serving-runtime configuration.

use std::path::PathBuf;

use vlite_core::{RealConfig, UpdateConfig};
use vlite_llm::{LlmCostModel, ModelSpec};
use vlite_sim::devices;

use crate::generation::{PROMPT_TOKENS_BASE, TOKENS_PER_DOC};

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
}

impl Default for ControlConfig {
    fn default() -> Self {
        Self {
            update: UpdateConfig::default(),
            profile_window: 2048,
            cooldown_requests: 512,
            require_slo_breach: true,
        }
    }
}

/// Generation-stage (retrieval → LLM co-scheduling) knobs.
///
/// When [`ServeConfig::generation`] is set, every merged retrieval result
/// is assembled into a prompt (the retrieved documents priced in tokens,
/// [`GenerationConfig::prompt_tokens`]) and fed through a
/// [`vlite_llm::LlmEngine`] running on its own worker thread, so a
/// request's lifecycle ends at its generated tokens and its
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
    /// Tokens generated per request.
    pub output_tokens: u64,
    /// End-to-end TTFT SLO in seconds (admission → first token), the
    /// target of the report's TTFT attainment rows. Setting
    /// [`DeadlinePolicy::default_deadline`] to it (with `enforce`) sheds,
    /// at generation admission, every request whose first token cannot
    /// make it.
    pub slo_ttft: f64,
}

impl GenerationConfig {
    /// A miniature model on one L40S — fast enough for tests and smoke
    /// runs while keeping realistic prefill/decode proportions.
    pub fn tiny() -> Self {
        Self {
            cost: LlmCostModel::new(ModelSpec::tiny(), devices::l40s(), 1),
            kv_bytes: 2 << 30,
            max_batch: 64,
            output_tokens: 8,
            slo_ttft: 0.25,
        }
    }

    /// Prompt length for a request whose retrieval merged `n_docs`
    /// documents: the base prompt plus the per-document token cost
    /// ([`PROMPT_TOKENS_BASE`](crate::generation::PROMPT_TOKENS_BASE) +
    /// [`TOKENS_PER_DOC`](crate::generation::TOKENS_PER_DOC) per document).
    pub fn prompt_tokens(&self, n_docs: usize) -> u64 {
        PROMPT_TOKENS_BASE + TOKENS_PER_DOC * n_docs as u64
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
/// 3. **Hot-only batch**: when the tightest remaining budget in a batch is
///    below the full search, the whole batch skips its cold (CPU) share
///    and answers from the fast tier. The batch is the unit because its
///    members reply together: skipping one member's cold probes cannot
///    bring its reply earlier while a batch-mate still scans cold. The
///    trade is that an unbudgeted or loosely budgeted member of a hot-only
///    batch loses its cold probes too; `cold_skips` counts every member
///    that had some.
/// 4. **Generation shed**: a request whose estimated first token lands
///    past the deadline is shed at generation admission (the retrieval
///    results are still delivered). The estimate counts the engine's busy
///    time, the waiting prompts and, when the KV pool is full, the running
///    batch's drain, so with `default_deadline` at
///    [`GenerationConfig::slo_ttft`] this rung is KV-aware admission.
///
/// Rungs 1 and 3 price work with what the server has measured, never
/// with a configured guess: the batcher times every batch from formation
/// to merge, and the admission queue keeps recent averages — jobs per
/// busy second for rung 1, busy seconds per full-search batch for rung
/// 3. Until the meter has measured its number — a cold start, or batches
/// on a virtual clock that take no time — the rung reading it acts on
/// nothing. A hot-only batch cannot measure a full search, so after eight
/// drains without one the estimate is dropped and the next batch runs in
/// full and measures afresh; rung 3 never holds the server hot-only for
/// good. The estimate averages batches of every size, so a lone tight
/// query is priced at the recent batches' cost, not at its own. A member
/// of a hot-only batch still reports the hit rate of its full probe list.
///
/// Every rung is counted (`deadline_sheds`, `cold_skips`) and per-stage
/// budget burn is reported, so degradation is observable, never silent.
/// With `enforce == false` the budget is still threaded and *measured*
/// (burn + goodput accounting) but never acted on — the measure-only
/// baseline the perf gate's `deadline_goodput` row compares against.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeadlinePolicy {
    /// Default end-to-end deadline in seconds stamped on requests that do
    /// not carry their own. `None` leaves such requests unbudgeted (they
    /// are never shed or degraded).
    pub default_deadline: Option<f64>,
    /// Whether stages act on the budget. `false` = measure-only: budget
    /// burn and deadline attainment are reported but nothing is shed or
    /// degraded.
    pub enforce: bool,
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
    /// Master switch, and the gate on per-request capture: the span trees
    /// are the runtime's one per-request record (the event journal keeps
    /// none). When `false` no spans are recorded (`/v1/traces` lists
    /// nothing), no stage section is timed and the watchdog never fires,
    /// so no burn-rate transition reaches the journal either; the
    /// trace/profile/alerts endpoints answer with empty bodies.
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
    /// Deadline-budget policy: the default per-request budget, and whether
    /// stages enforce it (shed/degrade) or only measure burn.
    pub deadline: DeadlinePolicy,
    /// Telemetry-plane configuration: the switch (on by default) for the
    /// journal of runtime events behind `/v1/events`. The lock-free
    /// aggregates behind `/v1/report` and `/v1/metrics` always record.
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
    pub fn effective_tenants(&self) -> Vec<TenantSpec> {
        if self.tenants.is_empty() {
            return vec![TenantSpec {
                weight: 1,
                queue_capacity: self.queue_capacity,
                slo_search: self.real.slo_search,
            }];
        }
        self.tenants.clone()
    }

    /// Panics unless the runtime can serve this config: the one place a
    /// serving config is checked, run once at start, before the offline
    /// build (which checks its own half, [`RealConfig::validate`]). Every
    /// served tenant, the implicit one included, needs a positive weight
    /// and queue capacity and a positive, finite search SLO;
    /// [`max_batch`](Self::max_batch), [`ControlConfig::profile_window`]
    /// and a generation stage's batch cap and output tokens must be
    /// positive, the default deadline (when set) and the TTFT SLO positive
    /// and finite, and the KV pool large enough for the worst-case request
    /// (`top_k` retrieved documents plus the full output).
    pub fn validate(&self) {
        // A zero-weight tenant would starve by construction, and a
        // zero-capacity queue rejects everything.
        for (i, spec) in self.effective_tenants().iter().enumerate() {
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
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(
            self.control.profile_window > 0,
            "profile_window must be positive"
        );
        if let Some(d) = self.deadline.default_deadline {
            assert!(
                d.is_finite() && d > 0.0,
                "default_deadline must be positive and finite"
            );
        }
        if let Some(g) = &self.generation {
            assert!(g.output_tokens > 0, "output_tokens must be positive");
            assert!(
                g.slo_ttft.is_finite() && g.slo_ttft > 0.0,
                "slo_ttft must be positive and finite"
            );
            assert!(g.max_batch > 0, "generation max_batch must be positive");
            let worst = g.prompt_tokens(self.real.top_k) + g.output_tokens;
            // Size the check with the engine's own allocator so this
            // start-time assert can never drift from the submit-time one
            // inside the worker.
            let capacity = vlite_llm::PagedKvCache::with_bytes(
                g.kv_bytes,
                g.cost.model().kv_bytes_per_token(),
            )
            .capacity_tokens();
            assert!(
                worst <= capacity,
                "a worst-case request needs {worst} KV tokens but the pool holds only {capacity}"
            );
        }
    }
}
