//! The long-lived serving runtime: admission → batcher → shard workers (the
//! batcher scans the CPU share itself) → batcher merge → control loop.
//!
//! This generalizes the one-shot dispatcher (`dispatch.rs`, formerly
//! `vlite-core`'s `real.rs`) into persistent threads coordinated through
//! channels: the batcher, one worker per shard and the control loop
//! (`n_shards + 2` threads), plus the generation worker when generation is
//! configured. One batch is in flight at a time — the paper's on-demand
//! batching: the batcher launches the moment the engine goes idle,
//! absorbing everything queued (§VI-B). It hands the batch to every shard
//! worker, scans the cold (CPU) share on its own thread meanwhile, gathers
//! exactly one share from each shard, then merges, records and replies for
//! every query in batch order. A batch's queries therefore finish
//! together: the cold scan is one blocked pass over the whole batch, so no
//! query's CPU share is done before another's. Admission, generation and
//! the control loop — which also moves the store's tiers after each
//! repartition — run concurrently with the scan.
//!
//! Admission is multi-tenant: each tenant owns a bounded queue
//! ([`TenantSpec::queue_capacity`](crate::TenantSpec)) and the batcher
//! drains tenants by smooth weighted round-robin, so one tenant's overload
//! fills (and sheds from) its own queue while other tenants keep their
//! weighted share of every batch.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};

use vlite_ann::{merge_sorted, scan_lists_store_batch, BatchQuery, IvfIndex, Neighbor};
use vlite_core::{PartitionDecision, PartitionInput, RealDeployment, RoutedQuery, Router};
use vlite_sim::{SimDuration, SimTime};
use vlite_store::TieredStore;
use vlite_workload::SyntheticCorpus;

use crate::clock::{Clock, RealClock};
use crate::config::{
    DeadlinePolicy, GenerationConfig, ServeConfig, SloSignal, StoreConfig, TenantSpec,
};
use crate::control::{ControlLoop, MigrationEvent, Observation, RepartitionEvent};
use crate::generation::{generation_worker, GenWork};
use crate::obs::{
    prom_counter, prom_gauge, prom_label_escape, BoundedRing, ObsPlane, Severity, HISTORY_CAPACITY,
};
use crate::queue::AdmissionQueue;
use crate::report::{ServeReport, StoreReport};
use crate::request::{AdmissionError, Job, RequestTimings, SearchResponse, TenantId, Ticket};
use crate::trace::{
    AlertLevel, BatchCtx, TraceId, TracePlane, SIG_DEADLINE, SIG_SEARCH, SIG_TTFT, STAGE_BATCHER,
    STAGE_CPU_SCAN, STAGE_DISPATCH, STAGE_SHARD_SCAN,
};

/// One batch travelling from the batcher to the shard workers.
struct BatchWork {
    jobs: Vec<Job>,
    routed: Vec<RoutedQuery>,
    started: SimTime,
    generation: u64,
    /// The shared batch span every member's trace links to (`None` when
    /// tracing is disabled).
    trace: Option<BatchCtx>,
}

/// One shard worker's share of a batch: the shard's index and one partial
/// top-k per query, in batch order.
type Share = (usize, Vec<Vec<Neighbor>>);

/// The batcher's handles on the shard workers: one work channel per shard
/// and the channel their shares come back on.
struct ScanPool {
    work: Vec<Sender<Arc<BatchWork>>>,
    done: Receiver<Share>,
}

/// Why a request ended without full service — one rung of the deadline
/// degradation ladder, or KV-aware generation admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedCause {
    /// Rung 1: the estimated queue wait already exceeded the whole budget,
    /// so the submission was refused.
    Admission {
        /// The estimated queue wait in seconds.
        estimated_wait: f64,
    },
    /// Rung 2: the deadline passed while the request queued.
    QueueExpired,
    /// KV-aware generation admission: estimated TTFT past `slo_ttft`.
    GenKv,
    /// Rung 5: estimated first token past the request's own deadline.
    GenDeadline,
}

impl ShedCause {
    /// Generation sheds still deliver the retrieval results, so they count
    /// as completed replies; admission and queue sheds never reply.
    fn replies(self) -> bool {
        matches!(self, ShedCause::GenKv | ShedCause::GenDeadline)
    }

    /// The `DEADLINE_STAGE_*` counter this shed ticks (KV sheds are not
    /// deadline sheds).
    fn deadline_stage(self) -> Option<usize> {
        match self {
            ShedCause::Admission { .. } => Some(crate::obs::DEADLINE_STAGE_ADMISSION),
            ShedCause::QueueExpired => Some(crate::obs::DEADLINE_STAGE_QUEUE),
            ShedCause::GenKv => None,
            ShedCause::GenDeadline => Some(crate::obs::DEADLINE_STAGE_GENERATION),
        }
    }

    /// The `shed:{reason}` marker name in the request's span tree.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            ShedCause::Admission { .. } => "shed:admission",
            ShedCause::QueueExpired => "shed:queue-expired",
            ShedCause::GenKv => "shed:kv-admission",
            ShedCause::GenDeadline => "shed:gen-deadline",
        }
    }
}

/// Everything the runtime knows about one request at the instant its
/// lifecycle ends. The five terminal sites build one and hand it to
/// `Shared::record_outcome`, which feeds the aggregates and passes it whole
/// to [`TracePlane::record_request`]; nothing else records per-request
/// telemetry.
#[derive(Debug)]
pub struct RequestOutcome {
    /// Request id (assigned at admission).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// `None` only for an admission shed whose caller sent no trace id
    /// (nothing derives one for a request that never became a job).
    pub trace: Option<TraceId>,
    /// The batch trace the request's search rode, when it reached a batch.
    pub batch_trace: Option<u128>,
    /// Admission instant on the server's clock.
    pub enqueued: SimTime,
    /// The instant the reply (or the shed) left the runtime.
    pub end: SimTime,
    /// The request's stage timings (what its reply carries).
    pub timings: RequestTimings,
    /// The request's cache hit rate under the placement that served it.
    pub hit_rate: f64,
    /// Absolute end-to-end deadline, when the request carried a budget.
    pub deadline: Option<SimTime>,
    /// Seconds spent in the generation stage (merge → last token), for
    /// requests that ran it.
    pub gen_busy: Option<f64>,
    /// Why the request ended without full service, if it did.
    pub shed: Option<ShedCause>,
}

/// The installed placement: router plus its generation, swapped together
/// under one lock so a batch can never pair a router snapshot with the
/// wrong generation stamp.
pub(crate) struct PlacementState {
    pub router: Arc<Router>,
    pub generation: u64,
}

/// State shared by every runtime thread.
pub(crate) struct Shared {
    pub(crate) index: IvfIndex,
    pub(crate) placement: RwLock<PlacementState>,
    pub(crate) queue: AdmissionQueue,
    /// Worker scans that panicked and were degraded to empty partials
    /// (availability over exactness; surfaced in the report).
    pub(crate) worker_panics: AtomicU64,
    pub(crate) tenants: Vec<TenantSpec>,
    /// Online repartitions, newest-capped: a long-lived server keeps the
    /// most recent [`HISTORY_CAPACITY`] events instead of growing without
    /// bound (evictions counted).
    pub(crate) repartitions: BoundedRing<RepartitionEvent>,
    /// Tier migrations applied by the control loop, in order, same cap
    /// discipline as `repartitions`.
    pub(crate) migrations: BoundedRing<MigrationEvent>,
    /// The telemetry plane: every per-request aggregate (lock-free
    /// counters/histograms) and the event journal.
    pub(crate) obs: Arc<ObsPlane>,
    /// The span store (every finished request's tree, batch and migration
    /// traces), per-stage CPU profiling and the SLO burn-rate watchdog
    /// (cheap no-ops when disabled by config).
    pub(crate) trace: Arc<TracePlane>,
    /// The tiered storage engine every scan reads through; the index
    /// keeps only the centroids.
    pub(crate) store: Arc<TieredStore>,
    pub(crate) nprobe: usize,
    pub(crate) top_k: usize,
    pub(crate) n_shards: usize,
    pub(crate) slo_search: f64,
    /// The clock every runtime timestamp is taken on.
    pub(crate) clock: Arc<dyn Clock>,
    /// Generation-stage config; `None` serves retrieval only.
    pub(crate) generation: Option<GenerationConfig>,
    /// Which latency feeds the control loop's SLO observations.
    pub(crate) slo_signal: SloSignal,
    /// Deadline-budget policy every stage consults.
    pub(crate) deadline: DeadlinePolicy,
}

impl Shared {
    /// Admission feasibility (rung 1 of the degradation ladder): when the
    /// estimated queue wait alone already exceeds the whole budget,
    /// queueing the request would only burn a batch slot on a guaranteed
    /// miss — shed it now so the client can retry elsewhere. The shed is
    /// fully accounted here (through [`Shared::record_outcome`]); callers
    /// just propagate the error. Measure-only policies never shed.
    pub fn shed_if_unmeetable(
        &self,
        id: u64,
        tenant: TenantId,
        trace: Option<TraceId>,
        budget: Option<f64>,
        now: SimTime,
    ) -> Result<(), AdmissionError> {
        if !self.deadline.enforce {
            return Ok(());
        }
        let (Some(budget), Some(wait)) = (budget, self.queue.estimated_wait(tenant)) else {
            return Ok(());
        };
        if wait <= budget {
            return Ok(());
        }
        self.record_outcome(&RequestOutcome {
            id,
            tenant,
            trace,
            batch_trace: None,
            enqueued: now,
            end: now,
            timings: RequestTimings {
                queue: 0.0,
                search: 0.0,
                e2e: 0.0,
                generation: None,
            },
            hit_rate: 0.0,
            deadline: Some(deadline_after(now, budget)),
            gen_busy: None,
            shed: Some(ShedCause::Admission {
                estimated_wait: wait,
            }),
        });
        Err(AdmissionError::DeadlineUnmeetable {
            tenant,
            budget,
            estimated_wait: wait,
        })
    }

    /// Records one request that has reached its end — the *only* code that
    /// touches per-request aggregates, budget burn, the shed/SLO-breach
    /// journal, the span tree and the burn-rate watchdog. Callers record
    /// before sending the reply, so a `ticket.wait()` followed by
    /// `report()` always sees the request.
    pub(crate) fn record_outcome(&self, o: &RequestOutcome) {
        let obs = &self.obs;
        let t = &o.timings;
        let replied = o.shed.is_none_or(ShedCause::replies);
        let budget = o
            .deadline
            .map(|d| d.duration_since(o.enqueued).as_secs_f64().max(1e-12));
        // A request shed without a reply missed its deadline by definition,
        // whatever the instant of the shed.
        let on_time = o.deadline.map(|d| replied && o.end <= d);

        if let Some(stage) = o.shed.and_then(ShedCause::deadline_stage) {
            obs.deadline_sheds[stage].inc();
        }
        // An admission shed never queued: it has no burn to record.
        let queued = !matches!(o.shed, Some(ShedCause::Admission { .. }));
        if let Some(budget) = budget.filter(|_| queued) {
            obs.on_budget_burn(crate::obs::BURN_STAGE_QUEUE, t.queue / budget);
            if replied {
                obs.on_budget_burn(crate::obs::BURN_STAGE_SEARCH, t.search / budget);
            }
            if let Some(busy) = o.gen_busy {
                obs.on_budget_burn(crate::obs::BURN_STAGE_GENERATION, busy / budget);
            }
        }

        if replied {
            let search_met = t.search <= self.slo_search;
            // Sheds never produce a first token: they count as TTFT misses.
            let ttft_met = self
                .generation
                .as_ref()
                .map(|g| t.generation.is_some_and(|gen| gen.ttft <= g.slo_ttft));
            match on_time {
                Some(true) => obs.deadline_met.inc(),
                Some(false) => obs.deadline_missed.inc(),
                None => {}
            }
            let tenant_search_met = t.search <= self.tenants[o.tenant.index()].slo_search;
            obs.on_request(o, search_met, tenant_search_met, ttft_met);
            self.watch_slo(SIG_SEARCH, search_met, o.end);
            if let Some(ttft_met) = ttft_met {
                self.watch_slo(SIG_TTFT, ttft_met, o.end);
            }
        }

        // Skipped with the journal off: a shed flood should not pay for
        // formatting lines nobody keeps.
        if let Some(cause) = o.shed.filter(|_| obs.enabled()) {
            let budget_ms = budget.unwrap_or(0.0) * 1e3;
            let gen_shed = |why: &str| {
                format!(
                    "request {} ({}) shed by {why} after {:.4}s of retrieval",
                    o.id, o.tenant, t.e2e
                )
            };
            let (kind, detail) = match cause {
                ShedCause::Admission { estimated_wait } => (
                    "deadline-shed",
                    format!(
                        "{} submission shed at admission: budget {budget_ms:.1} ms < \
                         estimated queue wait {:.1} ms",
                        o.tenant,
                        estimated_wait * 1e3
                    ),
                ),
                ShedCause::QueueExpired => (
                    "deadline-shed",
                    format!(
                        "request {} ({}) expired in queue: {:.1} ms queued of a \
                         {budget_ms:.1} ms budget",
                        o.id,
                        o.tenant,
                        t.queue * 1e3
                    ),
                ),
                ShedCause::GenKv => ("shed", gen_shed("KV-aware admission")),
                ShedCause::GenDeadline => (
                    "deadline-shed",
                    gen_shed("deadline-aware generation admission"),
                ),
            };
            obs.journal(o.end.as_nanos(), Severity::Warn, kind, detail);
        }

        self.trace.record_request(o);
        if let Some(on_time) = on_time {
            self.watch_slo(SIG_DEADLINE, on_time, o.end);
        }
    }

    /// Feeds one SLO attainment observation into the burn-rate watchdog,
    /// journaling any alert-level transition with the matching severity so
    /// `/v1/events` carries the escalation/recovery timeline.
    fn watch_slo(&self, signal: usize, ok: bool, now: SimTime) {
        if let Some(tr) = self.trace.observe_slo(signal, ok, now) {
            let severity = match tr.to {
                AlertLevel::Critical => Severity::Critical,
                AlertLevel::Warn => Severity::Warn,
                AlertLevel::Ok => Severity::Info,
            };
            self.obs.journal(
                now.as_nanos(),
                severity,
                "slo_burn",
                format!(
                    "{} burn {} -> {} (fast {:.2}x, slow {:.2}x of error budget)",
                    tr.signal,
                    tr.from.as_str(),
                    tr.to.as_str(),
                    tr.fast_burn,
                    tr.slow_burn
                ),
            );
        }
    }

    pub fn record_repartition(&self, event: RepartitionEvent) {
        let now = self.clock.now();
        // The hot swap is one pointer store, so the repartition records as
        // a zero-width span — its value is the links to the batch (and
        // member requests) it raced with.
        self.trace.record_migration("repartition", now, now);
        self.obs.journal(
            now.as_nanos(),
            Severity::Info,
            "repartition",
            format!(
                "generation {} tripped by {} (coverage {:.3} -> {:.3}, hot overlap {:.2}, \
                 queue depth {} at swap)",
                event.generation,
                event.triggered_by,
                event.old_coverage,
                event.new_coverage,
                event.hot_overlap,
                event.queue_depth_at_swap
            ),
        );
        self.repartitions.push(event);
    }

    /// Records one applied tier migration (ring + journal).
    pub fn record_migration(&self, event: MigrationEvent) {
        self.obs.journal(
            self.clock.now().as_nanos(),
            Severity::Info,
            "migration",
            format!(
                "store generation {} for placement {} (promoted {}, demoted {}, \
                 +{} B / -{} B)",
                event.store_generation,
                event.placement_generation,
                event.promoted,
                event.demoted,
                event.bytes_promoted,
                event.bytes_demoted
            ),
        );
        self.migrations.push(event);
    }

    /// Snapshot of the installed placement.
    pub fn placement_snapshot(&self) -> (Arc<Router>, u64) {
        let guard = crate::sync::read_recover(&self.placement);
        (guard.router.clone(), guard.generation)
    }

    /// Installs a new router, advancing the generation atomically with it.
    /// Returns the new generation.
    pub fn install_placement(&self, router: Router) -> u64 {
        let mut guard = crate::sync::write_recover(&self.placement);
        guard.router = Arc::new(router);
        guard.generation += 1;
        guard.generation
    }
}

/// The serving runtime. See the crate docs for the thread topology.
///
/// Dropping the server without calling [`RagServer::shutdown`] tears the
/// threads down the same way (backlog served, then exit).
pub struct RagServer {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    decision: PartitionDecision,
    expected_mean_hit: f64,
}

impl std::fmt::Debug for RagServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RagServer")
            .field("generation", &self.placement_generation())
            .field("queue_depth", &self.shared.queue.depth())
            .finish_non_exhaustive()
    }
}

impl RagServer {
    /// Runs the offline stage on `corpus` (train, profile, Algorithm 1,
    /// split) and starts the runtime on the wall clock.
    ///
    /// # Errors
    ///
    /// Propagates index-training errors.
    pub fn start(corpus: &SyntheticCorpus, config: ServeConfig) -> vlite_ann::Result<RagServer> {
        Self::start_with_clock(corpus, config, Arc::new(RealClock::new()))
    }

    /// [`RagServer::start`] on an explicit [`Clock`] — pass a
    /// [`VirtualClock`](crate::VirtualClock) for deterministic tests.
    ///
    /// # Errors
    ///
    /// Propagates index-training errors.
    pub fn start_with_clock(
        corpus: &SyntheticCorpus,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> vlite_ann::Result<RagServer> {
        let deployment = RealDeployment::build(corpus, config.real.clone())?;
        Ok(Self::from_deployment_with_clock(deployment, config, clock))
    }

    /// Starts the runtime over an already-built offline deployment, on the
    /// wall clock.
    ///
    /// # Panics
    ///
    /// As [`RagServer::from_deployment_with_clock`].
    pub fn from_deployment(deployment: RealDeployment, config: ServeConfig) -> RagServer {
        Self::from_deployment_with_clock(deployment, config, Arc::new(RealClock::new()))
    }

    /// Starts the runtime over an already-built offline deployment on an
    /// explicit [`Clock`].
    ///
    /// # Panics
    ///
    /// Panics if the tiered store cannot be built or reopened, if the
    /// deployment has no shards, if the tenant table is invalid (zero weight or
    /// capacity), if the generation config has a zero batch cap or cannot
    /// fit its worst-case request in KV, or if the control loop is keyed
    /// off TTFT without a generation stage.
    pub fn from_deployment_with_clock(
        mut deployment: RealDeployment,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> RagServer {
        let store = open_store(&mut deployment, &config.store);
        let RealDeployment {
            index,
            profile,
            perf,
            decision,
            router,
            ..
        } = deployment;
        let n_shards = router.split().n_shards();
        assert!(n_shards > 0, "need at least one shard worker");
        let tenants = config.effective_tenants();
        if let Some(generation) = &config.generation {
            generation.validate(config.real.top_k);
        }
        config.deadline.validate();
        assert!(
            config.control.slo_signal == SloSignal::Search || config.generation.is_some(),
            "TTFT-keyed control observations require a generation stage"
        );
        // Expected mean hit rate, measured with the *same statistic* the
        // batcher will observe (per-query GPU-probe fraction over the
        // calibration probe sets) — the estimator's modeled mean is
        // access-weighted and systematically biased against it, which would
        // make the drift monitor's divergence trigger fire without drift.
        let expected_mean_hit = empirical_mean_hit(&router, profile.probe_sets());

        // Trace-id derivation is seeded by a constant so a given server
        // replays the same ids for the same request sequence (deterministic
        // virtual-clock tests); uniqueness only matters within one server.
        let trace = Arc::new(TracePlane::new(
            &config.trace,
            config.obs.slow_threshold_s,
            0x766c_6974_6531,
        ));

        let shared = Arc::new(Shared {
            index,
            placement: RwLock::new(PlacementState {
                router: Arc::new(router),
                generation: 0,
            }),
            queue: AdmissionQueue::new(&tenants),
            worker_panics: AtomicU64::new(0),
            obs: Arc::new(ObsPlane::new(&config.obs, tenants.len())),
            tenants,
            repartitions: BoundedRing::new(HISTORY_CAPACITY),
            migrations: BoundedRing::new(HISTORY_CAPACITY),
            trace,
            store,
            nprobe: config.real.nprobe,
            top_k: config.real.top_k,
            n_shards,
            slo_search: config.real.slo_search,
            clock,
            generation: config.generation.clone(),
            slo_signal: config.control.slo_signal,
            deadline: config.deadline.clone(),
        });

        // vlite-allow(bounded-queues): one observation per completed
        // request; bounded by the admission queue upstream.
        let (control_tx, control_rx) = channel::unbounded::<Observation>();
        let (pool, mut threads) = spawn_scan_workers(&shared);

        // Generation stage (optional): the batcher forwards merged
        // retrievals to this worker, which runs the LLM engine against the
        // clock and delivers the final (post-decode) responses.
        let gen_tx = config.generation.as_ref().map(|generation| {
            // vlite-allow(bounded-queues): fed only with admitted, merged
            // retrievals; KV-aware admission sheds before this can grow.
            let (gen_tx, gen_rx) = channel::unbounded::<GenWork>();
            let shared_ = shared.clone();
            let generation = generation.clone();
            let gen_control_tx = control_tx.clone();
            threads.push(spawn_named("vlite-generate", move || {
                generation_worker(&shared_, &generation, &gen_rx, &gen_control_tx);
            }));
            gen_tx
        });

        let shared_ = shared.clone();
        let max_batch = config.max_batch;
        threads.push(spawn_named("vlite-batcher", move || {
            batcher(&shared_, max_batch, &pool, &control_tx, gen_tx.as_ref());
        }));

        {
            let input = PartitionInput::new(
                config.real.slo_search,
                config.real.mu_llm0,
                config.real.kv_bytes_full,
            );
            let sizes: Vec<u64> = (0..profile.nlist() as u32)
                .map(|c| profile.size(c))
                .collect();
            let bytes: Vec<u64> = (0..profile.nlist() as u32)
                .map(|c| profile.bytes_of(c))
                .collect();
            let control = ControlLoop::new(
                shared.clone(),
                config.control.clone(),
                expected_mean_hit,
                input,
                perf,
                config.real.coverage_override,
                sizes,
                bytes,
            );
            threads.push(spawn_named("vlite-control", move || {
                control.run(control_rx)
            }));
        }

        RagServer {
            shared,
            threads,
            next_id: AtomicU64::new(0),
            decision,
            expected_mean_hit,
        }
    }

    /// Submits one query as tenant 0 (the only tenant in single-tenant
    /// configurations) through admission control.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] under overload,
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, query: Vec<f32>) -> Result<Ticket, AdmissionError> {
        self.submit_for(TenantId(0), query)
    }

    /// Submits one query for `tenant` through admission control. Rejection
    /// charges this tenant's quota only.
    ///
    /// The request's deadline budget is the policy default
    /// ([`DeadlinePolicy::default_deadline`]); use
    /// [`RagServer::submit_with_deadline`] for a per-request budget.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when this tenant's queue is at
    /// capacity, [`AdmissionError::UnknownTenant`] for an id outside the
    /// tenant table, [`AdmissionError::InvalidQuery`] for a wrong-dimension
    /// or non-finite query, [`AdmissionError::DeadlineUnmeetable`] when an
    /// enforced budget cannot survive the estimated queue wait,
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn submit_for(&self, tenant: TenantId, query: Vec<f32>) -> Result<Ticket, AdmissionError> {
        self.submit_with_deadline(tenant, query, None)
    }

    /// Submits one query for `tenant` with an explicit end-to-end deadline
    /// budget (`None` falls back to the policy default). The budget is
    /// stamped as an absolute deadline on the server's clock and acted on
    /// by every stage when [`DeadlinePolicy::enforce`] is set; otherwise
    /// it is only measured (budget burn + deadline attainment).
    ///
    /// # Errors
    ///
    /// As [`RagServer::submit_for`].
    pub fn submit_with_deadline(
        &self,
        tenant: TenantId,
        query: Vec<f32>,
        deadline: Option<std::time::Duration>,
    ) -> Result<Ticket, AdmissionError> {
        self.submit_with_trace(tenant, query, deadline, None)
    }

    /// [`RagServer::submit_with_deadline`] plus an explicit trace id: the
    /// HTTP frontend passes the client's W3C `traceparent` trace id here so
    /// the request's span tree records under the caller's trace. `None`
    /// derives a fresh deterministic id at admission.
    ///
    /// # Errors
    ///
    /// As [`RagServer::submit_for`].
    pub fn submit_with_trace(
        &self,
        tenant: TenantId,
        query: Vec<f32>,
        deadline: Option<std::time::Duration>,
        trace: Option<TraceId>,
    ) -> Result<Ticket, AdmissionError> {
        let n_tenants = self.shared.tenants.len();
        if tenant.index() >= n_tenants {
            return Err(AdmissionError::UnknownTenant { tenant, n_tenants });
        }
        // Malformed queries must never reach a scan: the SIMD kernel
        // wrappers assert on slice lengths (a wrong dimension would panic
        // the shard worker) and NaN poisons the top-k total order.
        let expected_dim = self.shared.index.dim();
        if query.len() != expected_dim {
            return Err(AdmissionError::InvalidQuery {
                expected_dim,
                got_dim: query.len(),
                non_finite: false,
            });
        }
        if query.iter().any(|x| !x.is_finite()) {
            return Err(AdmissionError::InvalidQuery {
                expected_dim,
                got_dim: query.len(),
                non_finite: true,
            });
        }
        let now = self.shared.clock.now();
        let budget = deadline
            .map(|d| d.as_secs_f64())
            .or(self.shared.deadline.default_deadline);
        let abs_deadline = budget.map(|b| deadline_after(now, b));
        // relaxed: a fresh-id counter — uniqueness needs atomicity only,
        // no ordering with any other memory.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .shed_if_unmeetable(id, tenant, trace, budget, now)?;
        let trace = trace.unwrap_or_else(|| self.shared.trace.derive_trace_id(id));
        // vlite-allow(bounded-queues): a per-request reply channel carries
        // exactly one response before it is dropped.
        let (reply, rx) = channel::unbounded();
        let job = Job {
            id,
            tenant,
            query,
            enqueued: now,
            deadline: abs_deadline,
            trace,
            reply,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => Ok(Ticket {
                id,
                tenant,
                deadline: abs_deadline,
                trace,
                rx,
            }),
            Err((_, true)) => Err(AdmissionError::ShuttingDown),
            // Capacity comes from the immutable tenant table, not the
            // queue: re-taking the admission lock just to echo a config
            // value would contend with the batcher on the overload path.
            Err((_, false)) => Err(AdmissionError::QueueFull {
                tenant,
                capacity: self.shared.tenants[tenant.index()].queue_capacity,
            }),
        }
    }

    /// The tenant table the server was started with.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.shared.tenants
    }

    /// The clock the runtime reads and sleeps against — the load
    /// generators pace their arrival schedules on it so virtual-clock
    /// servers run deterministically at full speed.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.shared.clock.clone()
    }

    /// The generation-stage configuration, when co-scheduling is enabled.
    pub fn generation_config(&self) -> Option<&GenerationConfig> {
        self.shared.generation.as_ref()
    }

    /// Requests currently waiting for a batch, summed over all tenants.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// The current placement generation (0 until the first online
    /// repartition).
    pub fn placement_generation(&self) -> u64 {
        self.shared.placement_snapshot().1
    }

    /// The offline partitioning decision the server started from.
    pub fn initial_decision(&self) -> &PartitionDecision {
        &self.decision
    }

    /// Expected mean hit rate at start-up: the calibration probe sets
    /// routed through the initial placement (the drift monitor's baseline).
    pub fn expected_mean_hit(&self) -> f64 {
        self.expected_mean_hit
    }

    /// Cache coverage ρ of the placement currently serving.
    pub fn current_coverage(&self) -> f64 {
        self.shared.placement_snapshot().0.split().coverage()
    }

    /// Global cluster ids resident on each shard under the current
    /// placement (snapshot).
    pub fn current_shard_clusters(&self) -> Vec<Vec<u32>> {
        let (router, _) = self.shared.placement_snapshot();
        (0..router.split().n_shards())
            .map(|s| router.split().shard_clusters(s).to_vec())
            .collect()
    }

    /// The tiered storage engine the scan path reads through — always
    /// `Some` for a running server. The `Arc` can be cloned to inspect the
    /// store after [`RagServer::shutdown`] (every repartition applies its
    /// migration before the control loop reads the next observation).
    pub fn store(&self) -> Option<&Arc<TieredStore>> {
        Some(&self.shared.store)
    }

    /// The telemetry plane: the lock-free counters/histograms the report
    /// and the scrape are both built from, and the event journal, readable
    /// at any moment without blocking serving.
    pub fn obs(&self) -> &ObsPlane {
        &self.shared.obs
    }

    /// A clone of the telemetry plane's `Arc`, letting callers keep
    /// scraping counters and the journal after
    /// [`RagServer::shutdown`] has consumed the server (by then every
    /// worker has joined, so the values are final).
    pub fn obs_handle(&self) -> Arc<ObsPlane> {
        Arc::clone(&self.shared.obs)
    }

    /// The causal-tracing plane: span trees, per-stage CPU profile rows,
    /// and the SLO burn-rate watchdog behind `/v1/traces`,
    /// `/v1/trace/{id}`, `/v1/profile` and `/v1/alerts`.
    pub fn trace_plane(&self) -> &TracePlane {
        &self.shared.trace
    }

    /// A clone of the trace plane's `Arc`, letting callers keep reading
    /// span trees and profiles after [`RagServer::shutdown`] has consumed
    /// the server.
    pub fn trace_handle(&self) -> Arc<TracePlane> {
        Arc::clone(&self.shared.trace)
    }

    /// Worker scans that panicked and were degraded to empty partials.
    pub fn worker_panics(&self) -> u64 {
        // relaxed: monotonic stat counter read for reporting only.
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Backoff hint in whole seconds for a rejected submission by
    /// `tenant`: the estimated time for that tenant's lane to drain at the
    /// recent drain rate, clamped to `[1, 60]` (never the useless
    /// `Retry-After: 0`).
    pub fn retry_after_hint(&self, tenant: TenantId) -> u64 {
        if tenant.index() >= self.shared.tenants.len() {
            return 1;
        }
        self.shared.queue.retry_after_secs(tenant)
    }

    /// Records a panicked frontend connection thread: counted into
    /// [`RagServer::worker_panics`] and journaled, so a dying connection
    /// handler is never silent.
    pub(crate) fn record_connection_panic(&self) {
        // relaxed: stat counter bump; visibility ordering is irrelevant
        // for a monotonic reporting counter.
        self.shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.shared.obs.journal(
            self.shared.clock.now().as_nanos(),
            Severity::Critical,
            "panic",
            "http connection thread panicked".to_string(),
        );
    }

    /// The full Prometheus text exposition served by `GET /v1/metrics`:
    /// the telemetry plane's counters and stage histograms plus
    /// scrape-time gauges (queue depth, placement generation, ring
    /// occupancy, store residency). Every value is read lock-free or
    /// under a short dedicated lock, so a scrape never stalls serving.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(8 * 1024);
        // `fmt::Write` for `String` is infallible.
        let _ = self.write_prometheus(&mut out);
        out
    }

    fn write_prometheus(&self, out: &mut String) -> std::fmt::Result {
        let shared = &self.shared;
        writeln!(
            out,
            "# HELP vlite_build_info Build metadata of the serving crate (value is always 1)\n\
             # TYPE vlite_build_info gauge\n\
             vlite_build_info{{version=\"{}\"}} 1",
            prom_label_escape(env!("CARGO_PKG_VERSION"))
        )?;
        // The admission queue counts both under the lock it already holds;
        // the report reads the same numbers.
        let queue = shared.queue.stats();
        prom_counter(
            out,
            "vlite_admitted_total",
            "Requests admitted into a tenant queue",
            queue.admitted,
        );
        prom_counter(
            out,
            "vlite_rejected_total",
            "Requests rejected by a full tenant queue",
            queue.rejected,
        );
        shared.obs.prometheus_into(out);
        let traces = shared.trace.store_stats();
        prom_gauge(
            out,
            "vlite_traces_held",
            "Distinct span traces currently retained by the trace plane",
            (traces.recent + traces.kept) as f64,
        );
        prom_counter(
            out,
            "vlite_trace_evictions_total",
            "Whole traces evicted from the bounded trace store",
            traces.recent_evicted + traces.kept_evicted,
        );
        prom_counter(
            out,
            "vlite_worker_panics_total",
            "Worker scans that panicked and were degraded to empty partials",
            self.worker_panics(),
        );
        // Lifetime totals = retained ring entries + evictions.
        prom_counter(
            out,
            "vlite_repartitions_total",
            "Online repartitions performed by the control loop",
            shared.repartitions.len() as u64 + shared.repartitions.evicted(),
        );
        prom_counter(
            out,
            "vlite_migrations_total",
            "Tier migrations applied by the control loop",
            shared.migrations.len() as u64 + shared.migrations.evicted(),
        );
        prom_gauge(
            out,
            "vlite_queue_depth",
            "Requests waiting for a batch, summed over tenants",
            self.queue_depth() as f64,
        );
        prom_gauge(
            out,
            "vlite_placement_generation",
            "Current placement generation (0 until the first repartition)",
            self.placement_generation() as f64,
        );
        // The store's two eviction queues and the journal; the spans
        // dropped by the per-trace cap ride the evictions family.
        let (journal_len, journal_evicted) = shared.obs.journal_stats();
        let rings = [
            ("recent_traces", traces.recent, traces.recent_evicted),
            ("slow_traces", traces.kept, traces.kept_evicted),
            ("journal", journal_len, journal_evicted),
        ];
        out.push_str(
            "# HELP vlite_obs_ring_items Entries currently retained per bounded ring\n\
             # TYPE vlite_obs_ring_items gauge\n",
        );
        for (ring, len, _) in rings {
            writeln!(out, "vlite_obs_ring_items{{ring=\"{ring}\"}} {len}")?;
        }
        out.push_str(
            "# HELP vlite_obs_ring_evictions_total Entries evicted per bounded ring\n\
             # TYPE vlite_obs_ring_evictions_total counter\n",
        );
        for (ring, _, evicted) in rings {
            writeln!(
                out,
                "vlite_obs_ring_evictions_total{{ring=\"{ring}\"}} {evicted}"
            )?;
        }
        writeln!(
            out,
            "vlite_obs_ring_evictions_total{{ring=\"trace_spans\"}} {}",
            traces.dropped_spans
        )?;
        let store = &shared.store;
        let residency = store.residency();
        let stats = store.stats();
        for (name, help, value) in [
            (
                "vlite_store_fast_clusters",
                "Clusters resident in the fast tier",
                residency.hot_clusters as f64,
            ),
            (
                "vlite_store_total_clusters",
                "Total clusters in the tiered store",
                residency.total_clusters as f64,
            ),
            (
                "vlite_store_fast_bytes",
                "Bytes resident in fast-tier arenas",
                residency.hot_bytes as f64,
            ),
            (
                "vlite_store_cold_bytes",
                "Bytes covered by the slow tier's mmap'd SQ8 extents",
                residency.cold_bytes as f64,
            ),
            (
                "vlite_store_fast_residency",
                "Fast-tier share of total stored bytes",
                residency.byte_fraction(),
            ),
            (
                "vlite_store_generation",
                "Store generation (bumped by every applied migration)",
                store.generation() as f64,
            ),
        ] {
            prom_gauge(out, name, help, value);
        }
        for (name, help, value) in [
            (
                "vlite_store_hot_probes_total",
                "Probes scanned against fast-tier clusters",
                stats.hot_probes,
            ),
            (
                "vlite_store_cold_probes_total",
                "Probes scanned against slow-tier clusters",
                stats.cold_probes,
            ),
            (
                "vlite_store_bytes_promoted_total",
                "Bytes materialized into resident arenas by promotions",
                stats.bytes_promoted,
            ),
            (
                "vlite_store_bytes_demoted_total",
                "Resident bytes released back to the cold tier by demotions",
                stats.bytes_demoted,
            ),
            (
                "vlite_store_blocked_scans_total",
                "Blocked (cluster-major) passes scoring >= 2 batched queries in one sweep",
                stats.blocked_scans,
            ),
            (
                "vlite_store_pairs_pruned_total",
                "Routed (query, cluster) pairs skipped: the cluster's bounds rule out the top-k",
                stats.pairs_pruned,
            ),
        ] {
            prom_counter(out, name, help, value);
        }
        writeln!(
            out,
            "# HELP vlite_kernel_active Distance-kernel implementation dispatch selects \
             (1 for the active kernel)\n\
             # TYPE vlite_kernel_active gauge\n\
             vlite_kernel_active{{kernel=\"{}\"}} 1",
            vlite_ann::kernel::active().name()
        )
    }

    /// Snapshot of the runtime's measurements so far, assembled from the
    /// telemetry plane in O(buckets) without blocking any serving thread.
    pub fn report(&self) -> ServeReport {
        let shared = &self.shared;
        ServeReport::assemble(
            &shared.obs,
            shared.queue.stats(),
            &shared.tenants,
            shared.repartitions.snapshot(),
            Some(StoreReport::capture(
                &shared.store,
                shared.migrations.snapshot(),
            )),
            shared.slo_search,
            shared.generation.as_ref().map(|g| g.slo_ttft),
            shared.placement_snapshot().1,
            self.worker_panics(),
            if shared.trace.enabled() {
                shared.trace.profile()
            } else {
                Vec::new()
            },
        )
    }

    /// Graceful shutdown: stops admitting, serves the backlog, joins every
    /// thread, and returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.queue.close();
        for handle in self.threads.drain(..) {
            handle.join().expect("runtime thread panicked");
        }
        self.report()
    }
}

impl Drop for RagServer {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.threads.drain(..) {
            // Avoid double-panicking in unwind paths.
            let _ = handle.join();
        }
    }
}

/// The absolute deadline `budget` seconds after `now`. The add saturates:
/// a budget past the end of the clock's range means "no deadline in
/// practice", never a wrap into the past.
fn deadline_after(now: SimTime, budget: f64) -> SimTime {
    let budget = SimDuration::from_secs_f64(budget.max(0.0));
    SimTime::from_nanos(now.as_nanos().saturating_add(budget.as_nanos()))
}

/// Mean per-query hit rate of `probe_sets` under `router` — the runtime's
/// observable statistic, used as the drift monitor's expectation.
pub(crate) fn empirical_mean_hit<'a>(
    router: &Router,
    probe_sets: impl IntoIterator<Item = &'a Vec<u32>>,
) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for probes in probe_sets {
        sum += router.route(probes).hit_rate();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Physical tiering: detaches the deployment index's flat lists into a
/// [`TieredStore`] whose tiers mirror the placement — hot clusters resident
/// at full precision, cold ones in the segment file's mmap'd SQ8 extents —
/// and checks once that it scores what the index probes.
///
/// # Panics
///
/// Panics on any store failure: a half-built store would silently serve
/// wrong bytes.
pub(crate) fn open_store(
    deployment: &mut RealDeployment,
    config: &StoreConfig,
) -> Arc<TieredStore> {
    let (segment_path, ephemeral) = config.segment_path();
    let mut store = deployment
        .build_tiered_store(&segment_path)
        .unwrap_or_else(|err| panic!("tiered store build failed: {err}"));
    store.set_ephemeral(ephemeral);
    let index = &deployment.index;
    assert_eq!(store.dim(), index.dim(), "store has wrong dimensionality");
    assert_eq!(
        store.n_clusters(),
        index.nlist(),
        "store has wrong cluster count"
    );
    assert_eq!(
        store.metric(),
        deployment.config.ivf.metric,
        "store scores under a different metric"
    );
    Arc::new(store)
}

/// Batcher: drain the per-tenant queues (weighted-fair) when the engine is
/// idle, coarse-quantize and route under the current placement snapshot,
/// run the batch ([`run_batch`]).
fn batcher(
    shared: &Shared,
    max_batch: usize,
    pool: &ScanPool,
    control_tx: &Sender<Observation>,
    gen_tx: Option<&Sender<GenWork>>,
) {
    while let Some(jobs) = shared.queue.take_batch(max_batch) {
        let (router, generation) = shared.placement_snapshot();
        let started = shared.clock.now();
        let stage = shared.trace.stage_start(STAGE_BATCHER, started);
        shared.queue.record_drain(jobs.len(), started);
        // Rung 2 of the degradation ladder: a job whose deadline passed
        // while it queued is dropped here instead of burning a batch slot
        // on a response nobody will accept (its waiter sees the reply
        // channel disconnect and answers 504).
        let jobs: Vec<Job> = if shared.deadline.enforce {
            jobs.into_iter()
                .filter_map(|job| match job.deadline {
                    Some(deadline) if started >= deadline => {
                        shed_expired(shared, &job, started);
                        None
                    }
                    _ => Some(job),
                })
                .collect()
        } else {
            jobs
        };
        if jobs.is_empty() {
            // The whole drain expired: there is nothing to launch.
            shared.trace.stage_end(stage, shared.clock.now());
            continue;
        }
        let routed: Vec<RoutedQuery> = jobs
            .iter()
            .map(|job| {
                // Rungs 3 and 4: scale the probe list to the remaining
                // budget (the probe list is closeness-ordered, so a
                // truncated query scans a prefix-quality subset), and keep
                // only fast-tier probes when the remainder cannot absorb a
                // cold-tier scan.
                let (nprobe, fast_only) = probe_budget(shared, job, started);
                let probes: Vec<u32> = shared
                    .index
                    .probe(&job.query, nprobe)
                    .iter()
                    .map(|p| p.list)
                    .collect();
                let mut routed = router.route(&probes);
                if nprobe < shared.nprobe {
                    shared.obs.on_degraded_probes(
                        started.as_nanos(),
                        job.id,
                        nprobe,
                        shared.nprobe,
                    );
                }
                if fast_only && !routed.cpu_probes.is_empty() {
                    routed.cpu_probes.clear();
                    shared.obs.cold_skips.inc();
                }
                routed
            })
            .collect();
        let members: Vec<TraceId> = jobs.iter().map(|j| j.trace).collect();
        let batch = Arc::new(BatchWork {
            jobs,
            routed,
            started,
            generation,
            trace: shared.trace.begin_batch(&members),
        });
        shared.trace.stage_end(stage, shared.clock.now());
        if !run_batch(shared, pool, &batch, control_tx, gen_tx) {
            return; // a shard worker is gone: the runtime is tearing down
        }
    }
}

/// Runs one formed batch: hands it to every shard worker, scans the CPU
/// share on this thread meanwhile, gathers exactly one share from each
/// shard (the engine is busy until then), then merges, records and
/// delivers every query in batch order inside one `dispatch` section.
/// Returns `false` when a shard worker is gone.
fn run_batch(
    shared: &Shared,
    pool: &ScanPool,
    batch: &Arc<BatchWork>,
    control_tx: &Sender<Observation>,
    gen_tx: Option<&Sender<GenWork>>,
) -> bool {
    for tx in &pool.work {
        if tx.send(Arc::clone(batch)).is_err() {
            return false;
        }
    }
    let cpu = shared.n_shards;
    let mut shares = vec![Vec::new(); cpu + 1];
    shares[cpu] = scan_share(shared, batch, cpu);
    for _ in 0..pool.work.len() {
        let Ok((worker, partials)) = pool.done.recv() else {
            return false;
        };
        shares[worker] = partials;
    }
    let stage = shared.trace.stage_start(STAGE_DISPATCH, shared.clock.now());
    for qi in 0..batch.jobs.len() {
        // Each query is merged once, so its slot in every share is moved
        // out instead of cloned.
        let lists: Vec<Vec<Neighbor>> = shares
            .iter_mut()
            .map(|share| std::mem::take(&mut share[qi]))
            .collect();
        let neighbors = merge_sorted(&lists, shared.top_k);
        complete_query(shared, batch, qi, neighbors, control_tx, gen_tx);
    }
    shared.obs.on_batch(batch.jobs.len());
    if let Some(ctx) = &batch.trace {
        shared
            .trace
            .end_batch(ctx, batch.started, shared.clock.now());
    }
    shared.trace.stage_end(stage, shared.clock.now());
    true
}

/// Sheds one queue-expired job at batch formation: the outcome is fully
/// accounted, then the job is dropped — its reply sender goes with it, so
/// the ticket's waiter sees a disconnect instead of hanging.
fn shed_expired(shared: &Shared, job: &Job, now: SimTime) {
    let queue = (now - job.enqueued).as_secs_f64();
    shared.record_outcome(&RequestOutcome {
        id: job.id,
        tenant: job.tenant,
        trace: Some(job.trace),
        batch_trace: None,
        enqueued: job.enqueued,
        end: now,
        timings: RequestTimings {
            queue,
            search: 0.0,
            e2e: queue,
            generation: None,
        },
        hit_rate: 0.0,
        deadline: job.deadline,
        gen_busy: None,
        shed: Some(ShedCause::QueueExpired),
    });
}

/// Floor on the fraction of the configured probe list a degraded query
/// keeps (always at least one probe). Froze
/// `DeadlinePolicy::min_probe_fraction` at its default.
const MIN_PROBE_FRACTION: f64 = 0.25;

/// Budget-scaled probe selection for one job at batch formation. Returns
/// the probe count to use and whether the query should keep only its
/// fast-tier probes. Unbudgeted jobs (or a measure-only policy) always
/// probe the full list.
fn probe_budget(shared: &Shared, job: &Job, now: SimTime) -> (usize, bool) {
    let policy = &shared.deadline;
    if !policy.enforce {
        return (shared.nprobe, false);
    }
    let Some(deadline) = job.deadline else {
        return (shared.nprobe, false);
    };
    // Expired jobs were shed before routing, so `deadline > now` here.
    let remaining = deadline.duration_since(now).as_secs_f64();
    let nprobe = if remaining < policy.est_search {
        let frac = (remaining / policy.est_search).max(MIN_PROBE_FRACTION);
        ((shared.nprobe as f64 * frac).ceil() as usize).clamp(1, shared.nprobe)
    } else {
        shared.nprobe
    };
    let fast_only = remaining < policy.est_search + policy.est_cold;
    (nprobe, fast_only)
}

/// Spawns one named runtime thread.
fn spawn_named(name: impl Into<String>, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(body)
        .expect("spawn runtime thread")
}

/// Spawns one worker per shard and returns the batcher's handles on them
/// plus their threads. The CPU share has no worker: the batcher scans it.
fn spawn_scan_workers(shared: &Arc<Shared>) -> (ScanPool, Vec<JoinHandle<()>>) {
    // vlite-allow(bounded-queues): each worker returns one share per batch,
    // and the batcher launches the next batch only after gathering them.
    let (done_tx, done) = channel::unbounded::<Share>();
    let mut threads = Vec::with_capacity(shared.n_shards);
    let work = (0..shared.n_shards)
        .map(|shard| {
            // vlite-allow(bounded-queues): at most one batch in flight per
            // worker, for the same reason.
            let (tx, rx) = channel::unbounded::<Arc<BatchWork>>();
            let shared = Arc::clone(shared);
            let done_tx = done_tx.clone();
            threads.push(spawn_named(format!("vlite-shard-{shard}"), move || {
                shard_worker(&shared, shard, &rx, &done_tx);
            }));
            tx
        })
        .collect();
    (ScanPool { work, done }, threads)
}

/// Shard worker `shard` ("GPU"): scans its share of each batch and returns
/// it to the batcher in one message.
fn shard_worker(
    shared: &Shared,
    shard: usize,
    rx: &Receiver<Arc<BatchWork>>,
    done: &Sender<Share>,
) {
    while let Ok(batch) = rx.recv() {
        let partials = scan_share(shared, &batch, shard);
        if done.send((shard, partials)).is_err() {
            return;
        }
    }
}

/// Scans share `share` of a batch — shard `share` while `share < n_shards`,
/// the cold (CPU) share at `share == n_shards` — as one profiled section
/// (`shard_scan` or `cpu_scan`) with one `scan:*` span under the batch
/// trace. Shard workers and the batcher both scan through here.
///
/// The share is one blocked (cluster-major) pass through one store
/// snapshot: the whole batch scans a consistent tier map, and a concurrent
/// migration swaps tiers for the *next* batch without stalling this one. A
/// shard scans its hot lists by global id, so a batch routed just before a
/// hot swap still scans the right lists. Queries with no lists in the
/// share never reach the store, so a malformed query degrades only the
/// shares that had to scan it.
///
/// A panicking scan degrades the *whole share* to empty partials (one
/// [`Shared::worker_panics`] tick) instead of killing the thread: a dead
/// shard worker would never return its share and the batcher would wait
/// for it forever, and a dead batcher would stop serving.
fn scan_share(shared: &Shared, batch: &BatchWork, share: usize) -> Vec<Vec<Neighbor>> {
    let cpu = share == shared.n_shards;
    let scan_start = shared.clock.now();
    let stage_id = if cpu {
        STAGE_CPU_SCAN
    } else {
        STAGE_SHARD_SCAN
    };
    let stage = shared.trace.stage_start(stage_id, scan_start);
    let (qis, queries): (Vec<usize>, Vec<BatchQuery<'_>>) = batch
        .jobs
        .iter()
        .zip(&batch.routed)
        .enumerate()
        .filter_map(|(qi, (job, routed))| {
            let lists = if cpu {
                &routed.cpu_probes
            } else {
                &routed.shard_probes_global[share]
            };
            let query = BatchQuery {
                query: &job.query,
                lists,
            };
            (!lists.is_empty()).then_some((qi, query))
        })
        .unzip();
    let mut partials = vec![Vec::new(); batch.jobs.len()];
    let snapshot = shared.store.snapshot();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scan_lists_store_batch(&snapshot, &queries, shared.top_k)
    })) {
        Ok(tops) => {
            for (qi, top) in qis.into_iter().zip(tops) {
                partials[qi] = top;
            }
        }
        Err(_) => {
            // relaxed: stat counter bump; the degraded partials travel
            // through the share channel (or stay on the batcher's thread),
            // which orders the handoff.
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    let scan_end = shared.clock.now();
    shared.trace.stage_end(stage, scan_end);
    if let Some(ctx) = &batch.trace {
        let span: Cow<'static, str> = if cpu {
            "scan:cpu".into()
        } else {
            format!("scan:shard{share}").into()
        };
        shared.trace.record_scan(ctx, span, scan_start, scan_end);
    }
    partials
}

/// Delivers one merged query: either the response (retrieval only) or a
/// hand-off to the generation stage (co-scheduled), recording measurements
/// at whichever point the request's lifecycle actually ends.
fn complete_query(
    shared: &Shared,
    batch: &BatchWork,
    qi: usize,
    neighbors: Vec<Neighbor>,
    control_tx: &Sender<Observation>,
    gen_tx: Option<&Sender<GenWork>>,
) {
    let job = &batch.jobs[qi];
    let routed = &batch.routed[qi];
    let now = shared.clock.now();
    let queue = (batch.started - job.enqueued).as_secs_f64();
    let search = (now - batch.started).as_secs_f64();
    let hit_rate = routed.hit_rate();
    let met_slo = search <= shared.slo_search;

    // The query's global probe set (the control loop's re-profiling
    // sample). With search-keyed control the observation leaves here; with
    // TTFT-keyed control it travels with the generation work instead, so
    // the SLO bit reflects the latency users feel.
    let probes = || {
        let mut probes = routed.cpu_probes.clone();
        for globals in &routed.shard_probes_global {
            probes.extend_from_slice(globals);
        }
        probes
    };

    if let Some(gen_tx) = gen_tx {
        let ttft_keyed = shared.slo_signal == SloSignal::Ttft;
        if !ttft_keyed {
            let _ = control_tx.send(Observation {
                tenant: job.tenant,
                hit_rate,
                met_slo,
                probes: probes(),
            });
        }
        // The request's outcome is recorded by the generation worker when
        // its lifecycle actually ends; the batcher only counts
        // batch-level statistics for co-scheduled servers.
        let _ = gen_tx.send(GenWork {
            id: job.id,
            tenant: job.tenant,
            neighbors,
            hit_rate,
            generation: batch.generation,
            enqueued: job.enqueued,
            deadline: job.deadline,
            trace: job.trace,
            batch_trace: batch.trace.as_ref().map(|c| c.trace_id),
            queue,
            search,
            merged_at: now,
            reply: job.reply.clone(),
            probes: ttft_keyed.then(probes),
        });
        return;
    }

    let timings = RequestTimings {
        queue,
        search,
        e2e: (now - job.enqueued).as_secs_f64(),
        generation: None,
    };
    shared.record_outcome(&RequestOutcome {
        id: job.id,
        tenant: job.tenant,
        trace: Some(job.trace),
        batch_trace: batch.trace.as_ref().map(|c| c.trace_id),
        enqueued: job.enqueued,
        end: now,
        timings,
        hit_rate,
        deadline: job.deadline,
        gen_busy: None,
        shed: None,
    });

    let _ = control_tx.send(Observation {
        tenant: job.tenant,
        hit_rate,
        met_slo,
        probes: probes(),
    });

    // The ticket may have been dropped (fire-and-forget submission).
    let _ = job.reply.send(SearchResponse {
        id: job.id,
        tenant: job.tenant,
        neighbors,
        timings,
        hit_rate,
        generation: batch.generation,
        trace: job.trace,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::tests::{harness, tiny_deployment};

    /// Runs a batch through live shard workers in which the second query
    /// has the wrong dimension (admission refuses these; the scans are the
    /// last line) and probes only the lists of one share — a shard's, or
    /// the CPU share the batcher (here, the test thread) scans when `cpu` —
    /// so exactly that share panics. Every job must still get one reply
    /// carrying the other shares' partials, `worker_panics` must tick once,
    /// and the same threads must serve the next batch exactly.
    fn a_panicking_share_degrades_once(cpu: bool) {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        let n_shards = shared.n_shards;
        let good = vec![0.25f32; shared.index.dim()];
        // Every cluster probed, so the query has hot and cold work.
        let all = shared.index.probe(&good, shared.index.nlist());
        let probes: Vec<u32> = all.iter().map(|p| p.list).collect();
        let routed = shared.placement_snapshot().0.route(&probes);
        let lists_of = |w: usize| match routed.shard_probes_global.get(w) {
            Some(lists) => lists.clone(),
            None => routed.cpu_probes.clone(),
        };
        let faulty = if cpu {
            n_shards
        } else {
            (0..n_shards)
                .find(|&s| !lists_of(s).is_empty())
                .expect("a hot probe")
        };
        assert!(!lists_of(faulty).is_empty(), "the faulty share has work");
        let keep = |w: usize| if w == faulty { lists_of(w) } else { Vec::new() };
        let only_faulty = RoutedQuery {
            shard_probes: routed.shard_probes.clone(),
            shard_probes_global: (0..n_shards).map(keep).collect(),
            cpu_probes: keep(n_shards),
        };

        let (pool, workers) = spawn_scan_workers(&shared);
        let (control_tx, _control_rx) = channel::unbounded();
        let (reply_tx, replies) = channel::unbounded();
        let run = |queries: Vec<(Vec<f32>, RoutedQuery)>| -> Vec<SearchResponse> {
            let (jobs, routed) = (queries.into_iter().enumerate())
                .map(|(id, (query, routed))| {
                    let job = Job {
                        id: id as u64,
                        tenant: TenantId(0),
                        query,
                        enqueued: SimTime::ZERO,
                        deadline: None,
                        trace: TraceId(id as u128 + 1),
                        reply: reply_tx.clone(),
                    };
                    (job, routed)
                })
                .unzip();
            let batch = Arc::new(BatchWork {
                jobs,
                routed,
                started: SimTime::ZERO,
                generation: 0,
                trace: None,
            });
            assert!(run_batch(&shared, &pool, &batch, &control_tx, None));
            std::iter::from_fn(|| replies.try_recv().ok()).collect()
        };
        let scan = |lists: &[u32]| {
            vlite_ann::scan_lists_store(&shared.store.snapshot(), &good, lists, shared.top_k)
        };

        let wrong_dim = vec![0.25f32; shared.index.dim() / 2];
        let got = run(vec![
            (good.clone(), routed.clone()),
            (wrong_dim, only_faulty),
        ]);
        let ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1], "one reply per job, in batch order");
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 1);
        let healthy: Vec<u32> = (0..=n_shards)
            .filter(|&w| w != faulty)
            .flat_map(lists_of)
            .collect();
        assert!(!healthy.is_empty());
        assert_eq!(
            got[0].neighbors,
            scan(&healthy),
            "the other shares' partials"
        );
        assert!(got[1].neighbors.is_empty());

        let got = run(vec![(good.clone(), routed.clone())]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].neighbors, scan(&probes));
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 1);

        drop(pool);
        for worker in workers {
            worker.join().expect("shard worker exits cleanly on close");
        }
    }

    #[test]
    fn a_panicking_shard_share_empties_once_and_the_worker_keeps_serving() {
        a_panicking_share_degrades_once(false);
    }

    #[test]
    fn a_panicking_cpu_share_still_replies_with_the_shard_partials() {
        a_panicking_share_degrades_once(true);
    }

    #[test]
    fn the_runtime_runs_n_shards_plus_two_threads_and_one_more_to_generate() {
        for generation in [None, Some(GenerationConfig::tiny())] {
            let generates = generation.is_some();
            let config = ServeConfig {
                generation,
                ..ServeConfig::small()
            };
            let server = RagServer::from_deployment(tiny_deployment(), config);
            let threads = server.threads.iter().map(|h| h.thread().name());
            let mut names: Vec<&str> = threads.map(Option::unwrap_or_default).collect();
            names.sort_unstable();
            let mut expected = vec!["vlite-batcher", "vlite-control"];
            expected.extend(generates.then_some("vlite-generate"));
            expected.extend(["vlite-shard-0", "vlite-shard-1"]);
            assert_eq!(names, expected);
            let extra = usize::from(generates);
            assert_eq!(names.len(), server.shared.n_shards + 2 + extra);
            server.shutdown();
        }
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn a_zero_generation_batch_cap_is_refused_at_start() {
        let generation = GenerationConfig {
            max_batch: 0,
            ..GenerationConfig::tiny()
        };
        let config = ServeConfig {
            generation: Some(generation),
            ..ServeConfig::small()
        };
        drop(RagServer::from_deployment(tiny_deployment(), config));
    }
}
