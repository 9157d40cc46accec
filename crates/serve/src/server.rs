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
//! every query in batch order; a batch of one query never reaches a
//! worker, as the batcher scans all of its shares. A batch's queries
//! therefore finish together: the cold scan is one blocked pass over the
//! whole batch, so no query's CPU share is done before another's. That is
//! why the deadline ladder degrades whole batches, never single queries:
//! a hot-only batch skips its cold share for every member, since dropping
//! one member's cold probes could not bring its reply earlier while a
//! batch-mate still scans cold.
//! Admission, generation and the control loop — which also moves the
//! store's tiers after each repartition — run concurrently with the scan.
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
use vlite_core::{IndexSplit, RealDeployment, RoutedQuery};
use vlite_sim::{SimDuration, SimTime};
use vlite_store::{StoreSnapshot, TieredStore};
use vlite_workload::SyntheticCorpus;

use crate::clock::{Clock, RealClock};
use crate::config::{GenerationConfig, ServeConfig, StoreConfig, TenantSpec};
use crate::control::{ControlLoop, MigrationEvent, Observation, RepartitionEvent};
use crate::generation::{generation_worker, GenWork, Merged};
use crate::obs::{
    prom_counter, prom_gauge, prom_label_escape, BoundedRing, ObsPlane, Severity, HISTORY_CAPACITY,
};
use crate::queue::AdmissionQueue;
use crate::report::ServeReport;
use crate::request::{AdmissionError, Job, RequestTimings, TenantId, Ticket};
use crate::trace::{
    AlertLevel, BatchCtx, TraceId, TracePlane, SIG_DEADLINE, SIG_SEARCH, SIG_TTFT, STAGE_BATCHER,
    STAGE_CPU_SCAN, STAGE_DISPATCH, STAGE_SHARD_SCAN,
};

/// One batch travelling from the batcher to the shard workers.
struct BatchWork {
    jobs: Vec<Job>,
    /// Each query's probe list (closeness order): what the control
    /// observation reports.
    probes: Vec<Vec<u32>>,
    /// Each query's probe list routed under the batch's placement: what
    /// the shares scan, and the hit rate the reply and the observation
    /// report — a hot-only batch still reports its cold probes as misses.
    routed: Vec<RoutedQuery>,
    /// Rung 3 of the deadline ladder: the batch skips its cold (CPU)
    /// share, every member's cold probes with it.
    hot_only: bool,
    /// The tier map every share of the batch scans through, taken once at
    /// formation.
    store: StoreSnapshot,
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
/// degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedCause {
    /// Rung 1: the estimated queue wait already exceeded the whole budget,
    /// so the submission was refused (the refusal,
    /// [`AdmissionError::DeadlineUnmeetable`], carries the estimate).
    Admission,
    /// Rung 2: the deadline passed while the request queued.
    QueueExpired,
    /// Rung 4: estimated first token past the request's own deadline.
    GenDeadline,
}

impl ShedCause {
    /// Generation sheds still deliver the retrieval results, so they count
    /// as completed replies; admission and queue sheds never reply.
    fn replies(self) -> bool {
        matches!(self, ShedCause::GenDeadline)
    }

    /// The `DEADLINE_STAGE_*` counter this shed ticks.
    fn deadline_stage(self) -> usize {
        match self {
            ShedCause::Admission => crate::obs::DEADLINE_STAGE_ADMISSION,
            ShedCause::QueueExpired => crate::obs::DEADLINE_STAGE_QUEUE,
            ShedCause::GenDeadline => crate::obs::DEADLINE_STAGE_GENERATION,
        }
    }

    /// The `shed:{reason}` marker name in the request's span tree.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            ShedCause::Admission => "shed:admission",
            ShedCause::QueueExpired => "shed:queue-expired",
            ShedCause::GenDeadline => "shed:gen-deadline",
        }
    }
}

/// Everything the runtime knows about one request at the instant its
/// lifecycle ends. The five terminal sites build one and hand it to
/// `Shared::record_outcome`, which feeds the aggregates and passes it whole
/// to [`TracePlane::record_request`]; nothing else records per-request
/// telemetry, and the event journal records none.
#[derive(Debug)]
pub struct RequestOutcome {
    /// Request id (assigned at admission).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The request's trace id: the caller's, or one derived at admission
    /// — before the admission-feasibility check, so a request refused
    /// there has one too.
    pub trace: TraceId,
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

/// The installed placement: split plus its generation, swapped together
/// under one lock so a batch can never pair a split snapshot with the
/// wrong generation stamp.
pub(crate) struct PlacementState {
    pub split: Arc<IndexSplit>,
    pub generation: u64,
}

/// State shared by every runtime thread, built once by [`wire`] around the
/// offline build's index and split. Every later split comes from the
/// control loop re-running the build's placement pass
/// ([`vlite_core::place`]).
pub(crate) struct Shared {
    pub(crate) index: IvfIndex,
    pub(crate) placement: RwLock<PlacementState>,
    pub(crate) queue: AdmissionQueue,
    /// Worker scans that panicked and were degraded to empty partials
    /// (availability over exactness; surfaced in the report).
    pub(crate) worker_panics: AtomicU64,
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
    /// The clock every runtime timestamp is taken on.
    pub(crate) clock: Arc<dyn Clock>,
    /// The validated serving config, the one copy every thread reads. Its
    /// `real` is the config the offline build ran, so every repartition
    /// places with it too; its `tenants` is the served tenant table, the
    /// implicit single tenant spelled out.
    pub(crate) config: ServeConfig,
}

impl Shared {
    /// Admission feasibility (rung 1 of the degradation ladder): when the
    /// estimated queue wait alone already exceeds the whole budget,
    /// queueing the request would only burn a batch slot on a guaranteed
    /// miss — shed it now so the client can retry elsewhere. The shed is
    /// fully accounted here (through [`Shared::record_outcome`]); callers
    /// just propagate the error. Measure-only policies never shed.
    /// `deadline` is the absolute deadline `budget` stamps at `now`.
    pub fn shed_if_unmeetable(
        &self,
        id: u64,
        tenant: TenantId,
        trace: TraceId,
        budget: Option<f64>,
        deadline: Option<SimTime>,
        now: SimTime,
    ) -> Result<(), AdmissionError> {
        if !self.config.deadline.enforce {
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
            deadline,
            gen_busy: None,
            shed: Some(ShedCause::Admission),
        });
        Err(AdmissionError::DeadlineUnmeetable {
            tenant,
            budget,
            estimated_wait: wait,
        })
    }

    /// Records one request that has reached its end — the *only* code that
    /// touches per-request aggregates, budget burn, the span tree and the
    /// burn-rate watchdog. A shed or a missed target is counted and its
    /// tree kept; the event journal hears of it only through a burn-rate
    /// transition. Callers record before sending the reply, so a
    /// `ticket.wait()` followed by `report()` always sees the request.
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
        // Whether the request missed a target the report judges it by —
        // the global or its tenant's search SLO, the TTFT SLO or its
        // deadline: such a request's trace is kept.
        let mut missed = on_time == Some(false);

        if let Some(stage) = o.shed.map(ShedCause::deadline_stage) {
            obs.deadline_sheds[stage].inc();
        }
        // An admission shed never queued: it has no burn to record.
        let queued = !matches!(o.shed, Some(ShedCause::Admission));
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
            let search_met = t.search <= self.config.real.slo_search;
            // Sheds never produce a first token: they count as TTFT misses.
            let ttft_met = (self.config.generation.as_ref())
                .map(|g| t.generation.is_some_and(|gen| gen.ttft <= g.slo_ttft));
            match on_time {
                Some(true) => obs.deadline_met.inc(),
                Some(false) => obs.deadline_missed.inc(),
                None => {}
            }
            let tenant_search_met = t.search <= self.config.tenants[o.tenant.index()].slo_search;
            missed |= !search_met || !tenant_search_met || ttft_met == Some(false);
            obs.on_request(o, search_met, tenant_search_met, ttft_met);
            self.watch_slo(SIG_SEARCH, search_met, o.end);
            if let Some(ttft_met) = ttft_met {
                self.watch_slo(SIG_TTFT, ttft_met, o.end);
            }
        }

        self.trace.record_request(o, missed);
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
    pub fn placement_snapshot(&self) -> (Arc<IndexSplit>, u64) {
        let guard = crate::sync::read_recover(&self.placement);
        (guard.split.clone(), guard.generation)
    }

    /// Installs a new split, advancing the generation atomically with it.
    /// Returns the new generation.
    pub fn install_placement(&self, split: IndexSplit) -> u64 {
        let mut guard = crate::sync::write_recover(&self.placement);
        guard.split = Arc::new(split);
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
    /// split) from `config.real` and starts the runtime on the wall clock.
    /// The runtime serves, and every online repartition places, with that
    /// one config.
    ///
    /// # Errors
    ///
    /// Propagates index-training errors.
    ///
    /// # Panics
    ///
    /// Panics, before any training, if `config` fails
    /// [`ServeConfig::validate`]; panics if `config.real` fails
    /// [`RealConfig::validate`](vlite_core::RealConfig::validate) or the
    /// tiered store cannot be built or reopened.
    pub fn start(corpus: &SyntheticCorpus, config: ServeConfig) -> vlite_ann::Result<RagServer> {
        Self::start_with_clock(corpus, config, Arc::new(RealClock::new()))
    }

    /// [`RagServer::start`] on an explicit [`Clock`] — pass a
    /// [`VirtualClock`](crate::VirtualClock) for deterministic tests.
    ///
    /// # Errors
    ///
    /// Propagates index-training errors.
    ///
    /// # Panics
    ///
    /// As [`RagServer::start`].
    pub fn start_with_clock(
        corpus: &SyntheticCorpus,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> vlite_ann::Result<RagServer> {
        let (shared, control) = wire(corpus, config, clock)?;

        // vlite-allow(bounded-queues): one observation per completed
        // request; bounded by the admission queue upstream.
        let (control_tx, control_rx) = channel::unbounded::<Observation>();
        let (pool, mut threads) = spawn_scan_workers(&shared);

        // Generation stage (optional): the batcher forwards merged
        // retrievals to this worker, which runs the LLM engine against the
        // clock and delivers the final (post-decode) responses.
        let gen_tx = shared.config.generation.as_ref().map(|generation| {
            // vlite-allow(bounded-queues): fed only with admitted, merged
            // retrievals, and drained into the engine every iteration.
            let (gen_tx, gen_rx) = channel::unbounded::<GenWork>();
            let shared_ = shared.clone();
            let generation = generation.clone();
            threads.push(spawn_named("vlite-generate", move || {
                generation_worker(&shared_, &generation, &gen_rx);
            }));
            gen_tx
        });

        let shared_ = shared.clone();
        threads.push(spawn_named("vlite-batcher", move || {
            batcher(&shared_, &pool, &control_tx, gen_tx.as_ref());
        }));
        threads.push(spawn_named("vlite-control", move || {
            control.run(control_rx)
        }));

        Ok(RagServer {
            shared,
            threads,
            next_id: AtomicU64::new(0),
        })
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
    /// ([`DeadlinePolicy::default_deadline`](crate::DeadlinePolicy::default_deadline));
    /// use [`RagServer::submit_with_deadline`] for a per-request budget.
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
    /// by every stage when
    /// [`DeadlinePolicy::enforce`](crate::DeadlinePolicy::enforce) is set;
    /// otherwise it is only measured (budget burn + deadline attainment).
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
    /// derives a fresh deterministic id at admission, before any refusal
    /// that records a tree (a deadline shed at admission keeps one).
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
        let n_tenants = self.shared.config.tenants.len();
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
        let default = self.shared.config.deadline.default_deadline;
        let budget = deadline.map(|d| d.as_secs_f64()).or(default);
        let abs_deadline = budget.map(|b| deadline_after(now, b));
        // relaxed: a fresh-id counter — uniqueness needs atomicity only,
        // no ordering with any other memory.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = trace.unwrap_or_else(|| self.shared.trace.derive_trace_id(id));
        self.shared
            .shed_if_unmeetable(id, tenant, trace, budget, abs_deadline, now)?;
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
                capacity: self.shared.config.tenants[tenant.index()].queue_capacity,
            }),
        }
    }

    /// The tenant table the server was started with.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.shared.config.tenants
    }

    /// The clock the runtime reads and sleeps against — the load
    /// generators pace their arrival schedules on it so virtual-clock
    /// servers run deterministically at full speed.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.shared.clock.clone()
    }

    /// The generation-stage configuration, when co-scheduling is enabled.
    pub fn generation_config(&self) -> Option<&GenerationConfig> {
        self.shared.config.generation.as_ref()
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

    /// Global cluster ids resident on each shard under the current
    /// placement (snapshot).
    pub fn current_shard_clusters(&self) -> Vec<Vec<u32>> {
        let (split, _) = self.shared.placement_snapshot();
        (0..split.n_shards())
            .map(|s| split.shard_clusters(s).to_vec())
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
        if tenant.index() >= self.shared.config.tenants.len() {
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
        ServeReport::assemble(&self.shared)
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

/// Wires the runtime without starting it: checks `config`
/// ([`ServeConfig::validate`]), runs the offline stage on `corpus` from
/// `config.real`, opens the tiered store, and returns the state every
/// runtime thread shares and the control loop, before any thread is
/// spawned. [`RagServer::start_with_clock`] spawns the threads on them;
/// the control-loop tests drive them directly.
pub(crate) fn wire(
    corpus: &SyntheticCorpus,
    mut config: ServeConfig,
    clock: Arc<dyn Clock>,
) -> vlite_ann::Result<(Arc<Shared>, ControlLoop)> {
    config.validate();
    let mut deployment = RealDeployment::build(corpus, config.real.clone())?;
    let store = open_store(&mut deployment, &config.store);
    let RealDeployment {
        index,
        profile,
        perf,
        router,
        expected_mean_hit,
        ..
    } = deployment;
    config.tenants = config.effective_tenants();
    let shared = Arc::new(Shared {
        index,
        placement: RwLock::new(PlacementState {
            split: Arc::new(router),
            generation: 0,
        }),
        queue: AdmissionQueue::new(&config.tenants),
        worker_panics: AtomicU64::new(0),
        obs: Arc::new(ObsPlane::new(&config.obs, config.tenants.len())),
        repartitions: BoundedRing::new(HISTORY_CAPACITY),
        migrations: BoundedRing::new(HISTORY_CAPACITY),
        // Trace-id derivation is seeded by a constant so a given server
        // replays the same ids for the same request sequence
        // (deterministic virtual-clock tests); uniqueness only matters
        // within one server.
        trace: Arc::new(TracePlane::new(&config.trace, 0x766c_6974_6531)),
        store,
        clock,
        config,
    });
    let control = ControlLoop::new(Arc::clone(&shared), perf, &profile, expected_mean_hit);
    Ok((shared, control))
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
fn open_store(deployment: &mut RealDeployment, config: &StoreConfig) -> Arc<TieredStore> {
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
    pool: &ScanPool,
    control_tx: &Sender<Observation>,
    gen_tx: Option<&Sender<GenWork>>,
) {
    while let Some(jobs) = shared.queue.take_batch(shared.config.max_batch) {
        let (split, generation) = shared.placement_snapshot();
        let started = shared.clock.now();
        let stage = shared.trace.stage_start(STAGE_BATCHER, started);
        let drained = jobs.len();
        // Rung 2 of the degradation ladder: a job whose deadline passed
        // while it queued is dropped here instead of burning a batch slot
        // on a response nobody will accept (its waiter sees the reply
        // channel disconnect and answers 504).
        let jobs: Vec<Job> = if shared.config.deadline.enforce {
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
            // The whole drain expired: there is nothing to launch, and
            // nothing was scanned.
            let now = shared.clock.now();
            shared.trace.stage_end(stage, now);
            shared.queue.record_drain(drained, now - started, false);
            continue;
        }
        let mut probes = Vec::with_capacity(jobs.len());
        let nprobe = shared.config.real.nprobe;
        let routed: Vec<RoutedQuery> = jobs
            .iter()
            .map(|job| {
                let list: Vec<u32> = (shared.index.probe(&job.query, nprobe).iter())
                    .map(|p| p.list)
                    .collect();
                let routed = split.route(&list);
                probes.push(list);
                routed
            })
            .collect();
        let hot_only = runs_hot_only(shared, &jobs, started);
        if hot_only {
            let skipped = routed.iter().filter(|r| !r.cpu_probes.is_empty()).count();
            shared.obs.cold_skips.add(skipped as u64);
        }
        let members: Vec<TraceId> = jobs.iter().map(|j| j.trace).collect();
        let batch = Arc::new(BatchWork {
            jobs,
            probes,
            routed,
            hot_only,
            store: shared.store.snapshot(),
            started,
            generation,
            trace: shared.trace.begin_batch(&members),
        });
        shared.trace.stage_end(stage, shared.clock.now());
        let Some(merged) = run_batch(shared, pool, &batch, control_tx, gen_tx) else {
            return; // a shard worker is gone: the runtime is tearing down
        };
        // The engine was busy from formation to merge: that interval, not
        // the gap since the previous batch, is what draining took — and
        // what the batch's trace span shows.
        shared
            .queue
            .record_drain(drained, merged - started, !hot_only);
    }
}

/// Rung 3 of the deadline ladder, decided once per batch at formation:
/// the batch runs hot-only when its tightest budgeted member's remaining
/// budget is below the full search the drain meter measured. A batch's
/// members reply together, so the decision is the batch's: an unbudgeted
/// or loosely budgeted member of a hot-only batch loses its cold probes
/// too (each member with cold probes is one `cold_skips` tick). A
/// measure-only policy, a batch with no budget, and every batch while no
/// fresh full search is measured (a cold start, or after
/// `queue::FULL_SEARCH_TTL` hot-only drains) run in full.
fn runs_hot_only(shared: &Shared, jobs: &[Job], now: SimTime) -> bool {
    if !shared.config.deadline.enforce {
        return false;
    }
    let Some(tightest) = jobs.iter().filter_map(|job| job.deadline).min() else {
        return false;
    };
    // Expired jobs were shed before routing, so `tightest > now` here.
    let remaining = tightest.duration_since(now).as_secs_f64();
    shared
        .queue
        .full_search()
        .is_some_and(|search| remaining < search)
}

/// Runs one formed batch: hands it to every shard worker, scans the CPU
/// share on this thread meanwhile, gathers exactly one share from each
/// shard (the engine is busy until then), then merges, records and
/// delivers every query in batch order inside one `dispatch` section.
/// A lone query never reaches a worker: the batcher scans every share
/// itself, in share order, since two thread hand-offs cost more than the
/// parallel scans of one query buy. A hot-only batch scans no cold share.
/// Returns the merge instant, which ends the batch's trace span; `None`
/// when a shard worker is gone.
fn run_batch(
    shared: &Shared,
    pool: &ScanPool,
    batch: &Arc<BatchWork>,
    control_tx: &Sender<Observation>,
    gen_tx: Option<&Sender<GenWork>>,
) -> Option<SimTime> {
    let cpu = shared.config.real.n_shards;
    // The cold share is the last: a hot-only batch leaves it unscanned.
    let scanned = cpu + usize::from(!batch.hot_only);
    let mut shares = vec![Vec::new(); scanned];
    if batch.jobs.len() == 1 {
        for (share, partials) in shares.iter_mut().enumerate() {
            *partials = scan_share(shared, batch, share);
        }
    } else {
        for tx in &pool.work {
            tx.send(Arc::clone(batch)).ok()?;
        }
        if !batch.hot_only {
            shares[cpu] = scan_share(shared, batch, cpu);
        }
        for _ in 0..pool.work.len() {
            let (worker, partials) = pool.done.recv().ok()?;
            shares[worker] = partials;
        }
    }
    let stage = shared.trace.stage_start(STAGE_DISPATCH, shared.clock.now());
    for qi in 0..batch.jobs.len() {
        // Each query is merged once, so its slot in every share is moved
        // out instead of cloned.
        let lists: Vec<Vec<Neighbor>> = shares
            .iter_mut()
            .map(|share| std::mem::take(&mut share[qi]))
            .collect();
        let neighbors = merge_sorted(&lists, shared.config.real.top_k);
        complete_query(shared, batch, qi, neighbors, control_tx, gen_tx);
    }
    shared.obs.on_batch(batch.jobs.len());
    let merged = shared.clock.now();
    if let Some(ctx) = &batch.trace {
        shared.trace.end_batch(ctx, batch.started, merged);
    }
    shared.trace.stage_end(stage, merged);
    Some(merged)
}

/// Sheds one queue-expired job at batch formation: the outcome is fully
/// accounted, then the job is dropped — its reply sender goes with it, so
/// the ticket's waiter sees a disconnect instead of hanging.
fn shed_expired(shared: &Shared, job: &Job, now: SimTime) {
    let queue = (now - job.enqueued).as_secs_f64();
    shared.record_outcome(&RequestOutcome {
        id: job.id,
        tenant: job.tenant,
        trace: job.trace,
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
    let n_shards = shared.config.real.n_shards;
    let mut threads = Vec::with_capacity(n_shards);
    let work = (0..n_shards)
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

/// Shard worker `shard` ("GPU"): scans its share of each batch of two or
/// more queries and returns it to the batcher in one message. A lone query
/// never reaches a worker: the batcher scans every share of it itself
/// ([`run_batch`]).
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
/// trace. Shard workers and the batcher both scan through here; for a
/// lone query the batcher scans every share.
///
/// The share is one blocked (cluster-major) pass through the batch's store
/// snapshot ([`BatchWork::store`]): every share of the batch scans the one
/// tier map taken at formation, and a concurrent migration swaps tiers for
/// the *next* batch without stalling this one. A shard scans its hot lists
/// by global id, so a batch routed just before a hot swap still scans the
/// right lists. Queries with no lists in the share never reach the store,
/// so a malformed query degrades only the shares that had to scan it.
///
/// A panicking scan degrades the *whole share* to empty partials (one
/// [`Shared::worker_panics`] tick) instead of killing the thread: a dead
/// shard worker would never return its share and the batcher would wait
/// for it forever, and a dead batcher would stop serving.
fn scan_share(shared: &Shared, batch: &BatchWork, share: usize) -> Vec<Vec<Neighbor>> {
    let cpu = share == shared.config.real.n_shards;
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
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scan_lists_store_batch(&batch.store, &queries, shared.config.real.top_k)
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
    let now = shared.clock.now();
    let queue = (batch.started - job.enqueued).as_secs_f64();
    let search = (now - batch.started).as_secs_f64();
    let hit_rate = batch.routed[qi].hit_rate();

    // The control loop's one observation of this query: its hit rate, the
    // search SLO bit, and its global probe set (the re-profiling sample).
    let _ = control_tx.send(Observation {
        tenant: job.tenant,
        hit_rate,
        met_slo: search <= shared.config.real.slo_search,
        probes: batch.probes[qi].clone(),
    });

    let merged = Merged {
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
    };
    match gen_tx {
        // The request's outcome is recorded by the generation worker when
        // its lifecycle actually ends; the batcher only counts
        // batch-level statistics for co-scheduled servers.
        Some(gen_tx) => {
            let _ = gen_tx.send((merged, job.reply.clone()));
        }
        None => {
            let timings = RequestTimings {
                queue,
                search,
                e2e: (now - job.enqueued).as_secs_f64(),
                generation: None,
            };
            merged.conclude(shared, &job.reply, timings, now, None);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::control::tests::{harness, harness_with, tiny_config, tiny_corpus};
    use crate::obs::JOURNAL_CAPACITY;
    use crate::request::SearchResponse;

    impl RagServer {
        /// A server on `shared` that runs no thread: nothing drains its
        /// queues, so a test can backlog a lane and then `submit`.
        pub(crate) fn without_threads(shared: Arc<Shared>) -> RagServer {
            RagServer {
                shared,
                threads: Vec::new(),
                next_id: AtomicU64::new(0),
            }
        }
    }

    #[test]
    fn a_flood_of_sheds_and_slo_misses_leaves_the_journal_to_runtime_events() {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        shared.record_repartition(RepartitionEvent {
            generation: 1,
            at_request: 0,
            triggered_by: TenantId(0),
            observed_by_tenant: vec![0],
            old_coverage: 0.3,
            new_coverage: 0.3,
            hot_overlap: 1.0,
            queue_depth_at_swap: 0,
            duration: std::time::Duration::ZERO,
        });
        // Twice the journal's capacity of requests, each shed on one rung
        // or replied past the search SLO.
        let causes = [
            Some(ShedCause::Admission),
            Some(ShedCause::QueueExpired),
            Some(ShedCause::GenDeadline),
            None,
        ];
        let search = 2.0 * shared.config.real.slo_search;
        for id in 0..2 * JOURNAL_CAPACITY as u64 {
            let shed = causes[id as usize % causes.len()];
            let search = if shed.is_none() { search } else { 0.0 };
            shared.record_outcome(&RequestOutcome {
                id,
                tenant: TenantId(0),
                trace: TraceId(u128::from(id) + 1),
                batch_trace: None,
                enqueued: SimTime::ZERO,
                end: SimTime::from_secs_f64(search),
                timings: RequestTimings {
                    queue: 0.0,
                    search,
                    e2e: search,
                    generation: None,
                },
                hit_rate: 0.0,
                deadline: Some(SimTime::ZERO),
                gen_busy: None,
                shed,
            });
        }
        let per_cause = (2 * JOURNAL_CAPACITY / causes.len()) as u64;
        let sheds = shared.obs.deadline_sheds.each_ref().map(|c| c.get());
        assert_eq!(sheds, [per_cause; 3]);
        assert_eq!(shared.obs.search_slo_breaches.get(), per_cause);
        let journal = shared.obs.journal_snapshot();
        let kinds: Vec<&str> = journal.iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&"repartition"),
            "the flood evicted the repartition: {} events, {} evicted",
            kinds.len(),
            shared.obs.journal_stats().1
        );
        assert!(
            kinds
                .iter()
                .all(|k| ["repartition", "slo_burn"].contains(k)),
            "a request wrote to the journal: {kinds:?}"
        );
    }

    /// A batch of `queries` (each with its routing) as the batcher forms
    /// it, replying on `reply`.
    fn batch_of(
        shared: &Shared,
        queries: Vec<(Vec<f32>, RoutedQuery)>,
        reply: &Sender<SearchResponse>,
    ) -> Arc<BatchWork> {
        let (jobs, routed): (Vec<Job>, Vec<RoutedQuery>) = (queries.into_iter().enumerate())
            .map(|(id, (query, routed))| {
                let job = Job {
                    id: id as u64,
                    tenant: TenantId(0),
                    query,
                    enqueued: SimTime::ZERO,
                    deadline: None,
                    trace: TraceId(id as u128 + 1),
                    reply: reply.clone(),
                };
                (job, routed)
            })
            .unzip();
        // The routed lists are what the query probes.
        let probes = (routed.iter())
            .map(|r| {
                let shards = r.shard_probes_global.iter().flatten();
                shards.chain(&r.cpu_probes).copied().collect()
            })
            .collect();
        Arc::new(BatchWork {
            jobs,
            probes,
            routed,
            hot_only: false,
            store: shared.store.snapshot(),
            started: SimTime::ZERO,
            generation: 0,
            trace: None,
        })
    }

    /// A query probing every cluster, so it has hot and cold work, with
    /// its probes and its routing under the installed placement.
    fn probe_everything(shared: &Shared) -> (Vec<f32>, Vec<u32>, RoutedQuery) {
        let query = vec![0.25f32; shared.index.dim()];
        let all = shared.index.probe(&query, shared.index.nlist());
        let probes: Vec<u32> = all.iter().map(|p| p.list).collect();
        let routed = shared.placement_snapshot().0.route(&probes);
        (query, probes, routed)
    }

    #[test]
    fn a_lone_query_never_reaches_a_worker() {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        let (query, probes, routed) = probe_everything(&shared);
        // The test stands in for the shard workers: it holds their work
        // queues and has already returned one share per shard. A batch
        // that took the worker path would send it work and gather these.
        let (work, queued): (Vec<_>, Vec<_>) = (0..shared.config.real.n_shards)
            .map(|_| channel::unbounded::<Arc<BatchWork>>())
            .unzip();
        let (done_tx, done) = channel::unbounded::<Share>();
        for shard in 0..shared.config.real.n_shards {
            done_tx.send((shard, vec![Vec::new()])).unwrap();
        }
        let pool = ScanPool { work, done };
        let (control_tx, _control_rx) = channel::unbounded();
        let (reply_tx, replies) = channel::unbounded();

        let batch = batch_of(&shared, vec![(query.clone(), routed)], &reply_tx);
        assert!(run_batch(&shared, &pool, &batch, &control_tx, None).is_some());
        assert!(queued.iter().all(Receiver::is_empty), "work was sent");
        assert_eq!(
            pool.done.len(),
            shared.config.real.n_shards,
            "a share was gathered"
        );
        let reply = replies.try_recv().expect("one reply");
        assert_eq!(reply.neighbors, scan_lists(&shared, &query, &probes));
    }

    #[test]
    fn a_lone_query_replies_the_bits_of_its_two_query_batch() {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        let (query, _probes, routed) = probe_everything(&shared);
        let other = vec![-0.5f32; shared.index.dim()];
        let other_probes: Vec<u32> = (shared.index.probe(&other, shared.config.real.nprobe).iter())
            .map(|p| p.list)
            .collect();
        let other_routed = shared.placement_snapshot().0.route(&other_probes);
        let (pool, workers) = spawn_scan_workers(&shared);
        let (control_tx, _control_rx) = channel::unbounded();
        let (reply_tx, replies) = channel::unbounded();
        let run = |queries| {
            let batch = batch_of(&shared, queries, &reply_tx);
            assert!(run_batch(&shared, &pool, &batch, &control_tx, None).is_some());
            std::iter::from_fn(|| replies.try_recv().ok()).collect::<Vec<_>>()
        };

        let pair = run(vec![(other, other_routed), (query.clone(), routed.clone())]);
        let lone = run(vec![(query, routed)]);
        assert_eq!(pair.len(), 2);
        assert!(!lone[0].neighbors.is_empty());
        // The same bits, not the same values within a tolerance.
        let bits = |r: &SearchResponse| -> Vec<(u64, u32)> {
            (r.neighbors.iter())
                .map(|n| (n.id, n.distance.to_bits()))
                .collect()
        };
        assert_eq!(bits(&lone[0]), bits(&pair[1]));
        assert_eq!(lone[0].hit_rate.to_bits(), pair[1].hit_rate.to_bits());
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 0);

        drop(pool);
        for worker in workers {
            worker.join().expect("shard worker exits cleanly on close");
        }
    }

    /// Runs a batch through live shard workers in which the second query
    /// has the wrong dimension (admission refuses these; the scans are the
    /// last line) and probes only the lists of one share — a shard's, or
    /// the CPU share the batcher (here, the test thread) scans when `cpu` —
    /// so exactly that share panics. Every job must still get one reply
    /// carrying the other shares' partials, `worker_panics` must tick once,
    /// and the same threads must serve the next batch exactly. Then the
    /// same for a batch of one, which the batcher scans alone: its query
    /// names a cluster past the store's end in the faulty share only, so
    /// that share panics on the batcher's thread and the reply carries
    /// every other share.
    fn a_panicking_share_degrades_once(cpu: bool) {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        let n_shards = shared.config.real.n_shards;
        let (good, probes, routed) = probe_everything(&shared);
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
            shard_probes_global: (0..n_shards).map(keep).collect(),
            cpu_probes: keep(n_shards),
        };

        let (pool, workers) = spawn_scan_workers(&shared);
        let (control_tx, _control_rx) = channel::unbounded();
        let (reply_tx, replies) = channel::unbounded();
        let run = |queries: Vec<(Vec<f32>, RoutedQuery)>| -> Vec<SearchResponse> {
            let batch = batch_of(&shared, queries, &reply_tx);
            assert!(run_batch(&shared, &pool, &batch, &control_tx, None).is_some());
            std::iter::from_fn(|| replies.try_recv().ok()).collect()
        };
        let scan = |lists: &[u32]| scan_lists(&shared, &good, lists);

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

        // A batch of one: the batcher scans every share, the faulty one
        // over a cluster id one past the store's last.
        let past_end = shared.index.nlist() as u32;
        let mut broken = routed.clone();
        match broken.shard_probes_global.get_mut(faulty) {
            Some(lists) => lists.push(past_end),
            None => broken.cpu_probes.push(past_end),
        }
        let got = run(vec![(good.clone(), broken)]);
        assert_eq!(got.len(), 1);
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 2);
        assert_eq!(got[0].neighbors, scan(&healthy), "the other shares");

        let got = run(vec![(good.clone(), routed.clone())]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].neighbors, scan(&probes));
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 2);

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

    /// Serves `budgets.len()` jobs through [`batcher`] in batches of up to
    /// the config's `max_batch` (the harness clock never moves: each budget
    /// is whole at formation), one query per budget from `queries`, and
    /// returns the replies and the control observations, in batch order.
    fn serve(
        shared: &Arc<Shared>,
        queries: &[Vec<f32>],
        budgets: &[Option<f64>],
    ) -> (Vec<SearchResponse>, Vec<Observation>) {
        let (reply_tx, replies) = channel::unbounded();
        for (id, (query, budget)) in queries.iter().zip(budgets).enumerate() {
            let ms = budget.map(SimDuration::from_millis);
            let job = Job {
                id: id as u64,
                tenant: TenantId(0),
                query: query.clone(),
                enqueued: SimTime::ZERO,
                deadline: ms.map(|ms| SimTime::ZERO + ms),
                trace: TraceId(id as u128 + 1),
                reply: reply_tx.clone(),
            };
            shared.queue.try_push(job).expect("admitted");
        }
        shared.queue.close();
        let (pool, workers) = spawn_scan_workers(shared);
        let (control_tx, observations) = channel::unbounded();
        // Returns once the closed queue is empty.
        batcher(shared, &pool, &control_tx, None);
        drop(pool);
        for worker in workers {
            worker.join().expect("shard worker exits cleanly on close");
        }
        let replies = std::iter::from_fn(|| replies.try_recv().ok()).collect();
        let observations = std::iter::from_fn(|| observations.try_recv().ok()).collect();
        (replies, observations)
    }

    /// `query`'s exact top-k over `lists` in `shared`'s store.
    fn scan_lists(shared: &Shared, query: &[f32], lists: &[u32]) -> Vec<Neighbor> {
        vlite_ann::scan_lists_store(
            &shared.store.snapshot(),
            query,
            lists,
            shared.config.real.top_k,
        )
    }

    /// Queries at cold centroids whose probe lists also reach the hot tier
    /// and whose top-k changes without the cold share, so a scan that
    /// skips it shows: the queries, their probe lists and their routing.
    fn cold_members(shared: &Shared) -> (Vec<Vec<f32>>, Vec<Vec<u32>>, Vec<RoutedQuery>) {
        let split = shared.placement_snapshot().0;
        let centroids = shared.index.centroids();
        let (mut queries, mut full, mut routed) = (Vec::new(), Vec::new(), Vec::new());
        let cold = split
            .hot_flags()
            .iter()
            .map(|&hot| !hot)
            .collect::<Vec<_>>();
        for c in (0..centroids.len()).filter(|&c| cold[c]) {
            let query = centroids.get(c).to_vec();
            let probes = shared.index.probe(&query, shared.config.real.nprobe);
            let probes: Vec<u32> = probes.iter().map(|p| p.list).collect();
            let r = split.route(&probes);
            let hot = r.shard_probes_global.concat();
            if !hot.is_empty()
                && scan_lists(shared, &query, &hot) != scan_lists(shared, &query, &probes)
            {
                queries.push(query);
                full.push(probes);
                routed.push(r);
            }
        }
        (queries, full, routed)
    }

    #[test]
    fn a_tight_budget_runs_its_whole_batch_hot_only() {
        let enforce = |config: &mut ServeConfig| config.deadline.enforce = true;
        let (shared, _control, _probe_sets) = harness_with(100, 80, 1, enforce);
        // Seed the meter: a full search took 10 ms.
        shared
            .queue
            .record_drain(1, SimDuration::from_millis(10.0), true);
        let (queries, full, routed) = cold_members(&shared);
        assert!(queries.len() >= 3, "three members with hot and cold work");
        // Unbudgeted, loose (20 ms covers the full search) and tight
        // (5 ms does not): the tight member decides for all three.
        let (replies, observations) = serve(&shared, &queries, &[None, Some(20.0), Some(5.0)]);
        assert_eq!(shared.obs.cold_skips.get(), 3, "every member skips cold");
        assert_eq!(shared.obs.batches.get(), 1);
        assert_eq!((replies.len(), observations.len()), (3, 3));
        for (qi, (reply, seen)) in replies.iter().zip(&observations).enumerate() {
            assert_eq!(reply.id, qi as u64, "batch order");
            let hot = routed[qi].shard_probes_global.concat();
            let hot_only = scan_lists(&shared, &queries[qi], &hot);
            assert_eq!(
                reply.neighbors, hot_only,
                "member {qi} scans its shard lists"
            );
            // The reply and the observation report the full list.
            let hit_rate = routed[qi].hit_rate().to_bits();
            assert_eq!(reply.hit_rate.to_bits(), hit_rate);
            assert_eq!(seen.hit_rate.to_bits(), hit_rate);
            assert_eq!(seen.probes, full[qi], "the full probe list");
        }

        // A lone tight query: the batcher scans its shard shares itself
        // and skips the cold one.
        let (shared, ..) = harness_with(100, 80, 1, enforce);
        (shared.queue).record_drain(1, SimDuration::from_millis(10.0), true);
        let (replies, _) = serve(&shared, &queries[..1], &[Some(5.0)]);
        assert_eq!(shared.obs.cold_skips.get(), 1);
        let hot = routed[0].shard_probes_global.concat();
        assert_eq!(replies[0].neighbors, scan_lists(&shared, &queries[0], &hot));
    }

    /// A virtual clock that steps 1 ms on every read, so every batch takes
    /// time and the drain meter measures it.
    #[derive(Debug, Default)]
    struct SteppingClock(crate::clock::VirtualClock);

    impl Clock for SteppingClock {
        fn now(&self) -> SimTime {
            self.0.advance(SimDuration::from_millis(1.0))
        }

        fn sleep_until(&self, deadline: SimTime) {
            self.0.sleep_until(deadline);
        }
    }

    #[test]
    fn a_full_search_estimate_over_every_budget_is_measured_afresh() {
        // One query per batch.
        let (shared, control, _probe_sets) = harness_with(100, 80, 1, |config| {
            config.deadline.enforce = true;
            config.max_batch = 1;
        });
        drop(control);
        let Ok(mut shared) = Arc::try_unwrap(shared) else {
            panic!("the control loop's handle is dropped");
        };
        shared.clock = Arc::new(SteppingClock::default());
        let shared = Arc::new(shared);
        // One full search once took 10 s, and every budget is 5 s: each
        // batch runs hot-only, and none of them can measure a full search.
        shared
            .queue
            .record_drain(1, SimDuration::from_secs_f64(10.0), true);
        let (queries, full, routed) = cold_members(&shared);
        let ttl = crate::queue::FULL_SEARCH_TTL as usize;
        let n = ttl + 2;
        let (replies, _) = serve(&shared, &vec![queries[0].clone(); n], &vec![Some(5e3); n]);
        assert_eq!(replies.len(), n, "none expired");
        // The estimate goes stale after `ttl` hot-only batches; the next
        // batch scans the cold share and measures a few milliseconds,
        // which the one after fits in its budget too.
        assert_eq!(shared.obs.cold_skips.get(), ttl as u64);
        let hot = routed[0].shard_probes_global.concat();
        for (i, reply) in replies.iter().enumerate() {
            let lists = if i < ttl { &hot } else { &full[0] };
            assert_eq!(
                reply.neighbors,
                scan_lists(&shared, &queries[0], lists),
                "batch {i}"
            );
        }
        let search = shared.queue.full_search().expect("measured afresh");
        assert!(search < 1.0, "the estimate fell: {search} s");
    }

    #[test]
    fn the_runtime_runs_n_shards_plus_two_threads_and_one_more_to_generate() {
        let corpus = tiny_corpus();
        for generation in [None, Some(GenerationConfig::tiny())] {
            let generates = generation.is_some();
            let config = ServeConfig {
                generation,
                ..tiny_config()
            };
            let clock = Arc::new(RealClock::new());
            let server = RagServer::start_with_clock(&corpus, config, clock).expect("starts");
            let threads = server.threads.iter().map(|h| h.thread().name());
            let mut names: Vec<&str> = threads.map(Option::unwrap_or_default).collect();
            names.sort_unstable();
            let mut expected = vec!["vlite-batcher", "vlite-control"];
            expected.extend(generates.then_some("vlite-generate"));
            expected.extend(["vlite-shard-0", "vlite-shard-1"]);
            assert_eq!(names, expected);
            let extra = usize::from(generates);
            assert_eq!(names.len(), server.shared.config.real.n_shards + 2 + extra);
            server.shutdown();
        }
    }

    /// Each row is a config [`ServeConfig::validate`] refuses, and the
    /// start of the panic message it refuses it with. Every row panics
    /// before training, so no server thread ever starts.
    #[test]
    fn an_invalid_config_is_refused_at_start() {
        let tenant = TenantSpec {
            weight: 1,
            queue_capacity: 8,
            slo_search: 0.03,
        };
        let tenants = |edit: fn(&mut TenantSpec)| {
            let mut bad = tenant.clone();
            edit(&mut bad);
            vec![tenant.clone(), bad]
        };
        let rows: Vec<(&str, ServeConfig)> = vec![
            (
                "tenant 1 has zero weight",
                ServeConfig {
                    tenants: tenants(|t| t.weight = 0),
                    ..tiny_config()
                },
            ),
            (
                "tenant 1 has zero queue capacity",
                ServeConfig {
                    tenants: tenants(|t| t.queue_capacity = 0),
                    ..tiny_config()
                },
            ),
            (
                "tenant 1 SLO must be positive and finite",
                ServeConfig {
                    tenants: tenants(|t| t.slo_search = f64::NAN),
                    ..tiny_config()
                },
            ),
            // The implicit tenant is checked like an explicit one.
            (
                "tenant 0 has zero queue capacity",
                ServeConfig {
                    queue_capacity: 0,
                    ..tiny_config()
                },
            ),
            (
                "max_batch must be positive",
                ServeConfig {
                    max_batch: 0,
                    ..tiny_config()
                },
            ),
            ("profile_window must be positive", {
                let mut config = tiny_config();
                config.control.profile_window = 0;
                config
            }),
            ("default_deadline must be positive and finite", {
                let mut config = tiny_config();
                config.deadline.default_deadline = Some(0.0);
                config
            }),
            (
                "generation max_batch must be positive",
                ServeConfig {
                    generation: Some(GenerationConfig {
                        max_batch: 0,
                        ..GenerationConfig::tiny()
                    }),
                    ..tiny_config()
                },
            ),
        ];
        let corpus = tiny_corpus();
        for (expected, config) in rows {
            let started = std::panic::catch_unwind(|| {
                RagServer::start_with_clock(&corpus, config, Arc::new(RealClock::new()))
            });
            let Err(panic) = started else {
                panic!("served a config that should panic with {expected:?}");
            };
            let message = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.starts_with(expected),
                "expected {expected:?}, got {message:?}"
            );
        }
    }
}
