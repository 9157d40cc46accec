//! Aggregate serving report: the real-tier analogue of the simulator's
//! `RunResult`, feeding the same figure harnesses (latency variance, SLO
//! attainment, dispatcher behaviour), with a per-tenant breakdown for
//! multi-tenant runs.
//!
//! Every latency [`Summary`] here is read from the telemetry plane's
//! streaming histograms: `count`, `mean`, `min` and `max` are exact (to
//! the nanosecond), while `p50`/`p90`/`p95`/`p99` are the containing
//! bucket's upper bound — never below the exact sample at that rank and at
//! most `StreamingHistogram::relative_error_bound()` (≈ 9.05 %) above it.

use std::sync::atomic::Ordering;

use vlite_metrics::{fmt_seconds, Summary, Table};
use vlite_store::TieredStore;

use crate::control::{MigrationEvent, RepartitionEvent};
use crate::http::json::Json;
use crate::request::TenantId;
use crate::server::Shared;
use crate::trace::StageProfile;

/// One tenant's slice of a serving run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// Configured weighted-fair share.
    pub weight: u32,
    /// Configured bounded queue capacity.
    pub queue_capacity: usize,
    /// Requests admitted into this tenant's queue.
    pub admitted: u64,
    /// Requests rejected against this tenant's quota.
    pub rejected: u64,
    /// Requests fully served for this tenant.
    pub completed: u64,
    /// Deepest backlog this tenant's queue reached.
    pub peak_queue_depth: usize,
    /// Queueing delay (admission → batch launch). Like every `Summary`
    /// below: exact `count`/`mean`/`min`/`max`, percentiles at most
    /// ≈ 9.05 % high (see the module docs).
    pub queue: Summary,
    /// Search execution (batch launch → merged top-k).
    pub search: Summary,
    /// End-to-end latency (admission → merged top-k).
    pub e2e: Summary,
    /// This tenant's search-stage SLO target in seconds.
    pub slo_target: f64,
    /// Fraction of this tenant's requests whose search stage met its SLO.
    pub slo_attainment: f64,
    /// Admission → first token for this tenant's requests (zero samples on
    /// retrieval-only servers).
    pub ttft: Summary,
    /// Fraction of this tenant's requests whose TTFT met the global
    /// `slo_ttft` target (`0.0` when generation is disabled). Sheds count
    /// as misses.
    pub ttft_attainment: f64,
    /// This tenant's requests shed at generation admission (rung 4 of the
    /// deadline ladder; served retrieval-only, counted as TTFT misses).
    pub gen_sheds: u64,
    /// Mean cache hit rate across this tenant's served requests.
    pub mean_hit_rate: f64,
}

/// Physical-tiering snapshot of one serving run: fast-tier residency,
/// per-tier probe/byte counters, and the tier migrations the control loop
/// applied after its split swaps, captured from the [`TieredStore`] every
/// server scans through.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Clusters resident in the fast tier at snapshot time.
    pub fast_clusters: usize,
    /// Total clusters in the store.
    pub total_clusters: usize,
    /// Bytes resident in fast-tier arenas.
    pub fast_bytes: u64,
    /// Bytes the slow tier's mmap'd SQ8 extents cover.
    pub cold_bytes: u64,
    /// Fast-tier share of total stored bytes.
    pub fast_residency: f64,
    /// Probes routed to fast-tier (resident full-precision) clusters,
    /// pruned ones included.
    pub hot_probes: u64,
    /// Probes routed to slow-tier (mmap'd SQ8) clusters, pruned ones
    /// included.
    pub cold_probes: u64,
    /// Payload bytes of the fast-tier passes routed, once per pass.
    pub hot_bytes_scanned: u64,
    /// Payload bytes of the slow-tier passes routed, once per pass.
    pub cold_bytes_scanned: u64,
    /// Bytes materialized into resident arenas by promotions, lifetime.
    pub bytes_promoted: u64,
    /// Resident bytes released by demotions, lifetime.
    pub bytes_demoted: u64,
    /// The store generation (bumped by every applied migration).
    pub store_generation: u64,
    /// Times a scan found the tier map write-locked (0 in healthy runs:
    /// migrations swap a pointer, they do not hold the lock for I/O).
    pub snapshot_waits: u64,
    /// Blocked (cluster-major) passes routed ≥ 2 batched queries for one
    /// sweep over a cluster's bytes.
    pub blocked_scans: u64,
    /// Routed (query, cluster) pairs skipped because the cluster's
    /// bounding ball proves none of its rows can enter the query's top-k.
    pub pairs_pruned: u64,
    /// The distance-kernel implementation dispatch selects on this host
    /// (`scalar`, `avx2_fma`, `avx512`, or `neon`).
    pub kernel: &'static str,
    /// Whether the segment file was reopened from disk (save → load →
    /// serve) rather than freshly written.
    pub opened_existing: bool,
    /// Tier migrations applied by the control loop, in order.
    pub migrations: Vec<MigrationEvent>,
}

impl StoreReport {
    /// Captures the store's residency and counters at report time.
    pub(crate) fn capture(store: &TieredStore, migrations: Vec<MigrationEvent>) -> StoreReport {
        let residency = store.residency();
        let stats = store.stats();
        StoreReport {
            fast_clusters: residency.hot_clusters,
            total_clusters: residency.total_clusters,
            fast_bytes: residency.hot_bytes,
            cold_bytes: residency.cold_bytes,
            fast_residency: residency.byte_fraction(),
            hot_probes: stats.hot_probes,
            cold_probes: stats.cold_probes,
            hot_bytes_scanned: stats.hot_bytes_scanned,
            cold_bytes_scanned: stats.cold_bytes_scanned,
            bytes_promoted: stats.bytes_promoted,
            bytes_demoted: stats.bytes_demoted,
            store_generation: store.generation(),
            snapshot_waits: stats.snapshot_waits,
            blocked_scans: stats.blocked_scans,
            pairs_pruned: stats.pairs_pruned,
            kernel: vlite_ann::kernel::active().name(),
            opened_existing: store.opened_existing(),
            migrations,
        }
    }
}

/// Snapshot of everything a serving run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted into the queue (all tenants).
    pub admitted: u64,
    /// Requests rejected by admission control (all tenants).
    pub rejected: u64,
    /// Requests fully served (merged + delivered).
    pub completed: u64,
    /// Deepest total queue backlog observed (summed over tenants).
    pub peak_queue_depth: usize,
    /// Queueing delay (admission → batch launch). Like every `Summary`
    /// below: exact `count`/`mean`/`min`/`max`, percentiles at most
    /// ≈ 9.05 % high (see the module docs).
    pub queue: Summary,
    /// Search execution (batch launch → merged top-k).
    pub search: Summary,
    /// End-to-end latency (admission → merged top-k).
    pub e2e: Summary,
    /// The global search-stage SLO target in seconds.
    pub slo_target: f64,
    /// Fraction of requests whose search stage met the global SLO.
    pub slo_attainment: f64,
    /// Admission → first token (zero samples on retrieval-only servers).
    pub ttft: Summary,
    /// Merged top-k → prefill start (generation-stage queueing).
    pub gen_queue: Summary,
    /// Prefill start → first token.
    pub prefill: Summary,
    /// First token → last token.
    pub decode: Summary,
    /// The TTFT SLO target in seconds; `None` when generation is disabled.
    pub slo_ttft: Option<f64>,
    /// Fraction of requests whose TTFT met `slo_ttft` (`0.0` when
    /// generation is disabled). Sheds count as misses.
    pub ttft_attainment: f64,
    /// Requests shed at generation admission (rung 4 of the deadline
    /// ladder; served retrieval-only, counted as TTFT misses, and also
    /// counted in `deadline_sheds[2]`).
    pub gen_sheds: u64,
    /// Batches launched.
    pub batches: u64,
    /// Mean batch size (dynamic on-demand batching).
    pub mean_batch: f64,
    /// Largest batch absorbed in one launch.
    pub max_batch: usize,
    /// Requests the HTTP frontend scanned on their connection's thread
    /// while the runtime was idle: each is a batch of one (counted in
    /// `batches`) that never queued.
    pub caller_thread_scans: u64,
    /// Mean cache hit rate across served requests.
    pub mean_hit_rate: f64,
    /// Per-tenant breakdown, indexed by [`TenantId`].
    pub tenants: Vec<TenantReport>,
    /// Online repartitions performed by the control loop, in order.
    pub repartitions: Vec<RepartitionEvent>,
    /// Physical-tiering snapshot — always `Some` for a report taken from
    /// a running server (`None` only in a hand-built or decoded report).
    pub store: Option<StoreReport>,
    /// Placement generation at snapshot time.
    pub generation: u64,
    /// Worker scans that panicked and were degraded to empty partials
    /// (0 in healthy runs; nonzero means results were incomplete).
    pub worker_panics: u64,
    /// Requests shed on deadline grounds, indexed like
    /// [`crate::obs::DEADLINE_STAGES`] (admission, queue, generation).
    pub deadline_sheds: [u64; 3],
    /// Requests whose cold-tier probes went unscanned because their batch
    /// ran hot-only to fit its tightest remaining budget.
    pub cold_skips: u64,
    /// Budgeted requests whose reply left on or before their deadline.
    /// Only replies count: a generation shed still delivers its retrieval
    /// results and is judged at that instant, while admission and queue
    /// sheds never reply and appear only in `deadline_sheds`.
    pub deadline_met: u64,
    /// Budgeted requests whose reply left past their deadline (same
    /// population as `deadline_met`).
    pub deadline_missed: u64,
    /// `met / (met + missed)` over budgeted replies; `None` when the run
    /// delivered no budgeted reply.
    pub deadline_attainment: Option<f64>,
    /// Budget-burn ratio (queue seconds / budget seconds) over budgeted
    /// requests.
    pub burn_queue: Summary,
    /// Budget-burn ratio (search seconds / budget seconds).
    pub burn_search: Summary,
    /// Budget-burn ratio (generation seconds / budget seconds).
    pub burn_gen: Summary,
    /// Per-stage wall vs CPU profile from the trace plane's stage timers
    /// (empty when tracing is disabled).
    pub profile: Vec<StageProfile>,
}

impl ServeReport {
    /// Builds the report from the runtime's shared state: the telemetry
    /// plane (every per-request aggregate), the admission queue's counters,
    /// the event rings, the store and the stage profile.
    pub(crate) fn assemble(shared: &Shared) -> ServeReport {
        let obs = &shared.obs;
        let queue_stats = shared.queue.stats();
        let slo_ttft = shared.config.generation.as_ref().map(|g| g.slo_ttft);
        // Writers bump several independent counters per request, so a live
        // snapshot can catch one mid-update: ratios saturate instead of
        // under/overflowing, and settle once the writer finishes.
        let attainment = |completed: u64, breaches: u64| {
            if completed == 0 {
                0.0
            } else {
                completed.saturating_sub(breaches) as f64 / completed as f64
            }
        };
        let mean = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        let stage = |name: &str| obs.stage(name).expect("known stage name").summary();
        let burn = |name: &str| obs.burn(name).expect("known burn stage").summary();
        // Generation-disabled servers never observe TTFT: attainment 0.0.
        let ttft_attainment = |completed: u64, breaches: u64| {
            slo_ttft.map_or(0.0, |_| attainment(completed, breaches))
        };

        let completed = obs.completed.get();
        let tenants = (shared.config.tenants.iter())
            .zip(&obs.tenants)
            .zip(&queue_stats.tenants)
            .enumerate()
            .map(|(i, ((spec, m), q))| {
                let completed = m.completed.get();
                TenantReport {
                    tenant: TenantId(i as u16),
                    weight: spec.weight,
                    queue_capacity: spec.queue_capacity,
                    admitted: q.admitted,
                    rejected: q.rejected,
                    completed,
                    peak_queue_depth: q.peak_depth,
                    queue: m.queue.summary(),
                    search: m.search.summary(),
                    e2e: m.e2e.summary(),
                    slo_target: spec.slo_search,
                    slo_attainment: attainment(completed, m.search_slo_breaches.get()),
                    ttft: m.ttft.summary(),
                    ttft_attainment: ttft_attainment(completed, m.ttft_slo_breaches.get()),
                    gen_sheds: m.gen_sheds.get(),
                    mean_hit_rate: mean(m.hit_sum.get(), completed),
                }
            })
            .collect();
        let batches = obs.batches.get();
        let (deadline_met, deadline_missed) = (obs.deadline_met.get(), obs.deadline_missed.get());
        ServeReport {
            admitted: queue_stats.admitted,
            rejected: queue_stats.rejected,
            completed,
            peak_queue_depth: queue_stats.peak_depth,
            queue: stage("queue"),
            search: stage("search"),
            e2e: stage("e2e"),
            slo_target: shared.config.real.slo_search,
            slo_attainment: attainment(completed, obs.search_slo_breaches.get()),
            ttft: stage("ttft"),
            gen_queue: stage("gen_queue"),
            prefill: stage("prefill"),
            decode: stage("decode"),
            slo_ttft,
            ttft_attainment: ttft_attainment(completed, obs.ttft_slo_breaches.get()),
            gen_sheds: obs.gen_sheds.get(),
            batches,
            mean_batch: mean(obs.batched_requests.get() as f64, batches),
            max_batch: obs.max_batch(),
            caller_thread_scans: obs.caller_thread_scans.get(),
            mean_hit_rate: mean(obs.hit_sum.get(), completed),
            tenants,
            repartitions: shared.repartitions.snapshot(),
            store: Some(StoreReport::capture(
                &shared.store,
                shared.migrations.snapshot(),
            )),
            generation: shared.placement_snapshot().1,
            // relaxed: monotonic stat counter read for reporting only.
            worker_panics: shared.worker_panics.load(Ordering::Relaxed),
            deadline_sheds: std::array::from_fn(|i| obs.deadline_sheds[i].get()),
            cold_skips: obs.cold_skips.get(),
            deadline_met,
            deadline_missed,
            deadline_attainment: {
                let budgeted = deadline_met + deadline_missed;
                (budgeted > 0).then(|| deadline_met as f64 / budgeted as f64)
            },
            burn_queue: burn("queue"),
            burn_search: burn("search"),
            burn_gen: burn("generation"),
            profile: if shared.trace.enabled() {
                shared.trace.profile()
            } else {
                Vec::new()
            },
        }
    }

    /// Renders the report as aligned text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests: admitted {}  rejected {}  completed {}  peak queue depth {}\n",
            self.admitted, self.rejected, self.completed, self.peak_queue_depth
        ));
        out.push_str(&format!(
            "batching: {} batches, mean {:.1}, max {}, {} on a caller thread  |  \
             mean hit rate {:.3}  |  generation {}\n",
            self.batches,
            self.mean_batch,
            self.max_batch,
            self.caller_thread_scans,
            self.mean_hit_rate,
            self.generation
        ));
        out.push_str(&format!(
            "search SLO {}: attainment {:.1}%\n",
            fmt_seconds(self.slo_target),
            100.0 * self.slo_attainment
        ));
        if let Some(slo_ttft) = self.slo_ttft {
            out.push_str(&format!(
                "TTFT SLO {}: attainment {:.1}% (co-scheduled generation{})\n",
                fmt_seconds(slo_ttft),
                100.0 * self.ttft_attainment,
                if self.gen_sheds > 0 {
                    format!(", {} generation-admission sheds", self.gen_sheds)
                } else {
                    String::new()
                }
            ));
        }
        let sheds_total: u64 = self.deadline_sheds.iter().sum();
        if let Some(attainment) = self.deadline_attainment {
            out.push_str(&format!(
                "deadlines: {:.1}% met ({} met / {} missed)  \
                 sheds adm/queue/gen {}/{}/{}  cold skips {}\n",
                100.0 * attainment,
                self.deadline_met,
                self.deadline_missed,
                self.deadline_sheds[0],
                self.deadline_sheds[1],
                self.deadline_sheds[2],
                self.cold_skips
            ));
            out.push_str(&format!(
                "  budget burn p99: queue {:.2}  search {:.2}  generation {:.2}\n",
                self.burn_queue.p99, self.burn_search.p99, self.burn_gen.p99
            ));
        } else if sheds_total > 0 {
            out.push_str(&format!(
                "deadlines: every budgeted request shed (adm/queue/gen {}/{}/{})\n",
                self.deadline_sheds[0], self.deadline_sheds[1], self.deadline_sheds[2]
            ));
        }
        if self.worker_panics > 0 {
            out.push_str(&format!(
                "WARNING: {} worker scan(s) panicked and returned degraded partials\n",
                self.worker_panics
            ));
        }
        out.push('\n');

        let mut latencies = Table::new(vec!["stage", "p50", "p95", "p99", "mean", "max"]);
        for (stage, s) in self.stages() {
            latencies.row(vec![
                stage.to_string(),
                fmt_seconds(s.p50),
                fmt_seconds(s.p95),
                fmt_seconds(s.p99),
                fmt_seconds(s.mean),
                fmt_seconds(s.max),
            ]);
        }
        out.push_str(&latencies.render());

        let active_stages: Vec<&StageProfile> =
            self.profile.iter().filter(|p| p.sections > 0).collect();
        if !active_stages.is_empty() {
            let mut prof = Table::new(vec!["stage", "wall", "cpu", "stall", "sections"]);
            for p in active_stages {
                prof.row(vec![
                    p.stage.to_string(),
                    fmt_seconds(p.wall_s),
                    fmt_seconds(p.cpu_s),
                    fmt_seconds(p.stall_s),
                    p.sections.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str("per-stage profile (wall vs CPU inside instrumented sections):\n");
            out.push_str(&prof.render());
        }

        if self.tenants.len() > 1 {
            out.push('\n');
            out.push_str("per-tenant (weighted-fair admission and draining):\n");
            out.push_str(&self.tenant_table().render());
        }

        if self.repartitions.is_empty() {
            out.push_str("\nonline repartitions: none\n");
        } else {
            let mut events = Table::new(vec![
                "gen",
                "at request",
                "tripped by",
                "obs by tenant",
                "coverage",
                "hot overlap",
                "queue@swap",
                "rebuild",
            ]);
            for e in &self.repartitions {
                let by_tenant = e
                    .observed_by_tenant
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/");
                events.row(vec![
                    e.generation.to_string(),
                    e.at_request.to_string(),
                    e.triggered_by.to_string(),
                    by_tenant,
                    format!(
                        "{:.1}% -> {:.1}%",
                        100.0 * e.old_coverage,
                        100.0 * e.new_coverage
                    ),
                    format!("{:.2}", e.hot_overlap),
                    e.queue_depth_at_swap.to_string(),
                    fmt_seconds(e.duration.as_secs_f64()),
                ]);
            }
            out.push('\n');
            out.push_str("online repartitions (queue never drained):\n");
            out.push_str(&events.render());
        }

        if let Some(store) = &self.store {
            out.push('\n');
            out.push_str(&format!(
                "tiered store: {}/{} clusters fast ({:.1}% of bytes resident)  \
                 generation {}  reopened {}\n",
                store.fast_clusters,
                store.total_clusters,
                100.0 * store.fast_residency,
                store.store_generation,
                if store.opened_existing { "yes" } else { "no" }
            ));
            out.push_str(&format!(
                "  probes: fast {} / cold {}  scanned: fast {} B / cold {} B  \
                 migrated: +{} B / -{} B  snapshot waits {}\n",
                store.hot_probes,
                store.cold_probes,
                store.hot_bytes_scanned,
                store.cold_bytes_scanned,
                store.bytes_promoted,
                store.bytes_demoted,
                store.snapshot_waits
            ));
            out.push_str(&format!(
                "  kernel {}  blocked scans {} (cluster passes scoring >= 2 batched queries)  \
                 pairs pruned {}\n",
                store.kernel, store.blocked_scans, store.pairs_pruned
            ));
            if !store.migrations.is_empty() {
                let mut table = Table::new(vec![
                    "placement gen",
                    "store gen",
                    "tripped by",
                    "promoted",
                    "demoted",
                    "bytes +/-",
                    "batches during",
                    "duration",
                ]);
                for m in &store.migrations {
                    table.row(vec![
                        m.placement_generation.to_string(),
                        m.store_generation.to_string(),
                        m.triggered_by.to_string(),
                        m.promoted.to_string(),
                        m.demoted.to_string(),
                        format!("+{}/-{}", m.bytes_promoted, m.bytes_demoted),
                        format!("{}..{}", m.batches_before, m.batches_after),
                        fmt_seconds(m.duration.as_secs_f64()),
                    ]);
                }
                out.push_str("  tier migrations (scans never stalled):\n");
                out.push_str(&table.render());
            }
        }
        out
    }

    /// The report's latency stages in fixed order: the retrieval stages,
    /// then the generation stages (all-zero summaries when generation is
    /// disabled). The render row set, stable for parsers.
    pub fn stages(&self) -> [(&'static str, &Summary); 7] {
        [
            ("queue", &self.queue),
            ("search", &self.search),
            ("e2e", &self.e2e),
            ("gen_queue", &self.gen_queue),
            ("prefill", &self.prefill),
            ("decode", &self.decode),
            ("ttft", &self.ttft),
        ]
    }

    /// The per-tenant breakdown as an aligned table (one row per tenant).
    pub fn tenant_table(&self) -> Table {
        let mut table = Table::new(vec![
            "tenant",
            "weight",
            "admitted",
            "rejected",
            "completed",
            "queue p99",
            "search p50",
            "search p99",
            "e2e p99",
            "SLO",
            "attainment",
            "ttft p99",
            "ttft att.",
            "sheds",
            "hit rate",
        ]);
        for t in &self.tenants {
            table.row(vec![
                t.tenant.to_string(),
                t.weight.to_string(),
                t.admitted.to_string(),
                t.rejected.to_string(),
                t.completed.to_string(),
                fmt_seconds(t.queue.p99),
                fmt_seconds(t.search.p50),
                fmt_seconds(t.search.p99),
                fmt_seconds(t.e2e.p99),
                fmt_seconds(t.slo_target),
                format!("{:.1}%", 100.0 * t.slo_attainment),
                if self.slo_ttft.is_some() {
                    fmt_seconds(t.ttft.p99)
                } else {
                    "-".into()
                },
                if self.slo_ttft.is_some() {
                    format!("{:.1}%", 100.0 * t.ttft_attainment)
                } else {
                    "-".into()
                },
                t.gen_sheds.to_string(),
                format!("{:.3}", t.mean_hit_rate),
            ]);
        }
        table
    }

    /// The whole report as a JSON value — what `GET /v1/report` serves.
    /// Field names mirror the struct exactly so the wire format needs no
    /// separate documentation.
    pub fn to_json(&self) -> Json {
        fn summary_json(s: &Summary) -> Json {
            Json::Obj(vec![
                ("count".into(), Json::Num(s.count as f64)),
                ("mean".into(), Json::Num(s.mean)),
                ("min".into(), Json::Num(s.min)),
                ("max".into(), Json::Num(s.max)),
                ("p50".into(), Json::Num(s.p50)),
                ("p90".into(), Json::Num(s.p90)),
                ("p95".into(), Json::Num(s.p95)),
                ("p99".into(), Json::Num(s.p99)),
            ])
        }
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("tenant".into(), Json::Num(f64::from(t.tenant.0))),
                    ("weight".into(), Json::Num(f64::from(t.weight))),
                    ("queue_capacity".into(), Json::Num(t.queue_capacity as f64)),
                    ("admitted".into(), Json::Num(t.admitted as f64)),
                    ("rejected".into(), Json::Num(t.rejected as f64)),
                    ("completed".into(), Json::Num(t.completed as f64)),
                    (
                        "peak_queue_depth".into(),
                        Json::Num(t.peak_queue_depth as f64),
                    ),
                    ("queue".into(), summary_json(&t.queue)),
                    ("search".into(), summary_json(&t.search)),
                    ("e2e".into(), summary_json(&t.e2e)),
                    ("slo_target".into(), Json::Num(t.slo_target)),
                    ("slo_attainment".into(), Json::Num(t.slo_attainment)),
                    ("ttft".into(), summary_json(&t.ttft)),
                    ("ttft_attainment".into(), Json::Num(t.ttft_attainment)),
                    ("gen_sheds".into(), Json::Num(t.gen_sheds as f64)),
                    ("mean_hit_rate".into(), Json::Num(t.mean_hit_rate)),
                ])
            })
            .collect();
        let repartitions = self
            .repartitions
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("generation".into(), Json::Num(e.generation as f64)),
                    ("at_request".into(), Json::Num(e.at_request as f64)),
                    (
                        "triggered_by".into(),
                        Json::Num(f64::from(e.triggered_by.0)),
                    ),
                    (
                        "observed_by_tenant".into(),
                        Json::Arr(
                            e.observed_by_tenant
                                .iter()
                                .map(|&n| Json::Num(n as f64))
                                .collect(),
                        ),
                    ),
                    ("old_coverage".into(), Json::Num(e.old_coverage)),
                    ("new_coverage".into(), Json::Num(e.new_coverage)),
                    ("hot_overlap".into(), Json::Num(e.hot_overlap)),
                    (
                        "queue_depth_at_swap".into(),
                        Json::Num(e.queue_depth_at_swap as f64),
                    ),
                    ("duration_s".into(), Json::Num(e.duration.as_secs_f64())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("admitted".into(), Json::Num(self.admitted as f64)),
            ("rejected".into(), Json::Num(self.rejected as f64)),
            ("completed".into(), Json::Num(self.completed as f64)),
            (
                "peak_queue_depth".into(),
                Json::Num(self.peak_queue_depth as f64),
            ),
            ("queue".into(), summary_json(&self.queue)),
            ("search".into(), summary_json(&self.search)),
            ("e2e".into(), summary_json(&self.e2e)),
            ("slo_target".into(), Json::Num(self.slo_target)),
            ("slo_attainment".into(), Json::Num(self.slo_attainment)),
            ("ttft".into(), summary_json(&self.ttft)),
            ("gen_queue".into(), summary_json(&self.gen_queue)),
            ("prefill".into(), summary_json(&self.prefill)),
            ("decode".into(), summary_json(&self.decode)),
            (
                "slo_ttft".into(),
                match self.slo_ttft {
                    Some(s) => Json::Num(s),
                    None => Json::Null,
                },
            ),
            ("ttft_attainment".into(), Json::Num(self.ttft_attainment)),
            ("gen_sheds".into(), Json::Num(self.gen_sheds as f64)),
            ("batches".into(), Json::Num(self.batches as f64)),
            ("mean_batch".into(), Json::Num(self.mean_batch)),
            ("max_batch".into(), Json::Num(self.max_batch as f64)),
            (
                "caller_thread_scans".into(),
                Json::Num(self.caller_thread_scans as f64),
            ),
            ("mean_hit_rate".into(), Json::Num(self.mean_hit_rate)),
            ("tenants".into(), Json::Arr(tenants)),
            ("repartitions".into(), Json::Arr(repartitions)),
            (
                "store".into(),
                match &self.store {
                    None => Json::Null,
                    Some(s) => {
                        let migrations = s
                            .migrations
                            .iter()
                            .map(|m| {
                                Json::Obj(vec![
                                    (
                                        "placement_generation".into(),
                                        Json::Num(m.placement_generation as f64),
                                    ),
                                    (
                                        "store_generation".into(),
                                        Json::Num(m.store_generation as f64),
                                    ),
                                    (
                                        "triggered_by".into(),
                                        Json::Num(f64::from(m.triggered_by.0)),
                                    ),
                                    ("promoted".into(), Json::Num(m.promoted as f64)),
                                    ("demoted".into(), Json::Num(m.demoted as f64)),
                                    ("bytes_promoted".into(), Json::Num(m.bytes_promoted as f64)),
                                    ("bytes_demoted".into(), Json::Num(m.bytes_demoted as f64)),
                                    ("batches_before".into(), Json::Num(m.batches_before as f64)),
                                    ("batches_after".into(), Json::Num(m.batches_after as f64)),
                                    ("duration_s".into(), Json::Num(m.duration.as_secs_f64())),
                                ])
                            })
                            .collect();
                        Json::Obj(vec![
                            ("fast_clusters".into(), Json::Num(s.fast_clusters as f64)),
                            ("total_clusters".into(), Json::Num(s.total_clusters as f64)),
                            ("fast_bytes".into(), Json::Num(s.fast_bytes as f64)),
                            ("cold_bytes".into(), Json::Num(s.cold_bytes as f64)),
                            ("fast_residency".into(), Json::Num(s.fast_residency)),
                            ("hot_probes".into(), Json::Num(s.hot_probes as f64)),
                            ("cold_probes".into(), Json::Num(s.cold_probes as f64)),
                            (
                                "hot_bytes_scanned".into(),
                                Json::Num(s.hot_bytes_scanned as f64),
                            ),
                            (
                                "cold_bytes_scanned".into(),
                                Json::Num(s.cold_bytes_scanned as f64),
                            ),
                            ("bytes_promoted".into(), Json::Num(s.bytes_promoted as f64)),
                            ("bytes_demoted".into(), Json::Num(s.bytes_demoted as f64)),
                            (
                                "store_generation".into(),
                                Json::Num(s.store_generation as f64),
                            ),
                            ("snapshot_waits".into(), Json::Num(s.snapshot_waits as f64)),
                            ("blocked_scans".into(), Json::Num(s.blocked_scans as f64)),
                            ("pairs_pruned".into(), Json::Num(s.pairs_pruned as f64)),
                            ("kernel".into(), Json::Str(s.kernel.into())),
                            ("opened_existing".into(), Json::Bool(s.opened_existing)),
                            ("migrations".into(), Json::Arr(migrations)),
                        ])
                    }
                },
            ),
            ("generation".into(), Json::Num(self.generation as f64)),
            ("worker_panics".into(), Json::Num(self.worker_panics as f64)),
            (
                "deadline_sheds".into(),
                Json::Obj(vec![
                    ("admission".into(), Json::Num(self.deadline_sheds[0] as f64)),
                    ("queue".into(), Json::Num(self.deadline_sheds[1] as f64)),
                    (
                        "generation".into(),
                        Json::Num(self.deadline_sheds[2] as f64),
                    ),
                ]),
            ),
            ("cold_skips".into(), Json::Num(self.cold_skips as f64)),
            ("deadline_met".into(), Json::Num(self.deadline_met as f64)),
            (
                "deadline_missed".into(),
                Json::Num(self.deadline_missed as f64),
            ),
            (
                "deadline_attainment".into(),
                match self.deadline_attainment {
                    Some(a) => Json::Num(a),
                    None => Json::Null,
                },
            ),
            ("burn_queue".into(), summary_json(&self.burn_queue)),
            ("burn_search".into(), summary_json(&self.burn_search)),
            ("burn_gen".into(), summary_json(&self.burn_gen)),
            (
                "profile".into(),
                Json::Arr(
                    self.profile
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("stage".into(), Json::Str(p.stage.into())),
                                ("wall_s".into(), Json::Num(p.wall_s)),
                                ("cpu_s".into(), Json::Num(p.cpu_s)),
                                ("stall_s".into(), Json::Num(p.stall_s)),
                                ("sections".into(), Json::Num(p.sections as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
