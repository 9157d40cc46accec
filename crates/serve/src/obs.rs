//! The telemetry plane (`vlite-obs`): the runtime's one store of
//! per-request *aggregates*, plus the journal of runtime events.
//!
//! Every request that reaches its end is recorded exactly once, by
//! `Shared::record_outcome`, into the lock-free instruments of
//! [`vlite_metrics::obs`] held here. Both read paths answer from this one
//! store — [`ServeReport`](crate::ServeReport) (`GET /v1/report`) and the
//! Prometheus exposition (`GET /v1/metrics`) — so they cannot disagree,
//! memory stays flat for any uptime, and neither read blocks serving:
//!
//! - [`ObsPlane`] — sharded atomic counters and log-bucketed streaming
//!   histograms for every pipeline stage (plus a per-tenant slice of the
//!   retrieval stages and TTFT), recorded by the batcher, generation
//!   worker and admission path without taking any lock. Counts, sums,
//!   minima and maxima are exact; percentiles are bucket upper bounds
//!   (at most [`StreamingHistogram::relative_error_bound`] high).
//! - [`ObsEvent`] + a bounded journal — one ordered stream for the
//!   runtime's own discrete events (repartitions, tier migrations, SLO
//!   burn-rate transitions, panics), served by `GET /v1/events`. No
//!   request writes a line: a flood of sheds or SLO misses cannot evict
//!   the repartition an operator is looking for.
//! - [`BoundedRing`] — the fixed-capacity, eviction-counting ring behind
//!   the journal and the repartition/migration histories.
//!
//! The plane holds no per-request record: each finished request's timeline
//! lives once, as a span tree, in the trace plane's store
//! ([`crate::trace`]), and `GET /v1/traces` is a view over it. A shed or
//! a missed target is counted here and kept there, with its
//! `shed:{reason}` marker. [`ObsConfig::enabled`] gates only the journal.
//! Counters and histograms always record — the report is built from them.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vlite_metrics::obs::{Counter, Gauge, StreamingHistogram};

use crate::http::json::Json;
use crate::server::RequestOutcome;

/// Telemetry-plane knobs ([`ServeConfig::obs`](crate::ServeConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Switch for the journal of runtime events (repartitions,
    /// migrations, SLO burn transitions, panics). Disabled, `/v1/events`
    /// serves an empty body; counters and histograms record regardless —
    /// the report is built from them — and every per-request record (the
    /// span trees) is gated by [`TraceConfig::enabled`](crate::TraceConfig)
    /// instead.
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// Capacity of the unified event journal. Froze
/// `ObsConfig::journal_capacity` at its default.
pub const JOURNAL_CAPACITY: usize = 1024;
/// Capacity of each of the repartition- and migration-history rings. Froze
/// `ObsConfig::repartition_capacity` / `migration_capacity` at their
/// (shared) default.
pub const HISTORY_CAPACITY: usize = 1024;

/// A fixed-capacity ring that counts what it evicts.
///
/// This is *not* a hot-path instrument — pushes take a (short, dedicated)
/// mutex — it is the bounded replacement for the runtime's grow-forever
/// event vectors, and the store behind the journal.
#[derive(Debug)]
pub struct BoundedRing<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
    evicted: AtomicU64,
}

impl<T: Clone> BoundedRing<T> {
    /// An empty ring holding at most `capacity` items (capacity 0 keeps
    /// nothing and counts every push as an eviction).
    pub fn new(capacity: usize) -> Self {
        Self {
            items: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            evicted: AtomicU64::new(0),
        }
    }

    /// Appends `item`, evicting the oldest entry when full.
    pub fn push(&self, item: T) {
        let mut items = crate::sync::lock_recover(&self.items);
        if self.capacity == 0 {
            // relaxed: eviction stat counter; the ring's contents are
            // ordered by the mutex, the counter is a lone tally.
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if items.len() == self.capacity {
            items.pop_front();
            // relaxed: eviction stat counter, as above.
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        crate::sync::lock_recover(&self.items)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        crate::sync::lock_recover(&self.items).len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted (or dropped at capacity 0) over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        // relaxed: stat counter read for reporting only.
        self.evicted.load(Ordering::Relaxed)
    }
}

/// How serious a journal event is. Routine bookkeeping (repartitions,
/// migrations, a burn rate recovering) is `Info`; an SLO burning its
/// error budget is `Warn`; conditions that demand an operator (worker
/// panics, critical SLO burn) are `Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine bookkeeping.
    Info,
    /// Degraded service: an SLO burning its error budget.
    Warn,
    /// Operator-demanding: panics, critical burn rates.
    Critical,
}

impl Severity {
    /// Lowercase name as rendered in `/v1/events`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parses the lowercase name (the `?severity=` query value).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One discrete runtime event in the unified journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// When the event happened, nanoseconds on the server's clock.
    pub at_ns: u64,
    /// How serious the event is.
    pub severity: Severity,
    /// Event kind (`repartition`, `migration`, `slo_burn`, `panic`).
    pub kind: &'static str,
    /// Human-readable detail line.
    pub detail: String,
}

impl ObsEvent {
    /// The event as a JSON value (what `GET /v1/events` serves per entry).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("at_ns".into(), Json::Num(self.at_ns as f64)),
            ("severity".into(), Json::Str(self.severity.as_str().into())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

/// The pipeline-stage histograms, in the exposition's fixed order.
const STAGES: [&str; 7] = [
    "queue",
    "search",
    "e2e",
    "ttft",
    "gen_queue",
    "prefill",
    "decode",
];

// Indexes into `ObsPlane::stage_hist`, ordered like `STAGES`: the record
// path indexes by constant instead of searching the names per request.
const HIST_QUEUE: usize = 0;
const HIST_SEARCH: usize = 1;
const HIST_E2E: usize = 2;
const HIST_TTFT: usize = 3;
const HIST_GEN_QUEUE: usize = 4;
const HIST_PREFILL: usize = 5;
const HIST_DECODE: usize = 6;

/// Index into the deadline-shed counters: shed at admission (rung 1 of
/// the degradation ladder — the estimated queue wait already exceeds the
/// whole budget).
pub const DEADLINE_STAGE_ADMISSION: usize = 0;
/// Index into the deadline-shed counters: shed at batch formation (rung 2
/// — the request expired while queued).
pub const DEADLINE_STAGE_QUEUE: usize = 1;
/// Index into the deadline-shed counters: shed by generation admission
/// (rung 4 — the estimated first token would land past the deadline).
pub const DEADLINE_STAGE_GENERATION: usize = 2;

/// Names of the deadline-shed stages, indexed by the
/// `DEADLINE_STAGE_*` constants.
pub const DEADLINE_STAGES: [&str; 3] = ["admission", "queue", "generation"];

/// Index into the budget-burn histograms: fraction of the budget burned
/// waiting in the admission queue.
pub const BURN_STAGE_QUEUE: usize = 0;
/// Index into the budget-burn histograms: fraction burned in retrieval.
pub const BURN_STAGE_SEARCH: usize = 1;
/// Index into the budget-burn histograms: fraction burned in generation.
pub const BURN_STAGE_GENERATION: usize = 2;

/// Names of the budget-burn stages, indexed by the `BURN_STAGE_*`
/// constants.
pub const BURN_STAGES: [&str; 3] = ["queue", "search", "generation"];

/// One tenant's slice of the plane, behind the per-tenant rows of
/// [`ServeReport`](crate::ServeReport) (not part of the exposition).
#[derive(Debug, Default)]
pub(crate) struct TenantSlice {
    pub completed: Counter,
    /// Search-stage misses against this tenant's *own* `slo_search`.
    pub search_slo_breaches: Counter,
    /// TTFT misses against the global `slo_ttft` (sheds included).
    pub ttft_slo_breaches: Counter,
    pub gen_sheds: Counter,
    /// Sum of served requests' hit rates (mean = sum / completed).
    pub hit_sum: Gauge,
    pub queue: StreamingHistogram,
    pub search: StreamingHistogram,
    pub e2e: StreamingHistogram,
    pub ttft: StreamingHistogram,
}

/// The telemetry plane: one instance per server, shared by every runtime
/// thread. All counter/histogram recording is lock-free
/// ([`vlite_metrics::obs`]) and always on; journal capture — runtime
/// events only, never a request — takes a (short, dedicated) ring mutex
/// and is skipped when the plane is disabled.
#[derive(Debug)]
pub struct ObsPlane {
    enabled: bool,
    /// Requests whose lifecycle ended with a reply (delivered, or shed by
    /// generation admission with retrieval results).
    pub completed: Counter,
    /// Requests shed at generation admission (rung 4 of the deadline
    /// ladder; each also ticks `deadline_sheds`).
    pub gen_sheds: Counter,
    /// Batches launched.
    pub batches: Counter,
    /// Requests absorbed into batches.
    pub batched_requests: Counter,
    /// Requests whose search stage missed its SLO.
    pub search_slo_breaches: Counter,
    /// Requests whose TTFT missed `slo_ttft` (sheds included).
    pub ttft_slo_breaches: Counter,
    /// Requests shed on deadline grounds, indexed like
    /// [`DEADLINE_STAGES`].
    pub deadline_sheds: [Counter; 3],
    /// Requests whose cold-tier (CPU) probes went unscanned because their
    /// batch ran hot-only: its tightest budget was below the measured full
    /// search (rung 3 of the degradation ladder).
    pub cold_skips: Counter,
    /// Budgeted replies that left on or before their deadline.
    pub deadline_met: Counter,
    /// Budgeted replies that left past their deadline.
    pub deadline_missed: Counter,
    /// Largest batch absorbed in one launch.
    max_batch: AtomicU64,
    /// Sum of served requests' hit rates (mean = sum / completed).
    pub(crate) hit_sum: Gauge,
    /// Stage latency histograms, indexed like [`STAGES`].
    stage_hist: [StreamingHistogram; 7],
    /// Budget-burn ratio histograms (stage seconds over budget seconds),
    /// indexed like [`BURN_STAGES`].
    burn_hist: [StreamingHistogram; 3],
    /// Per-tenant slices, indexed by [`TenantId`](crate::TenantId).
    pub(crate) tenants: Vec<TenantSlice>,
    journal: BoundedRing<ObsEvent>,
}

impl ObsPlane {
    /// Builds the plane from its config, with one per-tenant slice for
    /// each of `n_tenants` tenants.
    pub fn new(config: &ObsConfig, n_tenants: usize) -> Self {
        Self {
            enabled: config.enabled,
            completed: Counter::new(),
            gen_sheds: Counter::new(),
            batches: Counter::new(),
            batched_requests: Counter::new(),
            search_slo_breaches: Counter::new(),
            ttft_slo_breaches: Counter::new(),
            deadline_sheds: std::array::from_fn(|_| Counter::new()),
            cold_skips: Counter::new(),
            deadline_met: Counter::new(),
            deadline_missed: Counter::new(),
            max_batch: AtomicU64::new(0),
            hit_sum: Gauge::new(),
            stage_hist: std::array::from_fn(|_| StreamingHistogram::new()),
            burn_hist: std::array::from_fn(|_| StreamingHistogram::new()),
            tenants: (0..n_tenants).map(|_| TenantSlice::default()).collect(),
            journal: BoundedRing::new(JOURNAL_CAPACITY),
        }
    }

    /// Whether the journal captures anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The stage histogram for `stage` (one of `queue`, `search`, `e2e`,
    /// `ttft`, `gen_queue`, `prefill`, `decode`).
    pub fn stage(&self, stage: &str) -> Option<&StreamingHistogram> {
        STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|i| &self.stage_hist[i])
    }

    /// The budget-burn histogram for `stage` (one of [`BURN_STAGES`]).
    pub fn burn(&self, stage: &str) -> Option<&StreamingHistogram> {
        BURN_STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|i| &self.burn_hist[i])
    }

    /// Largest batch absorbed in one launch so far.
    pub fn max_batch(&self) -> usize {
        // relaxed: running-maximum stat read for reporting only.
        self.max_batch.load(Ordering::Relaxed) as usize
    }

    /// One batch of `n` requests completed.
    pub fn on_batch(&self, n: usize) {
        self.batches.inc();
        self.batched_requests.add(n as u64);
        // relaxed: single-word running maximum; a lone stat, ordered with
        // nothing else.
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// One budgeted request burned `ratio` of its budget in `stage` (a
    /// `BURN_STAGE_*` index). Ratios above 1.0 mean the stage alone
    /// overran the whole budget.
    pub fn on_budget_burn(&self, stage: usize, ratio: f64) {
        self.burn_hist[stage].record(ratio);
    }

    /// One request's lifecycle ended with a reply: record every stage
    /// histogram (global and the tenant's slice) and the completion, breach
    /// and shed counters (the request's timeline itself goes to the trace
    /// plane). `search_met` is the verdict against the global search SLO,
    /// `tenant_search_met` against the tenant's own; `ttft_met` is `None`
    /// on retrieval-only servers, `Some(false)` for sheds.
    pub fn on_request(
        &self,
        o: &RequestOutcome,
        search_met: bool,
        tenant_search_met: bool,
        ttft_met: Option<bool>,
    ) {
        let timings = &o.timings;
        let slice = &self.tenants[o.tenant.index()];
        self.completed.inc();
        slice.completed.inc();
        self.hit_sum.add(o.hit_rate);
        slice.hit_sum.add(o.hit_rate);
        self.stage_hist[HIST_QUEUE].record(timings.queue);
        slice.queue.record(timings.queue);
        self.stage_hist[HIST_SEARCH].record(timings.search);
        slice.search.record(timings.search);
        self.stage_hist[HIST_E2E].record(timings.e2e);
        slice.e2e.record(timings.e2e);
        if let Some(gen) = &timings.generation {
            self.stage_hist[HIST_TTFT].record(gen.ttft);
            slice.ttft.record(gen.ttft);
            self.stage_hist[HIST_GEN_QUEUE].record(gen.gen_queue);
            self.stage_hist[HIST_PREFILL].record(gen.prefill);
            self.stage_hist[HIST_DECODE].record(gen.decode);
        }
        if !tenant_search_met {
            slice.search_slo_breaches.inc();
        }
        if !search_met {
            self.search_slo_breaches.inc();
        }
        if ttft_met == Some(false) {
            self.ttft_slo_breaches.inc();
            slice.ttft_slo_breaches.inc();
        }
        if o.shed.is_some() {
            self.gen_sheds.inc();
            slice.gen_sheds.inc();
        }
    }

    /// Appends one runtime event to the journal (dropped while the journal
    /// is off).
    pub fn journal(&self, at_ns: u64, severity: Severity, kind: &'static str, detail: String) {
        if self.enabled {
            self.journal.push(ObsEvent {
                at_ns,
                severity,
                kind,
                detail,
            });
        }
    }

    /// The unified event journal, oldest first.
    pub fn journal_snapshot(&self) -> Vec<ObsEvent> {
        self.journal.snapshot()
    }

    /// The journal as the `/v1/events` JSON body.
    pub fn events_json(&self) -> Json {
        self.events_json_filtered(None)
    }

    /// [`ObsPlane::events_json`] restricted to one severity when
    /// `severity` is `Some` (the `?severity=` query parameter).
    pub fn events_json_filtered(&self, severity: Option<Severity>) -> Json {
        let events: Vec<Json> = self
            .journal
            .snapshot()
            .iter()
            .filter(|e| severity.is_none_or(|s| e.severity == s))
            .map(ObsEvent::to_json)
            .collect();
        Json::Obj(vec![
            ("events".into(), Json::Arr(events)),
            (
                "severity".into(),
                severity.map_or(Json::Null, |s| Json::Str(s.as_str().into())),
            ),
            ("evicted".into(), Json::Num(self.journal.evicted() as f64)),
        ])
    }

    /// Journal occupancy and evictions, for the exposition's bookkeeping
    /// gauges.
    pub fn journal_stats(&self) -> (usize, u64) {
        (self.journal.len(), self.journal.evicted())
    }

    /// Writes the plane's own metric families (counters + stage
    /// histograms) in Prometheus text exposition format. The caller
    /// appends scrape-time gauges (queue depth, placement generation,
    /// store residency, uptime) before serving.
    pub fn prometheus_into(&self, out: &mut String) {
        // `fmt::Write` for `String` is infallible.
        let _ = self.write_prometheus(out);
    }

    fn write_prometheus(&self, out: &mut String) -> std::fmt::Result {
        for (name, help, counter) in [
            (
                "vlite_completed_total",
                "Requests answered with a reply (admission and queue sheds never count)",
                &self.completed,
            ),
            (
                "vlite_gen_sheds_total",
                "Requests shed at generation admission (rung 4 of the deadline ladder)",
                &self.gen_sheds,
            ),
            (
                "vlite_batches_total",
                "Batches launched by the on-demand batcher",
                &self.batches,
            ),
            (
                "vlite_batched_requests_total",
                "Requests absorbed into batches",
                &self.batched_requests,
            ),
            (
                "vlite_search_slo_breaches_total",
                "Requests whose search stage missed its SLO",
                &self.search_slo_breaches,
            ),
            (
                "vlite_ttft_slo_breaches_total",
                "Requests whose TTFT missed the slo_ttft target (sheds included)",
                &self.ttft_slo_breaches,
            ),
        ] {
            prom_counter(out, name, help, counter.get());
        }
        out.push_str(
            "# HELP vlite_deadline_sheds_total Requests shed on deadline grounds, by pipeline stage\n\
             # TYPE vlite_deadline_sheds_total counter\n",
        );
        for (stage, counter) in DEADLINE_STAGES.iter().zip(&self.deadline_sheds) {
            writeln!(
                out,
                "vlite_deadline_sheds_total{{stage=\"{stage}\"}} {}",
                counter.get()
            )?;
        }
        prom_counter(
            out,
            "vlite_cold_skips_total",
            "Requests whose cold-tier probes were skipped to fit the remaining budget",
            self.cold_skips.get(),
        );
        out.push_str(
            "# HELP vlite_budget_burn Per-stage budget-burn ratio distributions (stage seconds / budget seconds)\n\
             # TYPE vlite_budget_burn histogram\n",
        );
        for (stage, hist) in BURN_STAGES.iter().zip(&self.burn_hist) {
            prom_histogram(out, "vlite_budget_burn", stage, hist)?;
        }
        out.push_str(
            "# HELP vlite_stage_seconds Per-stage latency distributions (log-bucketed)\n\
             # TYPE vlite_stage_seconds histogram\n",
        );
        for (stage, hist) in STAGES.iter().zip(&self.stage_hist) {
            prom_histogram(out, "vlite_stage_seconds", stage, hist)?;
        }
        Ok(())
    }
}

/// Writes one `stage`-labelled histogram of `family`: bucket rows, then
/// `_sum` and `_count`. Only materialized buckets are emitted — with
/// log-spaced bounds every emitted `le` is still a valid cumulative row,
/// and ~320 mostly-empty rows per stage would drown the scrape.
fn prom_histogram(
    out: &mut String,
    family: &str,
    stage: &str,
    hist: &StreamingHistogram,
) -> std::fmt::Result {
    for (bound, cumulative) in hist.cumulative_buckets() {
        writeln!(
            out,
            "{family}_bucket{{stage=\"{stage}\",le=\"{bound:e}\"}} {cumulative}"
        )?;
    }
    let count = hist.count();
    writeln!(
        out,
        "{family}_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {count}"
    )?;
    writeln!(
        out,
        "{family}_sum{{stage=\"{stage}\"}} {}",
        hist.sum_seconds()
    )?;
    writeln!(out, "{family}_count{{stage=\"{stage}\"}} {count}")
}

/// Writes one counter family in exposition format.
pub(crate) fn prom_counter(out: &mut String, name: &str, help: &str, value: u64) {
    // `fmt::Write` for `String` is infallible.
    let _ = writeln!(
        out,
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
    );
}

/// Writes one gauge family in exposition format.
pub(crate) fn prom_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    // `fmt::Write` for `String` is infallible.
    let _ = writeln!(
        out,
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
    );
}

/// Escapes a label value per the Prometheus text-format spec: backslash,
/// double-quote and newline must be escaped inside `label="..."`.
pub(crate) fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestTimings, TenantId};
    use crate::server::ShedCause;
    use crate::trace::TraceId;
    use vlite_sim::SimTime;

    /// A retrieval-only reply (or, with `shed`, a generation shed) that
    /// took `e2e` seconds.
    fn outcome(id: u64, tenant: u16, e2e: f64, hit_rate: f64, shed: bool) -> RequestOutcome {
        RequestOutcome {
            id,
            tenant: TenantId(tenant),
            trace: TraceId(u128::from(id) + 1),
            batch_trace: None,
            enqueued: SimTime::ZERO,
            end: SimTime::from_secs_f64(e2e),
            timings: RequestTimings {
                queue: 0.001,
                search: 0.002,
                e2e,
                generation: None,
            },
            hit_rate,
            deadline: None,
            gen_busy: None,
            shed: shed.then_some(ShedCause::GenDeadline),
        }
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts() {
        let ring = BoundedRing::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let ring = BoundedRing::new(0);
        ring.push(1);
        assert!(ring.is_empty());
        assert_eq!(ring.evicted(), 1);
    }

    #[test]
    fn requests_land_in_the_global_and_tenant_aggregates() {
        let plane = ObsPlane::new(&ObsConfig::default(), 2);
        plane.on_request(&outcome(0, 0, 0.003, 0.5, false), true, true, None);
        plane.on_request(&outcome(1, 1, 0.5, 1.0, false), false, true, None);
        plane.on_request(&outcome(2, 0, 0.004, 0.25, true), true, false, Some(false));
        assert_eq!(plane.completed.get(), 3);
        assert_eq!(plane.gen_sheds.get(), 1);
        assert_eq!(plane.search_slo_breaches.get(), 1);
        assert_eq!(plane.ttft_slo_breaches.get(), 1);
        assert_eq!(plane.hit_sum.get(), 1.75);
        // Each tenant's slice saw only its own requests, judged against
        // its own search verdict.
        let (a, b) = (&plane.tenants[0], &plane.tenants[1]);
        assert_eq!((a.completed.get(), b.completed.get()), (2, 1));
        assert_eq!(a.search_slo_breaches.get(), 1, "request 2, tenant verdict");
        assert_eq!(b.search_slo_breaches.get(), 0, "global-only breach");
        assert_eq!((a.gen_sheds.get(), a.ttft_slo_breaches.get()), (1, 1));
        assert_eq!((a.hit_sum.get(), b.hit_sum.get()), (0.75, 1.0));
        assert_eq!((a.e2e.count(), b.e2e.count()), (2, 1));
        // Breaches and sheds are counted, never journaled.
        assert!(plane.journal_snapshot().is_empty());
    }

    #[test]
    fn disabled_plane_keeps_aggregates_but_captures_nothing() {
        let config = ObsConfig { enabled: false };
        let plane = ObsPlane::new(&config, 1);
        plane.on_batch(4);
        plane.on_request(&outcome(0, 0, 9.0, 0.0, true), false, false, None);
        plane.journal(0, Severity::Warn, "slo_burn", "x".into());
        assert_eq!(plane.completed.get(), 1);
        assert_eq!(plane.search_slo_breaches.get(), 1);
        assert_eq!((plane.batches.get(), plane.max_batch()), (1, 4));
        assert!(plane.journal.is_empty());
    }

    #[test]
    fn exposition_counts_agree_with_the_counters() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.on_batch(2);
        plane.on_request(&outcome(0, 0, 0.003, 1.0, false), true, true, None);
        let mut text = String::new();
        plane.prometheus_into(&mut text);
        assert!(text.contains("vlite_completed_total 1\n"));
        assert!(text.contains("vlite_batches_total 1\n"));
        assert!(text.contains("vlite_stage_seconds_count{stage=\"search\"} 1\n"));
        assert!(text.contains("le=\"+Inf\"}"));
        // Retrieval-only: generation stages exist but are empty.
        assert!(text.contains("vlite_stage_seconds_count{stage=\"ttft\"} 0\n"));
    }

    #[test]
    fn deadline_hooks_count_and_expose() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.deadline_sheds[DEADLINE_STAGE_ADMISSION].inc();
        plane.deadline_sheds[DEADLINE_STAGE_QUEUE].add(2);
        plane.deadline_sheds[DEADLINE_STAGE_GENERATION].inc();
        plane.cold_skips.inc();
        plane.on_budget_burn(BURN_STAGE_QUEUE, 0.5);
        plane.on_budget_burn(BURN_STAGE_SEARCH, 0.25);
        let mut text = String::new();
        plane.prometheus_into(&mut text);
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"admission\"} 1\n"));
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"queue\"} 2\n"));
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"generation\"} 1\n"));
        assert!(text.contains("vlite_cold_skips_total 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"queue\"} 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"search\"} 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"generation\"} 0\n"));
        assert!(plane.burn("queue").is_some() && plane.burn("nope").is_none());
    }

    #[test]
    fn journal_severity_renders_and_filters() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.journal(1, Severity::Info, "repartition", "routine".into());
        plane.journal(2, Severity::Warn, "slo_burn", "degraded".into());
        plane.journal(3, Severity::Critical, "panic", "bad".into());
        let all = plane.events_json().render();
        assert!(all.contains("\"severity\":\"info\""));
        assert!(all.contains("\"severity\":\"critical\""));
        let warn_only = plane.events_json_filtered(Some(Severity::Warn)).render();
        assert!(warn_only.contains("degraded"));
        assert!(!warn_only.contains("routine") && !warn_only.contains("bad"));
        assert_eq!(Severity::parse("critical"), Some(Severity::Critical));
        assert_eq!(Severity::parse("nope"), None);
    }

    #[test]
    fn label_values_escape_per_spec() {
        assert_eq!(prom_label_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_label_escape("plain-1.2.3"), "plain-1.2.3");
    }

    #[test]
    fn stage_lookup_knows_every_stage() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        for stage in STAGES {
            assert!(plane.stage(stage).is_some());
        }
        assert!(plane.stage("nope").is_none());
    }
}
