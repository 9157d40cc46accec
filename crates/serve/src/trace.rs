//! Causal request tracing, continuous per-stage CPU profiling, and the SLO
//! burn-rate watchdog.
//!
//! The telemetry plane ([`crate::obs`]) answers *how slow* requests are;
//! this module answers *why*. Three cooperating pieces:
//!
//! - **Span trees** ([`TracePlane::trace_spans`], `GET /v1/trace/{id}`):
//!   every request carries a 128-bit trace id — accepted and emitted as a
//!   W3C `traceparent` header — and when it ends its whole lifecycle is
//!   recorded in one write as a parent/child span tree (`request` →
//!   `queue`/`search`/`gen_queue`/`gen_prefill`/`gen_decode`, plus a
//!   `shed:{reason}` marker; the first token is `gen_prefill`'s end).
//!   Cross-request causality is explicit: all co-batched requests share one
//!   *batch* span (in its own trace, linking every member's trace id),
//!   per-shard scans are children of that batch span, and
//!   migrations/repartitions record spans linked to the batch they stall.
//!   The [`SpanStore`] behind it is the runtime's only per-request store:
//!   `GET /v1/traces` ([`TracePlane::traces_json`]) is a view over its
//!   `request` roots, and requests that were shed, slow or missed a target
//!   they are judged by are *kept* — together with the batch trace they
//!   link — in a queue no flood of fast requests can evict from.
//! - **Per-stage profiling** ([`TracePlane::profile`], `GET /v1/profile`):
//!   pipeline workers time their work sections against both the runtime
//!   [`Clock`](crate::Clock) (wall) and `CLOCK_THREAD_CPUTIME_ID` (CPU),
//!   so wall−CPU exposes stall time per stage; the section CPU also weighs
//!   the collapsed-stack output. A stage is a kind of work, not a thread:
//!   the batcher's thread runs `batcher`, `cpu_scan` and `dispatch`
//!   sections, the control thread runs `control` and `migrate` sections,
//!   and no two sections on one thread overlap.
//! - **Burn-rate watchdog** ([`TracePlane::alerts`], `GET /v1/alerts`):
//!   search / TTFT / deadline attainment feed multi-window burn rates
//!   (fast window catches sharp regressions, slow window confirms
//!   sustained burn, alert level from the *minimum* of the two), and every
//!   level transition is surfaced so the caller can journal it with a
//!   matching severity.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vlite_metrics::cputime;
use vlite_metrics::spans::{format_trace_id, SpanRecord, SpanStore, StoreStats};
use vlite_sim::SimTime;

use crate::config::TraceConfig;
use crate::http::json::Json;
use crate::server::RequestOutcome;
use crate::sync::lock_recover;

/// Ordinary traces (fast requests, batches, migrations) the store holds
/// before evicting the oldest whole one. Froze `TraceConfig::trace_capacity`
/// at its default.
pub const TRACE_CAPACITY: usize = 512;
/// Kept request trees — shed, slow or target-missing requests — the store
/// holds in their own eviction queue; the batch trace each links rides
/// along without a slot of its own. Froze `ObsConfig::slow_traces` at its
/// default.
pub const KEPT_CAPACITY: usize = 64;
/// End-to-end seconds at or above which a request's trace is kept, whatever
/// made it slow. Froze `ObsConfig`'s slow threshold at its default.
pub const SLOW_THRESHOLD_S: f64 = 0.25;
/// Fast burn-rate window in seconds (catches sharp regressions). Froze
/// `TraceConfig::fast_window_s` at its default.
pub const FAST_WINDOW_S: f64 = 60.0;
/// Slow burn-rate window in seconds (confirms sustained burn). Froze
/// `TraceConfig::slow_window_s` at its default.
pub const SLOW_WINDOW_S: f64 = 600.0;
/// Burn rate (budget consumption multiple) at which a signal enters `warn`
/// — both windows must exceed it. Froze `TraceConfig::warn_burn` at its
/// default.
pub const WARN_BURN: f64 = 2.0;
/// Burn rate at which a signal enters `critical`. Froze
/// `TraceConfig::critical_burn` at its default.
pub const CRITICAL_BURN: f64 = 10.0;
/// Attainment target the burn-rate watchdog holds every SLO signal
/// (search / TTFT / deadline) to: a 5% error budget. Froze
/// `TraceConfig::slo_target` at its default.
pub const SLO_TARGET: f64 = 0.95;
/// Width of one watchdog bucket: the slow window in 120 slots, so the fast
/// window still spans a dozen buckets.
const BUCKET_S: f64 = SLOW_WINDOW_S / 120.0;
/// Buckets a burn ring holds: the slow window plus slack for skew.
const BURN_RING_BUCKETS: usize = 130;

/// A 128-bit trace id (W3C Trace Context `trace-id`). Never zero for a
/// live trace — the all-zero id is invalid on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", format_trace_id(self.0))
    }
}

/// splitmix64 finalizer: cheap, well-distributed id derivation without an
/// RNG dependency (and deterministic for a given seed + request id).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn derive_id(seed: u64, salt: u64, n: u64) -> u128 {
    let hi = mix64(seed ^ salt ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let lo = mix64(n ^ seed.rotate_left(32) ^ salt.rotate_left(17));
    let id = (u128::from(hi) << 64) | u128::from(lo);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Parses a W3C `traceparent` header value, returning the trace id when
/// the header is well-formed (`{version}-{trace-id}-{parent-id}-{flags}`
/// with lowercase hex fields of the right widths and non-zero ids).
/// Malformed or forbidden (`version == ff`) values return `None` — per the
/// spec the server then starts a fresh trace rather than failing the
/// request.
pub fn parse_traceparent(value: &str) -> Option<TraceId> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2 || !is_lower_hex(version) || version == "ff" {
        return None;
    }
    let trace = parts.next()?;
    if !is_lower_hex(trace) {
        return None;
    }
    let id = vlite_metrics::spans::parse_trace_id(trace)?;
    if id == 0 {
        return None;
    }
    let parent = parts.next()?;
    if parent.len() != 16 || !is_lower_hex(parent) || parent.bytes().all(|b| b == b'0') {
        return None;
    }
    let flags = parts.next()?;
    if flags.len() != 2 || !is_lower_hex(flags) {
        return None;
    }
    // Version 00 defines exactly four fields; later versions may append.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    Some(TraceId(id))
}

/// Renders a `traceparent` header value for `trace` with `parent_span` as
/// the server-side parent id (sampled flag always set).
pub fn format_traceparent(trace: TraceId, parent_span: u64) -> String {
    format!("00-{:032x}-{:016x}-01", trace.0, parent_span.max(1))
}

/// W3C Trace Context's `HEXDIGLC`: digits and `a`–`f` only.
fn is_lower_hex(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Profiled pipeline stages, indexed by the `STAGE_*` constants.
pub const PROFILE_STAGES: [&str; 7] = [
    "batcher",
    "shard_scan",
    "cpu_scan",
    "dispatch",
    "generation",
    "migrate",
    "control",
];

/// Stage index: batch formation (queue drain + routing).
pub const STAGE_BATCHER: usize = 0;
/// Stage index: hot-tier shard scan workers.
pub const STAGE_SHARD_SCAN: usize = 1;
/// Stage index: the cold-tier (CPU) share of a batch, which the batcher
/// scans while the shard workers scan theirs.
pub const STAGE_CPU_SCAN: usize = 2;
/// Stage index: the batcher merging the scan shares' partials and
/// delivering each query.
pub const STAGE_DISPATCH: usize = 3;
/// Stage index: the generation (LLM) worker.
pub const STAGE_GENERATION: usize = 4;
/// Stage index: the control loop moving the store's tiers to a new hot
/// set right after a split swap.
pub const STAGE_MIGRATE: usize = 5;
/// Stage index: one online repartition on the control loop, re-profile
/// to split swap (the tier move is `migrate`, not part of it).
pub const STAGE_CONTROL: usize = 6;

/// SLO signals the burn-rate watchdog tracks, indexed by the `SIG_*`
/// constants.
pub const SLO_SIGNALS: [&str; 3] = ["search", "ttft", "deadline"];

/// Signal index: search-stage latency vs the tenant's `slo_search`.
pub const SIG_SEARCH: usize = 0;
/// Signal index: end-to-end TTFT vs `slo_ttft`.
pub const SIG_TTFT: usize = 1;
/// Signal index: deadline attainment (budgeted requests only).
pub const SIG_DEADLINE: usize = 2;

#[derive(Default)]
struct StageCell {
    /// Wall nanoseconds spent inside instrumented work sections.
    wall_nanos: AtomicU64,
    /// Thread CPU nanoseconds consumed inside those same sections.
    cpu_nanos: AtomicU64,
    /// Completed work sections.
    sections: AtomicU64,
}

/// One stage's row of the `/v1/profile` breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage name from [`PROFILE_STAGES`].
    pub stage: &'static str,
    /// Wall seconds inside instrumented work sections.
    pub wall_s: f64,
    /// CPU seconds consumed inside those sections.
    pub cpu_s: f64,
    /// Stalled seconds: `max(wall_s - cpu_s, 0)` — time the stage held
    /// work without burning CPU (lock waits, I/O, scheduling).
    pub stall_s: f64,
    /// Completed work sections.
    pub sections: u64,
}

/// An in-flight stage work section returned by [`TracePlane::stage_start`].
#[must_use = "a StageTimer records nothing until passed to stage_end"]
#[derive(Debug)]
pub struct StageTimer {
    stage: usize,
    wall_start_nanos: u64,
    cpu_start_nanos: u64,
    live: bool,
}

/// Cross-request batch context: the shared batch span every co-batched
/// request links to. Travels with the batch through scan and dispatch.
#[derive(Debug, Clone)]
pub struct BatchCtx {
    /// The batch's own trace id (distinct from any member's).
    pub trace_id: u128,
    /// The batch span's id (parent of the per-shard scan spans).
    pub span_id: u64,
    /// Trace ids of every request riding this batch.
    pub members: Vec<u128>,
}

/// A burn-rate alert level for one SLO signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertLevel {
    /// Burn within budget.
    Ok,
    /// Both windows burning above the warn threshold.
    Warn,
    /// Both windows burning above the critical threshold.
    Critical,
}

impl AlertLevel {
    /// Lowercase name as rendered in `/v1/alerts` and journal events.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertLevel::Ok => "ok",
            AlertLevel::Warn => "warn",
            AlertLevel::Critical => "critical",
        }
    }
}

/// A watchdog level change, returned by [`TracePlane::observe_slo`] so the
/// caller can journal it with matching severity.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Signal name from [`SLO_SIGNALS`].
    pub signal: &'static str,
    /// Level before this observation.
    pub from: AlertLevel,
    /// Level after this observation.
    pub to: AlertLevel,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// One signal's current alert state, as rendered by `/v1/alerts`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertState {
    /// Signal name from [`SLO_SIGNALS`].
    pub signal: &'static str,
    /// Current level.
    pub level: AlertLevel,
    /// Fast-window burn rate now.
    pub fast_burn: f64,
    /// Slow-window burn rate now.
    pub slow_burn: f64,
    /// Attainment target the budget derives from.
    pub target: f64,
    /// Good/bad observations in the slow window.
    pub observed: u64,
}

/// One time bucket of attainment observations.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    index: u64,
    good: u64,
    bad: u64,
}

/// Time-bucketed attainment ring for one signal. Buckets are
/// `bucket_s`-wide; the ring holds enough to cover the slow window.
#[derive(Default)]
struct BurnRing {
    buckets: std::collections::VecDeque<Bucket>,
}

impl BurnRing {
    fn record(&mut self, index: u64, ok: bool) {
        match self.buckets.back_mut() {
            Some(last) if last.index == index => {
                if ok {
                    last.good += 1;
                } else {
                    last.bad += 1;
                }
            }
            _ => {
                if self.buckets.len() >= BURN_RING_BUCKETS {
                    self.buckets.pop_front();
                }
                self.buckets.push_back(Bucket {
                    index,
                    good: u64::from(ok),
                    bad: u64::from(!ok),
                });
            }
        }
    }

    /// (bad, total) over the `window_buckets` most recent bucket indices
    /// ending at `now_index`.
    fn window(&self, now_index: u64, window_buckets: u64) -> (u64, u64) {
        let first = now_index.saturating_sub(window_buckets.saturating_sub(1));
        let mut bad = 0;
        let mut total = 0;
        for bucket in &self.buckets {
            if bucket.index >= first && bucket.index <= now_index {
                bad += bucket.bad;
                total += bucket.good + bucket.bad;
            }
        }
        (bad, total)
    }
}

struct Watchdog {
    rings: Vec<BurnRing>,
    levels: Vec<AlertLevel>,
}

/// The causal-tracing + profiling + alerting plane. One per
/// [`RagServer`](crate::RagServer); cheap no-ops when disabled.
pub struct TracePlane {
    enabled: bool,
    store: SpanStore,
    seed: u64,
    next_span: AtomicU64,
    next_batch: AtomicU64,
    next_migration: AtomicU64,
    stages: [StageCell; PROFILE_STAGES.len()],
    current_batch: Mutex<Option<BatchCtx>>,
    watchdog: Mutex<Watchdog>,
}

impl std::fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePlane")
            .field("enabled", &self.enabled)
            .field("store", &self.store.stats())
            .finish()
    }
}

impl TracePlane {
    /// Builds a plane from `config`; `seed` makes derived trace ids
    /// deterministic per server.
    pub fn new(config: &TraceConfig, seed: u64) -> Self {
        Self {
            enabled: config.enabled,
            store: SpanStore::new(TRACE_CAPACITY, KEPT_CAPACITY),
            seed,
            next_span: AtomicU64::new(1),
            next_batch: AtomicU64::new(1),
            next_migration: AtomicU64::new(1),
            stages: Default::default(),
            current_batch: Mutex::new(None),
            watchdog: Mutex::new(Watchdog {
                rings: (0..SLO_SIGNALS.len())
                    .map(|_| BurnRing::default())
                    .collect(),
                levels: vec![AlertLevel::Ok; SLO_SIGNALS.len()],
            }),
        }
    }

    /// Whether tracing is on at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh trace id for request `request_id` (used when the client
    /// sent no — or a malformed — `traceparent`).
    pub fn derive_trace_id(&self, request_id: u64) -> TraceId {
        TraceId(derive_id(self.seed, 0x7261_6365, request_id))
    }

    /// The first of `n` consecutive fresh span ids.
    fn next_span_ids(&self, n: u64) -> u64 {
        // relaxed: a unique-id counter; only atomicity matters.
        self.next_span.fetch_add(n, Ordering::Relaxed)
    }

    // ---- span recording -------------------------------------------------

    /// Opens the shared batch span for a batch whose member requests carry
    /// `members`. Returns `None` when tracing is disabled or the batch is
    /// empty. The returned context travels with the batch; close it with
    /// [`TracePlane::end_batch`].
    pub fn begin_batch(&self, members: &[TraceId]) -> Option<BatchCtx> {
        if !self.enabled || members.is_empty() {
            return None;
        }
        // relaxed: a unique-id counter; only atomicity matters.
        let n = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let ctx = BatchCtx {
            trace_id: derive_id(self.seed, 0x6261_7463, n),
            span_id: self.next_span_ids(1),
            members: members.iter().map(|t| t.0).collect(),
        };
        *lock_recover(&self.current_batch) = Some(ctx.clone());
        Some(ctx)
    }

    /// Records the batch span (linking every member's trace id) and
    /// retires the batch from "currently in flight".
    pub fn end_batch(&self, ctx: &BatchCtx, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        self.store.record(SpanRecord {
            span_id: ctx.span_id,
            links: ctx.members.clone(),
            ..span(ctx.trace_id, None, "batch", secs(start), secs(end))
        });
        let mut current = lock_recover(&self.current_batch);
        if current.as_ref().is_some_and(|c| c.trace_id == ctx.trace_id) {
            *current = None;
        }
    }

    /// Records one scan-work child span (`scan:shard{n}` / `scan:cpu`)
    /// under the batch span.
    pub fn record_scan(
        &self,
        ctx: &BatchCtx,
        name: impl Into<Cow<'static, str>>,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.store.record(SpanRecord {
            span_id: self.next_span_ids(1),
            ..span(
                ctx.trace_id,
                Some(ctx.span_id),
                name,
                secs(start),
                secs(end),
            )
        });
    }

    /// Records one finished request's whole span tree in a single store
    /// write: a `request` root spanning admission → completion (carrying
    /// the request id and tenant), `queue` and `search` children (the
    /// search span links the batch trace the request rode), the generation
    /// phases when it generated, and a zero-width `shed:{reason}` marker
    /// when it was shed. A request that was shed, took at least
    /// [`SLOW_THRESHOLD_S`] end to end, or `missed` a target it is judged by
    /// (its tenant's search SLO, the TTFT SLO or its deadline) is recorded
    /// *kept*, and takes its batch trace with it.
    /// Every name is static and the span ids come as one block, so the
    /// write takes the store lock once and allocates no `String`.
    ///
    /// Outcomes without a trace id (an admission shed whose caller sent
    /// none) record nothing.
    pub fn record_request(&self, o: &RequestOutcome, missed: bool) {
        let (true, Some(trace)) = (self.enabled, o.trace) else {
            return;
        };
        let t = &o.timings;
        // Clamp boundaries into a monotone chain so the recorded tree is
        // well-formed even if a real-clock stamp landed out of order.
        let t0 = secs(o.enqueued);
        let t1 = t0 + t.queue.max(0.0);
        let t2 = t1 + t.search.max(0.0);
        let t3 = secs(o.end).max(t2);
        let root = self.next_span_ids(7);
        let child = |n: u64, name: &'static str, start: f64, end: f64| SpanRecord {
            span_id: root + n,
            ..span(trace.0, Some(root), name, start, end)
        };
        let mut spans = Vec::with_capacity(7);
        spans.push(SpanRecord {
            span_id: root,
            request: Some((o.id, o.tenant.0)),
            ..span(trace.0, None, "request", t0, t3)
        });
        spans.push(child(1, "queue", t0, t1));
        spans.push(SpanRecord {
            links: o.batch_trace.into_iter().collect(),
            ..child(2, "search", t1, t2)
        });
        if let Some(gen) = &t.generation {
            let gq = (t2 + gen.gen_queue.max(0.0)).min(t3);
            let gp = (gq + gen.prefill.max(0.0)).min(t3);
            let gd = (gp + gen.decode.max(0.0)).min(t3);
            spans.push(child(3, "gen_queue", t2, gq));
            spans.push(child(4, "gen_prefill", gq, gp));
            spans.push(child(5, "gen_decode", gp, gd));
        }
        if let Some(cause) = o.shed {
            spans.push(child(6, cause.span_name(), t3, t3));
        }
        let keep = missed || o.shed.is_some() || t3 - t0 >= SLOW_THRESHOLD_S;
        self.store.record_tree(trace.0, spans, keep);
    }

    /// Records a migration/repartition span in its own trace, linked to
    /// the batch currently in flight (the requests the work stalls); the
    /// stalled batch's trace also gets a zero-width `stall:{name}` marker
    /// pointing back, so both directions are discoverable.
    ///
    /// Returns the span's own trace id when recorded.
    pub fn record_migration(
        &self,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) -> Option<TraceId> {
        if !self.enabled {
            return None;
        }
        // relaxed: a unique-id counter; only atomicity matters.
        let n = self.next_migration.fetch_add(1, Ordering::Relaxed);
        let trace_id = derive_id(self.seed, 0x6d69_6772, n);
        let stalled = lock_recover(&self.current_batch).clone();
        let mut links = Vec::new();
        if let Some(ctx) = &stalled {
            links.push(ctx.trace_id);
            links.extend(ctx.members.iter().copied());
        }
        let ids = self.next_span_ids(2);
        self.store.record(SpanRecord {
            span_id: ids,
            links,
            ..span(trace_id, None, name, secs(start), secs(end))
        });
        if let Some(ctx) = &stalled {
            self.store.record(SpanRecord {
                span_id: ids + 1,
                links: vec![trace_id],
                ..span(
                    ctx.trace_id,
                    Some(ctx.span_id),
                    format!("stall:{name}"),
                    secs(start),
                    secs(start),
                )
            });
        }
        Some(TraceId(trace_id))
    }

    /// All spans recorded for `trace_id`, if the trace is still held.
    pub fn trace_spans(&self, trace_id: u128) -> Option<Vec<SpanRecord>> {
        self.store.get(trace_id)
    }

    /// The trace store's occupancy and loss counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The trace followed by (one level of) the traces its spans link to,
    /// each as `(trace id, spans)`. `None` when the trace is unknown or
    /// evicted; linked traces that are gone are skipped.
    fn with_linked(&self, trace_id: u128) -> Option<Vec<(u128, Vec<SpanRecord>)>> {
        let spans = self.store.get(trace_id)?;
        let mut linked_ids: Vec<u128> = Vec::new();
        for link in spans.iter().flat_map(|s| &s.links) {
            if *link != trace_id && !linked_ids.contains(link) {
                linked_ids.push(*link);
            }
        }
        let mut traces = vec![(trace_id, spans)];
        traces.extend(
            linked_ids
                .into_iter()
                .filter_map(|id| Some((id, self.store.get(id)?))),
        );
        Some(traces)
    }

    /// The trace as JSON: its spans plus (one level of) the traces its
    /// spans link to. `None` when the trace is unknown or evicted.
    pub fn trace_json(&self, trace_id: u128) -> Option<Json> {
        let mut traces = self.with_linked(trace_id)?.into_iter().map(|(id, spans)| {
            vec![
                ("trace_id".into(), Json::Str(format_trace_id(id))),
                (
                    "spans".into(),
                    Json::Arr(spans.iter().map(span_json).collect()),
                ),
            ]
        });
        let mut doc = traces.next()?;
        doc.push(("linked".into(), Json::Arr(traces.map(Json::Obj).collect())));
        Some(Json::Obj(doc))
    }

    /// The trace (plus linked traces) as a Chrome `trace_event` JSON
    /// document loadable in `about://tracing` / Perfetto.
    pub fn chrome_json(&self, trace_id: u128) -> Option<Json> {
        let mut events = Vec::new();
        for (tid, (_, spans)) in self.with_linked(trace_id)?.iter().enumerate() {
            for span in spans {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str(span.name.to_string())),
                    ("cat".into(), Json::Str("vlite".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(span.start_s * 1e6)),
                    (
                        "dur".into(),
                        Json::Num((span.end_s - span.start_s).max(0.0) * 1e6),
                    ),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num((tid + 1) as f64)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("trace_id".into(), Json::Str(format_trace_id(span.trace_id))),
                            ("links".into(), links_json(&span.links)),
                        ]),
                    ),
                ]));
            }
        }
        Some(Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]))
    }

    /// The `/v1/traces` body, rendered at read time from the store's
    /// `request` roots: `recent` lists every finished request still held,
    /// in completion order, `slow` the kept ones (shed, slow, or missed a
    /// target). Each entry carries the
    /// request id, tenant, `trace_id` (the key for `/v1/trace/{id}`),
    /// admission instant, end-to-end seconds, whether it was shed, and the
    /// root's children as `{stage, start_s, end_s}` offsets from admission.
    /// `recent_evicted` / `slow_evicted` count whole traces the ordinary
    /// and kept queues have evicted.
    pub fn traces_json(&self) -> Json {
        // Copy request-bearing traces out under the store lock; render after.
        let mut traces: Vec<(bool, Vec<SpanRecord>)> = Vec::new();
        self.store.for_each(|spans, kept| {
            if spans.iter().any(|s| s.request.is_some()) {
                traces.push((kept, spans.to_vec()));
            }
        });
        // (root span id, kept, entry): span ids grow in completion order.
        let mut entries: Vec<(u64, bool, Json)> = Vec::new();
        for (kept, spans) in &traces {
            for root in spans.iter().filter(|s| s.request.is_some()) {
                entries.push((root.span_id, *kept, request_entry(root, spans)));
            }
        }
        entries.sort_by_key(|(span_id, ..)| *span_id);
        let slow = entries.iter().filter(|(_, kept, _)| *kept);
        let slow = slow.map(|(.., entry)| entry.clone()).collect();
        let recent = entries.into_iter().map(|(.., entry)| entry).collect();
        let stats = self.store.stats();
        Json::Obj(vec![
            ("recent".into(), Json::Arr(recent)),
            ("slow".into(), Json::Arr(slow)),
            (
                "recent_evicted".into(),
                Json::Num(stats.recent_evicted as f64),
            ),
            ("slow_evicted".into(), Json::Num(stats.kept_evicted as f64)),
        ])
    }

    // ---- per-stage profiling --------------------------------------------

    /// Opens a work section for `stage` at wall time `now`.
    pub fn stage_start(&self, stage: usize, now: SimTime) -> StageTimer {
        if !self.enabled {
            return StageTimer {
                stage,
                wall_start_nanos: 0,
                cpu_start_nanos: 0,
                live: false,
            };
        }
        StageTimer {
            stage,
            wall_start_nanos: now.as_nanos(),
            cpu_start_nanos: cputime::self_cpu_nanos(),
            live: true,
        }
    }

    /// Closes a work section at wall time `now`, attributing wall + CPU
    /// time to the section's stage.
    pub fn stage_end(&self, timer: StageTimer, now: SimTime) {
        if !timer.live {
            return;
        }
        let cell = &self.stages[timer.stage.min(PROFILE_STAGES.len() - 1)];
        let wall = now.as_nanos().saturating_sub(timer.wall_start_nanos);
        let cpu = cputime::self_cpu_nanos().saturating_sub(timer.cpu_start_nanos);
        // relaxed: per-stage accumulators read only by the profile
        // snapshot; no ordering with other memory is required.
        cell.wall_nanos.fetch_add(wall, Ordering::Relaxed);
        cell.cpu_nanos.fetch_add(cpu, Ordering::Relaxed);
        cell.sections.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-stage wall/CPU/stall breakdown, one row per
    /// [`PROFILE_STAGES`] entry.
    pub fn profile(&self) -> Vec<StageProfile> {
        PROFILE_STAGES
            .iter()
            .zip(self.stages.iter())
            .map(|(name, cell)| {
                // relaxed: reading snapshot-only accumulators.
                let wall = cell.wall_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                let cpu = cell.cpu_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                // relaxed: same snapshot-only accumulators as above.
                let sections = cell.sections.load(Ordering::Relaxed);
                StageProfile {
                    stage: name,
                    wall_s: wall,
                    cpu_s: cpu,
                    stall_s: (wall - cpu).max(0.0),
                    sections,
                }
            })
            .collect()
    }

    /// Collapsed-stack ("folded") output for flamegraph tooling: one
    /// `vlite;{stage} {weight}` line per stage with section CPU time,
    /// weighted in microseconds.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for row in self.profile() {
            let weight_us = (row.cpu_s * 1e6) as u64;
            if weight_us > 0 {
                out.push_str(&format!("vlite;{} {}\n", row.stage, weight_us));
            }
        }
        out
    }

    /// The `/v1/profile` document: per-stage rows plus collapsed stacks.
    pub fn profile_json(&self) -> Json {
        let rows = self
            .profile()
            .into_iter()
            .map(|row| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str(row.stage.into())),
                    ("wall_s".into(), Json::Num(row.wall_s)),
                    ("cpu_s".into(), Json::Num(row.cpu_s)),
                    ("stall_s".into(), Json::Num(row.stall_s)),
                    ("sections".into(), Json::Num(row.sections as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(self.enabled)),
            (
                "cpu_clock_supported".into(),
                Json::Bool(cputime::supported()),
            ),
            ("stages".into(), Json::Arr(rows)),
            ("collapsed".into(), Json::Str(self.collapsed_stacks())),
        ])
    }

    // ---- SLO burn-rate watchdog ------------------------------------------

    /// Feeds one attainment observation (`ok` = the signal met its target)
    /// for `signal` at wall time `now`, returning the level transition if
    /// this observation caused one.
    pub fn observe_slo(&self, signal: usize, ok: bool, now: SimTime) -> Option<AlertTransition> {
        if !self.enabled || signal >= SLO_SIGNALS.len() {
            return None;
        }
        let now_s = secs(now);
        let index = (now_s / BUCKET_S) as u64;
        let mut watchdog = lock_recover(&self.watchdog);
        watchdog.rings[signal].record(index, ok);
        let (fast, slow) = self.burns(&watchdog.rings[signal], index);
        let level = if fast.min(slow) >= CRITICAL_BURN {
            AlertLevel::Critical
        } else if fast.min(slow) >= WARN_BURN {
            AlertLevel::Warn
        } else {
            AlertLevel::Ok
        };
        let previous = watchdog.levels[signal];
        if level == previous {
            return None;
        }
        watchdog.levels[signal] = level;
        Some(AlertTransition {
            signal: SLO_SIGNALS[signal],
            from: previous,
            to: level,
            fast_burn: fast,
            slow_burn: slow,
        })
    }

    /// (fast, slow) burn rates for one signal's ring at bucket `index`.
    /// Burn = observed bad fraction over the window divided by the error
    /// budget (`1 - target`); 1.0 means burning exactly the budget.
    fn burns(&self, ring: &BurnRing, index: u64) -> (f64, f64) {
        let budget = 1.0 - SLO_TARGET;
        let burn = |window_s: f64| {
            let window_buckets = (window_s / BUCKET_S).ceil().max(1.0) as u64;
            let (bad, total) = ring.window(index, window_buckets);
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        (burn(FAST_WINDOW_S), burn(SLOW_WINDOW_S))
    }

    /// Current alert state of every signal at wall time `now`.
    pub fn alerts(&self, now: SimTime) -> Vec<AlertState> {
        let index = (secs(now) / BUCKET_S) as u64;
        let watchdog = lock_recover(&self.watchdog);
        SLO_SIGNALS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (fast, slow) = self.burns(&watchdog.rings[i], index);
                let slow_buckets = (SLOW_WINDOW_S / BUCKET_S).ceil().max(1.0) as u64;
                let (_, observed) = watchdog.rings[i].window(index, slow_buckets);
                AlertState {
                    signal: name,
                    level: watchdog.levels[i],
                    fast_burn: fast,
                    slow_burn: slow,
                    target: SLO_TARGET,
                    observed,
                }
            })
            .collect()
    }

    /// The `/v1/alerts` document.
    pub fn alerts_json(&self, now: SimTime) -> Json {
        let alerts = self
            .alerts(now)
            .into_iter()
            .map(|a| {
                Json::Obj(vec![
                    ("signal".into(), Json::Str(a.signal.into())),
                    ("level".into(), Json::Str(a.level.as_str().into())),
                    ("fast_burn".into(), Json::Num(a.fast_burn)),
                    ("slow_burn".into(), Json::Num(a.slow_burn)),
                    ("target".into(), Json::Num(a.target)),
                    ("observed".into(), Json::Num(a.observed as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(self.enabled)),
            ("fast_window_s".into(), Json::Num(FAST_WINDOW_S)),
            ("slow_window_s".into(), Json::Num(SLOW_WINDOW_S)),
            ("warn_burn".into(), Json::Num(WARN_BURN)),
            ("critical_burn".into(), Json::Num(CRITICAL_BURN)),
            ("alerts".into(), Json::Arr(alerts)),
        ])
    }
}

fn secs(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e9
}

/// A span with no id, links or request tag yet (callers fill those in by
/// struct update); the end is clamped to the start.
fn span(
    trace_id: u128,
    parent_id: Option<u64>,
    name: impl Into<Cow<'static, str>>,
    start_s: f64,
    end_s: f64,
) -> SpanRecord {
    SpanRecord {
        trace_id,
        span_id: 0,
        parent_id,
        name: name.into(),
        start_s,
        end_s: end_s.max(start_s),
        links: Vec::new(),
        request: None,
    }
}

fn links_json(links: &[u128]) -> Json {
    Json::Arr(
        links
            .iter()
            .map(|l| Json::Str(format_trace_id(*l)))
            .collect(),
    )
}

fn span_json(span: &SpanRecord) -> Json {
    Json::Obj(vec![
        ("span_id".into(), Json::Num(span.span_id as f64)),
        (
            "parent_id".into(),
            span.parent_id.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("name".into(), Json::Str(span.name.to_string())),
        ("start_s".into(), Json::Num(span.start_s)),
        ("end_s".into(), Json::Num(span.end_s)),
        ("links".into(), links_json(&span.links)),
    ])
}

/// One `/v1/traces` entry: the `request` root `root` of a trace holding
/// `spans`, its children rebased to the root's start.
fn request_entry(root: &SpanRecord, spans: &[SpanRecord]) -> Json {
    let (id, tenant) = root.request.unwrap_or_default();
    let children = || spans.iter().filter(|s| s.parent_id == Some(root.span_id));
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("tenant".into(), Json::Num(f64::from(tenant))),
        ("trace_id".into(), Json::Str(format_trace_id(root.trace_id))),
        (
            "admitted_ns".into(),
            Json::Num((root.start_s * 1e9).round()),
        ),
        ("e2e_s".into(), Json::Num(root.end_s - root.start_s)),
        (
            "shed".into(),
            Json::Bool(children().any(|s| s.name.starts_with("shed:"))),
        ),
        (
            "spans".into(),
            Json::Arr(
                children()
                    .map(|s| {
                        Json::Obj(vec![
                            ("stage".into(), Json::Str(s.name.to_string())),
                            ("start_s".into(), Json::Num(s.start_s - root.start_s)),
                            ("end_s".into(), Json::Num(s.end_s - root.start_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GenerationTimings, RequestTimings, TenantId};
    use crate::server::ShedCause;
    use vlite_metrics::spans::tree_violations;
    use vlite_sim::SimDuration;

    fn plane() -> TracePlane {
        TracePlane::new(&TraceConfig::default(), 42)
    }

    /// A retrieval-only outcome admitted at 4 ms, launched at 5 ms, merged
    /// and delivered at 9 ms.
    fn outcome(id: u64, trace: TraceId, batch: Option<u128>) -> RequestOutcome {
        RequestOutcome {
            id,
            tenant: TenantId(1),
            trace: Some(trace),
            batch_trace: batch,
            enqueued: SimTime::from_nanos(4_000_000),
            end: SimTime::from_nanos(9_000_000),
            timings: RequestTimings {
                queue: 0.001,
                search: 0.004,
                e2e: 0.005,
                generation: None,
            },
            hit_rate: 1.0,
            deadline: None,
            gen_busy: None,
            shed: None,
        }
    }

    #[test]
    fn traceparent_round_trips_and_rejects_malformed() {
        let trace = TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c);
        let header = format_traceparent(trace, 0x00f0_67aa_0ba9_02b7);
        assert_eq!(
            header,
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
        );
        assert_eq!(parse_traceparent(&header), Some(trace));

        // Spec-canonical example.
        assert_eq!(
            parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"),
            Some(TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c))
        );
        for bad in [
            "",
            "00",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7", // missing flags
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero parent
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", // forbidden version
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-extra", // v00 + extra
            "00-0af7651916cd43dd8448eb211c8031-00f067aa0ba902b7-01", // short trace
            "0x-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", // non-hex version
            "00-0AF7651916CD43DD8448EB211C80319C-00f067aa0ba902b7-01", // uppercase trace
            "00-0af7651916cd43dd8448eb211c80319c-00F067AA0BA902B7-01", // uppercase parent
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-0A", // uppercase flags
        ] {
            assert_eq!(parse_traceparent(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_and_request_spans_form_linked_well_formed_trees() {
        let plane = plane();
        let a = plane.derive_trace_id(1);
        let b = plane.derive_trace_id(2);
        assert_ne!(a, b);

        let ctx = plane.begin_batch(&[a, b]).expect("tracing enabled");
        let t0 = SimTime::from_nanos(5_000_000);
        let t1 = SimTime::from_nanos(9_000_000);
        plane.record_scan(&ctx, "scan:shard0", t0, t1);
        plane.end_batch(&ctx, t0, t1);
        for (id, trace) in [a, b].into_iter().enumerate() {
            plane.record_request(&outcome(id as u64, trace, Some(ctx.trace_id)), false);
        }

        let batch = plane.trace_spans(ctx.trace_id).expect("batch trace held");
        assert!(tree_violations(&batch).is_empty(), "{batch:?}");
        let batch_span = batch
            .iter()
            .find(|s| s.name == "batch")
            .expect("batch span");
        assert!(batch_span.links.contains(&a.0) && batch_span.links.contains(&b.0));
        assert!(batch
            .iter()
            .any(|s| s.name == "scan:shard0" && s.parent_id == Some(batch_span.span_id)));

        for trace in [a, b] {
            let spans = plane.trace_spans(trace.0).expect("request trace held");
            assert!(tree_violations(&spans).is_empty(), "{spans:?}");
            let search = spans.iter().find(|s| s.name == "search").expect("search");
            assert_eq!(search.links, vec![ctx.trace_id]);
            assert_eq!(search.start_s, 0.005);
            assert!((search.end_s - 0.009).abs() < 1e-12);
        }

        let json = plane.trace_json(a.0).expect("json").render();
        assert!(json.contains("\"linked\""));
        let chrome = plane.chrome_json(a.0).expect("chrome").render();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn request_trees_reproduce_the_timings_and_list_as_waterfalls() {
        let plane = TracePlane::new(&TraceConfig::default(), 42);
        let [fast, slow, shed] = [0, 1, 2].map(|id| plane.derive_trace_id(id));
        let ctx = plane.begin_batch(&[fast, slow, shed]).expect("enabled");
        plane.record_scan(&ctx, "scan:shard0", SimTime::ZERO, SimTime::ZERO);
        // A generated request: 1 + 2 ms retrieval, 3 + 4 ms to the first
        // token, 10 ms of decode.
        let mut o = outcome(0, fast, Some(ctx.trace_id));
        o.end = o.enqueued + SimDuration::from_secs_f64(0.020);
        o.timings = RequestTimings {
            queue: 0.001,
            search: 0.002,
            e2e: 0.020,
            generation: Some(GenerationTimings {
                gen_queue: 0.003,
                prefill: 0.004,
                decode: 0.010,
                ttft: 0.010,
            }),
        };
        plane.record_request(&o, false);
        // One past the slow threshold (it met every target), one shed.
        let mut o = outcome(1, slow, Some(ctx.trace_id));
        o.end = o.enqueued + SimDuration::from_secs_f64(0.5);
        plane.record_request(&o, false);
        let mut o = outcome(2, shed, None);
        o.shed = Some(ShedCause::GenDeadline);
        plane.record_request(&o, false);

        let spans = plane.trace_spans(fast.0).expect("held");
        assert!(tree_violations(&spans).is_empty(), "{spans:?}");
        let names: Vec<&str> = spans.iter().map(|s| &*s.name).collect();
        let stages = ["queue", "search", "gen_queue", "gen_prefill", "gen_decode"];
        assert_eq!((names[0], &names[1..]), ("request", &stages[..]));
        let root = &spans[0];
        assert_eq!((root.request, root.parent_id), (Some((0, 1)), None));
        // Each stage starts where the previous ended; the first token is
        // gen_prefill's end (queue + search + gen_queue + prefill == ttft);
        // decode ends at e2e.
        for pair in spans[1..].windows(2) {
            assert_eq!(pair[0].end_s, pair[1].start_s);
        }
        assert!((spans[4].end_s - root.start_s - 0.010).abs() < 1e-12);
        assert!((spans[5].end_s - root.end_s).abs() < 1e-12);

        // The slow request, the shed and the batch they link are kept; the
        // listing is the same trees, rebased to admission.
        let stats = plane.store_stats();
        assert_eq!((stats.recent, stats.kept), (1, 3));
        let listing = plane.traces_json();
        let ring = |key: &str| listing.get(key).and_then(Json::as_array).unwrap();
        let ids = |key: &str| -> Vec<u64> {
            let ids = ring(key).iter().map(|e| e.get("id").and_then(Json::as_u64));
            ids.map(|id| id.expect("id")).collect()
        };
        assert_eq!(ids("recent"), vec![0, 1, 2], "completion order");
        assert_eq!(ids("slow"), vec![1, 2]);
        let entry = ring("recent")[0].render();
        let head =
            format!("{{\"id\":0,\"tenant\":1,\"trace_id\":\"{fast}\",\"admitted_ns\":4000000,");
        assert!(entry.starts_with(&head), "{entry}");
        assert!(entry.contains("\"shed\":false,\"spans\":[{\"stage\":\"queue\",\"start_s\":0,"));
        let shed_entry = ring("slow")[1].render();
        assert!(shed_entry.contains("\"shed\":true"), "{shed_entry}");
        assert!(shed_entry.contains("\"stage\":\"shed:gen-deadline\""));
    }

    #[test]
    fn migration_spans_link_the_stalled_batch_both_ways() {
        let plane = plane();
        let a = plane.derive_trace_id(7);
        let ctx = plane.begin_batch(&[a]).expect("enabled");
        let mig = plane
            .record_migration(
                "migration",
                SimTime::from_nanos(1_000),
                SimTime::from_nanos(2_000),
            )
            .expect("recorded");
        let mig_spans = plane.trace_spans(mig.0).expect("migration trace");
        assert!(mig_spans[0].links.contains(&ctx.trace_id));
        assert!(mig_spans[0].links.contains(&a.0));
        let batch_spans = plane.trace_spans(ctx.trace_id).expect("batch trace");
        assert!(batch_spans
            .iter()
            .any(|s| s.name == "stall:migration" && s.links == vec![mig.0]));
        plane.end_batch(&ctx, SimTime::ZERO, SimTime::from_nanos(3_000));

        // With no batch in flight, a migration span records with no links.
        let lone = plane
            .record_migration(
                "migration",
                SimTime::from_nanos(4_000),
                SimTime::from_nanos(5_000),
            )
            .expect("recorded");
        assert!(plane.trace_spans(lone.0).expect("held")[0].links.is_empty());
    }

    #[test]
    fn stage_timers_accumulate_wall_and_sections() {
        let plane = plane();
        let timer = plane.stage_start(STAGE_SHARD_SCAN, SimTime::from_nanos(1_000_000));
        plane.stage_end(timer, SimTime::from_nanos(4_000_000));
        let profile = plane.profile();
        let scan = &profile[STAGE_SHARD_SCAN];
        assert_eq!(scan.stage, "shard_scan");
        assert_eq!(scan.sections, 1);
        assert!((scan.wall_s - 0.003).abs() < 1e-12);
        assert!(scan.stall_s <= scan.wall_s);
    }

    #[test]
    fn section_cpu_weighs_the_collapsed_stacks() {
        if !cputime::supported() {
            return;
        }
        let plane = plane();
        // Burn CPU inside a dispatch section: the CPU lands on dispatch.
        let timer = plane.stage_start(STAGE_DISPATCH, SimTime::ZERO);
        let mut acc = 1u64;
        for i in 0..3_000_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        assert!(acc != 0);
        plane.stage_end(timer, SimTime::ZERO);
        let profile = plane.profile();
        assert_eq!(profile[STAGE_DISPATCH].sections, 1);
        assert!(profile[STAGE_DISPATCH].cpu_s > 0.0);
        let collapsed = plane.collapsed_stacks();
        assert!(collapsed.contains("vlite;dispatch "), "{collapsed:?}");
    }

    #[test]
    fn watchdog_escalates_and_recovers_on_burn() {
        let plane = plane(); // target 0.95: a 5% error budget
        let t = SimTime::from_nanos(1_000_000_000);

        // All good: stays Ok, no transitions.
        for _ in 0..50 {
            assert_eq!(plane.observe_slo(SIG_SEARCH, true, t), None);
        }
        // 60 bad: past 10% bad the burn crosses WARN_BURN (2x the budget),
        // past 50% it crosses CRITICAL_BURN (10x).
        let mut transitions = Vec::new();
        for _ in 0..60 {
            if let Some(tr) = plane.observe_slo(SIG_SEARCH, false, t) {
                transitions.push(tr);
            }
        }
        let levels: Vec<AlertLevel> = transitions.iter().map(|tr| tr.to).collect();
        assert_eq!(levels, [AlertLevel::Warn, AlertLevel::Critical]);
        let alerts = plane.alerts(t);
        assert_eq!(alerts[SIG_SEARCH].level, AlertLevel::Critical);
        assert!(alerts[SIG_SEARCH].fast_burn >= CRITICAL_BURN);
        // Other signals untouched.
        assert_eq!(alerts[SIG_TTFT].level, AlertLevel::Ok);

        // A flood of good observations dilutes the burn back under warn.
        let mut recovered = None;
        for _ in 0..2000 {
            if let Some(tr) = plane.observe_slo(SIG_SEARCH, true, t) {
                recovered = Some(tr);
            }
        }
        let recovered = recovered.expect("recovery transition");
        assert_eq!(recovered.to, AlertLevel::Ok);
        assert!(plane.alerts_json(t).render().contains("\"level\":\"ok\""));
    }

    #[test]
    fn watchdog_fast_window_forgets_old_burn() {
        let plane = TracePlane::new(&TraceConfig::default(), 7);
        let early = SimTime::from_nanos(1_000_000_000);
        for _ in 0..100 {
            plane.observe_slo(SIG_TTFT, false, early);
        }
        // 100% bad: both windows burn at 20x the budget.
        let alerts = plane.alerts(early);
        assert_eq!(alerts[SIG_TTFT].level, AlertLevel::Critical);

        // 2 minutes later the fast window has rolled past the bad burst;
        // min(fast, slow) falls and one good observation recovers.
        let late = early + SimDuration::from_secs_f64(120.0);
        let transition = plane
            .observe_slo(SIG_TTFT, true, late)
            .expect("recovery transition");
        assert_eq!(transition.to, AlertLevel::Ok);
        assert!(transition.fast_burn < WARN_BURN);
    }

    #[test]
    fn disabled_plane_records_nothing() {
        let plane = TracePlane::new(&TraceConfig { enabled: false }, 3);
        assert!(!plane.enabled());
        assert!(plane.begin_batch(&[TraceId(1)]).is_none());
        plane.record_request(&outcome(0, TraceId(1), None), false);
        assert!(plane.trace_spans(1).is_none());
        assert_eq!(plane.store_stats(), StoreStats::default());
        assert_eq!(plane.observe_slo(SIG_SEARCH, false, SimTime::ZERO), None);
        let timer = plane.stage_start(STAGE_BATCHER, SimTime::ZERO);
        plane.stage_end(timer, SimTime::from_nanos(500));
        assert_eq!(plane.profile()[STAGE_BATCHER].sections, 0);
    }
}
