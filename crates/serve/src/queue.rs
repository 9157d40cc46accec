//! Multi-tenant bounded admission with weighted-fair batch draining.
//!
//! The queue is the runtime's admission-control point, one bounded lane per
//! tenant behind a single facade:
//!
//! - `try_push` charges the submitting tenant's quota and rejects *that*
//!   tenant when its lane is full (the open-loop generator keeps producing;
//!   the server must shed the overloading tenant's load rather than grow
//!   everyone's latency without bound). A rejection never evicts or delays
//!   another tenant's queued work.
//! - `take_batch` blocks until any lane has work, then drains up to `max`
//!   requests in one pop — the paper's dynamic on-demand batching (§VI-B) —
//!   interleaving tenants by smooth weighted round-robin, so a backlogged
//!   tenant holds at most `weight / Σ backlogged weights` of each batch
//!   while other tenants have queued work, and the whole batch when it is
//!   alone (work conservation).
//! - `try_caller_scan` lets a request skip the queue altogether while the
//!   runtime is idle: every lane empty, the batcher back in `take_batch`,
//!   the queue open, and fewer caller-thread scans running than the host
//!   has hardware threads. The HTTP frontend then scans the request on its
//!   connection thread; nothing it could have batched with is waiting.
//!
//! The scheduler is the classic smooth-WRR deficit scheme: each pick adds
//! every backlogged lane's weight to its credit, serves the lane with the
//! largest credit, and charges that lane the sum of backlogged weights.
//! Credits only move while a lane is backlogged, so an idle tenant cannot
//! bank credit and burst past its share when it returns; credits stay
//! bounded by the total weight.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::config::TenantSpec;
use crate::request::{Job, TenantId};
use crate::sync::{lock_recover, wait_recover};
use vlite_sim::SimDuration;

/// EWMA smoothing for the drain meter's estimates: recent batches dominate
/// so they track load shifts within a few batches, while one odd batch
/// cannot swing them.
const DRAIN_ALPHA: f64 = 0.2;

/// Drains without a full search after which the full-search estimate is
/// dropped. A hot-only batch cannot measure a full search, so an estimate
/// that once exceeded every budget in use would otherwise keep every
/// budgeted batch hot-only for good; dropped, it lets the next batch run
/// in full and measure afresh.
pub(crate) const FULL_SEARCH_TTL: u32 = 8;

/// One EWMA step: the first sample (`prev` unset) is taken outright.
fn ewma(prev: Option<f64>, sample: f64) -> f64 {
    prev.map_or(sample, |prev| {
        (1.0 - DRAIN_ALPHA) * prev + DRAIN_ALPHA * sample
    })
}

/// One tenant's bounded lane plus its fair-share scheduling state.
#[derive(Debug)]
struct Lane {
    jobs: VecDeque<Job>,
    capacity: usize,
    weight: i64,
    /// Smooth-WRR deficit counter; grows by `weight` per pick while
    /// backlogged, charged the backlogged-weight total when served.
    credit: i64,
    admitted: u64,
    rejected: u64,
    peak_depth: usize,
}

#[derive(Debug)]
struct Inner {
    lanes: Vec<Lane>,
    total_depth: usize,
    peak_total_depth: usize,
    closed: bool,
    /// The batcher holds a drained batch: set when `take_batch` returns
    /// one, cleared when the batcher comes back for the next.
    batching: bool,
    /// Caller-thread scans running ([`AdmissionQueue::try_caller_scan`]).
    caller_scans: usize,
    /// Recent drain throughput in jobs per engine-busy second (EWMA over
    /// `record_drain` samples); `0.0` until a batch has been measured.
    drain_rate: f64,
    /// Recent busy seconds per full-search batch (EWMA); `None` until one
    /// has been measured, and again after [`FULL_SEARCH_TTL`] drains
    /// without one.
    full_search: Option<f64>,
    /// Measured drains since the last full search.
    since_full_search: u32,
}

/// Snapshot of one tenant's admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TenantQueueStats {
    pub admitted: u64,
    pub rejected: u64,
    pub peak_depth: usize,
}

/// Snapshot of the whole facade's admission counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueueStats {
    pub admitted: u64,
    pub rejected: u64,
    pub peak_depth: usize,
    pub tenants: Vec<TenantQueueStats>,
}

/// The bounded multi-tenant MPMC admission facade.
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    /// Most caller-thread scans that may run at once: the host's hardware
    /// threads, read once at construction.
    caller_scan_cap: usize,
}

/// One claimed caller-thread scan slot; dropping it frees the slot.
#[derive(Debug)]
pub(crate) struct CallerScan<'a>(&'a AdmissionQueue);

impl Drop for CallerScan<'_> {
    fn drop(&mut self) {
        lock_recover(&self.0.inner).caller_scans -= 1;
    }
}

impl AdmissionQueue {
    /// One lane per tenant of a table
    /// [`ServeConfig::validate`](crate::ServeConfig::validate) accepted.
    pub fn new(tenants: &[TenantSpec]) -> Self {
        let lanes = tenants
            .iter()
            .map(|spec| Lane {
                jobs: VecDeque::new(),
                capacity: spec.queue_capacity,
                weight: i64::from(spec.weight),
                credit: 0,
                admitted: 0,
                rejected: 0,
                peak_depth: 0,
            })
            .collect();
        Self {
            inner: Mutex::new(Inner {
                lanes,
                total_depth: 0,
                peak_total_depth: 0,
                closed: false,
                batching: false,
                caller_scans: 0,
                drain_rate: 0.0,
                full_search: None,
                since_full_search: 0,
            }),
            not_empty: Condvar::new(),
            caller_scan_cap: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Admits a job into its tenant's lane, or returns it when that lane is
    /// full / the queue is closed. `Err((job, closed))` reports which of
    /// the two happened. Only the submitting tenant's counters are touched.
    pub fn try_push(&self, job: Job) -> Result<(), (Job, bool)> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err((job, true));
        }
        let lane = &mut inner.lanes[job.tenant.index()];
        if lane.jobs.len() >= lane.capacity {
            lane.rejected += 1;
            return Err((job, false));
        }
        lane.jobs.push_back(job);
        lane.admitted += 1;
        let depth = lane.jobs.len();
        lane.peak_depth = lane.peak_depth.max(depth);
        inner.total_depth += 1;
        inner.peak_total_depth = inner.peak_total_depth.max(inner.total_depth);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is queued anywhere, then drains up to
    /// `max` jobs, interleaving backlogged tenants by smooth weighted
    /// round-robin (each tenant's lane drains in arrival order). Returns
    /// `None` once the queue is closed *and* fully empty (graceful shutdown
    /// serves every tenant's backlog first). The one batcher calls it: from
    /// the drain until its next call the batcher counts as busy.
    pub fn take_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut inner = lock_recover(&self.inner);
        inner.batching = false;
        loop {
            if inner.total_depth > 0 {
                inner.batching = true;
                return Some(inner.drain(max));
            }
            if inner.closed {
                return None;
            }
            inner = wait_recover(&self.not_empty, inner);
        }
    }

    /// Claims a caller-thread scan slot for one `tenant` request when the
    /// runtime is idle: every lane empty, the batcher not holding a batch,
    /// the queue open, and fewer than the host's hardware threads of
    /// caller-thread scans running. The claim counts the request as
    /// admitted for its tenant, as `try_push` would; `None` leaves every
    /// counter alone and the caller queues the request instead.
    pub fn try_caller_scan(&self, tenant: TenantId) -> Option<CallerScan<'_>> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed
            || inner.batching
            || inner.total_depth > 0
            || inner.caller_scans >= self.caller_scan_cap
        {
            return None;
        }
        inner.caller_scans += 1;
        inner.lanes[tenant.index()].admitted += 1;
        Some(CallerScan(self))
    }

    /// Records that the engine served a batch of `n` jobs in `busy` (the
    /// batch's formation-to-merge interval) — the runtime's one cost
    /// meter. Every drain feeds the EWMA drain rate behind admission
    /// feasibility and the `Retry-After` hint; a drain that ran a full
    /// search (`full_search`: it scanned every share, the cold one
    /// included) also feeds the full-search estimate rung 3 of the
    /// deadline ladder prices batches with. A hot-only batch, or a drain in
    /// which every job expired in the queue, says nothing about what a full
    /// search costs; [`FULL_SEARCH_TTL`] of them in a row drop the
    /// estimate, so the next batch runs in full and its search is taken
    /// outright, as at a cold start. Only busy time counts: a gap in which the queue sat
    /// empty says nothing about how fast queued work drains. A zero-length
    /// interval (a batch on a virtual clock that never moved) measures
    /// nothing.
    pub fn record_drain(&self, n: usize, busy: SimDuration, full_search: bool) {
        let busy = busy.as_secs_f64();
        if n == 0 || busy <= 0.0 {
            return;
        }
        let mut inner = lock_recover(&self.inner);
        let rate = (inner.drain_rate > 0.0).then_some(inner.drain_rate);
        inner.drain_rate = ewma(rate, n as f64 / busy);
        if full_search {
            inner.full_search = Some(ewma(inner.full_search, busy));
            inner.since_full_search = 0;
        } else {
            inner.since_full_search += 1;
            if inner.since_full_search >= FULL_SEARCH_TTL {
                inner.full_search = None;
            }
        }
    }

    /// Recent drain throughput in jobs per busy second (`0.0` until
    /// measured).
    #[cfg(test)]
    pub fn drain_rate(&self) -> f64 {
        lock_recover(&self.inner).drain_rate
    }

    /// Busy seconds a full-search batch has recently taken; `None` until
    /// one has been measured (a cold start, or batches that took no time)
    /// or once the estimate has gone stale, in which case the ladder runs
    /// every batch in full.
    pub fn full_search(&self) -> Option<f64> {
        lock_recover(&self.inner).full_search
    }

    /// Estimated seconds a job submitted *now* by `tenant` would wait
    /// before batching: the tenant's lane depth over its weighted share of
    /// the recent drain rate. `None` while the queue is empty for that
    /// tenant or no drain rate has been measured yet (an idle or cold
    /// server admits optimistically).
    pub fn estimated_wait(&self, tenant: TenantId) -> Option<f64> {
        let inner = lock_recover(&self.inner);
        if inner.drain_rate <= 0.0 {
            return None;
        }
        let depth = inner.lanes[tenant.index()].jobs.len();
        if depth == 0 {
            return None;
        }
        // The lane drains at its smooth-WRR share of the overall rate:
        // weight over the total backlogged weight (counting this lane).
        let backlogged: i64 = inner
            .lanes
            .iter()
            .filter(|l| !l.jobs.is_empty())
            .map(|l| l.weight)
            .sum();
        let share = inner.lanes[tenant.index()].weight as f64 / backlogged.max(1) as f64;
        Some(depth as f64 / (inner.drain_rate * share))
    }

    /// Backoff hint in whole seconds for a rejected submission: the
    /// estimated time for the tenant's lane to drain, clamped to
    /// `[1, 60]`. Always at least one second — `Retry-After: 0` is a
    /// useless hint under flood.
    pub fn retry_after_secs(&self, tenant: TenantId) -> u64 {
        let wait = self.estimated_wait(tenant).unwrap_or(0.0);
        (wait.ceil() as u64).clamp(1, 60)
    }

    /// Marks the queue closed and wakes every waiter.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.not_empty.notify_all();
    }

    /// Requests currently waiting, summed over all tenants.
    pub fn depth(&self) -> usize {
        lock_recover(&self.inner).total_depth
    }

    pub fn stats(&self) -> QueueStats {
        let inner = lock_recover(&self.inner);
        let tenants: Vec<TenantQueueStats> = inner
            .lanes
            .iter()
            .map(|lane| TenantQueueStats {
                admitted: lane.admitted,
                rejected: lane.rejected,
                peak_depth: lane.peak_depth,
            })
            .collect();
        QueueStats {
            admitted: tenants.iter().map(|t| t.admitted).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            peak_depth: inner.peak_total_depth,
            tenants,
        }
    }
}

impl Inner {
    /// Smooth-WRR drain of up to `max` jobs across backlogged lanes.
    fn drain(&mut self, max: usize) -> Vec<Job> {
        let mut out = Vec::with_capacity(max.min(self.total_depth));
        while out.len() < max && self.total_depth > 0 {
            let mut backlogged_weight = 0i64;
            let mut pick = usize::MAX;
            let mut best = i64::MIN;
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if lane.jobs.is_empty() {
                    continue;
                }
                backlogged_weight += lane.weight;
                lane.credit += lane.weight;
                if lane.credit > best {
                    best = lane.credit;
                    pick = i;
                }
            }
            let lane = &mut self.lanes[pick];
            lane.credit -= backlogged_weight;
            out.push(lane.jobs.pop_front().expect("picked lane is backlogged"));
            self.total_depth -= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;
    use vlite_sim::SimTime;

    fn spec(weight: u32, capacity: usize) -> TenantSpec {
        TenantSpec {
            weight,
            queue_capacity: capacity,
            slo_search: 0.05,
        }
    }

    fn job(tenant: u16, id: u64) -> Job {
        let (reply, _rx) = channel::unbounded();
        Job {
            id,
            tenant: TenantId(tenant),
            query: vec![0.0],
            enqueued: SimTime::ZERO,
            deadline: None,
            trace: crate::trace::TraceId(1),
            reply,
        }
    }

    fn single(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::new(&[spec(1, capacity)])
    }

    #[test]
    fn rejects_beyond_capacity_and_counts() {
        let q = single(2);
        assert!(q.try_push(job(0, 0)).is_ok());
        assert!(q.try_push(job(0, 1)).is_ok());
        let err = q.try_push(job(0, 2)).unwrap_err();
        assert!(!err.1, "full, not closed");
        let stats = q.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.peak_depth, 2);
    }

    #[test]
    fn take_batch_absorbs_everything_up_to_max() {
        let q = single(16);
        for id in 0..5 {
            q.try_push(job(0, id)).unwrap();
        }
        let batch = q.take_batch(64).expect("work queued");
        assert_eq!(batch.len(), 5);
        assert_eq!(
            batch.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn take_batch_respects_max() {
        let q = single(16);
        for id in 0..5 {
            q.try_push(job(0, id)).unwrap();
        }
        assert_eq!(q.take_batch(3).unwrap().len(), 3);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q = single(16);
        q.try_push(job(0, 0)).unwrap();
        q.close();
        assert!(
            q.try_push(job(0, 1)).is_err(),
            "closed queue admits nothing"
        );
        assert_eq!(q.take_batch(8).unwrap().len(), 1);
        assert!(q.take_batch(8).is_none());
    }

    #[test]
    fn blocked_taker_wakes_on_push() {
        let q = std::sync::Arc::new(single(4));
        let q2 = q.clone();
        let taker = std::thread::spawn(move || q2.take_batch(8).map(|b| b.len()));
        // vlite-allow(clock-discipline): real-thread rendezvous in a test of
        // real blocking; no timestamps are recorded against any clock.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(job(0, 7)).unwrap();
        assert_eq!(taker.join().unwrap(), Some(1));
    }

    #[test]
    fn caller_scans_are_capped_at_the_hardware_threads_and_need_an_idle_runtime() {
        let q = AdmissionQueue::new(&[spec(1, 4), spec(1, 4)]);
        let cap = q.caller_scan_cap;
        assert!(cap >= 1);
        let slots: Vec<CallerScan<'_>> = (0..cap)
            .map(|i| {
                q.try_caller_scan(TenantId(1))
                    .unwrap_or_else(|| panic!("slot {i}"))
            })
            .collect();
        assert!(q.try_caller_scan(TenantId(1)).is_none(), "slot {}", cap + 1);
        let stats = q.stats();
        assert_eq!(stats.tenants[1].admitted, cap as u64, "each claim admits");
        assert_eq!((stats.tenants[0].admitted, stats.peak_depth), (0, 0));
        drop(slots);
        let slot = q.try_caller_scan(TenantId(0)).expect("the slots came back");
        drop(slot);

        // A queued job, a batch held by the batcher, or a closed queue
        // sends the request through the lanes instead.
        q.try_push(job(0, 0)).unwrap();
        assert!(q.try_caller_scan(TenantId(1)).is_none(), "a job is queued");
        assert_eq!(q.take_batch(8).unwrap().len(), 1);
        assert!(q.try_caller_scan(TenantId(1)).is_none(), "mid-batch");
        q.close();
        assert!(q.take_batch(8).is_none(), "closed and empty");
        assert!(q.try_caller_scan(TenantId(1)).is_none(), "closed");
        assert_eq!(q.stats().admitted, cap as u64 + 2, "refusals admit nothing");
    }

    #[test]
    fn over_quota_tenant_rejections_never_evict_other_tenants() {
        let q = AdmissionQueue::new(&[spec(1, 4), spec(1, 2)]);
        for id in 0..4 {
            q.try_push(job(0, id)).unwrap();
        }
        // Tenant 1 floods ten submissions into a two-slot lane.
        let mut rejected = 0;
        for id in 100..110 {
            if q.try_push(job(1, id)).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 8);
        let stats = q.stats();
        assert_eq!(stats.tenants[0].rejected, 0, "victim tenant charged");
        assert_eq!(stats.tenants[1].rejected, 8);
        assert_eq!(stats.tenants[0].admitted, 4);
        assert_eq!(stats.tenants[1].admitted, 2);
        // Every one of tenant 0's queued jobs is still there, in order.
        let drained = q.take_batch(64).unwrap();
        let t0: Vec<u64> = drained
            .iter()
            .filter(|j| j.tenant == TenantId(0))
            .map(|j| j.id)
            .collect();
        assert_eq!(t0, vec![0, 1, 2, 3]);
        let t1: Vec<u64> = drained
            .iter()
            .filter(|j| j.tenant == TenantId(1))
            .map(|j| j.id)
            .collect();
        assert_eq!(t1, vec![100, 101]);
    }

    #[test]
    fn weighted_shares_converge_under_sustained_backlog() {
        // Property-style: tenants at weights 1:4, both kept backlogged
        // across many take_batch calls. The drained mix must converge to
        // the 1:4 share and the light tenant must never starve.
        let q = AdmissionQueue::new(&[spec(1, 64), spec(4, 64)]);
        let mut next_id = [0u64, 0u64];
        let mut drained = [0u64, 0u64];
        let mut picks: Vec<u16> = Vec::new();
        for _ in 0..200 {
            // Top both lanes up so backlog is sustained through the drain.
            for t in 0..2u16 {
                while q
                    .try_push(job(t, {
                        let id = next_id[t as usize];
                        next_id[t as usize] += 1;
                        id
                    }))
                    .is_ok()
                {}
            }
            for j in q.take_batch(10).expect("backlogged") {
                drained[j.tenant.index()] += 1;
                picks.push(j.tenant.0);
            }
        }
        let total = (drained[0] + drained[1]) as f64;
        let heavy_share = drained[1] as f64 / total;
        assert!(
            (heavy_share - 0.8).abs() < 0.02,
            "weight-4 tenant took {heavy_share:.3} of the drain, want 0.8"
        );
        assert!(drained[0] > 0, "light tenant starved");
        // No starvation at fine grain either: every window of 10
        // consecutive picks contains the light tenant.
        for window in picks.chunks(10) {
            if window.len() == 10 {
                assert!(
                    window.contains(&0),
                    "light tenant absent from a 10-pick window"
                );
            }
        }
    }

    #[test]
    fn three_way_weights_split_proportionally() {
        let q = AdmissionQueue::new(&[spec(1, 32), spec(2, 32), spec(3, 32)]);
        let mut drained = [0u64; 3];
        for _ in 0..300 {
            for t in 0..3u16 {
                while q.try_push(job(t, 0)).is_ok() {}
            }
            for j in q.take_batch(6).expect("backlogged") {
                drained[j.tenant.index()] += 1;
            }
        }
        let total: u64 = drained.iter().sum();
        for (t, &want) in [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0].iter().enumerate() {
            let share = drained[t] as f64 / total as f64;
            assert!(
                (share - want).abs() < 0.02,
                "tenant {t} share {share:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn lone_backlogged_tenant_takes_the_whole_batch() {
        // Work conservation: weights cap a tenant's share only while other
        // tenants have queued work.
        let q = AdmissionQueue::new(&[spec(1, 32), spec(4, 32)]);
        for id in 0..8 {
            q.try_push(job(0, id)).unwrap();
        }
        let batch = q.take_batch(8).unwrap();
        assert_eq!(batch.len(), 8);
        assert!(batch.iter().all(|j| j.tenant == TenantId(0)));
    }

    #[test]
    fn drain_rate_estimates_wait_and_retry_after() {
        let q = single(64);
        // No drain history: optimistic (no estimate), Retry-After floors
        // at 1s.
        assert_eq!(q.estimated_wait(TenantId(0)), None);
        assert_eq!(q.retry_after_secs(TenantId(0)), 1);
        // Two batches of 10 jobs, each served in 1s of engine time → 10
        // jobs/sec exactly (the first batch sets the rate outright).
        let second = SimDuration::from_secs_f64(1.0);
        q.record_drain(10, second, false);
        assert!((q.drain_rate() - 10.0).abs() < 1e-9);
        q.record_drain(10, second, false);
        assert!((q.drain_rate() - 10.0).abs() < 1e-9);
        // A batch that took no time measures nothing.
        q.record_drain(10, SimDuration::ZERO, false);
        assert!((q.drain_rate() - 10.0).abs() < 1e-9);
        for id in 0..30 {
            q.try_push(job(0, id)).unwrap();
        }
        // 30 queued at 10/sec → 3s estimated wait, Retry-After 3.
        let wait = q.estimated_wait(TenantId(0)).expect("rate measured");
        assert!((wait - 3.0).abs() < 1e-9, "wait {wait}");
        assert_eq!(q.retry_after_secs(TenantId(0)), 3);
    }

    #[test]
    fn full_search_is_measured_from_the_first_full_drain_and_smoothed() {
        let q = single(64);
        let ms = SimDuration::from_millis;
        assert_eq!(q.full_search(), None, "nothing measured at a cold start");
        // A batch on a clock that never moved measures nothing.
        q.record_drain(4, SimDuration::ZERO, true);
        assert_eq!(q.full_search(), None);
        // The first full search sets the estimate outright; later ones are
        // smoothed in.
        q.record_drain(4, ms(10.0), true);
        assert_eq!(q.full_search(), Some(0.010));
        q.record_drain(4, ms(20.0), true);
        let next = q.full_search().expect("measured");
        assert!((next - 0.012).abs() < 1e-12, "{next}");
    }

    #[test]
    fn a_drain_with_its_cold_share_skipped_moves_only_the_drain_rate() {
        let q = single(64);
        let ms = SimDuration::from_millis;
        q.record_drain(2, ms(10.0), true);
        let (rate, search) = (q.drain_rate(), q.full_search());
        // A hot-only batch of 8 served in 2 ms (or a drain whose jobs all
        // expired): fast, because it skipped the cold share — not what a
        // full search costs.
        q.record_drain(8, ms(2.0), false);
        assert!(q.drain_rate() > rate, "the hot-only drain was counted");
        assert_eq!(q.full_search(), search, "the full search is unchanged");
    }

    #[test]
    fn a_full_search_estimate_goes_stale_and_is_measured_afresh() {
        let q = single(64);
        let ms = SimDuration::from_millis;
        let hot_only = |n| (0..n).for_each(|_| q.record_drain(4, ms(2.0), false));
        // One full search took a second: every tighter budget runs
        // hot-only, and hot-only drains cannot measure a full search.
        q.record_drain(1, ms(1000.0), true);
        hot_only(FULL_SEARCH_TTL - 1);
        assert_eq!(q.full_search(), Some(1.0), "still fresh");
        // A drain that measured nothing does not age it either.
        q.record_drain(4, SimDuration::ZERO, false);
        assert_eq!(q.full_search(), Some(1.0));
        hot_only(1);
        assert_eq!(q.full_search(), None, "stale: the next batch runs full");
        // The next full search is taken outright, not smoothed into 1 s.
        q.record_drain(1, ms(10.0), true);
        assert_eq!(q.full_search(), Some(0.010));
        // A full search in between restarts the count.
        hot_only(FULL_SEARCH_TTL - 1);
        q.record_drain(1, ms(10.0), true);
        hot_only(1);
        assert_eq!(q.full_search(), Some(0.010));
    }

    #[test]
    fn estimated_wait_respects_weighted_share() {
        // Equal backlogs, weights 1:3 → the light tenant drains at 1/4 of
        // the rate and waits 3x longer than the heavy one.
        let q = AdmissionQueue::new(&[spec(1, 64), spec(3, 64)]);
        q.record_drain(8, SimDuration::from_secs_f64(1.0), false);
        for id in 0..8 {
            q.try_push(job(0, id)).unwrap();
            q.try_push(job(1, id)).unwrap();
        }
        let light = q.estimated_wait(TenantId(0)).unwrap();
        let heavy = q.estimated_wait(TenantId(1)).unwrap();
        assert!((light / heavy - 3.0).abs() < 1e-9, "{light} vs {heavy}");
    }

    #[test]
    fn retry_after_saturated_lane_is_at_least_one() {
        let q = single(4);
        for id in 0..4 {
            q.try_push(job(0, id)).unwrap();
        }
        assert!(q.try_push(job(0, 99)).is_err(), "lane saturated");
        assert!(q.retry_after_secs(TenantId(0)) >= 1);
    }

    #[test]
    fn idle_tenant_banks_no_credit() {
        // Tenant 0 is idle for a long stretch while tenant 1 drains; when
        // tenant 0 returns it must get its fair share, not a makeup burst.
        let q = AdmissionQueue::new(&[spec(1, 128), spec(1, 128)]);
        for id in 0..100 {
            q.try_push(job(1, id)).unwrap();
        }
        for _ in 0..10 {
            q.take_batch(10).unwrap();
        }
        for id in 0..20 {
            q.try_push(job(0, id)).unwrap();
            q.try_push(job(1, 1000 + id)).unwrap();
        }
        let batch = q.take_batch(20).unwrap();
        let t0 = batch.iter().filter(|j| j.tenant == TenantId(0)).count();
        assert_eq!(t0, 10, "equal weights split a contested batch evenly");
    }
}
