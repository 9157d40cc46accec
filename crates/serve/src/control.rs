//! The online control loop (§IV-B3 at runtime).
//!
//! The batcher streams one [`Observation`] per completed request into
//! this loop: the request's cache hit rate under the placement that served
//! it, whether the search stage met its SLO, and the query's global probe
//! set. One windowed [`DriftMonitor`] *per tenant* watches attainment and
//! hit-rate divergence — a small tenant's hot-set shift trips its own
//! monitor instead of being averaged away by a large tenant's stable
//! traffic — and when any monitor trips, the loop re-profiles from the
//! recent probe sets, re-runs Algorithm 1 ([`partition`]), re-splits, and
//! hot-swaps the router — the admission queue keeps accepting and batches
//! keep launching throughout, exactly the paper's "service never stops"
//! full-shard update. The loop also emits a
//! [`MigrationOrder`](crate::migrate::MigrationOrder) after each swap so
//! the background migrator moves the tiered store's cluster extents to
//! match the new placement.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};

use vlite_core::{
    partition, AccessProfile, DriftMonitor, HitRateEstimator, IndexSplit, PartitionInput,
    PerfModel, Router,
};

use crate::config::ControlConfig;
use crate::migrate::MigrationOrder;
use crate::request::TenantId;
use crate::server::Shared;

/// One completed request, as seen by the control loop.
#[derive(Debug)]
pub(crate) struct Observation {
    /// The tenant that submitted the request (repartition events report
    /// which tenants' traffic drove the trigger).
    pub tenant: TenantId,
    /// Cache hit rate under the serving placement.
    pub hit_rate: f64,
    /// Whether the search stage met its latency SLO.
    pub met_slo: bool,
    /// The query's global probe set (for re-profiling).
    pub probes: Vec<u32>,
}

/// One online repartition performed by the control loop.
#[derive(Debug, Clone)]
pub struct RepartitionEvent {
    /// Placement generation installed by this repartition.
    pub generation: u64,
    /// Completed requests observed when the trigger fired.
    pub at_request: u64,
    /// The tenant whose [`DriftMonitor`] tripped this repartition (the
    /// monitors are per-tenant, so a small tenant's drift is attributable
    /// even under a large tenant's stable flood).
    pub triggered_by: TenantId,
    /// Per-tenant observation counts since the previous repartition —
    /// whose traffic the triggering window (and re-profiling sample) was
    /// made of.
    pub observed_by_tenant: Vec<u64>,
    /// Cache coverage ρ before the swap.
    pub old_coverage: f64,
    /// Cache coverage ρ after the swap.
    pub new_coverage: f64,
    /// Fraction of the old hot set still hot after the swap (low overlap =
    /// the hot set genuinely moved).
    pub hot_overlap: f64,
    /// Requests waiting in the admission queue at the moment of the swap —
    /// sampled immediately before `install_placement`, after the rebuild
    /// stages — recorded to show the queue is never drained for an update.
    pub queue_depth_at_swap: usize,
    /// Wall-clock duration of re-profile → Algorithm 1 → re-split → swap.
    pub duration: Duration,
}

/// State owned by the control thread.
pub(crate) struct ControlLoop {
    shared: Arc<Shared>,
    config: ControlConfig,
    /// One drift monitor per tenant, indexed by [`TenantId`].
    monitors: Vec<DriftMonitor>,
    expected_mean_hit: f64,
    input: PartitionInput,
    perf: PerfModel,
    /// Pinned coverage ρ (mirrors `RealConfig::coverage_override`); when
    /// set, a repartition re-chases the hot set at fixed coverage rather
    /// than adopting Algorithm 1's ρ.
    coverage_override: Option<f64>,
    /// Per-cluster vector counts/bytes (static geometry of the index).
    sizes: Vec<u64>,
    bytes: Vec<u64>,
    /// Ring of recent probe sets, the online calibration sample.
    ring: VecDeque<Vec<u32>>,
    observed: u64,
    /// Observations per tenant since the last repartition.
    observed_by_tenant: Vec<u64>,
    last_repartition: u64,
    /// Where tier-migration orders go after each swap.
    migrate_tx: Sender<MigrationOrder>,
}

impl ControlLoop {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shared: Arc<Shared>,
        config: ControlConfig,
        expected_mean_hit: f64,
        input: PartitionInput,
        perf: PerfModel,
        coverage_override: Option<f64>,
        sizes: Vec<u64>,
        bytes: Vec<u64>,
        migrate_tx: Sender<MigrationOrder>,
    ) -> Self {
        let n_tenants = shared.tenants.len();
        let monitors = (0..n_tenants)
            .map(|_| DriftMonitor::new(config.update, expected_mean_hit))
            .collect();
        Self {
            shared,
            config,
            monitors,
            expected_mean_hit,
            input,
            perf,
            coverage_override,
            sizes,
            bytes,
            ring: VecDeque::new(),
            observed: 0,
            observed_by_tenant: vec![0; n_tenants],
            last_repartition: 0,
            migrate_tx,
        }
    }

    /// Consumes observations until every sender (the batcher and the
    /// generation worker) is gone.
    pub fn run(mut self, rx: Receiver<Observation>) {
        while let Ok(obs) = rx.recv() {
            self.observe(obs);
        }
    }

    pub(crate) fn observe(&mut self, obs: Observation) {
        self.observed += 1;
        let tenant = obs.tenant.index();
        self.observed_by_tenant[tenant] += 1;
        self.monitors[tenant].observe(obs.hit_rate, obs.met_slo);
        if self.ring.len() == self.config.profile_window.max(1) {
            self.ring.pop_front();
        }
        self.ring.push_back(obs.probes);

        if let Some(tripped) = self.should_repartition() {
            self.repartition(tripped);
        } else if !self.in_cooldown() {
            // Periodic counter reset per full monitor, keeping the current
            // expectation. Skipped during cooldown: a drift window
            // accumulated while repartitioning is forbidden must survive
            // until the cooldown expires, so genuine drift triggers
            // promptly instead of re-accumulating a whole window from
            // scratch.
            for monitor in &mut self.monitors {
                if monitor.window_full() {
                    monitor.reset(None);
                }
            }
        }
    }

    /// Whether the post-repartition cooldown is still in effect (also
    /// covers start-up: the initial profile deserves the same settling
    /// period as a fresh swap).
    fn in_cooldown(&self) -> bool {
        self.observed - self.last_repartition < self.config.cooldown_requests as u64
    }

    /// The paper's dual trigger, evaluated per tenant — returns the first
    /// tenant whose monitor trips — with an optional relaxation to
    /// hit-rate-divergence-only for hardware where the latency side is
    /// noise (see [`ControlConfig::require_slo_breach`]).
    fn should_repartition(&self) -> Option<TenantId> {
        if self.in_cooldown() {
            return None;
        }
        for (t, monitor) in self.monitors.iter().enumerate() {
            let tripped = if self.config.require_slo_breach {
                monitor.should_update()
            } else {
                let min_window = self.config.update.window_requests.min(100);
                monitor.window_len() >= min_window
                    && (monitor.observed_mean_hit() - self.expected_mean_hit).abs()
                        > self.config.update.hit_rate_divergence
            };
            if tripped {
                return Some(TenantId(t as u16));
            }
        }
        None
    }

    /// Re-profile → Algorithm 1 → re-split → hot-swap, without touching the
    /// admission queue.
    fn repartition(&mut self, triggered_by: TenantId) {
        let started = self.shared.clock.now();

        // Stage 1: re-profile from the observed probe ring.
        let mut counts = vec![0u64; self.sizes.len()];
        for probes in &self.ring {
            for &c in probes {
                counts[c as usize] += 1;
            }
        }
        let probe_sets: Vec<Vec<u32>> = self.ring.iter().cloned().collect();
        let profile =
            AccessProfile::from_parts(counts, self.sizes.clone(), self.bytes.clone(), probe_sets);

        // Stage 2: Algorithm 1 on the refreshed profile.
        let estimator = HitRateEstimator::from_profile(&profile);
        let decision = partition(&self.input, &self.perf, &estimator, &profile);
        let coverage = self.coverage_override.unwrap_or(decision.coverage);

        // Stage 3: re-split and measure hot-set movement.
        let (old_router, _) = self.shared.placement_snapshot();
        let old_split = old_router.split();
        let old_coverage = old_split.coverage();
        let split = IndexSplit::build(&profile, coverage, old_split.n_shards());
        let old_hot: Vec<u32> = (0..self.sizes.len() as u32)
            .filter(|&c| old_split.is_hot(c))
            .collect();
        let retained = old_hot.iter().filter(|&&c| split.is_hot(c)).count();
        let hot_overlap = if old_hot.is_empty() {
            1.0
        } else {
            retained as f64 / old_hot.len() as f64
        };
        let new_coverage = split.coverage();
        // The migrator needs the new hot set; read it off the split in
        // hand before the router consumes it.
        let hot: Vec<bool> = (0..self.sizes.len() as u32)
            .map(|c| split.is_hot(c))
            .collect();
        let new_router = Router::new(split);
        // Refresh the expectation with the runtime's observable statistic:
        // the recent probe sets routed through the *new* placement.
        let expected_mean_hit = crate::server::empirical_mean_hit(&new_router, &self.ring);

        // Stage 4: hot-swap. Queries already routed keep their (global-id)
        // probe lists; the next batch snapshot sees the new placement, with
        // router and generation advancing under one lock. The queue depth
        // is sampled here — immediately before the swap, after the rebuild
        // stages above — so the event reports the backlog *at the moment of
        // the swap*, not at trigger time.
        let queue_depth_at_swap = self.shared.queue.depth();
        let generation = self.shared.install_placement(new_router);

        // Stage 5: hand the new hot set to the migrator, which
        // promotes/demotes cluster extents in the background while batches
        // keep launching against whatever tier each cluster is on.
        let _ = self.migrate_tx.send(MigrationOrder {
            placement_generation: generation,
            triggered_by,
            hot,
        });

        self.shared.record_repartition(RepartitionEvent {
            generation,
            at_request: self.observed,
            triggered_by,
            observed_by_tenant: std::mem::replace(
                &mut self.observed_by_tenant,
                vec![0; self.shared.tenants.len()],
            ),
            old_coverage,
            new_coverage,
            hot_overlap,
            queue_depth_at_swap,
            duration: (self.shared.clock.now() - started).to_std(),
        });
        for monitor in &mut self.monitors {
            monitor.reset(Some(expected_mean_hit));
        }
        self.expected_mean_hit = expected_mean_hit;
        self.last_repartition = self.observed;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ServeConfig, StoreConfig, TenantSpec};
    use crate::obs::{BoundedRing, ObsConfig, ObsPlane};
    use crate::queue::AdmissionQueue;
    use crate::request::Job;
    use crate::server::{PlacementState, Shared};
    use std::sync::atomic::AtomicU64;
    use std::sync::RwLock;
    use vlite_core::{RealConfig, RealDeployment, UpdateConfig};
    use vlite_workload::{CorpusConfig, SyntheticCorpus};

    /// Builds a minimal `Shared` (with a real ephemeral tiered store) +
    /// `ControlLoop` over a tiny real deployment, so `observe`/`repartition`
    /// can be driven synchronously without spawning the runtime threads.
    pub(crate) fn harness(
        cooldown: usize,
        window: usize,
        n_tenants: usize,
    ) -> (Arc<Shared>, ControlLoop, Vec<Vec<u32>>) {
        harness_with_deadline(
            cooldown,
            window,
            n_tenants,
            crate::config::DeadlinePolicy::default(),
        )
    }

    /// A tiny two-shard deployment at 30 % coverage (32 lists over 2 000
    /// eight-dimensional vectors).
    pub(crate) fn tiny_deployment() -> RealDeployment {
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 2_000,
            dim: 8,
            n_centers: 16,
            zipf_exponent: 1.1,
            noise: 0.25,
            seed: 21,
        });
        let mut real = RealConfig::small();
        real.ivf = vlite_ann::IvfConfig::new(32);
        real.n_shards = 2;
        real.coverage_override = Some(0.3);
        RealDeployment::build(&corpus, real).expect("builds")
    }

    /// [`harness`] with an explicit deadline policy — the admission-shed
    /// tests need `enforce` on, which the default policy keeps off.
    fn harness_with_deadline(
        cooldown: usize,
        window: usize,
        n_tenants: usize,
        deadline: crate::config::DeadlinePolicy,
    ) -> (Arc<Shared>, ControlLoop, Vec<Vec<u32>>) {
        let mut deployment = tiny_deployment();
        let real = deployment.config.clone();
        let store = crate::server::open_store(&mut deployment, &StoreConfig::default());
        let RealDeployment {
            index,
            profile,
            perf,
            router,
            ..
        } = deployment;
        let probe_sets: Vec<Vec<u32>> = profile.probe_sets().to_vec();
        let sizes: Vec<u64> = (0..profile.nlist() as u32)
            .map(|c| profile.size(c))
            .collect();
        let bytes: Vec<u64> = (0..profile.nlist() as u32)
            .map(|c| profile.bytes_of(c))
            .collect();
        let tenants: Vec<TenantSpec> = (0..n_tenants)
            .map(|_| TenantSpec {
                weight: 1,
                queue_capacity: 64,
                slo_search: real.slo_search,
            })
            .collect();
        let shared = Arc::new(Shared {
            index,
            placement: RwLock::new(PlacementState {
                router: Arc::new(router),
                generation: 0,
            }),
            queue: AdmissionQueue::new(&tenants),
            worker_panics: AtomicU64::new(0),
            obs: Arc::new(ObsPlane::new(&ObsConfig::default(), tenants.len())),
            tenants,
            repartitions: BoundedRing::new(1024),
            migrations: BoundedRing::new(1024),
            store,
            nprobe: real.nprobe,
            top_k: real.top_k,
            n_shards: 2,
            slo_search: real.slo_search,
            clock: Arc::new(crate::clock::VirtualClock::new()),
            generation: None,
            slo_signal: crate::config::SloSignal::Search,
            deadline,
            trace: Arc::new(crate::trace::TracePlane::new(
                &crate::config::TraceConfig::default(),
                ObsConfig::default().slow_threshold_s,
                7,
            )),
        });
        let mut config = ServeConfig::small().control;
        config.update = UpdateConfig {
            slo_attainment_threshold: 0.9,
            hit_rate_divergence: 0.1,
            window_requests: window,
        };
        config.cooldown_requests = cooldown;
        config.profile_window = 512;
        config.require_slo_breach = true;
        let input = PartitionInput::new(real.slo_search, real.mu_llm0, real.kv_bytes_full);
        let (migrate_tx, _migrate_rx) = crossbeam::channel::unbounded();
        let control = ControlLoop::new(
            shared.clone(),
            config,
            // Expectation far above the drifted observations fed by the
            // tests, so divergence is unambiguous.
            0.9,
            input,
            perf,
            Some(0.3),
            sizes,
            bytes,
            migrate_tx,
        );
        (shared, control, probe_sets)
    }

    fn drifted(probe_sets: &[Vec<u32>], i: usize) -> Observation {
        Observation {
            tenant: TenantId(0),
            hit_rate: 0.0,
            met_slo: false,
            probes: probe_sets[i % probe_sets.len()].clone(),
        }
    }

    #[test]
    fn drift_during_cooldown_triggers_promptly_after_cooldown_expires() {
        // Window 80 < cooldown 440, and 440 is not a multiple of 80: under
        // the old behavior the periodic reset at request 400 wiped a full
        // drift window accumulated during cooldown, so the trigger could
        // not fire before request 480. With the reset skipped during
        // cooldown, the already-full window fires the moment the cooldown
        // expires, at request 440 exactly.
        let (shared, mut control, probe_sets) = harness(440, 80, 1);
        for i in 0..600 {
            control.observe(drifted(&probe_sets, i));
        }
        let events = shared.repartitions.snapshot();
        assert!(!events.is_empty(), "drift must trigger a repartition");
        assert_eq!(
            events[0].at_request, 440,
            "repartition must fire the moment cooldown expires, not after \
             re-accumulating a window (old behavior: request 480)"
        );
    }

    #[test]
    fn periodic_reset_still_runs_outside_cooldown() {
        // Healthy traffic (matching the expectation) with a short cooldown:
        // the monitor's window must keep being reset once cooldown is over,
        // never growing without bound.
        let (shared, mut control, probe_sets) = harness(50, 80, 1);
        for i in 0..500 {
            control.observe(Observation {
                tenant: TenantId(0),
                hit_rate: 0.9,
                met_slo: true,
                probes: probe_sets[i % probe_sets.len()].clone(),
            });
        }
        assert!(shared.repartitions.is_empty());
        assert!(
            control.monitors[0].window_len() <= 80,
            "window {} never reset",
            control.monitors[0].window_len()
        );
    }

    #[test]
    fn queue_depth_at_swap_reports_the_backlog_at_swap_time() {
        let (shared, mut control, probe_sets) = harness(100, 80, 1);
        for i in 0..99 {
            control.observe(drifted(&probe_sets, i));
        }
        // Backlog present when the 100th observation trips the trigger.
        for id in 0..7 {
            let (reply, _rx) = crossbeam::channel::unbounded();
            shared
                .queue
                .try_push(Job {
                    id,
                    tenant: TenantId(0),
                    query: vec![0.0; 8],
                    enqueued: vlite_sim::SimTime::ZERO,
                    deadline: None,
                    trace: crate::trace::TraceId(u128::from(id) + 1),
                    reply,
                })
                .expect("admitted");
        }
        control.observe(drifted(&probe_sets, 99));
        let events = shared.repartitions.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].queue_depth_at_swap, 7);
        assert_eq!(events[0].at_request, 100);
        assert_eq!(events[0].triggered_by, TenantId(0));
        // The triggering traffic is attributed to its tenant, and the
        // counter restarts for the next event.
        assert_eq!(events[0].observed_by_tenant, vec![100]);
        assert_eq!(control.observed_by_tenant, vec![0]);
    }

    #[test]
    fn small_tenant_drift_is_not_drowned_out_by_a_stable_large_tenant() {
        // Tenant 0 floods with perfectly healthy traffic (hit rate at the
        // expectation, SLO met); tenant 1 trickles 1-in-8 requests whose
        // hit rate has collapsed. A single global monitor would average the
        // small tenant's drift to ~0.09 divergence (< 0.1) and never fire;
        // the per-tenant monitor attributes the trigger to tenant 1.
        let (shared, mut control, probe_sets) = harness(100, 80, 2);
        let mut i = 0usize;
        while shared.repartitions.is_empty() && i < 5_000 {
            if i % 8 == 7 {
                control.observe(Observation {
                    tenant: TenantId(1),
                    hit_rate: 0.0,
                    met_slo: false,
                    probes: probe_sets[i % probe_sets.len()].clone(),
                });
            } else {
                control.observe(Observation {
                    tenant: TenantId(0),
                    hit_rate: 0.9,
                    met_slo: true,
                    probes: probe_sets[i % probe_sets.len()].clone(),
                });
            }
            i += 1;
        }
        let events = shared.repartitions.snapshot();
        assert_eq!(events.len(), 1, "small tenant's drift must trigger");
        assert_eq!(
            events[0].triggered_by,
            TenantId(1),
            "the event must name the drifting tenant"
        );
        // The large tenant's healthy traffic dominates the window, which
        // is exactly why a global monitor would have stayed silent.
        assert!(events[0].observed_by_tenant[0] > events[0].observed_by_tenant[1] * 3);
    }

    /// Backlogs tenant 0's lane with `n` jobs. No batcher thread exists in
    /// this harness, so the jobs stay queued and `estimated_wait` reads a
    /// real depth.
    fn backlog(shared: &Shared, n: u64) {
        for id in 0..n {
            let (reply, _rx) = crossbeam::channel::unbounded();
            shared
                .queue
                .try_push(Job {
                    id,
                    tenant: TenantId(0),
                    query: vec![0.0; 8],
                    enqueued: vlite_sim::SimTime::ZERO,
                    deadline: None,
                    trace: crate::trace::TraceId(u128::from(id) + 1),
                    reply,
                })
                .expect("within lane capacity");
        }
    }

    #[test]
    fn admission_shed_fires_only_when_the_queue_wait_exceeds_the_budget() {
        let policy = crate::config::DeadlinePolicy {
            enforce: true,
            ..crate::config::DeadlinePolicy::default()
        };
        let (shared, _control, _probe_sets) = harness_with_deadline(100, 80, 1, policy);
        let t0 = vlite_sim::SimTime::ZERO;
        // Seed the drain-rate EWMA: two drains of 4 jobs 10 ms apart read
        // ~400 jobs/s, then backlog the lane so the wait estimate is real.
        shared.queue.record_drain(4, t0);
        shared
            .queue
            .record_drain(4, t0 + vlite_sim::SimDuration::from_millis(10.0));
        backlog(&shared, 32);
        let wait = shared
            .queue
            .estimated_wait(TenantId(0))
            .expect("rate and depth both measured");
        assert!(wait > 0.0);

        // A budget below the estimated wait sheds, with full accounting.
        let err = shared
            .shed_if_unmeetable(0, TenantId(0), None, Some(wait / 2.0), t0)
            .expect_err("unmeetable budget must shed at admission");
        match err {
            crate::request::AdmissionError::DeadlineUnmeetable {
                tenant,
                budget,
                estimated_wait,
            } => {
                assert_eq!(tenant, TenantId(0));
                assert!((budget - wait / 2.0).abs() < 1e-12);
                assert!((estimated_wait - wait).abs() < 1e-12);
            }
            other => panic!("wrong admission error: {other:?}"),
        }
        assert_eq!(
            shared.obs.deadline_sheds[crate::obs::DEADLINE_STAGE_ADMISSION].get(),
            1
        );
        assert!(
            shared
                .obs
                .journal_snapshot()
                .iter()
                .any(|e| e.kind == "deadline-shed" && e.detail.contains("shed at admission")),
            "admission sheds must reach the event journal"
        );

        // A budget above the estimated wait is feasible and admits.
        shared
            .shed_if_unmeetable(0, TenantId(0), None, Some(wait * 2.0), t0)
            .expect("feasible budget must admit");
        // Unbudgeted submissions never shed at admission.
        shared
            .shed_if_unmeetable(0, TenantId(0), None, None, t0)
            .expect("unbudgeted submissions always admit");
        assert_eq!(
            shared.obs.deadline_sheds[crate::obs::DEADLINE_STAGE_ADMISSION].get(),
            1,
            "only the unmeetable budget shed"
        );
    }

    #[test]
    fn measure_only_policy_never_sheds_at_admission() {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        let t0 = vlite_sim::SimTime::ZERO;
        shared.queue.record_drain(4, t0);
        shared
            .queue
            .record_drain(4, t0 + vlite_sim::SimDuration::from_millis(10.0));
        backlog(&shared, 32);
        let wait = shared
            .queue
            .estimated_wait(TenantId(0))
            .expect("rate and depth both measured");
        // Even a budget far below the wait admits when `enforce` is off.
        shared
            .shed_if_unmeetable(0, TenantId(0), None, Some(wait / 100.0), t0)
            .expect("measure-only policies never shed");
        assert_eq!(
            shared.obs.deadline_sheds[crate::obs::DEADLINE_STAGE_ADMISSION].get(),
            0
        );
    }
}
