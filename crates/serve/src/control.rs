//! The online control loop (§IV-B3 at runtime).
//!
//! The batcher streams one [`Observation`] per completed request into
//! this loop: the request's cache hit rate under the placement that served
//! it, whether the search stage met its SLO, and the query's global probe
//! set. One windowed [`DriftMonitor`] *per tenant* watches attainment and
//! hit-rate divergence — a small tenant's hot-set shift trips its own
//! monitor instead of being averaged away by a large tenant's stable
//! traffic — and when any monitor trips, the loop runs the offline stage's
//! placement pass ([`place`]: re-profile → Algorithm 1 → re-split) on the
//! recent probe sets, with the deployment's config and latency model, and
//! hot-swaps the split — the admission queue keeps accepting and batches
//! keep launching throughout, exactly the paper's "service never stops"
//! full-shard update. The offline build and every repartition share that
//! one pass, so the same probe sets yield the same placement either way.
//!
//! A split swap only changes where probes are *routed*; the bytes live in
//! the [`TieredStore`](vlite_store::TieredStore) behind the scan path. So
//! right after the swap the loop migrates the tiers itself: newly hot
//! clusters are promoted (their full-precision extents materialized from
//! the segment file into resident arenas), newly cold ones demoted (arenas
//! released, scans fall back to the mmap'd SQ8 extents). The migration
//! never blocks a scan: all promotion I/O happens outside the tier map's
//! lock, the tier swap is one pointer store, and scans already running
//! keep their snapshot's arenas alive through `Arc`s. Between the two
//! swaps a newly hot cluster may still scan cold for a batch or two — which
//! is correct (both tiers return the cluster's vectors, at different
//! precision). The migration runs inside the post-repartition cooldown, so
//! no observation it delays could have triggered anything, and when a
//! repartition returns the store's tiers equal the installed split's hot
//! set.
//!
//! The loop times its work as two disjoint profile stages: `control`
//! (re-profile → Algorithm 1 → re-split → swap) and `migrate` (the tier
//! move). Observations themselves stay unsectioned: a pair of clock reads
//! per observation would cost too much at saturating request rates.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;

use vlite_core::{place, AccessProfile, DriftMonitor, PerfModel, PlacementPass};

use crate::request::TenantId;
use crate::server::Shared;
use crate::trace::{STAGE_CONTROL, STAGE_MIGRATE};

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

/// One tier migration the control loop applied right after a split swap,
/// as reported in [`ServeReport`](crate::ServeReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The placement generation this migration realized.
    pub placement_generation: u64,
    /// The store generation installed by this migration.
    pub store_generation: u64,
    /// The tenant whose drift monitor tripped the repartition behind it.
    pub triggered_by: TenantId,
    /// Clusters promoted cold → hot.
    pub promoted: usize,
    /// Clusters demoted hot → cold.
    pub demoted: usize,
    /// Bytes materialized into resident arenas.
    pub bytes_promoted: u64,
    /// Resident bytes released back to the cold tier.
    pub bytes_demoted: u64,
    /// Batches the batcher had completed when the migration began.
    pub batches_before: u64,
    /// Batches the batcher had completed when the migration finished — the
    /// gap to `batches_before` shows the engine kept draining throughout.
    pub batches_after: u64,
    /// Clock duration of the promotion I/O + swap.
    pub duration: Duration,
}

/// State owned by the control thread: the drift monitors, the probe ring,
/// and the fixed inputs of the placement pass ([`place`]) the offline build
/// ran, which each repartition re-runs on the ring. Its knobs and the
/// offline-stage config (SLO, KV budget, shard count, pinned coverage) are
/// the server's own, read through [`Shared::config`].
pub(crate) struct ControlLoop {
    shared: Arc<Shared>,
    /// One drift monitor per tenant, indexed by [`TenantId`].
    monitors: Vec<DriftMonitor>,
    /// The offline build's fitted latency model.
    perf: PerfModel,
    /// Per-cluster vector counts/bytes (static geometry of the index).
    sizes: Vec<u64>,
    bytes: Vec<u64>,
    /// Ring of recent probe sets, the online calibration sample.
    ring: VecDeque<Vec<u32>>,
    observed: u64,
    /// Observations per tenant since the last repartition.
    observed_by_tenant: Vec<u64>,
    last_repartition: u64,
}

impl ControlLoop {
    /// A loop placing with the server's offline-stage config and the
    /// build's `perf` model over `profile`'s cluster geometry, expecting
    /// `expected_mean_hit`.
    pub fn new(
        shared: Arc<Shared>,
        perf: PerfModel,
        profile: &AccessProfile,
        expected_mean_hit: f64,
    ) -> Self {
        let n_tenants = shared.config.tenants.len();
        let update = shared.config.control.update;
        let monitors = (0..n_tenants)
            .map(|_| DriftMonitor::new(update, expected_mean_hit))
            .collect();
        Self {
            shared,
            monitors,
            perf,
            sizes: profile.sizes().to_vec(),
            bytes: profile.cluster_bytes().to_vec(),
            ring: VecDeque::new(),
            observed: 0,
            observed_by_tenant: vec![0; n_tenants],
            last_repartition: 0,
        }
    }

    /// Consumes observations until the batcher (the one sender) is gone.
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
        if self.ring.len() == self.shared.config.control.profile_window {
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
        self.observed - self.last_repartition < self.shared.config.control.cooldown_requests as u64
    }

    /// The paper's dual trigger, evaluated per tenant — returns the first
    /// tenant whose monitor trips — with an optional relaxation to
    /// hit-rate-divergence-only for hardware where the latency side is
    /// noise (see
    /// [`ControlConfig::require_slo_breach`](crate::ControlConfig::require_slo_breach)).
    fn should_repartition(&self) -> Option<TenantId> {
        if self.in_cooldown() {
            return None;
        }
        for (t, monitor) in self.monitors.iter().enumerate() {
            let tripped = if self.shared.config.control.require_slo_breach {
                monitor.should_update()
            } else {
                monitor.hit_rate_diverged()
            };
            if tripped {
                return Some(TenantId(t as u16));
            }
        }
        None
    }

    /// Re-profile → Algorithm 1 → re-split → hot-swap → tier migration,
    /// without touching the admission queue.
    fn repartition(&mut self, triggered_by: TenantId) {
        let started = self.shared.clock.now();
        let control = self.shared.trace.stage_start(STAGE_CONTROL, started);

        // Stages 1–3: the offline placement pass on the observed probe
        // ring — re-profile, Algorithm 1, re-split — whose mean hit rate
        // over the ring (the statistic the batcher observes) is the
        // monitors' new expectation.
        let probe_sets: Vec<Vec<u32>> = self.ring.iter().cloned().collect();
        let PlacementPass {
            split,
            hot,
            mean_hit: expected_mean_hit,
            ..
        } = place(
            &self.shared.config.real,
            &self.perf,
            &self.sizes,
            &self.bytes,
            probe_sets,
        );

        // How far the hot set moved.
        let (old_split, _) = self.shared.placement_snapshot();
        let old_coverage = old_split.coverage();
        let old_hot = old_split.hot_flags();
        let held = old_hot.iter().filter(|&&h| h).count();
        let retained = (old_hot.iter().zip(&hot))
            .filter(|&(&was, &is)| was && is)
            .count();
        let hot_overlap = if held == 0 {
            1.0
        } else {
            retained as f64 / held as f64
        };
        let new_coverage = split.coverage();

        // Stage 4: hot-swap. Queries already routed keep their (global-id)
        // probe lists; the next batch snapshot sees the new placement, with
        // split and generation advancing under one lock. The queue depth
        // is sampled here — immediately before the swap, after the rebuild
        // stages above — so the event reports the backlog *at the moment of
        // the swap*, not at trigger time.
        let queue_depth_at_swap = self.shared.queue.depth();
        let generation = self.shared.install_placement(split);
        let swapped = self.shared.clock.now();
        self.shared.trace.stage_end(control, swapped);
        self.shared.record_repartition(RepartitionEvent {
            generation,
            at_request: self.observed,
            triggered_by,
            observed_by_tenant: std::mem::replace(
                &mut self.observed_by_tenant,
                vec![0; self.shared.config.tenants.len()],
            ),
            old_coverage,
            new_coverage,
            hot_overlap,
            queue_depth_at_swap,
            duration: (swapped - started).to_std(),
        });

        // Stage 5: move the tiers to the new hot set while batches keep
        // launching against whatever tier each cluster is on.
        self.migrate(generation, triggered_by, &hot);

        for monitor in &mut self.monitors {
            monitor.reset(Some(expected_mean_hit));
        }
        self.last_repartition = self.observed;
    }

    /// Promotes/demotes cluster extents so the store's tiers equal `hot`,
    /// timed as one `migrate` section, and records the migration (event,
    /// journal line, and a span linked to whatever batch was in flight
    /// while the tiers moved).
    fn migrate(&self, placement_generation: u64, triggered_by: TenantId, hot: &[bool]) {
        let shared = &self.shared;
        let started = shared.clock.now();
        let timer = shared.trace.stage_start(STAGE_MIGRATE, started);
        let batches_before = shared.obs.batches.get();
        let shift = shared.store.apply_placement(hot);
        let batches_after = shared.obs.batches.get();
        let finished = shared.clock.now();
        shared.trace.stage_end(timer, finished);
        shared
            .trace
            .record_migration("migration", started, finished);
        shared.record_migration(MigrationEvent {
            placement_generation,
            store_generation: shift.generation,
            triggered_by,
            promoted: shift.promoted,
            demoted: shift.demoted,
            bytes_promoted: shift.bytes_promoted,
            bytes_demoted: shift.bytes_demoted,
            batches_before,
            batches_after,
            duration: (finished - started).to_std(),
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ServeConfig, TenantSpec};
    use crate::request::Job;
    use vlite_core::{RealConfig, UpdateConfig};
    use vlite_workload::{CorpusConfig, SyntheticCorpus};

    /// Builds a minimal `Shared` (with a real ephemeral tiered store) +
    /// `ControlLoop` over a tiny real deployment, so `observe`/`repartition`
    /// can be driven synchronously without spawning the runtime threads.
    pub(crate) fn harness(
        cooldown: usize,
        window: usize,
        n_tenants: usize,
    ) -> (Arc<Shared>, ControlLoop, Vec<Vec<u32>>) {
        harness_with(cooldown, window, n_tenants, |_| {})
    }

    /// 2 000 eight-dimensional vectors around 16 centres.
    pub(crate) fn tiny_corpus() -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 2_000,
            dim: 8,
            n_centers: 16,
            zipf_exponent: 1.1,
            noise: 0.25,
            seed: 21,
        })
    }

    /// A serving config for [`tiny_corpus`]: 32 lists over two shards at
    /// 30 % coverage.
    pub(crate) fn tiny_config() -> ServeConfig {
        let mut config = ServeConfig::small();
        config.real.ivf = vlite_ann::IvfConfig::new(32);
        config.real.n_shards = 2;
        config.real.coverage_override = Some(0.3);
        config
    }

    /// [`harness`] with `edit` applied to its serving config (the
    /// admission-shed tests need the deadline policy's `enforce` on, which
    /// the default keeps off).
    pub(crate) fn harness_with(
        cooldown: usize,
        window: usize,
        n_tenants: usize,
        edit: impl FnOnce(&mut ServeConfig),
    ) -> (Arc<Shared>, ControlLoop, Vec<Vec<u32>>) {
        let mut config = tiny_config();
        edit(&mut config);
        let (shared, mut control, probe_sets) = harness_over(config, cooldown, window, n_tenants);
        // Expectation far above the drifted observations fed by the tests,
        // so divergence is unambiguous.
        for monitor in &mut control.monitors {
            monitor.reset(Some(0.9));
        }
        (shared, control, probe_sets)
    }

    /// The runtime state and control loop the server wires from `config`
    /// over [`tiny_corpus`] (on a `VirtualClock`, with `n_tenants` equal
    /// tenants), plus the offline build's calibration probe sets.
    fn harness_over(
        mut config: ServeConfig,
        cooldown: usize,
        window: usize,
        n_tenants: usize,
    ) -> (Arc<Shared>, ControlLoop, Vec<Vec<u32>>) {
        let tenant = TenantSpec {
            weight: 1,
            queue_capacity: 64,
            slo_search: config.real.slo_search,
        };
        config.tenants = vec![tenant; n_tenants];
        config.control.update = UpdateConfig {
            slo_attainment_threshold: 0.9,
            hit_rate_divergence: 0.1,
            window_requests: window,
        };
        config.control.cooldown_requests = cooldown;
        config.control.profile_window = 512;
        config.control.require_slo_breach = true;
        let corpus = tiny_corpus();
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let (shared, control) = crate::server::wire(&corpus, config, clock).expect("builds");
        // The build's calibration sample: its queries, coarse-quantized.
        let real = &shared.config.real;
        let calibration = corpus.queries(real.n_profile_queries, real.seed);
        let probe_sets = (calibration.iter())
            .map(|q| {
                (shared.index.probe(q, real.nprobe).iter())
                    .map(|p| p.list)
                    .collect()
            })
            .collect();
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
    fn a_repartition_returns_with_tiers_and_profile_consistent() {
        let (shared, mut control, probe_sets) = harness(100, 80, 1);
        let nlist = shared.index.nlist() as u32;
        let old_flags = shared.store.hot_flags();
        // Traffic drifts onto other clusters: every probe shifts by half
        // the lists, so the re-profiled hot set moves.
        let mut i = 0;
        while shared.repartitions.is_empty() && i < 1_000 {
            let mut obs = drifted(&probe_sets, i);
            for c in &mut obs.probes {
                *c = (*c + nlist / 2) % nlist;
            }
            control.observe(obs);
            i += 1;
        }
        assert_eq!(shared.repartitions.len(), 1, "drift must repartition");

        // No thread ran and nothing shut down: the tiers already match.
        let (split, generation) = shared.placement_snapshot();
        let flags = shared.store.hot_flags();
        assert_eq!(
            flags,
            split.hot_flags(),
            "tiers equal the installed hot set"
        );
        assert_ne!(flags, old_flags, "the drifted hot set moved clusters");
        let migrations = shared.migrations.snapshot();
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].placement_generation, generation);

        let profile = shared.trace.profile();
        for stage in ["control", "migrate"] {
            let row = profile.iter().find(|r| r.stage == stage).expect("row");
            assert_eq!(row.sections, 1, "{stage} sections");
        }
    }

    /// Re-placing on the deployment's own calibration probe sets installs
    /// the offline build's placement bit for bit — the same hot set, shard
    /// assignment, coverage and expected hit rate — with the coverage
    /// pinned or left to Algorithm 1. Unpinned, Algorithm 1 gets a 1 ns SLO
    /// at 10⁹ req/s, which no host's measured CPU search meets, so its ρ is
    /// not zero.
    #[test]
    fn a_repartition_on_the_calibration_probe_sets_installs_the_offline_placement() {
        let unpinned = |real: &mut RealConfig| {
            real.coverage_override = None;
            real.slo_search = 1e-9;
            real.mu_llm0 = 1e9;
        };
        let edits: [&dyn Fn(&mut RealConfig); 2] = [&|_| {}, &unpinned];
        for edit in edits {
            let mut config = tiny_config();
            edit(&mut config.real);
            let pinned = config.real.coverage_override;
            let (shared, mut control, probe_sets) = harness_over(config, 100, 80, 1);
            let (offline, _) = shared.placement_snapshot();
            // Every window is empty, so the observed mean reads the
            // expectation: the offline build's mean hit rate.
            let offline_hit = control.monitors[0].observed_mean_hit();
            control.ring.extend(probe_sets);
            control.repartition(TenantId(0));

            let (online, generation) = shared.placement_snapshot();
            assert_eq!(generation, 1, "pinned at {pinned:?}");
            assert!(online.hot_count() > 0, "pinned at {pinned:?}");
            assert_eq!(online.coverage().to_bits(), offline.coverage().to_bits());
            let nlist = shared.index.nlist() as u32;
            for c in 0..nlist {
                assert_eq!(online.placement(c), offline.placement(c), "cluster {c}");
            }
            for shard in 0..offline.n_shards() {
                assert_eq!(online.shard_clusters(shard), offline.shard_clusters(shard));
            }
            assert_eq!(shared.store.hot_flags(), offline.hot_flags());
            // The reset left every window empty, so the observed mean reads
            // the new expectation.
            let expected = control.monitors[0].observed_mean_hit();
            assert_eq!(expected.to_bits(), offline_hit.to_bits());
        }
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

    /// Runs rung 1 for a tenant-0 submission at time zero with `budget`
    /// seconds, stamping the deadline the budget sets.
    fn shed_at_zero(
        shared: &Shared,
        budget: Option<f64>,
    ) -> Result<(), crate::request::AdmissionError> {
        let t0 = vlite_sim::SimTime::ZERO;
        let deadline = budget.map(|b| t0 + vlite_sim::SimDuration::from_secs_f64(b));
        shared.shed_if_unmeetable(0, TenantId(0), None, budget, deadline, t0)
    }

    #[test]
    fn admission_shed_fires_only_when_the_queue_wait_exceeds_the_budget() {
        let enforce = |config: &mut ServeConfig| config.deadline.enforce = true;
        let (shared, _control, _probe_sets) = harness_with(100, 80, 1, enforce);
        // Seed the drain-rate EWMA: a batch of 4 jobs served in 10 ms of
        // engine time reads 400 jobs/s, then backlog the lane so the wait
        // estimate is real.
        shared
            .queue
            .record_drain(4, vlite_sim::SimDuration::from_millis(10.0), false);
        backlog(&shared, 32);
        let wait = shared
            .queue
            .estimated_wait(TenantId(0))
            .expect("rate and depth both measured");
        assert!(wait > 0.0);

        // A budget below the estimated wait sheds, with full accounting.
        let err = shed_at_zero(&shared, Some(wait / 2.0))
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
        shed_at_zero(&shared, Some(wait * 2.0)).expect("feasible budget must admit");
        // Unbudgeted submissions never shed at admission.
        shed_at_zero(&shared, None).expect("unbudgeted submissions always admit");
        assert_eq!(
            shared.obs.deadline_sheds[crate::obs::DEADLINE_STAGE_ADMISSION].get(),
            1,
            "only the unmeetable budget shed"
        );
    }

    #[test]
    fn measure_only_policy_never_sheds_at_admission() {
        let (shared, _control, _probe_sets) = harness(100, 80, 1);
        shared
            .queue
            .record_drain(4, vlite_sim::SimDuration::from_millis(10.0), false);
        backlog(&shared, 32);
        let wait = shared
            .queue
            .estimated_wait(TenantId(0))
            .expect("rate and depth both measured");
        // Even a budget far below the wait admits when `enforce` is off.
        shed_at_zero(&shared, Some(wait / 100.0)).expect("measure-only policies never shed");
        assert_eq!(
            shared.obs.deadline_sheds[crate::obs::DEADLINE_STAGE_ADMISSION].get(),
            0
        );
    }
}
