//! Virtual-time hybrid search engine (§IV-B).
//!
//! Models the distributed retrieval pipeline for every serving system:
//!
//! - **CPU-Only** — coarse quantization + full LUT stage on the host; the
//!   batch returns as a whole.
//! - **DED-GPU** — the whole search on one dedicated GPU.
//! - **ALL-GPU** — `IndexIVFShards` semantics: every shard receives the
//!   *full* probe list and pays kernel-launch cost even for non-resident
//!   clusters; all retrieval GPUs are occupied.
//! - **vLiteRAG** — CPU coarse quantization, pruned GPU shard scans of hot
//!   clusters hidden under the CPU's scan of cold clusters (Eq. 1), with
//!   the dynamic dispatcher forwarding early-completing queries.
//! - **HedraRAG** — GPU caching without pruned routing or dispatching.
//!
//! Batching is on-demand and dynamic: a batch launches the moment the
//! engine is idle and absorbs everything queued (paper §VI-B: "retrieval
//! requests are served immediately after the previous search completes,
//! allowing throughput to scale with arrival rate through adaptive batch
//! sizing").

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vlite_sim::{SimDuration, SimTime};
use vlite_workload::ClusterWorkload;

use crate::{AccessProfile, IndexSplit, SearchCostModel, SystemKind};

/// A retrieval request waiting for service.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest {
    /// Request id (shared with the LLM stage).
    pub id: u64,
    /// Arrival time at the retrieval queue.
    pub arrival: SimTime,
}

/// One query's outcome within a planned batch.
#[derive(Debug, Clone, Copy)]
pub struct QueryPlan {
    /// Request id.
    pub id: u64,
    /// Completion offset from batch start.
    pub done_offset: SimDuration,
    /// The query's cache hit rate (probe-count based).
    pub hit_rate: f64,
}

/// The fully scheduled execution of one search batch.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// When the batch started.
    pub started_at: SimTime,
    /// Batch size.
    pub batch: usize,
    /// Per-query completions (order = service order).
    pub queries: Vec<QueryPlan>,
    /// When the engine becomes free again.
    pub busy_until: SimTime,
    /// Minimum hit rate within the batch (the tail query).
    pub min_hit_rate: f64,
    /// Retrieval busy seconds charged to each GPU: `(gpu index, seconds)`.
    pub gpu_busy: Vec<(usize, f64)>,
}

/// Aggregate search-engine statistics.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Batch sizes of all executed batches.
    pub batch_sizes: Vec<usize>,
    /// Per-batch minimum hit rates.
    pub min_hit_rates: Vec<f64>,
    /// Per-batch total latencies (seconds).
    pub batch_latencies: Vec<f64>,
}

impl SearchStats {
    /// Mean batch size over the run.
    pub fn mean_batch(&self) -> f64 {
        if self.batch_sizes.is_empty() {
            0.0
        } else {
            self.batch_sizes.iter().sum::<usize>() as f64 / self.batch_sizes.len() as f64
        }
    }
}

/// The engine.
///
/// Owns the per-cluster geometry it needs (sizes), the cost model, the
/// split that routes each probe set and a deterministic RNG for probe-set
/// draws.
#[derive(Debug)]
pub struct HybridSearchEngine {
    kind: SystemKind,
    cost: SearchCostModel,
    workload: ClusterWorkload,
    sizes: Vec<u64>,
    router: IndexSplit,
    dispatcher: bool,
    shard_gpus: Vec<usize>,
    queue: VecDeque<SearchRequest>,
    busy_until: Option<SimTime>,
    max_batch: usize,
    rng: StdRng,
    stats: SearchStats,
    /// Cumulative retrieval busy seconds per GPU (index = GPU id).
    gpu_busy_total: Vec<f64>,
    /// How strongly retrieval kernels contend with co-located LLM kernels.
    /// Pruned vLiteRAG launches are small and stream-isolated (§IV-B1);
    /// unpruned `IndexIVFShards` launches hammer the SM scheduler.
    contention_coeff: f64,
}

/// Bulk-merge cost per query when the dispatcher is disabled (results are
/// merged and re-ranked at batch end instead of overlapping the scan).
const BULK_MERGE_PER_QUERY: f64 = 0.3e-3;

impl HybridSearchEngine {
    /// Creates an engine.
    ///
    /// `shard_gpus[s]` is the node GPU hosting shard `s`; `n_gpus` sizes
    /// the duty-cycle tracker.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: SystemKind,
        cost: SearchCostModel,
        workload: ClusterWorkload,
        profile: &AccessProfile,
        router: IndexSplit,
        dispatcher: bool,
        shard_gpus: Vec<usize>,
        n_gpus: usize,
        seed: u64,
    ) -> Self {
        let sizes = profile.sizes().to_vec();
        let contention_coeff = match kind {
            // Pruned launches on dedicated streams: mild SM sharing.
            SystemKind::VectorLite => 0.3,
            // Full-probe `IndexIVFShards` launches on every shard: each
            // query-cluster pair takes a thread block and shared-memory
            // staging whether or not the cluster is resident (§IV-B1), so
            // the scheduling pressure on co-located LLM kernels far
            // exceeds the raw duty cycle.
            SystemKind::AllGpu | SystemKind::HedraRag => 4.0,
            // No co-location.
            SystemKind::CpuOnly | SystemKind::DedGpu => 0.0,
        };
        Self {
            kind,
            cost,
            workload,
            sizes,
            router,
            dispatcher,
            shard_gpus,
            queue: VecDeque::new(),
            busy_until: None,
            max_batch: 64,
            rng: StdRng::seed_from_u64(seed ^ 0x5ea7c4),
            stats: SearchStats::default(),
            gpu_busy_total: vec![0.0; n_gpus],
            contention_coeff,
        }
    }

    /// Queued (not yet started) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a batch is in flight.
    pub fn is_busy(&self, now: SimTime) -> bool {
        self.busy_until.is_some_and(|t| t > now)
    }

    /// Run statistics.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Retrieval duty cycle of one GPU at wall-clock time `now`: cumulative
    /// retrieval-busy seconds over elapsed virtual time, in `[0, 1]`.
    pub fn gpu_duty(&self, gpu: usize, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        (self.gpu_busy_total.get(gpu).copied().unwrap_or(0.0) / elapsed).min(1.0)
    }

    /// The contention coefficient scaling duty into LLM step inflation.
    pub fn contention_coeff(&self) -> f64 {
        self.contention_coeff
    }

    /// Enqueues a request.
    pub fn enqueue(&mut self, request: SearchRequest) {
        self.queue.push_back(request);
    }

    /// Starts a batch at `now` if the engine is idle and work is queued.
    pub fn try_start_batch(&mut self, now: SimTime) -> Option<BatchPlan> {
        if self.is_busy(now) || self.queue.is_empty() {
            return None;
        }
        let take = self.queue.len().min(self.max_batch);
        let requests: Vec<SearchRequest> = self.queue.drain(..take).collect();
        let plan = self.plan_batch(now, &requests);
        self.busy_until = Some(plan.busy_until);
        self.stats.batch_sizes.push(plan.batch);
        self.stats.min_hit_rates.push(plan.min_hit_rate);
        self.stats
            .batch_latencies
            .push((plan.busy_until - plan.started_at).as_secs_f64());
        // Accumulate retrieval busy time per GPU (duty = busy / wall time).
        for &(gpu, secs) in &plan.gpu_busy {
            self.gpu_busy_total[gpu] += secs;
        }
        Some(plan)
    }

    /// Plans the execution of one batch (pure function of the drawn probe
    /// sets and the system kind).
    fn plan_batch(&mut self, now: SimTime, requests: &[SearchRequest]) -> BatchPlan {
        let b = requests.len();
        let bf = b as f64;
        let n_shards = self.router.n_shards();

        // Draw probe sets and route them.
        let mut routed = Vec::with_capacity(b);
        for _ in 0..b {
            let probes = self.workload.gen_probe_set(&mut self.rng);
            routed.push(self.router.route(&probes));
        }
        let hit_rates: Vec<f64> = routed.iter().map(|r| r.hit_rate()).collect();
        let min_hit = hit_rates.iter().copied().fold(1.0, f64::min);

        let scan_vectors = |clusters: &[u32]| -> f64 {
            clusters
                .iter()
                .map(|&c| self.sizes[c as usize] as f64)
                .sum()
        };

        let mut gpu_busy: Vec<(usize, f64)> = Vec::new();
        let mut queries = Vec::with_capacity(b);
        let busy_until;

        match self.kind {
            SystemKind::CpuOnly => {
                // Vanilla fast scan: same physical per-cluster accounting as
                // the hybrid path (all probes are CPU probes at coverage 0),
                // batch returned as a whole.
                let scan: f64 = routed
                    .iter()
                    .map(|r| self.cost.cpu_scan_secs(scan_vectors(&r.cpu_probes)))
                    .sum();
                let total =
                    self.cost.t_cq(bf) + self.cost.lut_base + scan + BULK_MERGE_PER_QUERY * bf;
                busy_until = now + SimDuration::from_secs_f64(total);
                for r in requests {
                    queries.push(QueryPlan {
                        id: r.id,
                        done_offset: SimDuration::from_secs_f64(total),
                        hit_rate: 0.0,
                    });
                }
            }
            SystemKind::DedGpu => {
                let total = self.cost.dedicated_gpu_total(bf);
                busy_until = now + SimDuration::from_secs_f64(total);
                let gpu = self.shard_gpus.first().copied().unwrap_or(0);
                gpu_busy.push((gpu, total));
                for r in requests {
                    queries.push(QueryPlan {
                        id: r.id,
                        done_offset: SimDuration::from_secs_f64(total),
                        hit_rate: 1.0,
                    });
                }
            }
            SystemKind::AllGpu => {
                // Unpruned IndexIVFShards: every shard pays launch cost for
                // the full probe list of every query plus its resident scan.
                let mut worst_shard = 0.0f64;
                for shard in 0..n_shards {
                    let mut t = self.cost.gpu_base;
                    for routed_q in &routed {
                        let vectors = scan_vectors(&routed_q.shard_probes_global[shard]);
                        t += self.cost.gpu_query_secs(self.cost.nprobe as f64, vectors);
                    }
                    let gpu = self.shard_gpus.get(shard).copied().unwrap_or(shard);
                    gpu_busy.push((gpu, t));
                    worst_shard = worst_shard.max(t);
                }
                // GPU-side coarse quantization, cheap.
                let total = self.cost.cq_per_query * 0.1 * bf + worst_shard;
                busy_until = now + SimDuration::from_secs_f64(total);
                for r in requests {
                    queries.push(QueryPlan {
                        id: r.id,
                        done_offset: SimDuration::from_secs_f64(total),
                        hit_rate: 1.0,
                    });
                }
            }
            SystemKind::VectorLite | SystemKind::HedraRag => {
                let pruned = self.kind == SystemKind::VectorLite;
                let t_cq = self.cost.t_cq(bf);
                // GPU shards scan concurrently after coarse quantization.
                let mut gpu_all_done = 0.0f64;
                for shard in 0..n_shards {
                    let mut t = if self.router.hot_count() > 0 {
                        self.cost.gpu_base
                    } else {
                        0.0
                    };
                    for routed_q in &routed {
                        let resident = &routed_q.shard_probes_global[shard];
                        if resident.is_empty() && pruned {
                            continue;
                        }
                        let launched = if pruned {
                            resident.len() as f64
                        } else {
                            self.cost.nprobe as f64
                        };
                        t += self.cost.gpu_query_secs(launched, scan_vectors(resident));
                    }
                    if t > 0.0 {
                        let gpu = self.shard_gpus.get(shard).copied().unwrap_or(shard);
                        gpu_busy.push((gpu, t));
                        gpu_all_done = gpu_all_done.max(t);
                    }
                }
                let gpu_all_done = t_cq + gpu_all_done;
                // CPU scans the cold probes query-by-query; prefix sums give
                // per-query CPU completion offsets. LUT construction is
                // per-probed-cluster (residual PQ), so the CPU only builds
                // tables for its *cold* share — the fixed LUT cost scales
                // with the batch's miss fraction, exactly as Eq. 1 models.
                let avg_hit: f64 = hit_rates.iter().sum::<f64>() / bf;
                let mut cpu_cursor = t_cq + self.cost.lut_base * (1.0 - avg_hit);
                let mut offsets = Vec::with_capacity(b);
                for routed_q in &routed {
                    cpu_cursor += self.cost.cpu_scan_secs(scan_vectors(&routed_q.cpu_probes));
                    offsets.push(cpu_cursor);
                }
                let batch_end = cpu_cursor.max(gpu_all_done);
                if self.dispatcher {
                    // A query leaves once its own CPU probes are done and
                    // all GPU flags are set (§IV-B2).
                    for (i, r) in requests.iter().enumerate() {
                        let done = offsets[i].max(gpu_all_done);
                        queries.push(QueryPlan {
                            id: r.id,
                            done_offset: SimDuration::from_secs_f64(done),
                            hit_rate: hit_rates[i],
                        });
                    }
                    busy_until = now + SimDuration::from_secs_f64(batch_end);
                } else {
                    let total = batch_end + BULK_MERGE_PER_QUERY * bf;
                    busy_until = now + SimDuration::from_secs_f64(total);
                    for (i, r) in requests.iter().enumerate() {
                        queries.push(QueryPlan {
                            id: r.id,
                            done_offset: SimDuration::from_secs_f64(total),
                            hit_rate: hit_rates[i],
                        });
                    }
                }
            }
        }

        BatchPlan {
            started_at: now,
            batch: b,
            queries,
            busy_until,
            min_hit_rate: min_hit,
            gpu_busy,
        }
    }

    /// Marks the in-flight batch finished (called by the pipeline when the
    /// batch-done event fires).
    pub fn finish_batch(&mut self, now: SimTime) {
        if self.busy_until.is_some_and(|t| t <= now) {
            self.busy_until = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RagConfig, RagSystem};

    fn engine_for(kind: SystemKind, dispatcher: bool) -> HybridSearchEngine {
        let mut config = RagConfig::tiny(kind);
        config.dispatcher = dispatcher;
        let system = RagSystem::build(config);
        HybridSearchEngine::new(
            kind,
            system.cost.clone(),
            system.workload.clone(),
            &system.profile,
            system.router.clone(),
            dispatcher,
            system.shard_gpus.clone(),
            system.config.node.n_gpus,
            7,
        )
    }

    fn requests(n: usize) -> Vec<SearchRequest> {
        (0..n as u64)
            .map(|id| SearchRequest {
                id,
                arrival: SimTime::ZERO,
            })
            .collect()
    }

    fn run_one_batch(engine: &mut HybridSearchEngine, n: usize) -> BatchPlan {
        for r in requests(n) {
            engine.enqueue(r);
        }
        engine
            .try_start_batch(SimTime::ZERO)
            .expect("idle engine starts")
    }

    #[test]
    fn batch_absorbs_all_queued_requests() {
        let mut engine = engine_for(SystemKind::VectorLite, true);
        let plan = run_one_batch(&mut engine, 9);
        assert_eq!(plan.batch, 9);
        assert_eq!(plan.queries.len(), 9);
        assert_eq!(engine.queue_len(), 0);
    }

    #[test]
    fn busy_engine_does_not_start_another_batch() {
        let mut engine = engine_for(SystemKind::VectorLite, true);
        let plan = run_one_batch(&mut engine, 4);
        engine.enqueue(SearchRequest {
            id: 99,
            arrival: SimTime::ZERO,
        });
        assert!(engine.try_start_batch(SimTime::ZERO).is_none());
        engine.finish_batch(plan.busy_until);
        assert!(engine.try_start_batch(plan.busy_until).is_some());
    }

    #[test]
    fn vectorlite_beats_cpu_only_on_batch_latency() {
        let mut cpu = engine_for(SystemKind::CpuOnly, false);
        let mut vlite = engine_for(SystemKind::VectorLite, true);
        let b = 8;
        let t_cpu = run_one_batch(&mut cpu, b).busy_until;
        let t_vlite = run_one_batch(&mut vlite, b).busy_until;
        assert!(
            t_vlite < t_cpu,
            "vLiteRAG ({t_vlite}) must beat CPU-only ({t_cpu}) when clusters are cached"
        );
    }

    #[test]
    fn dynamic_dispatcher_lets_early_queries_finish_before_batch_end() {
        // Zero coverage exercises the dispatcher's CPU loop in isolation:
        // every query completes at its own prefix offset, with no shared
        // GPU completion flag to ride on. (With substantial coverage all
        // queries may legitimately finish together at the GPU flag, which
        // is covered by `no_dispatcher_bunches_completions_at_batch_end`.)
        let system = RagSystem::build(RagConfig::tiny(SystemKind::VectorLite));
        let split = IndexSplit::build(&system.profile, 0.0, 3);
        let mut engine = HybridSearchEngine::new(
            SystemKind::VectorLite,
            system.cost.clone(),
            system.workload.clone(),
            &system.profile,
            split,
            true,
            vec![0, 1, 2],
            4,
            7,
        );
        let plan = run_one_batch(&mut engine, 12);
        let last = plan.queries.iter().map(|q| q.done_offset).max().unwrap();
        let first = plan.queries.iter().map(|q| q.done_offset).min().unwrap();
        assert!(first < last, "dispatcher should spread completions");
    }

    #[test]
    fn no_dispatcher_bunches_completions_at_batch_end() {
        let mut engine = engine_for(SystemKind::VectorLite, false);
        let plan = run_one_batch(&mut engine, 12);
        let offsets: Vec<_> = plan.queries.iter().map(|q| q.done_offset).collect();
        assert!(offsets.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dynamic_dispatcher_improves_mean_completion() {
        let mut on = engine_for(SystemKind::VectorLite, true);
        let mut off = engine_for(SystemKind::VectorLite, false);
        let mean = |plan: &BatchPlan| {
            plan.queries
                .iter()
                .map(|q| q.done_offset.as_secs_f64())
                .sum::<f64>()
                / plan.batch as f64
        };
        let m_on = mean(&run_one_batch(&mut on, 16));
        let m_off = mean(&run_one_batch(&mut off, 16));
        assert!(m_on < m_off, "dispatcher mean {m_on} should beat {m_off}");
    }

    #[test]
    fn all_gpu_occupies_every_retrieval_gpu() {
        let mut engine = engine_for(SystemKind::AllGpu, false);
        let plan = run_one_batch(&mut engine, 4);
        let gpus: std::collections::HashSet<usize> =
            plan.gpu_busy.iter().map(|&(g, _)| g).collect();
        assert_eq!(gpus.len(), 4, "ALL-GPU must keep all shards busy: {gpus:?}");
    }

    #[test]
    fn cpu_only_never_touches_gpus() {
        let mut engine = engine_for(SystemKind::CpuOnly, false);
        let plan = run_one_batch(&mut engine, 6);
        assert!(plan.gpu_busy.is_empty());
        assert_eq!(engine.gpu_duty(0, plan.busy_until), 0.0);
    }

    #[test]
    fn min_hit_rate_is_batch_minimum() {
        let mut engine = engine_for(SystemKind::VectorLite, true);
        let plan = run_one_batch(&mut engine, 10);
        let min = plan.queries.iter().map(|q| q.hit_rate).fold(1.0, f64::min);
        assert_eq!(plan.min_hit_rate, min);
    }

    #[test]
    fn hedra_pays_unpruned_launch_cost() {
        // Same coverage and shard layout: the pruned (vLiteRAG) plan's GPU
        // seconds must undercut Hedra-style full-probe launches.
        let mut config = RagConfig::tiny(SystemKind::VectorLite);
        config.dispatcher = false;
        let system = RagSystem::build(config);
        let split = IndexSplit::build(&system.profile, 0.3, 3);
        let mk = |kind: SystemKind| {
            HybridSearchEngine::new(
                kind,
                system.cost.clone(),
                system.workload.clone(),
                &system.profile,
                split.clone(),
                false,
                vec![0, 1, 2],
                4,
                9,
            )
        };
        let gpu_secs = |plan: &BatchPlan| plan.gpu_busy.iter().map(|&(_, s)| s).sum::<f64>();
        let mut vlite = mk(SystemKind::VectorLite);
        let mut hedra = mk(SystemKind::HedraRag);
        let sv = gpu_secs(&run_one_batch(&mut vlite, 8));
        let sh = gpu_secs(&run_one_batch(&mut hedra, 8));
        assert!(sv < sh, "pruned {sv} should be cheaper than unpruned {sh}");
    }
}
