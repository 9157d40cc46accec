//! The per-layer ledger of a traced run. Two sources, both outside the
//! program:
//!
//! - **served**: what the public API returned while the traced repetition
//!   ran — the stage timings each reply carried and the difference of the
//!   `ServeReport`s read at the repetition's two boundaries;
//! - **layer pass**: after the repetition, this thread alone replays the
//!   workload's queries through each layer's public functions with a
//!   timer around every call.
//!
//! The pass's per-request path (probe → route → scans → merge, plus the
//! codec over a socket and the generation phases when co-scheduled) is
//! then held against the client's median latency; what the layers do not
//! explain is reported as `serve.server.residue_us`.

use std::hint::black_box;
use std::time::Instant;

use vlite_ann::{
    kernel, merge_sorted, scan_lists_store, scan_lists_store_batch, BatchQuery, ClusterStore,
    IvfIndex, Neighbor, ScalarQuantizer, TopK, VecSet,
};
use vlite_core::{partition, IndexSplit, PartitionInput, RealDeployment};
use vlite_serve::generation::{GenRequest, GenerationStage};
use vlite_serve::http::json::Json;
use vlite_serve::http::{parser, wire};
use vlite_serve::{
    hybrid_search_batch, GenerationConfig, RagServer, SearchResponse, ServeReport, StoreReport,
};
use vlite_sim::SimTime;
use vlite_workload::SyntheticCorpus;

use crate::drive::Sample;
use crate::run::{lag_s, Metric};
use crate::spec::{FAILED_SHARE, PER_LAYER};
use crate::stats::Sorted;
use crate::workload::{Loop, Scale, Workload, MAX_BATCH, TOP_K};

/// What the traced repetition returned through the public API.
pub struct Served<'a> {
    pub workload: &'a Workload,
    /// Seconds between the two reports (the repetition plus its gap).
    pub window_s: f64,
    /// The untraced repetition run just before, for the overhead ratio.
    pub baseline: &'a [&'a Sample],
    pub traced: &'a [&'a Sample],
    pub before: &'a ServeReport,
    pub after: &'a ServeReport,
}

/// One request's budget: the layers on its path, and the residue that
/// balances them against the client's median latency.
#[derive(Debug, Clone)]
pub struct Budget {
    pub client_p50_us: f64,
    /// `(layer metric or stage, self time in µs)`; the last row is the
    /// residue.
    pub rows: Vec<(&'static str, f64)>,
}

/// Collects named values and checks, at the end, that exactly the
/// declared per-layer names were produced.
struct Ledger(Vec<(&'static str, f64)>);

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.0
            .push((name, if value.is_finite() { value + 0.0 } else { 0.0 }));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn into_metrics(self) -> Vec<(&'static str, Metric)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, Metric::once(self.get(m.name))))
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times each call of `f`; returns the per-call nanoseconds.
fn per_call<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Sorted {
    Sorted::new(
        items
            .into_iter()
            .map(|item| {
                let started = Instant::now();
                f(item);
                started.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

/// For calls too short for a timer each: nanoseconds per call over the
/// whole loop.
fn amortised<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        f(item);
    }
    ratio(started.elapsed().as_nanos() as f64, items.len() as f64)
}

pub fn measure(
    served: &Served<'_>,
    server: &RagServer,
    corpus: &SyntheticCorpus,
    scale: &Scale,
    queries: &[Vec<f32>],
    kept: &[(usize, SearchResponse)],
) -> (Vec<(&'static str, Metric)>, Budget) {
    let mut ledger = Ledger(Vec::with_capacity(PER_LAYER.len()));
    served_metrics(served, &mut ledger);
    let pass = layer_pass(
        served.workload,
        server,
        corpus,
        scale,
        queries,
        kept,
        &mut ledger,
    );

    let mean_hit = ratio(
        served.traced.iter().map(|s| s.hit_rate).sum(),
        served.traced.len() as f64,
    );
    let predicted = pass
        .perf
        .hybrid_latency(ledger.get("serve.server.mean_batch"), mean_hit);
    ledger.put(
        "core.perfmodel.pred_over_meas",
        ratio(predicted * 1e6, ledger.get("serve.server.search_p50_us")),
    );

    let client_p50_us = 1e6 * p50_latency(served.traced);
    // One row per layer on the request's path: the metric, in µs.
    let row = |name: &'static str, to_us: f64| (name, to_us * ledger.get(name));
    let mut rows = vec![
        row("ann.ivf.probe_us", 1.0),
        row("core.router.route_ns", 1e-3),
        ("store.tiered.hot_scan (per query)", pass.hot_scan_us),
        ("store.tiered.cold_scan (per query)", pass.cold_scan_us),
        row("ann.topk.merge_sorted_us", 1.0),
    ];
    if matches!(served.workload.traffic, Loop::HttpClosed { .. }) {
        rows.extend([
            row("serve.http.parser.parse_head_ns", 1e-3),
            row("serve.http.json.parse_us", 1.0),
            row("serve.http.wire.decode_us", 1.0),
            row("serve.http.wire.encode_us", 1.0),
            row("serve.http.json.render_us", 1.0),
        ]);
    }
    if served.workload.rag {
        rows.extend([
            row("serve.generation.gen_queue_p50_ms", 1e3),
            row("serve.generation.prefill_p50_ms", 1e3),
            row("serve.generation.decode_p50_ms", 1e3),
        ]);
    }
    let explained: f64 = rows.iter().map(|(_, us)| us).sum();
    let residue = client_p50_us - explained;
    rows.push(("serve.server.residue_us", residue));
    ledger.put("serve.server.residue_us", residue);
    ledger.put("serve.server.residue_share", ratio(residue, client_p50_us));
    (
        ledger.into_metrics(),
        Budget {
            client_p50_us,
            rows,
        },
    )
}

fn p50_latency(rep: &[&Sample]) -> f64 {
    Sorted::new(rep.iter().filter(|s| s.ok).map(|s| s.latency_s).collect()).median()
}

/// Everything read from replies and report differences.
fn served_metrics(served: &Served<'_>, ledger: &mut Ledger) {
    let Served {
        workload,
        window_s,
        baseline,
        traced,
        before,
        after,
    } = *served;
    let of = |field: fn(&Sample) -> f64| {
        Sorted::new(traced.iter().filter(|s| s.ok).map(|s| field(s)).collect())
    };
    let delta = |field: fn(&ServeReport) -> u64| field(after).saturating_sub(field(before)) as f64;
    let completed = delta(|r| r.completed);
    let batches = delta(|r| r.batches);

    let queue = of(|s| s.queue_s);
    ledger.put("serve.queue.wait_p50_us", 1e6 * queue.median());
    ledger.put("serve.queue.wait_p99_us", 1e6 * queue.quantile(0.99));
    ledger.put("serve.queue.peak_depth", after.peak_queue_depth as f64);
    ledger.put("serve.queue.rejected", delta(|r| r.rejected));

    let in_process = !matches!(workload.traffic, Loop::HttpClosed { .. });
    let call = of(|s| (s.submitted_ns - s.submit_ns) as f64);
    ledger.put(
        "serve.server.submit_ns",
        if in_process { call.median() } else { 0.0 },
    );
    let search = of(|s| s.search_s);
    ledger.put("serve.server.search_p50_us", 1e6 * search.median());
    ledger.put("serve.server.search_p99_us", 1e6 * search.quantile(0.99));
    ledger.put("serve.server.mean_batch", ratio(completed, batches));
    ledger.put("serve.server.max_batch", after.max_batch as f64);
    ledger.put("serve.server.batches_per_s", batches / window_s);
    let latency = of(|s| s.latency_s);
    ledger.put(
        "serve.server.latency_p999_ms",
        1e3 * latency.tail(0.999).unwrap_or(0.0),
    );
    // Over a socket the server stamps its own end-to-end time into the
    // reply; what the client saw beyond it is transport.
    ledger.put(
        "serve.http.server.transport_us",
        if in_process {
            0.0
        } else {
            1e6 * (latency.median() - of(|s| s.e2e_s).median())
        },
    );

    let store = |field: fn(&StoreReport) -> u64| {
        let read = |r: &ServeReport| r.store.as_ref().map_or(0, field);
        read(after).saturating_sub(read(before)) as f64
    };
    let hot_probes = store(|s| s.hot_probes);
    let cold_probes = store(|s| s.cold_probes);
    ledger.put(
        "store.tiered.hot_probe_share",
        ratio(hot_probes, hot_probes + cold_probes),
    );
    ledger.put(
        "store.tiered.hot_bytes_per_req",
        ratio(store(|s| s.hot_bytes_scanned), completed),
    );
    ledger.put(
        "store.tiered.cold_bytes_per_req",
        ratio(store(|s| s.cold_bytes_scanned), completed),
    );
    ledger.put(
        "store.tiered.blocked_scans_per_batch",
        ratio(store(|s| s.blocked_scans), batches),
    );
    ledger.put(
        "store.tiered.fast_residency",
        after.store.as_ref().map_or(0.0, |s| s.fast_residency),
    );
    ledger.put("store.tiered.snapshot_waits", store(|s| s.snapshot_waits));
    ledger.put("store.tiered.bytes_promoted", store(|s| s.bytes_promoted));
    ledger.put("store.tiered.bytes_demoted", store(|s| s.bytes_demoted));

    for (name, stall) in [
        ("serve.trace.cpu_us_per_req.acceptor", None),
        ("serve.trace.cpu_us_per_req.batcher", None),
        (
            "serve.trace.cpu_us_per_req.shard_scan",
            Some("serve.trace.stall_share.shard_scan"),
        ),
        (
            "serve.trace.cpu_us_per_req.cpu_scan",
            Some("serve.trace.stall_share.cpu_scan"),
        ),
        ("serve.trace.cpu_us_per_req.dispatch", None),
        ("serve.trace.cpu_us_per_req.generation", None),
        ("serve.trace.cpu_us_per_req.migrate", None),
        ("serve.trace.cpu_us_per_req.control", None),
    ] {
        let stage = name.rsplit('.').next().unwrap_or(name);
        let read = |r: &ServeReport, field: fn(&vlite_serve::StageProfile) -> f64| {
            r.profile
                .iter()
                .find(|p| p.stage == stage)
                .map_or(0.0, field)
        };
        let diff = |field| read(after, field) - read(before, field);
        ledger.put(name, 1e6 * ratio(diff(|p| p.cpu_s), completed));
        if let Some(stall) = stall {
            ledger.put(stall, ratio(diff(|p| p.stall_s), diff(|p| p.wall_s)));
        }
    }

    let gen_queue = of(|s| s.gen_queue_s);
    ledger.put(
        "serve.generation.gen_queue_p50_ms",
        1e3 * gen_queue.median(),
    );
    ledger.put(
        "serve.generation.gen_queue_p99_ms",
        1e3 * gen_queue.quantile(0.99),
    );
    ledger.put(
        "serve.generation.prefill_p50_ms",
        1e3 * of(|s| s.prefill_s).median(),
    );
    ledger.put(
        "serve.generation.decode_p50_ms",
        1e3 * of(|s| s.decode_s).median(),
    );
    ledger.put("serve.generation.gen_sheds", delta(|r| r.gen_sheds));

    let repartitions: Vec<_> = after
        .repartitions
        .iter()
        .filter(|e| e.generation > before.generation)
        .collect();
    ledger.put("serve.control.repartitions", repartitions.len() as f64);
    ledger.put(
        "serve.control.repartition_ms_p50",
        Sorted::new(
            repartitions
                .iter()
                .map(|e| 1e3 * e.duration.as_secs_f64())
                .collect(),
        )
        .median(),
    );
    ledger.put(
        "serve.control.hot_overlap_mean",
        ratio(
            repartitions.iter().map(|e| e.hot_overlap).sum(),
            repartitions.len() as f64,
        ),
    );
    ledger.put(
        "serve.control.queue_depth_at_swap_max",
        repartitions
            .iter()
            .map(|e| e.queue_depth_at_swap)
            .max()
            .unwrap_or(0) as f64,
    );
    let store_generation = |r: &ServeReport| r.store.as_ref().map_or(0, |s| s.store_generation);
    let migrations: Vec<_> = after
        .store
        .iter()
        .flat_map(|s| s.migrations.iter())
        .filter(|e| e.store_generation > store_generation(before))
        .collect();
    ledger.put("serve.migrate.migrations", migrations.len() as f64);
    ledger.put(
        "serve.migrate.duration_ms_p50",
        Sorted::new(
            migrations
                .iter()
                .map(|e| 1e3 * e.duration.as_secs_f64())
                .collect(),
        )
        .median(),
    );
    ledger.put(
        "serve.migrate.bytes_moved",
        migrations
            .iter()
            .map(|e| (e.bytes_promoted + e.bytes_demoted) as f64)
            .sum(),
    );

    let open = matches!(workload.traffic, Loop::Open { .. });
    let lag = Sorted::new(traced.iter().map(|s| lag_s(s)).collect());
    ledger.put(
        "bench.gen_lag_p99_ms",
        if open { 1e3 * lag.quantile(0.99) } else { 0.0 },
    );
    ledger.put(
        "bench.gen_lag_max_ms",
        if open { 1e3 * lag.max() } else { 0.0 },
    );
    ledger.put(
        "bench.trace_overhead_ratio",
        ratio(p50_latency(traced), p50_latency(baseline)),
    );
    let ttft = of(|s| s.ttft_s);
    ledger.put("latency_p50_ms", 1e3 * latency.median());
    ledger.put("latency_p99_ms", 1e3 * latency.quantile(0.99));
    ledger.put("ttft_p50_ms", 1e3 * ttft.median());
    ledger.put("ttft_p99_ms", 1e3 * ttft.quantile(0.99));
    let failed =
        traced.iter().filter(|s| !s.ok).count() + baseline.iter().filter(|s| !s.ok).count();
    ledger.put(
        FAILED_SHARE,
        ratio(failed as f64, (traced.len() + baseline.len()) as f64),
    );
}

/// What the layer pass hands back for the budget and the model check.
struct Pass {
    perf: vlite_core::PerfModel,
    /// Median per-query scan time of a request's hot and cold probes.
    hot_scan_us: f64,
    cold_scan_us: f64,
}

fn layer_pass(
    workload: &Workload,
    server: &RagServer,
    corpus: &SyntheticCorpus,
    scale: &Scale,
    queries: &[Vec<f32>],
    kept: &[(usize, SearchResponse)],
    ledger: &mut Ledger,
) -> Pass {
    let config = workload.serve_config(scale);
    let queries = &queries[..scale.layer_queries.min(queries.len())];
    let k = TOP_K;

    kernel_pass(corpus, ledger);

    // Offline stage.
    let started = Instant::now();
    black_box(IvfIndex::train(&corpus.vectors, &config.real.ivf).expect("index trains"));
    ledger.put("ann.ivf.train_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let mut deployment =
        RealDeployment::build(corpus, config.real.clone()).expect("deployment builds");
    ledger.put("core.real.build_s", started.elapsed().as_secs_f64());

    let input = PartitionInput::new(
        config.real.slo_search,
        config.real.mu_llm0,
        config.real.kv_bytes_full,
    );
    let d = &deployment;
    ledger.put(
        "core.partition.algorithm_us",
        per_call(0..20, |_| {
            black_box(partition(&input, &d.perf, &d.estimator, &d.profile));
        })
        .median()
            / 1e3,
    );
    ledger.put("core.partition.decided_coverage", d.decision.coverage);
    ledger.put(
        "core.splitter.build_us",
        per_call(0..20, |_| {
            black_box(IndexSplit::build(
                &d.profile,
                workload.coverage,
                config.real.n_shards,
            ));
        })
        .median()
            / 1e3,
    );

    // Coarse quantisation and routing, per query.
    let mut probes: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
    let probe = per_call(queries, |q| {
        probes.push(
            d.index
                .probe(q, config.real.nprobe)
                .iter()
                .map(|p| p.list)
                .collect(),
        );
    });
    ledger.put("ann.ivf.probe_us", probe.median() / 1e3);
    ledger.put(
        "core.router.route_ns",
        amortised(&probes, |p| {
            black_box(d.router.route(p));
        }),
    );

    dispatch_pass(d, queries, &probes, ledger);

    // Storage: build a segment (timed), then scan through the live
    // server's own store.
    let segment = std::env::temp_dir().join(format!("layer-pass-{}.seg", std::process::id()));
    let started = Instant::now();
    let mut built = deployment
        .build_tiered_store(&segment)
        .expect("tiered store builds");
    ledger.put("store.segment.create_s", started.elapsed().as_secs_f64());
    built.set_ephemeral(true);
    drop(built);

    let (hot_scan_us, cold_scan_us) = match server.store() {
        Some(store) => {
            let snapshot_ns = per_call(0..1000, |_| {
                black_box(store.snapshot());
            });
            ledger.put("store.tiered.snapshot_ns", snapshot_ns.median());
            store_pass(
                &store.snapshot(),
                &store.hot_flags(),
                queries,
                &probes,
                ledger,
            )
        }
        None => (0.0, 0.0),
    };
    topk_pass(corpus, ledger);
    http_pass(queries, kept, ledger);

    // Generation bookkeeping: one request through submit and every engine
    // iteration to its last token, on a scripted timeline.
    let mut stage = GenerationStage::new(&GenerationConfig::tiny());
    let mut now = SimTime::ZERO;
    let step = per_call(0..queries.len() as u64, |id| {
        let request = GenRequest {
            id,
            n_docs: k,
            admitted_at: now,
        };
        stage.submit(request, now);
        while let Some(step) = stage.advance(now) {
            now = step.busy_until;
        }
    });
    ledger.put("serve.generation.stage_step_us", step.median() / 1e3);

    // Telemetry: what a scrape and a report cost on this server now.
    let mut scrape_bytes = 0;
    let scrape = per_call(0..20, |_| {
        scrape_bytes = black_box(server.prometheus_text()).len()
    });
    ledger.put("serve.obs.scrape_us", scrape.median() / 1e3);
    ledger.put("serve.obs.scrape_bytes", scrape_bytes as f64);
    ledger.put(
        "serve.obs.report_us",
        per_call(0..5, |_| {
            black_box(server.report());
        })
        .median()
            / 1e3,
    );

    Pass {
        perf: deployment.perf,
        hot_scan_us,
        cold_scan_us,
    }
}

/// Distance kernels over the whole corpus, one streaming pass each, next
/// to a measured copy roofline. Bytes are computed from sizes.
fn kernel_pass(corpus: &SyntheticCorpus, ledger: &mut Ledger) {
    const PASSES: usize = 5;
    let kern = kernel::kernels();
    let dim = corpus.vectors.dim();
    let n = corpus.vectors.len() as f64;
    let flat = corpus.vectors.as_flat();
    let query = corpus.vectors.get(0).to_vec();

    let stream = |score: fn(&[f32], &[f32]) -> f32| {
        per_call(0..PASSES, |_| {
            let mut acc = 0.0f32;
            for v in flat.chunks_exact(dim) {
                acc += score(&query, v);
            }
            black_box(acc);
        })
        .median()
    };
    let l2_ns = stream(kern.l2_sq);
    ledger.put("ann.kernel.l2_ns_per_vec", l2_ns / n);
    ledger.put("ann.kernel.l2_gbps", ratio(n * dim as f64 * 4.0, l2_ns));
    ledger.put("ann.kernel.dot_ns_per_vec", stream(kern.dot) / n);

    let sq = ScalarQuantizer::train(&corpus.vectors).expect("quantizer trains");
    let codes: Vec<u8> = corpus.vectors.iter().flat_map(|v| sq.encode(v)).collect();
    let table: Vec<f32> = (0..dim * 256).map(|i| (i % 251) as f32).collect();
    let sq8_ns = per_call(0..PASSES, |_| {
        let mut acc = 0.0f32;
        for code in codes.chunks_exact(dim) {
            acc += (kern.sq8_lut_sum)(&table, code);
        }
        black_box(acc);
    })
    .median();
    ledger.put("ann.kernel.sq8_lut_ns_per_vec", sq8_ns / n);
    ledger.put("ann.kernel.sq8_gbps", ratio(n * dim as f64, sq8_ns));

    // Copy roofline: a buffer well past the last-level cache, read once
    // and written once per pass.
    let src = vec![1u8; 32 << 20];
    let mut dst = vec![0u8; src.len()];
    dst.copy_from_slice(&src); // first touch
    let copy_ns = per_call(0..PASSES, |_| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    })
    .median();
    ledger.put("bench.stream_gbps", ratio(2.0 * src.len() as f64, copy_ns));
}

/// The one-shot dispatcher on a built deployment: a batch's wall time
/// against its slowest worker's scan work replayed alone. The difference
/// is what the hand-offs (thread spawn, channels, merge) cost.
fn dispatch_pass(
    d: &RealDeployment,
    queries: &[Vec<f32>],
    probes: &[Vec<u32>],
    ledger: &mut Ledger,
) {
    let dim = d.index.dim();
    let set_of = |qs: &[Vec<f32>]| {
        let mut set = VecSet::with_capacity(dim, qs.len());
        qs.iter().for_each(|q| set.push(q));
        set
    };
    let batch1 = per_call(queries.iter().take(MAX_BATCH), |q| {
        black_box(hybrid_search_batch(d, &set_of(std::slice::from_ref(q))));
    });
    ledger.put("serve.dispatch.batch1_us", batch1.median() / 1e3);

    let mut batch_ns = Vec::new();
    let mut handoff_ns = Vec::new();
    for (qs, ps) in queries.chunks(MAX_BATCH).zip(probes.chunks(MAX_BATCH)) {
        let set = set_of(qs);
        let started = Instant::now();
        black_box(hybrid_search_batch(d, &set));
        let wall = started.elapsed().as_nanos() as f64;
        let routed: Vec<_> = ps.iter().map(|p| d.router.route(p)).collect();
        let n_workers = routed.first().map_or(0, |r| r.shard_probes_global.len()) + 1;
        let slowest = (0..n_workers)
            .map(|w| {
                let started = Instant::now();
                for (q, r) in qs.iter().zip(&routed) {
                    let lists = r.shard_probes_global.get(w).unwrap_or(&r.cpu_probes);
                    if !lists.is_empty() {
                        black_box(d.index.scan_lists(q, lists, TOP_K));
                    }
                }
                started.elapsed().as_nanos() as f64
            })
            .fold(0.0, f64::max);
        batch_ns.push(wall);
        handoff_ns.push(wall - slowest);
    }
    ledger.put(
        "serve.dispatch.batch64_us",
        Sorted::new(batch_ns).median() / 1e3,
    );
    ledger.put(
        "serve.dispatch.handoff64_us",
        Sorted::new(handoff_ns).median() / 1e3,
    );
}

/// Scans through a snapshot of the live server's store, query at a time
/// and in batches of 64, hot and cold probes apart. Returns the median
/// per-query hot and cold scan times in µs.
fn store_pass(
    cluster_store: &dyn ClusterStore,
    hot: &[bool],
    queries: &[Vec<f32>],
    probes: &[Vec<u32>],
    ledger: &mut Ledger,
) -> (f64, f64) {
    let split = |want_hot: bool| -> Vec<Vec<u32>> {
        probes
            .iter()
            .map(|p| {
                p.iter()
                    .copied()
                    .filter(|&c| hot[c as usize] == want_hot)
                    .collect()
            })
            .collect()
    };
    let mut per_query_us = [0.0f64; 2];
    for (tier, (single, batched)) in [
        (
            "store.tiered.hot_scan_ns_per_vec",
            "store.tiered.hot_batch64_ns_per_vec",
        ),
        (
            "store.tiered.cold_scan_ns_per_vec",
            "store.tiered.cold_batch64_ns_per_vec",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let lists = split(tier == 0);
        let vectors: f64 = lists
            .iter()
            .flatten()
            .map(|&c| cluster_store.cluster_len(c) as f64)
            .sum();
        let scans = per_call(queries.iter().zip(&lists), |(q, lists)| {
            if !lists.is_empty() {
                black_box(scan_lists_store(cluster_store, q, lists, TOP_K));
            }
        });
        ledger.put(single, ratio(scans.sum(), vectors));
        per_query_us[tier] = if vectors > 0.0 {
            scans.median() / 1e3
        } else {
            0.0
        };

        let started = Instant::now();
        for (qs, ls) in queries.chunks(MAX_BATCH).zip(lists.chunks(MAX_BATCH)) {
            let batch: Vec<BatchQuery<'_>> = qs
                .iter()
                .zip(ls)
                .map(|(query, lists)| BatchQuery { query, lists })
                .collect();
            black_box(scan_lists_store_batch(cluster_store, &batch, TOP_K));
        }
        ledger.put(batched, ratio(started.elapsed().as_nanos() as f64, vectors));
    }
    (per_query_us[0], per_query_us[1])
}

/// Top-k heap pushes over real distances, and the dispatcher's merge of
/// three sorted partial lists.
fn topk_pass(corpus: &SyntheticCorpus, ledger: &mut Ledger) {
    let distances = corpus.vectors.as_flat();
    let mut top = TopK::new(TOP_K);
    let mut id = 0u64;
    let push_ns = amortised(distances, |&d| {
        top.push(id, d);
        id += 1;
    });
    black_box(top);
    ledger.put("ann.topk.push_ns", push_ns);

    let lists: Vec<Vec<Neighbor>> = (0..3)
        .map(|l| {
            (0..TOP_K)
                .map(|i| Neighbor::new((l * TOP_K + i) as u64, (i * 3 + l) as f32))
                .collect()
        })
        .collect();
    let merge = per_call(0..2000, |_| {
        black_box(merge_sorted(black_box(&lists), TOP_K));
    });
    ledger.put("ann.topk.merge_sorted_us", merge.median() / 1e3);
}

/// The socket path's codec over this workload's real request bodies and
/// kept replies: head parse, body parse, request decode, response encode,
/// response render — the server's side of one exchange.
fn http_pass(queries: &[Vec<f32>], kept: &[(usize, SearchResponse)], ledger: &mut Ledger) {
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| wire::search_request_to_json(q).render())
        .collect();
    let heads: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            format!(
                "POST /v1/search HTTP/1.1\r\nHost: vlite-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let head_ns = amortised(&heads, |head| {
        black_box(parser::parse_head(head).expect("head parses"));
    });
    let head_bytes = ratio(
        heads.iter().map(Vec::len).sum::<usize>() as f64,
        heads.len() as f64,
    );
    ledger.put("serve.http.parser.parse_head_ns", head_ns);
    ledger.put(
        "serve.http.parser.mb_per_s",
        ratio(head_bytes * 1e3, head_ns),
    );

    let mut trees = Vec::with_capacity(bodies.len());
    let parse = per_call(&bodies, |body| {
        trees.push(Json::parse(body).expect("request body parses"));
    });
    let body_bytes: usize = bodies.iter().map(String::len).sum();
    ledger.put("serve.http.json.parse_us", parse.median() / 1e3);
    ledger.put(
        "serve.http.json.mb_per_s",
        ratio(body_bytes as f64 * 1e3, parse.sum()),
    );
    let decode = per_call(&trees, |tree| {
        black_box(wire::search_request_from_json(tree).expect("request decodes"));
    });
    ledger.put("serve.http.wire.decode_us", decode.median() / 1e3);

    let replies = kept.iter().take(queries.len()).map(|(_, reply)| reply);
    let mut encoded = Vec::with_capacity(queries.len());
    let encode = per_call(replies, |reply| {
        encoded.push(wire::search_response_to_json(reply));
    });
    ledger.put("serve.http.wire.encode_us", encode.median() / 1e3);
    let render = per_call(&encoded, |tree| {
        black_box(tree.render());
    });
    ledger.put("serve.http.json.render_us", render.median() / 1e3);
}
