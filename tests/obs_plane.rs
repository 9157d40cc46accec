//! Integration: the telemetry plane — the one store behind both
//! `ServeReport` and the Prometheus exposition.
//!
//! Every request that ends is recorded once into the plane's lock-free
//! counters and histograms; the report and the scrape are two views of
//! that store. These tests pin the contract from the outside:
//!
//! 1. Conservation from one source: after a deadline flood (retrieval
//!    only) and a co-scheduled run whose KV pressure rung 4 sheds (every
//!    deadline at the TTFT SLO), every admitted request is accounted for
//!    exactly once, the per-tenant slices sum to the totals, every stage
//!    histogram saw one sample per completion, and the scrape reads the
//!    same totals as the report.
//! 2. The report accuracy contract: `count`/`mean`/`min`/`max` are exact,
//!    percentiles err high by at most the histogram's documented bound.
//! 3. Every reply's span tree (looked up by `SearchResponse.trace`)
//!    reproduces the delivered timings — the TTFT identity — and a zero
//!    slow-threshold keeps every trace.
//! 4. The two switches gate different captures: `obs.enabled` the journal,
//!    `trace.enabled` the per-request trees; the report and the scrape keep
//!    counting under either.
//! 5. Hot-path recording is lock-free: writers hammering one plane from
//!    many threads lose no samples even while a scraper renders the
//!    exposition concurrently (no global lock to convoy on).

use std::sync::Arc;
use std::time::Duration;

use vectorlite_rag::core::RealConfig;
use vectorlite_rag::metrics::obs::StreamingHistogram;
use vectorlite_rag::metrics::spans::tree_violations;
use vectorlite_rag::metrics::{LatencyRecorder, Summary};
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::{
    AdmissionError, GenerationConfig, ObsConfig, ObsPlane, RagServer, RequestOutcome,
    RequestTimings, ServeConfig, ServeReport, TenantId, TenantReport, TenantSpec, VirtualClock,
};
use vectorlite_rag::sim::{SimDuration, SimTime};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

mod common;
mod meter;
use common::{await_batched, GatedClock};
use meter::{seed_meter, TickingClock};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 4_000,
        dim: 12,
        n_centers: 16,
        zipf_exponent: 1.1,
        noise: 0.25,
        seed: 23,
    })
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(32),
        nprobe: 8,
        top_k: 8,
        n_profile_queries: 256,
        slo_search: 0.050,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0xab5,
        coverage_override: Some(0.3),
    };
    config
}

/// Extracts one sample value from a Prometheus text exposition. `name`
/// includes labels when the family has them, e.g.
/// `vlite_stage_seconds_count{stage="search"}`.
fn prom_value(text: &str, name: &str) -> f64 {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if key == name {
                return value
                    .parse()
                    .unwrap_or_else(|_| panic!("metric {name} has non-numeric value {value:?}"));
            }
        }
    }
    panic!("metric {name} not found in exposition");
}

fn two_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 512,
            slo_search: 0.050,
        };
        2
    ]
}

/// The conservation invariants, checked on one report and a scrape taken
/// at the same quiescent moment (every ticket resolved). `budgeted` is the
/// number of replies the caller received for requests that carried a
/// deadline.
fn assert_conserved(report: &ServeReport, scrape: &str, budgeted: u64) {
    let completed = report.completed;
    assert_eq!(
        report.admitted,
        completed + report.deadline_sheds[1],
        "every admitted request either replied or expired in the queue"
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.completed).sum::<u64>(),
        completed
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.admitted).sum::<u64>(),
        report.admitted
    );
    assert_eq!(
        report.tenants.iter().map(|t| t.gen_sheds).sum::<u64>(),
        report.gen_sheds
    );
    // Generation stages sample once per request that actually generated.
    let generated = report.slo_ttft.map_or(0, |_| completed - report.gen_sheds);
    for (stage, summary) in report.stages() {
        let expected = match stage {
            "queue" | "search" | "e2e" => completed,
            _ => generated,
        };
        assert_eq!(summary.count as u64, expected, "report stage {stage}");
        assert_eq!(
            prom_value(
                scrape,
                &format!("vlite_stage_seconds_count{{stage=\"{stage}\"}}")
            ) as u64,
            expected,
            "scraped stage {stage}"
        );
    }
    let tenant_samples = |pick: fn(&TenantReport) -> &Summary| {
        report
            .tenants
            .iter()
            .map(|t| pick(t).count as u64)
            .sum::<u64>()
    };
    assert_eq!(tenant_samples(|t| &t.queue), completed);
    assert_eq!(tenant_samples(|t| &t.search), completed);
    assert_eq!(tenant_samples(|t| &t.e2e), completed);
    assert_eq!(tenant_samples(|t| &t.ttft), generated);
    assert_eq!(report.deadline_met + report.deadline_missed, budgeted);
    assert_eq!(report.burn_search.count as u64, budgeted);
    assert_eq!(
        report.burn_queue.count as u64,
        budgeted + report.deadline_sheds[1],
        "queue-expired requests burned queue budget too"
    );

    for (family, value) in [
        ("vlite_admitted_total", report.admitted),
        ("vlite_rejected_total", report.rejected),
        ("vlite_completed_total", completed),
        ("vlite_gen_sheds_total", report.gen_sheds),
        ("vlite_cold_skips_total", report.cold_skips),
        (
            "vlite_deadline_sheds_total{stage=\"admission\"}",
            report.deadline_sheds[0],
        ),
        (
            "vlite_deadline_sheds_total{stage=\"queue\"}",
            report.deadline_sheds[1],
        ),
        (
            "vlite_deadline_sheds_total{stage=\"generation\"}",
            report.deadline_sheds[2],
        ),
        (
            "vlite_budget_burn_count{stage=\"search\"}",
            report.burn_search.count as u64,
        ),
    ] {
        assert_eq!(prom_value(scrape, family) as u64, value, "{family}");
    }
}

#[test]
fn retrieval_only_deadline_flood_conserves_every_request() {
    let corpus = corpus();
    let mut config = config();
    config.tenants = two_tenants();
    config.deadline.enforce = true;
    let clock = Arc::new(TickingClock::default());
    let server =
        RagServer::start_with_clock(&corpus, config, clock.clone()).expect("server starts");
    // One measured batch arms rung 3 (and rung 1's drain rate).
    let queries = corpus.queries(40, 17);
    seed_meter(&server, &clock, queries.get(0));

    // Four budget classes per wave: 1 ns (its batch runs hot-only, still
    // answered, or shed at admission behind a queued job), already expired
    // (shed in the queue, or at admission behind a queued job), generous,
    // and unbudgeted. Each wave opens on empty lanes, so its first 1 ns
    // and expired budgets are admitted. The clock advances only between
    // waves, so which rung fires never depends on timing — and the
    // invariants hold whichever rung it was.
    let budgets = [
        Some(Duration::from_nanos(1)),
        Some(Duration::ZERO),
        Some(Duration::from_secs(10)),
        None,
    ];
    // The seeding query was one unbudgeted reply.
    let (mut admission_sheds, mut replies, mut budgeted_replies) = (0u64, 1u64, 0u64);
    for _wave in 0..3 {
        let mut tickets = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let budget = budgets[i % budgets.len()];
            match server.submit_with_deadline(TenantId((i % 2) as u16), query.to_vec(), budget) {
                Ok(ticket) => tickets.push((ticket, budget.is_some())),
                Err(AdmissionError::DeadlineUnmeetable { .. }) => admission_sheds += 1,
                Err(other) => panic!("unexpected refusal: {other}"),
            }
        }
        for (ticket, budgeted) in tickets {
            if ticket.wait().is_some() {
                replies += 1;
                budgeted_replies += u64::from(budgeted);
            }
        }
        clock.inner.advance(SimDuration::from_millis(2.0));
    }

    let scrape = server.prometheus_text();
    let report = server.report();
    assert_eq!(report.completed, replies);
    assert_eq!(report.deadline_sheds[0], admission_sheds);
    assert!(report.deadline_sheds[1] > 0, "expired budgets must shed");
    assert!(
        report.cold_skips > 0,
        "1 ns budgets must skip the cold tier"
    );
    assert_conserved(&report, &scrape, budgeted_replies);

    // Shutdown changes nothing: the live report was already complete.
    let last = server.shutdown();
    assert_eq!(last.admitted, last.completed + last.deadline_sheds[1]);
    assert_eq!(last.completed, replies);
}

#[test]
fn co_scheduled_run_with_kv_sheds_conserves_every_request() {
    let corpus = corpus();
    let mut config = config();
    config.tenants = two_tenants();
    let mut generation = GenerationConfig::tiny();
    generation.output_tokens = 32;
    // An idle prefill fits the TTFT bar comfortably, a backlog of them
    // does not — so the flood both serves and sheds.
    let base_prefill = generation
        .cost
        .prefill_time(generation.prompt_tokens(config.real.top_k), 1.0);
    generation.slo_ttft = 4.0 * base_prefill.as_secs_f64();
    // KV-aware admission is rung 4 with every request's deadline at its
    // TTFT SLO; every reply is judged against that deadline.
    config.deadline.default_deadline = Some(generation.slo_ttft);
    config.deadline.enforce = true;
    config.generation = Some(generation);
    let clock = Arc::new(GatedClock::default());
    let server =
        RagServer::start_with_clock(&corpus, config, clock.clone()).expect("server starts");
    let gate = clock.close();

    let n = 240;
    let tickets: Vec<_> = corpus
        .queries(n, 29)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            server
                .submit_for(TenantId((i % 2) as u16), q.to_vec())
                .expect("admitted")
        })
        .collect();
    await_batched(&server, n as u64);
    drop(gate);
    let mut shed_replies = 0u64;
    for ticket in tickets {
        let response = ticket.wait().expect("every request gets a reply");
        shed_replies += u64::from(response.timings.generation.is_none());
    }

    let scrape = server.prometheus_text();
    let report = server.report();
    assert_eq!(report.completed, n as u64);
    assert_eq!(report.gen_sheds, shed_replies);
    assert_eq!(report.gen_sheds, report.deadline_sheds[2]);
    assert!(report.gen_sheds > 0, "the flood must shed");
    assert!(report.gen_sheds < n as u64, "the flood must also serve");
    assert_eq!(report.burn_gen.count as u64, n as u64 - report.gen_sheds);
    assert_conserved(&report, &scrape, n as u64);

    let obs = server.obs_handle();
    let last = server.shutdown();
    assert_eq!(last.admitted, last.completed);
    assert_eq!(obs.batches.get(), last.batches);
    assert_eq!(
        obs.batched_requests.get(),
        (last.mean_batch * last.batches as f64).round() as u64,
        "mean batch size is batched_requests / batches"
    );
}

/// `summary` (read from the plane) against the exact digest of the same
/// samples: exact count/min/max, mean within a nanosecond, percentiles in
/// `[exact, exact * (1 + bound)]` (plus the histogram's 1 ns floor).
fn assert_within_contract(stage: &str, summary: &Summary, samples: &[f64]) {
    let mut exact: LatencyRecorder = samples.iter().copied().collect();
    let exact = exact.summary();
    assert_eq!(summary.count, exact.count, "{stage} count");
    assert_eq!(summary.min, exact.min, "{stage} min");
    assert_eq!(summary.max, exact.max, "{stage} max");
    assert!(
        (summary.mean - exact.mean).abs() <= 1e-9,
        "{stage} mean {} vs exact {}",
        summary.mean,
        exact.mean
    );
    let bound = StreamingHistogram::relative_error_bound();
    for (q, got, want) in [
        ("p50", summary.p50, exact.p50),
        ("p90", summary.p90, exact.p90),
        ("p95", summary.p95, exact.p95),
        ("p99", summary.p99, exact.p99),
    ] {
        assert!(
            got >= want && got <= want * (1.0 + bound) + 1e-9,
            "{stage} {q}: reported {got}, exact {want}, bound {bound:.4}"
        );
    }
}

#[test]
fn report_summaries_honour_the_accuracy_contract() {
    let corpus = corpus();
    let mut config = config();
    config.generation = Some(GenerationConfig::tiny());
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config, clock.clone()).expect("server starts");

    // Script the timeline: each request ticks the clock by its own step
    // while it is in flight, so queue/search/TTFT take a spread of distinct
    // values. Wherever a tick lands, the delivered timings are the exact
    // samples — the oracle the report is held to.
    let (mut search, mut ttft, mut e2e) = (Vec::new(), Vec::new(), Vec::new());
    for (i, query) in corpus.queries(48, 41).iter().enumerate() {
        let step = SimDuration::from_micros(37 * (i as u64 + 1));
        let mut ticket = server.submit(query.to_vec()).expect("admitted");
        let response = loop {
            clock.advance(step);
            match ticket.wait_timeout(Duration::from_micros(20)) {
                Ok(response) => break response.expect("server alive"),
                Err(pending) => ticket = pending,
            }
        };
        search.push(response.timings.search);
        e2e.push(response.timings.e2e);
        ttft.push(response.timings.generation.expect("co-scheduled").ttft);
    }

    let report = server.shutdown();
    assert_within_contract("search", &report.search, &search);
    assert_within_contract("ttft", &report.ttft, &ttft);
    assert_within_contract("e2e", &report.e2e, &e2e);
    assert_within_contract("tenant search", &report.tenants[0].search, &search);
    assert_within_contract("tenant ttft", &report.tenants[0].ttft, &ttft);
}

#[test]
fn co_scheduled_run_records_generation_stages_and_traces() {
    let corpus = corpus();
    let mut config = config();
    config.generation = Some(GenerationConfig::tiny());
    // Keep every request's trace: no search meets a 1 ns tenant SLO.
    config.tenants = vec![TenantSpec {
        weight: 1,
        queue_capacity: config.queue_capacity,
        slo_search: 1e-9,
    }];
    let n = 32;
    let server = RagServer::start(&corpus, config).expect("server starts");
    let queries = corpus.queries(n, 29);
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.to_vec()).expect("admitted"))
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|ticket| ticket.wait().expect("server alive"))
        .collect();

    let obs = server.obs_handle();
    let traces = server.trace_handle();
    let report = server.shutdown();
    assert_eq!(report.completed, n as u64);
    assert_eq!(obs.completed.get(), report.completed);
    assert_eq!(obs.gen_sheds.get(), report.gen_sheds);

    // Generation stages record once per delivered (non-shed) request.
    let delivered = report.completed - report.gen_sheds;
    for stage in ["ttft", "gen_queue", "prefill", "decode"] {
        assert_eq!(
            obs.stage(stage).expect("known stage").count(),
            delivered,
            "stage {stage}"
        );
    }

    // Every request is listed, and kept (each missed its search SLO).
    let listing = traces.traces_json();
    for ring in ["recent", "slow"] {
        let entries = listing.get(ring).and_then(Json::as_array).expect(ring);
        assert_eq!(entries.len(), n, "{ring}");
    }
    // Each reply's tree reproduces the TTFT identity.
    for response in &responses {
        let generation = response.timings.generation.expect("co-scheduled reply");
        let spans = traces
            .trace_spans(response.trace.0)
            .expect("a kept trace resolves by the reply's trace id");
        assert!(tree_violations(&spans).is_empty(), "{spans:?}");
        let span = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("request {} missing span {name}", response.id))
        };
        let root = span("request");
        assert_eq!(root.request, Some((response.id, response.tenant.0)));
        // Each stage starts where the previous ended.
        assert_eq!(span("queue").start_s, root.start_s);
        assert_eq!(span("queue").end_s, span("search").start_s);
        assert_eq!(span("search").end_s, span("gen_queue").start_s);
        assert_eq!(span("gen_queue").end_s, span("gen_prefill").start_s);
        assert_eq!(span("gen_prefill").end_s, span("gen_decode").start_s);
        // The first token is gen_prefill's end:
        // ttft = queue + search + gen_queue + prefill.
        assert!((span("gen_prefill").end_s - root.start_s - generation.ttft).abs() < 1e-9);
        assert!(
            span("gen_decode").end_s <= root.end_s + 1e-9,
            "decode must end by e2e"
        );
    }
}

#[test]
fn disabled_plane_captures_nothing_while_report_and_scrape_keep_counting() {
    let corpus = corpus();
    // (obs.enabled, trace.enabled): each switch gates its own capture —
    // the journal and the per-request trees — and neither the aggregates.
    for (obs_on, trace_on) in [(false, true), (true, false)] {
        let mut config = config();
        config.obs.enabled = obs_on;
        config.trace.enabled = trace_on;
        // Every request breaches, so an enabled journal fills up.
        config.real.slo_search = 1e-12;
        let server = RagServer::start(&corpus, config).expect("server starts");
        let queries = corpus.queries(16, 31);
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| server.submit(q.to_vec()).expect("admitted"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("server alive");
        }

        // Both views of the aggregates still see every request.
        let text = server.prometheus_text();
        assert_eq!(prom_value(&text, "vlite_admitted_total"), 16.0);
        assert_eq!(prom_value(&text, "vlite_completed_total"), 16.0);
        assert_eq!(prom_value(&text, "vlite_search_slo_breaches_total"), 16.0);

        let obs = server.obs_handle();
        let traces = server.trace_handle();
        let report = server.shutdown();
        assert_eq!(obs.enabled(), obs_on);
        assert_eq!(obs.journal_snapshot().is_empty(), !obs_on);
        let listing = traces.traces_json();
        let listed = |ring: &str| {
            listing
                .get(ring)
                .and_then(Json::as_array)
                .expect("ring")
                .len()
        };
        assert_eq!(listed("recent"), if trace_on { 16 } else { 0 });
        assert_eq!(report.profile.is_empty(), !trace_on);
        assert_eq!(report.completed, 16);
        assert_eq!(report.search.count, 16);
        assert_eq!(report.slo_attainment, 0.0);
    }
}

// The lock-freedom pin: concurrent writers plus a concurrent scraper, no
// global lock to convoy on, and the final totals are exact. A mutex-guarded
// plane would still pass the counting half, but the scraper here renders
// the full exposition in a tight loop the whole time — with the writers'
// hot path taking any shared lock this test becomes a convoy (and the
// sharded `Counter` in `vlite_metrics::obs` has its own loss-freedom
// proptest); together they pin "recording never serializes on a lock".
#[test]
fn concurrent_recording_with_live_scrapes_loses_nothing() {
    let plane = Arc::new(ObsPlane::new(&ObsConfig::default(), 1));
    let writers = 8;
    let per_writer: u64 = 20_000;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let scraper = {
        let plane = Arc::clone(&plane);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut out = String::new();
                plane.prometheus_into(&mut out);
                assert!(out.contains("vlite_completed_total"));
                scrapes += 1;
            }
            scrapes
        })
    };

    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || {
                for i in 0..per_writer {
                    let e2e = 1e-4 + 1e-3 * (1.0 + (i % 7) as f64);
                    let outcome = RequestOutcome {
                        id: w * per_writer + i,
                        tenant: TenantId(0),
                        trace: None,
                        batch_trace: None,
                        enqueued: SimTime::ZERO,
                        end: SimTime::from_secs_f64(e2e),
                        timings: RequestTimings {
                            queue: 1e-4,
                            search: e2e - 1e-4,
                            e2e,
                            generation: None,
                        },
                        hit_rate: 0.5,
                        deadline: None,
                        gen_busy: None,
                        shed: None,
                    };
                    plane.on_request(&outcome, true, true, None);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper");

    let total = writers * per_writer;
    assert_eq!(plane.completed.get(), total);
    assert_eq!(plane.stage("search").expect("stage").count(), total);
    assert_eq!(plane.stage("e2e").expect("stage").count(), total);
    assert_eq!(plane.stage("e2e").expect("stage").min_seconds(), 1.1e-3);
    assert!(scrapes > 0, "scraper ran concurrently with the writers");
}
