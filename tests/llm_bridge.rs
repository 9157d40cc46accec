//! Integration: end-to-end retrieval → generation co-scheduling, pinned by
//! a deterministic TTFT harness.
//!
//! Every test here runs on the [`VirtualClock`]: the runtime's timestamps
//! are stepped virtual time, the generation worker's iteration waits
//! advance the clock instead of sleeping, and the recorded latencies are
//! exact functions of the LLM cost model — no wall-clock sleeps, no timing
//! tolerances, byte-identical numbers on every run and machine.
//!
//! Coverage:
//! - TTFT on a scripted sequential arrival sequence equals the cost
//!   model's prefill time to the exact tick (queue and search contribute
//!   zero virtual time), and the phase identity
//!   `ttft = queue + search + gen_queue + prefill` holds exactly.
//! - A scripted queueing sequence on the public [`GenerationStage`] pins
//!   the generation-queue phase boundary to the exact tick.
//! - A two-tenant flood reports nonzero per-tenant TTFT attainment in the
//!   [`ServeReport`], end to end and over the HTTP frontend.
//! - Rung 4 with every deadline at the TTFT SLO sheds KV pressure: the
//!   condemning estimate and shed tick are pinned on the stage, and a
//!   flood counts its sheds as TTFT misses per tenant.
//! - Control observations are judged against the search SLO only.

use std::sync::Arc;

use vectorlite_rag::core::{RealConfig, UpdateConfig};
use vectorlite_rag::serve::generation::{GenEvent, GenRequest, GenerationStage};
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::http::{wire, HttpClient, HttpFrontend};
use vectorlite_rag::serve::loadgen::RotatingQuerySource;
use vectorlite_rag::serve::{
    ControlConfig, GenerationConfig, RagServer, ServeConfig, TenantId, TenantSpec, VirtualClock,
};
use vectorlite_rag::sim::{SimDuration, SimTime};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

mod common;
use common::{await_batched, GatedClock};

fn small_corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 2_000,
        dim: 8,
        n_centers: 16,
        zipf_exponent: 1.0,
        noise: 0.2,
        seed: 7,
    })
}

fn co_scheduled_config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.generation = Some(GenerationConfig::tiny());
    config
}

#[test]
fn sequential_arrivals_hit_ttft_to_the_exact_tick() {
    let corpus = small_corpus();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, co_scheduled_config(), clock.clone())
        .expect("server starts");
    let gen_config = server.generation_config().expect("co-scheduled").clone();

    for i in 0..5 {
        // Distinct arrival ticks: the timeline is scripted by the test.
        clock.advance(SimDuration::from_millis(10.0));
        let ticket = server
            .submit(corpus.vectors.get(i).to_vec())
            .expect("admitted");
        let response = ticket.wait().expect("served");
        let gen = response
            .timings
            .generation
            .expect("co-scheduled server reports generation phases");

        // With one request in flight and a virtual clock, retrieval and
        // queueing consume zero virtual time, so TTFT is the cost model's
        // prefill time for the assembled prompt — exactly.
        let prompt_tokens = gen_config.prompt_tokens(response.neighbors.len());
        let expected_prefill = gen_config.cost.prefill_time(prompt_tokens, 1.0);
        assert_eq!(response.timings.queue, 0.0, "request {i} queue time");
        assert_eq!(response.timings.search, 0.0, "request {i} search time");
        assert_eq!(gen.gen_queue, 0.0, "request {i} generation queue time");
        assert_eq!(
            gen.prefill,
            expected_prefill.as_secs_f64(),
            "request {i} prefill duration must be the cost model's, exactly"
        );
        assert_eq!(
            gen.ttft,
            expected_prefill.as_secs_f64(),
            "request {i} TTFT = retrieval (0) + queue (0) + prefill"
        );
        // The additive phase identity, within one float conversion ulp.
        assert!(
            (gen.ttft
                - (response.timings.queue + response.timings.search + gen.gen_queue + gen.prefill))
                .abs()
                < 1e-12,
            "ttft must decompose into its phases"
        );
        assert!(gen.decode > 0.0, "multi-token output must decode");
        assert!(
            (response.timings.e2e - (gen.ttft + gen.decode)).abs() < 1e-12,
            "e2e must equal ttft + decode"
        );
    }

    let report = server.shutdown();
    assert_eq!(report.completed, 5);
    assert_eq!(report.ttft.count, 5);
    assert_eq!(report.ttft_attainment, 1.0, "sequential TTFTs are ~ms");
}

#[test]
fn scripted_queueing_pins_the_generation_queue_phase_exactly() {
    // Drive the public GenerationStage state machine synchronously, the
    // same way the control loop is unit-tested: max_batch = 1 serializes
    // the engine, output_tokens = 1 completes each request at its prefill,
    // so the second arrival's generation-queue time is exactly the first
    // request's prefill duration.
    let mut config = GenerationConfig::tiny();
    config.max_batch = 1;
    config.output_tokens = 1;
    let mut stage = GenerationStage::new(&config);

    let t0 = SimTime::ZERO;
    stage.submit(
        GenRequest {
            id: 0,
            n_docs: 4,
            admitted_at: t0,
        },
        t0,
    );
    stage.submit(
        GenRequest {
            id: 1,
            n_docs: 2,
            admitted_at: t0,
        },
        t0,
    );

    let p0 = config.cost.prefill_time(config.prompt_tokens(4), 1.0);
    let p1 = config.cost.prefill_time(config.prompt_tokens(2), 1.0);

    let step1 = stage.advance(t0).expect("work pending");
    assert_eq!(step1.busy_until, t0 + p0);
    assert_eq!(step1.events.len(), 2, "first token + completion");
    match step1.events[0] {
        GenEvent::FirstToken { id, at, phases } => {
            assert_eq!(id, 0);
            assert_eq!(at, t0 + p0);
            assert_eq!(phases.queued, SimDuration::ZERO);
            assert_eq!(phases.prefill, p0);
        }
        other => panic!("expected first token, got {other:?}"),
    }

    // Advancing from an earlier instant clamps to the engine's free time:
    // request 1 queued behind request 0 for exactly p0.
    let step2 = stage.advance(t0).expect("request 1 pending");
    assert_eq!(step2.busy_until, t0 + p0 + p1);
    match step2.events[0] {
        GenEvent::FirstToken { id, at, phases } => {
            assert_eq!(id, 1);
            assert_eq!(at, t0 + p0 + p1);
            assert_eq!(phases.queued, p0, "queued behind request 0's prefill");
            assert_eq!(phases.prefill, p1);
        }
        other => panic!("expected first token, got {other:?}"),
    }
    assert!(stage.is_idle());
    assert_eq!(stage.engine_stats().completed, 2);
}

#[test]
fn two_tenant_flood_reports_nonzero_per_tenant_ttft_attainment() {
    let corpus = small_corpus();
    let mut config = co_scheduled_config();
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 512,
            slo_search: 0.05,
        },
        TenantSpec {
            weight: 1,
            queue_capacity: 512,
            slo_search: 0.05,
        },
    ];
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock).expect("server starts");

    // Flood both tenants with no pacing at all: the generation engine
    // backlogs, so early requests meet the 250 ms TTFT SLO and late ones
    // blow far past it in virtual time.
    let mut tickets = Vec::new();
    for i in 0..360 {
        let tenant = TenantId((i % 2) as u16);
        let query = corpus.vectors.get(i % 500).to_vec();
        tickets.push(server.submit_for(tenant, query).expect("admitted"));
    }
    let mut served = [0u64; 2];
    for ticket in tickets {
        let response = ticket.wait().expect("served");
        served[response.tenant.index()] += 1;
        assert!(response.timings.generation.is_some());
    }
    let report = server.shutdown();

    assert_eq!(report.completed, 360);
    assert_eq!(report.ttft.count, 360, "every request has a TTFT sample");
    assert_eq!(report.slo_ttft, Some(GenerationConfig::tiny().slo_ttft));
    assert!(
        report.ttft_attainment > 0.0 && report.ttft_attainment < 1.0,
        "the flood must straddle the TTFT SLO, got {}",
        report.ttft_attainment
    );
    for (t, report_row) in report.tenants.iter().enumerate() {
        assert_eq!(report_row.completed, served[t]);
        assert_eq!(report_row.ttft.count as u64, served[t]);
        assert!(
            report_row.ttft_attainment > 0.0,
            "tenant {t} TTFT attainment must be nonzero, got {}",
            report_row.ttft_attainment
        );
        assert!(report_row.ttft.p99 >= report_row.ttft.p50);
    }
    // The rendered report carries the TTFT section.
    let rendered = report.render();
    assert!(
        rendered.contains("TTFT SLO"),
        "render misses TTFT: {rendered}"
    );
    assert!(rendered.contains("ttft"), "latency table misses ttft row");
}

#[test]
fn shutdown_drains_the_generation_backlog() {
    let corpus = small_corpus();
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, co_scheduled_config(), clock).expect("server starts");
    let tickets: Vec<_> = (0..40)
        .map(|i| {
            server
                .submit(corpus.vectors.get(i).to_vec())
                .expect("admitted")
        })
        .collect();
    let report = server.shutdown();
    assert_eq!(report.completed, 40, "generation backlog fully served");
    assert_eq!(report.ttft.count, 40);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket
            .wait()
            .unwrap_or_else(|| panic!("ticket {i} orphaned by shutdown"));
        assert!(response.timings.generation.is_some());
    }
}

/// Config for the search-keyed control pin: the workload's hot set is
/// rotated away from the calibration profile from the very first request,
/// so hit-rate divergence is present throughout; whether the dual trigger
/// fires then depends *only* on the SLO half.
fn drift_config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(64),
        nprobe: 12,
        top_k: 10,
        n_profile_queries: 512,
        // Enormous search SLO: the search side never breaches, so a
        // search-keyed dual trigger can never fire.
        slo_search: 10.0,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(0.3),
    };
    config.control = ControlConfig {
        update: UpdateConfig {
            slo_attainment_threshold: 0.9,
            hit_rate_divergence: 0.08,
            window_requests: 80,
        },
        profile_window: 512,
        cooldown_requests: 100,
        require_slo_breach: true,
    };
    let mut generation = GenerationConfig::tiny();
    // Unmeetable TTFT SLO: every request misses it.
    generation.slo_ttft = 1e-9;
    config.generation = Some(generation);
    config
}

fn drift_corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 6_000,
        dim: 16,
        n_centers: 32,
        zipf_exponent: 1.2,
        noise: 0.25,
        seed: 9,
    })
}

/// Runs 150 rotated-hot-set requests through a co-scheduled server and
/// returns its final report.
fn run_drifted() -> vectorlite_rag::serve::ServeReport {
    let corpus = drift_corpus();
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, drift_config(), clock).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(&corpus, 5);
    source.set_rotation(16); // hot set moved before the first request
    let tickets: Vec<_> = (0..150)
        .map(|_| server.submit(source.next_query()).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("served");
    }
    server.shutdown()
}

#[test]
fn search_keyed_observations_ignore_ttft_breaches() {
    // The control loop judges each observation against the search SLO
    // (the one Algorithm 1 partitions against): the 10 s search SLO is
    // never breached, so despite drift from the first request and a TTFT
    // miss on every one, the paper's dual condition never fires.
    let report = run_drifted();
    assert!(
        report.repartitions.is_empty(),
        "search-keyed control must not react to TTFT breaches"
    );
    assert_eq!(report.ttft_attainment, 0.0, "nothing meets a 1 ns TTFT SLO");
    assert_eq!(report.generation, 0);
    assert_eq!(report.completed, 150);
}

#[test]
fn kv_admission_estimate_and_rejection_are_pinned_to_the_exact_tick() {
    // Scripted virtual-time scenario on the public GenerationStage, the
    // same harness style as the queueing-phase test: request 0 fills the
    // KV pool; request 1 arrives while the engine is busy and the pool
    // full. Rung 4, with the deadline a `default_deadline = slo_ttft`
    // policy stamps (admission + slo_ttft), must shed it at the scripted
    // tick, condemned by an estimate that is an exact function of the
    // cost model.
    let mut config = GenerationConfig::tiny();
    config.output_tokens = 64;
    // Pool of exactly 512 tokens: request 0's claim (384 prompt + 64
    // output) fits alone; adding request 1's equal claim cannot.
    config.kv_bytes = config.cost.model().kv_bytes_per_token() * 512;
    let prompt = config.prompt_tokens(10); // 64 + 32·10 = 384
    assert_eq!(prompt, 384);
    let p0 = config.cost.prefill_time(prompt, 1.0);
    // SLO wide enough for an idle admit (one prefill), far too tight for
    // a drain-then-prefill wait.
    config.slo_ttft = 1.5 * p0.as_secs_f64();
    let mut stage = GenerationStage::new(&config);

    let t0 = SimTime::ZERO;
    let deadline = Some(t0 + SimDuration::from_secs_f64(config.slo_ttft));
    // Idle stage: request 0 admits — its estimate is one prefill.
    assert_eq!(
        stage.estimate_first_token(prompt, t0),
        t0 + p0,
        "idle estimate is exactly one prefill"
    );
    stage
        .submit_within(
            GenRequest {
                id: 0,
                n_docs: 10,
                admitted_at: t0,
            },
            t0,
            deadline,
        )
        .expect("idle engine admits");
    let step = stage.advance(t0).expect("prefill runs");
    assert_eq!(step.busy_until, t0 + p0);

    // Request 1 at the same scripted tick: the engine is busy until
    // t0 + p0, its 384 resident prompt tokens leave no room, so the
    // estimate is engine-free wait + full decode drain + its own prefill.
    let decode = config.cost.decode_step_time(1, 384, 1.0);
    let drain = vectorlite_rag::sim::SimDuration::from_secs_f64(
        decode.as_secs_f64() * 63.0, // 64 output tokens, 1 emitted at prefill
    );
    assert_eq!(
        stage.estimate_first_token(prompt, t0),
        t0 + p0 + drain + p0,
        "busy estimate must be exact"
    );
    let shed = stage
        .submit_within(
            GenRequest {
                id: 1,
                n_docs: 10,
                admitted_at: t0,
            },
            t0,
            deadline,
        )
        .expect_err("KV-full engine must shed");
    assert_eq!(
        shed,
        t0 + p0 + drain + p0,
        "the condemning estimate is pinned"
    );
    assert_eq!(
        stage.queue_len(),
        0,
        "a shed request never enters the queue"
    );

    // The admitted request is unaffected: it still completes.
    let mut done = false;
    let mut now = step.busy_until;
    for _ in 0..200 {
        match stage.advance(now) {
            Some(step) => {
                done |= step
                    .events
                    .iter()
                    .any(|e| matches!(e, GenEvent::Completed { id: 0, .. }));
                now = step.busy_until;
            }
            None => break,
        }
    }
    assert!(done, "request 0 must finish despite the shed");
}

#[test]
fn kv_admission_sheds_are_counted_in_per_tenant_ttft_attainment() {
    let corpus = small_corpus();
    let mut config = co_scheduled_config();
    let generation = config.generation.as_mut().unwrap();
    generation.output_tokens = 32;
    // Admission bar: an idle prefill fits comfortably, a backlog of them
    // does not — so a flood is guaranteed to produce both outcomes.
    let base_prefill = generation
        .cost
        .prefill_time(generation.prompt_tokens(10), 1.0);
    generation.slo_ttft = 4.0 * base_prefill.as_secs_f64();
    // KV-aware admission is rung 4 with every request's deadline at its
    // TTFT SLO. Every batch is merged at tick zero, so the drain meter
    // measures no search cost and rung 3 runs every batch in full.
    config.deadline.default_deadline = Some(generation.slo_ttft);
    config.deadline.enforce = true;
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 512,
            slo_search: 0.05,
        };
        2
    ];
    let clock = Arc::new(GatedClock::default());
    let server =
        RagServer::start_with_clock(&corpus, config, clock.clone()).expect("server starts");
    let gate = clock.close();

    let mut tickets = Vec::new();
    for i in 0..360 {
        let tenant = TenantId((i % 2) as u16);
        tickets.push(
            server
                .submit_for(tenant, corpus.vectors.get(i % 500).to_vec())
                .expect("admitted"),
        );
    }
    await_batched(&server, 360);
    drop(gate);
    let mut shed_by_tenant = [0u64; 2];
    let mut served_by_tenant = [0u64; 2];
    for ticket in tickets {
        let response = ticket.wait().expect("served");
        match response.timings.generation {
            // A shed reply carries the retrieval results and its timings
            // end at the merge: e2e = queue + search, exactly.
            None => {
                shed_by_tenant[response.tenant.index()] += 1;
                assert_eq!(
                    response.timings.e2e,
                    response.timings.queue + response.timings.search,
                    "shed timings end at the merge tick"
                );
                assert!(!response.neighbors.is_empty(), "retrieval still served");
            }
            Some(gen) => {
                served_by_tenant[response.tenant.index()] += 1;
                assert!(gen.ttft > 0.0);
            }
        }
    }
    let report = server.shutdown();

    let sheds: u64 = shed_by_tenant.iter().sum();
    let served: u64 = served_by_tenant.iter().sum();
    assert!(sheds > 0, "the flood must shed");
    assert!(served > 0, "the flood must also serve");
    assert_eq!(report.completed, 360);
    assert_eq!(report.gen_sheds, sheds);
    assert_eq!(report.deadline_sheds, [0, 0, sheds], "only rung 4 sheds");
    // TTFT samples exist only for served requests; the attainment
    // denominator nevertheless includes every shed as a miss.
    assert_eq!(report.ttft.count as u64, served);
    assert!(report.ttft_attainment < 1.0, "sheds must dent attainment");
    for (t, row) in report.tenants.iter().enumerate() {
        assert_eq!(row.gen_sheds, shed_by_tenant[t], "tenant {t} shed count");
        assert_eq!(row.ttft.count as u64, served_by_tenant[t]);
        assert!(
            row.ttft_attainment
                <= served_by_tenant[t] as f64 / (served_by_tenant[t] + shed_by_tenant[t]) as f64
                    + 1e-9,
            "tenant {t} attainment must count its sheds as misses"
        );
    }
    let rendered = report.render();
    assert!(
        rendered.contains("generation-admission sheds"),
        "render must surface sheds: {rendered}"
    );
}

#[test]
fn co_scheduled_ttft_attainment_is_served_over_the_http_frontend() {
    let corpus = small_corpus();
    let config = co_scheduled_config();
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config.clone(), clock).expect("server starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let mut client = HttpClient::connect(frontend.addr()).expect("client connects");

    for i in 0..3 {
        let body = wire::search_request_to_json(corpus.vectors.get(i)).render();
        let response = client.post_json("/v1/search", &[], &body).expect("search");
        assert_eq!(response.status, 200);
        let decoded = wire::search_response_from_json(&response.json().unwrap()).expect("decodes");
        let gen = decoded
            .timings
            .generation
            .expect("generation phases cross the wire");
        assert!(gen.ttft > 0.0 && gen.prefill > 0.0);
    }

    let report_json = client.get("/v1/report").expect("report").json().unwrap();
    assert_eq!(
        report_json.get("slo_ttft").and_then(Json::as_f64),
        Some(GenerationConfig::tiny().slo_ttft),
    );
    let attainment = report_json
        .get("ttft_attainment")
        .and_then(Json::as_f64)
        .expect("report carries ttft_attainment");
    assert!(
        attainment > 0.0,
        "sequential ms-scale TTFTs meet a 250 ms SLO"
    );
    let tenant_ttft_count = report_json
        .get("tenants")
        .and_then(Json::as_array)
        .and_then(|rows| rows[0].get("ttft"))
        .and_then(|t| t.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(tenant_ttft_count, Some(3), "per-tenant TTFT rows over HTTP");

    let final_report = frontend.shutdown();
    assert_eq!(final_report.completed, 3);
    assert_eq!(final_report.ttft.count, 3);
    assert!(final_report.ttft_attainment > 0.0);
}
