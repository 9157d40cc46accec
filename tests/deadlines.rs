//! Integration: per-request deadline budgets enforced across the pipeline.
//!
//! The VirtualClock tests pin the degradation ladder to the exact tick:
//! time advances only where the test says so, so every shed, hot-only
//! batch and budget-burn number below is a deterministic function of the
//! scripted timeline — no timing tolerances. Rung 3 prices a batch's
//! tightest budget with what the server's drain meter measured of the
//! full searches it ran; the tests seed that meter by serving one batch
//! on a ticking clock, read its exact cost back from the batch's trace,
//! and stop the clock (`meter::seed_meter`).
//!
//! Coverage:
//! - A zero-budget request is shed at batch formation (rung 2) on the
//!   exact tick it was submitted: the ticket's reply channel disconnects,
//!   the shed is attributed to the queue stage, and the journal event is
//!   stamped at the submission tick to the nanosecond.
//! - A request shed at admission (rung 1) under a caller-supplied trace id
//!   leaves a `request` root and a `shed:admission` marker, so
//!   `/v1/trace/{id}` answers for the client that got `DeadlineUnmeetable`.
//! - The drain rate behind admission's wait estimate counts engine-busy
//!   time only: after a 60 s idle gap, a burst of 200 with a 50 ms
//!   budget is admitted whole, not refused as if the queue drained one
//!   job a minute.
//! - A measure-only policy (enforce off) records budget burn and deadline
//!   attainment without shedding or degrading anything.
//! - Before anything has been measured — a cold start, or batches on a
//!   clock that never moved — no budget runs its batch hot-only.
//! - A budget below the measured full search runs its batch hot-only
//!   (rung 3): the request's cold-tier probes are skipped, it still
//!   answers on time, and its reply still counts them as misses.
//! - A budget equal to the measured full search runs in full; one
//!   nanosecond less, or half of it, runs hot-only.
//! - A drain in which every job expired scanned nothing: it leaves the
//!   full-search estimate exactly where it was.
//! - On a wall-clock server warmed with traffic, a 20 ms `X-Deadline-Ms`
//!   budget keeps its cold-tier probes: the measured search is far
//!   cheaper.
//! - An `nprobe` of 0 still answers a hot-only budget (the index serves
//!   one probe).
//! - On a co-scheduled server, a budget that survives retrieval but not
//!   the estimated first token is shed at generation admission (rung 4):
//!   the reply carries the retrieval results without generation, and the
//!   shed counts as both a deadline shed and a generation shed.
//! - Over the HTTP frontend: `X-Deadline-Ms` is validated (400 on garbage
//!   or a budget past `Duration::MAX`), a generous or huge budget answers
//!   200, an impossible budget answers 504 with a JSON error body, and the
//!   shed shows up in `/v1/metrics` and the report.
//! - In process, a `Duration::MAX` budget saturates the absolute deadline
//!   instead of overflowing the clock, and the request meets it.
//! - Property: truncating the probe list degrades gracefully — probe
//!   lists are prefix-consistent and recall against brute force is
//!   monotone in `nprobe`, so a search over fewer probes is a
//!   prefix-quality subset of the full-probe search, never an error.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use vectorlite_rag::ann::{IvfConfig, IvfIndex, VecSet};
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::http::{wire, HttpClient, HttpFrontend};
use vectorlite_rag::serve::{
    AdmissionError, GenerationConfig, RagServer, ServeConfig, TenantId, TraceId, VirtualClock,
};
use vectorlite_rag::sim::{SimDuration, SimTime};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

mod meter;
use meter::{await_sections, seed_meter, stage, TickingClock};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 2_000,
        dim: 8,
        n_centers: 16,
        zipf_exponent: 1.0,
        noise: 0.2,
        seed: 7,
    })
}

fn enforcing_config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.deadline.enforce = true;
    config
}

/// A server on a stopped [`TickingClock`].
fn ticking_server(config: ServeConfig) -> (RagServer, Arc<TickingClock>) {
    let clock = Arc::new(TickingClock::default());
    let server =
        RagServer::start_with_clock(&corpus(), config, clock.clone()).expect("server starts");
    (server, clock)
}

/// Serves one query of corpus vector 0 under `budget`, alone in its
/// batch, and returns how many cold skips rung 3 added for it.
fn degradation(server: &RagServer, budget: Duration) -> u64 {
    let before = server.report().cold_skips;
    let response = server
        .submit_with_deadline(TenantId(0), corpus().vectors.get(0).to_vec(), Some(budget))
        .expect("admitted")
        .wait()
        .expect("degraded, not shed");
    assert!(!response.neighbors.is_empty());
    server.report().cold_skips - before
}

#[test]
fn zero_budget_request_is_shed_in_queue_at_the_exact_tick() {
    let corpus = corpus();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, enforcing_config(), clock.clone())
        .expect("server starts");

    // Script the timeline: submission happens at exactly t = 5 ms.
    let t_submit = clock.advance(SimDuration::from_millis(5.0));
    let ticket = server
        .submit_with_deadline(
            TenantId(0),
            corpus.vectors.get(0).to_vec(),
            Some(Duration::ZERO),
        )
        .expect("an idle queue has no wait estimate, so admission admits");
    assert_eq!(
        ticket.deadline(),
        Some(t_submit),
        "a zero budget stamps the deadline at the submission tick"
    );

    // Batch formation reads the same (never-advanced) tick, so
    // `started >= deadline` holds by equality: the job is shed, its reply
    // sender dropped, and the waiter sees a disconnect — not a hang.
    assert!(
        ticket.wait().is_none(),
        "a queue-shed request must disconnect its waiter"
    );

    let report = server.report();
    assert_eq!(
        report.deadline_sheds,
        [0, 1, 0],
        "exactly one shed, attributed to the queue stage"
    );
    assert_eq!(report.deadline_met, 0);
    assert_eq!(report.deadline_missed, 0, "shed requests never complete");
    assert_eq!(report.cold_skips, 0);

    // The journal stamps the shed at the batch-formation tick — which the
    // scripted timeline pins to the submission tick, to the nanosecond.
    let journal = server.obs().journal_snapshot();
    let shed = journal
        .iter()
        .find(|e| e.kind == "deadline-shed")
        .expect("queue sheds are journaled");
    assert_eq!(shed.at_ns, 5_000_000, "shed at exactly t = 5 ms");
    assert!(
        shed.detail.contains("expired in queue"),
        "unexpected detail: {}",
        shed.detail
    );
}

#[test]
fn admission_shed_is_traceable_under_the_callers_trace_id() {
    // On the wall clock: the drain rate counts only the time the engine
    // was busy, and a batch on a virtual clock that nobody moves takes
    // none.
    let corpus = corpus();
    let server = RagServer::start(&corpus, enforcing_config()).expect("server starts");
    let query = corpus.vectors.get(0).to_vec();

    // One served request gives the queue a drain rate (jobs per second of
    // busy time), the first ingredient of a wait estimate.
    server
        .submit(query.clone())
        .expect("admitted")
        .wait()
        .expect("served");

    // The second ingredient is a backlog: two batches' worth of
    // unbudgeted work, so the lane is still non-empty when the batcher
    // has taken its next batch. Then offer a 1 ns budget under the
    // caller's trace id: its estimated wait (a batch of at most 64 jobs
    // takes far over 64 ns) dwarfs the budget and admission refuses it.
    // Should the batcher have drained the lane first, the offer is
    // admitted and the next round offers under a fresh caller trace id.
    let mut backlog = Vec::new();
    let (caller, refusal) = (0..1_000u128)
        .find_map(|round| {
            for _ in 0..128 {
                let ticket = server.submit(query.clone());
                backlog.push(ticket.expect("unbudgeted work admits"));
            }
            let caller = TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_0000 + round);
            server
                .submit_with_trace(
                    TenantId(0),
                    query.clone(),
                    Some(Duration::from_nanos(1)),
                    Some(caller),
                )
                .err()
                .map(|refusal| (caller, refusal))
        })
        .expect("a fed lane must eventually refuse a 1 ns budget");
    assert!(
        matches!(refusal, AdmissionError::DeadlineUnmeetable { .. }),
        "unexpected refusal: {refusal}"
    );
    for ticket in backlog {
        ticket.wait().expect("unbudgeted work is served");
    }

    // The refusal is the one request under the caller's trace id: a
    // zero-width request root carrying the admission marker.
    let spans = server
        .trace_plane()
        .trace_spans(caller.0)
        .expect("the caller's trace id must resolve after an admission shed");
    let roots = spans.iter().filter(|s| s.parent_id.is_none()).count();
    assert_eq!(roots, 1, "one request under the caller's trace: {spans:?}");
    let marker = spans
        .iter()
        .find(|s| s.name == "shed:admission")
        .expect("admission sheds leave a marker span");
    let root = spans
        .iter()
        .find(|s| Some(s.span_id) == marker.parent_id)
        .expect("the marker hangs off a request root");
    assert_eq!(root.name, "request");
    assert_eq!(root.parent_id, None);
    assert_eq!(
        (root.start_s, root.end_s, marker.start_s),
        (marker.end_s, marker.end_s, marker.end_s),
        "a request refused at admission has zero width"
    );
    assert_eq!(server.report().deadline_sheds[0], 1);
}

#[test]
fn an_idle_gap_does_not_shed_the_next_burst_at_admission() {
    let corpus = corpus();
    let mut config = enforcing_config();
    config.deadline.default_deadline = Some(0.050);
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config, clock.clone()).expect("server starts");
    let queries = corpus.queries(200, 5);
    let serve_one = |i: usize| {
        server
            .submit(queries.get(i).to_vec())
            .expect("an idle server admits")
            .wait()
            .expect("served");
    };

    // One request, a minute of silence, one more request: the engine was
    // busy for none of that minute.
    serve_one(0);
    clock.advance(SimDuration::from_secs_f64(60.0));
    serve_one(1);

    // A burst arrives at once. Had the idle minute counted as draining,
    // every submission behind a queued one would estimate a wait of about
    // a minute per queued job and be refused against the 50 ms budget.
    let tickets: Vec<_> = (0..200)
        .map(|i| match server.submit(queries.get(i).to_vec()) {
            Ok(ticket) => ticket,
            Err(err) => panic!("burst request {i} refused: {err}"),
        })
        .collect();
    for ticket in tickets {
        ticket
            .wait()
            .expect("the clock never moved: no deadline passed");
    }
    let report = server.report();
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.completed, 202);
    assert_eq!(report.deadline_met, 202);
}

#[test]
fn measure_only_policy_records_attainment_without_shedding() {
    let corpus = corpus();
    let mut config = ServeConfig::small();
    config.deadline.default_deadline = Some(10.0); // enforce stays off
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock).expect("server starts");

    let ticket = server
        .submit(corpus.vectors.get(0).to_vec())
        .expect("admitted");
    let response = ticket.wait().expect("measure-only never sheds");
    assert_eq!(response.neighbors[0].id, 0);

    let report = server.report();
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.cold_skips, 0);
    assert_eq!(report.deadline_met, 1, "zero virtual time beats any budget");
    assert_eq!(report.deadline_missed, 0);
    assert_eq!(report.deadline_attainment, Some(1.0));
    // Budget burn was measured for both stages even though nothing acted
    // on it — that is the whole point of measure-only mode.
    assert_eq!(report.burn_queue.count, 1);
    assert_eq!(report.burn_search.count, 1);
}

#[test]
fn fast_tier_only_budget_skips_cold_probes_and_still_answers() {
    let corpus = corpus();
    let mut config = enforcing_config();
    // Pin the hot tier small so the full probe list must cross into the
    // cold tier, making the skip observable.
    config.real.coverage_override = Some(0.25);
    let (server, clock) = ticking_server(config);
    let full = seed_meter(&server, &clock, corpus.vectors.get(1));

    // With the clock stopped, batch formation happens at the submission
    // tick, so the whole budget remains: half the measured full search
    // cannot absorb the cold share's scan.
    let budget = full / 2;
    let ticket = server
        .submit_with_deadline(TenantId(0), corpus.vectors.get(0).to_vec(), Some(budget))
        .expect("admitted");
    let response = ticket.wait().expect("cold-skipped, not shed");
    assert!(!response.neighbors.is_empty());
    assert!(
        response.hit_rate < 1.0,
        "the skipped probes count as misses"
    );

    let report = server.report();
    assert_eq!(report.cold_skips, 1, "the cold-tier probes were dropped");
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.deadline_met, 1);
}

#[test]
fn zero_nprobe_still_answers_a_shrunk_budget() {
    let corpus = corpus();
    let mut config = enforcing_config();
    config.real.nprobe = 0;
    config.real.coverage_override = Some(1.0);
    let (server, clock) = ticking_server(config);
    let full = seed_meter(&server, &clock, corpus.vectors.get(1));

    // The index serves one probe for an `nprobe` of 0, and it is hot: a
    // hot-only batch scans it.
    let budget = full / 2;
    let ticket = server
        .submit_with_deadline(TenantId(0), corpus.vectors.get(0).to_vec(), Some(budget))
        .expect("admitted");
    let response = ticket.wait().expect("a hot-only budget still answers");
    assert!(!response.neighbors.is_empty());

    let report = server.report();
    assert_eq!(report.cold_skips, 0, "one hot probe: no cold skip");
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.deadline_met, 1);
}

#[test]
fn nothing_is_degraded_before_the_first_measurement() {
    let mut config = enforcing_config();
    config.real.coverage_override = Some(0.25);
    // A cold start: no batch has been scanned yet.
    let (server, _clock) = ticking_server(config);
    let budget = Duration::from_micros(1);
    assert_eq!(degradation(&server, budget), 0);
    // Batches on a clock that never moved took no time: still nothing
    // measured, so nothing priced.
    assert_eq!(degradation(&server, budget), 0);
    let report = server.report();
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.deadline_met, 2);
}

/// Pins rung 3's threshold at the measured `full` search: a budget of
/// `full` runs its batch in full, one nanosecond less or half of it runs
/// hot-only and skips the cold tier.
fn assert_priced_at(server: &RagServer, full: Duration) {
    assert_eq!(degradation(server, full), 0);
    assert_eq!(degradation(server, full - Duration::from_nanos(1)), 1);
    assert_eq!(degradation(server, full / 2), 1);
}

#[test]
fn a_budget_equal_to_the_measured_full_search_is_never_degraded() {
    let mut config = enforcing_config();
    config.real.coverage_override = Some(0.25);
    let (server, clock) = ticking_server(config);
    let full = seed_meter(&server, &clock, corpus().vectors.get(1));
    assert_priced_at(&server, full);
    assert_eq!(server.report().deadline_met, 3);
}

#[test]
fn a_drain_that_scanned_nothing_leaves_the_search_and_cold_estimates_unchanged() {
    let mut config = enforcing_config();
    config.real.coverage_override = Some(0.25);
    let (server, clock) = ticking_server(config);
    let full = seed_meter(&server, &clock, corpus().vectors.get(1));

    // A zero budget expires in the queue while the clock ticks: the drain
    // takes time but scans nothing.
    let formed = stage(&server, "batcher");
    clock.tick(true);
    let ticket = server
        .submit_with_deadline(
            TenantId(0),
            corpus().vectors.get(2).to_vec(),
            Some(Duration::ZERO),
        )
        .expect("admitted");
    assert!(ticket.wait().is_none(), "shed in the queue");
    await_sections(&server, "batcher", formed.sections + 1);
    clock.tick(false);
    let busy = stage(&server, "batcher").wall_s - formed.wall_s;
    assert!(busy > 0.0, "the expired drain took time");
    assert_eq!(server.report().deadline_sheds, [0, 1, 0]);

    // The threshold sits exactly where the seeded batch put it.
    assert_priced_at(&server, full);
}

#[test]
fn a_warm_wall_clock_server_keeps_the_cold_probes_of_a_20_ms_budget() {
    let corpus = corpus();
    let mut config = enforcing_config();
    // Most of every probe list lands in the cold tier.
    config.real.coverage_override = Some(0.25);
    let server = RagServer::start(&corpus, config.clone()).expect("server starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let mut client = HttpClient::connect(frontend.addr()).expect("client connects");
    let search = |client: &mut HttpClient, i: usize, headers: &[(&str, &str)]| {
        let body = wire::search_request_to_json(corpus.vectors.get(i)).render();
        let response = client
            .post_json("/v1/search", headers, &body)
            .expect("exchange");
        assert_eq!(response.status, 200);
    };
    // Unbudgeted traffic warms the drain meter with measured searches.
    for i in 0..64 {
        search(&mut client, i, &[]);
    }
    search(&mut client, 0, &[("X-Deadline-Ms", "20")]);
    drop(client);
    let report = frontend.shutdown();
    assert_eq!(report.cold_skips, 0, "the cold-tier probes were kept");
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
}

#[test]
fn unmeetable_first_token_is_shed_at_generation_admission_with_retrieval_results() {
    let corpus = corpus();
    let mut config = enforcing_config();
    let generation = GenerationConfig::tiny();
    // Even a prompt with no documents prefills for longer than this
    // budget, so on an idle engine the estimated first token lands past
    // the deadline whatever the retrieval returns.
    let min_prefill = generation
        .cost
        .prefill_time(generation.prompt_tokens(0), 1.0)
        .as_secs_f64();
    let budget = 0.5 * min_prefill;
    // Rung 3 runs the batch in full: the clock never advances, so no
    // batch measures a search cost to price the budget with.
    config.generation = Some(generation);
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock).expect("server starts");

    let response = server
        .submit_with_deadline(
            TenantId(0),
            corpus.vectors.get(0).to_vec(),
            Some(Duration::from_secs_f64(budget)),
        )
        .expect("an idle queue has no wait estimate, so admission admits")
        .wait()
        .expect("a generation shed still replies");
    assert_eq!(response.neighbors[0].id, 0, "full-probe retrieval results");
    assert_eq!(response.timings.generation, None, "retrieval-only reply");

    let report = server.report();
    assert_eq!(
        report.deadline_sheds,
        [0, 0, 1],
        "exactly one shed, attributed to the generation stage"
    );
    assert_eq!(report.gen_sheds, 1, "a deadline-aware generation shed");
    assert_eq!(report.cold_skips, 0);
    assert_eq!(
        report.deadline_met, 1,
        "the reply left at the merge tick, inside its budget"
    );

    let spans = server
        .trace_plane()
        .trace_spans(response.trace.0)
        .expect("the reply's trace id resolves");
    assert!(
        spans.iter().any(|s| s.name == "shed:gen-deadline"),
        "missing rung-4 marker: {spans:?}"
    );
    let journal = server.obs().journal_snapshot();
    let shed = journal
        .iter()
        .find(|e| e.kind == "deadline-shed")
        .expect("generation deadline sheds are journaled");
    assert!(
        shed.detail
            .contains("shed by deadline-aware generation admission"),
        "unexpected detail: {}",
        shed.detail
    );
}

#[test]
fn http_deadline_header_is_validated_and_enforced() {
    let corpus = corpus();
    let config = enforcing_config();
    let server = RagServer::start(&corpus, config.clone()).expect("server starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let addr = frontend.addr();
    let mut client = HttpClient::connect(addr).expect("client connects");
    let body = wire::search_request_to_json(corpus.vectors.get(0)).render();

    // Garbage budgets — including one past `Duration::MAX` — are rejected
    // before admission.
    for bad in ["banana", "-5", "0", "inf", "NaN", "1e300"] {
        let response = client
            .post_json("/v1/search", &[("X-Deadline-Ms", bad)], &body)
            .expect("exchange");
        assert_eq!(response.status, 400, "X-Deadline-Ms {bad:?} must 400");
    }

    // A generous budget serves normally, and so does a representable but
    // huge one (1e12 s): its absolute deadline saturates instead of
    // wrapping into the past.
    for generous in ["60000", "1e15"] {
        let ok = client
            .post_json("/v1/search", &[("X-Deadline-Ms", generous)], &body)
            .expect("exchange");
        assert_eq!(ok.status, 200, "X-Deadline-Ms {generous:?} must serve");
    }

    // An impossible budget (1 ns) expires before batch formation: the
    // runtime sheds it in the queue and the frontend answers 504 with a
    // JSON error body instead of hanging the connection.
    let shed = client
        .post_json("/v1/search", &[("X-Deadline-Ms", "0.000001")], &body)
        .expect("exchange");
    assert_eq!(
        shed.status, 504,
        "an unmeetable budget must gateway-timeout"
    );
    let err = shed.json().expect("504 carries a JSON error body");
    let message = err.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(
        message.contains("deadline") || message.contains("shed"),
        "unexpected error message: {message}"
    );

    // The shed is attributed in the scrape and the report. The counter
    // write happens before the reply channel drops, and the 504 above
    // observed the drop, so the value is already visible.
    let scrape = String::from_utf8(client.get("/v1/metrics").expect("metrics").body).expect("utf8");
    assert!(
        scrape.contains("vlite_deadline_sheds_total{stage=\"queue\"} 1"),
        "queue shed missing from exposition"
    );
    let report = client.get("/v1/report").expect("report");
    let report_json = report.json().expect("report is JSON");
    assert_eq!(
        report_json
            .get("deadline_sheds")
            .and_then(|sheds| sheds.get("queue"))
            .and_then(Json::as_u64),
        Some(1),
        "report must attribute the queue shed"
    );

    drop(client);
    let report = frontend.shutdown();
    assert_eq!(report.deadline_sheds[1], 1);
    assert_eq!(
        report.completed, 2,
        "only the two generous-budget requests completed"
    );
}

#[test]
fn a_duration_max_budget_saturates_instead_of_wrapping_into_the_past() {
    let corpus = corpus();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, enforcing_config(), clock.clone())
        .expect("server starts");
    // Off the epoch, so an unsaturated `now + budget` overflows the clock.
    clock.advance(SimDuration::from_millis(5.0));
    let ticket = server
        .submit_with_deadline(
            TenantId(0),
            corpus.vectors.get(0).to_vec(),
            Some(Duration::MAX),
        )
        .expect("admitted");
    assert_eq!(ticket.deadline(), Some(SimTime::from_nanos(u64::MAX)));
    let response = ticket.wait().expect("a huge budget is served, never shed");
    assert_eq!(response.neighbors[0].id, 0);
    let report = server.shutdown();
    assert_eq!(report.deadline_met, 1);
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
}

/// Deterministic pseudo-random f32 in [0, 1): splitmix-style bit mixing,
/// no RNG dependency, so every proptest case is a pure function of its
/// seed.
fn mixed_unit(seed: u64, i: usize, j: usize) -> f32 {
    let mut x =
        seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + i as u64 * 131 + j as u64));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// Exact top-k ids by L2 over the whole set (the recall ground truth).
fn brute_force_ids(data: &VecSet, query: &[f32], k: usize) -> HashSet<u64> {
    let mut scored: Vec<(f32, u64)> = (0..data.len())
        .map(|i| {
            let row = data.get(i);
            let d: f32 = row.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, i as u64)
        })
        .collect();
    scored.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    scored.iter().take(k).map(|&(_, id)| id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Graceful degradation at the index layer: the probe list is
    /// closeness-ordered, so a truncated probe run scans a *prefix* of the
    /// full run's clusters. A search over fewer probes is therefore a
    /// prefix-quality subset of the full search — its recall against
    /// brute force never exceeds (and its candidates never leave) the
    /// full-probe run's, and no probe count errors or returns nothing.
    #[test]
    fn degraded_probe_runs_are_prefix_quality_subsets(seed in 0u64..1_000) {
        let n = 256;
        let dim = 8;
        let nlist = 16;
        let k = 10;
        let data = VecSet::from_fn(n, dim, |i, j| mixed_unit(seed, i, j));
        let index = IvfIndex::train(&data, &IvfConfig::new(nlist)).expect("trains");
        let query: Vec<f32> = (0..dim).map(|j| mixed_unit(seed ^ 0xdead_beef, n, j)).collect();

        // Probe lists are prefix-consistent: shrinking nprobe truncates,
        // never reorders.
        let full_probes = index.probe(&query, nlist);
        for np in 1..=full_probes.len() {
            let pre = index.probe(&query, np);
            prop_assert_eq!(pre.len(), np);
            prop_assert_eq!(&pre[..], &full_probes[..np]);
        }

        // Recall against brute force is monotone in nprobe: a degraded
        // run's candidates are a subset of the full run's, and exact
        // re-ranking keeps every true neighbor the subset already had.
        let truth = brute_force_ids(&data, &query, k);
        let mut prev_recall = -1.0f64;
        for np in 1..=nlist {
            let neighbors = index.search(&query, k, np);
            prop_assert!(!neighbors.is_empty(), "degraded search must still answer");
            let hits = neighbors.iter().filter(|nb| truth.contains(&nb.id)).count();
            let recall = hits as f64 / k as f64;
            prop_assert!(
                recall + 1e-12 >= prev_recall,
                "recall fell from {prev_recall} to {recall} at nprobe {np}"
            );
            prev_recall = recall;
        }
        prop_assert!((prev_recall - 1.0).abs() < 1e-12, "full probe sweep is exhaustive");
    }
}
