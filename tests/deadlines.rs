//! Integration: per-request deadline budgets enforced across the pipeline.
//!
//! The VirtualClock tests pin the degradation ladder to the exact tick:
//! time advances only where the test says so, so every shed, shrink and
//! budget-burn number below is a deterministic function of the scripted
//! timeline — no wall-clock sleeps, no timing tolerances.
//!
//! Coverage:
//! - A zero-budget request is shed at batch formation (rung 2) on the
//!   exact tick it was submitted: the ticket's reply channel disconnects,
//!   the shed is attributed to the queue stage, and the journal event is
//!   stamped at the submission tick to the nanosecond.
//! - A request shed at admission (rung 1) under a caller-supplied trace id
//!   leaves a `request` root and a `shed:admission` marker, so
//!   `/v1/trace/{id}` answers for the client that got `DeadlineUnmeetable`.
//! - A measure-only policy (enforce off) records budget burn and deadline
//!   attainment without shedding or degrading anything.
//! - A budget worth half the search estimate shrinks the probe list to
//!   exactly `ceil(nprobe/2)` (rung 3) and the request still answers —
//!   degraded, attributed, and on time.
//! - A budget that fits the fast tier but not a cold scan drops the
//!   request's cold-tier probes (rung 4) and still answers.
//! - On a co-scheduled server, a budget that survives retrieval but not
//!   the estimated first token is shed at generation admission (rung 5):
//!   the reply carries the retrieval results without generation, and the
//!   shed counts as both a deadline shed and a generation shed.
//! - Over the HTTP frontend: `X-Deadline-Ms` is validated (400 on garbage),
//!   a generous budget answers 200, an impossible budget answers 504 with
//!   a JSON error body, and the shed shows up in `/v1/metrics` and the
//!   report.
//! - Property: truncating the probe list (what rung 3 does) degrades
//!   gracefully — probe lists are prefix-consistent and recall against
//!   brute force is monotone in `nprobe`, so a degraded response is a
//!   prefix-quality subset of the full-probe response, never an error.

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
use vectorlite_rag::sim::SimDuration;
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

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
    assert_eq!(report.degraded_probes, 0);

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
    let corpus = corpus();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, enforcing_config(), clock.clone())
        .expect("server starts");
    let query = corpus.vectors.get(0).to_vec();

    // Two drains 10 ms apart give the queue a drain rate (100 jobs/s), the
    // first ingredient of a wait estimate.
    for _ in 0..2 {
        server
            .submit(query.clone())
            .expect("admitted")
            .wait()
            .expect("served");
        clock.advance(SimDuration::from_millis(10.0));
    }

    // The second ingredient is a backlog. Keep the lane fed with
    // unbudgeted work and offer a 1 ns budget under the caller's trace id
    // until a submission observes a non-empty lane: its estimated wait
    // (>= 10 ms at depth 1) dwarfs the budget and admission refuses it.
    let caller = TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c);
    let mut backlog = Vec::new();
    let refusal = (0..100_000)
        .find_map(|_| {
            backlog.push(
                server
                    .submit(query.clone())
                    .expect("unbudgeted work admits"),
            );
            server
                .submit_with_trace(
                    TenantId(0),
                    query.clone(),
                    Some(Duration::from_nanos(1)),
                    Some(caller),
                )
                .err()
        })
        .expect("a fed lane must eventually refuse a 1 ns budget");
    assert!(
        matches!(refusal, AdmissionError::DeadlineUnmeetable { .. }),
        "unexpected refusal: {refusal}"
    );
    for ticket in backlog {
        ticket.wait().expect("unbudgeted work is served");
    }

    // Earlier offers that found the lane empty were admitted and expired
    // in the queue under the same trace id; the refusal adds one more
    // zero-width request root, carrying the admission marker.
    let spans = server
        .trace_plane()
        .trace_spans(caller.0)
        .expect("the caller's trace id must resolve after an admission shed");
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
    assert_eq!(report.degraded_probes, 0);
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
fn half_budget_shrinks_probes_to_exactly_half_and_still_answers() {
    let corpus = corpus();
    let mut config = enforcing_config();
    // Everything hot: rung 4 (cold skip) has nothing to drop, so the only
    // budget action in play is the probe shrink under test.
    config.real.coverage_override = Some(1.0);
    let est_search = config.deadline.est_search;
    let nprobe = config.real.nprobe;
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock).expect("server starts");

    // With a never-advanced VirtualClock, batch formation happens at the
    // submission tick, so remaining == budget exactly. A budget of half
    // the search estimate scales the probe list by exactly 0.5.
    let budget = Duration::from_secs_f64(est_search * 0.5);
    let ticket = server
        .submit_with_deadline(TenantId(0), corpus.vectors.get(0).to_vec(), Some(budget))
        .expect("admitted");
    let response = ticket.wait().expect("degraded, not shed");
    assert_eq!(
        response.neighbors[0].id, 0,
        "the vector's own cluster is the closest probe — a prefix keeps it"
    );

    let report = server.report();
    let expected = (nprobe as f64 * 0.5).ceil() as usize;
    assert_eq!(report.degraded_probes, 1, "exactly one degraded request");
    assert_eq!(
        report.deadline_sheds,
        [0, 0, 0],
        "degradation avoided the shed"
    );
    assert_eq!(report.deadline_met, 1, "the degraded request still made it");
    let journal = server.obs().journal_snapshot();
    let degrade = journal
        .iter()
        .find(|e| e.kind == "degrade")
        .expect("probe shrinks are journaled");
    assert!(
        degrade
            .detail
            .contains(&format!("probes shrunk {nprobe} -> {expected}")),
        "unexpected detail: {}",
        degrade.detail
    );
}

#[test]
fn fast_tier_only_budget_skips_cold_probes_and_still_answers() {
    let corpus = corpus();
    let mut config = enforcing_config();
    // Pin the hot tier small so the full probe list must cross into the
    // cold tier, making the skip observable.
    config.real.coverage_override = Some(0.25);
    let est_search = config.deadline.est_search;
    let est_cold = config.deadline.est_cold;
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock).expect("server starts");

    // Enough remaining budget for the fast tier (no probe shrink), not
    // enough to absorb a cold-tier scan on top.
    let budget = Duration::from_secs_f64(est_search + est_cold * 0.5);
    let ticket = server
        .submit_with_deadline(TenantId(0), corpus.vectors.get(0).to_vec(), Some(budget))
        .expect("admitted");
    let response = ticket.wait().expect("cold-skipped, not shed");
    assert!(!response.neighbors.is_empty());

    let report = server.report();
    assert_eq!(report.cold_skips, 1, "the cold-tier probes were dropped");
    assert_eq!(report.degraded_probes, 0, "the probe count itself was kept");
    assert_eq!(report.deadline_sheds, [0, 0, 0]);
    assert_eq!(report.deadline_met, 1);
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
    // Rungs 3 and 4 keep the full probe list: the whole budget remains at
    // batch formation (the clock never advances) and exceeds both
    // estimates.
    config.deadline.est_search = 0.5 * budget;
    config.deadline.est_cold = 0.0;
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
    assert_eq!((report.degraded_probes, report.cold_skips), (0, 0));
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
        "missing rung-5 marker: {spans:?}"
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

    // Garbage budgets are rejected before admission.
    for bad in ["banana", "-5", "0", "inf", "NaN"] {
        let response = client
            .post_json("/v1/search", &[("X-Deadline-Ms", bad)], &body)
            .expect("exchange");
        assert_eq!(response.status, 400, "X-Deadline-Ms {bad:?} must 400");
    }

    // A generous budget serves normally.
    let ok = client
        .post_json("/v1/search", &[("X-Deadline-Ms", "60000")], &body)
        .expect("exchange");
    assert_eq!(ok.status, 200);

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
        report.completed, 1,
        "only the generous-budget request completed"
    );
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

    /// Rung 3's graceful-degradation contract, at the index layer: the
    /// probe list is closeness-ordered, so a truncated probe run scans a
    /// *prefix* of the full run's clusters. A degraded search is therefore
    /// a prefix-quality subset of the full search — its recall against
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
        // never reorders — exactly what the batcher's rung 3 relies on.
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
