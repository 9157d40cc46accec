//! Integration: causal request tracing, per-stage CPU profiling, and the
//! SLO burn-rate watchdog, exercised through the public HTTP surface.
//!
//! 1. A socket-level client sends W3C `traceparent` headers, drives a
//!    co-batched two-request load on `VirtualClock`, and reads the span
//!    tree back over `GET /v1/trace/{id}`: the shared batch span links
//!    both client trace ids, per-shard scan spans nest under it, and
//!    every span boundary is pinned to the exact virtual tick the round
//!    ran at (no real time leaks into recorded spans).
//! 2. `GET /v1/profile` reports nonzero per-stage CPU for the scan stage:
//!    stage sections accrue real `CLOCK_THREAD_CPUTIME_ID` deltas even
//!    while the wall clock is virtual, which is exactly the wall-vs-CPU
//!    split the profiler exists to expose.
//! 3. Span trees emitted by the plane are well-formed under proptest:
//!    children nest within their parents and the batch span covers every
//!    member's search span (the `tree_violations` checker is the oracle).
//! 4. One store, three guarantees: a request that missed its deadline
//!    keeps its tree *and* the
//!    batch trace it links through a flood of twice the store's capacity;
//!    a client replaying one `traceparent` cannot grow a trace past the
//!    span cap; a reader never sees a half-recorded request tree.
//! 5. The Prometheus exposition is validated line by line — HELP/TYPE
//!    precede every family's samples, counters end in `_total`, label
//!    values parse under the escaping rules — and its HELP/TYPE skeleton
//!    is pinned by a golden file (`VLITE_UPDATE_GOLDEN=1` regenerates).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use vectorlite_rag::core::RealConfig;
use vectorlite_rag::metrics::spans::tree_violations;
use vectorlite_rag::metrics::spans::MAX_SPANS_PER_TRACE;
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::http::{wire, HttpClient, HttpFrontend};
use vectorlite_rag::serve::trace::{KEPT_CAPACITY, TRACE_CAPACITY};
use vectorlite_rag::serve::{
    GenerationConfig, GenerationTimings, RagServer, RequestOutcome, RequestTimings, ServeConfig,
    TenantId, TraceConfig, TraceId, TracePlane, VirtualClock,
};
use vectorlite_rag::sim::{SimDuration, SimTime};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

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

/// GET `path` and decode the JSON body, asserting the given status.
fn get_json(client: &mut HttpClient, path: &str, want_status: u16) -> Json {
    let response = client.get(path).expect("exchange");
    assert_eq!(
        response.status,
        want_status,
        "GET {path}: {}",
        String::from_utf8_lossy(&response.body)
    );
    response.json().expect("JSON body")
}

/// The `spans` array of a `/v1/trace/{id}` document.
fn spans_of(doc: &Json) -> &[Json] {
    doc.get("spans")
        .and_then(Json::as_array)
        .expect("trace doc has a spans array")
}

/// Finds the first span named `name` in a trace document.
fn find_span<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    spans_of(doc)
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
}

/// Polls `/v1/trace/{id}` until the trace exists *and* contains a span
/// named `span_name`. Span records land after the client's reply is sent
/// (the dispatcher records the batch span after unblocking the tickets),
/// so visibility is eventually-consistent; the poll is bounded and uses
/// `yield_now` only — no real sleeps, so `VirtualClock` determinism holds.
fn poll_trace(client: &mut HttpClient, id_hex: &str, span_name: &str) -> Json {
    for _ in 0..200_000 {
        let response = client
            .get(&format!("/v1/trace/{id_hex}"))
            .expect("exchange");
        if response.status == 200 {
            let doc = response.json().expect("trace JSON");
            if find_span(&doc, span_name).is_some() {
                return doc;
            }
        }
        std::thread::yield_now();
    }
    panic!("trace {id_hex} never exposed a `{span_name}` span");
}

/// Asserts every span boundary in the document equals `tick_s` exactly:
/// on `VirtualClock` no time passes unless the test advances it, so a
/// round that never advances must pin every boundary to its launch tick.
fn assert_pinned_to_tick(doc: &Json, tick_s: f64, what: &str) {
    for span in spans_of(doc) {
        let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
        let start = span.get("start_s").and_then(Json::as_f64).expect("start_s");
        let end = span.get("end_s").and_then(Json::as_f64).expect("end_s");
        assert!(
            start == tick_s && end == tick_s,
            "{what} span `{name}` not pinned to tick {tick_s}: [{start}, {end}]"
        );
    }
}

#[test]
fn co_batched_requests_share_a_batch_span_pinned_to_exact_ticks() {
    let corpus = corpus();
    let config = config();
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config.clone(), clock.clone()).expect("starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let addr = frontend.addr();
    let body = wire::search_request_to_json(corpus.vectors.get(0)).render();

    // Co-batching two independent sockets is a race the one-batch-in-flight
    // protocol makes likely but not certain: an in-process "plug" occupies
    // the batch slot while both clients post behind a barrier, so the two
    // requests usually queue together and drain into the next batch as one.
    // Each round runs on a fresh exact tick; retry until a round wins.
    let mut won = false;
    for round in 1..=40u64 {
        let tick = clock.advance(SimDuration::from_millis(5.0));
        let tick_s = tick.as_nanos() as f64 / 1e9;
        let ids = [
            (0xAAAA_u128 << 64) | u128::from(round),
            (0xBBBB_u128 << 64) | u128::from(round),
        ];
        let plug = frontend
            .server()
            .submit(corpus.vectors.get(1).to_vec())
            .expect("plug admitted");
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let barrier = Arc::clone(&barrier);
                let body = body.clone();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("client connects");
                    let parent = format!("00-{id:032x}-00000000000000aa-01");
                    barrier.wait();
                    client
                        .post_json("/v1/search", &[("traceparent", &parent)], &body)
                        .expect("exchange")
                })
            })
            .collect();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        plug.wait().expect("plug completes");

        let mut client = HttpClient::connect(addr).expect("client connects");
        let mut batch_ids = Vec::new();
        for (&id, response) in ids.iter().zip(&responses) {
            assert_eq!(response.status, 200, "search must succeed");
            let id_hex = format!("{id:032x}");
            // The response propagates the client's trace id in both the
            // W3C header and the JSON body.
            let echoed = response.header("traceparent").expect("traceparent header");
            assert_eq!(
                echoed.split('-').nth(1),
                Some(id_hex.as_str()),
                "response traceparent must carry the client's trace id"
            );
            let body_json = response.json().expect("search response JSON");
            assert_eq!(
                body_json.get("trace_id").and_then(Json::as_str),
                Some(id_hex.as_str()),
                "search body must carry the client's trace id"
            );
            let doc = poll_trace(&mut client, &id_hex, "search");
            let search = find_span(&doc, "search").expect("search span");
            let links = search
                .get("links")
                .and_then(Json::as_array)
                .expect("search span links");
            assert_eq!(links.len(), 1, "search links exactly its batch trace");
            batch_ids.push((
                id_hex,
                links[0].as_str().expect("batch link is hex").to_string(),
                doc,
            ));
        }

        if batch_ids[0].1 != batch_ids[1].1 {
            continue; // the race lost this round; retry on the next tick
        }

        // The shared batch span: root of its own trace, linking every
        // member, with the per-shard scan spans nested beneath it.
        let batch_hex = batch_ids[0].1.clone();
        let batch_doc = poll_trace(&mut client, &batch_hex, "batch");
        let batch_span = find_span(&batch_doc, "batch").expect("batch span");
        assert!(
            batch_span.get("parent_id") == Some(&Json::Null),
            "the batch span is a root span"
        );
        let batch_span_id = batch_span.get("span_id").and_then(Json::as_u64).unwrap();
        let batch_links: Vec<&str> = batch_span
            .get("links")
            .and_then(Json::as_array)
            .expect("batch links")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        for (id_hex, _, _) in &batch_ids {
            assert!(
                batch_links.contains(&id_hex.as_str()),
                "batch span must link member {id_hex} (links: {batch_links:?})"
            );
        }
        let scan_names: Vec<&str> = spans_of(&batch_doc)
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("scan:"))
            })
            .map(|s| {
                assert_eq!(
                    s.get("parent_id").and_then(Json::as_u64),
                    Some(batch_span_id),
                    "scan spans nest under the batch span"
                );
                s.get("name").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert!(
            scan_names.iter().any(|n| n.starts_with("scan:shard")),
            "expected per-shard scan children, got {scan_names:?}"
        );

        // Every boundary — in both request trees and the batch tree — is
        // the launch tick, exactly: admission, batch launch, merge, and
        // completion all happened at the same virtual instant.
        assert_pinned_to_tick(&batch_doc, tick_s, "batch");
        for (id_hex, _, doc) in &batch_ids {
            assert_pinned_to_tick(doc, tick_s, "request");
            for name in ["request", "queue"] {
                assert!(
                    find_span(doc, name).is_some(),
                    "request tree {id_hex} missing `{name}` span"
                );
            }
        }

        // The Chrome trace_event export of the same trace.
        let chrome = get_json(
            &mut client,
            &format!("/v1/trace/{batch_hex}?format=chrome"),
            200,
        );
        let events = chrome
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "chrome export must carry events");
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("args").and_then(|a| a.get("trace_id")).is_some());
        }

        // Error surface: malformed ids 400, unknown ids 404, bad formats 400.
        let bad = client.get("/v1/trace/not-hex").expect("exchange");
        assert_eq!(bad.status, 400);
        let missing = client
            .get(&format!("/v1/trace/{}", "f".repeat(32)))
            .expect("exchange");
        assert_eq!(missing.status, 404);
        let format = client
            .get(&format!("/v1/trace/{batch_hex}?format=bogus"))
            .expect("exchange");
        assert_eq!(format.status, 400);

        won = true;
        break;
    }
    assert!(
        won,
        "no round co-batched the two socket requests in 40 tries"
    );
    frontend.shutdown();
}

#[test]
fn profile_reports_scan_stage_cpu_and_watchdog_surfaces_render() {
    let corpus = corpus();
    let config = config();
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config.clone(), clock.clone()).expect("starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");

    let queries = corpus.queries(60, 99);
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| frontend.server().submit(q.to_vec()).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("completed");
    }

    let mut client = HttpClient::connect(frontend.addr()).expect("client connects");
    let profile = get_json(&mut client, "/v1/profile", 200);
    assert_eq!(profile.get("enabled").and_then(Json::as_bool), Some(true));
    let stages = profile
        .get("stages")
        .and_then(Json::as_array)
        .expect("stages array");
    let scan = stages
        .iter()
        .find(|s| s.get("stage").and_then(Json::as_str) == Some("shard_scan"))
        .expect("shard_scan stage row");
    let sections = scan.get("sections").and_then(Json::as_u64).unwrap_or(0);
    assert!(sections > 0, "scan stage recorded no instrumented sections");
    // Virtual wall time never advanced while scans ran, so the wall column
    // is zero — but the threads burned real CPU, which is the whole point
    // of the wall-vs-CPU split.
    assert_eq!(scan.get("wall_s").and_then(Json::as_f64), Some(0.0));
    #[cfg(target_os = "linux")]
    {
        assert_eq!(
            profile.get("cpu_clock_supported").and_then(Json::as_bool),
            Some(true)
        );
        let cpu_s = scan.get("cpu_s").and_then(Json::as_f64).expect("cpu_s");
        assert!(
            cpu_s > 0.0,
            "scan stage must accrue thread CPU time (got {cpu_s})"
        );
        let collapsed = profile
            .get("collapsed")
            .and_then(Json::as_str)
            .expect("collapsed stacks");
        assert!(
            collapsed
                .lines()
                .any(|l| l.starts_with("vlite;shard_scan ")),
            "collapsed stacks missing the scan stage: {collapsed:?}"
        );
    }

    // The SLO burn-rate watchdog surface: all three signals report, each
    // with a level, multi-window burn rates, and the configured target.
    let alerts = get_json(&mut client, "/v1/alerts", 200);
    assert_eq!(alerts.get("enabled").and_then(Json::as_bool), Some(true));
    let rows = alerts
        .get("alerts")
        .and_then(Json::as_array)
        .expect("alerts array");
    let signals: HashSet<&str> = rows
        .iter()
        .filter_map(|r| r.get("signal").and_then(Json::as_str))
        .collect();
    assert_eq!(
        signals,
        HashSet::from(["search", "ttft", "deadline"]),
        "the watchdog tracks all three SLO signals"
    );
    for row in rows {
        let level = row.get("level").and_then(Json::as_str).expect("level");
        assert!(
            ["ok", "warn", "critical"].contains(&level),
            "unexpected alert level {level:?}"
        );
        assert!(row.get("fast_burn").and_then(Json::as_f64).is_some());
        assert!(row.get("slow_burn").and_then(Json::as_f64).is_some());
    }

    // Journal severity: the filter narrows, an unknown severity is a 400,
    // and the healthz document reports the build version (satellites).
    let events = get_json(&mut client, "/v1/events?severity=critical", 200);
    assert_eq!(
        events.get("severity").and_then(Json::as_str),
        Some("critical")
    );
    for event in events
        .get("events")
        .and_then(Json::as_array)
        .expect("events array")
    {
        assert_eq!(
            event.get("severity").and_then(Json::as_str),
            Some("critical")
        );
    }
    let bad = client.get("/v1/events?severity=loud").expect("exchange");
    assert_eq!(bad.status, 400, "unknown severity must 400");

    let health = get_json(&mut client, "/healthz", 200);
    let version = health
        .get("version")
        .and_then(Json::as_str)
        .expect("healthz carries the build version");
    assert!(
        !version.is_empty() && version.contains('.'),
        "implausible version {version:?}"
    );

    frontend.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Driving the plane through its full recording surface — batches,
    /// per-shard scans, member requests (with and without generation),
    /// and migrations stalling an in-flight batch — always yields
    /// well-formed span trees, and the batch span covers every member's
    /// search span.
    #[test]
    fn span_trees_are_well_formed(
        rounds in prop::collection::vec(
            (
                1usize..4,    // members per batch
                0.0f64..10.0, // admission time
                (
                    prop::collection::vec(0.0f64..0.5, 3..4), // queue/search/tail widths
                    any::<bool>(),                            // generation phase?
                    any::<bool>(),                            // migration mid-batch?
                ),
            ),
            1..8,
        ),
    ) {
        let plane = TracePlane::new(&TraceConfig::default(), 0x5eed);
        let mut batches: Vec<(Vec<TraceId>, u128)> = Vec::new();
        let mut uid = 0u128;
        for (n_members, t0, (widths, with_gen, with_migration)) in rounds {
            let t1 = t0 + widths[0];
            let t2 = t1 + widths[1];
            let t3 = t2 + widths[2];
            let members: Vec<TraceId> = (0..n_members)
                .map(|_| {
                    uid += 1;
                    TraceId(uid)
                })
                .collect();
            let ctx = plane.begin_batch(&members).expect("tracing enabled");
            for shard in 0..2 {
                plane.record_scan(
                    &ctx,
                    format!("scan:shard{shard}"),
                    SimTime::from_secs_f64(t1),
                    SimTime::from_secs_f64(t2),
                );
            }
            if with_migration {
                // Mid-batch: the migration trace links the stalled batch and
                // the batch trace gets a zero-width stall marker back.
                plane.record_migration(
                    "repartition",
                    SimTime::from_secs_f64(t1),
                    SimTime::from_secs_f64(t2),
                );
            }
            plane.end_batch(&ctx, SimTime::from_secs_f64(t1), SimTime::from_secs_f64(t2));
            // Stage widths as the server derives them: differences of
            // clock stamps.
            let [enqueued, launched, merged, end] = [t0, t1, t2, t3].map(SimTime::from_secs_f64);
            let queue = (launched - enqueued).as_secs_f64();
            let search = (merged - launched).as_secs_f64();
            for &member in &members {
                let phase = widths[2] * 0.25;
                plane.record_request(&RequestOutcome {
                    id: member.0 as u64,
                    tenant: TenantId(0),
                    trace: member,
                    batch_trace: Some(ctx.trace_id),
                    enqueued,
                    end,
                    timings: RequestTimings {
                        queue,
                        search,
                        e2e: (end - enqueued).as_secs_f64(),
                        generation: with_gen.then_some(GenerationTimings {
                            gen_queue: phase,
                            prefill: phase,
                            decode: phase,
                            ttft: queue + search + 2.0 * phase,
                        }),
                    },
                    hit_rate: 1.0,
                    deadline: None,
                    gen_busy: None,
                    shed: None,
                }, false);
            }
            batches.push((members, ctx.trace_id));
        }

        for (members, batch_id) in batches {
            let batch_spans = plane.trace_spans(batch_id).expect("batch trace held");
            let violations = tree_violations(&batch_spans);
            prop_assert!(violations.is_empty(), "batch trace malformed: {violations:?}");
            let batch = batch_spans
                .iter()
                .find(|s| s.name == "batch")
                .expect("batch span recorded");
            for member in &members {
                prop_assert!(
                    batch.links.contains(&member.0),
                    "batch span must link member {:032x}",
                    member.0
                );
                let spans = plane.trace_spans(member.0).expect("member trace held");
                let violations = tree_violations(&spans);
                prop_assert!(violations.is_empty(), "member trace malformed: {violations:?}");
                let search = spans
                    .iter()
                    .find(|s| s.name == "search")
                    .expect("search span recorded");
                prop_assert!(
                    search.start_s >= batch.start_s - 1e-9 && search.end_s <= batch.end_s + 1e-9,
                    "batch span [{}, {}] does not cover member search span [{}, {}]",
                    batch.start_s,
                    batch.end_s,
                    search.start_s,
                    search.end_s
                );
            }
        }
    }
}

/// The entries of one ring (`recent` / `slow`) of a `/v1/traces` body.
fn listed<'a>(listing: &'a Json, ring: &str) -> &'a [Json] {
    listing.get(ring).and_then(Json::as_array).expect("ring")
}

#[test]
fn slow_request_keeps_its_tree_and_its_batch_through_a_flood() {
    let corpus = corpus();
    let config = config();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config, clock.clone()).expect("starts");
    let query = corpus.vectors.get(0).to_vec();

    // One request past its 1 ms deadline (measured, not enforced): the
    // clock jumps 5 ms right after admission, so the batcher launches it
    // 5 ms late. Should the batcher win the race and launch before the
    // jump, the request meets its deadline and is just one more fast one;
    // try again.
    let budget = Some(Duration::from_millis(1));
    let mut fast = 0usize;
    let slow = loop {
        let ticket = server
            .submit_with_deadline(TenantId(0), query.clone(), budget)
            .expect("admitted");
        clock.advance(SimDuration::from_millis(5.0));
        let response = ticket.wait().expect("served");
        if response.timings.e2e >= 0.001 {
            break response;
        }
        fast += 1;
        assert!(
            fast < 100,
            "the batcher beat a clock jump 100 times running"
        );
    };
    // Then twice the store's capacity of fast ones, each alone in its
    // batch: a request trace and a batch trace apiece.
    for _ in 0..2 * TRACE_CAPACITY {
        let response = server.submit(query.clone()).expect("admitted").wait();
        assert_eq!(response.expect("served").timings.e2e, 0.0);
        fast += 1;
    }

    let plane = server.trace_plane();
    let listing = plane.traces_json();
    let [entry] = listed(&listing, "slow") else {
        panic!("exactly the slow request is kept: {}", listing.render());
    };
    let slow_hex = slow.trace.to_string();
    assert_eq!(entry.get("id").and_then(Json::as_u64), Some(slow.id));
    assert_eq!(
        entry.get("trace_id").and_then(Json::as_str),
        Some(slow_hex.as_str())
    );
    // Every ordinary trace but the newest TRACE_CAPACITY was evicted.
    assert_eq!(
        listing.get("recent_evicted").and_then(Json::as_u64),
        Some((2 * fast - TRACE_CAPACITY) as u64)
    );
    assert_eq!(listing.get("slow_evicted").and_then(Json::as_u64), Some(0));

    // Its tree is whole, and the batch its search span links still resolves.
    let spans = plane.trace_spans(slow.trace.0).expect("kept");
    assert!(tree_violations(&spans).is_empty(), "{spans:?}");
    assert!(spans
        .iter()
        .any(|s| s.name == "request" && s.parent_id.is_none()));
    let doc = plane.trace_json(slow.trace.0).expect("kept");
    let [batch_doc] = listed(&doc, "linked") else {
        panic!("the batch trace must still be held: {}", doc.render());
    };
    let batch = find_span(batch_doc, "batch").expect("batch root span");
    assert_eq!(listed(batch, "links")[0].as_str(), Some(slow_hex.as_str()));
    server.shutdown();
}

#[test]
fn a_replayed_traceparent_lists_every_request_but_cannot_outgrow_the_span_cap() {
    let corpus = corpus();
    let config = config();
    let clock = Arc::new(VirtualClock::new());
    let server = RagServer::start_with_clock(&corpus, config.clone(), clock).expect("starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let mut client = HttpClient::connect(frontend.addr()).expect("client connects");
    let body = wire::search_request_to_json(corpus.vectors.get(0)).render();

    // A retrieval-only tree is three spans; send a dozen more requests
    // under one trace id than the cap has room for.
    let id_hex = format!("{:032x}", 0xC0FFEE_u128);
    let parent = format!("00-{id_hex}-00000000000000aa-01");
    let fit = MAX_SPANS_PER_TRACE / 3;
    for _ in 0..fit + 12 {
        let response = client
            .post_json("/v1/search", &[("traceparent", &parent)], &body)
            .expect("exchange");
        assert_eq!(response.status, 200);
    }

    // The requests that fit list as separate entries sharing the id.
    let listing = get_json(&mut client, "/v1/traces", 200);
    let sharing: Vec<u64> = listed(&listing, "recent")
        .iter()
        .filter(|e| e.get("trace_id").and_then(Json::as_str) == Some(id_hex.as_str()))
        .map(|e| e.get("id").and_then(Json::as_u64).expect("id"))
        .collect();
    assert_eq!(sharing, (0..fit as u64).collect::<Vec<_>>());
    // The trace stopped at the cap with whole trees only; the rest were
    // dropped and counted on the ring-evictions family.
    let doc = get_json(&mut client, &format!("/v1/trace/{id_hex}"), 200);
    assert_eq!(spans_of(&doc).len(), 3 * fit);
    let scrape = client.get("/v1/metrics").expect("scrape");
    let text = String::from_utf8(scrape.body).expect("UTF-8 exposition");
    let dropped = "vlite_obs_ring_evictions_total{ring=\"trace_spans\"} 36";
    assert!(text.lines().any(|l| l == dropped), "missing `{dropped}`");
    frontend.shutdown();
}

#[test]
fn a_reader_never_sees_a_half_recorded_request_tree() {
    let corpus = corpus();
    let mut config = config();
    config.generation = Some(GenerationConfig::tiny());
    let server = RagServer::start(&corpus, config).expect("starts");
    // Kept (slow, or past its TTFT SLO) or not, each request's tree takes
    // one slot and its batch trace rides along, so this many fit the kept
    // queue and the reader's last pass must find every one of them.
    let n = KEPT_CAPACITY as u128;
    let ids: Vec<TraceId> = (1..=n).map(|n| TraceId((0xD00D << 64) | n)).collect();

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (plane, ids, done) = (server.trace_handle(), ids.clone(), Arc::clone(&done));
        std::thread::spawn(move || loop {
            // Read the flag first: the pass after the last reply still
            // checks every tree.
            let last_pass = done.load(Ordering::Acquire);
            let held = ids.iter().filter_map(|id| plane.trace_spans(id.0));
            let seen = held
                .inspect(|spans| {
                    assert_eq!(spans[0].name, "request", "no root: {spans:?}");
                    assert_eq!(spans.len(), 6, "partial tree: {spans:?}");
                    assert_eq!(tree_violations(spans), Vec::<String>::new());
                })
                .count();
            if last_pass {
                return seen;
            }
        })
    };

    let queries = corpus.queries(ids.len(), 5);
    let tickets: Vec<_> = ids
        .iter()
        .zip(queries.iter())
        .map(|(&id, q)| server.submit_with_trace(TenantId(0), q.to_vec(), None, Some(id)))
        .collect();
    for ticket in tickets {
        ticket.expect("admitted").wait().expect("served");
    }
    done.store(true, Ordering::Release);
    let seen = reader.join().expect("reader saw only whole trees");
    assert_eq!(seen, ids.len(), "the last pass sees every tree");
    server.shutdown();
}

/// Splits a Prometheus sample key into name and parsed labels, enforcing
/// the exposition's escaping rules (`\\`, `\"`, `\n` inside values).
fn parse_sample_key(key: &str) -> Result<(String, Vec<(String, String)>), String> {
    let Some(brace) = key.find('{') else {
        return Ok((key.to_string(), Vec::new()));
    };
    let name = key[..brace].to_string();
    let rest = &key[brace + 1..];
    let mut labels = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let mut label = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            if !(c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("bad label name char {c:?} in {key}"));
            }
            label.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label value must be quoted in {key}"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {key}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value in {key}")),
            }
        }
        labels.push((label, value));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => {
                return Err(format!(
                    "expected , or }} after value, got {other:?} in {key}"
                ))
            }
        }
    }
    if chars.next().is_some() {
        return Err(format!("trailing garbage after labels in {key}"));
    }
    Ok((name, labels))
}

#[test]
fn prometheus_exposition_is_well_formed_and_matches_golden() {
    let corpus = corpus();
    let config = config();
    // A virtual clock keeps the scrape deterministic: the control loop
    // stays quiescent, so the family skeleton is a pure function of
    // the configuration and golden-file comparison cannot flake.
    let clock = Arc::new(VirtualClock::new());
    let server =
        RagServer::start_with_clock(&corpus, config.clone(), clock.clone()).expect("starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let mut client = HttpClient::connect(frontend.addr()).expect("client connects");
    let body = wire::search_request_to_json(corpus.vectors.get(0)).render();
    for _ in 0..8 {
        let response = client
            .post_json("/v1/search", &[], &body)
            .expect("exchange");
        assert_eq!(response.status, 200);
    }

    let scrape = client.get("/v1/metrics").expect("scrape");
    assert_eq!(scrape.status, 200);
    let text = String::from_utf8(scrape.body).expect("UTF-8 exposition");
    frontend.shutdown();

    let mut help: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut histogram_parts: HashMap<String, HashSet<&'static str>> = HashMap::new();
    let mut build_info_seen = false;
    let mut skeleton = String::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a family");
            assert!(
                rest.len() > name.len() + 1,
                "HELP for {name} carries no text"
            );
            assert!(help.insert(name.to_string()), "duplicate HELP for {name}");
            skeleton.push_str(line);
            skeleton.push('\n');
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a family");
            let kind = parts.next().expect("TYPE carries a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "family {name} has unknown type {kind}"
            );
            if kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "counter family {name} must end in _total"
                );
            }
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
            skeleton.push_str(line);
            skeleton.push('\n');
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line {line:?}");

        // A sample: `name{labels} value`. Resolve its family, which must
        // have announced HELP and TYPE on earlier lines.
        let (key, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "sample {key} has unparseable value {value:?}"
        );
        let (name, labels) = parse_sample_key(key).expect("sample key parses");
        let family = if types.contains_key(&name) {
            name.clone()
        } else {
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .unwrap_or_else(|| panic!("sample {name} belongs to no family"));
            assert_eq!(
                types.get(base).map(String::as_str),
                Some("histogram"),
                "series {name} must belong to a histogram family"
            );
            for (suffix, part) in [("_bucket", "bucket"), ("_sum", "sum"), ("_count", "count")] {
                if name.ends_with(suffix) {
                    let parts = histogram_parts.entry(base.to_string()).or_default();
                    parts.insert(part);
                    if part == "bucket" && labels.iter().any(|(k, v)| k == "le" && v == "+Inf") {
                        parts.insert("inf_bucket");
                    }
                }
            }
            base.to_string()
        };
        assert!(
            help.contains(&family),
            "sample {name} appears before (or without) its HELP line"
        );
        if name == "vlite_build_info" {
            build_info_seen = true;
            assert_eq!(value, "1", "build info is a constant 1 gauge");
            assert!(
                labels.iter().any(|(k, v)| k == "version" && !v.is_empty()),
                "build info must carry a version label"
            );
        }
    }
    assert!(build_info_seen, "vlite_build_info missing from exposition");
    for (name, kind) in &types {
        assert!(help.contains(name), "family {name} has TYPE but no HELP");
        if kind == "histogram" {
            if let Some(parts) = histogram_parts.get(name) {
                for part in ["bucket", "inf_bucket", "sum", "count"] {
                    assert!(
                        parts.contains(part),
                        "histogram {name} rendered samples but no {part}"
                    );
                }
            }
        }
    }

    // The HELP/TYPE skeleton is pinned: new families must update the
    // golden on purpose (VLITE_UPDATE_GOLDEN=1), not by accident.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_exposition.prom"
    );
    if std::env::var_os("VLITE_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &skeleton).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file exists (regenerate with VLITE_UPDATE_GOLDEN=1)");
    assert_eq!(
        skeleton, golden,
        "Prometheus HELP/TYPE skeleton drifted from the golden file \
         (regenerate with VLITE_UPDATE_GOLDEN=1 if intentional)"
    );
}
