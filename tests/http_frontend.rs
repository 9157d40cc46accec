//! Integration: the HTTP/1.1 network frontend over real loopback sockets.
//!
//! Covers the request path end to end (submit → batch → dispatch → JSON
//! response), the protocol edges a hand-rolled parser must get right
//! (malformed request lines, reads split across `read()` calls, oversized
//! bodies, keep-alive pipelining), the ops endpoints, and JSON round-trip
//! properties for the wire types.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;

use vectorlite_rag::ann::Neighbor;
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::http::{wire, HttpClient, HttpFrontend};
use vectorlite_rag::serve::trace::TRACE_CAPACITY;
use vectorlite_rag::serve::{
    Clock, GenerationTimings, RagServer, RealClock, RequestTimings, SearchResponse, ServeConfig,
    TenantId, TenantSpec, TraceId,
};
use vectorlite_rag::sim::{SimDuration, SimTime};
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

/// A tiny single-tenant server behind a frontend on an OS-picked port.
fn tiny_frontend(max_body: usize) -> (HttpFrontend, SocketAddr, SyntheticCorpus) {
    let corpus = corpus();
    let mut config = ServeConfig::small();
    config.http.max_body = max_body;
    let server = RagServer::start(&corpus, config.clone()).expect("server starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let addr = frontend.addr();
    (frontend, addr, corpus)
}

fn search_body(query: &[f32]) -> String {
    wire::search_request_to_json(query).render()
}

/// Sends raw bytes and reads until the server closes the connection.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.write_all(bytes).expect("writes");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("reads to close");
    out
}

#[test]
fn end_to_end_search_report_and_health_over_the_socket() {
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let mut client = HttpClient::connect(addr).expect("client connects");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let health_json = health.json().expect("healthz is JSON");
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health_json.get("tenants").and_then(Json::as_u64), Some(1));

    let tenants = client.get("/v1/tenants").expect("tenants");
    assert_eq!(tenants.status, 200);
    assert_eq!(
        tenants.json().unwrap().as_array().map(<[_]>::len),
        Some(1),
        "implicit single tenant"
    );

    // A vector is its own nearest neighbor, through the whole HTTP path.
    let response = client
        .post_json("/v1/search", &[], &search_body(corpus.vectors.get(0)))
        .expect("search");
    assert_eq!(response.status, 200);
    let decoded = wire::search_response_from_json(&response.json().unwrap()).expect("decodes");
    assert_eq!(decoded.tenant, TenantId(0));
    assert_eq!(decoded.neighbors[0].id, 0);
    assert!(decoded.timings.e2e >= decoded.timings.search);

    let report = client.get("/v1/report").expect("report");
    assert_eq!(report.status, 200);
    let report_json = report.json().expect("report is JSON");
    assert_eq!(report_json.get("completed").and_then(Json::as_u64), Some(1));

    let final_report = frontend.shutdown();
    assert_eq!(final_report.completed, 1);
    assert_eq!(final_report.admitted, 1);
}

#[test]
fn observability_endpoints_over_the_socket() {
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let mut client = HttpClient::connect(addr).expect("client connects");

    let n = 5;
    for qi in 0..n {
        let response = client
            .post_json("/v1/search", &[], &search_body(corpus.vectors.get(qi)))
            .expect("search");
        assert_eq!(response.status, 200);
    }

    // The scrape endpoint speaks Prometheus text exposition, not JSON.
    let metrics = client.get("/v1/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "exposition content type"
    );
    let text = String::from_utf8(metrics.body.clone()).expect("UTF-8 exposition");
    let value = |name: &str| -> f64 {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (key, v) = l.rsplit_once(' ')?;
                (key == name).then(|| v.parse().expect("numeric sample"))
            })
            .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
    };
    assert_eq!(value("vlite_admitted_total") as u64, n as u64);
    assert_eq!(value("vlite_completed_total") as u64, n as u64);
    assert_eq!(value("vlite_rejected_total"), 0.0);
    assert_eq!(
        value("vlite_stage_seconds_count{stage=\"search\"}") as u64,
        n as u64
    );
    assert!(value("vlite_uptime_seconds") >= 0.0);
    assert!(value("vlite_queue_depth") >= 0.0);

    // Scraped totals agree with the JSON report of the same run.
    let report = client.get("/v1/report").expect("report");
    let report_json = report.json().expect("report is JSON");
    assert_eq!(
        report_json.get("completed").and_then(Json::as_u64),
        Some(value("vlite_completed_total") as u64)
    );

    // Trace timelines: every search of this run is listed, and the listing
    // is a view over the span store — each entry's `trace_id` resolves at
    // `/v1/trace/{id}`, and its spans are the `request` root's children
    // rebased to the root's start.
    let traces = client.get("/v1/traces").expect("traces");
    assert_eq!(traces.status, 200);
    let traces_json = traces.json().expect("traces are JSON");
    for key in ["slow", "recent_evicted", "slow_evicted"] {
        assert!(traces_json.get(key).is_some(), "listing lost `{key}`");
    }
    let recent = traces_json.get("recent").and_then(Json::as_array);
    let recent = recent.expect("recent ring");
    assert_eq!(recent.len(), n);
    let num = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).expect("number");
    let array = |doc: &Json| {
        doc.get("spans")
            .and_then(Json::as_array)
            .expect("spans")
            .to_vec()
    };
    for (qi, entry) in recent.iter().enumerate() {
        assert_eq!(num(entry, "id"), qi as f64);
        assert_eq!(num(entry, "tenant"), 0.0);
        assert_eq!(entry.get("shed"), Some(&Json::Bool(false)));
        let trace_id = entry.get("trace_id").and_then(Json::as_str).expect("id");
        let tree = client
            .get(&format!("/v1/trace/{trace_id}"))
            .expect("drill-down");
        assert_eq!(tree.status, 200, "listed trace {trace_id} must resolve");
        let spans = array(&tree.json().expect("tree is JSON"));
        let name = |span: &Json| span.get("name").and_then(Json::as_str).map(str::to_owned);
        let root = spans.iter().find(|s| name(s).as_deref() == Some("request"));
        let root = root.expect("request root");
        let t0 = num(root, "start_s");
        assert_eq!(num(entry, "admitted_ns"), (t0 * 1e9).round());
        assert_eq!(num(entry, "e2e_s"), num(root, "end_s") - t0);
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.get("parent_id") == root.get("span_id"))
            .map(|s| (name(s), num(s, "start_s") - t0, num(s, "end_s") - t0))
            .collect();
        let stage = |s: &Json| s.get("stage").and_then(Json::as_str).map(str::to_owned);
        let listed: Vec<_> = array(entry)
            .iter()
            .map(|s| (stage(s), num(s, "start_s"), num(s, "end_s")))
            .collect();
        assert_eq!(listed, children);
        assert_eq!(listed.len(), 2, "queue and search");
    }

    // The event journal renders (possibly empty on an undisturbed run).
    let events = client.get("/v1/events").expect("events");
    assert_eq!(events.status, 200);
    assert!(events
        .json()
        .expect("events are JSON")
        .get("events")
        .is_some());

    // /healthz carries the new lock-free liveness fields.
    let health = client.get("/healthz").expect("healthz");
    let health_json = health.json().expect("healthz is JSON");
    assert_eq!(
        health_json.get("completed").and_then(Json::as_u64),
        Some(n as u64)
    );
    assert_eq!(
        health_json.get("worker_panics").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(health_json.get("obs_enabled"), Some(&Json::Bool(true)));

    // The new paths are GET-only.
    let post = client
        .post_json("/v1/metrics", &[], "{}")
        .expect("405 exchange");
    assert_eq!(post.status, 405);
    assert_eq!(post.header("allow"), Some("GET"));

    frontend.shutdown();
}

#[test]
fn malformed_request_lines_get_400_and_a_closed_connection() {
    let (frontend, addr, _) = tiny_frontend(1 << 20);
    for bad in [
        "BADLY FORMED\r\n\r\n",
        "GET /healthz HTTP/9.9\r\n\r\n",
        "GET /healthz HTTP/1.1 junk\r\n\r\n",
    ] {
        let reply = raw_exchange(addr, bad.as_bytes());
        let status: &str = reply.split("\r\n").next().unwrap();
        assert!(
            status.contains("400") || status.contains("505"),
            "{bad:?} answered {status:?}"
        );
        assert!(reply.contains("Connection: close"));
    }
    // The frontend survives garbage: a well-formed request still works.
    let mut client = HttpClient::connect(addr).expect("connects after garbage");
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    frontend.shutdown();
}

#[test]
fn requests_split_across_many_reads_still_parse() {
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let body = search_body(corpus.vectors.get(3));
    let request = format!(
        "POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let bytes = request.as_bytes();
    let mut stream = TcpStream::connect(addr).expect("connects");
    // Dribble the request out a few bytes at a time, across the head/body
    // boundary, with pauses longer than the server's poll interval.
    for chunk in bytes.chunks(bytes.len() / 5 + 1) {
        stream.write_all(chunk).expect("writes chunk");
        stream.flush().unwrap();
        // vlite-allow(clock-discipline): deliberately dribbles bytes slower
        // than the server's poll interval; the pause is the test subject.
        std::thread::sleep(Duration::from_millis(60));
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reads");
    assert!(reply.starts_with("HTTP/1.1 200"), "got {reply}");
    assert!(reply.contains("\"neighbors\":[{\"id\":3,"));
    frontend.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let (frontend, addr, _) = tiny_frontend(128);
    let request = format!(
        "POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n{}",
        "x".repeat(64) // only part of the body; the head alone must trip it
    );
    let reply = raw_exchange(addr, request.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 413"), "got {reply}");
    assert!(reply.contains("Connection: close"));
    // In-limit requests still fine on a fresh connection.
    let mut client = HttpClient::connect(addr).expect("connects");
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    frontend.shutdown();
}

#[test]
fn keep_alive_pipelining_answers_every_buffered_request_in_order() {
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let body = search_body(corpus.vectors.get(5));
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}\
         GET /v1/tenants HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        body.len(),
        body
    );
    let reply = raw_exchange(addr, pipelined.as_bytes());
    let statuses: Vec<usize> = reply
        .match_indices("HTTP/1.1 200 OK")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(statuses.len(), 3, "three pipelined responses in {reply}");
    // Responses come back in request order: health, search, tenants.
    let health_at = reply.find("\"status\":\"ok\"").expect("health body");
    let search_at = reply.find("\"neighbors\"").expect("search body");
    let tenants_at = reply.find("\"queue_capacity\"").expect("tenants body");
    assert!(health_at < search_at && search_at < tenants_at);
    assert_eq!(reply.matches("Connection: keep-alive").count(), 2);
    assert_eq!(reply.matches("Connection: close").count(), 1);
    let report = frontend.shutdown();
    assert_eq!(report.completed, 1, "one search among the pipeline");
}

#[test]
fn routing_errors_are_distinguishable() {
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let mut client = HttpClient::connect(addr).expect("connects");

    let wrong_method = client.get("/v1/search").expect("405 exchange");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));

    let missing = client.get("/v1/nope").expect("404 exchange");
    assert_eq!(missing.status, 404);

    let bad_tenant = client
        .post_json(
            "/v1/search",
            &[("X-Tenant", "7")],
            &search_body(corpus.vectors.get(0)),
        )
        .expect("unknown-tenant exchange");
    assert_eq!(bad_tenant.status, 400, "tenant 7 of 1 is unknown");

    let bad_json = client
        .post_json("/v1/search", &[], "{\"query\":[1,2,")
        .expect("bad-JSON exchange");
    assert_eq!(bad_json.status, 400);

    let empty_query = client
        .post_json("/v1/search", &[], "{\"query\":[]}")
        .expect("empty-query exchange");
    assert_eq!(empty_query.status, 400);

    frontend.shutdown();
}

#[test]
fn malformed_query_vectors_are_refused_at_admission_not_downstream() {
    // Regression: a wrong-dimension or non-finite query used to sail
    // through `submit_for` and panic a shard worker (the SIMD wrappers
    // assert on slice lengths, NaN poisons the top-k order). Admission
    // must refuse it, and over the socket that is a 400 — not a hung
    // connection over a dead worker.
    let (frontend, addr, corpus) = tiny_frontend(1 << 20);
    let mut client = HttpClient::connect(addr).expect("connects");

    // Wrong dimension: 3 components against an 8-d index.
    let wrong_dim = client
        .post_json("/v1/search", &[], &search_body(&[1.0, 2.0, 3.0]))
        .expect("wrong-dim exchange");
    assert_eq!(wrong_dim.status, 400);
    let message = wrong_dim
        .json()
        .expect("JSON error body")
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    assert!(
        message.contains("dimensions"),
        "the 400 must say why: {message}"
    );

    // NaN cannot transit JSON, so the wire layer already 400s it.
    let nan_body = client
        .post_json("/v1/search", &[], "{\"query\":[NaN,0,0,0,0,0,0,0]}")
        .expect("NaN exchange");
    assert_eq!(nan_body.status, 400);

    // In process (the path loadgen and embedders use), a non-finite
    // component is an admission error with the non-finite flag set.
    let server = frontend.server();
    let err = server
        .submit(vec![f32::NAN, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        .expect_err("NaN query must be refused");
    assert_eq!(
        err,
        vectorlite_rag::serve::AdmissionError::InvalidQuery {
            expected_dim: 8,
            got_dim: 8,
            non_finite: true,
        }
    );

    // The worker pool survived all of it: the same connection still
    // serves a healthy query, and no worker panicked.
    let ok = client
        .post_json("/v1/search", &[], &search_body(corpus.vectors.get(0)))
        .expect("healthy exchange");
    assert_eq!(ok.status, 200);
    let health = client.get("/healthz").expect("healthz").json().unwrap();
    assert_eq!(
        health.get("worker_panics").and_then(Json::as_u64),
        Some(0),
        "malformed queries must never reach (and kill) a worker"
    );

    frontend.shutdown();
}

/// The wall clock, with every read on an HTTP connection thread delayed by
/// 50 µs: a request scanned on its connection thread then holds its
/// caller-scan slot for many reads, long enough that a flood of more
/// connections than slots finds them all taken.
#[derive(Debug, Default)]
struct SlowConnectionClock(RealClock);

impl Clock for SlowConnectionClock {
    fn now(&self) -> SimTime {
        // The frontend names its connection threads `vlite-http-conn`.
        if std::thread::current().name() == Some("vlite-http-conn") {
            self.0
                .sleep_until(self.0.now() + SimDuration::from_micros(50));
        }
        self.0.now()
    }

    fn sleep_until(&self, deadline: SimTime) {
        self.0.sleep_until(deadline);
    }
}

/// More keep-alive connections than the host has hardware threads, split
/// over two tenants, post closed-loop: the first requests scan on their
/// connection threads, the overflow queues and is batched, and every
/// request is accounted for once.
#[test]
fn an_http_flood_past_the_caller_scan_cap_conserves_requests_and_shuts_down() {
    let corpus = corpus();
    let mut config = ServeConfig::small();
    let tenant = TenantSpec {
        weight: 1,
        queue_capacity: 1024,
        slo_search: 0.05,
    };
    config.tenants = vec![tenant.clone(), tenant];
    let clock = Arc::new(SlowConnectionClock::default());
    let server = RagServer::start_with_clock(&corpus, config.clone(), clock).expect("starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let addr = frontend.addr();

    let connections = std::thread::available_parallelism().map_or(1, |n| n.get()) + 2;
    // Each request leaves a request tree and at most one batch trace:
    // stay well inside the recent-trace store so none is evicted.
    let per_connection = (TRACE_CAPACITY / 4 / connections).max(2);
    let barrier = Arc::new(Barrier::new(connections));
    let clients: Vec<_> = (0..connections)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let bodies: Vec<String> = (0..per_connection)
                .map(|i| search_body(corpus.vectors.get(c * per_connection + i)))
                .collect();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connects");
                let tenant = (c % 2).to_string();
                barrier.wait();
                bodies
                    .iter()
                    .map(|body| {
                        let response =
                            (client.post_json("/v1/search", &[("X-Tenant", &tenant)], body))
                                .expect("exchange");
                        let trace = (response.json().ok())
                            .and_then(|json| json.get("trace_id")?.as_str().map(String::from));
                        (c % 2, response.status, trace)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let replies: Vec<(usize, u16, Option<String>)> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(replies.len(), connections * per_connection);

    // One request tree per reply.
    let mut client = HttpClient::connect(addr).expect("client connects");
    for (_, status, trace) in &replies {
        assert_eq!(*status, 200, "no request fails");
        let trace = trace.as_deref().expect("a trace id");
        let doc = client.get(&format!("/v1/trace/{trace}")).expect("exchange");
        assert_eq!(doc.status, 200, "trace {trace} is held");
        let spans = doc.json().expect("trace JSON");
        let spans = spans.get("spans").and_then(Json::as_array).expect("spans");
        let roots = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("request"))
            .count();
        assert_eq!(roots, 1, "trace {trace}");
    }
    drop(client);

    let report = frontend.shutdown();
    assert_eq!(report.deadline_sheds, [0; 3], "no deadline: nothing shed");
    for (t, row) in report.tenants.iter().enumerate() {
        let failed = (replies.iter())
            .filter(|(tenant, status, _)| *tenant == t && *status != 200)
            .count() as u64;
        assert_eq!(
            row.admitted,
            row.completed + failed,
            "tenant {t}: admitted = completed + shed + failed"
        );
    }
    assert_eq!(report.admitted, replies.len() as u64);
    assert!(report.caller_thread_scans >= 1, "the first request scans");
    assert!(
        report.peak_queue_depth > 0,
        "the overflow was queued and batched ({} caller-thread scans)",
        report.caller_thread_scans
    );
}

#[test]
fn dropping_the_frontend_quiesces_and_releases_the_port() {
    let (frontend, addr, _) = tiny_frontend(1 << 20);
    assert_eq!(
        HttpClient::connect(addr)
            .unwrap()
            .get("/healthz")
            .unwrap()
            .status,
        200
    );
    drop(frontend); // no shutdown() call — the Drop path must tear down
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after drop"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Query vectors survive encode → render → parse → decode bit-exactly
    /// (f32 → f64 is exact and Rust renders the shortest round-tripping
    /// decimal).
    #[test]
    fn search_request_json_round_trips(query in prop::collection::vec(-1e6f32..1e6, 1..64)) {
        let text = wire::search_request_to_json(&query).render();
        let back = wire::search_request_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, query);
    }

    /// Full search responses round-trip field for field, with and without
    /// the co-scheduled generation phase timings.
    #[test]
    fn search_response_json_round_trips(
        id in 0u64..u64::from(u32::MAX),
        tenant in 0u16..8,
        generation in 0u64..1000,
        hit_rate in 0.0f64..1.0,
        queue in 0.0f64..10.0,
        search in 0.0f64..10.0,
        co_scheduled in any::<bool>(),
        gen_queue in 0.0f64..1.0,
        prefill in 0.0f64..1.0,
        decode in 0.0f64..10.0,
        ids in prop::collection::vec(0u64..1_000_000, 0..32),
        distances in prop::collection::vec(0.0f32..1e5, 0..32),
    ) {
        // `zip` truncates to the shorter list, so the neighbor count varies.
        let neighbors: Vec<Neighbor> = ids
            .iter()
            .zip(&distances)
            .map(|(&id, &d)| Neighbor::new(id, d))
            .collect();
        let gen_timings = co_scheduled.then_some(GenerationTimings {
            gen_queue,
            prefill,
            decode,
            ttft: queue + search + gen_queue + prefill,
        });
        let e2e = match &gen_timings {
            Some(g) => g.ttft + g.decode,
            None => queue + search,
        };
        let original = SearchResponse {
            id,
            tenant: TenantId(tenant),
            neighbors,
            timings: RequestTimings { queue, search, e2e, generation: gen_timings },
            hit_rate,
            generation,
            trace: TraceId(u128::from(id) << 32 | 1),
        };
        let text = wire::search_response_to_json(&original).render();
        let back = wire::search_response_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back.id, original.id);
        prop_assert_eq!(back.tenant, original.tenant);
        prop_assert_eq!(back.neighbors, original.neighbors);
        prop_assert_eq!(back.timings, original.timings);
        prop_assert_eq!(back.hit_rate, original.hit_rate);
        prop_assert_eq!(back.generation, original.generation);
        prop_assert_eq!(back.trace, original.trace);
    }

    /// A timings object missing the `generation` key (an old client's
    /// encoding) still decodes, as retrieval-only.
    #[test]
    fn legacy_response_without_generation_key_decodes(queue in 0.0f64..1.0, search in 0.0f64..1.0) {
        let text = format!(
            "{{\"id\":1,\"tenant\":0,\"generation\":0,\"hit_rate\":0.5,\
             \"timings\":{{\"queue\":{queue},\"search\":{search},\"e2e\":{}}},\
             \"neighbors\":[]}}",
            queue + search
        );
        let back = wire::search_response_from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back.timings.generation, None);
    }
}
