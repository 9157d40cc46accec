//! End-to-end smoke test of the HTTP/1.1 frontend over real TCP sockets,
//! run in CI's e2e job beside the `serve_smoke` perf gate.
//!
//! Starts a two-tenant `RagServer` behind an `HttpFrontend` on a loopback
//! port, then:
//!
//! 1. exercises `/healthz`, `/v1/tenants` and the error paths (404, 400)
//!    the way `curl` would;
//! 2. fires the same mixed two-tenant open-loop workload once in process
//!    and once over the socket, and asserts the HTTP run holds the same
//!    SLO-attainment bar (within 5 points of in-process, the
//!    `rag_server` example's margin);
//! 3. fetches `GET /v1/report` and asserts its per-tenant JSON rows match
//!    the in-process `ServeReport` the runtime hands back at shutdown;
//! 4. scrapes `GET /v1/metrics` and asserts the Prometheus exposition's
//!    counters equal the report's totals, then fetches `GET /v1/traces`
//!    and `GET /v1/events` and checks the telemetry plane captured the
//!    run.
//!
//! Artifact: `results/http_report.json` (the `/v1/report` body, verbatim,
//! per-tenant rows included).

use vlite_bench::{banner, results_dir};
use vlite_core::RealConfig;
use vlite_serve::http::json::Json;
use vlite_serve::http::{HttpClient, HttpFrontend};
use vlite_serve::loadgen::{
    run_open_loop_http, run_open_loop_tenants, LoadPhase, MultiTenantResult, RotatingQuerySource,
    TenantLoad,
};
use vlite_serve::{RagServer, SearchResponse, ServeConfig, TenantId, TenantSpec};
use vlite_workload::{CorpusConfig, SyntheticCorpus};

/// Generous for CI runners, same rationale as the `rag_server` example.
const SLO_SEARCH: f64 = 0.050;

/// The attainment margin the in-process example enforces; the socket must
/// not cost more than this either.
const ATTAINMENT_MARGIN: f64 = 0.05;

fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vlite_ann::IvfConfig::new(128),
        nprobe: 16,
        top_k: 10,
        n_profile_queries: 512,
        slo_search: SLO_SEARCH,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(0.25),
    };
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 512,
            slo_search: SLO_SEARCH,
        },
        TenantSpec {
            weight: 2,
            queue_capacity: 512,
            slo_search: SLO_SEARCH,
        },
    ];
    config.http.addr = "127.0.0.1:0".into();
    config
}

/// The mixed workload, rebuilt identically for each run: a light tenant at
/// a steady rate and a heavier tenant at 3x, both under capacity.
fn loads(corpus: &SyntheticCorpus) -> Vec<TenantLoad> {
    vec![
        TenantLoad {
            tenant: TenantId(0),
            source: RotatingQuerySource::from_corpus(corpus, 19),
            phases: vec![LoadPhase {
                rate: 300.0,
                n: 400,
            }],
        },
        TenantLoad {
            tenant: TenantId(1),
            source: RotatingQuerySource::from_corpus(corpus, 23),
            phases: vec![LoadPhase {
                rate: 900.0,
                n: 1_200,
            }],
        },
    ]
}

fn attainment(responses: &[SearchResponse]) -> f64 {
    assert!(!responses.is_empty(), "tenant served nothing");
    responses
        .iter()
        .filter(|r| r.timings.search <= SLO_SEARCH)
        .count() as f64
        / responses.len() as f64
}

fn per_tenant_attainment(outcome: &MultiTenantResult) -> Vec<f64> {
    outcome
        .tenants
        .iter()
        .map(|t| attainment(&t.responses))
        .collect()
}

fn get_num(value: &Json, name: &'static str) -> f64 {
    value
        .get(name)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("report row missing {name}"))
}

fn main() {
    banner(
        "http-smoke",
        "HTTP/1.1 frontend end to end over real sockets",
    );

    let corpus = SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 20_000,
        dim: 32,
        n_centers: 64,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 3,
    });

    // In-process yardstick: identical server, identical workload schedule.
    println!("in-process baseline run ...");
    let baseline_server = RagServer::start(&corpus, config()).expect("baseline server starts");
    let baseline = run_open_loop_tenants(&baseline_server, &mut loads(&corpus), 29);
    baseline_server.shutdown();
    let baseline_attainment = per_tenant_attainment(&baseline);

    // The system under test: same runtime behind the network frontend.
    println!("starting HTTP frontend ...");
    let http_config = config();
    let server = RagServer::start(&corpus, http_config.clone()).expect("server starts");
    let frontend = HttpFrontend::bind(server, &http_config.http).expect("frontend binds");
    let addr = frontend.addr();
    println!("listening on http://{addr}");

    // --- curl-equivalent endpoint checks over the real socket ---
    let mut client = HttpClient::connect(addr).expect("client connects");
    let health = client.get("/healthz").expect("healthz exchange");
    assert_eq!(health.status, 200, "/healthz must be 200");
    let health_json = health.json().expect("healthz is JSON");
    assert_eq!(
        health_json.get("status").and_then(Json::as_str),
        Some("ok"),
        "healthz status"
    );
    let tenants = client.get("/v1/tenants").expect("tenants exchange");
    assert_eq!(tenants.status, 200);
    assert_eq!(
        tenants
            .json()
            .expect("tenant table is JSON")
            .as_array()
            .map(<[_]>::len),
        Some(2),
        "two configured tenants"
    );
    let missing = client.get("/nope").expect("404 exchange");
    assert_eq!(missing.status, 404, "unknown path must be 404");
    let bad = client
        .post_json("/v1/search", &[], "{\"query\":\"not-a-vector\"}")
        .expect("400 exchange");
    assert_eq!(bad.status, 400, "malformed search body must be 400");
    println!("endpoint checks passed: /healthz 200, /v1/tenants 200, 404 + 400 paths");

    // --- the mixed two-tenant workload over TCP ---
    println!("open-loop two-tenant workload over the socket ...");
    let outcome = run_open_loop_http(addr, &mut loads(&corpus), 29, 32);
    let http_attainment = per_tenant_attainment(&outcome);
    for (t, (&http, &inproc)) in http_attainment.iter().zip(&baseline_attainment).enumerate() {
        let tenant = &outcome.tenants[t];
        assert_eq!(tenant.rejected, 0, "sub-capacity load must not be shed");
        assert_eq!(
            tenant.responses.len(),
            tenant.submitted,
            "every submission served"
        );
        assert!(
            http >= inproc - ATTAINMENT_MARGIN,
            "tenant-{t} HTTP attainment {http:.3} fell more than \
             {ATTAINMENT_MARGIN} below in-process {inproc:.3}"
        );
        println!(
            "tenant-{t}: {} served, SLO attainment {:.1}% over HTTP vs {:.1}% in process",
            tenant.responses.len(),
            100.0 * http,
            100.0 * inproc
        );
    }

    // --- /v1/report must agree with the runtime's own final report ---
    let report_http = client.get("/v1/report").expect("report exchange");
    assert_eq!(report_http.status, 200);
    let report_body = String::from_utf8(report_http.body.clone()).expect("report is UTF-8");
    let report_json = Json::parse(&report_body).expect("report is JSON");

    // --- the telemetry plane over the socket: scrape, traces, journal ---
    let metrics = client.get("/v1/metrics").expect("metrics exchange");
    assert_eq!(metrics.status, 200, "/v1/metrics must be 200");
    assert!(
        metrics
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "scrape must be text exposition, not JSON"
    );
    let exposition = String::from_utf8(metrics.body.clone()).expect("exposition is UTF-8");
    let scraped = |name: &str| -> f64 {
        exposition
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (key, v) = l.rsplit_once(char::is_whitespace)?;
                (key == name).then(|| v.parse().expect("numeric sample"))
            })
            .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
    };
    // The scrape happened after every reply was delivered, so it agrees
    // exactly with the report fetched moments earlier: both read the same
    // counters.
    let expected_completed = get_num(&report_json, "completed") as u64;
    assert_eq!(
        scraped("vlite_admitted_total") as u64,
        get_num(&report_json, "admitted") as u64
    );
    assert_eq!(
        scraped("vlite_rejected_total") as u64,
        get_num(&report_json, "rejected") as u64
    );
    assert_eq!(scraped("vlite_completed_total") as u64, expected_completed);
    assert_eq!(
        scraped("vlite_batches_total") as u64,
        get_num(&report_json, "batches") as u64
    );
    assert_eq!(
        scraped("vlite_stage_seconds_count{stage=\"search\"}") as u64,
        expected_completed,
        "one search histogram sample per completed request"
    );
    assert!(scraped("vlite_uptime_seconds") > 0.0);
    println!(
        "/v1/metrics agrees with /v1/report: admitted/rejected/completed/batches and the \
         search-stage histogram count all match"
    );

    let traces = client.get("/v1/traces").expect("traces exchange");
    assert_eq!(traces.status, 200, "/v1/traces must be 200");
    let traces_body = String::from_utf8(traces.body.clone()).expect("traces are UTF-8");
    let traces_json = Json::parse(&traces_body).expect("traces are JSON");
    let recent = traces_json
        .get("recent")
        .and_then(Json::as_array)
        .expect("recent request listing");
    // Drill-down: the newest listed request's `trace_id` resolves to a span
    // tree with a `request` root.
    let newest = recent.last().expect("the run must leave recent traces");
    let trace_id = newest
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("listed requests carry their trace id");
    let tree = client
        .get(&format!("/v1/trace/{trace_id}"))
        .expect("trace exchange");
    assert_eq!(tree.status, 200, "/v1/trace/{trace_id} must be 200");
    let tree_json = tree.json().expect("trace tree is JSON");
    let has_root = tree_json
        .get("spans")
        .and_then(Json::as_array)
        .is_some_and(|spans| {
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("request"))
        });
    assert!(has_root, "trace {trace_id} has no `request` root span");

    let events = client.get("/v1/events").expect("events exchange");
    assert_eq!(events.status, 200, "/v1/events must be 200");
    let events_json = events.json().expect("events are JSON");
    assert!(events_json.get("events").is_some(), "journal renders");
    println!(
        "/v1/traces lists {} recent requests, the newest drills down to its span tree; \
         /v1/events renders the journal",
        recent.len()
    );

    let final_report = frontend.shutdown();

    let rows = report_json
        .get("tenants")
        .and_then(Json::as_array)
        .expect("report has tenant rows");
    assert_eq!(rows.len(), final_report.tenants.len());
    for (row, expected) in rows.iter().zip(&final_report.tenants) {
        assert_eq!(get_num(row, "admitted") as u64, expected.admitted);
        assert_eq!(get_num(row, "rejected") as u64, expected.rejected);
        assert_eq!(get_num(row, "completed") as u64, expected.completed);
        assert!(
            (get_num(row, "slo_attainment") - expected.slo_attainment).abs() < 1e-9,
            "attainment row drifted from the in-process report"
        );
        assert!((get_num(row, "mean_hit_rate") - expected.mean_hit_rate).abs() < 1e-9);
    }
    assert_eq!(
        get_num(&report_json, "completed") as u64,
        final_report.completed,
        "global completed row"
    );
    println!(
        "/v1/report rows match the in-process ServeReport ({} tenants, {} requests)",
        rows.len(),
        final_report.completed
    );

    println!("\n{}", final_report.tenant_table().render());
    let json_path = results_dir().join("http_report.json");
    std::fs::write(&json_path, &report_body).expect("can write report JSON");
    println!("[json] {}", json_path.display());
    println!("http-smoke: all assertions passed.");
}
