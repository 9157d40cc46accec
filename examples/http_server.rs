//! The `vlite-serve` runtime behind its HTTP/1.1 network frontend: start a
//! two-tenant server on a real socket, drive it with the bundled client the
//! way `curl` would, and shut down gracefully.
//!
//! Run with:
//! ```sh
//! cargo run --release --example http_server
//! ```
//!
//! To poke the server from a shell instead, set `VLITE_HTTP_HOLD=30` and
//! copy the printed curl lines within that many seconds.

use vectorlite_rag::core::RealConfig;
use vectorlite_rag::serve::http::{HttpClient, HttpFrontend};
use vectorlite_rag::serve::loadgen::RotatingQuerySource;
use vectorlite_rag::serve::{RagServer, ServeConfig, TenantSpec};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn main() {
    let corpus = SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 10_000,
        dim: 32,
        n_centers: 64,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 5,
    });

    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(96),
        nprobe: 16,
        top_k: 5,
        n_profile_queries: 512,
        slo_search: 0.050,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(0.25),
    };
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 256,
            slo_search: 0.050,
        },
        TenantSpec {
            weight: 4,
            queue_capacity: 256,
            slo_search: 0.050,
        },
    ];
    // Port 0: the OS picks a free port, printed below.
    config.http.addr = "127.0.0.1:0".into();

    println!("training IVF index, profiling, partitioning ...");
    let server = RagServer::start(&corpus, config.clone()).expect("server starts");
    let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
    let addr = frontend.addr();

    println!("\nHTTP frontend listening on http://{addr}");
    println!("endpoints:");
    println!("  GET  /healthz      liveness, queue depth, placement generation, completed");
    println!("  GET  /v1/tenants   the tenant table");
    println!("  GET  /v1/report    full ServeReport as JSON");
    println!("  GET  /v1/metrics   live Prometheus text exposition (lock-free scrape)");
    println!("  GET  /v1/traces    recent + slow requests, each with its trace_id");
    println!("  GET  /v1/trace/ID  one request's span tree and the batch it rode");
    println!("  GET  /v1/events    the unified runtime event journal");
    println!("  POST /v1/search    body {{\"query\":[...]}}, X-Tenant header picks the tenant");
    println!("\ntry it:");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/v1/metrics");
    println!("  curl http://{addr}/v1/traces");
    println!(
        "  curl -X POST http://{addr}/v1/search -H 'X-Tenant: 1' \\\n       -d '{{\"query\":[{}]}}'",
        corpus
            .vectors
            .get(0)
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("  curl http://{addr}/v1/report\n");

    if let Ok(hold) = std::env::var("VLITE_HTTP_HOLD") {
        let secs: u64 = hold.parse().unwrap_or(30);
        println!("VLITE_HTTP_HOLD set: serving external traffic for {secs}s ...");
        // vlite-allow(clock-discipline): interactive demo hold for a human
        // poking the socket with curl; nothing is timed against it.
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }

    // Drive the socket like an external client would.
    let mut client = HttpClient::connect(addr).expect("client connects");
    let health = client.get("/healthz").expect("healthz");
    println!(
        "GET /healthz -> {} {}",
        health.status,
        String::from_utf8_lossy(&health.body)
    );

    let mut source = RotatingQuerySource::from_corpus(&corpus, 0xfeed);
    for tenant in ["0", "1", "1"] {
        let query = source.next_query();
        let body = format!(
            "{{\"query\":[{}]}}",
            query
                .iter()
                .map(f32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let response = client
            .post_json("/v1/search", &[("X-Tenant", tenant)], &body)
            .expect("search");
        let json = response.json().expect("JSON body");
        let top = json
            .get("neighbors")
            .and_then(|n| n.as_array())
            .map_or(0, <[_]>::len);
        let search_s = json
            .get("timings")
            .and_then(|t| t.get("search"))
            .and_then(|s| s.as_f64())
            .unwrap_or(f64::NAN);
        println!(
            "POST /v1/search (X-Tenant: {tenant}) -> {} ({top} neighbors, search {:.2}ms)",
            response.status,
            1e3 * search_s
        );
    }

    let report = client.get("/v1/report").expect("report");
    println!(
        "GET /v1/report -> {} ({} bytes of JSON)",
        report.status,
        report.body.len()
    );

    // The live scrape: every counter here was recorded lock-free while
    // the searches above were in flight.
    let metrics = client.get("/v1/metrics").expect("metrics");
    let exposition = String::from_utf8_lossy(&metrics.body);
    println!("GET /v1/metrics -> {} — a few samples:", metrics.status);
    for line in exposition.lines().filter(|l| {
        l.starts_with("vlite_completed_total")
            || l.starts_with("vlite_batches_total")
            || l.starts_with("vlite_queue_depth")
    }) {
        println!("  {line}");
    }

    let final_report = frontend.shutdown();
    println!("\nfinal report after graceful shutdown:");
    println!("{}", final_report.render());
    // External curls during a VLITE_HTTP_HOLD window also count toward
    // `completed`, so only a lower bound is asserted.
    assert!(
        final_report.completed >= 3,
        "at least the three demo searches, got {}",
        final_report.completed
    );
}
