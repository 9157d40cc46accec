//! Integration: the `vlite-serve` runtime under open-loop Poisson load.
//!
//! Two scenarios on a tiny corpus:
//! 1. Steady load meets the search SLO and serves every admitted request
//!    through the persistent shard-worker/dispatcher pipeline, with results
//!    identical to a single-path scan over the server's tiered store. This
//!    is the file's one *real-time* smoke: its SLO assertions are about
//!    wall-clock behaviour, so it keeps the wall clock and the Poisson
//!    sleeps.
//! 2. Rotating the workload's Zipf hot set mid-run makes observed hit
//!    rates diverge from the estimator's expectation, which must trigger at
//!    least one `DriftMonitor`-driven online repartition — placement
//!    changes, the queue is never drained, and no request is lost. This
//!    scenario asserts *logical* behaviour only, so it runs on the
//!    deterministic `VirtualClock`: the load generator's Poisson schedule
//!    advances virtual time instead of sleeping, cutting the test's
//!    wall-clock runtime to the scan work alone.

use std::sync::Arc;

use vectorlite_rag::core::{RealConfig, UpdateConfig};
use vectorlite_rag::serve::loadgen::{run_open_loop, RotatingQuerySource};
use vectorlite_rag::serve::{ControlConfig, RagServer, ServeConfig, VirtualClock};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 6_000,
        dim: 16,
        n_centers: 32,
        zipf_exponent: 1.2,
        noise: 0.25,
        seed: 9,
    })
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(64),
        nprobe: 12,
        top_k: 10,
        n_profile_queries: 512,
        // Generous search SLO for CI machines: the point is that steady
        // load *meets* it, not that the hardware is fast.
        slo_search: 0.050,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        // Mid-range pinned coverage so the hot set matters (see the
        // rag_server example for the rationale).
        coverage_override: Some(0.3),
    };
    config.control = ControlConfig {
        update: UpdateConfig {
            slo_attainment_threshold: 0.9,
            hit_rate_divergence: 0.08,
            window_requests: 200,
        },
        profile_window: 600,
        cooldown_requests: 200,
        require_slo_breach: false,
    };
    config
}

// The file's real-time smoke: wall-clock pacing and SLO attainment are the
// subject here, so it intentionally keeps `RealClock` and the sleeps.
#[test]
fn steady_poisson_load_meets_search_slo() {
    let corpus = corpus();
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(&corpus, 3);

    let n = 600;
    let outcome = run_open_loop(&server, &mut source, 800.0, n, 11, |_, _| {});
    let report = server.shutdown();

    assert_eq!(outcome.rejected, 0, "steady load must not be shed");
    assert_eq!(outcome.responses.len(), n, "every request completes");
    assert_eq!(report.completed as usize, n);
    assert!(
        report.slo_attainment >= 0.95,
        "search SLO attainment {:.3} below 0.95 (p99 {:.4}s against {:.3}s)",
        report.slo_attainment,
        report.search.p99,
        report.slo_target,
    );
    // Dynamic batching actually batched under queueing.
    assert!(report.batches >= 1 && report.mean_batch >= 1.0);
    // Timeline sanity per response: queue + search == e2e (within float
    // noise), all non-negative.
    for r in &outcome.responses {
        assert!(r.timings.queue >= 0.0 && r.timings.search >= 0.0);
        assert!((r.timings.queue + r.timings.search - r.timings.e2e).abs() < 1e-6);
    }
}

#[test]
fn responses_match_single_path_search_exactly() {
    // The hybrid merge (shard partials + CPU partial) must equal one
    // single-path scan over the same tiers: every response is compared,
    // bit for bit, with `scan_lists_store` over the server's own store and
    // the probe list a same-seed offline deployment computes.
    let corpus = corpus();
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let store = server
        .store()
        .expect("a running server has a store")
        .clone();
    let generation = store.generation();
    let queries = corpus.queries(24, 41);

    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.to_vec()).expect("admitted"))
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("server alive"))
        .collect();
    server.shutdown();
    assert_eq!(
        store.generation(),
        generation,
        "no migration may move the tiers under the comparison"
    );

    let deployment =
        vectorlite_rag::core::RealDeployment::build(&corpus, config().real).expect("builds");
    let snapshot = store.snapshot();
    let k = config().real.top_k;
    let bits = |v: &[vectorlite_rag::ann::Neighbor]| {
        v.iter()
            .map(|n| (n.id, n.distance.to_bits()))
            .collect::<Vec<_>>()
    };
    for (qi, response) in responses.iter().enumerate() {
        let q = queries.get(qi);
        let plain =
            vectorlite_rag::ann::scan_lists_store(&snapshot, q, &deployment.probe_global(q), k);
        assert_eq!(plain.len(), k);
        assert_eq!(
            bits(&response.neighbors),
            bits(&plain),
            "request {qi} diverged from the single-path store scan"
        );
    }
}

#[test]
fn hot_set_rotation_triggers_online_repartition() {
    // Virtual clock: the 1,200-request Poisson schedule advances stepped
    // time instead of sleeping (~0.8s of wall-clock sleeps removed); the
    // drift trigger runs on hit-rate observations, which are identical.
    let corpus = corpus();
    let server = RagServer::start_with_clock(&corpus, config(), Arc::new(VirtualClock::new()))
        .expect("server starts");
    let placement_before = server.current_shard_clusters();
    assert_eq!(server.placement_generation(), 0);

    let mut source = RotatingQuerySource::from_corpus(&corpus, 5);
    let n = 1_200;
    let rotate_at = n / 2;
    let outcome = run_open_loop(&server, &mut source, 1_500.0, n, 13, |i, source| {
        if i == rotate_at {
            source.set_rotation(16); // half the 32 topics: hot set moves
        }
    });

    let placement_after = server.current_shard_clusters();
    let generation = server.placement_generation();
    let report = server.shutdown();

    // Every request was served; admission never paused for the update.
    assert_eq!(outcome.rejected, 0, "no shedding at this load");
    assert_eq!(report.completed, report.admitted);
    assert_eq!(outcome.responses.len(), n);

    // At least one online repartition fired, after the rotation point.
    assert!(
        generation >= 1,
        "drift must advance the placement generation"
    );
    assert!(!report.repartitions.is_empty());
    let event = &report.repartitions[0];
    assert!(
        event.at_request as usize > rotate_at,
        "repartition at {} should follow the rotation at {rotate_at}",
        event.at_request
    );
    // The hot set genuinely moved and the new placement is installed.
    assert!(
        event.hot_overlap < 0.9,
        "hot set barely moved: {}",
        event.hot_overlap
    );
    assert_ne!(placement_before, placement_after, "placement must change");

    // Later responses carry the new generation (hot swap, not restart).
    assert!(outcome.responses.iter().any(|r| r.generation == 0));
    assert!(outcome.responses.iter().any(|r| r.generation >= 1));
}

#[test]
fn dropping_the_server_without_shutdown_serves_the_backlog() {
    // Regression: `Drop` must run the same graceful quiesce as
    // `shutdown()` — close admission, serve every queued request, join the
    // threads — so panicking tests and early-return callers don't orphan
    // in-flight tickets. A torn-down-mid-batch runtime would make some
    // `wait()` below return `None`.
    let corpus = corpus();
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let queries = corpus.queries(64, 43);
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.to_vec()).expect("admitted"))
        .collect();
    drop(server); // no shutdown() call
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket
            .wait()
            .unwrap_or_else(|| panic!("ticket {i} orphaned by drop"));
        assert!(!response.neighbors.is_empty(), "request {i} served empty");
    }
}
