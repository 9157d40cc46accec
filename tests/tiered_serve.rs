//! Integration: the serving runtime over the physical storage tiers of
//! `vlite-store`.
//!
//! Three contracts, all on the deterministic [`VirtualClock`]:
//!
//! 1. **Save → load → serve is bit-identical.** A server started against
//!    an existing segment file (same corpus, same seeds, pinned coverage)
//!    reopens it — verified by content checksums — and serves exactly the
//!    same neighbors, bit for bit, as the server that wrote it.
//! 2. **Repartition-triggered migration never stalls the dispatcher.** A
//!    mid-run hot-set rotation trips the drift monitor; the control loop
//!    hot-swaps the router, then promotes/demotes cluster extents itself
//!    while batches keep completing — zero snapshot waits, every request
//!    served.
//! 3. **Tier accounting is physical.** Fast/cold probe counters and
//!    fast-tier residency in the report reflect where bytes actually
//!    live, end to end through render/CSV/JSON.

use std::sync::Arc;

use vectorlite_rag::ann::Neighbor;
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

/// Pinned-coverage config: with `coverage_override` set, the split is a
/// pure function of the (seeded) calibration profile, so two servers built
/// from the same corpus produce identical placements — the precondition
/// for bit-identical save → load results.
fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(64),
        nprobe: 12,
        top_k: 10,
        n_profile_queries: 512,
        slo_search: 0.050,
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
            window_requests: 200,
        },
        profile_window: 600,
        cooldown_requests: 200,
        require_slo_breach: false,
        ..ControlConfig::default()
    };
    config
}

fn serve_fixed_queries(server: &RagServer, corpus: &SyntheticCorpus) -> Vec<Vec<Neighbor>> {
    let queries = corpus.queries(24, 41);
    queries
        .iter()
        .map(|q| {
            server
                .submit(q.to_vec())
                .expect("admitted")
                .wait()
                .expect("served")
                .neighbors
        })
        .collect()
}

#[test]
fn save_load_round_trip_serves_bit_identical_results() {
    let corpus = corpus();
    let dir = std::env::temp_dir().join(format!("vlite-tiered-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = config();
    config.store.dir = Some(dir.clone());

    // First server writes the segment and serves from it.
    let server =
        RagServer::start_with_clock(&corpus, config.clone(), Arc::new(VirtualClock::new()))
            .expect("server starts");
    assert!(server.store().is_some(), "flat index must build a store");
    let first = serve_fixed_queries(&server, &corpus);
    let report = server.shutdown();
    let store = report.store.as_ref().expect("tiered report");
    assert!(!store.opened_existing, "first run writes the segment");
    assert!(store.fast_clusters > 0 && store.fast_clusters < store.total_clusters);
    assert!(store.hot_probes > 0, "hot clusters were probed");
    assert!(store.cold_probes > 0, "cold clusters were probed");
    assert!(dir.join("vlite-store.seg").exists(), "segment persisted");

    // Second server — identical offline build — must *reopen* the file
    // (content-checksum verified) and serve byte-identical neighbors.
    let server = RagServer::start_with_clock(&corpus, config, Arc::new(VirtualClock::new()))
        .expect("server restarts");
    let second = serve_fixed_queries(&server, &corpus);
    let report = server.shutdown();
    let store = report.store.as_ref().expect("tiered report");
    assert!(store.opened_existing, "second run must reopen the segment");

    assert_eq!(first, second, "save → load must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repartition_migration_completes_while_the_dispatcher_keeps_draining() {
    let corpus = corpus();
    let server = RagServer::start_with_clock(&corpus, config(), Arc::new(VirtualClock::new()))
        .expect("server starts");

    // Rotate the hot set mid-run: drift trips the monitor, the control
    // loop repartitions and must move the tiers to match — all while the
    // open-loop load keeps flowing.
    let mut source = RotatingQuerySource::from_corpus(&corpus, 5);
    let n = 1_200;
    let outcome = run_open_loop(&server, &mut source, 1_500.0, n, 13, |i, source| {
        if i == n / 2 {
            source.set_rotation(16);
        }
    });
    let report = server.shutdown();

    // Serving never stalled: every admitted request completed and
    // no scan ever waited on the tier map.
    assert_eq!(outcome.rejected, 0);
    assert_eq!(report.completed, report.admitted);
    assert_eq!(outcome.responses.len(), n);
    assert!(!report.repartitions.is_empty(), "drift must repartition");

    let store = report.store.as_ref().expect("tiered report");
    assert_eq!(store.snapshot_waits, 0, "migration must not block scans");
    assert_eq!(
        store.migrations.len(),
        report.repartitions.len(),
        "every repartition applies exactly one migration"
    );
    let migration = &store.migrations[0];
    assert_eq!(
        migration.placement_generation, report.repartitions[0].generation,
        "migration realizes the swapped placement"
    );
    assert_eq!(migration.triggered_by, report.repartitions[0].triggered_by);
    assert!(
        migration.promoted > 0 && migration.demoted > 0,
        "a rotated hot set must move clusters both ways: {migration:?}"
    );
    assert!(migration.bytes_promoted > 0 && migration.bytes_demoted > 0);
    assert!(
        migration.batches_after >= migration.batches_before,
        "batch counter is monotone through the migration"
    );
    assert_eq!(store.store_generation, store.migrations.len() as u64);
    assert!(store.bytes_promoted >= migration.bytes_promoted);

    // Both tiers were physically exercised.
    assert!(store.hot_probes > 0 && store.cold_probes > 0);
    assert!(store.hot_bytes_scanned > 0 && store.cold_bytes_scanned > 0);
    // The render carries the tier section.
    let rendered = report.render();
    assert!(rendered.contains("tiered store:"), "render: {rendered}");
    assert!(rendered.contains("tier migrations"), "render: {rendered}");
}

#[test]
fn final_tiers_match_the_final_placement() {
    // Every repartition migrates the tiers before the control loop reads
    // its next observation, so the store's hot flags must equal the
    // installed router's hot set even when repartitions fired mid-run.
    let corpus = corpus();
    let server = RagServer::start_with_clock(&corpus, config(), Arc::new(VirtualClock::new()))
        .expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(&corpus, 5);
    let n = 1_000;
    run_open_loop(&server, &mut source, 1_500.0, n, 13, |i, source| {
        if i == n / 2 {
            source.set_rotation(16);
        }
    });
    // Shutdown joins every thread (the control loop included) before
    // reporting, so the cloned store handle reads the *final* tier map.
    let store = server.store().expect("tiered").clone();
    let shard_clusters = server.current_shard_clusters();
    let generation = server.placement_generation();
    let report = server.shutdown();
    let flags = store.hot_flags();
    assert!(generation >= 1, "drift must have repartitioned");
    assert!(!report.store.unwrap().migrations.is_empty());
    let mut router_hot = vec![false; flags.len()];
    for clusters in &shard_clusters {
        for &c in clusters {
            router_hot[c as usize] = true;
        }
    }
    assert_eq!(
        flags, router_hot,
        "store tiers must converge to the router placement"
    );
}
