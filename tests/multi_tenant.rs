//! Integration: multi-tenant isolation in the `vlite-serve` runtime.
//!
//! The scenario the per-tenant queues exist for: a light tenant at a
//! steady, modest rate shares the server with a heavy tenant that floods
//! far past its weighted share (weights 1:4, heavy offered well over 5× its
//! share — in fact over the whole server's capacity). Admission must shed
//! the heavy tenant against its own quota only, and the light tenant's
//! search SLO attainment must hold within 5 points of a solo run on an
//! identically configured server. That flood comparison is inherently a
//! wall-clock experiment, so it stays this file's one *real-time* smoke
//! (trimmed to the shortest window that still floods); the remaining
//! scenarios assert accounting/isolation logic only and run on the
//! deterministic `VirtualClock` with no pacing sleeps at all.

use std::sync::Arc;

use vectorlite_rag::core::RealConfig;
use vectorlite_rag::serve::loadgen::{run_open_loop_tenants, LoadPhase, TenantLoad};
use vectorlite_rag::serve::{
    AdmissionError, RagServer, SearchResponse, ServeConfig, TenantId, TenantSpec, VirtualClock,
};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

const LIGHT: TenantId = TenantId(0);
const HEAVY: TenantId = TenantId(1);
const SLO_SEARCH: f64 = 0.050;

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

/// Two tenants, weights 1:4; the heavy tenant gets a deliberately small
/// queue so open-loop overload sheds quickly instead of building latency.
fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(64),
        nprobe: 12,
        top_k: 10,
        n_profile_queries: 512,
        slo_search: SLO_SEARCH,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(0.3),
    };
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 256,
            slo_search: SLO_SEARCH,
        },
        TenantSpec {
            weight: 4,
            queue_capacity: 128,
            slo_search: SLO_SEARCH,
        },
    ];
    config
}

/// The light tenant's steady stream: 300 requests at 300/s (a 1-second
/// window — the shortest run whose attainment comparison is still stable).
fn light_load(corpus: &SyntheticCorpus) -> TenantLoad {
    TenantLoad {
        tenant: LIGHT,
        source: vectorlite_rag::serve::loadgen::RotatingQuerySource::from_corpus(corpus, 3),
        phases: vec![LoadPhase {
            rate: 300.0,
            n: 300,
        }],
    }
}

fn attainment(responses: &[SearchResponse]) -> f64 {
    responses
        .iter()
        .filter(|r| r.timings.search <= SLO_SEARCH)
        .count() as f64
        / responses.len() as f64
}

// The file's real-time smoke: the attainment comparison is a wall-clock
// experiment, so it intentionally keeps `RealClock` and the Poisson sleeps.
#[test]
fn heavy_tenant_flood_cannot_steal_the_light_tenants_slo() {
    let corpus = corpus();

    // Solo baseline: the light tenant alone on an identical server.
    let solo_server = RagServer::start(&corpus, config()).expect("server starts");
    let mut solo = vec![light_load(&corpus)];
    let solo_outcome = run_open_loop_tenants(&solo_server, &mut solo, 17);
    solo_server.shutdown();
    let solo_light = &solo_outcome.tenants[0];
    assert_eq!(solo_light.rejected, 0, "solo light load must not be shed");
    assert_eq!(solo_light.responses.len(), 300);
    let solo_attainment = attainment(&solo_light.responses);

    // Contended run: same light stream, plus the heavy tenant offered far
    // beyond the server's total capacity (≫ 5× its weighted share) for the
    // whole window the light tenant is active. This small index serves
    // tens of thousands of searches a second, so the flood is sized well
    // past that; the generator submits back to back once behind schedule.
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let mut loads = vec![
        light_load(&corpus),
        TenantLoad {
            tenant: HEAVY,
            source: vectorlite_rag::serve::loadgen::RotatingQuerySource::from_corpus(&corpus, 7),
            phases: vec![LoadPhase {
                rate: 160_000.0,
                n: 168_000,
            }],
        },
    ];
    let outcome = run_open_loop_tenants(&server, &mut loads, 23);
    let report = server.shutdown();

    let light = &outcome.tenants[0];
    let heavy = &outcome.tenants[1];

    // Only the over-quota tenant is shed; its rejections never evict or
    // reject the light tenant's submissions.
    assert_eq!(light.rejected, 0, "light tenant was shed under contention");
    assert!(
        heavy.rejected > 0,
        "heavy tenant offered past capacity must be shed"
    );
    assert_eq!(report.tenants[LIGHT.index()].rejected, 0);
    assert_eq!(
        report.tenants[HEAVY.index()].rejected,
        heavy.rejected as u64
    );

    // Every admitted request (both tenants) was served.
    assert_eq!(report.completed, report.admitted);
    assert_eq!(light.responses.len(), 300);

    // Responses carry their tenant through the pipeline.
    assert!(light.responses.iter().all(|r| r.tenant == LIGHT));
    assert!(heavy.responses.iter().all(|r| r.tenant == HEAVY));

    // The acceptance bar: the light tenant's SLO attainment under the flood
    // stays within 5 points of its solo run.
    let contended_attainment = attainment(&light.responses);
    assert!(
        contended_attainment >= solo_attainment - 0.05,
        "light tenant attainment fell from {solo_attainment:.3} (solo) to \
         {contended_attainment:.3} under the heavy tenant's flood"
    );

    // The per-tenant report rows agree with the driver's accounting.
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.tenants[LIGHT.index()].weight, 1);
    assert_eq!(report.tenants[HEAVY.index()].weight, 4);
    assert_eq!(report.tenants[LIGHT.index()].completed, 300);
    assert_eq!(
        report.tenants[HEAVY.index()].completed,
        heavy.responses.len() as u64
    );
}

#[test]
fn virtual_clock_flood_sheds_only_the_over_quota_tenant() {
    // The admission-isolation half of the flood scenario with no wall
    // clock at all: on the `VirtualClock` the Poisson schedule advances
    // stepped time, so both tenants' streams are offered as fast as the
    // machine can push them. The light tenant's lane is sized for its whole
    // burst; the heavy tenant's is not, so only the heavy tenant sheds, and
    // every admitted request is still served on shutdown.
    let corpus = corpus();
    let mut cfg = config();
    cfg.tenants[LIGHT.index()].queue_capacity = 512; // burst-sized: never sheds
    cfg.tenants[HEAVY.index()].queue_capacity = 64;
    let server = RagServer::start_with_clock(&corpus, cfg, Arc::new(VirtualClock::new()))
        .expect("server starts");
    let mut loads = vec![
        TenantLoad {
            tenant: LIGHT,
            source: vectorlite_rag::serve::loadgen::RotatingQuerySource::from_corpus(&corpus, 3),
            phases: vec![LoadPhase {
                rate: 300.0,
                n: 400,
            }],
        },
        TenantLoad {
            tenant: HEAVY,
            source: vectorlite_rag::serve::loadgen::RotatingQuerySource::from_corpus(&corpus, 7),
            phases: vec![LoadPhase {
                rate: 40_000.0,
                n: 4_000,
            }],
        },
    ];
    let outcome = run_open_loop_tenants(&server, &mut loads, 23);
    let report = server.shutdown();

    let light = &outcome.tenants[0];
    let heavy = &outcome.tenants[1];
    assert_eq!(light.rejected, 0, "light tenant shed under virtual flood");
    assert!(
        heavy.rejected > 0,
        "heavy burst must overflow its 64-slot lane"
    );
    assert_eq!(light.responses.len(), 400, "every light request served");
    assert_eq!(report.completed, report.admitted, "backlog fully drained");
    assert_eq!(report.tenants[LIGHT.index()].rejected, 0);
    assert_eq!(
        report.tenants[HEAVY.index()].rejected,
        heavy.rejected as u64
    );
    assert!(light.responses.iter().all(|r| r.tenant == LIGHT));
    assert!(heavy.responses.iter().all(|r| r.tenant == HEAVY));
    // Weighted-fair draining kept the light tenant inside contested
    // batches rather than behind the heavy backlog.
    assert_eq!(report.tenants[LIGHT.index()].completed, 400);
}

#[test]
fn unknown_tenant_is_rejected_without_a_request_id_leak() {
    let corpus = corpus();
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let err = server
        .submit_for(TenantId(2), corpus.vectors.get(0).to_vec())
        .unwrap_err();
    assert_eq!(
        err,
        AdmissionError::UnknownTenant {
            tenant: TenantId(2),
            n_tenants: 2
        }
    );
    // The rejected submission must not appear anywhere in the accounting.
    let report = server.shutdown();
    assert_eq!(report.admitted, 0);
    assert_eq!(report.rejected, 0);
}

#[test]
fn single_tenant_config_still_reports_one_implicit_tenant() {
    let corpus = corpus();
    let mut cfg = config();
    cfg.tenants.clear(); // fall back to the implicit tenant
    cfg.queue_capacity = 512;
    let server = RagServer::start(&corpus, cfg).expect("server starts");
    let ticket = server
        .submit(corpus.vectors.get(0).to_vec())
        .expect("admitted");
    assert_eq!(ticket.tenant(), TenantId(0));
    let response = ticket.wait().expect("served");
    assert_eq!(response.tenant, TenantId(0));
    let report = server.shutdown();
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].queue_capacity, 512);
    assert_eq!(report.tenants[0].completed, 1);
}
