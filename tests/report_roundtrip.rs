//! Round-trip tests for `ServeReport::to_json` (the `/v1/report` body),
//! including the TTFT, deadline, profile and tiered-store sections:
//! parse-back equality of every numeric field, `null` for absent ones,
//! and the text render's deadline section.

use std::time::Duration;

use vectorlite_rag::metrics::Summary;
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::{
    MigrationEvent, RepartitionEvent, ServeReport, StageProfile, StoreReport, TenantId,
    TenantReport,
};

fn summary(seed: f64) -> Summary {
    Summary {
        count: 100,
        mean: seed * 1.5,
        min: seed * 0.5,
        max: seed * 9.0,
        p50: seed,
        p90: seed * 2.0,
        p95: seed * 3.0,
        p99: seed * 4.0,
    }
}

fn tenant(i: u16, seed: f64) -> TenantReport {
    TenantReport {
        tenant: TenantId(i),
        weight: u32::from(i) + 1,
        queue_capacity: 256,
        admitted: 1_000 + u64::from(i),
        rejected: 17 * u64::from(i),
        completed: 990 + u64::from(i),
        peak_queue_depth: 31,
        queue: summary(seed * 0.1),
        search: summary(seed),
        e2e: summary(seed * 2.0),
        slo_target: 0.05,
        slo_attainment: 0.9625,
        ttft: summary(seed * 1.7),
        ttft_attainment: 0.8421,
        gen_sheds: 3 + u64::from(i),
        mean_hit_rate: 0.615,
    }
}

/// A fully populated co-scheduled report (every new field nonzero).
fn co_scheduled_report() -> ServeReport {
    ServeReport {
        admitted: 2_001,
        rejected: 17,
        completed: 1_981,
        peak_queue_depth: 44,
        queue: summary(0.0004),
        search: summary(0.002),
        e2e: summary(0.031),
        slo_target: 0.05,
        slo_attainment: 0.9812,
        ttft: summary(0.012),
        gen_queue: summary(0.0015),
        prefill: summary(0.0061),
        decode: summary(0.024),
        slo_ttft: Some(0.25),
        ttft_attainment: 0.9031,
        gen_sheds: 7,
        batches: 77,
        mean_batch: 25.7,
        max_batch: 64,
        caller_thread_scans: 12,
        mean_hit_rate: 0.633,
        tenants: vec![tenant(0, 0.002), tenant(1, 0.003)],
        repartitions: vec![RepartitionEvent {
            generation: 1,
            at_request: 512,
            triggered_by: TenantId(1),
            observed_by_tenant: vec![200, 312],
            old_coverage: 0.25,
            new_coverage: 0.3125,
            hot_overlap: 0.41,
            queue_depth_at_swap: 9,
            duration: Duration::from_micros(8_500),
        }],
        store: Some(StoreReport {
            fast_clusters: 34,
            total_clusters: 128,
            fast_bytes: 5_120_000,
            cold_bytes: 1_280_000,
            fast_residency: 0.8,
            hot_probes: 4_321,
            cold_probes: 1_234,
            hot_bytes_scanned: 99_000_000,
            cold_bytes_scanned: 7_000_000,
            blocked_scans: 612,
            pairs_pruned: 1_017,
            kernel: "avx2_fma",
            bytes_promoted: 2_000_000,
            bytes_demoted: 1_500_000,
            store_generation: 2,
            snapshot_waits: 0,
            opened_existing: true,
            migrations: vec![MigrationEvent {
                placement_generation: 1,
                store_generation: 1,
                triggered_by: TenantId(1),
                promoted: 9,
                demoted: 7,
                bytes_promoted: 2_000_000,
                bytes_demoted: 1_500_000,
                batches_before: 40,
                batches_after: 55,
                duration: Duration::from_micros(2_750),
            }],
        }),
        generation: 1,
        worker_panics: 0,
        deadline_sheds: [2, 5, 3],
        cold_skips: 4,
        deadline_met: 900,
        deadline_missed: 100,
        deadline_attainment: Some(0.9),
        burn_queue: summary(0.1),
        burn_search: summary(0.4),
        burn_gen: summary(0.3),
        profile: vec![StageProfile {
            stage: "shard_scan",
            wall_s: 1.25,
            cpu_s: 1.0,
            stall_s: 0.25,
            sections: 77,
        }],
    }
}

#[test]
fn json_round_trips_exactly_including_ttft_fields() {
    let report = co_scheduled_report();
    let text = report.to_json().render();
    let json = Json::parse(&text).expect("rendered report parses back");

    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap();
    // f64 renders shortest-round-trip, so parse-back equality is exact.
    assert_eq!(num(&json, "slo_ttft"), 0.25);
    assert_eq!(num(&json, "ttft_attainment"), report.ttft_attainment);
    assert_eq!(num(&json, "slo_attainment"), report.slo_attainment);
    assert_eq!(num(&json, "completed"), report.completed as f64);
    for (key, s) in [
        ("ttft", &report.ttft),
        ("gen_queue", &report.gen_queue),
        ("prefill", &report.prefill),
        ("decode", &report.decode),
        ("queue", &report.queue),
        ("search", &report.search),
        ("e2e", &report.e2e),
    ] {
        let obj = json.get(key).unwrap();
        assert_eq!(num(obj, "count"), s.count as f64, "{key}.count");
        assert_eq!(num(obj, "mean"), s.mean, "{key}.mean");
        assert_eq!(num(obj, "p50"), s.p50, "{key}.p50");
        assert_eq!(num(obj, "p99"), s.p99, "{key}.p99");
        assert_eq!(num(obj, "max"), s.max, "{key}.max");
    }
    let tenants = json.get("tenants").and_then(Json::as_array).unwrap();
    assert_eq!(tenants.len(), 2);
    for (row, t) in tenants.iter().zip(&report.tenants) {
        assert_eq!(num(row, "ttft_attainment"), t.ttft_attainment);
        let ttft = row.get("ttft").unwrap();
        assert_eq!(num(ttft, "p99"), t.ttft.p99);
        assert_eq!(num(row, "slo_attainment"), t.slo_attainment);
    }
    let repartitions = json.get("repartitions").and_then(Json::as_array).unwrap();
    assert_eq!(num(&repartitions[0], "at_request"), 512.0);
    assert_eq!(num(&repartitions[0], "triggered_by"), 1.0);
    assert_eq!(num(&json, "gen_sheds"), 7.0);
    assert_eq!(num(&json, "caller_thread_scans"), 12.0);

    // The deadline-budget section round-trips: per-stage sheds,
    // degradation counters, attainment, and burn summaries.
    let sheds = json.get("deadline_sheds").expect("deadline_sheds object");
    assert_eq!(num(sheds, "admission"), 2.0);
    assert_eq!(num(sheds, "queue"), 5.0);
    assert_eq!(num(sheds, "generation"), 3.0);
    assert_eq!(num(&json, "cold_skips"), 4.0);
    assert_eq!(num(&json, "deadline_met"), 900.0);
    assert_eq!(num(&json, "deadline_missed"), 100.0);
    assert_eq!(num(&json, "deadline_attainment"), 0.9);
    for (key, s) in [
        ("burn_queue", &report.burn_queue),
        ("burn_search", &report.burn_search),
        ("burn_gen", &report.burn_gen),
    ] {
        let obj = json.get(key).unwrap();
        assert_eq!(num(obj, "p99"), s.p99, "{key}.p99");
        assert_eq!(num(obj, "mean"), s.mean, "{key}.mean");
    }

    // The per-stage profile section round-trips.
    let profile = json.get("profile").and_then(Json::as_array).unwrap();
    assert_eq!(profile.len(), 1);
    assert_eq!(
        profile[0].get("stage").and_then(Json::as_str),
        Some("shard_scan")
    );
    assert_eq!(num(&profile[0], "wall_s"), 1.25);
    assert_eq!(num(&profile[0], "cpu_s"), 1.0);
    assert_eq!(num(&profile[0], "stall_s"), 0.25);
    assert_eq!(num(&profile[0], "sections"), 77.0);
    assert_eq!(profile[0].get("samples"), None);

    // The tiered-store section round-trips, including its migrations.
    let store = json.get("store").expect("store object");
    let s = report.store.as_ref().unwrap();
    assert_eq!(num(store, "fast_clusters"), s.fast_clusters as f64);
    assert_eq!(num(store, "fast_residency"), s.fast_residency);
    assert_eq!(num(store, "hot_probes"), s.hot_probes as f64);
    assert_eq!(num(store, "cold_probes"), s.cold_probes as f64);
    assert_eq!(num(store, "pairs_pruned"), s.pairs_pruned as f64);
    assert_eq!(num(store, "bytes_promoted"), s.bytes_promoted as f64);
    assert_eq!(num(store, "snapshot_waits"), 0.0);
    assert_eq!(store.get("opened_existing"), Some(&Json::Bool(true)));
    let migrations = store.get("migrations").and_then(Json::as_array).unwrap();
    assert_eq!(migrations.len(), 1);
    assert_eq!(num(&migrations[0], "promoted"), 9.0);
    assert_eq!(num(&migrations[0], "batches_after"), 55.0);
}

#[test]
fn storeless_json_encodes_store_as_null() {
    let mut report = co_scheduled_report();
    report.store = None;
    let text = report.to_json().render();
    let json = Json::parse(&text).unwrap();
    assert_eq!(json.get("store"), Some(&Json::Null));
}

#[test]
fn retrieval_only_json_encodes_slo_ttft_as_null() {
    let mut report = co_scheduled_report();
    report.slo_ttft = None;
    let text = report.to_json().render();
    let json = Json::parse(&text).unwrap();
    assert_eq!(json.get("slo_ttft"), Some(&Json::Null));
}

#[test]
fn unbudgeted_json_encodes_deadline_attainment_as_null() {
    let mut report = co_scheduled_report();
    report.deadline_attainment = None;
    let text = report.to_json().render();
    let json = Json::parse(&text).unwrap();
    assert_eq!(json.get("deadline_attainment"), Some(&Json::Null));
}

#[test]
fn render_surfaces_the_deadline_section_only_when_budgeted() {
    let report = co_scheduled_report();
    let text = report.render();
    assert!(text.contains("deadlines: 90.0% met (900 met / 100 missed)"));
    assert!(text.contains("sheds adm/queue/gen 2/5/3"));
    assert!(text.contains("cold skips 4"));
    assert!(text.contains("budget burn p99"));

    let mut unbudgeted = co_scheduled_report();
    unbudgeted.deadline_attainment = None;
    unbudgeted.deadline_sheds = [0, 0, 0];
    assert!(!unbudgeted.render().contains("deadlines:"));
}
