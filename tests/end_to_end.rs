//! Integration: the full offline + serving path across all systems.

use vectorlite_rag::core::{PipelineConfig, RagConfig, RagPipeline, RagSystem, SystemKind};

fn run(
    kind: SystemKind,
    rate: f64,
    n: usize,
    seed: u64,
) -> (RagSystem, vectorlite_rag::core::RunResult) {
    let system = RagSystem::build(RagConfig::tiny(kind));
    let result = RagPipeline::new(&system).run(&PipelineConfig::new(rate, n, seed));
    (system, result)
}

#[test]
fn every_system_serves_every_request() {
    for kind in SystemKind::main_four() {
        let (_, result) = run(kind, 10.0, 120, 1);
        assert_eq!(result.completed, 120, "{kind:?} dropped requests");
        assert_eq!(result.ttft.len(), 120);
    }
}

#[test]
fn vectorlite_attainment_dominates_cpu_only() {
    // The headline claim at moderate load: vLiteRAG's TTFT distribution
    // (under the same combined SLO) beats the CPU-only baseline.
    let (vl_sys, vl) = run(SystemKind::VectorLite, 25.0, 300, 2);
    let (_, cpu) = run(SystemKind::CpuOnly, 25.0, 300, 2);
    let target = vl_sys.slo_ttft();
    assert!(
        vl.slo_attainment(target) >= cpu.slo_attainment(target),
        "vLiteRAG {} < CPU-only {}",
        vl.slo_attainment(target),
        cpu.slo_attainment(target)
    );
}

#[test]
fn vectorlite_search_is_faster_than_cpu_only() {
    let (_, mut vl) = run(SystemKind::VectorLite, 20.0, 300, 3);
    let (_, mut cpu) = run(SystemKind::CpuOnly, 20.0, 300, 3);
    assert!(
        vl.search_exec.percentile(0.9) <= cpu.search_exec.percentile(0.9),
        "hybrid search P90 {} should not exceed CPU-only {}",
        vl.search_exec.percentile(0.9),
        cpu.search_exec.percentile(0.9)
    );
}

#[test]
fn overload_shows_up_in_queueing_not_lost_requests() {
    // A near-instantaneous burst far past retrieval capacity: requests pile
    // into the on-demand batcher, so P90 queueing exceeds P90 execution
    // while every request is still served.
    let (_, mut result) = run(SystemKind::CpuOnly, 10_000.0, 300, 4);
    assert_eq!(result.completed, 300);
    assert!(
        result.search_queue.percentile(0.9) > result.search_exec.percentile(0.9),
        "queue p90 {} should exceed exec p90 {}",
        result.search_queue.percentile(0.9),
        result.search_exec.percentile(0.9)
    );
}

#[test]
fn memory_never_oversubscribed_in_any_system() {
    for kind in SystemKind::main_four() {
        let system = RagSystem::build(RagConfig::tiny(kind));
        for (gpu, ledger) in system.ledgers.iter().enumerate() {
            assert!(
                ledger.used() <= ledger.capacity(),
                "{kind:?} oversubscribes GPU {gpu}"
            );
        }
    }
}

#[test]
fn dynamic_dispatcher_ablation_improves_mean_search_latency() {
    let mut on_cfg = RagConfig::tiny(SystemKind::VectorLite);
    on_cfg.dispatcher = true;
    let mut off_cfg = RagConfig::tiny(SystemKind::VectorLite);
    off_cfg.dispatcher = false;
    let on_sys = RagSystem::build(on_cfg);
    let off_sys = RagSystem::build(off_cfg);
    let on = RagPipeline::new(&on_sys).run(&PipelineConfig::new(40.0, 300, 5));
    let off = RagPipeline::new(&off_sys).run(&PipelineConfig::new(40.0, 300, 5));
    assert!(
        on.search_exec.mean() <= off.search_exec.mean() + 1e-9,
        "dispatcher on ({}) should not be slower than off ({})",
        on.search_exec.mean(),
        off.search_exec.mean()
    );
}

#[test]
fn deterministic_end_to_end() {
    let (_, a) = run(SystemKind::VectorLite, 15.0, 100, 9);
    let (_, b) = run(SystemKind::VectorLite, 15.0, 100, 9);
    assert_eq!(a.ttft.samples(), b.ttft.samples());
    assert_eq!(a.e2e.samples(), b.e2e.samples());
}
