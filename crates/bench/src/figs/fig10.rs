//! Fig. 10 — performance-model validation: predicted vs measured search
//! latency and tail (batch-minimum) hit rate across batch sizes.

use vlite_core::{HybridSearchEngine, RagConfig, RagSystem, SearchRequest, SystemKind};
use vlite_llm::ModelSpec;
use vlite_metrics::Table;
use vlite_sim::SimTime;
use vlite_workload::DatasetPreset;

use crate::{banner, write_csv};

/// Runs the Fig. 10 harness.
pub fn run() {
    banner(
        "Fig. 10",
        "predicted vs measured: hybrid latency and tail hit rate",
    );
    let mut table = Table::new(vec![
        "dataset",
        "batch",
        "measured lat (ms)",
        "predicted lat (ms)",
        "measured tail eta",
        "predicted tail eta",
    ]);
    let mut csv = String::from(
        "dataset,batch,measured_latency_s,predicted_latency_s,measured_eta,predicted_eta\n",
    );
    for preset in DatasetPreset::all() {
        let system = RagSystem::build(RagConfig::paper_default(
            SystemKind::VectorLite,
            preset.clone(),
            ModelSpec::qwen3_32b(),
        ));
        let coverage = system.decision.coverage;
        for batch in [1usize, 4, 7, 10, 13] {
            // Measured: run isolated batches of exactly this size.
            let mut engine = HybridSearchEngine::new(
                SystemKind::VectorLite,
                system.cost.clone(),
                system.workload.clone(),
                &system.profile,
                system.router.clone(),
                true,
                system.shard_gpus.clone(),
                system.config.node.n_gpus,
                10,
            );
            let reps = 24;
            let (mut lat_sum, mut eta_sum) = (0.0, 0.0);
            let mut now = SimTime::ZERO;
            for rep in 0..reps {
                for i in 0..batch {
                    engine.enqueue(SearchRequest {
                        id: (rep * batch + i) as u64,
                        arrival: now,
                    });
                }
                let plan = engine.try_start_batch(now).expect("engine idle");
                lat_sum += (plan.busy_until - plan.started_at).as_secs_f64();
                eta_sum += plan.min_hit_rate;
                now = plan.busy_until;
                engine.finish_batch(now);
            }
            let measured_lat = lat_sum / reps as f64;
            let measured_eta = eta_sum / reps as f64;
            // Predicted: Eq. 1 with the Beta order-statistic tail.
            let predicted_eta = system.estimator.eta_min(coverage, batch);
            let predicted_lat = system.perf.hybrid_latency(batch as f64, predicted_eta);
            table.row(vec![
                preset.name.to_string(),
                batch.to_string(),
                format!("{:.1}", measured_lat * 1e3),
                format!("{:.1}", predicted_lat * 1e3),
                format!("{measured_eta:.2}"),
                format!("{predicted_eta:.2}"),
            ]);
            csv.push_str(&format!(
                "{},{batch},{measured_lat},{predicted_lat},{measured_eta},{predicted_eta}\n",
                preset.name
            ));
        }
    }
    println!("{}", table.render());
    write_csv("fig10_validation.csv", &csv);
    println!("shape checks: tail hit rate declines with batch size and flattens (order");
    println!("statistics); predictions track measurements with a dispatcher offset");
    println!("(the paper reports the same systematic offset in the left panel).");
}
