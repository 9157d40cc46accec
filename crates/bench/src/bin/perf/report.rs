//! Rendering: the JSON written under `results/perf/`, the tables printed
//! for people, and the one-line result the driver reads.

use vlite_serve::http::json::Json;

use crate::layers::Budget;
use crate::run::{Metric, Outcome};
use crate::spec::{self, PER_LAYER};
use crate::stats::spread_of;
use crate::trace::SpanRow;
use crate::workload::Scale;

/// A metric's unit and which direction is better.
fn describe(name: &str) -> (&'static str, &'static str) {
    spec::end_to_end(name)
        .map(|m| (m.unit, m.better.as_str()))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| (m.unit, m.better.as_str()))
        })
        .unwrap_or(("", ""))
}

fn nums<T: Copy + Into<f64>>(values: &[T]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v.into())).collect())
}

fn metric_json(name: &str, metric: &Metric) -> Json {
    let samples: Vec<f64> = metric.samples.iter().map(|&n| n as f64).collect();
    Json::Obj(vec![
        ("value".into(), Json::Num(metric.value)),
        ("unit".into(), Json::Str(describe(name).0.into())),
        ("reps".into(), nums(&metric.reps)),
        ("samples".into(), nums(&samples)),
        ("spread".into(), Json::Num(spread_of(&metric.reps))),
        ("thin_tail".into(), Json::Bool(metric.thin_tail)),
    ])
}

/// One workload's entry of `perf.json`.
pub fn outcome_json(outcome: &Outcome, scale: &Scale) -> Json {
    let mut entry = vec![
        ("valid".into(), Json::Bool(outcome.is_valid())),
        (
            "violations".into(),
            Json::Arr(outcome.violations.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "invalid_generator".into(),
            Json::Bool(outcome.invalid_generator()),
        ),
        (
            "generator_late_reps".into(),
            Json::Arr(
                outcome
                    .late_reps
                    .iter()
                    .map(|&r| Json::Num(r as f64))
                    .collect(),
            ),
        ),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "repartitions".into(),
            Json::Num(outcome.repartitions as f64),
        ),
        ("config".into(), outcome.workload.config_json(scale)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, metric)| ((*name).into(), metric_json(name, metric)))
                    .collect(),
            ),
        ),
    ];
    if let Some(budget) = &outcome.budget {
        entry.push((
            "budget".into(),
            Json::Obj(vec![
                ("client_p50_us".into(), Json::Num(budget.client_p50_us)),
                (
                    "rows".into(),
                    Json::Arr(
                        budget
                            .rows
                            .iter()
                            .map(|(name, us)| {
                                Json::Obj(vec![
                                    ("layer".into(), Json::Str((*name).into())),
                                    ("us".into(), Json::Num(*us)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::Obj(entry)
}

/// The driver's result line: the outcome's metrics by name with units.
/// An invalid run has no result line at all.
pub fn contract_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .filter(|(name, _)| {
            outcome.traced
                || spec::end_to_end(name).is_some_and(|m| m.contract == spec::Contract::Gated)
        })
        .map(|(name, metric)| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(metric.value)),
                ("unit".into(), Json::Str(describe(name).0.into())),
            ]);
            ((*name).into(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.is_valid())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Every metric of one outcome by name, with unit and what stands behind
/// it.
pub fn print_outcome(outcome: &Outcome) {
    let w = outcome.workload;
    println!(
        "\n== {} ({}) — {} attempted, {} failed{}",
        w.name,
        if outcome.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        if outcome.is_valid() {
            ""
        } else {
            " — INVALID"
        },
    );
    println!("   {}", w.why);
    if w.rag {
        println!(
            "   serve.control.repartitions over the whole run: {}",
            outcome.repartitions
        );
    }
    for violation in &outcome.violations {
        println!("   violation: {violation}");
    }
    if !outcome.late_reps.is_empty() {
        println!(
            "   generator ran late (lag p95 > 1 ms) in repetitions {:?}",
            outcome.late_reps
        );
    }
    for (name, metric) in &outcome.metrics {
        let (unit, better) = describe(name);
        let mut line = format!(
            "{name:<44} {:>14.4} {unit:<6} ({better} is better)",
            metric.value
        );
        if metric.reps.len() > 1 {
            let reps: Vec<String> = metric.reps.iter().map(|v| format!("{v:.4}")).collect();
            line.push_str(&format!(
                " reps [{}] spread {:.1}%",
                reps.join(", "),
                100.0 * spread_of(&metric.reps)
            ));
        }
        if !metric.samples.is_empty() {
            line.push_str(&format!(" n {:?}", metric.samples));
        }
        if metric.thin_tail {
            line.push_str(" (fewer than 10 samples beyond per rep)");
        }
        println!("{}", line.trim_end());
    }
}

/// The traced run's span summary and per-request budget: stage, measured,
/// share of the client's median, with the residue as the balancing row.
pub fn print_budget(workload: &str, spans: &[SpanRow], budget: &Budget) {
    println!("\n-- {workload}: benchmark-side spans (traced repetition)");
    println!(
        "{:<12} {:>9} {:>12} {:>12}",
        "span", "count", "p50 us", "self p50 us"
    );
    for row in spans {
        println!(
            "{:<12} {:>9} {:>12.1} {:>12.1}",
            row.name, row.count, row.p50_us, row.self_p50_us
        );
    }
    println!(
        "\n-- {workload}: one request's budget against client p50 {:.1} us",
        budget.client_p50_us
    );
    println!("{:<40} {:>12} {:>9}", "layer", "measured us", "% of p50");
    for (name, us) in &budget.rows {
        let share = if budget.client_p50_us > 0.0 {
            100.0 * us / budget.client_p50_us
        } else {
            0.0
        };
        println!("{name:<40} {us:>12.1} {share:>8.1}%");
    }
    let total: f64 = budget.rows.iter().map(|(_, us)| us).sum();
    println!("{:<40} {total:>12.1} {:>8.1}%", "total", 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ALL;

    fn outcome(traced: bool) -> Outcome {
        Outcome {
            workload: &ALL[0],
            traced,
            attempted: 10,
            failed: 0,
            violations: Vec::new(),
            reps: 3,
            late_reps: Vec::new(),
            metrics: vec![
                (
                    "throughput_rps",
                    Metric {
                        value: 0.25,
                        reps: vec![0.25, 0.5, 0.125],
                        samples: vec![3, 4, 3],
                        thin_tail: false,
                    },
                ),
                (spec::FAILED_SHARE, Metric::once(0.0)),
            ],
            budget: None,
            span_rows: Vec::new(),
            repartitions: 0,
        }
    }

    #[test]
    fn json_round_trips_through_the_server_parser() {
        let json = outcome_json(&outcome(false), &Scale::smoke());
        let parsed = Json::parse(&json.render()).expect("parses");
        assert_eq!(parsed, json);
        let metric = parsed
            .get("metrics")
            .and_then(|m| m.get("throughput_rps"))
            .expect("metric");
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(metric.get("spread").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            parsed
                .get("config")
                .and_then(|c| c.get("nprobe"))
                .and_then(Json::as_u64),
            Some(8)
        );
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = contract_line(&outcome(false));
        let parsed = Json::parse(&line).expect("parses");
        let Json::Obj(fields) = &parsed else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // failed_share rides in attempted/failed on the untraced line and
        // is a per-layer entry on the traced one.
        assert!(parsed
            .get("metrics")
            .unwrap()
            .get("throughput_rps")
            .is_some());
        assert!(parsed
            .get("metrics")
            .unwrap()
            .get(spec::FAILED_SHARE)
            .is_none());
        let traced = Json::parse(&contract_line(&outcome(true))).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get(spec::FAILED_SHARE)
            .is_some());
    }
}
