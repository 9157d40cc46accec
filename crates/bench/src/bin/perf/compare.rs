//! `perf compare A.json B.json`: holds two `perf.json` files against the
//! benchmark's own bounds. One row per (workload, end-to-end metric); B is
//! judged against A.

use vlite_serve::http::json::Json;

use crate::spec::{EndToEnd, END_TO_END, FAILED_SHARE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's own repetitions disagree by more than the bound, so
    /// a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the repetition values behind
/// it.
#[derive(Debug, Clone, Default)]
pub struct Side {
    pub median: f64,
    pub reps: Vec<f64>,
}

impl Side {
    /// The repetitions' range, in the unit the metric's bound is in.
    fn spread(&self, spec: &EndToEnd) -> f64 {
        let lo = self.reps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if self.reps.len() < 2 {
            0.0
        } else if spec.absolute {
            hi - lo
        } else if self.median != 0.0 {
            (hi - lo) / self.median.abs()
        } else {
            0.0
        }
    }
}

pub fn verdict(spec: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    if a.spread(spec) > spec.bound || b.spread(spec) > spec.bound {
        return Verdict::Unresolved;
    }
    let mut worsening = spec.better.worsening(a.median, b.median);
    if !spec.absolute {
        if a.median == 0.0 {
            return if worsening > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Same
            };
        }
        worsening /= a.median.abs();
    }
    if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub spec: &'static EndToEnd,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

fn side(file: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = file
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Side {
        median: entry.get("value")?.as_f64()?,
        reps: entry
            .get("reps")?
            .as_array()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// Every (workload, metric) pair present in both files, in file order.
pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for spec in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, workload, spec.name), side(b, workload, spec.name))
            else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                spec,
                verdict: verdict(spec, &sa, &sb),
                a: sa,
                b: sb,
            });
        }
    }
    rows
}

/// Whether B may not land on A: any `worse`, or a higher failed share
/// however small.
pub fn regressed(rows: &[Row]) -> bool {
    rows.iter().any(|row| {
        row.verdict == Verdict::Worse
            || (row.spec.name == FAILED_SHARE && row.b.median > row.a.median)
    })
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<13} {:<16} {:<7} {:>6} {:>12} {:>8} {:>12} {:>8}  verdict",
        "workload", "metric", "better", "bound", "A median", "A spread", "B median", "B spread"
    );
    for row in rows {
        let pct = |x: f64| {
            if row.spec.absolute {
                format!("{x:.4}")
            } else {
                format!("{:.1}%", 100.0 * x)
            }
        };
        println!(
            "{:<13} {:<16} {:<7} {:>6} {:>12.4} {:>8} {:>12.4} {:>8}  {}",
            row.workload,
            row.spec.name,
            row.spec.better.as_str(),
            pct(row.spec.bound),
            row.a.median,
            pct(row.a.spread(row.spec)),
            row.b.median,
            pct(row.b.spread(row.spec)),
            row.verdict.as_str(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn side(median: f64, reps: &[f64]) -> Side {
        Side {
            median,
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let p50 = end_to_end("latency_p50_ms").unwrap(); // lower, 25 %
        let steady = |m: f64| side(m, &[m, m, m]);
        assert_eq!(verdict(p50, &steady(1.0), &steady(1.2)), Verdict::Same);
        assert_eq!(verdict(p50, &steady(1.0), &steady(1.26)), Verdict::Worse);
        assert_eq!(verdict(p50, &steady(1.0), &steady(0.7)), Verdict::Better);
        let rps = end_to_end("throughput_rps").unwrap(); // higher, 25 %
        assert_eq!(verdict(rps, &steady(100.0), &steady(70.0)), Verdict::Worse);
        assert_eq!(
            verdict(rps, &steady(100.0), &steady(130.0)),
            Verdict::Better
        );
    }

    #[test]
    fn noisy_sides_are_unresolved_not_same() {
        let p50 = end_to_end("latency_p50_ms").unwrap();
        let noisy = side(1.0, &[0.8, 1.0, 1.1]); // spread 30 % > 25 %
        let steady = side(1.5, &[1.5, 1.5, 1.5]);
        assert_eq!(verdict(p50, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(verdict(p50, &steady, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn absolute_bounds_are_in_the_metrics_own_unit() {
        let recall = end_to_end("recall_at_10").unwrap(); // higher, 0.01 abs
        assert_eq!(
            verdict(recall, &side(0.95, &[0.95]), &side(0.945, &[0.945])),
            Verdict::Same
        );
        assert_eq!(
            verdict(recall, &side(0.95, &[0.95]), &side(0.93, &[0.93])),
            Verdict::Worse
        );
        let failed = end_to_end(FAILED_SHARE).unwrap();
        assert_eq!(
            verdict(failed, &side(0.0, &[0.0]), &side(0.002, &[0.002])),
            Verdict::Worse
        );
    }

    #[test]
    fn rows_pair_up_and_any_new_failure_regresses() {
        let file = |p50: f64, failed: f64| {
            Json::parse(&format!(
                r#"{{"workloads":{{"w":{{"metrics":{{
                    "latency_p50_ms":{{"value":{p50},"reps":[{p50},{p50},{p50}]}},
                    "failed_share":{{"value":{failed},"reps":[{failed}]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let same = rows(&file(1.0, 0.0), &file(1.1, 0.0));
        assert_eq!(same.len(), 2);
        assert!(same.iter().all(|r| r.verdict == Verdict::Same));
        assert!(!regressed(&same));
        // 0.0005 is inside failed_share's bound, but any rise regresses.
        let failing = rows(&file(1.0, 0.0), &file(1.0, 0.0005));
        assert!(failing.iter().all(|r| r.verdict == Verdict::Same));
        assert!(regressed(&failing));
        assert!(regressed(&rows(&file(1.0, 0.0), &file(1.4, 0.0))));
    }
}
