//! CI perf gate for the `vlite-serve` runtime: `serve_smoke --gate
//! <baseline.csv>` runs each row of a checked-in baseline against a live
//! server on this machine's wall clock and exits nonzero on any breach.
//!
//! A baseline row is `metric,rate,budget_s` (`#` comments allowed). Every
//! row is one open-loop Poisson run at `rate` req/s:
//! - `search_p99` — retrieval only (600 requests), telemetry and tracing
//!   planes on (their defaults); must record scan-stage sections;
//! - `ttft_p99` — co-scheduled through the tiny LLM engine (300
//!   requests); must measure TTFT for every request;
//! - `tiers_all_hot_p99` / `tiers_paper_p99` / `tiers_all_cold_p99` — the
//!   tier corpus at pinned coverage 1.0 / 0.25 / 0.0 (600 requests); each
//!   must probe exactly the tiers its placement holds;
//! - `kernel_scalar_p99` — the paper placement with dispatch forced to
//!   the scalar kernels (600 requests);
//! - `deadline_goodput` — an over-budget flood (uniform 10 ms budget)
//!   with the degradation ladder enforcing. The flood is sized from the
//!   drain rate a burst measures on this host just before it: offered at
//!   [`FLOOD_OVERLOAD`] times that rate (or the row's rate, if higher)
//!   for [`FLOOD_BUDGETS`] budgets, at least 600 requests, so its queue
//!   outgrows the budget on any host. The one *inverted* row: the
//!   measured value is goodput (deadline-met completions per offered
//!   second) and the budget column is a floor.
//!
//! Every other row gates its p99 from above. Budgets are deliberately
//! loose (an order of magnitude above local measurements) so shared
//! runners don't flake, while a hot-path regression that queues batches
//! still trips them.
//!
//! Relations between rows are checked when the baseline lists both sides
//! at the same rate: all-cold spends longer in the `cpu_scan` stage
//! than paper placement, whose p50 tracks all-hot within [`TIER_MARGIN`];
//! the native kernels (the paper tier row) are no slower than forced
//! scalar beyond [`KERNEL_P50_NOISE`] / [`KERNEL_NOISE`]; and the deadline
//! row's enforcing run beats a measure-only run of the same flood on
//! goodput.

use std::cell::OnceCell;

use vlite_bench::{banner, write_csv};
use vlite_core::RealConfig;
use vlite_metrics::{fmt_seconds, Table};
use vlite_serve::loadgen::{run_open_loop, RotatingQuerySource};
use vlite_serve::{GenerationConfig, RagServer, ServeConfig, ServeReport, Ticket};
use vlite_workload::{CorpusConfig, SyntheticCorpus};

/// The pinned "paper placement" coverage of the tier rows.
const PAPER_COVERAGE: f64 = 0.25;

/// Paper placement's median must track all-hot's within this factor; the
/// bound is deliberately loose (CI-runner noise) while still catching a
/// cold path accidentally wired into the hot tier. Medians, not p99s: at
/// sub-millisecond latencies one scheduling hiccup moves a p99 of 600
/// samples by more than this factor.
const TIER_MARGIN: f64 = 4.0;

/// p99 noise allowance for the native-vs-scalar kernel comparison: the
/// tail folds in queueing bursts, so a shared runner can see a slow SIMD
/// p99 without the kernels being at fault.
const KERNEL_NOISE: f64 = 1.5;

/// p50 noise allowance for the same comparison. Scan work dominates the
/// median (locally SIMD wins it ~2.4x), but these are two live server
/// runs, so even the median jitters on shared runners. The allowance is
/// small enough that a dispatcher selecting a losing kernel (parity or
/// worse) still trips it.
const KERNEL_P50_NOISE: f64 = 1.15;

/// The deadline flood's uniform per-request budget, in seconds: generous
/// next to an unloaded request (~1-3 ms locally) and hopeless next to the
/// queueing the flood builds up, so enforcement has doomed work to shed.
const DEADLINE_BUDGET_S: f64 = 0.010;

/// The deadline flood arrives at this multiple of the host's measured
/// drain rate, so its queue grows by twice the drain rate while it lasts.
const FLOOD_OVERLOAD: f64 = 3.0;

/// The deadline flood lasts this many budgets: at [`FLOOD_OVERLOAD`] its
/// last arrivals queue behind six budgets of work when nothing is shed.
const FLOOD_BUDGETS: f64 = 3.0;

/// Requests in the burst that measures the drain rate (fits the queue).
const DRAIN_BURST: usize = 512;

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 20_000,
        dim: 32,
        n_centers: 64,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 3,
    })
}

/// The tier rows' corpus: big enough that scan work (not thread
/// coordination) dominates per-query latency, so the tiers' physical
/// asymmetry — parallel full-precision arenas vs serial SQ8 scans on the
/// batcher's one CPU share — is what the percentiles measure.
fn tier_corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 60_000,
        dim: 64,
        n_centers: 64,
        zipf_exponent: 1.1,
        noise: 0.3,
        seed: 3,
    })
}

fn real_config() -> RealConfig {
    RealConfig {
        ivf: vlite_ann::IvfConfig::new(128),
        nprobe: 16,
        top_k: 10,
        n_profile_queries: 512,
        slo_search: 0.010,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(PAPER_COVERAGE),
    }
}

/// One open-loop point: `n` Poisson arrivals at `rate` req/s against a
/// fresh server whose config `configure` adjusts; returns the final
/// report.
fn run(
    corpus: &SyntheticCorpus,
    rate: f64,
    n: usize,
    configure: impl FnOnce(&mut ServeConfig),
) -> ServeReport {
    let server = start(corpus, configure);
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    run_open_loop(&server, &mut source, rate, n, 17, |_, _| {});
    server.shutdown()
}

/// A fresh server on the smoke config, adjusted by `configure`.
fn start(corpus: &SyntheticCorpus, configure: impl FnOnce(&mut ServeConfig)) -> RagServer {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.queue_capacity = 512;
    configure(&mut config);
    RagServer::start(corpus, config).expect("server starts")
}

/// The deadline flood's config: every request carries the uniform budget,
/// with the ladder enforcing or measure-only, and the queue holds the
/// whole flood, so only the ladder (never a full queue) turns work away.
fn flood(enforce: bool, n: usize) -> impl FnOnce(&mut ServeConfig) {
    move |c| {
        c.deadline.default_deadline = Some(DEADLINE_BUDGET_S);
        c.deadline.enforce = enforce;
        c.queue_capacity = c.queue_capacity.max(n);
    }
}

/// The deadline flood's offered rate and size on this host: a burst of
/// [`DRAIN_BURST`] unbudgeted requests, submitted at once and timed to its
/// last reply, measures how fast the flood's server drains; the flood
/// then outruns that rate [`FLOOD_OVERLOAD`]-fold (or arrives at `rate`,
/// if faster) for [`FLOOD_BUDGETS`] budgets, and has at least 600
/// requests.
fn flood_size(corpus: &SyntheticCorpus, rate: f64) -> (f64, usize) {
    let server = start(corpus, flood(false, DRAIN_BURST));
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    let queries: Vec<Vec<f32>> = (0..DRAIN_BURST).map(|_| source.next_query()).collect();
    let started = std::time::Instant::now();
    let tickets: Vec<_> = (queries.into_iter())
        .map(|q| server.submit(q).expect("the burst fits the queue"))
        .collect();
    let served = tickets.into_iter().filter_map(Ticket::wait).count();
    assert_eq!(served, DRAIN_BURST, "measure-only serves every request");
    let drain = DRAIN_BURST as f64 / started.elapsed().as_secs_f64();
    server.shutdown();
    let offered = rate.max(FLOOD_OVERLOAD * drain);
    let n = (offered * FLOOD_BUDGETS * DEADLINE_BUDGET_S).ceil() as usize;
    (offered, n.max(600))
}

/// Deadline-met completions per offered second: the goodput a client with
/// this budget actually experiences. Late completions count for nothing.
fn goodput(report: &ServeReport, rate: f64, n: usize) -> f64 {
    report.deadline_met as f64 / (n as f64 / rate)
}

/// One parsed baseline row: which metric, at which offered rate, under
/// which budget.
struct GateRow {
    metric: String,
    rate: f64,
    budget: f64,
}

fn parse_baseline(path: &str) -> Vec<GateRow> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let rows: Vec<GateRow> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("metric"))
        .map(|line| {
            let cols: Vec<&str> = line.split(',').map(str::trim).collect();
            let num = |i: usize| -> f64 {
                cols.get(i)
                    .and_then(|c| c.parse().ok())
                    .unwrap_or_else(|| panic!("bad baseline row: {line}"))
            };
            GateRow {
                metric: cols[0].to_string(),
                rate: num(1),
                budget: num(2),
            }
        })
        .collect();
    assert!(!rows.is_empty(), "baseline {path} has no rows");
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, path] if flag == "--gate" => gate(path),
        _ => panic!("usage: serve_smoke --gate <baseline.csv> (got {args:?})"),
    }
}

/// Measures every baseline row, then checks the relations between rows;
/// exits 1 on any budget breach or failed relation.
fn gate(baseline_path: &str) {
    banner(
        "serve-smoke --gate",
        "p99 regression gate against a checked-in baseline",
    );
    let rows = parse_baseline(baseline_path);
    let corpus = corpus();
    let tier_cell = OnceCell::new();
    let tiers = || tier_cell.get_or_init(tier_corpus);
    let mut table = Table::new(vec![
        "metric",
        "offered (req/s)",
        "measured",
        "budget",
        "attainment",
        "verdict",
    ]);
    let mut failures = 0;
    // ([relation, left side, right side], holds)
    let mut relations: Vec<([String; 3], bool)> = Vec::new();
    let mut measured: Vec<(&GateRow, ServeReport)> = Vec::new();

    for row in &rows {
        let (rate, n) = match row.metric.as_str() {
            "ttft_p99" => (row.rate, 300),
            "deadline_goodput" => flood_size(tiers(), row.rate),
            _ => (row.rate, 600),
        };
        let tier = |coverage| {
            run(tiers(), rate, n, |c| {
                c.real.coverage_override = Some(coverage)
            })
        };
        let report = match row.metric.as_str() {
            "search_p99" => run(&corpus, rate, n, |_| {}),
            "ttft_p99" => run(&corpus, rate, n, |c| {
                c.queue_capacity = 1024;
                c.generation = Some(GenerationConfig::tiny());
            }),
            "tiers_all_hot_p99" => tier(1.0),
            "tiers_paper_p99" => tier(PAPER_COVERAGE),
            "tiers_all_cold_p99" => tier(0.0),
            "kernel_scalar_p99" => {
                vlite_ann::kernel::force_scalar();
                let report = tier(PAPER_COVERAGE);
                vlite_ann::kernel::clear_force();
                report
            }
            "deadline_goodput" => run(tiers(), rate, n, flood(true, n)),
            other => panic!(
                "unknown baseline metric {other:?} (search_p99 | ttft_p99 | tiers_all_hot_p99 \
                 | tiers_paper_p99 | tiers_all_cold_p99 | kernel_scalar_p99 | deadline_goodput)"
            ),
        };
        let store = report
            .store
            .as_ref()
            .expect("a running server reports its store");
        match row.metric.as_str() {
            "search_p99" => assert!(
                report
                    .profile
                    .iter()
                    .any(|s| s.stage == "shard_scan" && s.sections > 0),
                "search rows must record scan stage sections"
            ),
            "ttft_p99" => assert_eq!(
                report.ttft.count as u64, report.completed,
                "co-scheduled rows must measure TTFT for every request"
            ),
            "tiers_all_hot_p99" => assert_eq!(store.cold_probes, 0, "all-hot must never scan cold"),
            "tiers_all_cold_p99" => assert_eq!(store.hot_probes, 0, "all-cold must never scan hot"),
            "tiers_paper_p99" => assert!(
                store.hot_probes > 0 && store.cold_probes > 0,
                "paper placement must exercise both tiers"
            ),
            "kernel_scalar_p99" => assert_eq!(store.kernel, "scalar", "forced kernel unreported"),
            _ => {}
        }

        let inverted = row.metric == "deadline_goodput";
        let (value, attainment) = match row.metric.as_str() {
            "ttft_p99" => (report.ttft.p99, report.ttft_attainment),
            "deadline_goodput" => (
                goodput(&report, rate, n),
                report.deadline_attainment.unwrap_or(0.0),
            ),
            _ => (report.search.p99, report.slo_attainment),
        };
        // Goodput rows invert: higher is better, the budget is a floor.
        let ok = if inverted {
            value >= row.budget
        } else {
            value <= row.budget
        };
        failures += usize::from(!ok);
        let cell = |v: f64| {
            if inverted {
                format!("{v:.1}/s")
            } else {
                fmt_seconds(v)
            }
        };
        table.row(vec![
            row.metric.clone(),
            format!("{rate:.0}"),
            cell(value),
            cell(row.budget),
            format!("{:.1}%", 100.0 * attainment),
            verdict(ok),
        ]);

        if inverted {
            // The A/B that justifies the ladder: the identical flood,
            // measure-only, must act on nothing and serve less on time.
            let ladder = report.deadline_sheds.iter().sum::<u64>() + report.cold_skips;
            assert!(ladder > 0, "the enforcing flood must exercise the ladder");
            println!(
                "deadline flood @ {rate:.0}/s: sheds adm/queue/gen {:?}, cold skips {}",
                report.deadline_sheds, report.cold_skips
            );
            let baseline = run(tiers(), rate, n, flood(false, n));
            assert_eq!(baseline.deadline_sheds, [0, 0, 0], "measure-only shed");
            assert_eq!(baseline.cold_skips, 0, "measure-only cold skip");
            let base = goodput(&baseline, rate, n);
            relations.push((
                [
                    format!("enforcing goodput > measure-only @ {rate:.0}"),
                    cell(value),
                    cell(base),
                ],
                value > base,
            ));
        }
        measured.push((row, report));
    }

    let at = |metric: &str, rate: f64| {
        measured
            .iter()
            .find(|(r, _)| r.metric == metric && r.rate == rate)
            .map(|(_, report)| report)
    };
    for (row, paper) in measured
        .iter()
        .filter(|(r, _)| r.metric == "tiers_paper_p99")
    {
        let rate = row.rate;
        if let Some(cold) = at("tiers_all_cold_p99", rate) {
            let (cold_s, paper_s) = (cpu_scan_wall(cold), cpu_scan_wall(paper));
            relations.push((
                [
                    format!("all_cold cpu_scan wall > paper @ {rate:.0}"),
                    fmt_seconds(cold_s),
                    fmt_seconds(paper_s),
                ],
                cold_s > paper_s,
            ));
        }
        if let Some(hot) = at("tiers_all_hot_p99", rate) {
            let (paper_p50, bound) = (paper.search.p50, TIER_MARGIN * hot.search.p50);
            relations.push((
                [
                    format!("paper p50 <= {TIER_MARGIN} x all_hot p50 @ {rate:.0}"),
                    fmt_seconds(paper_p50),
                    fmt_seconds(bound),
                ],
                paper_p50 <= bound,
            ));
        }
        if let Some(scalar) = at("kernel_scalar_p99", rate) {
            let native = paper.store.as_ref().map_or("?", |s| s.kernel);
            assert_ne!(
                native, "scalar",
                "the paper row must run the native kernels (is VLITE_FORCE_SCALAR set?)"
            );
            for (q, simd, scalar, noise) in [
                ("p50", paper.search.p50, scalar.search.p50, KERNEL_P50_NOISE),
                ("p99", paper.search.p99, scalar.search.p99, KERNEL_NOISE),
            ] {
                relations.push((
                    [
                        format!("{native} {q} <= {noise} x scalar {q} @ {rate:.0}"),
                        fmt_seconds(simd),
                        fmt_seconds(noise * scalar),
                    ],
                    simd <= noise * scalar,
                ));
            }
        }
    }

    let mut relation_table = Table::new(vec!["relation", "left", "right", "verdict"]);
    for ([relation, left, right], ok) in relations {
        failures += usize::from(!ok);
        relation_table.row(vec![relation, left, right, verdict(ok)]);
    }
    println!("{}", table.render());
    println!("{}", relation_table.render());
    write_csv("ci_perf_gate.csv", &table.to_csv());
    if failures > 0 {
        eprintln!("perf gate FAILED: {failures} row(s) or relation(s) failed in {baseline_path}");
        std::process::exit(1);
    }
    println!("perf gate passed: every row within its budget, every relation holds.");
}

/// Wall seconds the run spent inside the cold tier's scan stage (the one
/// batcher's serial SQ8 scans of the CPU share).
fn cpu_scan_wall(report: &ServeReport) -> f64 {
    report
        .profile
        .iter()
        .find(|s| s.stage == "cpu_scan")
        .map_or(0.0, |s| s.wall_s)
}

fn verdict(ok: bool) -> String {
    String::from(if ok { "pass" } else { "FAIL" })
}
