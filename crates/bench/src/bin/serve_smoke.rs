//! Throughput/latency smoke benchmark for the `vlite-serve` runtime: the
//! real-tier counterpart of the simulated serving figures (latency
//! variance, SLO attainment, dispatcher behaviour) on this machine's
//! actual hardware.
//!
//! Default mode sweeps the offered Poisson rate and reports achieved
//! throughput, p50/p95/p99 search latency, SLO attainment, mean batch
//! size, and admission shedding, then an observability-overhead section
//! (the identical workload with the telemetry plane off vs on,
//! `results/serve_obs.csv`), then a multi-tenant isolation section.
//! Writes `results/serve_smoke.csv` and `results/serve_tenants.csv`.
//!
//! With `--ttft` it runs the co-scheduled sweep only: the same open-loop
//! driver against a server with a `GenerationConfig`, reporting TTFT
//! p50/p99 and TTFT SLO attainment per rate
//! (`results/serve_ttft.csv`).
//!
//! With `--tiers` it sweeps the physical storage tiers: the same
//! open-loop driver against three placements — all-hot (coverage 1.0,
//! everything resident at full precision), paper placement (the pinned
//! coverage the rest of this bench uses), and all-cold (coverage 0.0,
//! every scan through the segment file's mmap'd SQ8 extents on the single
//! CPU worker). Reports per-tier probe counts, fast-tier residency, and
//! search percentiles (`results/serve_tiers.csv`), and asserts the
//! expected asymmetry: all-cold p99 measurably worse than paper
//! placement, which tracks all-hot within `TIER_MARGIN`.
//!
//! With `--kernels` it sweeps the distance-kernel dispatch: the
//! paper-placement tier workload under forced-scalar vs native SIMD
//! kernels (`results/serve_kernels.csv`), and asserts that the SIMD row
//! never loses to the scalar row beyond the noise allowance.
//!
//! With `--trace` it runs the causal-tracing overhead A/B: the identical
//! workload with the trace plane (span trees, stage timers, burn-rate
//! watchdog) off vs on (`results/serve_trace.csv`), printing the trace-on
//! run's wall-vs-CPU scan-stage profile alongside the latency comparison.
//!
//! With `--deadlines` it floods the server with requests whose uniform
//! per-request budget cannot absorb the queueing the flood creates, and
//! runs the identical workload twice: measure-only (budgets recorded,
//! never acted on) vs enforcing (the full degradation ladder: admission
//! shed, queue-expiry shed, probe shrinking, cold-tier skip). Reports
//! goodput — deadline-met completions per offered second — per mode
//! (`results/serve_deadlines.csv`) and asserts the enforcing run's
//! goodput strictly exceeds the measure-only baseline's: shedding doomed
//! work early must buy capacity for feasible work.
//!
//! With `--gate <baseline.csv>` it instead runs only the rows listed in
//! the baseline file (`metric,rate,budget_s` rows, `#` comments allowed;
//! metrics: `search_p99` for retrieval-only rates, `ttft_p99` for
//! co-scheduled ones, `obs_overhead` for a fully-instrumented
//! telemetry-plane-on run, `trace_overhead` for a span-recording
//! trace-plane-on run, `tiers_all_hot_p99` / `tiers_paper_p99` /
//! `tiers_all_cold_p99` for the tier sweep, `kernel_scalar_p99` /
//! `kernel_simd_p99` for the dispatch A/B, `deadline_goodput` for the
//! deadline flood — the one *inverted* row, where the budget column is a
//! goodput floor the measured value must stay above) and exits nonzero if
//! any measured p99 exceeds its checked-in budget — CI's perf-smoke step,
//! catching dispatcher/queue (and now generation-bridge and tier-scan)
//! regressions before merge. Budgets are deliberately loose (an order of
//! magnitude above local measurements) so shared runners don't flake,
//! while a hot-path regression that queues batches still trips them.

use vlite_bench::{banner, write_csv};
use vlite_core::RealConfig;
use vlite_metrics::{fmt_seconds, Table};
use vlite_serve::loadgen::{
    run_open_loop, run_open_loop_tenants, LoadPhase, RotatingQuerySource, TenantLoad,
};
use vlite_serve::{GenerationConfig, RagServer, ServeConfig, ServeReport, TenantId, TenantSpec};
use vlite_workload::{CorpusConfig, SyntheticCorpus};

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
        coverage_override: Some(0.25),
    }
}

/// One single-tenant open-loop point: returns the achieved rate and the
/// final report. The telemetry plane runs in its default (enabled) state.
fn run_rate(corpus: &SyntheticCorpus, rate: f64, n_requests: usize) -> (f64, ServeReport) {
    run_rate_obs(corpus, rate, n_requests, true)
}

/// The same open-loop point with the telemetry plane toggled explicitly:
/// the obs-overhead comparison runs it both ways on the same workload.
fn run_rate_obs(
    corpus: &SyntheticCorpus,
    rate: f64,
    n_requests: usize,
    obs_enabled: bool,
) -> (f64, ServeReport) {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.queue_capacity = 512;
    config.obs.enabled = obs_enabled;
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    let outcome = run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    let report = server.shutdown();
    // Completions over the full run including the queue-drain phase: at
    // overload this converges to the service capacity instead of echoing
    // the offered rate.
    (outcome.achieved_rate(), report)
}

/// The same open-loop point with the trace plane toggled explicitly: the
/// trace-overhead comparison runs it both ways on the same workload. The
/// obs plane stays in its default (enabled) state either way, so the A/B
/// isolates the *tracing* cost — span trees, stage timers, watchdog.
fn run_rate_trace(
    corpus: &SyntheticCorpus,
    rate: f64,
    n_requests: usize,
    trace_enabled: bool,
) -> (f64, ServeReport) {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.queue_capacity = 512;
    config.trace.enabled = trace_enabled;
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    let outcome = run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    let report = server.shutdown();
    (outcome.achieved_rate(), report)
}

/// The causal-tracing overhead A/B: the identical workload with the trace
/// plane off, then on. Writes `results/serve_trace.csv` and prints the
/// trace-on run's scan-stage wall-vs-CPU profile (the `trace_overhead`
/// gate row pins the trace-on p99 in CI).
fn trace_sweep() {
    banner(
        "serve-smoke --trace",
        "causal-tracing overhead: trace plane off vs on at 500 req/s",
    );
    let corpus = corpus();
    let mut table = Table::new(vec![
        "tracing",
        "achieved (req/s)",
        "search p50",
        "search p99",
        "SLO attainment",
    ]);
    let mut p99 = [0.0f64; 2];
    for (i, (label, enabled)) in [("off", false), ("on", true)].into_iter().enumerate() {
        let (achieved, report) = run_rate_trace(&corpus, 500.0, 1_000, enabled);
        p99[i] = report.search.p99;
        if enabled {
            let scan = report
                .profile
                .iter()
                .find(|s| s.stage == "shard_scan")
                .expect("trace-on run profiles the scan stage");
            assert!(
                scan.sections > 0,
                "trace-on run must record scan stage sections"
            );
            println!(
                "scan stage (trace on): wall {}  cpu {}  stall {}  over {} sections",
                fmt_seconds(scan.wall_s),
                fmt_seconds(scan.cpu_s),
                fmt_seconds(scan.stall_s),
                scan.sections
            );
        } else {
            assert!(
                report.profile.is_empty(),
                "trace-off run must not carry a profile"
            );
        }
        table.row(vec![
            label.to_string(),
            format!("{achieved:.0}"),
            fmt_seconds(report.search.p50),
            fmt_seconds(report.search.p99),
            format!("{:.1}%", 100.0 * report.slo_attainment),
        ]);
    }
    println!("{}", table.render());
    write_csv("serve_trace.csv", &table.to_csv());
    println!(
        "trace-on p99 {} vs trace-off {}: span recording is a ring write plus",
        fmt_seconds(p99[1]),
        fmt_seconds(p99[0])
    );
    println!("two thread-CPU clock reads per stage section, off the reply path.");
}

/// The pinned "paper placement" coverage used across this bench.
const PAPER_COVERAGE: f64 = 0.25;

/// Paper placement must track all-hot within this p99 factor; the bound
/// is deliberately loose (CI-runner noise) while still catching a cold
/// path accidentally wired into the hot tier.
const TIER_MARGIN: f64 = 4.0;

/// p99 noise allowance for the kernel sweep's SIMD-vs-scalar comparison:
/// the tail folds in queueing bursts, so a shared runner can see a slow
/// SIMD p99 without the kernels being at fault.
const KERNEL_NOISE: f64 = 1.5;

/// p50 noise allowance for the same comparisons. The median is the
/// robust kernel signal (scan work dominates it; locally SIMD wins it
/// ~2.4x), but this sweep compares two *live server runs*, so even the
/// median jitters on shared CI runners — a strict `<` here can fail a
/// merge with no code regression. The allowance is small enough that a
/// dispatcher genuinely selecting a losing kernel (parity or worse)
/// still trips it.
const KERNEL_P50_NOISE: f64 = 1.15;

/// The tier sweep's corpus: big enough that scan work (not thread
/// coordination) dominates per-query latency, so the tiers' physical
/// asymmetry — parallel full-precision arenas vs serial SQ8 LUT scans —
/// is what the percentiles measure.
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

/// One open-loop point at a pinned cache coverage (tier placement):
/// 1.0 = all-hot, 0.0 = all-cold, anything else a genuine split.
fn run_rate_tier(
    corpus: &SyntheticCorpus,
    coverage: f64,
    rate: f64,
    n_requests: usize,
) -> ServeReport {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.real.coverage_override = Some(coverage);
    config.queue_capacity = 512;
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    server.shutdown()
}

/// One co-scheduled open-loop point: same driver, with the tiny LLM engine
/// bridged behind retrieval, so the report carries TTFT rows.
fn run_rate_ttft(corpus: &SyntheticCorpus, rate: f64, n_requests: usize) -> ServeReport {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.queue_capacity = 1024;
    config.generation = Some(GenerationConfig::tiny());
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    server.shutdown()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let path = args
            .get(i + 1)
            .expect("--gate needs a baseline CSV path")
            .clone();
        gate(&path);
        return;
    }
    if args.iter().any(|a| a == "--ttft") {
        assert!(args.len() == 1, "unknown arguments: {args:?}");
        ttft_sweep();
        return;
    }
    if args.iter().any(|a| a == "--tiers") {
        assert!(args.len() == 1, "unknown arguments: {args:?}");
        tiers_sweep();
        return;
    }
    if args.iter().any(|a| a == "--kernels") {
        assert!(args.len() == 1, "unknown arguments: {args:?}");
        kernels_sweep();
        return;
    }
    if args.iter().any(|a| a == "--deadlines") {
        assert!(args.len() == 1, "unknown arguments: {args:?}");
        deadlines_sweep();
        return;
    }
    if args.iter().any(|a| a == "--trace") {
        assert!(args.len() == 1, "unknown arguments: {args:?}");
        trace_sweep();
        return;
    }
    assert!(
        args.is_empty(),
        "unknown arguments: {args:?} (try --gate, --ttft, --tiers, --kernels, --deadlines or --trace)"
    );
    sweep();
}

/// The uniform per-request budget for the deadline flood, in seconds:
/// generous next to an unloaded request (~1-3 ms locally) and hopeless
/// next to the queueing the flood builds up, so enforcement has real
/// doomed work to shed.
const DEADLINE_BUDGET_S: f64 = 0.010;

/// The deadline flood's offered rate (req/s): far enough past the
/// paper-placement service capacity on the tier corpus (where cold
/// probes serialize on the single CPU worker) that the queue saturates
/// and budgets die in it.
const DEADLINE_FLOOD_RATE: f64 = 12_000.0;

/// One open-loop point where every request carries the same deadline
/// budget (via the policy default), with the ladder enforcing or
/// measure-only.
fn run_rate_deadline(
    corpus: &SyntheticCorpus,
    rate: f64,
    n_requests: usize,
    budget_s: f64,
    enforce: bool,
) -> ServeReport {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.queue_capacity = 512;
    config.deadline.default_deadline = Some(budget_s);
    config.deadline.enforce = enforce;
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    server.shutdown()
}

/// Deadline-met completions per offered second: the goodput a client with
/// this budget actually experiences. Late completions count for nothing.
fn goodput(report: &ServeReport, rate: f64, n_requests: usize) -> f64 {
    report.deadline_met as f64 / (n_requests as f64 / rate)
}

/// The deadline flood A/B: the identical over-budget workload with the
/// degradation ladder off (measure-only) and on (enforcing). Writes
/// `results/serve_deadlines.csv` and asserts enforcement strictly wins
/// on goodput.
fn deadlines_sweep() {
    banner(
        "serve-smoke --deadlines",
        "over-budget flood: measure-only vs enforcing degradation ladder",
    );
    // The tier corpus at paper placement: cold probes serialize on the
    // CPU worker, so an over-capacity flood builds real queueing for
    // budgets to die in — and rung 4 has a genuinely slow tier to skip.
    let corpus = tier_corpus();
    let n = 1_500;
    let mut table = Table::new(vec![
        "mode",
        "offered (req/s)",
        "budget",
        "completed",
        "deadline met",
        "goodput (met/s)",
        "sheds adm/queue/gen",
        "degraded probes",
        "cold skips",
        "attainment",
    ]);
    let mut goodputs = Vec::new();
    for (label, enforce) in [("measure_only", false), ("enforcing", true)] {
        let report = run_rate_deadline(&corpus, DEADLINE_FLOOD_RATE, n, DEADLINE_BUDGET_S, enforce);
        let g = goodput(&report, DEADLINE_FLOOD_RATE, n);
        goodputs.push(g);
        if !enforce {
            assert_eq!(
                report.deadline_sheds,
                [0, 0, 0],
                "measure-only must never shed on a deadline"
            );
            assert_eq!(report.degraded_probes, 0);
            assert_eq!(report.cold_skips, 0);
        }
        table.row(vec![
            label.to_string(),
            format!("{DEADLINE_FLOOD_RATE:.0}"),
            fmt_seconds(DEADLINE_BUDGET_S),
            report.completed.to_string(),
            report.deadline_met.to_string(),
            format!("{g:.1}"),
            format!(
                "{}/{}/{}",
                report.deadline_sheds[0], report.deadline_sheds[1], report.deadline_sheds[2]
            ),
            report.degraded_probes.to_string(),
            report.cold_skips.to_string(),
            report
                .deadline_attainment
                .map_or("-".into(), |a| format!("{:.1}%", 100.0 * a)),
        ]);
    }
    println!("{}", table.render());
    write_csv("serve_deadlines.csv", &table.to_csv());

    let (baseline, enforcing) = (goodputs[0], goodputs[1]);
    println!(
        "goodput: measure-only {baseline:.1}/s  enforcing {enforcing:.1}/s  \
         (budget {DEADLINE_BUDGET_S}s at {DEADLINE_FLOOD_RATE:.0} req/s offered)"
    );
    assert!(
        enforcing > baseline,
        "enforcing goodput ({enforcing:.2}/s) must strictly exceed measure-only \
         ({baseline:.2}/s): shedding doomed work early buys capacity for feasible work"
    );
    println!("deadline enforcement wins: {enforcing:.1}/s > {baseline:.1}/s goodput.");
}

/// The physical-tier sweep: all-hot vs paper placement vs all-cold at one
/// offered rate. Writes `results/serve_tiers.csv` and asserts the tiers'
/// latency asymmetry.
fn tiers_sweep() {
    banner(
        "serve-smoke --tiers",
        "physical storage-tier sweep: all-hot / paper placement / all-cold",
    );
    let corpus = tier_corpus();
    // Near the all-cold configuration's single-worker saturation: queueing
    // amplifies the serial SQ8 path's tail while the parallel placements
    // stay comfortable, so the tier asymmetry is unmistakable.
    let rate = 1_000.0;
    let n = 1_200;
    let mut table = Table::new(vec![
        "tier",
        "coverage",
        "fast probes",
        "cold probes",
        "fast residency",
        "search p50",
        "search p99",
        "SLO attainment",
    ]);
    let mut p99s = Vec::new();
    for (label, coverage) in [
        ("all_hot", 1.0),
        ("paper", PAPER_COVERAGE),
        ("all_cold", 0.0),
    ] {
        let report = run_rate_tier(&corpus, coverage, rate, n);
        let store = report
            .store
            .as_ref()
            .expect("tier sweep runs over a tiered store");
        match label {
            "all_hot" => assert_eq!(store.cold_probes, 0, "all-hot must never scan cold"),
            "all_cold" => assert_eq!(store.hot_probes, 0, "all-cold must never scan hot"),
            _ => assert!(
                store.hot_probes > 0 && store.cold_probes > 0,
                "paper placement must exercise both tiers"
            ),
        }
        p99s.push(report.search.p99);
        table.row(vec![
            label.to_string(),
            format!("{coverage:.2}"),
            store.hot_probes.to_string(),
            store.cold_probes.to_string(),
            format!("{:.1}%", 100.0 * store.fast_residency),
            fmt_seconds(report.search.p50),
            fmt_seconds(report.search.p99),
            format!("{:.1}%", 100.0 * report.slo_attainment),
        ]);
    }
    println!("{}", table.render());
    write_csv("serve_tiers.csv", &table.to_csv());

    let (all_hot, paper, all_cold) = (p99s[0], p99s[1], p99s[2]);
    println!(
        "p99: all-hot {}  paper {}  all-cold {}  (margin {TIER_MARGIN}x)",
        fmt_seconds(all_hot),
        fmt_seconds(paper),
        fmt_seconds(all_cold)
    );
    assert!(
        all_cold > paper,
        "all-cold p99 ({all_cold:.6}s) must be measurably worse than paper placement \
         ({paper:.6}s): every probe runs serially on the CPU worker through SQ8 LUTs"
    );
    assert!(
        paper <= all_hot * TIER_MARGIN,
        "paper placement p99 ({paper:.6}s) must track all-hot ({all_hot:.6}s) within {TIER_MARGIN}x"
    );
    println!("tier asymmetry holds: all_cold > paper, paper within {TIER_MARGIN}x of all_hot.");
}

/// One open-loop point at paper placement: the kernel A/B's shared
/// workload. Callers force the kernel (scalar or native) around this and
/// must clear it afterwards.
fn run_rate_kernel(corpus: &SyntheticCorpus, rate: f64, n_requests: usize) -> ServeReport {
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.real.coverage_override = Some(PAPER_COVERAGE);
    config.queue_capacity = 512;
    let server = RagServer::start(corpus, config).expect("server starts");
    let mut source = RotatingQuerySource::from_corpus(corpus, 11);
    run_open_loop(&server, &mut source, rate, n_requests, 17, |_, _| {});
    server.shutdown()
}

/// The kernel sweep: forced-scalar vs native SIMD kernels on the paper
/// placement tier workload (blocked batch scans, the only scan path).
/// Writes `results/serve_kernels.csv` and asserts the dispatch's whole
/// point: SIMD never loses to scalar.
fn kernels_sweep() {
    banner(
        "serve-smoke --kernels",
        "distance-kernel dispatch sweep at paper placement",
    );
    let corpus = tier_corpus();
    let rate = 1_000.0;
    let n = 1_200;
    let mut table = Table::new(vec![
        "kernel",
        "blocked passes",
        "search p50",
        "search p99",
        "SLO attainment",
    ]);
    // Forced scalar first; the second row is the shipped default.
    let mut p50 = [0.0; 2];
    let mut p99 = [0.0; 2];
    for (row, scalar) in [true, false].into_iter().enumerate() {
        if scalar {
            vlite_ann::kernel::force_scalar();
        } else {
            vlite_ann::kernel::force_native();
        }
        let report = run_rate_kernel(&corpus, rate, n);
        vlite_ann::kernel::clear_force();
        let store = report
            .store
            .as_ref()
            .expect("kernel sweep runs over a tiered store");
        let kernel = store.kernel;
        assert_eq!(
            kernel == "scalar",
            scalar,
            "the forced kernel must be the one the report attributes"
        );
        p50[row] = report.search.p50;
        p99[row] = report.search.p99;
        table.row(vec![
            kernel.to_string(),
            store.blocked_scans.to_string(),
            fmt_seconds(report.search.p50),
            fmt_seconds(report.search.p99),
            format!("{:.1}%", 100.0 * report.slo_attainment),
        ]);
    }
    println!("{}", table.render());
    write_csv("serve_kernels.csv", &table.to_csv());

    // Both comparisons carry a noise allowance: these are live server
    // runs, so neither percentile is jitter-free on shared runners. p50
    // gets the tight allowance (scan work dominates the median; locally
    // SIMD wins it ~2.4x), p99 the loose one (the tail also folds in
    // queueing bursts).
    assert!(
        p50[1] <= p50[0] * KERNEL_P50_NOISE,
        "SIMD p50 ({:.6}s) must not exceed scalar p50 ({:.6}s) by more than the \
         {KERNEL_P50_NOISE}x noise allowance: the dispatcher would be selecting a losing kernel",
        p50[1],
        p50[0]
    );
    assert!(
        p99[1] <= p99[0] * KERNEL_NOISE,
        "SIMD p99 ({:.6}s) must not exceed scalar p99 ({:.6}s) by more than the \
         {KERNEL_NOISE}x noise allowance",
        p99[1],
        p99[0]
    );
    println!("kernel dispatch holds: simd does not lose to scalar.");
}

/// One parsed baseline row: which metric, at which offered rate, under
/// which p99 budget.
struct GateRow {
    metric: String,
    rate: f64,
    budget: f64,
}

/// CI perf gate: measure only the baseline's rows, fail on any p99 breach.
fn gate(baseline_path: &str) {
    banner(
        "serve-smoke --gate",
        "p99 regression gate against a checked-in baseline",
    );
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let rows: Vec<GateRow> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with("metric"))
        .map(|line| {
            let mut cols = line.split(',').map(str::trim);
            let metric = cols
                .next()
                .unwrap_or_else(|| panic!("bad baseline row: {line}"))
                .to_string();
            let rate: f64 = cols
                .next()
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("bad baseline row: {line}"));
            let budget: f64 = cols
                .next()
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("bad baseline row: {line}"));
            GateRow {
                metric,
                rate,
                budget,
            }
        })
        .collect();
    assert!(!rows.is_empty(), "baseline {baseline_path} has no rows");

    let corpus = corpus();
    let mut table = Table::new(vec![
        "metric",
        "offered (req/s)",
        "measured p99",
        "p99 budget",
        "attainment",
        "verdict",
    ]);
    let mut breaches = 0;
    for row in &rows {
        let (p99, attainment) = match row.metric.as_str() {
            "search_p99" => {
                let (_, report) = run_rate(&corpus, row.rate, 600);
                (report.search.p99, report.slo_attainment)
            }
            "ttft_p99" => {
                let report = run_rate_ttft(&corpus, row.rate, 300);
                assert_eq!(
                    report.ttft.count as u64, report.completed,
                    "co-scheduled gate run must measure TTFT for every request"
                );
                (report.ttft.p99, report.ttft_attainment)
            }
            "obs_overhead" => {
                // The telemetry plane enabled (its default): the budget
                // bounds the p99 of a fully-instrumented run, so a
                // regression that puts a lock or allocation on the obs
                // hot path trips this row.
                let (_, report) = run_rate_obs(&corpus, row.rate, 600, true);
                assert!(
                    report.completed > 0,
                    "obs-overhead gate run must complete requests"
                );
                (report.search.p99, report.slo_attainment)
            }
            "trace_overhead" => {
                // Tracing in its default (enabled) state: the budget
                // bounds the p99 of a run where every request records a
                // span tree, every batch a shared batch span, and the
                // stage timers wrap each pipeline hop — a span-path lock
                // or allocation regression trips this row.
                let (_, report) = run_rate_trace(&corpus, row.rate, 600, true);
                assert!(
                    report
                        .profile
                        .iter()
                        .any(|s| s.stage == "shard_scan" && s.sections > 0),
                    "trace-overhead gate run must record scan stage sections"
                );
                (report.search.p99, report.slo_attainment)
            }
            "tiers_all_hot_p99" | "tiers_paper_p99" | "tiers_all_cold_p99" => {
                let coverage = match row.metric.as_str() {
                    "tiers_all_hot_p99" => 1.0,
                    "tiers_paper_p99" => PAPER_COVERAGE,
                    _ => 0.0,
                };
                let report = run_rate_tier(&tier_corpus(), coverage, row.rate, 600);
                assert!(report.store.is_some(), "tier gate runs need the store");
                (report.search.p99, report.slo_attainment)
            }
            "kernel_scalar_p99" | "kernel_simd_p99" => {
                let scalar = row.metric == "kernel_scalar_p99";
                if scalar {
                    vlite_ann::kernel::force_scalar();
                } else {
                    vlite_ann::kernel::force_native();
                }
                let report = run_rate_kernel(&tier_corpus(), row.rate, 600);
                vlite_ann::kernel::clear_force();
                let store = report
                    .store
                    .as_ref()
                    .expect("kernel gate runs need the store");
                assert_eq!(
                    store.kernel == "scalar",
                    scalar,
                    "kernel gate row must measure the kernel it names"
                );
                (report.search.p99, report.slo_attainment)
            }
            "deadline_goodput" => {
                // The one inverted row: the measured value is goodput
                // (deadline-met completions per offered second, enforcing
                // ladder, over-budget flood) and the budget column is a
                // FLOOR it must stay above — a regression that sheds too
                // eagerly or stops degrading drops it.
                let report =
                    run_rate_deadline(&tier_corpus(), row.rate, 600, DEADLINE_BUDGET_S, true);
                let ladder_actions = report.deadline_sheds.iter().sum::<u64>()
                    + report.degraded_probes
                    + report.cold_skips;
                assert!(
                    ladder_actions > 0,
                    "the deadline gate flood must actually exercise the ladder \
                     (no sheds, no probe shrinks, no cold skips)"
                );
                (
                    goodput(&report, row.rate, 600),
                    report.deadline_attainment.unwrap_or(0.0),
                )
            }
            other => panic!(
                "unknown baseline metric {other:?} \
                 (search_p99 | ttft_p99 | obs_overhead | trace_overhead | tiers_all_hot_p99 \
                 | tiers_paper_p99 | tiers_all_cold_p99 | kernel_scalar_p99 | kernel_simd_p99 \
                 | deadline_goodput)"
            ),
        };
        // Goodput gates invert: higher is better, the budget is a floor.
        let inverted = row.metric == "deadline_goodput";
        let ok = if inverted {
            p99 >= row.budget
        } else {
            p99 <= row.budget
        };
        if !ok {
            breaches += 1;
        }
        let fmt_cell = |v: f64| {
            if inverted {
                format!("{v:.1}/s")
            } else {
                fmt_seconds(v)
            }
        };
        table.row(vec![
            row.metric.clone(),
            format!("{:.0}", row.rate),
            fmt_cell(p99),
            fmt_cell(row.budget),
            format!("{attainment:.1}%", attainment = 100.0 * attainment),
            if ok { "pass".into() } else { "FAIL".into() },
        ]);
    }
    println!("{}", table.render());
    write_csv("ci_perf_gate.csv", &table.to_csv());
    if breaches > 0 {
        eprintln!("perf gate FAILED: {breaches} row(s) breached their budget in {baseline_path}");
        std::process::exit(1);
    }
    println!("perf gate passed: every row within its budget.");
}

/// The co-scheduled TTFT sweep: offered rate vs TTFT percentiles, phase
/// p99s, and TTFT SLO attainment. Writes `results/serve_ttft.csv`.
fn ttft_sweep() {
    banner(
        "serve-smoke --ttft",
        "co-scheduled retrieval + generation TTFT sweep",
    );
    let corpus = corpus();
    let mut table = Table::new(vec![
        "offered (req/s)",
        "ttft p50",
        "ttft p99",
        "gen queue p99",
        "prefill p99",
        "decode p99",
        "TTFT attainment",
    ]);
    for &rate in &[80.0, 140.0] {
        let report = run_rate_ttft(&corpus, rate, 300);
        table.row(vec![
            format!("{rate:.0}"),
            fmt_seconds(report.ttft.p50),
            fmt_seconds(report.ttft.p99),
            fmt_seconds(report.gen_queue.p99),
            fmt_seconds(report.prefill.p99),
            fmt_seconds(report.decode.p99),
            format!("{:.1}%", 100.0 * report.ttft_attainment),
        ]);
    }
    println!("{}", table.render());
    write_csv("serve_ttft.csv", &table.to_csv());
    println!("TTFT = retrieval queue + search + generation queue + prefill; the");
    println!("generation stage runs the LLM cost model on the wall clock, so rates");
    println!("past the engine's prefill capacity show up as generation queueing.");
}

/// The default full sweep plus the tenant-isolation section.
fn sweep() {
    banner(
        "serve-smoke",
        "vlite-serve wall-clock throughput/latency sweep",
    );

    let corpus = corpus();
    let mut table = Table::new(vec![
        "offered (req/s)",
        "achieved (req/s)",
        "rejected",
        "mean batch",
        "search p50",
        "search p95",
        "search p99",
        "SLO attainment",
    ]);

    for &rate in &[250.0, 500.0, 1_000.0, 2_000.0] {
        let (achieved, report) = run_rate(&corpus, rate, 1_000);
        table.row(vec![
            format!("{rate:.0}"),
            format!("{achieved:.0}"),
            format!("{}", report.rejected),
            format!("{:.1}", report.mean_batch),
            fmt_seconds(report.search.p50),
            fmt_seconds(report.search.p95),
            fmt_seconds(report.search.p99),
            format!("{:.1}%", 100.0 * report.slo_attainment),
        ]);
    }

    println!("{}", table.render());
    write_csv("serve_smoke.csv", &table.to_csv());
    println!("On-demand batching absorbs queueing as the offered rate crosses the");
    println!("service capacity: batch size grows, per-query latency stays bounded by");
    println!("the batch scan, and admission control sheds load past the queue bound.");

    // Observability overhead: the identical workload with the telemetry
    // plane's event journal off, then on. The aggregates (sharded atomics,
    // log-bucketed histograms) record either way — the report is built
    // from them — so the comparison documents that the journal is not a
    // tail-latency tax (the `obs_overhead` gate row pins the obs-on p99 in
    // CI).
    println!("\nobservability overhead: event journal off vs on at 500 req/s");
    let mut obs_table = Table::new(vec![
        "telemetry",
        "achieved (req/s)",
        "search p50",
        "search p99",
        "SLO attainment",
    ]);
    let mut obs_p99 = [0.0f64; 2];
    for (i, (label, enabled)) in [("off", false), ("on", true)].into_iter().enumerate() {
        let (achieved, report) = run_rate_obs(&corpus, 500.0, 1_000, enabled);
        obs_p99[i] = report.search.p99;
        obs_table.row(vec![
            label.to_string(),
            format!("{achieved:.0}"),
            fmt_seconds(report.search.p50),
            fmt_seconds(report.search.p99),
            format!("{:.1}%", 100.0 * report.slo_attainment),
        ]);
    }
    println!("{}", obs_table.render());
    write_csv("serve_obs.csv", &obs_table.to_csv());
    println!(
        "obs-on p99 {} vs obs-off {}: recording is lock-free on the request path.",
        fmt_seconds(obs_p99[1]),
        fmt_seconds(obs_p99[0])
    );

    // Multi-tenant isolation: a steady light tenant (weight 1) shares the
    // server with a heavy tenant (weight 4) offered far past capacity. The
    // per-tenant rows show the shedding charged to the heavy tenant only
    // and the light tenant's attainment holding.
    println!("\nmulti-tenant isolation: light 300/s vs heavy flood (weights 1:4)");
    let mut config = ServeConfig::small();
    config.real = real_config();
    config.tenants = vec![
        TenantSpec {
            weight: 1,
            queue_capacity: 256,
            slo_search: 0.010,
        },
        TenantSpec {
            weight: 4,
            queue_capacity: 256,
            slo_search: 0.010,
        },
    ];
    let server = RagServer::start(&corpus, config).expect("server starts");
    let mut loads = vec![
        TenantLoad {
            tenant: TenantId(0),
            source: RotatingQuerySource::from_corpus(&corpus, 19),
            phases: vec![LoadPhase {
                rate: 300.0,
                n: 300,
            }],
        },
        TenantLoad {
            tenant: TenantId(1),
            source: RotatingQuerySource::from_corpus(&corpus, 23),
            phases: vec![LoadPhase {
                rate: 30_000.0,
                n: 30_000,
            }],
        },
    ];
    run_open_loop_tenants(&server, &mut loads, 29);
    let report = server.shutdown();
    println!("{}", report.tenant_table().render());
    write_csv("serve_tenants.csv", &report.tenants_to_csv());
}
