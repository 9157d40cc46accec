//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root repeats these tables for the driver; a self-test holds the two
//! together. Names are permanent — later PRs are judged against them.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, in the metric's own unit (positive
    /// means `b` regressed).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => b - a,
            Better::Higher => a - b,
        }
    }
}

/// Where the driver's contract (`BENCHMARK.json`) carries an end-to-end
/// metric. `perf.json` and `perf compare` always carry all eleven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// A bounded `end_to_end` entry, reported by the untraced run.
    Gated,
    /// Too noisy on a shared 2-vCPU sandbox to hold any bound the contract
    /// allows (see README, "Noise"): listed under `per_layer` by the same
    /// name and reported by the traced run, unbounded.
    Demoted,
    /// `failed_share` is 0 on every healthy run, so no relative bound
    /// means anything: the contract's `failed` / `attempted` carry it,
    /// beside a `per_layer` entry of the same name.
    Counted,
}

/// One end-to-end metric and the worsening that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative to the baseline median, unless `absolute`.
    pub bound: f64,
    /// The bound is in the metric's own unit (shares that sit near 0 or 1
    /// have no meaningful relative change).
    pub absolute: bool,
    pub contract: Contract,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    contract: Contract,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        absolute: false,
        contract,
    }
}

/// The eleven end-to-end metrics, in print order. Timing bounds sit at
/// the contract's cap of 0.25: between runs minutes apart this sandbox's
/// own speed drifts by 10–18 % (README, "Noise"), so a tighter bound
/// would fire on the machine, not on the code.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Contract::Gated),
    e2e(
        "latency_p50_ms",
        "ms",
        Better::Lower,
        0.25,
        Contract::Demoted,
    ),
    e2e(
        "latency_p99_ms",
        "ms",
        Better::Lower,
        0.25,
        Contract::Demoted,
    ),
    e2e(
        "throughput_rps",
        "1/s",
        Better::Higher,
        0.25,
        Contract::Gated,
    ),
    e2e("goodput_rps", "1/s", Better::Higher, 0.25, Contract::Gated),
    e2e("ttft_p50_ms", "ms", Better::Lower, 0.25, Contract::Demoted),
    e2e("ttft_p99_ms", "ms", Better::Lower, 0.25, Contract::Demoted),
    e2e("cpu_s_per_kreq", "s", Better::Lower, 0.25, Contract::Gated),
    EndToEnd {
        name: "recall_at_10",
        unit: "share",
        better: Better::Higher,
        bound: 0.01,
        absolute: true,
        contract: Contract::Gated,
    },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, Contract::Gated),
    EndToEnd {
        name: FAILED_SHARE,
        unit: "share",
        better: Better::Lower,
        bound: 0.001,
        absolute: true,
        contract: Contract::Counted,
    },
];

pub const FAILED_SHARE: &str = "failed_share";

/// One per-layer metric. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by the module it measures. A workload
/// that does not exercise a layer reports 0 for it (no generation stage,
/// no socket, no cold tier) so the set of names is the same on every run.
pub const PER_LAYER: [Layer; 88] = [
    // ann::kernel — single-threaded streaming pass over the corpus.
    lo("ann.kernel.l2_ns_per_vec", "ns"),
    lo("ann.kernel.dot_ns_per_vec", "ns"),
    lo("ann.kernel.sq8_lut_ns_per_vec", "ns"),
    hi("ann.kernel.l2_gbps", "GB/s"),
    hi("ann.kernel.sq8_gbps", "GB/s"),
    // ann::ivf, ann::topk
    lo("ann.ivf.probe_us", "us"),
    lo("ann.ivf.train_s", "s"),
    lo("ann.topk.push_ns", "ns"),
    lo("ann.topk.merge_sorted_us", "us"),
    // store::tiered — layer pass through the live server's snapshot.
    lo("store.tiered.hot_scan_ns_per_vec", "ns"),
    lo("store.tiered.cold_scan_ns_per_vec", "ns"),
    lo("store.tiered.hot_batch64_ns_per_vec", "ns"),
    lo("store.tiered.cold_batch64_ns_per_vec", "ns"),
    lo("store.tiered.snapshot_ns", "ns"),
    // store::tiered — counters the server reports for the traced rep.
    hi("store.tiered.hot_probe_share", "share"),
    lo("store.tiered.hot_bytes_per_req", "B"),
    lo("store.tiered.cold_bytes_per_req", "B"),
    hi("store.tiered.blocked_scans_per_batch", "count"),
    hi("store.tiered.fast_residency", "share"),
    lo("store.tiered.snapshot_waits", "count"),
    lo("store.tiered.bytes_promoted", "B"),
    lo("store.tiered.bytes_demoted", "B"),
    lo("store.segment.create_s", "s"),
    // core — the offline stage.
    lo("core.real.build_s", "s"),
    lo("core.partition.algorithm_us", "us"),
    hi("core.partition.decided_coverage", "share"),
    lo("core.splitter.build_us", "us"),
    lo("core.router.route_ns", "ns"),
    lo("core.perfmodel.pred_over_meas", "ratio"),
    // serve::queue, serve::server
    lo("serve.queue.wait_p50_us", "us"),
    lo("serve.queue.wait_p99_us", "us"),
    lo("serve.queue.peak_depth", "count"),
    lo("serve.queue.rejected", "count"),
    lo("serve.server.submit_ns", "ns"),
    lo("serve.server.search_p50_us", "us"),
    lo("serve.server.search_p99_us", "us"),
    hi("serve.server.mean_batch", "count"),
    hi("serve.server.max_batch", "count"),
    hi("serve.server.batches_per_s", "1/s"),
    lo("serve.server.latency_p999_ms", "ms"),
    lo("serve.server.residue_us", "us"),
    lo("serve.server.residue_share", "share"),
    // serve::dispatch — one-shot dispatcher on a RealDeployment.
    lo("serve.dispatch.batch1_us", "us"),
    lo("serve.dispatch.batch64_us", "us"),
    lo("serve.dispatch.handoff64_us", "us"),
    // serve::trace — ServeReport.profile, per completed request.
    lo("serve.trace.cpu_us_per_req.acceptor", "us"),
    lo("serve.trace.cpu_us_per_req.batcher", "us"),
    lo("serve.trace.cpu_us_per_req.shard_scan", "us"),
    lo("serve.trace.cpu_us_per_req.cpu_scan", "us"),
    lo("serve.trace.cpu_us_per_req.dispatch", "us"),
    lo("serve.trace.cpu_us_per_req.generation", "us"),
    lo("serve.trace.cpu_us_per_req.migrate", "us"),
    lo("serve.trace.cpu_us_per_req.control", "us"),
    lo("serve.trace.stall_share.shard_scan", "share"),
    lo("serve.trace.stall_share.cpu_scan", "share"),
    // serve::http
    lo("serve.http.parser.parse_head_ns", "ns"),
    hi("serve.http.parser.mb_per_s", "MB/s"),
    lo("serve.http.json.parse_us", "us"),
    lo("serve.http.json.render_us", "us"),
    hi("serve.http.json.mb_per_s", "MB/s"),
    lo("serve.http.wire.decode_us", "us"),
    lo("serve.http.wire.encode_us", "us"),
    lo("serve.http.server.transport_us", "us"),
    // serve::generation
    lo("serve.generation.gen_queue_p50_ms", "ms"),
    lo("serve.generation.gen_queue_p99_ms", "ms"),
    lo("serve.generation.prefill_p50_ms", "ms"),
    lo("serve.generation.decode_p50_ms", "ms"),
    lo("serve.generation.gen_sheds", "count"),
    lo("serve.generation.stage_step_us", "us"),
    // serve::control, serve::migrate
    lo("serve.control.repartitions", "count"),
    lo("serve.control.repartition_ms_p50", "ms"),
    hi("serve.control.hot_overlap_mean", "share"),
    lo("serve.control.queue_depth_at_swap_max", "count"),
    lo("serve.migrate.migrations", "count"),
    lo("serve.migrate.duration_ms_p50", "ms"),
    lo("serve.migrate.bytes_moved", "B"),
    // serve::obs
    lo("serve.obs.scrape_us", "us"),
    lo("serve.obs.scrape_bytes", "B"),
    lo("serve.obs.report_us", "us"),
    // the run itself
    lo("bench.gen_lag_p99_ms", "ms"),
    lo("bench.gen_lag_max_ms", "ms"),
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.stream_gbps", "GB/s"),
    // end-to-end metrics the contract cannot bound (see `Contract`)
    lo("latency_p50_ms", "ms"),
    lo("latency_p99_ms", "ms"),
    lo("ttft_p50_ms", "ms"),
    lo("ttft_p99_ms", "ms"),
    lo(FAILED_SHARE, "share"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The characters the driver accepts in a metric or workload name.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_serve::http::json::Json;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workload::ALL.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(is_valid_name(name), "{name}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        // Exactly the metrics the contract does not gate are in both lists.
        let shared = END_TO_END
            .iter()
            .filter(|m| m.contract != Contract::Gated)
            .count();
        assert_eq!(names.len(), before - shared);
        for m in END_TO_END.iter().filter(|m| m.contract != Contract::Gated) {
            assert!(PER_LAYER.iter().any(|l| l.name == m.name), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary emits. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .to_vec()
        };
        let str_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("string")
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::ALL.len());
        for (json, spec) in workloads.iter().zip(crate::workload::ALL.iter()) {
            assert_eq!(str_of(json, "name"), spec.name);
            assert_eq!(str_of(json, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }

        let gated: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.contract == Contract::Gated)
            .collect();
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), gated.len());
        for (json, spec) in end_to_end.iter().zip(gated) {
            assert_eq!(str_of(json, "name"), spec.name);
            assert_eq!(str_of(json, "unit"), spec.unit);
            assert_eq!(str_of(json, "better"), spec.better.as_str());
            let bound = json.get("bound").and_then(Json::as_f64).expect("bound");
            assert!((bound - spec.bound).abs() < 1e-12, "{}", spec.name);
            assert!(bound <= 0.25);
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, spec) in per_layer.iter().zip(PER_LAYER.iter()) {
            assert_eq!(str_of(json, "name"), spec.name);
            assert_eq!(str_of(json, "unit"), spec.unit);
            assert_eq!(str_of(json, "better"), spec.better.as_str());
        }
    }
}
