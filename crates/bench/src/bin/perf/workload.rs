//! The four workloads: what each one loads, why it exists, and the
//! inputs (corpus, server config, queries, arrival schedule) it is made
//! of. Only workload-defining inputs are set; everything else is
//! `ServeConfig` as shipped, telemetry planes on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::IvfConfig;
use vlite_core::{RealConfig, UpdateConfig};
use vlite_serve::http::json::Json;
use vlite_serve::loadgen::RotatingQuerySource;
use vlite_serve::{ControlConfig, GenerationConfig, ServeConfig};
use vlite_workload::{CorpusConfig, SyntheticCorpus};

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Closed: this many keep-alive connections, one thread each, the next
    /// request on the reply, over loopback through `HttpFrontend`.
    HttpClosed { connections: usize },
    /// Closed: this many in-process tickets kept outstanding by one thread
    /// (`submit` does not block).
    Window { tickets: usize },
    /// Open: in-process Poisson arrivals at this rate, one generator
    /// thread and one collector.
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layer this workload loads.
    pub why: &'static str,
    pub traffic: Loop,
    pub nprobe: usize,
    /// Pinned cache coverage ρ: 1.0 keeps every cluster resident f32.
    pub coverage: f64,
    /// Co-scheduled generation with the control loop armed and the hot set
    /// rotated twice per repetition.
    pub rag: bool,
    /// A reply later than this is not goodput (TTFT when `rag`).
    pub limit_s: f64,
    /// `recall_at_10` below this fails the run. Measured on seeds 1–10 and
    /// set a margin under the lowest value seen (see README).
    pub recall_floor: f64,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "http_closed",
        why: "2 keep-alive sockets, nprobe 8: parser, JSON codec, syscalls and thread hops dominate; scans do little",
        traffic: Loop::HttpClosed { connections: 2 },
        nprobe: 8,
        coverage: 0.25,
        rag: false,
        limit_s: 0.005,
        recall_floor: 0.70,
    },
    Workload {
        name: "hot_saturate",
        why: "64 in-process tickets outstanding, all clusters resident f32: kernels, blocked batch scans and top-k merge at capacity",
        traffic: Loop::Window { tickets: 64 },
        nprobe: 32,
        coverage: 1.0,
        rag: false,
        limit_s: 0.025,
        recall_floor: 0.90,
    },
    Workload {
        name: "paper_open",
        why: "Poisson 1200/s at 25% coverage: on-demand batching and hybrid dispatch, most probes on the cold SQ8 tier's one worker",
        traffic: Loop::Open { rate: 1200.0 },
        nprobe: 32,
        coverage: 0.25,
        rag: false,
        limit_s: 0.015,
        recall_floor: 0.80,
    },
    Workload {
        name: "rag_drift",
        why: "Poisson 140/s into co-scheduled generation while the hot set rotates: TTFT with repartitions and migrations under live scans",
        traffic: Loop::Open { rate: 140.0 },
        nprobe: 32,
        coverage: 0.25,
        rag: true,
        limit_s: 0.250,
        recall_floor: 0.80,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// The corpus and index size a run uses: the fixed inputs of the real
/// benchmark, or a miniature for the harness self-tests.
#[derive(Debug, Clone)]
pub struct Scale {
    pub corpus: CorpusConfig,
    pub nlist: usize,
    /// Queries replayed through each layer in the layer pass.
    pub layer_queries: usize,
    /// Whether floors (recall, repartition count, generator lag) fail the
    /// run. Off only for the miniature, which is too short to meet them.
    pub strict: bool,
}

impl Scale {
    /// 100 000 × 64: 25.6 MB f32 / 6.4 MB SQ8 — above L2, around LLC.
    pub fn full() -> Scale {
        Scale {
            corpus: CorpusConfig {
                n_vectors: 100_000,
                dim: 64,
                n_centers: 64,
                zipf_exponent: 1.1,
                noise: 0.3,
                seed: 3,
            },
            nlist: 256,
            layer_queries: 2048,
            strict: true,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Scale {
        Scale {
            corpus: CorpusConfig {
                n_vectors: 2_000,
                dim: 64,
                n_centers: 16,
                zipf_exponent: 1.1,
                noise: 0.3,
                seed: 3,
            },
            nlist: 32,
            layer_queries: 64,
            strict: false,
        }
    }
}

pub const TOP_K: usize = 10;
pub const MAX_BATCH: usize = 64;

impl Workload {
    pub fn nprobe_at(&self, scale: &Scale) -> usize {
        self.nprobe.min(scale.nlist / 2)
    }

    pub fn serve_config(&self, scale: &Scale) -> ServeConfig {
        let mut config = ServeConfig::small();
        config.real = RealConfig {
            ivf: IvfConfig::new(scale.nlist),
            nprobe: self.nprobe_at(scale),
            top_k: TOP_K,
            n_profile_queries: 512,
            n_shards: 2,
            coverage_override: Some(self.coverage),
            ..RealConfig::small()
        };
        config.max_batch = MAX_BATCH;
        if self.rag {
            config.generation = Some(GenerationConfig::tiny());
            // Divergence 0.02: the re-chased hot sets overlap 75–88 %, so
            // the hit rate moves by about 0.04 when the topics rotate. At
            // the issue's 0.04 the trigger fired between 1 and 12 times a
            // run depending on the seed; at 0.02 it is bounded by the
            // cooldown and fires 10–13 times in every run.
            config.control = ControlConfig {
                update: UpdateConfig {
                    slo_attainment_threshold: 0.9,
                    hit_rate_divergence: 0.02,
                    window_requests: 200,
                },
                profile_window: 600,
                cooldown_requests: 200,
                require_slo_breach: false,
                ..ControlConfig::default()
            };
        }
        config
    }

    /// The workload's configuration as written to `perf.json`.
    pub fn config_json(&self, scale: &Scale) -> Json {
        let config = self.serve_config(scale);
        let traffic = match self.traffic {
            Loop::HttpClosed { connections } => format!("closed, {connections} http connections"),
            Loop::Window { tickets } => format!("closed, window {tickets} in-process"),
            Loop::Open { rate } => format!("open, poisson {rate}/s in-process"),
        };
        let num = |x: usize| Json::Num(x as f64);
        Json::Obj(vec![
            ("why".into(), Json::Str(self.why.into())),
            ("traffic".into(), Json::Str(traffic)),
            ("limit_ms".into(), Json::Num(self.limit_s * 1e3)),
            ("recall_floor".into(), Json::Num(self.recall_floor)),
            ("n_vectors".into(), num(scale.corpus.n_vectors)),
            ("dim".into(), num(scale.corpus.dim)),
            ("n_centers".into(), num(scale.corpus.n_centers)),
            (
                "zipf_exponent".into(),
                Json::Num(scale.corpus.zipf_exponent),
            ),
            ("noise".into(), Json::Num(f64::from(scale.corpus.noise))),
            ("corpus_seed".into(), Json::Num(scale.corpus.seed as f64)),
            ("nlist".into(), num(scale.nlist)),
            ("nprobe".into(), num(config.real.nprobe)),
            ("top_k".into(), num(config.real.top_k)),
            ("n_shards".into(), num(config.real.n_shards)),
            ("coverage_override".into(), Json::Num(self.coverage)),
            (
                "n_profile_queries".into(),
                num(config.real.n_profile_queries),
            ),
            ("max_batch".into(), num(config.max_batch)),
            ("queue_capacity".into(), num(config.queue_capacity)),
            ("generation".into(), Json::Bool(self.rag)),
            ("control_armed".into(), Json::Bool(self.rag)),
            ("obs_enabled".into(), Json::Bool(config.obs.enabled)),
            ("trace_enabled".into(), Json::Bool(config.trace.enabled)),
        ])
    }
}

/// Warm-up followed by equal repetitions, in nanoseconds since the run's
/// epoch. Untraced repetitions run back to back; in a traced run each is
/// preceded by a short unmeasured gap, because the `ServeReport` read at
/// a boundary holds the server's metrics lock long enough to stall the
/// pipeline, and that stall must not land in a measured repetition.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup_ns: u64,
    pub gap_ns: u64,
    pub rep_ns: u64,
    pub reps: usize,
}

impl Phases {
    pub fn new(warmup_s: f64, gap_s: f64, rep_s: f64, reps: usize) -> Phases {
        Phases {
            warmup_ns: (warmup_s * 1e9) as u64,
            gap_ns: (gap_s * 1e9) as u64,
            rep_ns: (rep_s * 1e9).max(1.0) as u64,
            reps,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.boundary(self.reps)
    }

    /// Where the counters are read: the start of the gap before
    /// repetition `i`, and for `i == reps` the end of the run.
    pub fn boundary(&self, i: usize) -> u64 {
        self.warmup_ns + (self.gap_ns + self.rep_ns) * i as u64
    }

    /// The repetition an instant falls in and how far into it; `None`
    /// during warm-up, in a gap, and after the last repetition.
    fn locate(&self, t_ns: u64) -> Option<(usize, u64)> {
        let since = t_ns.checked_sub(self.warmup_ns)?;
        let period = self.gap_ns + self.rep_ns;
        let rep = (since / period) as usize;
        let into = (since % period).checked_sub(self.gap_ns)?;
        (rep < self.reps).then_some((rep, into))
    }

    pub fn rep_of(&self, t_ns: u64) -> Option<usize> {
        self.locate(t_ns).map(|(rep, _)| rep)
    }

    /// Whether the hot set is rotated at this instant: the middle third
    /// of every repetition.
    fn rotated_at(&self, t_ns: u64) -> bool {
        self.locate(t_ns)
            .is_some_and(|(_, into)| (self.rep_ns / 3..2 * self.rep_ns / 3).contains(&into))
    }
}

/// Poisson arrival instants at `rate`/s covering the whole run.
pub fn poisson_schedule(rate: f64, phases: &Phases, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x09e4_100b);
    let total_s = phases.total_ns() as f64 / 1e9;
    let mut due = Vec::with_capacity((rate * total_s * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= total_s {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Closed loops cycle through this many pre-generated queries.
pub const QUERY_POOL: usize = 8192;

/// Every `EVAL_EVERY`-th request carries a query from a fixed evaluation
/// set instead of the seeded stream, and `recall_at_10` is scored on the
/// replies to those. Recall is a property of the index and the search
/// settings; scoring it on the same queries in every run keeps sampling
/// noise (±2 % between seeds on 1 024 random replies) out of a metric
/// whose bound is 1 %.
pub const EVAL_EVERY: usize = 8;
pub const EVAL_QUERIES: usize = 512;
const EVAL_SEED: u64 = 0xe7a1;

/// The evaluation query a request index carries, if any.
pub fn eval_slot(index: usize) -> Option<usize> {
    index
        .is_multiple_of(EVAL_EVERY)
        .then_some(index / EVAL_EVERY % EVAL_QUERIES)
}

/// The queries of one run, generated before the clock starts: one per
/// scheduled arrival for open loops, a pool to cycle through for closed
/// ones. `--seed` drives all but the evaluation queries. When the
/// workload drifts, queries due in the middle third of a repetition come
/// from a hot set rotated by half the topics.
pub fn queries(
    workload: &Workload,
    corpus: &SyntheticCorpus,
    seed: u64,
    phases: &Phases,
    schedule: Option<&[u64]>,
) -> Vec<Vec<f32>> {
    let rotate_by = corpus.centers.len() / 2;
    let mut eval = RotatingQuerySource::from_corpus(corpus, EVAL_SEED);
    let mut eval_set = |rotation| -> Vec<Vec<f32>> {
        eval.set_rotation(rotation);
        (0..EVAL_QUERIES).map(|_| eval.next_query()).collect()
    };
    let (eval_plain, eval_rotated) = (eval_set(0), eval_set(rotate_by));
    let mut source = RotatingQuerySource::from_corpus(corpus, seed);
    (0..schedule.map_or(QUERY_POOL, <[u64]>::len))
        .map(|i| {
            let rotated = workload.rag && schedule.is_some_and(|due| phases.rotated_at(due[i]));
            match eval_slot(i) {
                Some(slot) if rotated => eval_rotated[slot].clone(),
                Some(slot) => eval_plain[slot].clone(),
                None => {
                    source.set_rotation(if rotated { rotate_by } else { 0 });
                    source.next_query()
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_partition_the_timeline() {
        let p = Phases::new(1.0, 0.0, 3.0, 3);
        assert_eq!(p.rep_of(0), None);
        assert_eq!(p.rep_of(999_999_999), None);
        assert_eq!(p.rep_of(1_000_000_000), Some(0));
        assert_eq!(p.rep_of(3_999_999_999), Some(0));
        assert_eq!(p.rep_of(4_000_000_000), Some(1));
        assert_eq!(p.rep_of(9_999_999_999), Some(2));
        assert_eq!(p.rep_of(10_000_000_000), None);
        assert_eq!(p.total_ns(), 10_000_000_000);
        // Rotated only in the middle second of each three-second rep.
        assert!(!p.rotated_at(500_000_000));
        assert!(!p.rotated_at(1_500_000_000));
        assert!(p.rotated_at(2_500_000_000));
        assert!(!p.rotated_at(3_500_000_000));
        assert!(p.rotated_at(5_500_000_000));

        // With gaps: warm-up 1 s, then (gap 0.5 s, rep 2 s) twice.
        let g = Phases::new(1.0, 0.5, 2.0, 2);
        assert_eq!(g.boundary(0), 1_000_000_000);
        assert_eq!(g.rep_of(1_250_000_000), None, "in the first gap");
        assert_eq!(g.rep_of(1_500_000_000), Some(0));
        assert_eq!(g.rep_of(3_499_999_999), Some(0));
        assert_eq!(g.boundary(1), 3_500_000_000);
        assert_eq!(g.rep_of(3_700_000_000), None, "in the second gap");
        assert_eq!(g.rep_of(4_000_000_000), Some(1));
        assert_eq!(g.total_ns(), 6_000_000_000);
        assert_eq!(g.rep_of(6_000_000_000), None);
        assert!(g.rotated_at(2_500_000_000) && !g.rotated_at(1_600_000_000));
    }

    #[test]
    fn evaluation_queries_do_not_depend_on_the_seed() {
        let scale = Scale::smoke();
        let corpus = SyntheticCorpus::generate(&scale.corpus);
        let phases = Phases::new(0.0, 0.0, 1.0, 1);
        let a = queries(&ALL[1], &corpus, 1, &phases, None);
        let b = queries(&ALL[1], &corpus, 2, &phases, None);
        assert_eq!(a.len(), QUERY_POOL);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[8 * 5], b[8 * 5]);
        assert_ne!(a[1], b[1]);
        // The pool holds each evaluation query a whole number of times.
        assert_eq!(eval_slot(0), Some(0));
        assert_eq!(eval_slot(8 * EVAL_QUERIES), Some(0));
        assert_eq!(eval_slot(QUERY_POOL - 8), Some(EVAL_QUERIES - 1));
        assert_eq!(eval_slot(3), None);
        assert_eq!(a[0], a[8 * EVAL_QUERIES]);
    }

    #[test]
    fn schedule_is_seeded_and_on_rate() {
        let p = Phases::new(0.0, 0.0, 10.0, 1);
        let a = poisson_schedule(1000.0, &p, 1);
        assert_eq!(a, poisson_schedule(1000.0, &p, 1));
        assert_ne!(a, poisson_schedule(1000.0, &p, 2));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < p.total_ns());
    }
}
