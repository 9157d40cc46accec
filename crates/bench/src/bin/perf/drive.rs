//! The load drivers. Each one issues the pre-generated requests of a run
//! against a started server and records, per request, the instants the
//! client saw and the stage timings the reply carried — nothing is
//! measured inside the program.
//!
//! Thread budget: at most `nproc` (2 on the sizing machine) threads issue
//! or collect requests — two connection threads (`http_closed`), one
//! multiplexing thread (`hot_saturate`), or one generator plus one
//! collector (open loops). The main thread only sleeps between repetition
//! boundaries, where it reads the process CPU clock.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vlite_serve::http::{wire, HttpClient};
use vlite_serve::{RagServer, SearchResponse, ServeReport, Ticket};

use crate::env;
use crate::workload::{eval_slot, Loop, Phases, Workload, EVAL_QUERIES};

/// The run's time origin; every recorded instant is nanoseconds since it.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Epoch {
        Epoch(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps to an absolute target, so one late wake-up does not shift
    /// every later arrival.
    pub fn sleep_until(&self, target_ns: u64) {
        let now = self.now_ns();
        if target_ns > now {
            std::thread::sleep(Duration::from_nanos(target_ns - now));
        }
    }
}

/// What one request looked like from outside.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due (the submit instant in closed loops).
    pub due_ns: u64,
    /// The `submit` / `post_json` call: start and return.
    pub submit_ns: u64,
    pub submitted_ns: u64,
    /// Reply in the client's hands.
    pub done_ns: u64,
    /// Served, and (when generation is co-scheduled) not shed.
    pub ok: bool,
    /// From the due instant; the workload's latency definition.
    pub latency_s: f64,
    /// From the due instant to the first token; equals `latency_s` where
    /// no generation stage runs (the reply *is* the first token).
    pub ttft_s: f64,
    /// Server-reported stage timings of the reply.
    pub queue_s: f64,
    pub search_s: f64,
    pub e2e_s: f64,
    pub gen_queue_s: f64,
    pub prefill_s: f64,
    pub decode_s: f64,
    pub hit_rate: f64,
}

/// Benchmark-side span names; the stage spans are rebuilt from the
/// timings a reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Request,
    Lateness,
    Call,
    Wait,
    Queue,
    Search,
    GenQueue,
    Prefill,
    Decode,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::Lateness => "lateness",
            SpanName::Call => "call",
            SpanName::Wait => "wait",
            SpanName::Queue => "queue",
            SpanName::Search => "search",
            SpanName::GenQueue => "gen_queue",
            SpanName::Prefill => "prefill",
            SpanName::Decode => "decode",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace_id: u64,
    pub name: SpanName,
    pub parent: Option<SpanName>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Upper bound on spans one request records.
const SPANS_PER_REQUEST: usize = 9;

/// Per-thread record of a run.
#[derive(Debug)]
pub struct Recorder {
    phases: Phases,
    rag: bool,
    /// Latency is the client's wall time per exchange (sockets) instead of
    /// lateness plus the server-stamped end-to-end time (in-process, where
    /// replies are collected in submission order).
    client_wall: bool,
    /// The repetition whose requests also record spans.
    traced_rep: Option<usize>,
    pub samples: Vec<Sample>,
    /// Replies kept for the output checks: the latest `(query index,
    /// reply)` for each query of the fixed evaluation set, by slot.
    pub kept: Vec<Option<(usize, SearchResponse)>>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(
        workload: &Workload,
        phases: Phases,
        traced_rep: Option<usize>,
        expect: usize,
    ) -> Recorder {
        Recorder {
            phases,
            rag: workload.rag,
            client_wall: matches!(workload.traffic, Loop::HttpClosed { .. }),
            traced_rep,
            samples: Vec::with_capacity(expect),
            kept: (0..EVAL_QUERIES).map(|_| None).collect(),
            spans: Vec::with_capacity(if traced_rep.is_some() {
                expect * SPANS_PER_REQUEST
            } else {
                0
            }),
        }
    }

    /// Records one finished (or refused) request.
    fn complete(
        &mut self,
        seq: usize,
        query: usize,
        [due_ns, submit_ns, submitted_ns, done_ns]: [u64; 4],
        reply: Option<SearchResponse>,
    ) {
        let Some(rep) = self.phases.rep_of(due_ns) else {
            return; // warm-up, or past the last repetition
        };
        let lateness_s = (submit_ns - due_ns) as f64 / 1e9;
        let mut sample = Sample {
            due_ns,
            submit_ns,
            submitted_ns,
            done_ns,
            ok: false,
            latency_s: 0.0,
            ttft_s: 0.0,
            queue_s: 0.0,
            search_s: 0.0,
            e2e_s: 0.0,
            gen_queue_s: 0.0,
            prefill_s: 0.0,
            decode_s: 0.0,
            hit_rate: 0.0,
        };
        if let Some(reply) = reply {
            let t = reply.timings;
            sample.queue_s = t.queue;
            sample.search_s = t.search;
            sample.e2e_s = t.e2e;
            sample.hit_rate = reply.hit_rate;
            sample.latency_s = if self.client_wall {
                (done_ns - due_ns) as f64 / 1e9
            } else {
                lateness_s + t.e2e
            };
            sample.ttft_s = sample.latency_s;
            sample.ok = !self.rag;
            if let Some(g) = t.generation {
                sample.gen_queue_s = g.gen_queue;
                sample.prefill_s = g.prefill;
                sample.decode_s = g.decode;
                sample.ttft_s = lateness_s + g.ttft;
                sample.ok = true;
            }
            if let Some(slot) = eval_slot(query) {
                self.kept[slot] = Some((query, reply));
            }
        }
        if self.traced_rep == Some(rep) {
            self.record_spans(seq as u64, &sample);
        }
        self.samples.push(sample);
    }

    fn record_spans(&mut self, trace_id: u64, s: &Sample) {
        let mut push = |name, parent, start_ns: u64, end_ns: u64| {
            self.spans.push(Span {
                trace_id,
                name,
                parent,
                start_ns,
                end_ns,
            });
        };
        let root = Some(SpanName::Request);
        push(SpanName::Request, None, s.due_ns, s.done_ns);
        push(SpanName::Lateness, root, s.due_ns, s.submit_ns);
        push(SpanName::Call, root, s.submit_ns, s.submitted_ns);
        // Over a socket the call is the whole exchange and there is no
        // separate wait; the stage spans hang off whichever covers them.
        let stages_under = if s.done_ns > s.submitted_ns {
            push(SpanName::Wait, root, s.submitted_ns, s.done_ns);
            Some(SpanName::Wait)
        } else {
            Some(SpanName::Call)
        };
        if !s.ok {
            return;
        }
        // Admission is stamped inside the call; anchoring the stage
        // timeline at the call's start keeps children inside the parent.
        let mut at = s.submit_ns;
        let mut stage = |name, seconds: f64| {
            let end = at + (seconds * 1e9) as u64;
            push(name, stages_under, at, end);
            at = end;
        };
        stage(SpanName::Queue, s.queue_s);
        stage(SpanName::Search, s.search_s);
        if self.rag {
            stage(SpanName::GenQueue, s.gen_queue_s);
            stage(SpanName::Prefill, s.prefill_s);
            stage(SpanName::Decode, s.decode_s);
        }
    }
}

/// The process CPU clock (and, in the traced run, the server's report)
/// read at one repetition boundary.
#[derive(Debug)]
pub struct Boundary {
    pub at_ns: u64,
    pub cpu_s: f64,
    pub report: Option<ServeReport>,
}

/// Where the requests go.
pub enum Target<'a> {
    InProcess(&'a RagServer),
    Http {
        server: &'a RagServer,
        addr: SocketAddr,
        /// Request bodies rendered before the clock starts, one per query.
        bodies: &'a [String],
    },
}

impl Target<'_> {
    fn server(&self) -> &RagServer {
        match self {
            Target::InProcess(server) | Target::Http { server, .. } => server,
        }
    }
}

pub struct Run {
    pub recorders: Vec<Recorder>,
    /// One per repetition boundary: `reps + 1` entries.
    pub boundaries: Vec<Boundary>,
}

/// Runs warm-up plus every repetition of one workload against `target`.
pub fn run(
    workload: &Workload,
    target: &Target<'_>,
    queries: &[Vec<f32>],
    schedule: Option<&[u64]>,
    phases: Phases,
    traced_rep: Option<usize>,
) -> Run {
    let stop = AtomicBool::new(false);
    let epoch = Epoch::start();
    let reps_s = phases.reps as f64 * phases.rep_ns as f64 / 1e9;
    let recorder = |expect: f64| Recorder::new(workload, phases, traced_rep, expect as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = match (workload.traffic, target) {
            (Loop::HttpClosed { connections }, Target::Http { addr, bodies, .. }) => (0
                ..connections)
                .map(|c| {
                    let rec = recorder(8_000.0 * reps_s / connections as f64);
                    let stop = &stop;
                    scope
                        .spawn(move || http_loop(*addr, bodies, (c, connections), epoch, stop, rec))
                })
                .collect(),
            (Loop::Window { tickets }, Target::InProcess(server)) => {
                let rec = recorder(20_000.0 * reps_s);
                let stop = &stop;
                vec![scope.spawn(move || window_loop(server, queries, tickets, epoch, stop, rec))]
            }
            (Loop::Open { rate }, Target::InProcess(server)) => {
                let schedule = schedule.expect("open loops run on a schedule");
                let rec = recorder(rate * reps_s * 1.1);
                let (tx, rx) = mpsc::channel();
                scope.spawn(move || generate(server, queries, schedule, epoch, &tx));
                vec![scope.spawn(move || collect(&rx, epoch, rec))]
            }
            _ => panic!("workload {} cannot run on this target", workload.name),
        };

        let with_reports = traced_rep.is_some();
        let boundaries = (0..=phases.reps)
            .map(|i| {
                epoch.sleep_until(phases.boundary(i));
                Boundary {
                    at_ns: epoch.now_ns(),
                    cpu_s: env::process_cpu_s(),
                    report: with_reports.then(|| target.server().report()),
                }
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        Run {
            recorders: handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect(),
            boundaries,
        }
    })
}

fn http_loop(
    addr: SocketAddr,
    bodies: &[String],
    (first, step): (usize, usize),
    epoch: Epoch,
    stop: &AtomicBool,
    mut rec: Recorder,
) -> Recorder {
    let mut client = HttpClient::connect(addr).expect("connect to the frontend");
    let mut seq = first;
    while !stop.load(Ordering::SeqCst) {
        let query = seq % bodies.len();
        let sent = epoch.now_ns();
        let response = client.post_json("/v1/search", &[], &bodies[query]);
        let done = epoch.now_ns();
        // Decoding is the client's own work and stays outside the timed
        // exchange; a reply that is not a decodable 200 is a failure.
        let reply = response
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| r.json().ok())
            .and_then(|json| wire::search_response_from_json(&json).ok());
        rec.complete(seq, query, [sent, sent, done, done], reply);
        seq += step;
    }
    rec
}

fn window_loop(
    server: &RagServer,
    queries: &[Vec<f32>],
    window: usize,
    epoch: Epoch,
    stop: &AtomicBool,
    mut rec: Recorder,
) -> Recorder {
    let mut in_flight: VecDeque<(usize, u64, u64, Option<Ticket>)> =
        VecDeque::with_capacity(window);
    let mut seq = 0usize;
    loop {
        while in_flight.len() < window && !stop.load(Ordering::SeqCst) {
            let query = queries[seq % queries.len()].clone();
            let submit = epoch.now_ns();
            let ticket = server.submit(query).ok();
            in_flight.push_back((seq, submit, epoch.now_ns(), ticket));
            seq += 1;
        }
        // Batches complete in admission order, so the oldest ticket is
        // the next to resolve.
        let Some((seq, submit, submitted, ticket)) = in_flight.pop_front() else {
            return rec;
        };
        let reply = ticket.and_then(Ticket::wait);
        let times = [submit, submit, submitted, epoch.now_ns()];
        rec.complete(seq, seq % queries.len(), times, reply);
    }
}

type InFlight = (usize, [u64; 3], Option<Ticket>);

fn generate(
    server: &RagServer,
    queries: &[Vec<f32>],
    schedule: &[u64],
    epoch: Epoch,
    tx: &mpsc::Sender<InFlight>,
) {
    for (seq, &due) in schedule.iter().enumerate() {
        let query = queries[seq].clone();
        epoch.sleep_until(due);
        let submit = epoch.now_ns();
        let ticket = server.submit(query).ok();
        let sent = (seq, [due, submit, epoch.now_ns()], ticket);
        if tx.send(sent).is_err() {
            return; // collector gone: its panic surfaces at join
        }
    }
}

fn collect(rx: &mpsc::Receiver<InFlight>, epoch: Epoch, mut rec: Recorder) -> Recorder {
    for (seq, [due, submit, submitted], ticket) in rx {
        let reply = ticket.and_then(Ticket::wait);
        rec.complete(seq, seq, [due, submit, submitted, epoch.now_ns()], reply);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_serve::{RequestTimings, TenantId};

    fn reply() -> SearchResponse {
        SearchResponse {
            id: 0,
            tenant: TenantId(0),
            neighbors: Vec::new(),
            timings: RequestTimings {
                queue: 0.001,
                search: 0.002,
                e2e: 0.003,
                generation: None,
            },
            hit_rate: 0.5,
            generation: 0,
            trace: vlite_serve::TraceId(1),
        }
    }

    #[test]
    fn latency_counts_from_the_due_instant_and_warmup_is_dropped() {
        let workload = &crate::workload::ALL[2];
        let phases = Phases::new(1.0, 0.0, 1.0, 1);
        let mut rec = Recorder::new(workload, phases, Some(0), 4);
        rec.complete(0, 0, [500, 600, 700, 800], Some(reply())); // warm-up
        let due = 1_500_000_000;
        rec.complete(
            1,
            1,
            [due, due + 2_000_000, due + 2_100_000, due + 9_000_000],
            Some(reply()),
        );
        rec.complete(2, 2, [due, due, due, due], None);
        assert_eq!(rec.samples.len(), 2);
        let s = rec.samples[0];
        assert!(s.ok);
        assert!((s.latency_s - 0.005).abs() < 1e-9, "2 ms late + 3 ms e2e");
        assert_eq!(s.ttft_s, s.latency_s);
        assert!(!rec.samples[1].ok);
        // request, lateness, call, wait, queue, search — then the refused
        // request's request, lateness, call.
        assert_eq!(rec.spans.len(), 9);
        assert!(rec
            .spans
            .iter()
            .filter(|sp| sp.parent == Some(SpanName::Wait))
            .all(|sp| sp.start_ns >= due + 2_000_000));

        // Request 1 is not an evaluation query; index 8 is slot 1, and a
        // later reply to the same slot replaces the earlier one.
        assert!(rec.kept.iter().all(Option::is_none));
        for query in [8, 8 + 8 * EVAL_QUERIES] {
            rec.complete(3, query, [due, due, due, due], Some(reply()));
        }
        let kept_query = rec.kept[1].as_ref().map(|(q, _)| *q);
        assert_eq!(kept_query, Some(8 + 8 * EVAL_QUERIES));
    }
}
