//! Open-loop load generation against a [`RagServer`].
//!
//! The generators submit on a wall-clock Poisson schedule regardless of
//! completions (open loop): under overload the admission queue fills and
//! requests are *rejected*, not silently delayed — the regime the paper's
//! SLO-attainment figures probe. [`RotatingQuerySource`] draws queries from
//! a corpus's topic mixture and can rotate the Zipf hot set mid-run, the
//! drift scenario of §IV-B3.
//!
//! Three drivers:
//! - [`run_open_loop`] — single-tenant (tenant 0), one Poisson rate;
//! - [`run_open_loop_tenants`] — multi-tenant: each tenant brings its own
//!   Zipf query source and a piecewise-constant rate schedule
//!   ([`LoadPhase`]), so one tenant can flood mid-run while another stays
//!   steady. Per-tenant arrival processes are independent Poisson streams
//!   merged on the wall clock.
//! - [`run_open_loop_http`] — the same multi-tenant schedule fired over a
//!   real TCP socket against an
//!   [`HttpFrontend`](crate::http::HttpFrontend), through a pool of
//!   persistent keep-alive connections.

use std::net::SocketAddr;

use crossbeam::channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::VecSet;
use vlite_sim::SimDuration;
use vlite_workload::{gaussian, SyntheticCorpus, ZipfSampler};

use crate::clock::{Clock, RealClock};
use crate::http::client::HttpClient;
use crate::http::wire;
use crate::request::{AdmissionError, SearchResponse, TenantId, Ticket};
use crate::server::RagServer;

/// Draws queries near a corpus's topic centers with Zipf-distributed topic
/// popularity, with a rotatable hot set.
#[derive(Debug, Clone)]
pub struct RotatingQuerySource {
    centers: VecSet,
    noise: f32,
    zipf: ZipfSampler,
    rotation: usize,
    rng: StdRng,
}

impl RotatingQuerySource {
    /// A source matching the corpus's own generation law (same Zipf
    /// exponent, query noise slightly wider than document noise, as in
    /// [`SyntheticCorpus::queries`]).
    pub fn from_corpus(corpus: &SyntheticCorpus, seed: u64) -> Self {
        let config = corpus.config();
        Self {
            centers: corpus.centers.clone(),
            noise: config.noise * 1.25,
            zipf: ZipfSampler::new(corpus.centers.len(), config.zipf_exponent),
            rotation: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x10ad_9e4e),
        }
    }

    /// Rotates the popularity ranking by `offset` topics: the workload's
    /// hot set moves while its shape stays identical.
    pub fn set_rotation(&mut self, offset: usize) {
        self.rotation = offset % self.centers.len();
    }

    /// The current rotation offset.
    pub fn rotation(&self) -> usize {
        self.rotation
    }

    /// Draws the next query.
    pub fn next_query(&mut self) -> Vec<f32> {
        let topic = (self.zipf.sample(&mut self.rng) + self.rotation) % self.centers.len();
        let center = self.centers.get(topic);
        center
            .iter()
            .map(|&c| c + gaussian(&mut self.rng) * self.noise)
            .collect()
    }
}

/// Outcome of one open-loop run.
#[derive(Debug)]
pub struct OpenLoopResult {
    /// Requests the generator attempted to submit.
    pub submitted: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Completed responses, in submission order. Under an enforcing
    /// [`DeadlinePolicy`](crate::DeadlinePolicy) a request shed
    /// mid-pipeline resolves without a response and is absent here.
    pub responses: Vec<SearchResponse>,
}

/// Submits `n` requests at Poisson `rate` (requests/second) as tenant 0,
/// calling `before_submit(i, source)` ahead of each draw — the hook where
/// drift experiments rotate the hot set mid-run — then waits for all
/// admitted requests to complete.
///
/// # Panics
///
/// Panics if `rate` is not finite and positive or `n == 0`.
pub fn run_open_loop(
    server: &RagServer,
    source: &mut RotatingQuerySource,
    rate: f64,
    n: usize,
    seed: u64,
    mut before_submit: impl FnMut(usize, &mut RotatingQuerySource),
) -> OpenLoopResult {
    assert!(
        rate.is_finite() && rate > 0.0,
        "rate must be positive, got {rate}"
    );
    assert!(n > 0, "need at least one request");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x09e4_100b);
    // Pacing runs on the server's clock: wall time in production, and
    // non-blocking deterministic steps when the server was started on a
    // virtual clock.
    let clock = server.clock();
    let started = clock.now();
    let mut next_at = 0.0f64;
    let mut tickets: Vec<Ticket> = Vec::with_capacity(n);
    let mut rejected = 0usize;

    for i in 0..n {
        before_submit(i, source);
        // Exponential inter-arrival gap; absolute targets keep the offered
        // rate honest even when sleep granularity is coarse.
        let u: f64 = rng.random();
        next_at += -(1.0 - u).ln() / rate;
        clock.sleep_until(started + SimDuration::from_secs_f64(next_at));
        match server.submit(source.next_query()) {
            Ok(ticket) => tickets.push(ticket),
            Err(_) => rejected += 1,
        }
    }

    let responses = tickets.into_iter().filter_map(Ticket::wait).collect();
    OpenLoopResult {
        submitted: n,
        rejected,
        responses,
    }
}

/// One segment of a tenant's piecewise-constant offered load: `n` requests
/// at Poisson `rate` (requests/second).
#[derive(Debug, Clone, Copy)]
pub struct LoadPhase {
    /// Offered Poisson arrival rate in requests/second.
    pub rate: f64,
    /// Number of requests in this phase.
    pub n: usize,
}

/// One tenant's offered load for a multi-tenant open-loop run.
#[derive(Debug)]
pub struct TenantLoad {
    /// The tenant to submit as.
    pub tenant: TenantId,
    /// This tenant's query distribution.
    pub source: RotatingQuerySource,
    /// Phases played back to back; a mid-run flood is a phase with a much
    /// higher rate.
    pub phases: Vec<LoadPhase>,
}

/// One tenant's slice of a [`MultiTenantResult`].
#[derive(Debug)]
pub struct TenantLoopResult {
    /// The tenant this slice describes.
    pub tenant: TenantId,
    /// Requests this tenant attempted to submit.
    pub submitted: usize,
    /// Requests rejected against this tenant's quota.
    pub rejected: usize,
    /// Requests answered `504 Gateway Timeout` (HTTP driver only): the
    /// request's deadline budget was unmeetable or expired in flight.
    pub deadline_misses: usize,
    /// This tenant's completed responses, in submission order.
    pub responses: Vec<SearchResponse>,
}

/// Outcome of one multi-tenant open-loop run.
#[derive(Debug)]
pub struct MultiTenantResult {
    /// Per-tenant outcomes, in the order the loads were given.
    pub tenants: Vec<TenantLoopResult>,
}

/// Drives several tenants' open-loop Poisson streams against one server.
///
/// Each tenant's arrival times are drawn independently from its phase
/// schedule, then every arrival is merged onto one wall clock and submitted
/// in timestamp order via [`RagServer::submit_for`]. Rejections charge the
/// submitting tenant only. After the last submission the driver waits for
/// every admitted request to complete.
///
/// # Panics
///
/// Panics if no load has any requests, or any phase rate is not finite and
/// positive.
pub fn run_open_loop_tenants(
    server: &RagServer,
    loads: &mut [TenantLoad],
    seed: u64,
) -> MultiTenantResult {
    let arrivals = merged_arrivals(loads, seed);

    let mut outcomes: Vec<TenantLoopResult> = loads
        .iter()
        .map(|load| TenantLoopResult {
            tenant: load.tenant,
            submitted: 0,
            rejected: 0,
            deadline_misses: 0,
            responses: Vec::new(),
        })
        .collect();
    let mut tickets: Vec<Vec<Ticket>> = loads.iter().map(|_| Vec::new()).collect();

    let clock = server.clock();
    let started = clock.now();
    for (at, li) in arrivals {
        clock.sleep_until(started + SimDuration::from_secs_f64(at));
        let load = &mut loads[li];
        let query = load.source.next_query();
        outcomes[li].submitted += 1;
        match server.submit_for(load.tenant, query) {
            Ok(ticket) => tickets[li].push(ticket),
            // Only quota rejections are part of the overload experiment;
            // anything else (unknown tenant, shutdown mid-run) is driver
            // misuse and must not masquerade as shedding.
            Err(AdmissionError::QueueFull { .. }) => outcomes[li].rejected += 1,
            Err(err) => panic!("open-loop submission failed: {err}"),
        }
    }

    for (li, tenant_tickets) in tickets.into_iter().enumerate() {
        for ticket in tenant_tickets {
            if let Some(response) = ticket.wait() {
                outcomes[li].responses.push(response);
            }
        }
    }
    MultiTenantResult { tenants: outcomes }
}

/// Precomputes every tenant's Poisson arrival offsets (seconds from start)
/// and merges them into one timestamp-ordered schedule of `(at, load
/// index)` pairs.
///
/// # Panics
///
/// Panics if no load has any requests, or any phase rate is not finite and
/// positive.
fn merged_arrivals(loads: &[TenantLoad], seed: u64) -> Vec<(f64, usize)> {
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for (li, load) in loads.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x7e2a_177e + load.tenant.0 as u64 * 0x9e37));
        let mut t = 0.0f64;
        for phase in &load.phases {
            assert!(
                phase.rate.is_finite() && phase.rate > 0.0,
                "rate must be positive, got {}",
                phase.rate
            );
            for _ in 0..phase.n {
                let u: f64 = rng.random();
                t += -(1.0 - u).ln() / phase.rate;
                arrivals.push((t, li));
            }
        }
    }
    assert!(!arrivals.is_empty(), "need at least one request");
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("arrival times are finite"));
    arrivals
}

/// One worker's report back to the collector.
enum HttpOutcome {
    /// `200 OK` with a decoded search response.
    Completed(SearchResponse),
    /// `429 Too Many Requests` — shed against the submitting tenant's
    /// quota, the same signal as an in-process `QueueFull`.
    Rejected,
    /// `504 Gateway Timeout` — the request's deadline budget was
    /// unmeetable at admission or expired in flight.
    DeadlineMiss,
}

/// Drives the multi-tenant open-loop schedule over a real TCP socket
/// against an [`HttpFrontend`](crate::http::HttpFrontend) at `addr`.
///
/// Arrivals follow the same merged Poisson schedule as
/// [`run_open_loop_tenants`]; each submission is handed to a pool of
/// `connections` worker threads, every one holding a persistent keep-alive
/// connection. A `429` counts as a rejection charged to the submitting
/// tenant; any other non-`200` status is driver misuse and panics. The
/// per-request timings inside each returned [`SearchResponse`] are the
/// *server's* measurements, decoded from the response body, so they are
/// directly comparable with an in-process run.
///
/// Since `POST /v1/search` blocks until the result is merged, `connections`
/// bounds the number of in-flight requests: size it above the offered rate
/// times the expected latency, or submissions lag the open-loop schedule.
/// Per-tenant responses arrive in completion order, not submission order.
///
/// # Panics
///
/// Panics on an empty schedule, `connections == 0`, connect failures, or a
/// status other than `200`/`429`/`504`.
pub fn run_open_loop_http(
    addr: SocketAddr,
    loads: &mut [TenantLoad],
    seed: u64,
    connections: usize,
) -> MultiTenantResult {
    assert!(connections > 0, "need at least one connection");
    let arrivals = merged_arrivals(loads, seed);

    // vlite-allow(bounded-queues): the generator enqueues one job per
    // scripted arrival; the schedule is finite and precomputed.
    let (job_tx, job_rx) = channel::unbounded::<(usize, TenantId, Vec<f32>)>();
    // vlite-allow(bounded-queues): exactly one outcome per scripted job.
    let (result_tx, result_rx) = channel::unbounded::<(usize, HttpOutcome)>();
    let workers: Vec<std::thread::JoinHandle<()>> = (0..connections)
        .map(|w| {
            let rx = job_rx.clone();
            let tx = result_tx.clone();
            std::thread::Builder::new()
                .name(format!("vlite-loadgen-{w}"))
                .spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("loadgen connects");
                    while let Ok((li, tenant, query)) = rx.recv() {
                        let body = wire::search_request_to_json(&query).render();
                        let tenant_header = tenant.0.to_string();
                        let response = client
                            .post_json("/v1/search", &[("X-Tenant", &tenant_header)], &body)
                            .expect("search exchange succeeds");
                        let outcome = match response.status {
                            200 => {
                                let json = response.json().expect("response body is JSON");
                                HttpOutcome::Completed(
                                    wire::search_response_from_json(&json)
                                        .expect("response decodes"),
                                )
                            }
                            429 => HttpOutcome::Rejected,
                            504 => HttpOutcome::DeadlineMiss,
                            status => panic!("unexpected status {status} from /v1/search"),
                        };
                        if tx.send((li, outcome)).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn loadgen worker")
        })
        .collect();
    drop(job_rx);
    drop(result_tx);

    let mut outcomes: Vec<TenantLoopResult> = loads
        .iter()
        .map(|load| TenantLoopResult {
            tenant: load.tenant,
            submitted: 0,
            rejected: 0,
            deadline_misses: 0,
            responses: Vec::new(),
        })
        .collect();

    // The HTTP driver paces against a remote server over real sockets, so
    // its schedule always runs on the wall clock (through the same Clock
    // interface as the in-process drivers).
    let clock = RealClock::new();
    let started = clock.now();
    for (at, li) in arrivals {
        clock.sleep_until(started + SimDuration::from_secs_f64(at));
        let load = &mut loads[li];
        let query = load.source.next_query();
        outcomes[li].submitted += 1;
        job_tx
            .send((li, load.tenant, query))
            .expect("worker pool alive");
    }

    drop(job_tx); // workers drain the backlog, then exit
    for worker in workers {
        worker.join().expect("loadgen worker panicked");
    }
    while let Ok((li, outcome)) = result_rx.try_recv() {
        match outcome {
            HttpOutcome::Completed(response) => outcomes[li].responses.push(response),
            HttpOutcome::Rejected => outcomes[li].rejected += 1,
            HttpOutcome::DeadlineMiss => outcomes[li].deadline_misses += 1,
        }
    }
    MultiTenantResult { tenants: outcomes }
}
