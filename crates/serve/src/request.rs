//! Request/response types crossing the serving runtime's thread boundaries.

use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use vlite_ann::Neighbor;
use vlite_sim::SimTime;

use crate::trace::TraceId;

/// Identifies one tenant (SLO class) of the serving runtime.
///
/// The id is an index into [`ServeConfig::tenants`](crate::ServeConfig):
/// tenant 0 always exists (single-tenant configs get one implicit tenant),
/// so [`RagServer::submit`](crate::RagServer::submit) without a tenant is
/// shorthand for submitting as tenant 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The tenant's index into the configured tenant table.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The submitting tenant's bounded queue is at capacity (open-loop
    /// overload). Rejection charges the over-quota tenant only: no other
    /// tenant's queued work is evicted.
    QueueFull {
        /// The tenant whose quota was exhausted.
        tenant: TenantId,
        /// That tenant's configured queue capacity.
        capacity: usize,
    },
    /// The tenant id is not in the configured tenant table.
    UnknownTenant {
        /// The offending id.
        tenant: TenantId,
        /// Number of configured tenants (valid ids are `0..n_tenants`).
        n_tenants: usize,
    },
    /// The query vector is malformed: wrong dimensionality for the served
    /// index, or a non-finite (NaN/Inf) component. Rejected at admission —
    /// downstream the SIMD kernels assert on slice lengths and NaN poisons
    /// the top-k total order, so such a query must never reach a scan.
    InvalidQuery {
        /// Dimensionality of the served index.
        expected_dim: usize,
        /// Dimensionality of the submitted query.
        got_dim: usize,
        /// Whether the query contained a NaN or infinite component.
        non_finite: bool,
    },
    /// The request's deadline budget is already unmeetable at admission:
    /// the estimated queue wait (tenant lane depth over the recent drain
    /// rate) exceeds the whole end-to-end budget, so queueing it would
    /// only burn a batch slot on a guaranteed miss. Only produced when
    /// [`DeadlinePolicy::enforce`](crate::DeadlinePolicy) is on.
    DeadlineUnmeetable {
        /// The submitting tenant.
        tenant: TenantId,
        /// The request's end-to-end budget in seconds.
        budget: f64,
        /// The estimated queue wait in seconds that made it unmeetable.
        estimated_wait: f64,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { tenant, capacity } => {
                write!(f, "{tenant} queue full (capacity {capacity})")
            }
            AdmissionError::UnknownTenant { tenant, n_tenants } => {
                write!(f, "{tenant} not configured ({n_tenants} tenants)")
            }
            AdmissionError::InvalidQuery {
                expected_dim,
                got_dim,
                non_finite,
            } => {
                if *non_finite {
                    write!(f, "query contains a non-finite (NaN/Inf) component")
                } else {
                    write!(
                        f,
                        "query has {got_dim} dimensions but the index serves {expected_dim}"
                    )
                }
            }
            AdmissionError::DeadlineUnmeetable {
                tenant,
                budget,
                estimated_wait,
            } => {
                write!(
                    f,
                    "{tenant} deadline budget {:.3}s unmeetable (estimated queue wait {:.3}s)",
                    budget, estimated_wait
                )
            }
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Generation-stage phase timings of one co-scheduled request, all in
/// seconds. Present only when the server runs with a
/// [`GenerationConfig`](crate::GenerationConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationTimings {
    /// Merged top-k → prefill iteration start (waiting for KV space and a
    /// prefill slot in the engine).
    pub gen_queue: f64,
    /// Prefill iteration start → first token.
    pub prefill: f64,
    /// First token → last token (decode).
    pub decode: f64,
    /// Admission → first token: `queue + search + gen_queue + prefill`,
    /// the paper's headline end-to-end metric.
    pub ttft: f64,
}

/// Timeline of one served request, all in seconds (wall clock in
/// production, virtual [`Clock`](crate::Clock) time in deterministic
/// tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTimings {
    /// Admission → batch launch (queueing delay).
    pub queue: f64,
    /// Batch launch → merged top-k available (search execution).
    pub search: f64,
    /// Admission → final delivery: the merged top-k for retrieval-only
    /// servers, the last generated token for co-scheduled ones.
    pub e2e: f64,
    /// Generation phases and TTFT; `None` on retrieval-only servers.
    pub generation: Option<GenerationTimings>,
}

/// The merged retrieval result for one request.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Request id (assigned at admission).
    pub id: u64,
    /// The tenant that submitted the request.
    pub tenant: TenantId,
    /// Final merged top-k neighbors.
    pub neighbors: Vec<Neighbor>,
    /// Per-stage wall-clock timings.
    pub timings: RequestTimings,
    /// The request's cache hit rate (GPU probes / total probes) under the
    /// placement that served it.
    pub hit_rate: f64,
    /// Placement generation that served the request (increments on every
    /// online repartition).
    pub generation: u64,
    /// The request's 128-bit trace id (caller-supplied `traceparent` or
    /// derived deterministically at admission).
    pub trace: TraceId,
}

/// A handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) tenant: TenantId,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) trace: TraceId,
    pub(crate) rx: Receiver<SearchResponse>,
}

impl Ticket {
    /// The admitted request's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant the request was admitted under.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The request's absolute end-to-end deadline on the server's
    /// [`Clock`](crate::Clock), when it carries one (an explicit
    /// per-request deadline or the policy default stamped at admission).
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The request's 128-bit trace id: the caller's `traceparent` when one
    /// was supplied, otherwise derived deterministically at admission.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Blocks until the request completes. Returns `None` only if the
    /// server was torn down before serving it.
    pub fn wait(self) -> Option<SearchResponse> {
        self.rx.recv().ok()
    }

    /// Blocks up to `timeout`; `Ok(None)` means the server went away,
    /// `Err(self)` that the request is still in flight.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Option<SearchResponse>, Ticket> {
        match self.rx.recv_timeout(timeout) {
            Ok(response) => Ok(Some(response)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(self),
        }
    }
}

/// An admitted request travelling through the runtime (internal).
#[derive(Debug)]
pub(crate) struct Job {
    pub id: u64,
    pub tenant: TenantId,
    pub query: Vec<f32>,
    /// Admission timestamp on the server's [`Clock`](crate::Clock).
    pub enqueued: SimTime,
    /// Absolute end-to-end deadline, when the request carries a budget.
    /// `None` = unbudgeted: never shed or degraded on deadline grounds.
    pub deadline: Option<SimTime>,
    /// The request's trace id for causal span recording.
    pub trace: TraceId,
    pub reply: Sender<SearchResponse>,
}
