//! The network frontend: a thread-per-connection HTTP/1.1 acceptor mapping
//! the API onto a [`RagServer`].
//!
//! | Endpoint | Maps to |
//! |---|---|
//! | `POST /v1/search` (+ `X-Tenant`, `traceparent`) | [`RagServer::submit_with_trace`], blocks on the [`Ticket`], streams the merged result back with a `traceparent` response header |
//! | `GET /v1/report` | [`RagServer::report`] as JSON |
//! | `GET /v1/metrics` | [`RagServer::prometheus_text`] + frontend uptime, as Prometheus text exposition |
//! | `GET /v1/traces` | the recent + slow finished requests, listed from the span store's `request` roots (each entry carries its `trace_id`) |
//! | `GET /v1/trace/{id}` | drill-down: one trace's causal span tree plus the traces it links (`?format=chrome` for a `chrome://tracing` export) |
//! | `GET /v1/profile` | per-stage wall vs CPU profile + collapsed stacks weighted by section CPU |
//! | `GET /v1/alerts` | SLO burn-rate watchdog states per signal |
//! | `GET /v1/events` | the journal of runtime events (repartitions, migrations, SLO burn transitions, panics) as JSON (`?severity=` to filter) |
//! | `GET /v1/tenants` | the tenant table |
//! | `GET /healthz` | liveness + version + queue depth + placement generation + completed count |
//!
//! Connections are persistent (HTTP/1.1 keep-alive, pipelining included);
//! each runs on its own thread with a short read timeout so it can observe
//! shutdown. [`HttpFrontend::shutdown`] stops the acceptor, lets in-flight
//! requests finish (their tickets are served by the still-running batcher),
//! closes idle connections, then gracefully quiesces the runtime itself and
//! returns the final [`ServeReport`]. Dropping the frontend without calling
//! `shutdown` performs the same teardown.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vlite_sim::SimTime;

use crate::config::HttpConfig;
use crate::http::json::Json;
use crate::http::parser::{self, ParseError, RequestHead};
use crate::http::wire;
use crate::obs::Severity;
use crate::report::ServeReport;
use crate::request::{AdmissionError, TenantId, Ticket};
use crate::server::RagServer;
use crate::trace::{format_traceparent, parse_traceparent};

/// How often a blocked connection read re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Upper bound on writing one response to a stalled client.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound in seconds the handler waits on an *unbudgeted* request
/// before answering `504 Gateway Timeout` — the backstop that keeps a
/// wedged pipeline from pinning connection threads forever. Budgeted
/// requests wait until their own deadline instead. Froze
/// `DeadlinePolicy::max_http_wait` at its default.
const MAX_HTTP_WAIT_S: f64 = 30.0;

/// State shared between the acceptor and every connection thread.
struct FrontendInner {
    server: RagServer,
    config: HttpConfig,
    shutting_down: AtomicBool,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// The runtime clock's reading at bind time; uptime is measured on
    /// the same `Clock` as every other timestamp, so VirtualClock tests
    /// see a deterministic uptime too.
    started: SimTime,
}

impl FrontendInner {
    fn uptime_seconds(&self) -> f64 {
        (self.server.clock().now() - self.started).as_secs_f64()
    }
}

/// The HTTP/1.1 frontend. Owns the [`RagServer`] and the acceptor thread.
pub struct HttpFrontend {
    inner: Option<Arc<FrontendInner>>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for HttpFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFrontend")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl HttpFrontend {
    /// Binds `config.addr` and starts accepting connections against an
    /// already-running `server`. Use port `0` to let the OS pick (read the
    /// result back from [`HttpFrontend::addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(server: RagServer, config: &HttpConfig) -> std::io::Result<HttpFrontend> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let started = server.clock().now();
        let inner = Arc::new(FrontendInner {
            server,
            config: config.clone(),
            shutting_down: AtomicBool::new(false),
            conn_threads: Mutex::new(Vec::new()),
            started,
        });
        let acceptor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("vlite-http-accept".into())
                .spawn(move || acceptor(&listener, &inner))
                .expect("spawn http acceptor")
        };
        Ok(HttpFrontend {
            inner: Some(inner),
            acceptor: Some(acceptor),
            addr,
        })
    }

    /// The address the frontend actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving runtime behind the frontend (for in-process submissions
    /// and report snapshots alongside network traffic).
    pub fn server(&self) -> &RagServer {
        &self.inner.as_ref().expect("frontend is running").server
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, close
    /// idle connections, quiesce the runtime, return the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.quiesce();
        let inner = self.inner.take().expect("shutdown runs once");
        let inner = Arc::try_unwrap(inner)
            .map_err(|_| ())
            .expect("all connection threads joined");
        inner.server.shutdown()
    }

    /// Stops the acceptor and joins every connection thread. In-flight
    /// requests complete first: their tickets are served by the runtime,
    /// which is still fully up until [`HttpFrontend::shutdown`] quiesces it.
    fn quiesce(&mut self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        inner.shutting_down.store(true, Ordering::SeqCst);
        // The acceptor is blocked in `accept`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(&mut *crate::sync::lock_recover(&inner.conn_threads));
        for handle in handles {
            if handle.join().is_err() {
                inner.server.record_connection_panic();
            }
        }
    }
}

impl Drop for HttpFrontend {
    fn drop(&mut self) {
        // Same quiesce path as `shutdown`; the runtime then tears down
        // gracefully through `RagServer`'s own `Drop`.
        self.quiesce();
        self.inner.take();
    }
}

fn acceptor(listener: &TcpListener, inner: &Arc<FrontendInner>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return; // the shutdown poke (or a late client)
                }
                let conn_inner = inner.clone();
                let spawned = std::thread::Builder::new()
                    .name("vlite-http-conn".into())
                    .spawn(move || connection(&conn_inner, stream));
                if let Ok(handle) = spawned {
                    let mut threads = crate::sync::lock_recover(&inner.conn_threads);
                    // Reap finished connections so a long-lived frontend
                    // under churn doesn't accumulate dead handles — and
                    // actually join them: a bare `retain(!is_finished)`
                    // discards the JoinHandle, which silently swallows any
                    // connection-thread panic.
                    let mut live = Vec::with_capacity(threads.len() + 1);
                    for h in threads.drain(..) {
                        if h.is_finished() {
                            if h.join().is_err() {
                                inner.server.record_connection_panic();
                            }
                        } else {
                            live.push(h);
                        }
                    }
                    *threads = live;
                    threads.push(handle);
                }
            }
            Err(_) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// What the connection loop should do after one service attempt.
enum Step {
    /// The buffer holds no complete request yet.
    NeedMore,
    /// One request was answered; the connection stays open.
    Served,
    /// The connection must close (protocol error or `Connection: close`).
    Close,
}

fn connection(inner: &FrontendInner, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut continue_sent = false;
    loop {
        // Serve every complete pipelined request already buffered.
        loop {
            match try_serve_one(inner, &mut buf, &mut stream, &mut continue_sent) {
                Ok(Step::NeedMore) => break,
                Ok(Step::Served) => {}
                Ok(Step::Close) | Err(_) => return,
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return; // idle (or mid-request) connection at shutdown
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses and answers at most one request from the front of `buf`.
fn try_serve_one(
    inner: &FrontendInner,
    buf: &mut Vec<u8>,
    stream: &mut TcpStream,
    continue_sent: &mut bool,
) -> std::io::Result<Step> {
    let (response, consumed, keep) = match parser::parse_head(buf) {
        Ok(None) => return Ok(Step::NeedMore),
        Err(err) => {
            // Framing is unrecoverable after a parse error: answer and close.
            let status = match err {
                ParseError::HeadTooLarge => (431, "Request Header Fields Too Large"),
                ParseError::UnsupportedVersion => (505, "HTTP Version Not Supported"),
                _ => (400, "Bad Request"),
            };
            let response = encode_response(
                status,
                &wire::error_body(&err.to_string()),
                &[],
                JSON_CT,
                false,
            );
            stream.write_all(&response)?;
            return Ok(Step::Close);
        }
        Ok(Some((head, head_len))) => {
            if head.is_chunked() {
                let response = encode_response(
                    (411, "Length Required"),
                    &wire::error_body("chunked transfer encoding is not supported"),
                    &[],
                    JSON_CT,
                    false,
                );
                stream.write_all(&response)?;
                return Ok(Step::Close);
            }
            let body_len = match head.content_length() {
                Ok(n) => n,
                Err(err) => {
                    let response = encode_response(
                        (400, "Bad Request"),
                        &wire::error_body(&err.to_string()),
                        &[],
                        JSON_CT,
                        false,
                    );
                    stream.write_all(&response)?;
                    return Ok(Step::Close);
                }
            };
            if body_len > inner.config.max_body {
                // Reject before buffering the body; the unread bytes make
                // the framing unusable, so the connection closes.
                let response = encode_response(
                    (413, "Payload Too Large"),
                    &wire::error_body(&format!(
                        "body of {body_len} bytes exceeds the {}-byte limit",
                        inner.config.max_body
                    )),
                    &[],
                    JSON_CT,
                    false,
                );
                stream.write_all(&response)?;
                return Ok(Step::Close);
            }
            if buf.len() < head_len + body_len {
                if head.expects_continue() && !*continue_sent {
                    *continue_sent = true;
                    stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
                }
                return Ok(Step::NeedMore);
            }
            let body = &buf[head_len..head_len + body_len];
            let keep = head.keep_alive() && !inner.shutting_down.load(Ordering::SeqCst);
            let reply = route(inner, &head, body);
            (
                encode_response(
                    reply.status,
                    &reply.body,
                    &reply.headers,
                    reply.content_type,
                    keep,
                ),
                head_len + body_len,
                keep,
            )
        }
    };
    stream.write_all(&response)?;
    buf.drain(..consumed);
    *continue_sent = false;
    Ok(if keep { Step::Served } else { Step::Close })
}

/// One routed response: status, body, extra headers, content type.
struct Reply {
    status: (u16, &'static str),
    body: String,
    headers: Vec<(String, String)>,
    content_type: &'static str,
}

const JSON_CT: &str = "application/json";
/// Prometheus text exposition format version 0.0.4.
const PROM_CT: &str = "text/plain; version=0.0.4; charset=utf-8";

impl Reply {
    /// A JSON reply with no extra headers (the common case).
    fn json(status: (u16, &'static str), body: String) -> Reply {
        Reply {
            status,
            body,
            headers: Vec::new(),
            content_type: JSON_CT,
        }
    }
}

const OK: (u16, &str) = (200, "OK");

fn bad_request(message: &str) -> Reply {
    Reply::json((400, "Bad Request"), wire::error_body(message))
}

fn route(inner: &FrontendInner, head: &RequestHead<'_>, body: &[u8]) -> Reply {
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Reply::json(
            (503, "Service Unavailable"),
            wire::error_body("server is shutting down"),
        );
    }
    match (head.method, head.path()) {
        ("GET", "/healthz") => Reply::json(OK, healthz(inner).render()),
        ("GET", "/v1/report") => Reply::json(OK, inner.server.report().to_json().render()),
        ("GET", "/v1/metrics") => Reply {
            status: OK,
            body: metrics_text(inner),
            headers: Vec::new(),
            content_type: PROM_CT,
        },
        ("GET", "/v1/traces") => Reply::json(OK, inner.server.trace_plane().traces_json().render()),
        ("GET", "/v1/events") => events(inner, head),
        ("GET", "/v1/profile") => {
            Reply::json(OK, inner.server.trace_plane().profile_json().render())
        }
        ("GET", "/v1/alerts") => {
            let now = inner.server.clock().now();
            Reply::json(OK, inner.server.trace_plane().alerts_json(now).render())
        }
        ("GET", "/v1/tenants") => {
            Reply::json(OK, wire::tenants_to_json(inner.server.tenants()).render())
        }
        ("GET", path) if path.starts_with("/v1/trace/") => trace_lookup(inner, head, path),
        ("POST", "/v1/search") => search(inner, head, body),
        (
            _,
            "/healthz" | "/v1/report" | "/v1/metrics" | "/v1/traces" | "/v1/events" | "/v1/tenants"
            | "/v1/profile" | "/v1/alerts",
        ) => method_not_allowed("GET"),
        (_, path) if path.starts_with("/v1/trace/") => method_not_allowed("GET"),
        (_, "/v1/search") => method_not_allowed("POST"),
        _ => Reply::json((404, "Not Found"), wire::error_body("no such endpoint")),
    }
}

/// The value of one `?key=value` query parameter on the request target.
fn query_param<'a>(head: &RequestHead<'a>, key: &str) -> Option<&'a str> {
    let (_, query) = head.target.split_once('?')?;
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// `GET /v1/events[?severity=info|warn|critical]`.
fn events(inner: &FrontendInner, head: &RequestHead<'_>) -> Reply {
    let severity = match query_param(head, "severity") {
        None => None,
        Some(raw) => match Severity::parse(raw) {
            Some(level) => Some(level),
            None => return bad_request("severity must be info, warn, or critical"),
        },
    };
    Reply::json(
        OK,
        inner.server.obs().events_json_filtered(severity).render(),
    )
}

/// `GET /v1/trace/{id}`: the causal span tree for one 32-hex trace id,
/// either as the span-tree document or (with `?format=chrome`) as a Chrome
/// `trace_event` array loadable in `chrome://tracing` / Perfetto.
fn trace_lookup(inner: &FrontendInner, head: &RequestHead<'_>, path: &str) -> Reply {
    let raw = &path["/v1/trace/".len()..];
    let Some(id) = vlite_metrics::spans::parse_trace_id(raw) else {
        return bad_request("trace id must be 32 hex digits");
    };
    let trace = inner.server.trace_plane();
    let doc = match query_param(head, "format") {
        None | Some("tree") => trace.trace_json(id),
        Some("chrome") => trace.chrome_json(id),
        Some(other) => return bad_request(&format!("unknown trace format: {other}")),
    };
    match doc {
        Some(json) => Reply::json(OK, json.render()),
        None => Reply::json(
            (404, "Not Found"),
            wire::error_body("no such trace (unknown id, or evicted from the ring)"),
        ),
    }
}

fn method_not_allowed(allow: &str) -> Reply {
    Reply {
        status: (405, "Method Not Allowed"),
        body: wire::error_body(&format!("only {allow} is supported here")),
        headers: vec![("Allow".into(), allow.into())],
        content_type: JSON_CT,
    }
}

/// The Prometheus exposition: the runtime's families plus the frontend's
/// own uptime gauge.
fn metrics_text(inner: &FrontendInner) -> String {
    let mut out = inner.server.prometheus_text();
    crate::obs::prom_gauge(
        &mut out,
        "vlite_uptime_seconds",
        "Seconds since the HTTP frontend started",
        inner.uptime_seconds(),
    );
    out
}

fn healthz(inner: &FrontendInner) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::Str("ok".into())),
        (
            "version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("uptime_s".into(), Json::Num(inner.uptime_seconds())),
        (
            "generation".into(),
            Json::Num(inner.server.placement_generation() as f64),
        ),
        (
            "queue_depth".into(),
            Json::Num(inner.server.queue_depth() as f64),
        ),
        (
            "tenants".into(),
            Json::Num(inner.server.tenants().len() as f64),
        ),
        (
            "completed".into(),
            Json::Num(inner.server.obs().completed.get() as f64),
        ),
        (
            "worker_panics".into(),
            Json::Num(inner.server.worker_panics() as f64),
        ),
        (
            "obs_enabled".into(),
            Json::Bool(inner.server.obs().enabled()),
        ),
    ])
}

/// `POST /v1/search`: decode, submit for the `X-Tenant` tenant (default 0)
/// under the `X-Deadline-Ms` budget (default: the policy's), wait on the
/// ticket with a bounded, shutdown-aware poll loop, encode the merged
/// result.
fn search(inner: &FrontendInner, head: &RequestHead<'_>, body: &[u8]) -> Reply {
    let tenant = match head.header("x-tenant") {
        None => TenantId(0),
        Some(raw) => match raw.trim().parse::<u16>() {
            Ok(id) => TenantId(id),
            Err(_) => return bad_request("X-Tenant must be an integer tenant id"),
        },
    };
    let deadline = match head.header("x-deadline-ms") {
        None => None,
        // `try_from_secs_f64` refuses non-finite budgets and ones past
        // `Duration::MAX` (e.g. `1e300`), which `from_secs_f64` panics on.
        Some(raw) => match raw.trim().parse::<f64>() {
            Ok(ms) if ms > 0.0 => match Duration::try_from_secs_f64(ms / 1e3) {
                Ok(budget) => Some(budget),
                Err(_) => return bad_request("X-Deadline-Ms is out of range"),
            },
            _ => return bad_request("X-Deadline-Ms must be a positive number of milliseconds"),
        },
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return bad_request("body must be UTF-8 JSON");
    };
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(err) => return bad_request(&err.to_string()),
    };
    let query = match wire::search_request_from_json(&json) {
        Ok(query) => query,
        Err(err) => return bad_request(&err.to_string()),
    };
    // W3C trace context: a malformed `traceparent` is treated as absent
    // (restart the trace) rather than rejected.
    let trace = head.header("traceparent").and_then(parse_traceparent);
    match inner
        .server
        .submit_with_trace(tenant, query, deadline, trace)
    {
        Ok(ticket) => {
            let waited_from = inner.server.clock().now();
            wait_for_ticket(inner, ticket, waited_from)
        }
        Err(err @ AdmissionError::QueueFull { .. }) => Reply {
            status: (429, "Too Many Requests"),
            body: wire::error_body(&err.to_string()),
            headers: vec![(
                "Retry-After".into(),
                inner.server.retry_after_hint(tenant).to_string(),
            )],
            content_type: JSON_CT,
        },
        Err(err @ AdmissionError::UnknownTenant { .. }) => bad_request(&err.to_string()),
        Err(err @ AdmissionError::InvalidQuery { .. }) => bad_request(&err.to_string()),
        Err(err @ AdmissionError::DeadlineUnmeetable { .. }) => {
            Reply::json((504, "Gateway Timeout"), wire::error_body(&err.to_string()))
        }
        Err(AdmissionError::ShuttingDown) => Reply::json(
            (503, "Service Unavailable"),
            wire::error_body("server is shutting down"),
        ),
    }
}

/// Waits for an admitted request's response without ever blocking
/// unboundedly: the wait is sliced into [`POLL_INTERVAL`] chunks, and every
/// slice re-checks shutdown, the request's deadline (on the server's own
/// clock, so VirtualClock tests drive it deterministically), and — for
/// unbudgeted requests — the [`MAX_HTTP_WAIT_S`] cap. A stalled
/// pipeline therefore answers 504 instead of hanging the connection
/// forever, and shutdown no longer waits on abandoned tickets.
fn wait_for_ticket(inner: &FrontendInner, ticket: Ticket, waited_from: SimTime) -> Reply {
    let budgeted = ticket.deadline().is_some();
    let gateway_timeout = |message: &str| -> Reply {
        Reply::json((504, "Gateway Timeout"), wire::error_body(message))
    };
    let clock = inner.server.clock();
    let mut ticket = ticket;
    loop {
        match ticket.wait_timeout(POLL_INTERVAL) {
            Ok(Some(response)) => {
                let mut reply = Reply::json(OK, wire::search_response_to_json(&response).render());
                reply.headers.push((
                    "traceparent".into(),
                    format_traceparent(response.trace, response.id),
                ));
                return reply;
            }
            Ok(None) => {
                // The reply channel disconnected without a response: either
                // the runtime dropped the job at a deadline shed (rungs 2/5)
                // or the server is tearing down.
                return if budgeted && !inner.shutting_down.load(Ordering::SeqCst) {
                    gateway_timeout("request shed: its deadline budget was unmeetable")
                } else {
                    Reply::json(
                        (503, "Service Unavailable"),
                        wire::error_body("server stopped before the request completed"),
                    )
                };
            }
            Err(still_waiting) => {
                ticket = still_waiting;
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return Reply::json(
                        (503, "Service Unavailable"),
                        wire::error_body("server is shutting down"),
                    );
                }
                let now = clock.now();
                match ticket.deadline() {
                    Some(deadline) if now >= deadline => {
                        return gateway_timeout(
                            "deadline exceeded while the request was in flight",
                        );
                    }
                    None if (now - waited_from).as_secs_f64() >= MAX_HTTP_WAIT_S => {
                        return gateway_timeout("request exceeded the frontend's maximum wait");
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Serializes one response with explicit framing (`Content-Length` always
/// present, `Connection` reflecting the keep-alive decision).
fn encode_response(
    status: (u16, &str),
    body: &str,
    extra_headers: &[(String, String)],
    content_type: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status.0,
        status.1,
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    //! Stalled-wait behavior, pinned without a single real sleep: the
    //! ticket under test is hand-made and its reply sender is held live,
    //! so the "pipeline" genuinely never answers — the only exits are the
    //! deadline check, the max-wait cap, and the shutdown flag, all driven
    //! on a [`VirtualClock`].

    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::config::ServeConfig;
    use crate::request::SearchResponse;
    use crossbeam::channel::Sender;
    use vlite_sim::SimDuration;
    use vlite_workload::{CorpusConfig, SyntheticCorpus};

    fn frontend_inner() -> (Arc<FrontendInner>, Arc<VirtualClock>) {
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 512,
            dim: 8,
            n_centers: 8,
            zipf_exponent: 1.0,
            noise: 0.2,
            seed: 11,
        });
        let clock = Arc::new(VirtualClock::new());
        let server = RagServer::start_with_clock(&corpus, ServeConfig::small(), clock.clone())
            .expect("server starts");
        let started = server.clock().now();
        let inner = Arc::new(FrontendInner {
            server,
            config: HttpConfig::default(),
            shutting_down: AtomicBool::new(false),
            conn_threads: Mutex::new(Vec::new()),
            started,
        });
        (inner, clock)
    }

    /// A ticket no runtime thread knows about: holding the sender open
    /// stalls the wait forever, dropping it simulates a shed.
    fn stalled_ticket(deadline: Option<SimTime>) -> (Ticket, Sender<SearchResponse>) {
        // Reply channel carrying at most one response.
        let (tx, rx) = crossbeam::channel::unbounded();
        (
            Ticket {
                id: 0,
                tenant: TenantId(0),
                deadline,
                trace: crate::trace::TraceId(7),
                rx,
            },
            tx,
        )
    }

    #[test]
    fn stalled_budgeted_wait_times_out_at_the_deadline_tick() {
        let (inner, clock) = frontend_inner();
        let waited_from = clock.now();
        let deadline = waited_from + SimDuration::from_millis(10.0);
        let (ticket, _keep_alive) = stalled_ticket(Some(deadline));
        // Advance exactly to the deadline: `now >= deadline` holds by
        // equality, so the very first poll slice answers 504.
        clock.advance(SimDuration::from_millis(10.0));
        let reply = wait_for_ticket(&inner, ticket, waited_from);
        assert_eq!(reply.status.0, 504, "stalled budgeted wait must 504");
        assert!(
            reply.body.contains("deadline exceeded"),
            "unexpected body: {}",
            reply.body
        );
    }

    #[test]
    fn stalled_unbudgeted_wait_is_capped_by_max_http_wait() {
        let (inner, clock) = frontend_inner();
        let waited_from = clock.now();
        let (ticket, _keep_alive) = stalled_ticket(None);
        clock.advance(SimDuration::from_secs_f64(MAX_HTTP_WAIT_S));
        let reply = wait_for_ticket(&inner, ticket, waited_from);
        assert_eq!(reply.status.0, 504, "uncapped waits must not hang");
        assert!(
            reply.body.contains("maximum wait"),
            "unexpected body: {}",
            reply.body
        );
    }

    #[test]
    fn stalled_wait_observes_shutdown() {
        let (inner, clock) = frontend_inner();
        let waited_from = clock.now();
        let (ticket, _keep_alive) = stalled_ticket(None);
        inner.shutting_down.store(true, Ordering::SeqCst);
        let reply = wait_for_ticket(&inner, ticket, waited_from);
        assert_eq!(reply.status.0, 503, "shutdown must end stalled waits");
        assert!(reply.body.contains("shutting down"));
    }

    #[test]
    fn shed_budgeted_request_maps_disconnect_to_504() {
        let (inner, clock) = frontend_inner();
        let waited_from = clock.now();
        let deadline = waited_from + SimDuration::from_millis(10.0);
        let (ticket, tx) = stalled_ticket(Some(deadline));
        drop(tx); // the runtime dropped the job: rung-2/5 shed
        let reply = wait_for_ticket(&inner, ticket, waited_from);
        assert_eq!(reply.status.0, 504);
        assert!(
            reply.body.contains("request shed"),
            "unexpected body: {}",
            reply.body
        );
    }

    #[test]
    fn shed_unbudgeted_request_maps_disconnect_to_503() {
        let (inner, clock) = frontend_inner();
        let waited_from = clock.now();
        let (ticket, tx) = stalled_ticket(None);
        drop(tx);
        let reply = wait_for_ticket(&inner, ticket, waited_from);
        assert_eq!(
            reply.status.0, 503,
            "an unbudgeted disconnect is teardown, not a deadline"
        );
    }

    #[test]
    fn connection_panic_is_counted_and_journaled() {
        let (inner, _clock) = frontend_inner();
        inner.server.record_connection_panic();
        assert_eq!(inner.server.report().worker_panics, 1);
        let journal = inner.server.obs().journal_snapshot();
        assert!(
            journal
                .iter()
                .any(|e| e.kind == "panic" && e.detail.contains("connection thread")),
            "panic must reach the event journal"
        );
    }

    #[test]
    fn retry_after_hint_is_never_zero() {
        let (inner, _clock) = frontend_inner();
        // Even an idle lane must back a 429 with at least one second:
        // `Retry-After: 0` tells a flooding client to retry immediately.
        assert!(inner.server.retry_after_hint(TenantId(0)) >= 1);
        assert!(inner.server.retry_after_hint(TenantId(999)) >= 1);
    }
}
