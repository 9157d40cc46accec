//! The retrieval → generation bridge (end-to-end co-scheduling).
//!
//! When a [`GenerationConfig`] is set, the
//! batcher forwards every merged retrieval result to a dedicated
//! generation worker thread instead of replying directly. The worker
//! assembles the prompt (base tokens plus a per-retrieved-document token
//! cost), submits it to a [`LlmEngine`] and steps the engine against the
//! server's [`Clock`](crate::Clock): each iteration's virtual duration comes from the
//! LLM cost model, and the worker sleeps (real clock) or advances
//! (virtual clock) to the iteration boundary, so wall-clock runs overlap
//! generation with the next batch's retrieval exactly like the paper's
//! co-scheduled deployment — and virtual-time runs are deterministic to
//! the nanosecond.
//!
//! [`GenerationStage`] is the pure state machine inside the worker. It is
//! public so tests can script arrival sequences synchronously and pin
//! queue/prefill phase boundaries to exact ticks, the same pattern the
//! control loop uses for its trigger tests.

use std::collections::HashMap;

use crossbeam::channel::{Receiver, Sender, TryRecvError};

use vlite_llm::{EngineStats, LlmEngine, LlmEvent, LlmRequest};
use vlite_sim::{SimDuration, SimTime};

use crate::config::GenerationConfig;
use crate::control::Observation;
use crate::request::{GenerationTimings, RequestTimings, SearchResponse};
use crate::server::{RequestOutcome, Shared, ShedCause};
use crate::trace::{TraceId, STAGE_GENERATION};

/// One request entering the generation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenRequest {
    /// Request id, unique across the server's lifetime.
    pub id: u64,
    /// Retrieved documents merged into the prompt.
    pub n_docs: usize,
    /// When the request was admitted to the *server* (TTFT epoch).
    pub admitted_at: SimTime,
}

/// Queue/prefill phase durations of one first token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenPhases {
    /// Generation-stage arrival → prefill iteration start.
    pub queued: SimDuration,
    /// Prefill iteration start → first token.
    pub prefill: SimDuration,
}

/// Events emitted by one generation-stage step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenEvent {
    /// A request produced its first token. Emitted once per request: a
    /// preempted-and-recomputed sequence keeps its original first-token
    /// time (the user already saw that token).
    FirstToken {
        /// Request id.
        id: u64,
        /// First-token instant.
        at: SimTime,
        /// Phase breakdown of this first token.
        phases: GenPhases,
    },
    /// A request generated its last token.
    Completed {
        /// Request id.
        id: u64,
        /// Completion instant.
        at: SimTime,
    },
}

/// Outcome of one generation-stage step.
#[derive(Debug, Clone)]
pub struct GenStep {
    /// When the iteration finishes; the stage must not be advanced again
    /// before this instant.
    pub busy_until: SimTime,
    /// Events taking effect by `busy_until`.
    pub events: Vec<GenEvent>,
}

/// Book-keeping for one request inside the stage.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    arrived_at: SimTime,
    first_token: Option<SimTime>,
}

/// The generation half of the co-scheduled pipeline as a pure state
/// machine: prompt assembly + continuous-batching engine + per-request
/// phase accounting, stepped explicitly in virtual time.
///
/// # Examples
///
/// ```
/// use vlite_serve::generation::{GenRequest, GenerationStage};
/// use vlite_serve::GenerationConfig;
/// use vlite_sim::SimTime;
///
/// let config = GenerationConfig::tiny();
/// let mut stage = GenerationStage::new(&config);
/// stage.submit(
///     GenRequest { id: 0, n_docs: 10, admitted_at: SimTime::ZERO },
///     SimTime::ZERO,
/// );
/// let step = stage.advance(SimTime::ZERO).expect("work pending");
/// assert!(step.busy_until > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct GenerationStage {
    config: GenerationConfig,
    engine: LlmEngine,
    tracked: HashMap<u64, Tracked>,
    free_at: SimTime,
}

impl GenerationStage {
    /// Builds the stage from its config.
    ///
    /// # Panics
    ///
    /// Panics if the config's token counts are degenerate (see
    /// [`GenerationConfig`]).
    pub fn new(config: &GenerationConfig) -> Self {
        let mut engine = LlmEngine::new(config.cost.clone(), config.kv_bytes);
        engine.set_max_batch(config.max_batch);
        engine.set_max_prefill_tokens(config.max_prefill_tokens);
        Self {
            config: config.clone(),
            engine,
            tracked: HashMap::new(),
            free_at: SimTime::ZERO,
        }
    }

    /// The prompt length assembled for a request with `n_docs` retrieved
    /// documents (never zero: an empty retrieval still carries the base
    /// prompt, floored at one token).
    pub fn prompt_tokens(&self, n_docs: usize) -> u64 {
        self.config.prompt_tokens(n_docs).max(1)
    }

    /// Submits a merged retrieval for generation at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in the stage, or the request could never
    /// fit in the KV pool (prevented upfront by
    /// [`GenerationConfig`] validation at server start).
    pub fn submit(&mut self, req: GenRequest, now: SimTime) {
        let tokens = self.prompt_tokens(req.n_docs);
        let prev = self.tracked.insert(
            req.id,
            Tracked {
                arrived_at: now,
                first_token: None,
            },
        );
        assert!(prev.is_none(), "request {} submitted twice", req.id);
        self.engine.submit(
            LlmRequest::new(req.id, tokens, self.config.output_tokens),
            now,
        );
    }

    /// Estimated earliest first-token instant for a request with
    /// `prompt_tokens` arriving at `now` — the KV-aware admission model.
    ///
    /// The estimate is deliberately simple and deterministic, built only
    /// from the engine's public state:
    ///
    /// 1. the engine is busy until `max(now, free_at)`;
    /// 2. if the KV pool cannot hold the already-waiting claims plus this
    ///    request (`prompt + output` tokens each), the running batch must
    ///    retire first — bounded by its longest remaining output at the
    ///    current decode-step rate;
    /// 3. every waiting prompt prefills ahead of this one (FCFS), then
    ///    this prompt prefills.
    ///
    /// It under-approximates heavy preemption churn, but a request it
    /// condemns has no plausible path to its first token in time.
    pub fn estimate_first_token(&self, prompt_tokens: u64, now: SimTime) -> SimTime {
        let start = if now > self.free_at {
            now
        } else {
            self.free_at
        };
        let kv = self.engine.kv();
        let needed = prompt_tokens + self.config.output_tokens;
        let queued_claim: u64 = self
            .engine
            .waiting()
            .map(|r| r.input_tokens + r.output_tokens)
            .sum();
        let mut at = start;
        if kv.resident_tokens() + queued_claim + needed > kv.capacity_tokens() {
            let batch = self.engine.running_len().max(1);
            let max_remaining = self
                .engine
                .running()
                .map(|(req, generated)| req.output_tokens.saturating_sub(generated))
                .max()
                .unwrap_or(0);
            let step = self
                .config
                .cost
                .decode_step_time(batch, kv.resident_tokens().max(1), 1.0);
            at += SimDuration::from_secs_f64(step.as_secs_f64() * max_remaining as f64);
        }
        let queued_prompts: u64 = self.engine.waiting().map(|r| r.input_tokens).sum();
        at + self
            .config
            .cost
            .prefill_time(queued_prompts + prompt_tokens, 1.0)
    }

    /// KV-aware admission ([`GenerationConfig::kv_admission`]): submits the
    /// request unless its estimated TTFT already exceeds `slo_ttft`, in
    /// which case the request is shed (`Err` carries the condemning
    /// estimate) and the stage is left untouched.
    ///
    /// # Errors
    ///
    /// The estimated admission → first-token duration when it exceeds the
    /// TTFT SLO.
    pub fn submit_or_shed(
        &mut self,
        req: GenRequest,
        now: SimTime,
    ) -> std::result::Result<(), SimDuration> {
        let prompt = self.prompt_tokens(req.n_docs);
        let est_ttft = self.estimate_first_token(prompt, now) - req.admitted_at;
        if est_ttft.as_secs_f64() > self.config.slo_ttft {
            return Err(est_ttft);
        }
        self.submit(req, now);
        Ok(())
    }

    /// Runs one engine iteration. The iteration starts at `now` or at the
    /// end of the previous iteration, whichever is later (the engine is a
    /// single serial device). Returns `None` when the stage is idle.
    pub fn advance(&mut self, now: SimTime) -> Option<GenStep> {
        if self.engine.is_idle() {
            return None;
        }
        let start = if now > self.free_at {
            now
        } else {
            self.free_at
        };
        let step = self
            .engine
            .advance(start)
            .expect("engine has work but refused to step");
        self.free_at = step.busy_until;
        let mut events = Vec::with_capacity(step.events.len());
        for event in step.events {
            match event {
                LlmEvent::FirstToken { id, at } => {
                    let tracked = self
                        .tracked
                        .get_mut(&id)
                        .expect("first token for unknown request");
                    // A preempted sequence re-prefills, but its original
                    // first token already left the server: keep it.
                    if tracked.first_token.is_none() {
                        tracked.first_token = Some(at);
                        events.push(GenEvent::FirstToken {
                            id,
                            at,
                            phases: GenPhases {
                                queued: start - tracked.arrived_at,
                                prefill: at - start,
                            },
                        });
                    }
                }
                LlmEvent::Completed { id, at } => {
                    let tracked = self
                        .tracked
                        .remove(&id)
                        .expect("completion for unknown request");
                    assert!(
                        tracked.first_token.is_some(),
                        "request {id} completed without a first token"
                    );
                    events.push(GenEvent::Completed { id, at });
                }
            }
        }
        Some(GenStep {
            busy_until: step.busy_until,
            events,
        })
    }

    /// Whether the stage holds no work.
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
    }

    /// Requests waiting for prefill admission.
    pub fn queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    /// Sequences in the running batch.
    pub fn running_len(&self) -> usize {
        self.engine.running_len()
    }

    /// When the engine finishes its current iteration (equals the last
    /// step's `busy_until`).
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// The engine's aggregate counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// One merged retrieval travelling from the batcher to the generation
/// worker.
pub(crate) struct GenWork {
    pub id: u64,
    pub tenant: crate::request::TenantId,
    pub neighbors: Vec<vlite_ann::Neighbor>,
    pub hit_rate: f64,
    pub generation: u64,
    pub enqueued: SimTime,
    /// Absolute end-to-end deadline, when the request carries a budget.
    pub deadline: Option<SimTime>,
    /// The request's trace id for causal span recording.
    pub trace: TraceId,
    /// The trace id of the batch span the request's search rode, when
    /// tracing is enabled.
    pub batch_trace: Option<u128>,
    /// Queue/search phases measured by the batcher, in seconds.
    pub queue: f64,
    pub search: f64,
    /// Merge instant (generation-stage arrival).
    pub merged_at: SimTime,
    pub reply: Sender<SearchResponse>,
    /// Global probe set, forwarded with the TTFT-keyed observation when
    /// the control loop is keyed off TTFT (`None` otherwise — the
    /// batcher already sent the search-keyed observation).
    pub probes: Option<Vec<u32>>,
}

impl GenWork {
    /// Records the request's outcome — `timings` and the instant `end` it
    /// left the runtime — then sends the reply (the ticket may have been
    /// dropped: fire-and-forget submission).
    fn conclude(
        self,
        shared: &Shared,
        timings: RequestTimings,
        end: SimTime,
        shed: Option<ShedCause>,
    ) {
        shared.record_outcome(&RequestOutcome {
            id: self.id,
            tenant: self.tenant,
            trace: Some(self.trace),
            batch_trace: self.batch_trace,
            enqueued: self.enqueued,
            end,
            timings,
            hit_rate: self.hit_rate,
            deadline: self.deadline,
            gen_busy: timings
                .generation
                .map(|_| (end - self.merged_at).as_secs_f64()),
            shed,
        });
        let _ = self.reply.send(SearchResponse {
            id: self.id,
            tenant: self.tenant,
            neighbors: self.neighbors,
            timings,
            hit_rate: self.hit_rate,
            generation: self.generation,
            trace: self.trace,
        });
    }
}

/// In-flight per-request state the worker joins engine events against.
struct PendingGen {
    work: GenWork,
    first_token: Option<(SimTime, GenPhases)>,
}

/// The generation worker thread: drives a [`GenerationStage`] against the
/// server's clock, streams TTFT-keyed observations to the control loop,
/// and concludes each request (outcome + final response) at its last token.
pub(crate) fn generation_worker(
    shared: &Shared,
    config: &GenerationConfig,
    rx: &Receiver<GenWork>,
    control_tx: &Sender<Observation>,
) {
    let mut stage = GenerationStage::new(config);
    let mut pending: HashMap<u64, PendingGen> = HashMap::new();
    let mut closed = false;
    loop {
        // Admit work: block while idle, then absorb everything queued so
        // the next iteration batches all arrivals (continuous batching).
        if stage.is_idle() {
            if closed {
                break;
            }
            match rx.recv() {
                Ok(work) => admit(shared, config, &mut stage, &mut pending, control_tx, work),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(work) => admit(shared, config, &mut stage, &mut pending, control_tx, work),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        let now = shared.clock.now();
        let timer = shared.trace.stage_start(STAGE_GENERATION, now);
        if let Some(step) = stage.advance(now) {
            // The engine is busy until the iteration ends: wait it out on
            // the wall clock (or advance virtual time) before acting on
            // the events that take effect at that instant.
            shared.clock.sleep_until(step.busy_until);
            for event in step.events {
                match event {
                    GenEvent::FirstToken { id, at, phases } => {
                        let entry = pending.get_mut(&id).expect("unknown first token");
                        entry.first_token = Some((at, phases));
                        let ttft = (at - entry.work.enqueued).as_secs_f64();
                        if let Some(probes) = entry.work.probes.take() {
                            let _ = control_tx.send(Observation {
                                tenant: entry.work.tenant,
                                hit_rate: entry.work.hit_rate,
                                met_slo: ttft <= config.slo_ttft,
                                probes,
                            });
                        }
                    }
                    GenEvent::Completed { id, at } => {
                        let entry = pending.remove(&id).expect("unknown completion");
                        finish(shared, entry, at);
                    }
                }
            }
        }
        shared.trace.stage_end(timer, shared.clock.now());
    }
    assert!(
        pending.is_empty(),
        "generation worker exited with {} requests in flight",
        pending.len()
    );
}

fn admit(
    shared: &Shared,
    config: &GenerationConfig,
    stage: &mut GenerationStage,
    pending: &mut HashMap<u64, PendingGen>,
    control_tx: &Sender<Observation>,
    work: GenWork,
) {
    // The merge instant is the request's true arrival into this stage —
    // time spent in the channel while the worker slept out an iteration
    // is generation queueing and must count toward `gen_queue`, or the
    // ttft = queue + search + gen_queue + prefill identity breaks. The
    // next iteration starts at max(now, free_at) >= merged_at, so the
    // queued phase stays non-negative.
    let req = GenRequest {
        id: work.id,
        n_docs: work.neighbors.len(),
        admitted_at: work.enqueued,
    };
    // Rung 5 of the degradation ladder: when the estimated first token
    // lands past the request's own end-to-end deadline, generation is
    // pointless — deliver the retrieval results now instead of queueing
    // into a guaranteed deadline miss.
    if shared.deadline.enforce {
        if let Some(deadline) = work.deadline {
            let prompt = stage.prompt_tokens(work.neighbors.len());
            if stage.estimate_first_token(prompt, work.merged_at) > deadline {
                shed(shared, control_tx, work, ShedCause::GenDeadline);
                return;
            }
        }
    }
    if config.kv_admission {
        if stage.submit_or_shed(req, work.merged_at).is_err() {
            shed(shared, control_tx, work, ShedCause::GenKv);
            return;
        }
    } else {
        stage.submit(req, work.merged_at);
    }
    pending.insert(
        work.id,
        PendingGen {
            work,
            first_token: None,
        },
    );
}

/// Generation admission rejected this request (KV-aware or
/// deadline-aware): serve its retrieval results immediately (no generation
/// phases) and account it as a TTFT miss — a shed — against its tenant.
///
/// The shed instant is the merge instant the batcher stamped, so the
/// response's timings are deterministic under a virtual clock regardless
/// of when this worker thread got scheduled.
fn shed(shared: &Shared, control_tx: &Sender<Observation>, mut work: GenWork, cause: ShedCause) {
    let timings = RequestTimings {
        queue: work.queue,
        search: work.search,
        e2e: work.queue + work.search,
        generation: None,
    };
    // TTFT-keyed control observations treat a shed as the SLO miss it is.
    if let Some(probes) = work.probes.take() {
        let _ = control_tx.send(Observation {
            tenant: work.tenant,
            hit_rate: work.hit_rate,
            met_slo: false,
            probes,
        });
    }
    let end = work.merged_at;
    work.conclude(shared, timings, end, Some(cause));
}

/// Deliver one finished request: record its outcome and send the final
/// response.
fn finish(shared: &Shared, entry: PendingGen, at: SimTime) {
    let PendingGen { work, first_token } = entry;
    let (first_at, phases) = first_token.expect("completed without first token");
    let timings = RequestTimings {
        queue: work.queue,
        search: work.search,
        e2e: (at - work.enqueued).as_secs_f64(),
        generation: Some(GenerationTimings {
            gen_queue: phases.queued.as_secs_f64(),
            prefill: phases.prefill.as_secs_f64(),
            decode: (at - first_at).as_secs_f64(),
            ttft: (first_at - work.enqueued).as_secs_f64(),
        }),
    };
    work.conclude(shared, timings, at, None);
}
