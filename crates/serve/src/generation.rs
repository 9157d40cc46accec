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
use crate::request::{GenerationTimings, RequestTimings, SearchResponse};
use crate::server::{RequestOutcome, Shared, ShedCause};
use crate::trace::{TraceId, STAGE_GENERATION};

/// Prompt tokens admitted into one prefill iteration (vLLM
/// `max_num_batched_tokens`). Froze `GenerationConfig::max_prefill_tokens`
/// at its one value.
pub const MAX_PREFILL_TOKENS: u64 = 8192;
/// Prompt tokens independent of retrieval (instruction + query). Froze
/// `GenerationConfig::prompt_tokens_base` at its one value.
pub const PROMPT_TOKENS_BASE: u64 = 64;
/// Prompt tokens each retrieved document adds. Froze
/// `GenerationConfig::tokens_per_doc` at its one value.
pub const TOKENS_PER_DOC: u64 = 32;

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
    /// A request generated its last token.
    Completed {
        /// Request id.
        id: u64,
        /// Completion instant.
        at: SimTime,
        /// First-token instant. A preempted-and-recomputed sequence keeps
        /// its original first token (the user already saw it).
        first_token: SimTime,
        /// Phase breakdown of that first token.
        phases: GenPhases,
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
    /// The first token's instant and phases, once it is out.
    first_token: Option<(SimTime, GenPhases)>,
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
        engine.set_max_prefill_tokens(MAX_PREFILL_TOKENS);
        Self {
            config: config.clone(),
            engine,
            tracked: HashMap::new(),
            free_at: SimTime::ZERO,
        }
    }

    /// Submits a merged retrieval for generation at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in the stage, or the request could never
    /// fit in the KV pool (prevented upfront by
    /// [`ServeConfig::validate`](crate::ServeConfig::validate) at server
    /// start).
    pub fn submit(&mut self, req: GenRequest, now: SimTime) {
        let tokens = self.config.prompt_tokens(req.n_docs);
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
    /// `prompt_tokens` arriving at `now` — the model rung 4 of the
    /// deadline ladder sheds by.
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

    /// Rung 4 of the deadline ladder
    /// ([`DeadlinePolicy`](crate::DeadlinePolicy)): submits the request
    /// unless its [estimated first token](Self::estimate_first_token)
    /// lands past `deadline`, in which case the stage is left untouched.
    /// `None` (an unbudgeted request, or a measure-only policy) always
    /// submits.
    ///
    /// # Errors
    ///
    /// The condemning first-token estimate when it is past `deadline`.
    pub fn submit_within(
        &mut self,
        req: GenRequest,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> std::result::Result<(), SimTime> {
        if let Some(deadline) = deadline {
            let at = self.estimate_first_token(self.config.prompt_tokens(req.n_docs), now);
            if at > deadline {
                return Err(at);
            }
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
                    tracked.first_token.get_or_insert((
                        at,
                        GenPhases {
                            queued: start - tracked.arrived_at,
                            prefill: at - start,
                        },
                    ));
                }
                LlmEvent::Completed { id, at } => {
                    let tracked = self
                        .tracked
                        .remove(&id)
                        .expect("completion for unknown request");
                    let Some((first_token, phases)) = tracked.first_token else {
                        panic!("request {id} completed without a first token");
                    };
                    events.push(GenEvent::Completed {
                        id,
                        at,
                        first_token,
                        phases,
                    });
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

    /// The engine's aggregate counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// One merged retrieval: what its request's outcome and reply are built
/// from, wherever its lifecycle ends — on the batcher for a retrieval-only
/// server, on the generation worker for a co-scheduled one.
pub(crate) struct Merged {
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
}

/// A merged retrieval travelling from the batcher to the generation
/// worker, with the request's reply channel.
pub(crate) type GenWork = (Merged, Sender<SearchResponse>);

impl Merged {
    /// Records the request's outcome — `timings` and the instant `end` it
    /// left the runtime — then sends the reply on `reply` (the ticket may
    /// have been dropped: fire-and-forget submission). Every request that
    /// gets a reply concludes here.
    pub(crate) fn conclude(
        self,
        shared: &Shared,
        reply: &Sender<SearchResponse>,
        timings: RequestTimings,
        end: SimTime,
        shed: Option<ShedCause>,
    ) {
        shared.record_outcome(&RequestOutcome {
            id: self.id,
            tenant: self.tenant,
            trace: self.trace,
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
        let _ = reply.send(SearchResponse {
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

/// The generation worker thread: drives a [`GenerationStage`] against the
/// server's clock and concludes each request (outcome + final response)
/// at its last token.
pub(crate) fn generation_worker(
    shared: &Shared,
    config: &GenerationConfig,
    rx: &Receiver<GenWork>,
) {
    let mut stage = GenerationStage::new(config);
    // In-flight requests' merged retrievals and reply channels, joined
    // against the stage's completions.
    let mut pending: HashMap<u64, GenWork> = HashMap::new();
    let mut closed = false;
    loop {
        // Admit work: block while idle, then absorb everything queued so
        // the next iteration batches all arrivals (continuous batching).
        if stage.is_idle() {
            if closed {
                break;
            }
            match rx.recv() {
                Ok(work) => admit(shared, &mut stage, &mut pending, work),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(work) => admit(shared, &mut stage, &mut pending, work),
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
            for GenEvent::Completed {
                id,
                at,
                first_token,
                phases,
            } in step.events
            {
                let work = pending.remove(&id).expect("unknown completion");
                finish(shared, work, at, first_token, phases);
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
    stage: &mut GenerationStage,
    pending: &mut HashMap<u64, GenWork>,
    (work, reply): GenWork,
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
    // Rung 4 of the degradation ladder: when the estimated first token
    // lands past the request's own end-to-end deadline, generation is
    // pointless — deliver the retrieval results now, with no generation
    // phases, and account the request as a TTFT miss against its tenant.
    // The shed instant is the merge instant the batcher stamped, so the
    // timings are deterministic under a virtual clock regardless of when
    // this worker got scheduled.
    let deadline = work.deadline.filter(|_| shared.config.deadline.enforce);
    if stage.submit_within(req, work.merged_at, deadline).is_err() {
        let timings = RequestTimings {
            queue: work.queue,
            search: work.search,
            e2e: work.queue + work.search,
            generation: None,
        };
        let end = work.merged_at;
        work.conclude(shared, &reply, timings, end, Some(ShedCause::GenDeadline));
        return;
    }
    pending.insert(work.id, (work, reply));
}

/// Deliver one finished request: record its outcome and send the final
/// response.
fn finish(
    shared: &Shared,
    (work, reply): GenWork,
    at: SimTime,
    first_at: SimTime,
    phases: GenPhases,
) {
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
    work.conclude(shared, &reply, timings, at, None);
}
