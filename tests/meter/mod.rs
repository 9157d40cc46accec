//! Harness for the integration tests that arm rung 3 of the deadline
//! ladder (the hot-only batch). That rung prices a batch's tightest budget
//! with what the drain meter measured of full-search batches, and a batch
//! on a [`VirtualClock`] nobody moves takes no time, so it measures
//! nothing: [`seed_meter`] serves one batch on a [`TickingClock`] and
//! reads its exact cost back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vectorlite_rag::serve::{Clock, RagServer, StageProfile, VirtualClock};
use vectorlite_rag::sim::{SimDuration, SimTime};

/// 1/256 s: every interval measured in ticks is a dyadic number of
/// seconds, so `f64` arithmetic on it is exact and budgets derived from
/// it land on the ladder's thresholds exactly.
const TICK: SimDuration = SimDuration::from_nanos(3_906_250);

/// A [`VirtualClock`] that, while ticking, steps one [`TICK`] on every
/// read; stopped, it stands still, so a budget's remainder at batch
/// formation is the whole budget.
#[derive(Debug, Default)]
pub struct TickingClock {
    /// The stepped time underneath; advance it to script a timeline.
    pub inner: VirtualClock,
    ticking: AtomicBool,
}

impl TickingClock {
    pub fn tick(&self, on: bool) {
        self.ticking.store(on, Ordering::SeqCst);
    }
}

impl Clock for TickingClock {
    fn now(&self) -> SimTime {
        if self.ticking.load(Ordering::SeqCst) {
            self.inner.advance(TICK)
        } else {
            self.inner.now()
        }
    }

    fn sleep_until(&self, deadline: SimTime) {
        self.inner.sleep_until(deadline);
    }
}

/// `server`'s profile row of stage `name`.
pub fn stage(server: &RagServer, name: &str) -> StageProfile {
    let profile = server.trace_plane().profile();
    let row = profile.into_iter().find(|row| row.stage == name);
    row.expect("a profiled stage")
}

/// Waits, up to 10 s of wall time, until `server` has closed `n` work
/// sections of profile stage `name`.
pub fn await_sections(server: &RagServer, name: &str, n: u64) {
    for _ in 0..10_000 {
        if stage(server, name).sections >= n {
            return;
        }
        // vlite-allow(clock-discipline): polls the real batcher thread;
        // the virtual clock must tick until it has stopped reading it.
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("stage {name} closed fewer than {n} sections");
}

/// Serves `query` (unbudgeted, tenant 0) alone while `clock` ticks, then
/// stops the clock, and returns what the drain meter measured of that
/// batch: the full search — exactly the width of the batch's `batch`
/// span. The batcher reads the clock until it closes the batch's
/// `dispatch` section.
pub fn seed_meter(server: &RagServer, clock: &TickingClock, query: &[f32]) -> Duration {
    let dispatched = stage(server, "dispatch").sections;
    clock.tick(true);
    let reply = server.submit(query.to_vec()).expect("admitted").wait();
    await_sections(server, "dispatch", dispatched + 1);
    clock.tick(false);
    let plane = server.trace_plane();
    let search = plane.trace_spans(reply.expect("served").trace.0);
    let batch = (search.expect("request trace").iter())
        .find_map(|s| (s.name == "search").then(|| s.links[0]))
        .expect("the search span links its batch");
    let spans = plane.trace_spans(batch).expect("batch trace");
    let span = spans
        .iter()
        .find(|s| s.name == "batch")
        .expect("batch span");
    let full = Duration::from_secs_f64(span.end_s - span.start_s);
    assert!(full > Duration::ZERO, "the seeding batch took time");
    full
}
