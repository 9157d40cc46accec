//! Harness shared by the integration tests that flood a co-scheduled
//! server through rung 4 of the deadline ladder.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use vectorlite_rag::serve::{Clock, RagServer, VirtualClock};
use vectorlite_rag::sim::SimTime;

/// A [`VirtualClock`] whose sleeps wait while a test holds its gate.
///
/// The generation worker is the runtime's only sleeper, so while the gate
/// is closed a flood is admitted, batched and merged at tick zero: no
/// drain rate is measured (rung 1 never refuses) and no deadline passes
/// in a queue (rung 2 never expires), so only rung 4 can shed.
#[derive(Debug, Default)]
pub struct GatedClock {
    clock: VirtualClock,
    gate: Mutex<()>,
}

impl GatedClock {
    /// Closes the gate until the returned guard drops.
    pub fn close(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap()
    }
}

impl Clock for GatedClock {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn sleep_until(&self, deadline: SimTime) {
        // A poisoned gate only means the test failed while holding it.
        drop(self.gate.lock());
        self.clock.sleep_until(deadline);
    }
}

/// Waits, up to 10 s of wall time, until `server` has batched `n`
/// requests.
pub fn await_batched(server: &RagServer, n: u64) {
    for _ in 0..10_000 {
        if server.obs().batched_requests.get() >= n {
            return;
        }
        // vlite-allow(clock-discipline): polls the real batcher thread;
        // virtual time must stand still until it has drained the flood.
        std::thread::sleep(Duration::from_millis(1));
    }
}
