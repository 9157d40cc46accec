//! The runtime's notion of time, abstracted so the same threads run on the
//! wall clock in production and on deterministic stepped time in tests.
//!
//! Every timestamp the runtime takes — admission, batch launch, merge,
//! generation iterations, load-generator arrivals — is a [`Clock::now`]
//! read, and every wait for a future instant is a [`Clock::sleep_until`].
//! Under [`RealClock`] those map to `Instant`/`thread::sleep`; under
//! [`VirtualClock`] `now` reads a shared atomic tick and `sleep_until`
//! *advances* it, so a whole co-scheduled run (retrieval → prefill →
//! decode) executes in microseconds of wall time while its recorded
//! latencies are exact, replayable functions of the cost models.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vlite_sim::{SimDuration, SimTime};

/// A monotonic clock the serving runtime reads and sleeps against.
///
/// Implementations must be monotonic: `now()` never decreases, and after
/// `sleep_until(t)` returns, `now() >= t`.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time since the clock's epoch (server start).
    fn now(&self) -> SimTime;

    /// Returns once the clock has reached `deadline`: blocks on the wall
    /// clock, or advances virtual time immediately.
    fn sleep_until(&self, deadline: SimTime);
}

/// Wall-clock [`Clock`]: `now` is the time since construction, and
/// `sleep_until` blocks the calling thread.
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SimTime::from_nanos(nanos)
    }

    fn sleep_until(&self, deadline: SimTime) {
        let now = self.now();
        if deadline > now {
            std::thread::sleep((deadline - now).to_std());
        }
    }
}

/// Deterministic stepped-time [`Clock`] for tests.
///
/// `now` reads an atomic nanosecond counter; `sleep_until` advances it to
/// the deadline without blocking, so threads that pace themselves against
/// the clock (the load generators' Poisson schedules, the generation
/// worker's iteration waits) run at full speed while the timestamps they
/// record follow virtual time exactly. Tests script the timeline with
/// [`VirtualClock::advance`].
///
/// # Examples
///
/// ```
/// use vlite_serve::{Clock, VirtualClock};
/// use vlite_sim::SimDuration;
///
/// let clock = VirtualClock::new();
/// clock.advance(SimDuration::from_millis(5.0));
/// assert_eq!(clock.now().as_nanos(), 5_000_000);
/// clock.sleep_until(clock.now() + SimDuration::from_millis(1.0)); // no blocking
/// assert_eq!(clock.now().as_nanos(), 6_000_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta` and returns the new now.
    pub fn advance(&self, delta: SimDuration) -> SimTime {
        let nanos = self
            .nanos
            .fetch_add(delta.as_nanos(), Ordering::SeqCst)
            .wrapping_add(delta.as_nanos());
        SimTime::from_nanos(nanos)
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep_until(&self, deadline: SimTime) {
        // Monotonic step: never move backwards when another thread has
        // already advanced past the deadline.
        self.nanos.fetch_max(deadline.as_nanos(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_sleeps() {
        let clock = RealClock::new();
        let a = clock.now();
        clock.sleep_until(a + SimDuration::from_micros(500));
        let b = clock.now();
        assert!(b - a >= SimDuration::from_micros(500));
    }

    #[test]
    fn virtual_clock_steps_without_blocking() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.sleep_until(SimTime::from_nanos(1_000));
        assert_eq!(clock.now(), SimTime::from_nanos(1_000));
        // Sleeping to the past is a no-op, not a rewind.
        clock.sleep_until(SimTime::from_nanos(10));
        assert_eq!(clock.now(), SimTime::from_nanos(1_000));
        clock.advance(SimDuration::from_nanos(5));
        assert_eq!(clock.now(), SimTime::from_nanos(1_005));
    }
}
