//! Virtual time newtypes.
//!
//! Integer nanoseconds keep the event queue ordering exact: two events
//! scheduled from the same f64 arithmetic always compare identically across
//! runs and platforms, which floating-point timestamps do not guarantee.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A span of virtual time, in integer nanoseconds.
///
/// # Examples
///
/// ```
/// use vlite_sim::SimDuration;
///
/// let d = SimDuration::from_millis(1.5);
/// assert_eq!(d.as_nanos(), 1_500_000);
/// assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite. Cost models occasionally
    /// produce tiny negative values from catastrophic cancellation; callers
    /// should clamp with `f64::max(0.0)` when that is expected.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and >= 0, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration as a `std::time::Duration` (exact: both are integer
    /// nanoseconds).
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 1.0 {
            write!(f, "{secs:.3}s")
        } else if secs >= 1e-3 {
            write!(f, "{:.3}ms", secs * 1e3)
        } else {
            write!(f, "{:.0}µs", secs * 1e6)
        }
    }
}

/// An instant of virtual time, in integer nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use vlite_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(10.0);
/// assert_eq!(t.duration_since(SimTime::ZERO), SimDuration::from_millis(10.0));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from fractional seconds since the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_nanos())
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is
    /// later than `self`.
    pub const fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        let d = SimDuration::from_secs_f64(0.123_456_789);
        assert_eq!(d.as_nanos(), 123_456_789);
        assert!((d.as_secs_f64() - 0.123_456_789).abs() < 1e-12);
    }

    #[test]
    fn micros_and_millis_agree() {
        assert_eq!(
            SimDuration::from_micros(1500),
            SimDuration::from_millis(1.5)
        );
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs_f64(1.0);
        let t1 = t0 + SimDuration::from_millis(250.0);
        assert_eq!((t1 - t0).as_secs_f64(), 0.25);
        // Saturating: earlier - later == 0
        assert_eq!(t0 - t1, SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(11);
        assert!(a < b);
        assert_eq!(a, SimTime::from_nanos(10));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_duration_rejected() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(12.0)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(2.5)), "2.500s");
    }
}
