//! Latency statistics, SLO-attainment accounting and result rendering.
//!
//! This crate is the measurement substrate shared by every experiment in the
//! VectorLiteRAG reproduction. It provides:
//!
//! - [`LatencyRecorder`] — an exact-sample recorder with percentile queries,
//!   used for TTFT / end-to-end latency distributions.
//! - [`Series`] and [`Table`] — lightweight result containers that render to
//!   aligned text tables and CSV, mirroring the paper's figure series.
//! - [`Summary`] — mean/min/max/percentile digest of a sample set.
//! - [`obs`] — lock-free always-on instruments (sharded [`obs::Counter`]s,
//!   [`obs::Gauge`]s, log-bucketed [`obs::StreamingHistogram`]s) for
//!   hot-path telemetry that must never take a global lock.
//! - [`spans`] — span-tree primitives for causal request tracing: the
//!   bounded [`spans::SpanStore`] and the [`spans::tree_violations`]
//!   well-formedness checker.
//! - [`cputime`] — the calling thread's CPU-time clock (raw
//!   `clock_gettime(2)` on Linux, graceful zero elsewhere) backing the
//!   per-stage profiler.
//!
//! # Examples
//!
//! ```
//! use vlite_metrics::LatencyRecorder;
//!
//! let mut rec = LatencyRecorder::new();
//! for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
//!     rec.record(ms / 1e3);
//! }
//! assert_eq!(rec.len(), 5);
//! assert!(rec.percentile(0.5) >= 0.002 && rec.percentile(0.5) <= 0.004);
//! ```

// `deny` (not `forbid`) so `cputime` can open its audited raw-syscall
// shim with a module-local `#[allow(unsafe_code)]`, mirroring the mmap
// shim in `vlite-store`; every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cputime;
pub mod obs;
mod recorder;
mod series;
pub mod spans;
mod summary;
mod table;

pub use recorder::LatencyRecorder;
pub use series::{Series, SeriesPoint};
pub use summary::Summary;
pub use table::Table;

/// Formats a duration in seconds with an adaptive unit (ns/µs/ms/s).
///
/// # Examples
///
/// ```
/// assert_eq!(vlite_metrics::fmt_seconds(0.000_25), "250.0µs");
/// assert_eq!(vlite_metrics::fmt_seconds(1.5), "1.500s");
/// ```
pub fn fmt_seconds(secs: f64) -> String {
    if !secs.is_finite() {
        return format!("{secs}");
    }
    let abs = secs.abs();
    if abs >= 1.0 {
        format!("{secs:.3}s")
    } else if abs >= 1e-3 {
        format!("{:.1}ms", secs * 1e3)
    } else if abs >= 1e-6 {
        format!("{:.1}µs", secs * 1e6)
    } else {
        format!("{:.0}ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_seconds_covers_all_units() {
        assert_eq!(fmt_seconds(2.0), "2.000s");
        assert_eq!(fmt_seconds(0.128), "128.0ms");
        assert_eq!(fmt_seconds(0.000_128), "128.0µs");
        assert_eq!(fmt_seconds(0.000_000_128), "128ns");
    }

    #[test]
    fn fmt_seconds_non_finite_passthrough() {
        assert_eq!(fmt_seconds(f64::INFINITY), "inf");
    }
}
