//! Lock-free telemetry instruments: sharded counters, gauges, and
//! log-bucketed streaming histograms.
//!
//! The exact-sample [`LatencyRecorder`](crate::LatencyRecorder) answers
//! percentile queries precisely but needs a `&mut` (and, in a concurrent
//! runtime, a mutex around it) plus a sort per snapshot. The instruments
//! here are the always-on counterparts: every recording is a handful of
//! relaxed atomic operations, memory is bounded regardless of sample
//! count, and live percentile queries walk `O(buckets)` — so hot-path
//! threads (dispatchers, shard workers, generation workers) can record
//! without ever taking a global lock, and a scrape endpoint can read
//! while they write.
//!
//! - [`Counter`] — a monotonic counter sharded across cache-line-padded
//!   atomic cells, so concurrent writers on different threads do not
//!   contend on one line.
//! - [`Gauge`] — a single `f64` cell: `set` is last-write-wins, `add`
//!   accumulates.
//! - [`StreamingHistogram`] — log-spaced buckets
//!   ([`SUB_BUCKETS_PER_OCTAVE`] per power of two) over
//!   `[1ns, ~1100s]` with underflow/overflow buckets; percentile queries
//!   return a bucket upper bound, so the relative error against the exact
//!   sample is at most [`StreamingHistogram::relative_error_bound`]
//!   (`2^(1/B) − 1`, ≈ 9.05% at `B = 8`). Histograms merge associatively,
//!   so per-thread shards can be folded into one digest.
//!
//! # Examples
//!
//! ```
//! use vlite_metrics::obs::StreamingHistogram;
//!
//! let h = StreamingHistogram::new();
//! for ms in [1.0, 2.0, 3.0, 4.0, 100.0] {
//!     h.record(ms / 1e3); // &self: no lock, no &mut
//! }
//! assert_eq!(h.count(), 5);
//! let p50 = h.percentile(0.5);
//! let err = StreamingHistogram::relative_error_bound();
//! assert!(p50 >= 0.003 && p50 <= 0.003 * (1.0 + err) + 1e-12);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per [`Counter`]; a power of two so shard selection is a mask.
const COUNTER_SHARDS: usize = 16;

/// One cache line per cell, so two threads bumping different shards never
/// share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// A small dense per-thread shard index (first-use registration order),
/// used to spread counter increments across cells.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // relaxed: fresh-id allocation; each thread only needs a distinct
        // value, no ordering with other memory.
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s)
}

/// A monotonic counter sharded across cache-line-padded atomic cells.
///
/// [`Counter::add`] touches exactly one relaxed atomic in the calling
/// thread's shard; [`Counter::get`] sums the shards. Reads concurrent with
/// writes see a value that is always ≤ the true total at return time and
/// ≥ the total at call time (the usual monotonic-counter guarantee).
#[derive(Debug, Default)]
pub struct Counter {
    cells: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter (relaxed; never blocks).
    pub fn add(&self, n: u64) {
        // relaxed: monotone stat shard; get() tolerates in-flight bumps.
        self.cells[thread_shard() & (COUNTER_SHARDS - 1)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        // relaxed: the documented monotonic-counter read guarantee needs
        // no cross-shard ordering.
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// An `f64` gauge (one atomic cell, bit-cast): [`Gauge::set`] is
/// last-write-wins, [`Gauge::add`] accumulates a running float total.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Self {
        Self {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        // relaxed: last-write-wins gauge; any published value is complete.
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (a CAS loop on the one cell; concurrent
    /// adders lose nothing, float rounding follows arrival order).
    pub fn add(&self, delta: f64) {
        // relaxed: single-word running float total, read for reporting
        // only; the CAS needs atomicity of this one word and nothing else.
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Reads the gauge.
    pub fn get(&self) -> f64 {
        // relaxed: reads one complete bit-cast word; staleness is fine.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per octave (power of two) of [`StreamingHistogram`]. Eight
/// sub-buckets bound the relative percentile error at `2^(1/8) − 1`
/// ≈ 9.05% while keeping the whole histogram ~2.5 KiB.
pub const SUB_BUCKETS_PER_OCTAVE: usize = 8;

/// Octaves covered above the 1ns floor: `2^40` ns ≈ 1100 s, far past any
/// latency this runtime can observe; larger samples land in the overflow
/// bucket (whose percentile answer is the exact tracked maximum).
const OCTAVES: usize = 40;

/// Log buckets between the underflow and overflow buckets.
const N_LOG_BUCKETS: usize = SUB_BUCKETS_PER_OCTAVE * OCTAVES;

/// Total buckets: underflow (index 0), the log buckets, overflow (last).
const N_BUCKETS: usize = N_LOG_BUCKETS + 2;

/// The histogram floor in seconds (1 ns): samples at or below it share
/// the underflow bucket, whose reported bound is the floor itself.
const FLOOR_SECONDS: f64 = 1e-9;

/// A bounded-memory streaming histogram over log-spaced latency buckets.
///
/// Recording is a few relaxed atomic adds (`&self`, no lock); percentile
/// queries snapshot the bucket array and walk it in `O(buckets)`. Bucket
/// `i` (for `1 ≤ i ≤ N`) holds samples in
/// `(floor·2^((i−1)/B), floor·2^(i/B)]`, so the upper bound a percentile
/// query returns exceeds the exact sample by at most a factor `2^(1/B)`
/// — see [`StreamingHistogram::relative_error_bound`].
///
/// Histograms with the same (compile-time) geometry merge associatively
/// via [`StreamingHistogram::merge_from`].
#[derive(Debug)]
pub struct StreamingHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Total of all samples, in nanoseconds (saturating).
    sum_nanos: AtomicU64,
    /// Largest sample, in nanoseconds.
    max_nanos: AtomicU64,
    /// Smallest sample, in nanoseconds (`u64::MAX` while empty).
    min_nanos: AtomicU64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
        }
    }

    /// The worst-case relative error of a percentile answer against the
    /// exact sample at that rank: `2^(1/B) − 1` for
    /// `B = `[`SUB_BUCKETS_PER_OCTAVE`]. (Samples at or below the 1ns
    /// floor carry up to 1ns of absolute error instead.)
    pub fn relative_error_bound() -> f64 {
        2f64.powf(1.0 / SUB_BUCKETS_PER_OCTAVE as f64) - 1.0
    }

    /// The bucket a sample of `seconds` lands in.
    fn bucket_index(seconds: f64) -> usize {
        if seconds.is_nan() || seconds <= FLOOR_SECONDS {
            // ≤ floor, zero, or NaN (defensively): the underflow bucket.
            return 0;
        }
        let octaves = (seconds / FLOOR_SECONDS).log2();
        let idx = (octaves * SUB_BUCKETS_PER_OCTAVE as f64).ceil() as usize;
        // `ceil` of a tiny positive value can still round to 0.
        idx.clamp(1, N_BUCKETS - 1)
    }

    /// The upper bound (seconds) of bucket `i`; the overflow bucket has no
    /// finite bound and reports the tracked maximum instead.
    fn bucket_bound(i: usize) -> f64 {
        if i == 0 {
            FLOOR_SECONDS
        } else {
            FLOOR_SECONDS * 2f64.powf(i as f64 / SUB_BUCKETS_PER_OCTAVE as f64)
        }
    }

    /// Records one sample, in seconds. Negative and non-finite samples are
    /// clamped into the underflow/overflow buckets rather than panicking:
    /// this is an always-on observability path, not an experiment harness.
    pub fn record(&self, seconds: f64) {
        let s = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            f64::INFINITY
        };
        let idx = if s.is_finite() {
            Self::bucket_index(s)
        } else {
            N_BUCKETS - 1
        };
        let nanos = if s.is_finite() {
            (s * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            u64::MAX
        };
        // relaxed: each field is an independent tally; readers tolerate a
        // bucket/count/sum triple that tears across concurrent records.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: one pathological sample must not wrap the total.
        let mut prev = self.sum_nanos.load(Ordering::Relaxed);
        loop {
            let next = prev.saturating_add(nanos);
            // relaxed: the CAS only needs atomicity of this one word; the
            // sum orders nothing else.
            match self.sum_nanos.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => prev = actual,
            }
        }
        // relaxed: single-word running extrema, same tally discipline.
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // relaxed: monotone tally read; staleness is acceptable.
        self.count.load(Ordering::Relaxed)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Total of all samples, in seconds (saturating at ~584 years).
    pub fn sum_seconds(&self) -> f64 {
        // relaxed: monotone tally read; staleness is acceptable.
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Largest recorded sample, in seconds (`0.0` when empty).
    pub fn max_seconds(&self) -> f64 {
        // relaxed: monotone running-max read; staleness is acceptable.
        let nanos = self.max_nanos.load(Ordering::Relaxed);
        if nanos == u64::MAX {
            f64::INFINITY
        } else {
            nanos as f64 / 1e9
        }
    }

    /// Smallest recorded sample, in seconds (`0.0` when empty).
    pub fn min_seconds(&self) -> f64 {
        // relaxed: monotone running-min read; staleness is acceptable.
        match self.min_nanos.load(Ordering::Relaxed) {
            u64::MAX if self.is_empty() => 0.0,
            u64::MAX => f64::INFINITY,
            nanos => nanos as f64 / 1e9,
        }
    }

    /// The histogram as a [`Summary`](crate::Summary): `count`, `mean`,
    /// `min` and `max` are exact (to the nanosecond the sum and extrema
    /// are kept in); the percentiles are bucket upper bounds, so each errs
    /// high by at most [`relative_error_bound`](Self::relative_error_bound).
    pub fn summary(&self) -> crate::Summary {
        let count = self.count();
        let [p50, p90, p95, p99] = self.percentiles([0.50, 0.90, 0.95, 0.99]);
        crate::Summary {
            count: count as usize,
            mean: if count == 0 {
                0.0
            } else {
                self.sum_seconds() / count as f64
            },
            min: self.min_seconds(),
            max: self.max_seconds(),
            p50,
            p90,
            p95,
            p99,
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank over a snapshot
    /// of the buckets, or `0.0` when empty. The answer is the containing
    /// bucket's upper bound (the tracked maximum for the overflow bucket),
    /// so it errs high by at most
    /// [`relative_error_bound`](Self::relative_error_bound).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        self.percentiles([q])[0]
    }

    /// [`percentile`](Self::percentile) for several quantiles over one
    /// snapshot of the buckets.
    fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        // relaxed: the percentile is already approximate; a snapshot that
        // tears across buckets shifts the answer by at most the in-flight
        // samples, which the error bound documents.
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        qs.map(|q| {
            assert!(
                (0.0..=1.0).contains(&q),
                "quantile must be in [0,1], got {q}"
            );
            if total == 0 {
                return 0.0;
            }
            let rank = (q * (total as f64 - 1.0)).round() as u64;
            let mut cumulative = 0u64;
            for (i, &n) in snapshot.iter().enumerate() {
                cumulative += n;
                if cumulative > rank {
                    return if i == N_BUCKETS - 1 {
                        self.max_seconds()
                    } else {
                        Self::bucket_bound(i)
                    };
                }
            }
            self.max_seconds()
        })
    }

    /// Folds another histogram into this one (bucket-wise addition).
    /// Merging is commutative and associative up to the saturating sum, so
    /// per-thread shards can be reduced in any grouping.
    pub fn merge_from(&self, other: &StreamingHistogram) {
        // relaxed: bucket-wise tally fold; both sides tolerate in-flight
        // records, so no ordering relates the fields.
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        // relaxed: as above — independent tallies.
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let other_sum = other.sum_nanos.load(Ordering::Relaxed);
        let mut prev = self.sum_nanos.load(Ordering::Relaxed);
        loop {
            let next = prev.saturating_add(other_sum);
            // relaxed: single-word saturating-sum CAS, as in record().
            match self.sum_nanos.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => prev = actual,
            }
        }
        // relaxed: single-word running extrema, same tally discipline.
        self.max_nanos
            .fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min_nanos
            .fetch_min(other.min_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Snapshot of the non-empty buckets as `(upper_bound_seconds,
    /// cumulative_count)` pairs in ascending bound order — exactly the
    /// shape a Prometheus histogram exposition needs (the caller appends
    /// the `+Inf` row from [`count`](Self::count)). Overflow samples are
    /// only in the final `+Inf` row, not in any finite bound.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate().take(N_BUCKETS - 1) {
            // relaxed: exposition snapshot; tolerates in-flight records.
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                cumulative += n;
                out.push((Self::bucket_bound(i), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_shards() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_sets_and_accumulates() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
        g.add(0.75);
        assert_eq!(g.get(), -0.5);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = StreamingHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.sum_seconds(), 0.0);
        assert_eq!(h.max_seconds(), 0.0);
        assert_eq!(h.min_seconds(), 0.0);
        assert_eq!(h.summary(), crate::Summary::default());
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn percentile_answers_err_high_within_the_bound() {
        let h = StreamingHistogram::new();
        let samples = [0.0001, 0.0005, 0.001, 0.002, 0.01, 0.05, 0.2, 1.0];
        for &s in &samples {
            h.record(s);
        }
        let err = StreamingHistogram::relative_error_bound();
        // Nearest rank: round(q * (n-1)) over the sorted samples, matching
        // LatencyRecorder — so p50 of 8 samples is index 4, not 3.
        for (q, exact) in [(0.0, 0.0001), (0.5, 0.01), (1.0, 1.0)] {
            let answer = h.percentile(q);
            assert!(
                answer >= exact * (1.0 - 1e-12),
                "p{q} answered {answer} below exact {exact}"
            );
            assert!(
                answer <= exact * (1.0 + err) * (1.0 + 1e-12),
                "p{q} answered {answer}, more than {err:.4} above exact {exact}"
            );
        }
    }

    #[test]
    fn zero_and_subfloor_samples_share_the_underflow_bucket() {
        let h = StreamingHistogram::new();
        h.record(0.0);
        h.record(1e-12);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), 1e-9);
    }

    #[test]
    fn pathological_samples_are_clamped_not_panicked() {
        let h = StreamingHistogram::new();
        h.record(-3.0); // clamped to underflow
        h.record(f64::INFINITY); // overflow bucket
        h.record(f64::NAN); // overflow bucket (non-finite)
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), 1e-9);
    }

    #[test]
    fn overflow_percentile_reports_the_tracked_maximum() {
        let h = StreamingHistogram::new();
        h.record(5_000.0); // past the 2^40ns range
        assert_eq!(h.percentile(1.0), 5_000.0);
        // Overflow samples never appear under a finite bucket bound.
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_max() {
        let (a, b) = (StreamingHistogram::new(), StreamingHistogram::new());
        a.record(0.001);
        b.record(0.1);
        b.record(0.2);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert!((a.sum_seconds() - 0.301).abs() < 1e-9);
        assert!((a.max_seconds() - 0.2).abs() < 1e-12);
        assert!((a.min_seconds() - 0.001).abs() < 1e-12);
        let p0 = a.percentile(0.0);
        assert!((0.001..=0.001 * 1.1).contains(&p0));
    }

    #[test]
    fn cumulative_buckets_are_monotonic_and_end_at_count() {
        let h = StreamingHistogram::new();
        for i in 1..=100 {
            h.record(i as f64 / 1_000.0);
        }
        let rows = h.cumulative_buckets();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(rows.last().unwrap().1, 100);
    }
}
