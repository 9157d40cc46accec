//! Property tests pinning the fidelity contract of the streaming
//! histogram against the exact-sample [`LatencyRecorder`]:
//!
//! - every percentile answer errs **high** and by at most the documented
//!   relative bound `2^(1/B) − 1` (both sides use nearest-rank, so they
//!   pick the same underlying sample);
//! - sharded histograms merge associatively, so per-thread shards can be
//!   folded in any grouping;
//! - the tracked minimum is the exact smallest sample (to the nanosecond
//!   it is kept in), and a merge keeps the smaller side's;
//! - concurrent recording from many threads loses no samples (the
//!   lock-free claim, pinned at the instrument level).

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use vlite_metrics::obs::{Counter, StreamingHistogram};
use vlite_metrics::LatencyRecorder;

/// Absolute slack for float round-off on top of the documented relative
/// bound (bucket boundaries are computed with `powf`).
const SLACK: f64 = 1e-12;

fn build(samples: &[f64]) -> (StreamingHistogram, LatencyRecorder) {
    let hist = StreamingHistogram::new();
    let mut exact = LatencyRecorder::new();
    for &s in samples {
        hist.record(s);
        exact.record(s);
    }
    (hist, exact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_track_the_exact_recorder_within_the_bucket_bound(
        samples in prop::collection::vec(0.000_001f64..10.0, 1..200),
    ) {
        let (hist, mut exact) = build(&samples);
        let err = StreamingHistogram::relative_error_bound();
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let truth = exact.percentile(q);
            let answer = hist.percentile(q);
            prop_assert!(
                answer >= truth * (1.0 - SLACK),
                "p{q}: streaming {answer} below exact {truth}"
            );
            prop_assert!(
                answer <= truth * (1.0 + err) * (1.0 + SLACK),
                "p{q}: streaming {answer} exceeds exact {truth} by more \
                 than the {err:.4} bucket bound"
            );
        }
    }

    #[test]
    fn count_and_sum_match_the_exact_recorder(
        samples in prop::collection::vec(0.000_001f64..10.0, 1..200),
    ) {
        let (hist, exact) = build(&samples);
        prop_assert_eq!(hist.count(), exact.len() as u64);
        let truth: f64 = samples.iter().sum();
        // Sum is kept in integer nanoseconds: half an ns of round-off per
        // sample.
        prop_assert!((hist.sum_seconds() - truth).abs() <= samples.len() as f64 * 1e-9);
    }

    #[test]
    fn min_is_the_exact_smallest_sample_and_survives_merges(
        a in prop::collection::vec(0.000_001f64..10.0, 1..100),
        b in prop::collection::vec(0.000_001f64..10.0, 1..100),
    ) {
        let (hist_a, exact_a) = build(&a);
        let (hist_b, exact_b) = build(&b);
        // Kept in integer nanoseconds: half an ns of round-off.
        prop_assert!((hist_a.min_seconds() - exact_a.min()).abs() <= 0.5e-9);
        for &sample in &a {
            prop_assert!(hist_a.min_seconds() <= sample + 0.5e-9);
        }
        prop_assert!(hist_a.min_seconds() <= hist_a.percentile(0.0) + 0.5e-9);
        let (min_a, min_b) = (hist_a.min_seconds(), hist_b.min_seconds());
        hist_a.merge_from(&hist_b);
        prop_assert_eq!(hist_a.min_seconds(), min_a.min(min_b));
        prop_assert!((hist_a.min_seconds() - exact_a.min().min(exact_b.min())).abs() <= 0.5e-9);
        // Merging an empty shard must not drag the minimum to zero.
        hist_a.merge_from(&StreamingHistogram::new());
        prop_assert_eq!(hist_a.min_seconds(), min_a.min(min_b));
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0.000_001f64..10.0, 1..60),
        b in prop::collection::vec(0.000_001f64..10.0, 1..60),
        c in prop::collection::vec(0.000_001f64..10.0, 1..60),
    ) {
        let fold = |groups: &[&[f64]]| {
            let acc = StreamingHistogram::new();
            for group in groups {
                let shard = StreamingHistogram::new();
                for &s in *group {
                    shard.record(s);
                }
                acc.merge_from(&shard);
            }
            acc
        };
        // (a ⊕ b) ⊕ c
        let left = fold(&[&a, &b]);
        let c_shard = fold(&[&c]);
        left.merge_from(&c_shard);
        // a ⊕ (b ⊕ c)
        let right_tail = fold(&[&b, &c]);
        let right = fold(&[&a]);
        right.merge_from(&right_tail);

        prop_assert_eq!(left.count(), right.count());
        prop_assert!((left.sum_seconds() - right.sum_seconds()).abs() < 1e-9);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let (l, r) = (left.percentile(q), right.percentile(q));
            prop_assert!(
                (l - r).abs() <= SLACK * l.abs().max(1.0),
                "p{q} differs across merge orders: {l} vs {r}"
            );
        }
    }
}

#[test]
fn concurrent_recording_loses_no_samples() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let hist = Arc::new(StreamingHistogram::new());
    let counter = Arc::new(Counter::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (hist, counter) = (Arc::clone(&hist), Arc::clone(&counter));
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record((t as f64 + 1.0) * 1e-4 + i as f64 * 1e-9);
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(hist.count(), expected);
    assert_eq!(counter.get(), expected);
    let rows = hist.cumulative_buckets();
    assert_eq!(rows.last().unwrap().1, expected);
}
