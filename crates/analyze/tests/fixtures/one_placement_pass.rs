//! Fixture: the `one-placement-pass` rule must fire on a hand-written
//! profile → Algorithm 1 → split chain in the serve path, and never on
//! quoted/commented copies or on names that merely end in `partition`.
//!
//! Scanned by `tests/analyzer.rs` under a pretend `crates/serve/src/`
//! relpath; the workspace scanner skips this directory entirely.

pub fn quoted_chain_does_not_fire() -> usize {
    let a = "partition(&input, &perf, &estimator, &profile) in a plain string";
    // comment copy: HitRateEstimator::from_profile(&profile) must not fire
    /* nor in a block comment: IndexSplit::build(&profile, 0.3, 2) */
    a.len()
}

pub fn a_repartition_call_is_not_algorithm_1(control: &mut Control) {
    control.repartition(TenantId(0));
}

pub fn a_hand_written_placement(input: &PartitionInput, perf: &PerfModel, profile: &AccessProfile) {
    let estimator = HitRateEstimator::from_profile(profile);
    let decision = vlite_core::partition(input, perf, &estimator, profile);
    let _split = IndexSplit::build(profile, decision.coverage, 2);
}
