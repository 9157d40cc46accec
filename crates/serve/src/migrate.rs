//! The background tier migrator.
//!
//! A router hot-swap only changes where probes are *routed*; the bytes
//! live in the [`TieredStore`](vlite_store::TieredStore) behind the scan
//! path. So the control loop also emits a [`MigrationOrder`] after each
//! swap, and this worker applies it: newly hot clusters are promoted (their
//! full-precision extents materialized from the segment file into
//! resident arenas), newly cold ones demoted (arenas released, scans fall
//! back to the mmap'd SQ8 extents).
//!
//! The migration is non-blocking by construction, the same hot-swap
//! discipline as the Router: all promotion I/O happens outside the tier
//! map's lock, the swap is one pointer store, and scans already running
//! keep their snapshot's arenas alive through `Arc`s. Between the router
//! swap and the tier swap the two can disagree — a newly hot cluster may
//! still scan cold for a few batches — which is *correct* (both tiers
//! return the cluster's vectors, at different precision) and exactly the
//! paper's "service never stops" full-shard update behaviour.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;

use crate::request::TenantId;
use crate::server::Shared;
use crate::trace::STAGE_MIGRATE;

/// One tier-migration request from the control loop to the migrator.
#[derive(Debug)]
pub(crate) struct MigrationOrder {
    /// The placement generation whose hot set this order realizes.
    pub placement_generation: u64,
    /// The tenant whose drift monitor tripped the repartition.
    pub triggered_by: TenantId,
    /// The new hot flags, indexed by cluster id.
    pub hot: Vec<bool>,
}

/// One applied tier migration, as reported in
/// [`ServeReport`](crate::ServeReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The placement generation this migration realized.
    pub placement_generation: u64,
    /// The store generation installed by this migration.
    pub store_generation: u64,
    /// The tenant whose drift monitor tripped the repartition behind it.
    pub triggered_by: TenantId,
    /// Clusters promoted cold → hot.
    pub promoted: usize,
    /// Clusters demoted hot → cold.
    pub demoted: usize,
    /// Bytes materialized into resident arenas.
    pub bytes_promoted: u64,
    /// Resident bytes released back to the cold tier.
    pub bytes_demoted: u64,
    /// Batches the batcher had completed when the migration began.
    pub batches_before: u64,
    /// Batches the batcher had completed when the migration finished — the
    /// gap to `batches_before` shows the engine kept draining throughout.
    pub batches_after: u64,
    /// Clock duration of the promotion I/O + swap.
    pub duration: Duration,
}

/// The migrator thread: applies tier shifts as repartitions install new
/// placements. Exits when the control loop drops its order sender.
pub(crate) fn migrator_worker(shared: &Arc<Shared>, rx: &Receiver<MigrationOrder>) {
    let store = &shared.store;
    while let Ok(order) = rx.recv() {
        let started = shared.clock.now();
        let timer = shared.trace.stage_start(STAGE_MIGRATE, started);
        let batches_before = shared.obs.batches.get();
        let shift = store.apply_placement(&order.hot);
        let batches_after = shared.obs.batches.get();
        let finished = shared.clock.now();
        shared.trace.stage_end(timer, finished);
        // The migration span lives in its own trace, linked both ways to
        // whatever batch was in flight while the tiers moved.
        shared
            .trace
            .record_migration("migration", started, finished);
        let event = MigrationEvent {
            placement_generation: order.placement_generation,
            store_generation: shift.generation,
            triggered_by: order.triggered_by,
            promoted: shift.promoted,
            demoted: shift.demoted,
            bytes_promoted: shift.bytes_promoted,
            bytes_demoted: shift.bytes_demoted,
            batches_before,
            batches_after,
            duration: (shared.clock.now() - started).to_std(),
        };
        shared.record_migration(event);
    }
}
