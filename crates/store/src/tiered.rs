//! The tiered storage engine: resident hot arenas + mmap'd SQ8 cold
//! extents behind one [`ClusterStore`], with live non-blocking tier
//! migration.
//!
//! Readers never block on a migration: a scan takes a [`StoreSnapshot`]
//! (an `Arc` of the generation-counted tier map, cloned under a read lock
//! held for nanoseconds — the same hot-swap discipline the serving
//! runtime's placement uses) and scans against that snapshot for the whole
//! batch. The migrator prepares new arenas entirely outside the lock,
//! then swaps the map pointer and bumps the generation; in-flight scans
//! keep their old snapshot alive via the `Arc` until they finish.
//!
//! Every acquisition of the map's lock recovers from poisoning
//! (`unwrap_or_else(PoisonError::into_inner)`): the write-side critical
//! section is one pointer swap, so a panicking holder cannot leave a torn
//! map, and one dead thread must not turn into a store-wide outage.
//!
//! Tier asymmetry is physical, exactly the paper's fast/slow split:
//!
//! - **Hot** clusters are full-precision arenas in memory
//!   (`ids + n × dim × f32`), stored as 16-row dim-major panels — the
//!   layout the panel kernels score sixteen vectors per register in, with
//!   no per-vector reduction — and scanned exhaustively, as an IVF-Flat
//!   list would be.
//! - **Cold** clusters stay on disk in the segment's SQ8 extents
//!   (`ids + n × dim × u8`, 4× fewer payload bytes), scored code by
//!   code against the query with the segment's quantizer folded in —
//!   cheaper in bytes, pricier in recall-per-probe.
//!
//! Under L2 a scan also skips work it can prove useless. Each cluster
//! carries a bounding ball in its tier's scoring space (see the `ball`
//! module: computed from the panels a promotion builds, or from the SQ8
//! extent as the segment opens), which bounds every served distance from
//! a query to the cluster's rows. Before a pass, a query whose lower bound
//! exceeds `min(U, k-th distance so far)` is dropped from it, where its
//! seed `U` is the smallest upper bound over its probed clusters holding
//! ≥ k rows. Strict comparisons and NaN-as-scan keep the pruned scan's
//! top-k bit-identical to the full one, whatever order clusters are
//! visited in; [`StoreStats::pairs_pruned`] counts the skipped pairs.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use vlite_ann::kernel::{self, Kernels};
use vlite_ann::{BatchQuery, ClusterStore, Metric, ScalarQuantizer, Sq8Query, TopK, VecSet};

use crate::ball::{Ball, Bounds};
use crate::checksum::{crc32, Crc32};
use crate::segment::{fill_le, write_segment, Segment, StoreError};

/// Result alias re-used from the segment layer.
pub type Result<T> = std::result::Result<T, StoreError>;

/// One resident full-precision cluster: its ids, its vectors as 16-row
/// panels ([`kernel::to_panels`]; the last group zero-padded) and the
/// bounding ball over those vectors.
#[derive(Debug)]
struct HotCluster {
    ids: Vec<u64>,
    panels: Vec<f32>,
    ball: Ball,
}

impl HotCluster {
    /// Promotes cluster `c` out of the segment's f32 extent; the ball is
    /// taken from the panels just built, not from the released extent.
    fn load(segment: &Segment, c: u32) -> HotCluster {
        let (ids, panels) = segment.load_cluster_panels(c);
        let ball = Ball::over_panels(ids.len(), segment.dim(), &panels);
        HotCluster { ids, panels, ball }
    }
}

/// Where one cluster currently lives.
#[derive(Debug, Clone)]
enum TierEntry {
    /// Resident full-precision arena (fast tier).
    Hot(Arc<HotCluster>),
    /// On-disk SQ8 extent, scanned through the segment mapping (slow
    /// tier).
    Cold,
}

/// The generation-counted tier map readers snapshot.
#[derive(Debug)]
struct TierMap {
    entries: Vec<TierEntry>,
    generation: u64,
}

/// Monotonic scan/migration counters shared by the store and every
/// snapshot taken from it.
#[derive(Debug, Default)]
struct Counters {
    hot_probes: AtomicU64,
    cold_probes: AtomicU64,
    hot_bytes_scanned: AtomicU64,
    cold_bytes_scanned: AtomicU64,
    bytes_promoted: AtomicU64,
    bytes_demoted: AtomicU64,
    clusters_promoted: AtomicU64,
    clusters_demoted: AtomicU64,
    snapshot_waits: AtomicU64,
    blocked_scans: AtomicU64,
    pairs_pruned: AtomicU64,
}

/// A point-in-time copy of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Probes routed to hot (resident full-precision) clusters, pruned
    /// ones included.
    pub hot_probes: u64,
    /// Probes routed to cold (mmap'd SQ8) clusters, pruned ones included.
    pub cold_probes: u64,
    /// Payload bytes of the hot passes routed, once per pass, even when
    /// pruning left a pass no query to score.
    pub hot_bytes_scanned: u64,
    /// Payload bytes of the cold passes routed, counted like
    /// `hot_bytes_scanned`.
    pub cold_bytes_scanned: u64,
    /// Bytes materialized into resident arenas by promotions.
    pub bytes_promoted: u64,
    /// Resident bytes released by demotions.
    pub bytes_demoted: u64,
    /// Clusters promoted cold → hot.
    pub clusters_promoted: u64,
    /// Clusters demoted hot → cold.
    pub clusters_demoted: u64,
    /// Times a reader found the tier map write-locked and had to wait —
    /// 0 in healthy runs: the migrator only holds the write lock for one
    /// pointer swap.
    pub snapshot_waits: u64,
    /// Blocked (cluster-major) passes routed ≥ 2 *distinct* queries of a
    /// batch for one sweep over a cluster's bytes (one query probing the
    /// same cluster twice is not a batching win and does not count;
    /// pruning does not un-count a pass). Each such pass counts every
    /// query in `hot_probes`/`cold_probes` but the payload bytes only
    /// once in `*_bytes_scanned` — the bytes-per-probe saving *is* the
    /// blocking win.
    pub blocked_scans: u64,
    /// Routed (query, cluster) pairs a pass skipped because the cluster's
    /// bounding ball proves none of its rows can enter the query's top-k
    /// (L2 only). Each is also one of `hot_probes` + `cold_probes`.
    pub pairs_pruned: u64,
}

/// Fast-tier residency of the store at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    /// Clusters currently hot.
    pub hot_clusters: usize,
    /// Total clusters in the store.
    pub total_clusters: usize,
    /// Bytes resident in hot arenas.
    pub hot_bytes: u64,
    /// Bytes the cold tier would touch scanning every cold cluster once.
    pub cold_bytes: u64,
}

impl Residency {
    /// Hot fraction of total stored bytes (`0.0` when the store is
    /// empty).
    pub fn byte_fraction(&self) -> f64 {
        let total = self.hot_bytes + self.cold_bytes;
        if total == 0 {
            0.0
        } else {
            self.hot_bytes as f64 / total as f64
        }
    }
}

/// Outcome of one [`TieredStore::apply_placement`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierShift {
    /// Clusters promoted cold → hot by this call.
    pub promoted: usize,
    /// Clusters demoted hot → cold by this call.
    pub demoted: usize,
    /// Bytes materialized into resident arenas.
    pub bytes_promoted: u64,
    /// Resident bytes released.
    pub bytes_demoted: u64,
    /// The store generation after the swap.
    pub generation: u64,
}

/// The tiered vector storage engine over one segment file.
#[derive(Debug)]
pub struct TieredStore {
    segment: Arc<Segment>,
    map: RwLock<Arc<TierMap>>,
    counters: Arc<Counters>,
    opened_existing: bool,
    ephemeral: bool,
}

impl TieredStore {
    /// Writes a fresh segment at `path` from `clusters` and opens it with
    /// the given hot set resident.
    ///
    /// # Errors
    ///
    /// Propagates segment write/validation errors; rejects a `hot` slice
    /// whose length differs from the cluster count.
    pub fn create(
        path: &Path,
        dim: usize,
        metric: Metric,
        clusters: &[(Vec<u64>, VecSet)],
        hot: &[bool],
    ) -> Result<TieredStore> {
        write_segment(path, dim, metric, clusters)?;
        let mut store = Self::open(path, metric, hot)?;
        store.opened_existing = false;
        Ok(store)
    }

    /// Opens an existing segment at `path`, loading the `hot` clusters
    /// into resident arenas.
    ///
    /// # Errors
    ///
    /// Propagates segment validation errors; [`StoreError::Mismatch`] if
    /// the segment's metric differs from `metric` or `hot` has the wrong
    /// length.
    pub fn open(path: &Path, metric: Metric, hot: &[bool]) -> Result<TieredStore> {
        let segment = Arc::new(Segment::open(path)?);
        if segment.metric() != metric {
            return Err(StoreError::Mismatch(format!(
                "segment scores under {:?}, deployment wants {metric:?}",
                segment.metric()
            )));
        }
        if hot.len() != segment.n_clusters() {
            return Err(StoreError::Mismatch(format!(
                "hot set covers {} clusters, segment holds {}",
                hot.len(),
                segment.n_clusters()
            )));
        }
        let entries: Vec<TierEntry> = hot
            .iter()
            .enumerate()
            .map(|(c, &is_hot)| {
                if is_hot {
                    TierEntry::Hot(Arc::new(HotCluster::load(&segment, c as u32)))
                } else {
                    TierEntry::Cold
                }
            })
            .collect();
        Ok(TieredStore {
            segment,
            map: RwLock::new(Arc::new(TierMap {
                entries,
                generation: 0,
            })),
            counters: Arc::new(Counters::default()),
            opened_existing: true,
            ephemeral: false,
        })
    }

    /// Opens the segment at `path` if one exists (verifying it describes
    /// exactly `clusters`), otherwise creates it — the save → load →
    /// serve entry point. [`TieredStore::opened_existing`] reports which
    /// path was taken.
    ///
    /// # Errors
    ///
    /// Propagates create/open errors; [`StoreError::Mismatch`] if an
    /// existing file's shape or per-cluster content checksums disagree
    /// with `clusters`.
    pub fn create_or_open(
        path: &Path,
        dim: usize,
        metric: Metric,
        clusters: &[(Vec<u64>, VecSet)],
        hot: &[bool],
    ) -> Result<TieredStore> {
        if !path.exists() {
            return Self::create(path, dim, metric, clusters, hot);
        }
        let store = Self::open(path, metric, hot)?;
        let segment = &store.segment;
        if segment.dim() != dim || segment.n_clusters() != clusters.len() {
            return Err(StoreError::Mismatch(format!(
                "existing segment is {} clusters × dim {}, deployment built {} × {dim}",
                segment.n_clusters(),
                segment.dim(),
                clusters.len()
            )));
        }
        let mut buf = Vec::new();
        for (c, (ids, vectors)) in clusters.iter().enumerate() {
            let (ids_crc, f32_crc) = segment.cluster_crcs(c as u32);
            fill_le(&mut buf, ids, u64::to_le_bytes);
            if crc32(&buf) != ids_crc {
                return Err(StoreError::Mismatch(format!(
                    "cluster {c}: existing segment holds different vector ids"
                )));
            }
            let mut h = Crc32::new();
            for v in vectors.iter() {
                fill_le(&mut buf, v, f32::to_le_bytes);
                h.update(&buf);
            }
            if h.finish() != f32_crc {
                return Err(StoreError::Mismatch(format!(
                    "cluster {c}: existing segment holds different vectors"
                )));
            }
        }
        Ok(store)
    }

    /// Whether this store reopened an existing segment file rather than
    /// writing a fresh one.
    pub fn opened_existing(&self) -> bool {
        self.opened_existing
    }

    /// Marks the segment file (and its parent directory, if then empty)
    /// for removal when the store drops — used for auto-created temp
    /// segments so default serving runs leave nothing behind.
    pub fn set_ephemeral(&mut self, ephemeral: bool) {
        self.ephemeral = ephemeral;
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.segment.dim()
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.segment.n_clusters()
    }

    /// The metric payloads are scored under.
    pub fn metric(&self) -> Metric {
        self.segment.metric()
    }

    /// The segment file backing the cold tier.
    pub fn path(&self) -> &Path {
        self.segment.path()
    }

    /// The SQ8 quantizer cold extents are encoded under.
    pub fn sq(&self) -> &ScalarQuantizer {
        self.segment.sq()
    }

    /// Whether cold extents are served by a real memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.segment.is_mapped()
    }

    /// The store generation: bumped by every applied tier shift.
    pub fn generation(&self) -> u64 {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .generation
    }

    /// The current hot flags, indexed by cluster id.
    pub fn hot_flags(&self) -> Vec<bool> {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        map.entries
            .iter()
            .map(|e| matches!(e, TierEntry::Hot(_)))
            .collect()
    }

    /// Fast-tier residency right now.
    pub fn residency(&self) -> Residency {
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        let mut r = Residency {
            hot_clusters: 0,
            total_clusters: map.entries.len(),
            hot_bytes: 0,
            cold_bytes: 0,
        };
        for (c, entry) in map.entries.iter().enumerate() {
            match entry {
                TierEntry::Hot(_) => {
                    r.hot_clusters += 1;
                    r.hot_bytes += self.segment.hot_bytes(c as u32);
                }
                TierEntry::Cold => {
                    r.cold_bytes += self.segment.cold_bytes(c as u32);
                }
            }
        }
        r
    }

    /// A point-in-time copy of the scan/migration counters.
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        StoreStats {
            // relaxed: independent monotone stat counters; a snapshot may
            // tear across fields but every value is a real observed count.
            hot_probes: c.hot_probes.load(Ordering::Relaxed),
            cold_probes: c.cold_probes.load(Ordering::Relaxed),
            hot_bytes_scanned: c.hot_bytes_scanned.load(Ordering::Relaxed),
            cold_bytes_scanned: c.cold_bytes_scanned.load(Ordering::Relaxed),
            // relaxed: same independent stat counters, continued.
            bytes_promoted: c.bytes_promoted.load(Ordering::Relaxed),
            bytes_demoted: c.bytes_demoted.load(Ordering::Relaxed),
            clusters_promoted: c.clusters_promoted.load(Ordering::Relaxed),
            clusters_demoted: c.clusters_demoted.load(Ordering::Relaxed),
            snapshot_waits: c.snapshot_waits.load(Ordering::Relaxed),
            // relaxed: same independent stat counters, continued.
            blocked_scans: c.blocked_scans.load(Ordering::Relaxed),
            pairs_pruned: c.pairs_pruned.load(Ordering::Relaxed),
        }
    }

    /// Takes a read snapshot of the tier map for scanning. Never blocks in
    /// healthy operation: the writer only holds the write lock for a
    /// pointer swap, and the rare collision is counted in
    /// [`StoreStats::snapshot_waits`].
    pub fn snapshot(&self) -> StoreSnapshot {
        let map = match self.map.try_read() {
            Ok(guard) => guard.clone(),
            Err(std::sync::TryLockError::WouldBlock) => {
                // relaxed: contention tally only; ordered by the read lock
                // acquired on the next line.
                self.counters.snapshot_waits.fetch_add(1, Ordering::Relaxed);
                self.map
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            }
            // A panicking writer cannot leave a torn map (the write-side
            // critical section is one pointer swap), so recover the guard.
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner().clone(),
        };
        StoreSnapshot {
            segment: self.segment.clone(),
            map,
            counters: self.counters.clone(),
        }
    }

    /// Moves the store to a new hot set: promotions materialize f32
    /// extents from the segment into resident arenas, demotions release
    /// arenas back to the cold tier. All I/O and arena construction happen
    /// *before* the write lock is taken; the lock is held only to swap the
    /// map pointer, so concurrent readers are never stalled behind disk
    /// reads. Clusters already in the requested tier are untouched (their
    /// arenas are shared with the previous map by `Arc`).
    ///
    /// # Panics
    ///
    /// Panics if `hot.len()` differs from the cluster count.
    pub fn apply_placement(&self, hot: &[bool]) -> TierShift {
        assert_eq!(
            hot.len(),
            self.n_clusters(),
            "hot set must cover every cluster"
        );
        let old = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut shift = TierShift::default();
        let entries: Vec<TierEntry> = old
            .entries
            .iter()
            .enumerate()
            .map(|(c, entry)| match (entry, hot[c]) {
                (TierEntry::Hot(arena), true) => TierEntry::Hot(arena.clone()),
                (TierEntry::Cold, false) => TierEntry::Cold,
                (TierEntry::Cold, true) => {
                    shift.promoted += 1;
                    shift.bytes_promoted += self.segment.hot_bytes(c as u32);
                    TierEntry::Hot(Arc::new(HotCluster::load(&self.segment, c as u32)))
                }
                (TierEntry::Hot(_), false) => {
                    shift.demoted += 1;
                    shift.bytes_demoted += self.segment.hot_bytes(c as u32);
                    TierEntry::Cold
                }
            })
            .collect();
        let next = Arc::new(TierMap {
            entries,
            generation: old.generation + 1,
        });
        {
            // The only write-side critical section: one pointer swap.
            let mut guard = self.map.write().unwrap_or_else(PoisonError::into_inner);
            *guard = next;
            shift.generation = guard.generation;
        }
        let c = &self.counters;
        // relaxed: migration accounting read only via stats(); the shift
        // itself is published by the write lock's release above.
        c.bytes_promoted
            .fetch_add(shift.bytes_promoted, Ordering::Relaxed);
        c.bytes_demoted
            .fetch_add(shift.bytes_demoted, Ordering::Relaxed);
        // relaxed: same migration accounting, continued.
        c.clusters_promoted
            .fetch_add(shift.promoted as u64, Ordering::Relaxed);
        c.clusters_demoted
            .fetch_add(shift.demoted as u64, Ordering::Relaxed);
        shift
    }
}

impl Drop for TieredStore {
    fn drop(&mut self) {
        if self.ephemeral {
            let path = self.segment.path().to_path_buf();
            let _ = std::fs::remove_file(&path);
            if let Some(parent) = path.parent() {
                let _ = std::fs::remove_dir(parent); // only if empty
            }
        }
    }
}

/// A consistent view of the tier map for one scan batch.
///
/// Holding a snapshot pins the arenas it references: a migration that
/// demotes a cluster mid-batch does not invalidate scans already running
/// against the old map.
#[derive(Debug)]
pub struct StoreSnapshot {
    segment: Arc<Segment>,
    map: Arc<TierMap>,
    counters: Arc<Counters>,
}

impl StoreSnapshot {
    /// The generation of the tier map this snapshot pinned.
    pub fn generation(&self) -> u64 {
        self.map.generation
    }

    /// Whether `cluster` is hot in this snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn is_hot(&self, cluster: u32) -> bool {
        matches!(self.map.entries[cluster as usize], TierEntry::Hot(_))
    }

    /// Whether a pass's query list names ≥ 2 *distinct* queries — the
    /// `blocked_scans` counter's documented semantics. A query whose
    /// probe list repeats a cluster id occurs in `qis` once per
    /// occurrence (kept that way so blocked scoring stays exactly
    /// equivalent to the per-query path, which also re-scores the
    /// duplicate), but such repeats are not a batching win and must not
    /// tick the counter. `qis` is nondecreasing by construction (the
    /// inversion walks queries in index order), so distinctness is one
    /// adjacent-pair sweep.
    fn is_multi_query(qis: &[usize]) -> bool {
        qis.windows(2).any(|w| w[0] != w[1])
    }

    /// What `cluster`'s bounding ball, in the tier this snapshot holds it
    /// in, proves about the served distance from `query` to each of its
    /// rows — the bounds a scan prunes with. [`Bounds::NONE`] under inner
    /// product, or for a non-finite query or cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range or `query.len() != dim`.
    pub fn distance_bounds(&self, cluster: u32, query: &[f32]) -> Bounds {
        assert_eq!(query.len(), self.segment.dim(), "query dimensionality");
        if self.segment.metric() != Metric::L2 {
            return Bounds::NONE;
        }
        match &self.map.entries[cluster as usize] {
            TierEntry::Hot(arena) => arena.ball.bounds(query.iter().map(|&q| f64::from(q))),
            TierEntry::Cold => {
                // `q − mins` rounded in f32, exactly as the fold rounds it.
                let mins = self.segment.sq().mins();
                let folded = query.iter().zip(mins).map(|(&q, &m)| f64::from(q - m));
                self.segment.cold_ball(cluster).bounds(folded)
            }
        }
    }

    /// Bounds one routed (query, cluster) pair: returns the lower bound
    /// the pass tests, and lowers the query's `seed` to the upper bound
    /// when the cluster holds ≥ `k` rows, since that cluster alone then
    /// puts k served distances at or under it.
    fn bound_pair(&self, cluster: u32, query: &[f32], k: usize, seed: &mut f64) -> f64 {
        let bounds = self.distance_bounds(cluster, query);
        // `upper` is never NaN, so `<` cannot let one in.
        if self.segment.cluster_len(cluster) >= k && bounds.upper < *seed {
            *seed = bounds.upper;
        }
        bounds.lower
    }

    /// One pass over `cluster` for the queries `qis` of a batch, in
    /// whichever tier the snapshot holds it. `lower[i]` bounds every
    /// served distance from query `qis[i]` to the cluster's rows; the
    /// queries [`prunes`] clears are dropped before any byte is read, and
    /// a pass left with none reads nothing. The routed counters still
    /// count the whole pass.
    fn scan_pass<'a>(
        &'a self,
        cluster: u32,
        queries: &[BatchQuery<'_>],
        qis: &[usize],
        lower: &[f64],
        scan: &mut Scan<'a>,
        tops: &mut [TopK],
    ) {
        let entry = &self.map.entries[cluster as usize];
        let (c, segment) = (&self.counters, &self.segment);
        let (probes, bytes_scanned, payload) = match entry {
            TierEntry::Hot(_) => (
                &c.hot_probes,
                &c.hot_bytes_scanned,
                segment.hot_bytes(cluster),
            ),
            TierEntry::Cold => (
                &c.cold_probes,
                &c.cold_bytes_scanned,
                segment.cold_bytes(cluster),
            ),
        };
        // relaxed: stats-only tallies, never used to order memory. Every
        // query of the pass counts as a probe; the payload bytes count
        // once per pass — that saving is the point of blocking.
        probes.fetch_add(qis.len() as u64, Ordering::Relaxed);
        bytes_scanned.fetch_add(payload, Ordering::Relaxed);
        if Self::is_multi_query(qis) {
            // relaxed: same stats-only tally as the probe counters above.
            c.blocked_scans.fetch_add(1, Ordering::Relaxed);
        }
        scan.kept.clear();
        scan.kept.extend(
            qis.iter()
                .zip(lower)
                .filter(|&(&qi, &lower)| !prunes(lower, scan.seeds[qi], tops[qi].threshold()))
                .map(|(&qi, _)| qi),
        );
        let pruned = qis.len() - scan.kept.len();
        if pruned > 0 {
            // relaxed: same stats-only tally as the probe counters above.
            c.pairs_pruned.fetch_add(pruned as u64, Ordering::Relaxed);
        }
        if scan.kept.is_empty() {
            return;
        }
        let kept = &scan.kept;
        match entry {
            TierEntry::Hot(arena) => self.scan_hot(arena, queries, kept, tops, &scan.kern),
            TierEntry::Cold => {
                self.scan_cold(cluster, queries, kept, &mut scan.folded, tops, &scan.kern);
            }
        }
    }

    /// One pass over a hot cluster, sub-block-major: each
    /// [`kernel::panel_runs`] run (≤ 4 whole 16-row groups, 16 KiB at dim
    /// 64) is scored against every probing query before the next run is
    /// touched, so the run comes from memory once and from cache for the
    /// rest of the batch. The panel kernel fills a stack buffer, pad rows
    /// included; [`TopK::offer`] sees only the run's real rows, eight
    /// distances per admission test.
    fn scan_hot(
        &self,
        arena: &HotCluster,
        queries: &[BatchQuery<'_>],
        qis: &[usize],
        tops: &mut [TopK],
        kern: &Kernels,
    ) {
        let (metric, dim) = (self.segment.metric(), self.segment.dim());
        let mut dist = [0.0f32; kernel::MAX_BLOCK];
        for rows in kernel::panel_runs(arena.ids.len()) {
            let panels = &arena.panels[rows.start * dim..rows.end * dim];
            let ids = &arena.ids[rows.start..rows.end.min(arena.ids.len())];
            let dist = &mut dist[..rows.len()];
            for &qi in qis {
                metric.score_panels(kern, queries[qi].query, panels, dist);
                tops[qi].offer(ids, &dist[..ids.len()]);
            }
        }
    }

    /// One pass over a cold cluster, sub-block-major like
    /// [`StoreSnapshot::scan_hot`]: each run of
    /// [`kernel::sq8_block_len`] code rows is scored against every
    /// probing query before the next run is touched, its ids decoded
    /// once for all of them. Codes are scored directly — widened and
    /// FMA'd against the query with the segment's quantizer folded in
    /// ([`ScalarQuantizer::fold_query`], `dim` floats, built here on the
    /// query's first cold probe of the batch) — through the same stack
    /// buffer and [`TopK::offer`] as the hot tier. There is no per-query
    /// table; the kernel table's LUT-sum entry remains for the benchmark
    /// ledger only.
    fn scan_cold<'a>(
        &'a self,
        cluster: u32,
        queries: &[BatchQuery<'_>],
        qis: &[usize],
        folded: &mut [Option<Sq8Query<'a>>],
        tops: &mut [TopK],
        kern: &Kernels,
    ) {
        let (metric, dim, sq) = (self.segment.metric(), self.segment.dim(), self.segment.sq());
        let step = kernel::sq8_block_len(dim);
        let mut ids = [0u64; kernel::MAX_BLOCK];
        let mut dist = [0.0f32; kernel::MAX_BLOCK];
        let runs = self.segment.sq8_codes(cluster).chunks(step * dim);
        for (r, run) in runs.enumerate() {
            let n = run.len() / dim;
            let (ids, dist) = (&mut ids[..n], &mut dist[..n]);
            self.segment.ids_into(cluster, r * step, ids);
            for &qi in qis {
                let query =
                    folded[qi].get_or_insert_with(|| sq.fold_query(metric, queries[qi].query));
                query.score_block(kern, run, dist);
                tops[qi].offer(ids, dist);
            }
        }
    }
}

impl ClusterStore for StoreSnapshot {
    fn dim(&self) -> usize {
        self.segment.dim()
    }

    fn n_clusters(&self) -> usize {
        self.segment.n_clusters()
    }

    fn metric(&self) -> Metric {
        self.segment.metric()
    }

    fn cluster_len(&self, cluster: u32) -> usize {
        self.segment.cluster_len(cluster)
    }

    /// Blocked (cluster-major) batch scan: the per-query probe lists are
    /// inverted into cluster → probing-queries, then each cluster's bytes
    /// are streamed exactly once, scoring every query that probes it.
    /// Every query's result is the one it gets scanned alone (a batch of
    /// one) — [`TopK`]'s `(score, id)` total order makes the outcome
    /// independent of push order — only the traversal (and therefore the
    /// bytes touched) changes. Under L2 the inversion also bounds each
    /// routed pair and seeds each query, and a pass skips the pairs its
    /// bounds rule out (see the module docs).
    fn scan_batch(&self, queries: &[BatchQuery<'_>], tops: &mut [TopK]) {
        assert_eq!(queries.len(), tops.len(), "one TopK per batched query");
        for q in queries {
            assert_eq!(q.query.len(), self.segment.dim(), "query dimensionality");
        }
        let mut scan = Scan::new(queries.len());
        // Counting-sort inversion into CSR form: cluster `c` is probed by
        // `qis[offsets[c]..offsets[c + 1]]`. Counts land two slots up so
        // that, after the prefix sum, `offsets[c + 1]` is cluster `c`'s
        // write cursor and ends the fill as its end offset. Queries are
        // walked in index order, so each run is nondecreasing with
        // duplicates kept; clusters are then visited in ascending id, so
        // the traversal (and every counter) is deterministic for a batch.
        let n_clusters = self.map.entries.len();
        let mut offsets = vec![0usize; n_clusters + 2];
        for q in queries {
            for &c in q.lists {
                offsets[c as usize + 2] += 1;
            }
        }
        for c in 2..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        // `lower` runs beside `qis`: slot `i` bounds pair `(qis[i], c)`.
        let slots = offsets[n_clusters + 1];
        let (mut qis, mut lower) = (vec![0usize; slots], vec![0.0f64; slots]);
        for (qi, q) in queries.iter().enumerate() {
            for &c in q.lists {
                let cursor = &mut offsets[c as usize + 1];
                qis[*cursor] = qi;
                lower[*cursor] = self.bound_pair(c, q.query, tops[qi].k(), &mut scan.seeds[qi]);
                *cursor += 1;
            }
        }
        for cluster in 0..n_clusters {
            let slots = offsets[cluster]..offsets[cluster + 1];
            if !slots.is_empty() {
                let (qis, lower) = (&qis[slots.clone()], &lower[slots]);
                self.scan_pass(cluster as u32, queries, qis, lower, &mut scan, tops);
            }
        }
    }
}

/// What one scan call carries from pass to pass.
struct Scan<'a> {
    /// The kernel table, resolved once per call: the scan loops run over
    /// plain function pointers.
    kern: Kernels,
    /// Per-query folded queries, built lazily on the query's first cold
    /// pass and shared across all its cold clusters of the call.
    folded: Vec<Option<Sq8Query<'a>>>,
    /// Per query, `U`: the smallest upper bound over its probed clusters
    /// holding ≥ k rows (`+∞` if none), so its final k-th distance is at
    /// most `U` before any pass runs, whatever order the passes take.
    seeds: Vec<f64>,
    /// The queries of the current pass that survive pruning; one buffer
    /// reused by every pass.
    kept: Vec<usize>,
}

impl Scan<'_> {
    fn new(n_queries: usize) -> Self {
        Scan {
            kern: kernel::kernels(),
            folded: vec![None; n_queries],
            seeds: vec![f64::INFINITY; n_queries],
            kept: Vec::new(),
        }
    }
}

/// Whether a pass may skip a query whose served distances to the cluster
/// are all at least `lower`: only when `lower > min(seed, threshold)`,
/// `threshold` being the query's current k-th distance
/// ([`TopK::threshold`]). Strict, so a tie at the k-th distance is still
/// scanned and can win on id. Spelled as two comparisons because
/// `f64::min` drops a NaN: a NaN makes its comparison false, so a NaN
/// `lower` (nothing proven) always scans.
fn prunes(lower: f64, seed: f64, threshold: f32) -> bool {
    lower > seed || lower > f64::from(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_ann::scan_lists_store;

    fn sample_clusters(
        n_clusters: usize,
        per: usize,
        dim: usize,
        seed: u64,
    ) -> Vec<(Vec<u64>, VecSet)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_clusters)
            .map(|c| {
                let ids: Vec<u64> = (0..per as u64).map(|i| (c as u64) * 1_000 + i).collect();
                let vectors =
                    VecSet::from_fn(per, dim, |_, _| (c as f32) * 2.0 + rng.random::<f32>());
                (ids, vectors)
            })
            .collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vlite-tiered-test-{}-{tag}.seg",
            std::process::id()
        ))
    }

    #[test]
    fn hot_scan_matches_source_vectors_exactly() {
        let clusters = sample_clusters(4, 30, 8, 10);
        let path = temp_path("hot");
        let store =
            TieredStore::create(&path, 8, Metric::L2, &clusters, &[true; 4]).expect("creates");
        let snap = store.snapshot();
        let query: Vec<f32> = clusters[2].1.get(5).to_vec();
        let hits = scan_lists_store(&snap, &query, &[0, 1, 2, 3], 1);
        assert_eq!(hits[0].id, 2_005, "a vector is its own nearest neighbor");
        assert_eq!(hits[0].distance, 0.0);
        assert!(store.stats().hot_probes == 4 && store.stats().cold_probes == 0);
        drop(snap);
        drop(store);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn cold_scan_equals_scanning_the_decoded_vectors() {
        // Dims below, at and past the kernels' 8-lane step (6 is all
        // tail lanes, 100 leaves four), both metrics the format admits.
        for (dim, metric) in [
            (6, Metric::L2),
            (6, Metric::InnerProduct),
            (64, Metric::L2),
            (64, Metric::InnerProduct),
            (100, Metric::L2),
            (100, Metric::InnerProduct),
        ] {
            let clusters = sample_clusters(3, 25, dim, 11);
            let path = temp_path(&format!("cold-{dim}-{metric:?}"));
            let store =
                TieredStore::create(&path, dim, metric, &clusters, &[false; 3]).expect("creates");
            let snap = store.snapshot();
            let query: Vec<f32> = clusters[1].1.get(3).to_vec();
            let hits = scan_lists_store(&snap, &query, &[0, 1, 2], 5);

            // Reference: decode every vector's SQ8 code at full precision
            // with the segment's own quantizer and scan flat.
            let sq = store.sq().clone();
            let mut top = TopK::new(5);
            for (ids, vectors) in &clusters {
                for (i, v) in vectors.iter().enumerate() {
                    let decoded = sq.decode(&sq.encode(v));
                    let mut d = 0.0f32;
                    for (q, x) in query.iter().zip(&decoded) {
                        d += match metric {
                            Metric::L2 => (q - x) * (q - x),
                            Metric::InnerProduct => -(q * x),
                        };
                    }
                    top.push(ids[i], d);
                }
            }
            let want = top.into_sorted();
            assert_eq!(
                hits.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
                "dim {dim} {metric:?}"
            );
            for (a, b) in hits.iter().zip(&want) {
                assert!((a.distance - b.distance).abs() < 1e-3, "{a:?} vs {b:?}");
            }
            assert!(store.stats().cold_probes == 3 && store.stats().hot_probes == 0);
            drop(snap);
            drop(store);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn migration_is_invisible_to_held_snapshots() {
        let clusters = sample_clusters(4, 20, 4, 12);
        let path = temp_path("migrate");
        let store =
            TieredStore::create(&path, 4, Metric::L2, &clusters, &[true, true, false, false])
                .expect("creates");
        let before = store.snapshot();
        assert!(before.is_hot(0) && !before.is_hot(2));

        let shift = store.apply_placement(&[false, false, true, true]);
        assert_eq!(shift.promoted, 2);
        assert_eq!(shift.demoted, 2);
        assert!(shift.bytes_promoted > 0 && shift.bytes_demoted > 0);
        assert_eq!(shift.generation, 1);
        assert_eq!(store.generation(), 1);

        // The old snapshot still sees — and can scan — the old tiers.
        assert!(before.is_hot(0));
        let query: Vec<f32> = clusters[0].1.get(0).to_vec();
        let old_hits = scan_lists_store(&before, &query, &[0, 1, 2, 3], 3);
        let after = store.snapshot();
        assert!(!after.is_hot(0) && after.is_hot(2));
        let new_hits = scan_lists_store(&after, &query, &[0, 1, 2, 3], 3);
        assert_eq!(
            old_hits[0].id, new_hits[0].id,
            "identity results survive the tier move"
        );
        assert_eq!(store.hot_flags(), vec![false, false, true, true]);
        drop((before, after, store));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn noop_placement_still_bumps_the_generation_only() {
        let clusters = sample_clusters(2, 5, 4, 13);
        let path = temp_path("noop");
        let store =
            TieredStore::create(&path, 4, Metric::L2, &clusters, &[true, false]).expect("creates");
        let shift = store.apply_placement(&[true, false]);
        assert_eq!(shift.promoted + shift.demoted, 0);
        assert_eq!(shift.bytes_promoted + shift.bytes_demoted, 0);
        assert_eq!(store.generation(), 1);
        drop(store);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn create_or_open_reuses_and_verifies_an_existing_segment() {
        let clusters = sample_clusters(3, 12, 4, 14);
        let path = temp_path("reuse");
        let first = TieredStore::create(&path, 4, Metric::L2, &clusters, &[true, false, false])
            .expect("creates");
        assert!(!first.opened_existing());
        drop(first);

        let second =
            TieredStore::create_or_open(&path, 4, Metric::L2, &clusters, &[false, true, false])
                .expect("reopens");
        assert!(second.opened_existing());
        assert_eq!(second.hot_flags(), vec![false, true, false]);
        drop(second);

        // Same shape, different contents: must be rejected, not served.
        let other = sample_clusters(3, 12, 4, 999);
        let err = TieredStore::create_or_open(&path, 4, Metric::L2, &other, &[false; 3])
            .expect_err("mismatched contents");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ephemeral_store_removes_its_file_on_drop() {
        let clusters = sample_clusters(2, 5, 4, 15);
        let path = temp_path("ephemeral");
        let mut store =
            TieredStore::create(&path, 4, Metric::L2, &clusters, &[false, false]).expect("creates");
        store.set_ephemeral(true);
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "ephemeral segment must be cleaned up");
    }

    #[test]
    fn residency_accounts_hot_and_cold_bytes() {
        let clusters = sample_clusters(4, 10, 8, 16);
        let path = temp_path("residency");
        let store =
            TieredStore::create(&path, 8, Metric::L2, &clusters, &[true, true, false, false])
                .expect("creates");
        let r = store.residency();
        assert_eq!(r.hot_clusters, 2);
        assert_eq!(r.total_clusters, 4);
        // Hot arenas: 10 × (8 + 32) per cluster; cold extents: 10 × (8 + 8).
        assert_eq!(r.hot_bytes, 2 * 10 * 40);
        assert_eq!(r.cold_bytes, 2 * 10 * 16);
        assert!(r.byte_fraction() > 0.5, "full precision dominates bytes");
        drop(store);
        let _ = std::fs::remove_file(path);
    }
}
