//! `vlite-store` — the tiered vector storage engine of the VectorLiteRAG
//! reproduction.
//!
//! The partitioner's `PartitionDecision` used to steer *routing only*:
//! every cluster lived in one in-memory, full-precision `VecSet`, so
//! "placement" changed nothing about where bytes live or how fast they
//! scan. This crate makes Algorithm 1's output physical:
//!
//! - **Hot clusters** (the fast tier) are resident full-precision arenas —
//!   `ids + n × dim × f32` in memory, scanned exactly like an IVF-Flat
//!   list.
//! - **Cold clusters** (the slow tier) persist in an on-disk segment file
//!   (checksummed header, per-cluster extents; see [`Segment`]) accessed
//!   through a read-only `mmap` and scanned as SQ8 codes, scored
//!   directly against the query with the quantizer folded in — genuinely
//!   cheaper in bytes and slower in recall-per-probe, the paper's
//!   asymmetric tiers.
//!
//! [`TieredStore`] implements `vlite-ann`'s `ClusterStore` trait through
//! generation-counted [`StoreSnapshot`]s, so `vlite_ann::scan_lists_store`
//! (and its batch form) reads through it without knowing which tier a
//! cluster is on, under either `Metric` (L2 or inner product). A live
//! migration ([`TieredStore::apply_placement`]) never blocks readers: all
//! promotion I/O happens outside the lock, the swap is one pointer store,
//! and in-flight scans keep their snapshot's arenas alive by `Arc`.
//!
//! The segment file doubles as the persisted-index artifact: a cold
//! cluster can be promoted by materializing its full-precision extent, and
//! a whole deployment can save → load → serve with bit-identical search
//! results ([`TieredStore::create_or_open`] verifies a reopened segment's
//! content checksums against the freshly built index).
//!
//! # Examples
//!
//! ```
//! use vlite_ann::{scan_lists_store, Metric, VecSet};
//! use vlite_store::TieredStore;
//!
//! let clusters: Vec<(Vec<u64>, VecSet)> = (0..4)
//!     .map(|c| {
//!         let ids = (c * 100..c * 100 + 8).collect();
//!         (ids, VecSet::from_fn(8, 4, |i, j| (c * 8 + i as u64 + j as u64) as f32))
//!     })
//!     .collect();
//! let path = std::env::temp_dir().join(format!("vlite-doc-{}.seg", std::process::id()));
//! let mut store = TieredStore::create(&path, 4, Metric::L2, &clusters, &[true, true, false, false])?;
//! store.set_ephemeral(true); // clean the temp segment up on drop
//!
//! let snapshot = store.snapshot();
//! let hits = scan_lists_store(&snapshot, &[0.0; 4], &[0, 1, 2, 3], 3);
//! assert_eq!(hits[0].id, 0);
//!
//! // Live migration: promote the cold clusters, demote the hot ones.
//! let shift = store.apply_placement(&[false, false, true, true]);
//! assert_eq!(shift.promoted, 2);
//! // The held snapshot still scans the old tiers — readers never stall.
//! assert!(snapshot.is_hot(0));
//! # Ok::<(), vlite_store::StoreError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod ball;
mod checksum;
mod mmap;
mod segment;
mod tiered;

pub use ball::Bounds;
pub use checksum::{crc32, Crc32};
pub use mmap::Mmap;
pub use segment::{write_segment, Segment, StoreError, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use tiered::{Residency, StoreSnapshot, StoreStats, TierShift, TieredStore};

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
