//! From-scratch approximate nearest neighbor (ANN) substrate.
//!
//! The paper builds on Faiss (IVF, IVF-PQ, IVF-FastScan). Faiss is
//! unavailable here, so this crate reimplements the index family the
//! runtime serves in pure Rust, under L2 or inner product ([`Metric`]):
//!
//! - [`FlatIndex`] — exhaustive search, the recall ground truth.
//! - [`KMeans`] — Lloyd's algorithm with k-means++ / random-sample
//!   initialization and empty-cluster repair; trains the coarse centroids.
//! - [`ScalarQuantizer`] — `f32 → u8` scalar quantization, the cold
//!   tier's code.
//! - [`IvfIndex`] — inverted-file index over k-means clusters with flat
//!   (full-precision) lists and an exact coarse quantizer; exposes coarse
//!   quantization and list scan separately, the stages the paper's
//!   performance model times (Fig. 2; flat lists build no LUT).
//! - [`ClusterStore`] — the trait through which the serving runtime scans
//!   lists that live outside the index.
//! - [`eval`] — recall@k and NDCG@k quality metrics.
//!
//! # Examples
//!
//! Build an IVF index and search it:
//!
//! ```
//! use vlite_ann::{IvfConfig, IvfIndex, VecSet};
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = VecSet::from_fn(512, 16, |_, _| rng.random::<f32>());
//! let index = IvfIndex::train(&data, &IvfConfig::new(8))?;
//! let hits = index.search(data.get(3), 5, 4);
//! assert_eq!(hits[0].id, 3); // the vector itself is its own nearest neighbor
//! # Ok::<(), vlite_ann::AnnError>(())
//! ```

// `deny`, not `forbid`: the `kernel` module's arch submodules carry a
// scoped `#[allow(unsafe_code)]` for `std::arch` intrinsics — the
// crate's sole audited unsafe surface (see `vlite-analyze`'s
// unsafe-audit rule). Everything else still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod error;
pub mod eval;
mod flat;
mod ivf;
pub mod kernel;
mod kmeans;
mod sq;
mod store;
mod topk;
mod vecset;

pub use distance::{dot, l2_sq, Metric};
pub use error::AnnError;
pub use flat::FlatIndex;
pub use ivf::{IvfConfig, IvfIndex, Probe};
pub use kernel::{KernelKind, Kernels};
pub use kmeans::{KMeans, KMeansConfig, KMeansInit};
pub use sq::{ScalarQuantizer, Sq8Query};
pub use store::{scan_lists_store, scan_lists_store_batch, BatchQuery, ClusterStore};
pub use topk::{merge_sorted, Neighbor, TopK};
pub use vecset::VecSet;

/// Result alias for fallible ANN operations.
pub type Result<T> = std::result::Result<T, AnnError>;
