//! The [`ClusterStore`] abstraction: where inverted-list payloads
//! physically live.
//!
//! [`IvfIndex`](crate::IvfIndex) historically owned every list's vectors in
//! memory at full precision, which makes "placement" a routing concept
//! only. A `ClusterStore` turns placement physical: the IVF scan path reads
//! cluster payloads *through this trait*, so an implementation can keep hot
//! clusters in resident full-precision arenas while cold clusters live in
//! quantized on-disk extents — the asymmetric fast/slow tiers of the
//! paper's partitioning, realized in bytes rather than labels. The
//! `vlite-store` crate provides the tiered implementation; this crate only
//! defines the read interface so the scan loop stays storage-agnostic.

use crate::{Metric, Neighbor, TopK};

/// Read-side interface over physically stored cluster payloads.
///
/// An implementation owns the bytes of every cluster (inverted list) of one
/// index and knows how to accumulate scan candidates for a batch of
/// queries, whatever the encoding (full-precision `f32`, SQ8 codes, …).
/// Implementations must be shareable across scan threads.
///
/// The distance metric is a property of the store (fixed when the payloads
/// were written), not of the call: callers route queries, stores score
/// them.
///
/// # Examples
///
/// A minimal resident store over one flat cluster:
///
/// ```
/// use vlite_ann::{scan_lists_store, BatchQuery, ClusterStore, Metric, TopK, VecSet};
///
/// struct OneCluster(VecSet);
///
/// impl ClusterStore for OneCluster {
///     fn dim(&self) -> usize { self.0.dim() }
///     fn n_clusters(&self) -> usize { 1 }
///     fn metric(&self) -> Metric { Metric::L2 }
///     fn cluster_len(&self, _c: u32) -> usize { self.0.len() }
///     fn scan_batch(&self, queries: &[BatchQuery<'_>], tops: &mut [TopK]) {
///         for (q, top) in queries.iter().zip(tops) {
///             for _ in q.lists {
///                 for (i, v) in self.0.iter().enumerate() {
///                     top.push(i as u64, Metric::L2.score(q.query, v));
///                 }
///             }
///         }
///     }
/// }
///
/// let store = OneCluster(VecSet::from_fn(8, 2, |i, j| (i + j) as f32));
/// assert_eq!(scan_lists_store(&store, &[0.0, 1.0], &[0], 1)[0].id, 0);
/// ```
pub trait ClusterStore: Send + Sync {
    /// Vector dimensionality of every stored cluster.
    fn dim(&self) -> usize;

    /// Number of clusters the store holds payloads for.
    fn n_clusters(&self) -> usize;

    /// The distance metric the payloads are scored under.
    fn metric(&self) -> Metric;

    /// Number of vectors stored in cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    fn cluster_len(&self, cluster: u32) -> usize;

    /// Scans a whole batch of queries — each with its own probe list — in
    /// one call, offering every scanned vector's `(id, score)` under
    /// [`ClusterStore::metric`] to `tops[i]` for `queries[i]`.
    ///
    /// An implementation may make *blocked* (cluster-major) passes: when
    /// several queries of the batch probe the same cluster, one pass over
    /// the cluster's bytes scores all of them, instead of each query
    /// re-streaming the payload. Because [`TopK`]'s ordering is a total
    /// order over `(score, id)`, every query's result must be the same as
    /// scanning it alone, whatever order the clusters are visited in.
    ///
    /// # Panics
    ///
    /// Panics if `queries.len() != tops.len()`, a query's length is not
    /// `dim()`, or a list id is out of range.
    fn scan_batch(&self, queries: &[BatchQuery<'_>], tops: &mut [TopK]);
}

/// One query of a batched scan: the vector plus the clusters its coarse
/// probe selected.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query vector (`dim()` components).
    pub query: &'a [f32],
    /// The cluster ids this query probes.
    pub lists: &'a [u32],
}

/// Scans `lists` through a [`ClusterStore`] and returns the top-`k`
/// neighbors: [`scan_lists_store_batch`] over a batch of one.
///
/// # Panics
///
/// Panics if `query.len() != store.dim()`, `k == 0`, or a list id is out of
/// range.
pub fn scan_lists_store(
    store: &dyn ClusterStore,
    query: &[f32],
    lists: &[u32],
    k: usize,
) -> Vec<Neighbor> {
    let batch = [BatchQuery { query, lists }];
    let mut tops = scan_lists_store_batch(store, &batch, k);
    tops.pop().expect("one result per query")
}

/// Scans a whole batch of queries through a [`ClusterStore`] and returns
/// each query's top-`k` neighbors, in batch order — the storage-agnostic
/// stage-3 scan loop, through [`ClusterStore::scan_batch`] so tiered
/// stores can block the scan (one pass over a cluster's bytes scores
/// every query probing it).
///
/// # Panics
///
/// Panics if any `query.len() != store.dim()`, `k == 0`, or a list id is
/// out of range.
pub fn scan_lists_store_batch(
    store: &dyn ClusterStore,
    queries: &[BatchQuery<'_>],
    k: usize,
) -> Vec<Vec<Neighbor>> {
    for q in queries {
        assert_eq!(q.query.len(), store.dim(), "query has wrong dimensionality");
    }
    let mut tops: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
    store.scan_batch(queries, &mut tops);
    tops.into_iter().map(TopK::into_sorted).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSet;

    /// Two tiny clusters with disjoint id spaces.
    struct TwoClusters {
        a: VecSet,
        b: VecSet,
    }

    impl ClusterStore for TwoClusters {
        fn dim(&self) -> usize {
            self.a.dim()
        }
        fn n_clusters(&self) -> usize {
            2
        }
        fn metric(&self) -> Metric {
            Metric::L2
        }
        fn cluster_len(&self, cluster: u32) -> usize {
            match cluster {
                0 => self.a.len(),
                1 => self.b.len(),
                other => panic!("cluster {other} out of range"),
            }
        }
        fn scan_batch(&self, queries: &[BatchQuery<'_>], tops: &mut [TopK]) {
            for (q, top) in queries.iter().zip(tops) {
                for &cluster in q.lists {
                    let (set, base) = match cluster {
                        0 => (&self.a, 0u64),
                        1 => (&self.b, 100u64),
                        other => panic!("cluster {other} out of range"),
                    };
                    for (i, v) in set.iter().enumerate() {
                        top.push(base + i as u64, Metric::L2.score(q.query, v));
                    }
                }
            }
        }
    }

    fn store() -> TwoClusters {
        TwoClusters {
            a: VecSet::from_fn(4, 2, |i, _| i as f32),
            b: VecSet::from_fn(4, 2, |i, _| 10.0 + i as f32),
        }
    }

    #[test]
    fn scan_lists_store_merges_across_clusters() {
        let s = store();
        let hits = scan_lists_store(&s, &[10.0, 10.0], &[0, 1], 2);
        assert_eq!(hits[0].id, 100, "closest lives in cluster 1");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scan_subset_only_touches_requested_lists() {
        let s = store();
        let hits = scan_lists_store(&s, &[10.0, 10.0], &[0], 1);
        assert_eq!(hits[0].id, 3, "cluster 1 excluded from the scan");
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn dimension_mismatch_rejected() {
        scan_lists_store(&store(), &[0.0; 3], &[0], 1);
    }
}
