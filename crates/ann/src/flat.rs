//! Exhaustive (flat) index — the recall ground truth.

use crate::{Metric, Neighbor, TopK, VecSet};

/// A brute-force index that scans every vector.
///
/// Used as the ground truth for recall/NDCG evaluation and as the
/// small-database baseline where the paper notes "CPU-based vector search
/// may be sufficient".
///
/// # Examples
///
/// ```
/// use vlite_ann::{FlatIndex, Metric, VecSet};
///
/// let data = VecSet::from_fn(10, 2, |i, _| i as f32);
/// let index = FlatIndex::new(data, Metric::L2);
/// let hits = index.search(&[3.2, 3.2], 2);
/// assert_eq!(hits[0].id, 3);
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: VecSet,
    metric: Metric,
}

impl FlatIndex {
    /// Wraps a vector set; ids are the row positions.
    pub fn new(data: VecSet, metric: Metric) -> Self {
        Self { data, metric }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Returns the exact `k` nearest neighbors of `query`, closest first.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the index dimensionality.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.data.dim(),
            "query has wrong dimensionality"
        );
        let mut top = TopK::new(k);
        for (i, v) in self.data.iter().enumerate() {
            top.push(i as u64, self.metric.score(query, v));
        }
        top.into_sorted()
    }

    /// Searches a batch of queries, parallelized over queries with scoped
    /// threads.
    pub fn search_batch(&self, queries: &VecSet, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        assert_eq!(
            queries.dim(),
            self.data.dim(),
            "queries have wrong dimensionality"
        );
        let n = queries.len();
        let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        if n == 0 {
            return out;
        }
        let chunk = n.div_ceil(threads.clamp(1, n));
        std::thread::scope(|scope| {
            for (t, slice) in out.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                scope.spawn(move || {
                    for (offset, result) in slice.iter_mut().enumerate() {
                        *result = self.search(queries.get(start + offset), k);
                    }
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn finds_self_as_nearest() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = VecSet::from_fn(50, 4, |_, _| rng.random::<f32>());
        let index = FlatIndex::new(data.clone(), Metric::L2);
        for i in (0..50).step_by(7) {
            let hits = index.search(data.get(i), 1);
            assert_eq!(hits[0].id, i as u64);
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn results_are_sorted_ascending() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = VecSet::from_fn(100, 4, |_, _| rng.random::<f32>());
        let index = FlatIndex::new(data, Metric::L2);
        let hits = index.search(&[0.5; 4], 10);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn batch_matches_single() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = VecSet::from_fn(80, 4, |_, _| rng.random::<f32>());
        let queries = VecSet::from_fn(9, 4, |_, _| rng.random::<f32>());
        let index = FlatIndex::new(data, Metric::L2);
        let batch = index.search_batch(&queries, 5, 4);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], index.search(q, 5));
        }
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let index = FlatIndex::new(VecSet::from_fn(8, 4, |i, j| (i + j) as f32), Metric::L2);
        for threads in [0, 1, 4] {
            assert!(index.search_batch(&VecSet::new(4), 5, threads).is_empty());
        }
    }

    #[test]
    fn inner_product_prefers_aligned_vectors() {
        let mut data = VecSet::new(2);
        data.push(&[1.0, 0.0]);
        data.push(&[10.0, 0.0]);
        data.push(&[0.0, 1.0]);
        let index = FlatIndex::new(data, Metric::InnerProduct);
        let hits = index.search(&[1.0, 0.0], 3);
        assert_eq!(hits[0].id, 1); // largest dot product first
    }
}
