//! Inverted-file (IVF) index over full-precision (flat) inverted lists.
//!
//! Search proceeds in two separately exposed stages, so the profiler and
//! the hybrid CPU/GPU runtime can time and split them:
//!
//! 1. **Coarse quantization** ([`IvfIndex::probe`]) — score every
//!    centroid in one panel call, over a 16-row panel copy of the
//!    centroids built at training, and keep the closest `nprobe`.
//! 2. **List scan** ([`IvfIndex::scan_lists`]) — score the vectors of the
//!    selected inverted lists with the pair kernels and keep the top-k.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::kernel::{self, Kernels};
use crate::{AnnError, KMeans, KMeansConfig, Metric, Neighbor, Result, TopK, VecSet};

/// Configuration for [`IvfIndex::train`]: `nlist` k-means centroids,
/// searched exactly, over lists of full-precision vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfConfig {
    /// Number of inverted lists (clusters).
    pub nlist: usize,
    /// Distance metric.
    pub metric: Metric,
    /// k-means iterations for centroid training.
    pub train_iters: usize,
    /// Max training vectors sampled for k-means (Faiss-style cap so huge
    /// adds don't make training quadratic).
    pub max_train_points: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IvfConfig {
    /// Creates a config with `nlist` clusters under L2.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            metric: Metric::L2,
            train_iters: 10,
            max_train_points: 65_536,
            seed: 0x1f,
        }
    }

    /// Sets the metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One coarse-quantization result: a cluster and its centroid distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Cluster (inverted list) id.
    pub list: u32,
    /// Query-to-centroid score (smaller is closer).
    pub distance: f32,
}

#[derive(Debug, Clone)]
struct InvertedList {
    ids: Vec<u64>,
    data: VecSet,
}

impl InvertedList {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn bytes(&self) -> usize {
        self.data.bytes() + self.ids.len() * 8
    }
}

/// An IVF index: k-means centroids plus one inverted list per cluster.
///
/// # Examples
///
/// ```
/// use vlite_ann::{IvfConfig, IvfIndex, VecSet};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let data = VecSet::from_fn(2048, 16, |_, _| rng.random::<f32>());
/// let index = IvfIndex::train(&data, &IvfConfig::new(16))?;
/// let hits = index.search(data.get(100), 10, 8);
/// assert!(hits.iter().any(|n| n.id == 100));
/// # Ok::<(), vlite_ann::AnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IvfIndex {
    config: IvfConfig,
    dim: usize,
    centroids: KMeans,
    /// The centroids in the panel layout [`IvfIndex::probe`] scores.
    centroid_panels: Vec<f32>,
    lists: Vec<InvertedList>,
}

impl IvfIndex {
    /// Trains centroids on `data` and adds all of `data` to the index with
    /// sequential ids.
    ///
    /// # Errors
    ///
    /// Propagates k-means training errors (insufficient data, invalid
    /// configuration).
    pub fn train(data: &VecSet, config: &IvfConfig) -> Result<IvfIndex> {
        let mut index = IvfIndex::train_empty(data, config)?;
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        index.add(&ids, data)?;
        Ok(index)
    }

    /// Trains the centroids only, returning an index with empty lists.
    ///
    /// # Errors
    ///
    /// See [`IvfIndex::train`].
    pub fn train_empty(data: &VecSet, config: &IvfConfig) -> Result<IvfIndex> {
        if config.nlist == 0 {
            return Err(AnnError::InvalidConfig("nlist must be >= 1".into()));
        }
        // Subsample training points, Faiss-style.
        let train_set = if data.len() > config.max_train_points {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let rows: Vec<usize> = sample(&mut rng, data.len(), config.max_train_points)
                .into_iter()
                .collect();
            Cow::Owned(data.select(&rows))
        } else {
            Cow::Borrowed(data)
        };
        let km_cfg = KMeansConfig::new(config.nlist)
            .max_iters(config.train_iters)
            .seed(config.seed);
        let centroids = KMeans::train(&train_set, &km_cfg)?;
        let lists = (0..config.nlist)
            .map(|_| InvertedList {
                ids: Vec::new(),
                data: VecSet::new(data.dim()),
            })
            .collect();
        Ok(IvfIndex {
            config: config.clone(),
            dim: data.dim(),
            centroid_panels: panels_of(centroids.centroids()),
            centroids,
            lists,
        })
    }

    /// Adds vectors with explicit ids.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] if `data` has the wrong
    /// dimensionality and [`AnnError::InvalidConfig`] if `ids` and `data`
    /// lengths differ.
    pub fn add(&mut self, ids: &[u64], data: &VecSet) -> Result<()> {
        if data.dim() != self.dim {
            return Err(AnnError::DimensionMismatch {
                expected: self.dim,
                actual: data.dim(),
            });
        }
        if ids.len() != data.len() {
            return Err(AnnError::InvalidConfig(format!(
                "ids ({}) and vectors ({}) must have equal length",
                ids.len(),
                data.len()
            )));
        }
        let assignment = self.centroids.assign(data);
        // Group rows by destination list so each list's buffers grow in one
        // run. Growing every list at once, row by row, fragments the heap:
        // it cost 7 MB of peak RSS in the `perf` harness's serving runs.
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); self.lists.len()];
        for (row, &list) in assignment.iter().enumerate() {
            grouped[list as usize].push(row);
        }
        for (list, rows) in self.lists.iter_mut().zip(grouped) {
            for &row in &rows {
                list.ids.push(ids[row]);
            }
            for &row in &rows {
                list.data.push(data.get(row));
            }
        }
        Ok(())
    }

    /// Number of vectors the lists hold (none once
    /// [`IvfIndex::take_flat_lists`] has detached them).
    pub fn len(&self) -> usize {
        self.lists.iter().map(InvertedList::len).sum()
    }

    /// Whether the lists hold no vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Number of vectors in list `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn list_len(&self, l: usize) -> usize {
        self.lists[l].len()
    }

    /// Memory footprint of list `l` in bytes (vectors + ids).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn list_bytes(&self, l: usize) -> usize {
        self.lists[l].bytes()
    }

    /// The coarse centroids.
    pub fn centroids(&self) -> &VecSet {
        self.centroids.centroids()
    }

    /// Stage 1 — coarse quantization: the `nprobe` closest clusters,
    /// closest first.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the index dimensionality.
    pub fn probe(&self, query: &[f32], nprobe: usize) -> Vec<Probe> {
        assert_eq!(query.len(), self.dim, "query has wrong dimensionality");
        let nprobe = nprobe.min(self.nlist()).max(1);
        let (n, metric) = (self.centroids.centroids().len(), self.config.metric);
        let mut dist = vec![0.0f32; n.div_ceil(kernel::PANEL_ROWS) * kernel::PANEL_ROWS];
        metric.score_panels(&kernel::kernels(), query, &self.centroid_panels, &mut dist);
        nearest(&dist[..n], nprobe)
    }

    /// Stage 2 — scan over the given lists, returning the top-`k` hits.
    /// Also usable on an arbitrary list subset, which is how the hybrid
    /// runtime scans only CPU-resident (or only GPU-resident) clusters.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the index dimensionality or a
    /// list id is out of range.
    pub fn scan_lists(&self, query: &[f32], lists: &[u32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query has wrong dimensionality");
        let mut top = TopK::new(k);
        let kern = kernel::kernels();
        for &l in lists {
            let InvertedList { ids, data } = &self.lists[l as usize];
            scan_flat(self.config.metric, &kern, query, ids, data, &mut top);
        }
        top.into_sorted()
    }

    /// Detaches every inverted list's payload (ids + vectors), leaving the
    /// lists empty — the handoff that moves list bytes out of the index and
    /// into an external [`ClusterStore`](crate::ClusterStore).
    ///
    /// After detaching, [`IvfIndex::probe`] and the centroids are
    /// unaffected, but [`IvfIndex::scan_lists`] sees empty lists: all
    /// scanning must go through
    /// [`scan_lists_store`](crate::scan_lists_store).
    pub fn take_flat_lists(&mut self) -> Vec<(Vec<u64>, VecSet)> {
        let dim = self.dim;
        self.lists
            .iter_mut()
            .map(|list| {
                let ids = std::mem::take(&mut list.ids);
                (ids, std::mem::replace(&mut list.data, VecSet::new(dim)))
            })
            .collect()
    }

    /// Full search: probe then scan.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the index dimensionality.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        let probes = self.probe(query, nprobe);
        let lists: Vec<u32> = probes.iter().map(|p| p.list).collect();
        self.scan_lists(query, &lists, k)
    }
}

/// The `nprobe` smallest of `dist` (indexed by centroid), closest first:
/// a partial selection then a sort of the prefix, under [`Neighbor`]'s
/// `(distance, id)` total order — the order a `TopK` of `nprobe` keeps and
/// returns, so ties, duplicates and NaN land exactly where a heap
/// admission would put them, without paying one per centroid.
fn nearest(dist: &[f32], nprobe: usize) -> Vec<Probe> {
    let mut keys: Vec<u64> = dist
        .iter()
        .enumerate()
        .map(|(c, &d)| rank_key(d, c as u32))
        .collect();
    if nprobe < keys.len() {
        keys.select_nth_unstable(nprobe);
        keys.truncate(nprobe);
    }
    keys.sort_unstable();
    keys.into_iter().map(probe_of_key).collect()
}

/// `(distance, list)` packed into one `u64` whose integer order is
/// [`Neighbor`]'s `(distance, id)` order: the high half is the bit
/// transform `f32::total_cmp` compares by (made unsigned), the low half
/// the list id. Selecting integers costs half what selecting `Neighbor`s
/// through `total_cmp` does (≈ 1 vs 2 µs over 256 centroids).
fn rank_key(distance: f32, list: u32) -> u64 {
    let bits = distance.to_bits() as i32;
    let ordered = (bits ^ ((((bits >> 31) as u32) >> 1) as i32)) as u32 ^ 0x8000_0000;
    (u64::from(ordered) << 32) | u64::from(list)
}

/// Inverts [`rank_key`], bit for bit (NaN payloads included).
fn probe_of_key(key: u64) -> Probe {
    let ordered = ((key >> 32) as u32 ^ 0x8000_0000) as i32;
    let bits = ordered ^ ((((ordered >> 31) as u32) >> 1) as i32);
    Probe {
        list: key as u32,
        distance: f32::from_bits(bits as u32),
    }
}

/// `centroids` in the panel layout the probe scores.
fn panels_of(centroids: &VecSet) -> Vec<f32> {
    let values = centroids.as_flat().iter().copied();
    kernel::to_panels(centroids.len(), centroids.dim(), values)
}

/// Flat scan of one inverted list: the pair kernel fills a stack buffer
/// [`kernel::MAX_BLOCK`] vectors at a time, [`TopK::offer`] admits.
fn scan_flat(
    metric: Metric,
    kern: &Kernels,
    query: &[f32],
    ids: &[u64],
    vectors: &VecSet,
    top: &mut TopK,
) {
    let mut dist = [0.0f32; kernel::MAX_BLOCK];
    let mut rows = vectors.iter();
    for ids in ids.chunks(kernel::MAX_BLOCK) {
        let dist = &mut dist[..ids.len()];
        for (d, row) in dist.iter_mut().zip(&mut rows) {
            *d = match metric {
                Metric::L2 => (kern.l2_sq)(query, row),
                Metric::InnerProduct => -(kern.dot)(query, row),
            };
        }
        top.offer(ids, dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_data(n: usize, dim: usize, seed: u64) -> VecSet {
        let mut rng = StdRng::seed_from_u64(seed);
        VecSet::from_fn(n, dim, |i, _| {
            let center = (i % 8) as f32 * 4.0;
            center + rng.random::<f32>()
        })
    }

    fn recall_vs_flat(index: &IvfIndex, data: &VecSet, k: usize, nprobe: usize) -> f64 {
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let mut total = 0.0;
        let trials = 20;
        for q in 0..trials {
            let query = data.get(q * 31 % data.len());
            let truth: Vec<u64> = flat.search(query, k).iter().map(|n| n.id).collect();
            let approx = index.search(query, k, nprobe);
            total += approx.iter().filter(|n| truth.contains(&n.id)).count() as f64 / k as f64;
        }
        total / trials as f64
    }

    #[test]
    fn flat_storage_with_full_probe_is_exact() {
        let data = clustered_data(1000, 8, 1);
        let index = IvfIndex::train(&data, &IvfConfig::new(10)).unwrap();
        let recall = recall_vs_flat(&index, &data, 10, 10);
        assert_eq!(recall, 1.0, "probing every list must be exhaustive");
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let data = clustered_data(2000, 8, 2);
        let index = IvfIndex::train(&data, &IvfConfig::new(32)).unwrap();
        let r1 = recall_vs_flat(&index, &data, 10, 1);
        let r8 = recall_vs_flat(&index, &data, 10, 8);
        assert!(r8 >= r1, "r8={r8} r1={r1}");
        assert!(r8 > 0.8, "r8={r8}");
    }

    #[test]
    fn all_vectors_land_in_exactly_one_list() {
        let data = clustered_data(500, 8, 4);
        let index = IvfIndex::train(&data, &IvfConfig::new(8)).unwrap();
        let listed: usize = (0..index.nlist()).map(|l| index.list_len(l)).sum();
        assert_eq!(listed, 500);
        assert_eq!(index.len(), 500);
    }

    #[test]
    fn detaching_the_lists_empties_the_index() {
        let data = clustered_data(500, 8, 5);
        let mut index = IvfIndex::train(&data, &IvfConfig::new(8)).unwrap();
        let detached = index.take_flat_lists();
        assert_eq!(
            detached.iter().map(|(ids, _)| ids.len()).sum::<usize>(),
            500
        );
        assert_eq!(index.len(), 0);
        assert!(index.is_empty());
    }

    #[test]
    fn incremental_add_after_train_empty() {
        let data = clustered_data(600, 8, 6);
        let mut index = IvfIndex::train_empty(&data, &IvfConfig::new(8)).unwrap();
        assert!(index.is_empty());
        let ids: Vec<u64> = (1000..1600).collect();
        index.add(&ids, &data).unwrap();
        assert_eq!(index.len(), 600);
        let hits = index.search(data.get(0), 1, 8);
        assert_eq!(hits[0].id, 1000);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = clustered_data(100, 8, 8);
        let mut index = IvfIndex::train_empty(&data, &IvfConfig::new(4)).unwrap();
        let wrong = VecSet::from_fn(10, 4, |_, _| 0.0);
        assert!(matches!(
            index.add(&[0; 10], &wrong),
            Err(AnnError::DimensionMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn probe_respects_nprobe_clamp() {
        let data = clustered_data(100, 8, 9);
        let index = IvfIndex::train(&data, &IvfConfig::new(4)).unwrap();
        assert_eq!(index.probe(data.get(0), 100).len(), 4);
        assert_eq!(index.probe(data.get(0), 2).len(), 2);
    }

    /// The probe and the flat scan against per-pair loops feeding a
    /// `TopK`: the same `(list, distance)` / `(id, distance)` sequences,
    /// bit for bit, under every metric, with list and centroid counts on
    /// both sides of the 16-row panel group and the 64-entry scan buffer.
    /// The probe's oracle is the panel entries' per-row `mul_add` chain
    /// (the same on every kernel table); the scan's is `Metric::score`.
    #[test]
    fn probe_and_flat_scan_equal_the_per_pair_loops() {
        let data = clustered_data(1500, 24, 11);
        let metrics = [Metric::L2, Metric::InnerProduct];
        // 70 centroids of ~20 vectors, then 3 of ~500.
        for (metric, nlist) in metrics.into_iter().flat_map(|m| [(m, 70u32), (m, 3)]) {
            let cfg = IvfConfig::new(nlist as usize).metric(metric);
            let index = IvfIndex::train(&data, &cfg).unwrap();
            for q in [0usize, 17, 400, 1499] {
                let query = data.get(q);
                for nprobe in [1usize, 2, nlist as usize] {
                    let mut top = TopK::new(nprobe);
                    for (c, centroid) in index.centroids().iter().enumerate() {
                        top.push(c as u64, mul_add_score(metric, query, centroid));
                    }
                    let want: Vec<(u32, u32)> = top
                        .into_sorted()
                        .iter()
                        .map(|n| (n.id as u32, n.distance.to_bits()))
                        .collect();
                    let got: Vec<(u32, u32)> = index
                        .probe(query, nprobe)
                        .iter()
                        .map(|p| (p.list, p.distance.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{metric:?} query {q} nprobe {nprobe}");
                }
                let lists: Vec<u32> = (0..nlist).rev().collect();
                let mut top = TopK::new(10);
                for &l in &lists {
                    let list = &index.lists[l as usize];
                    for (i, v) in list.data.iter().enumerate() {
                        top.push(list.ids[i], metric.score(query, v));
                    }
                }
                let want: Vec<(u64, u32)> = top
                    .into_sorted()
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                let got: Vec<(u64, u32)> = index
                    .scan_lists(query, &lists, 10)
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                assert_eq!(got, want, "{metric:?} query {q}");
            }
        }
    }

    /// The panel entries' per-row oracle under `metric`: one `mul_add`
    /// per dimension, in dimension order, from +0.0; inner product
    /// negates.
    fn mul_add_score(metric: Metric, query: &[f32], row: &[f32]) -> f32 {
        let terms = query.iter().zip(row);
        match metric {
            Metric::L2 => terms.fold(0.0f32, |acc, (&q, &x)| (q - x).mul_add(q - x, acc)),
            Metric::InnerProduct => -terms.fold(0.0f32, |acc, (&q, &x)| q.mul_add(x, acc)),
        }
    }

    /// The probe as it was before partial selection: the centroids'
    /// panel distances offered to a `TopK` of `nprobe`.
    fn probe_by_topk(index: &IvfIndex, query: &[f32], nprobe: usize) -> Vec<(u32, u32)> {
        let (nlist, panels) = (index.centroids().len(), &index.centroid_panels);
        let mut dist = vec![0.0f32; panels.len() / index.dim];
        let metric = index.config.metric;
        metric.score_panels(&kernel::kernels(), query, panels, &mut dist);
        let ids: Vec<u64> = (0..nlist as u64).collect();
        let mut top = TopK::new(nprobe.clamp(1, nlist));
        top.offer(&ids, &dist[..nlist]);
        top.into_sorted()
            .iter()
            .map(|n| (n.id as u32, n.distance.to_bits()))
            .collect()
    }

    /// `rank_key` orders exactly as `Neighbor` does — `total_cmp` on the
    /// distance (both NaN signs, ±0, ±∞, subnormals), then the id — and
    /// `probe_of_key` gives back the very bits it packed.
    #[test]
    fn rank_keys_order_like_neighbors_and_round_trip() {
        let palette = [
            f32::NAN,
            -f32::NAN,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
            1.0,
            -1.0,
            2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        let all: Vec<(f32, u32)> = palette
            .iter()
            .flat_map(|&d| [3u32, 0, u32::MAX].map(|id| (d, id)))
            .collect();
        for &(a, ia) in &all {
            let p = probe_of_key(rank_key(a, ia));
            assert_eq!((p.distance.to_bits(), p.list), (a.to_bits(), ia));
            for &(b, ib) in &all {
                let want = Neighbor::new(u64::from(ia), a).cmp(&Neighbor::new(u64::from(ib), b));
                assert_eq!(
                    rank_key(a, ia).cmp(&rank_key(b, ib)),
                    want,
                    "{a}/{ia} vs {b}/{ib}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Partial selection returns the heap's probe list bit for bit —
        /// same lists, same distances, same order — with centroids drawn
        /// from a small palette so duplicates (exact distance ties broken
        /// by id) are common, at `nprobe` 1, `nlist` and in between, under
        /// every metric.
        #[test]
        fn probe_selection_equals_the_topk_path(
            picks in proptest::prop::collection::vec(0usize..6, 1..90),
            dim in 1usize..20,
            metric_pick in 0usize..2,
            nprobe_pick in 0usize..3,
            mid in 1usize..90,
            phase in -3.0f32..3.0,
        ) {
            let metric = [Metric::L2, Metric::InnerProduct][metric_pick];
            let nlist = picks.len();
            let palette: Vec<Vec<f32>> = (0..6)
                .map(|p| (0..dim).map(|j| ((p * 7 + j) as f32 * 0.61).sin() * 3.0).collect())
                .collect();
            let data = clustered_data(4 * nlist.max(8), dim, 17);
            let mut index = IvfIndex::train(&data, &IvfConfig::new(nlist).metric(metric)).unwrap();
            index.centroids = KMeans::from_centroids(VecSet::from_fn(nlist, dim, |c, j| palette[picks[c]][j]));
            index.centroid_panels = panels_of(index.centroids());
            let query: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.37 + phase).cos()).collect();
            let nprobe = [1, nlist, mid.min(nlist)][nprobe_pick];
            let got: Vec<(u32, u32)> = index
                .probe(&query, nprobe)
                .iter()
                .map(|p| (p.list, p.distance.to_bits()))
                .collect();
            proptest::prop_assert_eq!(got, probe_by_topk(&index, &query, nprobe));
        }
    }
}
