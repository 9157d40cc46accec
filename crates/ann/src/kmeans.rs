//! K-means clustering (Lloyd's algorithm).
//!
//! Trains the IVF coarse centroids (and, in the Fig. 3 harness, one PQ
//! codebook per subspace).
//! Assignment is parallelized over data chunks with scoped threads; centroid
//! updates are sequential (they are O(n·d) and not the bottleneck).

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

use crate::{l2_sq, AnnError, Result, VecSet};

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KMeansInit {
    /// Uniform sample of distinct training points. O(k) — the right choice
    /// for large `k` (IVF coarse training with thousands of lists).
    #[default]
    RandomSample,
    /// k-means++ D² weighting. O(n·k) — better seeds for small `k`
    /// (PQ codebooks with 256 centroids per subspace).
    PlusPlus,
}

/// Configuration for [`KMeans::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Relative improvement in mean quantization error below which training
    /// stops early.
    pub tolerance: f64,
    /// Initialization strategy.
    pub init: KMeansInit,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
    /// Number of worker threads for the assignment step; `1` disables
    /// threading.
    pub threads: usize,
}

impl KMeansConfig {
    /// Creates a config with `k` clusters and defaults suitable for IVF
    /// coarse training (random-sample init, 10 iterations).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 10,
            tolerance: 1e-4,
            init: KMeansInit::RandomSample,
            seed: 0x5eed,
            threads: 4,
        }
    }

    /// Sets the iteration budget.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the initialization strategy.
    pub fn init(mut self, init: KMeansInit) -> Self {
        self.init = init;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the assignment thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be >= 1");
        self.threads = threads;
        self
    }
}

/// A trained k-means model: the centroid set.
///
/// # Examples
///
/// ```
/// use vlite_ann::{KMeans, KMeansConfig, VecSet};
///
/// // Two well-separated blobs on a line.
/// let data = VecSet::from_fn(100, 1, |i, _| if i % 2 == 0 { 0.0 } else { 10.0 });
/// let model = KMeans::train(&data, &KMeansConfig::new(2))?;
/// let a = model.assign_one(&[0.1]);
/// let b = model.assign_one(&[9.9]);
/// assert_ne!(a, b);
/// # Ok::<(), vlite_ann::AnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: VecSet,
}

impl KMeans {
    /// Trains `config.k` centroids on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::InsufficientTrainingData`] if `data` holds fewer
    /// than `k` vectors, and [`AnnError::InvalidConfig`] for `k == 0`.
    pub fn train(data: &VecSet, config: &KMeansConfig) -> Result<KMeans> {
        if config.k == 0 {
            return Err(AnnError::InvalidConfig("k-means requires k >= 1".into()));
        }
        if data.len() < config.k {
            return Err(AnnError::InsufficientTrainingData {
                required: config.k,
                supplied: data.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = match config.init {
            KMeansInit::RandomSample => init_random(data, config.k, &mut rng),
            KMeansInit::PlusPlus => init_plus_plus(data, config.k, &mut rng),
        };

        let mut prev_err = f64::INFINITY;
        let mut assignments = vec![0u32; data.len()];
        for _ in 0..config.max_iters {
            let err = assign_parallel(data, &centroids, &mut assignments, config.threads);
            update_centroids(data, &assignments, &mut centroids, &mut rng);
            if prev_err.is_finite() && (prev_err - err).abs() <= config.tolerance * prev_err {
                break;
            }
            prev_err = err;
        }
        Ok(KMeans { centroids })
    }

    /// Builds a model directly from externally computed centroids.
    pub fn from_centroids(centroids: VecSet) -> KMeans {
        KMeans { centroids }
    }

    /// The trained centroids.
    pub fn centroids(&self) -> &VecSet {
        &self.centroids
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Assigns one vector to its nearest centroid, returning the cluster id.
    pub fn assign_one(&self, v: &[f32]) -> u32 {
        let mut best = 0u32;
        let mut best_d = f32::INFINITY;
        for (c, centroid) in self.centroids.iter().enumerate() {
            let d = l2_sq(v, centroid);
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
        best
    }

    /// Assigns every vector of `data`, returning per-vector cluster ids.
    pub fn assign(&self, data: &VecSet) -> Vec<u32> {
        let mut out = vec![0u32; data.len()];
        assign_parallel(data, &self.centroids, &mut out, 4);
        out
    }

    /// Mean squared quantization error of `data` under this model.
    pub fn quantization_error(&self, data: &VecSet) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for v in data.iter() {
            let c = self.assign_one(v);
            total += f64::from(l2_sq(v, self.centroids.get(c as usize)));
        }
        total / data.len() as f64
    }
}

fn init_random(data: &VecSet, k: usize, rng: &mut StdRng) -> VecSet {
    let picks = sample(rng, data.len(), k);
    let rows: Vec<usize> = picks.into_iter().collect();
    data.select(&rows)
}

fn init_plus_plus(data: &VecSet, k: usize, rng: &mut StdRng) -> VecSet {
    let mut centroids = VecSet::with_capacity(data.dim(), k);
    let first = rng.random_range(0..data.len());
    centroids.push(data.get(first));
    let mut d2: Vec<f32> = data.iter().map(|v| l2_sq(v, centroids.get(0))).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().map(|&d| f64::from(d)).sum();
        let next = if total <= 0.0 {
            rng.random_range(0..data.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= f64::from(d);
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data.get(next));
        let newest = centroids.get(centroids.len() - 1).to_vec();
        for (i, v) in data.iter().enumerate() {
            let d = l2_sq(v, &newest);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// Assigns each vector to its nearest centroid; returns the mean squared
/// error. Parallel over contiguous chunks.
fn assign_parallel(
    data: &VecSet,
    centroids: &VecSet,
    assignments: &mut [u32],
    threads: usize,
) -> f64 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let threads = threads.max(1).min(n);
    let chunk = n.div_ceil(threads);
    let mut chunk_errs = vec![0.0f64; threads];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, (slice, err)) in assignments
            .chunks_mut(chunk)
            .zip(chunk_errs.iter_mut())
            .enumerate()
        {
            let start = t * chunk;
            handles.push(scope.spawn(move || {
                let mut local_err = 0.0f64;
                for (offset, out) in slice.iter_mut().enumerate() {
                    let v = data.get(start + offset);
                    let mut best = 0u32;
                    let mut best_d = f32::INFINITY;
                    for (c, centroid) in centroids.iter().enumerate() {
                        let d = l2_sq(v, centroid);
                        if d < best_d {
                            best_d = d;
                            best = c as u32;
                        }
                    }
                    *out = best;
                    local_err += f64::from(best_d);
                }
                *err = local_err;
            }));
        }
        for h in handles {
            h.join().expect("k-means worker panicked");
        }
    });
    chunk_errs.iter().sum::<f64>() / n as f64
}

/// Recomputes centroids as assignment means; re-seeds empty clusters from
/// random points of the largest cluster (Faiss's `split` repair policy).
fn update_centroids(data: &VecSet, assignments: &[u32], centroids: &mut VecSet, rng: &mut StdRng) {
    let k = centroids.len();
    let dim = data.dim();
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (i, v) in data.iter().enumerate() {
        let c = assignments[i] as usize;
        counts[c] += 1;
        for (j, &x) in v.iter().enumerate() {
            sums[c * dim + j] += f64::from(x);
        }
    }
    let largest = (0..k).max_by_key(|&c| counts[c]).unwrap_or(0);
    for c in 0..k {
        if counts[c] == 0 {
            // Empty cluster: re-seed from a random member of the largest one,
            // nudged so the two copies diverge next iteration.
            let members: Vec<usize> = (0..data.len())
                .filter(|&i| assignments[i] as usize == largest)
                .collect();
            if let Some(&pick) = members.get(rng.random_range(0..members.len().max(1))) {
                let src = data.get(pick).to_vec();
                let dst = centroids.get_mut(c);
                for (j, x) in src.iter().enumerate() {
                    dst[j] = x * (1.0 + 1e-4) + 1e-6;
                }
            }
            continue;
        }
        let dst = centroids.get_mut(c);
        for j in 0..dim {
            dst[j] = (sums[c * dim + j] / counts[c] as f64) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n_per: usize, centers: &[[f32; 2]], seed: u64) -> VecSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = VecSet::new(2);
        for c in centers {
            for _ in 0..n_per {
                set.push(&[
                    c[0] + rng.random::<f32>() * 0.1,
                    c[1] + rng.random::<f32>() * 0.1,
                ]);
            }
        }
        set
    }

    #[test]
    fn separates_well_separated_blobs() {
        let data = blobs(50, &[[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]], 1);
        // k-means++ seeding makes separation of well-spread blobs reliable;
        // random-sample init can land two seeds in one blob and stall in a
        // local optimum (which is expected Lloyd behaviour, not a bug).
        let cfg = KMeansConfig::new(3)
            .max_iters(20)
            .init(KMeansInit::PlusPlus);
        let model = KMeans::train(&data, &cfg).unwrap();
        // Every blob maps to a single distinct cluster.
        let a = model.assign_one(&[0.05, 0.05]);
        let b = model.assign_one(&[10.0, 10.0]);
        let c = model.assign_one(&[-10.0, 5.0]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        assert!(model.quantization_error(&data) < 0.1);
    }

    #[test]
    fn plus_plus_init_also_converges() {
        let data = blobs(50, &[[0.0, 0.0], [10.0, 10.0]], 2);
        let cfg = KMeansConfig::new(2)
            .init(KMeansInit::PlusPlus)
            .max_iters(20);
        let model = KMeans::train(&data, &cfg).unwrap();
        assert!(model.quantization_error(&data) < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(30, &[[0.0, 0.0], [5.0, 5.0]], 3);
        let m1 = KMeans::train(&data, &KMeansConfig::new(2).seed(7)).unwrap();
        let m2 = KMeans::train(&data, &KMeansConfig::new(2).seed(7)).unwrap();
        assert_eq!(m1.centroids().as_flat(), m2.centroids().as_flat());
    }

    #[test]
    fn error_decreases_with_more_clusters() {
        let data = blobs(40, &[[0.0, 0.0], [4.0, 0.0], [8.0, 0.0], [12.0, 0.0]], 4);
        let e2 = KMeans::train(&data, &KMeansConfig::new(2).max_iters(15))
            .unwrap()
            .quantization_error(&data);
        let e4 = KMeans::train(&data, &KMeansConfig::new(4).max_iters(15))
            .unwrap()
            .quantization_error(&data);
        assert!(e4 < e2, "e4={e4} should be < e2={e2}");
    }

    #[test]
    fn too_few_points_is_an_error() {
        let data = blobs(1, &[[0.0, 0.0]], 4);
        let err = KMeans::train(&data, &KMeansConfig::new(5)).unwrap_err();
        assert!(matches!(
            err,
            AnnError::InsufficientTrainingData { required: 5, .. }
        ));
    }

    #[test]
    fn k_zero_is_invalid_config() {
        let data = blobs(5, &[[0.0, 0.0]], 5);
        assert!(matches!(
            KMeans::train(&data, &KMeansConfig::new(0)),
            Err(AnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn assign_matches_assign_one() {
        let data = blobs(20, &[[0.0, 0.0], [8.0, 8.0]], 6);
        let model = KMeans::train(&data, &KMeansConfig::new(2)).unwrap();
        let bulk = model.assign(&data);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(bulk[i], model.assign_one(v));
        }
    }

    #[test]
    fn single_thread_equals_multi_thread() {
        let data = blobs(64, &[[0.0, 0.0], [9.0, 1.0]], 8);
        let m1 = KMeans::train(&data, &KMeansConfig::new(2).threads(1)).unwrap();
        let m8 = KMeans::train(&data, &KMeansConfig::new(2).threads(8)).unwrap();
        // Same seed, same init, same deterministic assignment → identical model.
        assert_eq!(m1.centroids().as_flat(), m8.centroids().as_flat());
    }
}
