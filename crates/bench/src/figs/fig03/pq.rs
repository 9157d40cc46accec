//! Product quantization (PQ) with asymmetric-distance lookup tables.
//!
//! PQ (Jégou et al., TPAMI 2011) splits each `d`-dimensional vector into `m`
//! subvectors of `d/m` dimensions and quantizes each subvector against a
//! 256-entry codebook, compressing a vector to `m` bytes. At query time a
//! lookup table (LUT) of partial distances between the query's subvectors
//! and every codeword is precomputed; a database vector's approximate
//! distance is the sum of `m` table lookups — the "LUT construction" and
//! "LUT scan" stages whose cost dominates IVF search latency (paper Fig. 3).

use vlite_ann::{l2_sq, AnnError, KMeans, KMeansConfig, KMeansInit, Result, VecSet};

/// Configuration for [`ProductQuantizer::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct PqConfig {
    /// Number of subquantizers `m` (codes per vector). Must divide the
    /// vector dimensionality.
    pub m: usize,
    /// Codebook size per subquantizer; fixed to ≤ 256 so codes fit in one
    /// byte (the paper's indexes use 8-bit PQ).
    pub ksub: usize,
    /// k-means iterations per codebook.
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

#[cfg(test)]
impl PqConfig {
    /// Creates a config with `m` subquantizers and 256-entry codebooks.
    pub fn new(m: usize) -> Self {
        Self {
            m,
            ksub: 256,
            train_iters: 8,
            seed: 0x009a_5eed,
        }
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    dsub: usize,
    ksub: usize,
    /// `m` codebooks, each `ksub × dsub`.
    codebooks: Vec<VecSet>,
}

/// A query's table of partial distances: `m × ksub` entries.
#[derive(Debug, Clone)]
pub struct Lut {
    m: usize,
    ksub: usize,
    table: Vec<f32>,
}

impl Lut {
    /// Number of subquantizers.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codebook size per subquantizer.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Raw table, row-major `m × ksub`.
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Asymmetric distance of an encoded vector: the sum of one lookup per
    /// subquantizer.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `codes.len() != m`.
    #[inline]
    pub fn distance(&self, codes: &[u8]) -> f32 {
        debug_assert_eq!(codes.len(), self.m);
        let mut sum = 0.0f32;
        for (j, &code) in codes.iter().enumerate() {
            sum += self.table[j * self.ksub + code as usize];
        }
        sum
    }
}

impl ProductQuantizer {
    /// Trains `config.m` codebooks on `data` by running k-means in each
    /// subspace.
    ///
    /// # Errors
    ///
    /// - [`AnnError::InvalidConfig`] if `m` does not divide the
    ///   dimensionality, `m == 0`, or `ksub` is 0 or exceeds 256.
    /// - [`AnnError::InsufficientTrainingData`] if fewer than `ksub`
    ///   training vectors are supplied.
    pub fn train(data: &VecSet, config: &PqConfig) -> Result<ProductQuantizer> {
        let dim = data.dim();
        if config.m == 0 || !dim.is_multiple_of(config.m) {
            return Err(AnnError::InvalidConfig(format!(
                "m={} must be positive and divide dim={dim}",
                config.m
            )));
        }
        if config.ksub == 0 || config.ksub > 256 {
            return Err(AnnError::InvalidConfig(format!(
                "ksub={} must be in 1..=256 so codes fit in a byte",
                config.ksub
            )));
        }
        if data.len() < config.ksub {
            return Err(AnnError::InsufficientTrainingData {
                required: config.ksub,
                supplied: data.len(),
            });
        }
        let dsub = dim / config.m;
        let mut codebooks = Vec::with_capacity(config.m);
        for j in 0..config.m {
            // Slice out subspace j of every training vector.
            let sub = VecSet::from_fn(data.len(), dsub, |i, col| data.get(i)[j * dsub + col]);
            let cfg = KMeansConfig {
                k: config.ksub,
                max_iters: config.train_iters,
                tolerance: 1e-5,
                init: KMeansInit::PlusPlus,
                seed: config.seed.wrapping_add(j as u64),
                threads: 4,
            };
            let model = KMeans::train(&sub, &cfg)?;
            codebooks.push(model.centroids().clone());
        }
        Ok(ProductQuantizer {
            dim,
            m: config.m,
            dsub,
            ksub: config.ksub,
            codebooks,
        })
    }

    /// Number of subquantizers (= bytes per code).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Encodes one vector into `m` codebook indices.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "encode: wrong dimensionality");
        let mut codes = Vec::with_capacity(self.m);
        for j in 0..self.m {
            let sub = &v[j * self.dsub..(j + 1) * self.dsub];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, word) in self.codebooks[j].iter().enumerate() {
                let d = l2_sq(sub, word);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            codes.push(best as u8);
        }
        codes
    }

    /// Reconstructs the vector represented by `codes`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != m`.
    #[cfg(test)]
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.m, "decode: wrong code length");
        let mut out = Vec::with_capacity(self.dim);
        for (j, &code) in codes.iter().enumerate() {
            out.extend_from_slice(self.codebooks[j].get(code as usize));
        }
        out
    }

    /// Builds the asymmetric-distance lookup table for `query` — the "LUT
    /// construction" stage of the paper's latency breakdown.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn lut(&self, query: &[f32]) -> Lut {
        assert_eq!(query.len(), self.dim, "lut: wrong dimensionality");
        let mut table = Vec::with_capacity(self.m * self.ksub);
        for j in 0..self.m {
            let sub = &query[j * self.dsub..(j + 1) * self.dsub];
            for word in self.codebooks[j].iter() {
                table.push(l2_sq(sub, word));
            }
        }
        Lut {
            m: self.m,
            ksub: self.ksub,
            table,
        }
    }

    /// Mean squared reconstruction error over `data`.
    #[cfg(test)]
    pub fn reconstruction_error(&self, data: &VecSet) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for v in data.iter() {
            let rec = self.decode(&self.encode(v));
            total += f64::from(l2_sq(v, &rec));
        }
        total / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(n: usize, dim: usize, seed: u64) -> VecSet {
        let mut rng = StdRng::seed_from_u64(seed);
        VecSet::from_fn(n, dim, |_, _| rng.random::<f32>())
    }

    fn small_pq(data: &VecSet, m: usize) -> ProductQuantizer {
        let cfg = PqConfig {
            m,
            ksub: 16,
            train_iters: 6,
            seed: 42,
        };
        ProductQuantizer::train(data, &cfg).unwrap()
    }

    #[test]
    fn encode_decode_reduces_error_vs_zero_baseline() {
        let data = random_data(600, 8, 1);
        let pq = small_pq(&data, 4);
        let err = pq.reconstruction_error(&data);
        // Zero vector baseline error for U[0,1)^8 data is d * E[x²] ≈ 8/3.
        assert!(
            err < 8.0 / 3.0 * 0.5,
            "PQ must beat half the trivial baseline, err={err}"
        );
    }

    #[test]
    fn lut_distance_equals_decoded_distance() {
        let data = random_data(400, 8, 2);
        let pq = small_pq(&data, 4);
        let query = data.get(7);
        let lut = pq.lut(query);
        for i in (0..data.len()).step_by(37) {
            let codes = pq.encode(data.get(i));
            let adc = lut.distance(&codes);
            let decoded = pq.decode(&codes);
            let direct = l2_sq(query, &decoded);
            // ADC computes the same quantity as distance-to-reconstruction
            // only when subspace cross-terms vanish; for L2 they do exactly.
            assert!((adc - direct).abs() < 1e-3, "adc={adc} direct={direct}");
        }
    }

    #[test]
    fn more_subquantizers_reduce_error() {
        let data = random_data(800, 16, 3);
        let e2 = small_pq(&data, 2).reconstruction_error(&data);
        let e8 = small_pq(&data, 8).reconstruction_error(&data);
        assert!(e8 < e2, "m=8 ({e8}) must beat m=2 ({e2})");
    }

    #[test]
    fn invalid_m_rejected() {
        let data = random_data(100, 10, 4);
        let err = ProductQuantizer::train(&data, &PqConfig::new(3)).unwrap_err();
        assert!(matches!(err, AnnError::InvalidConfig(_)));
    }

    #[test]
    fn oversized_ksub_rejected() {
        let data = random_data(100, 8, 5);
        let cfg = PqConfig {
            ksub: 300,
            ..PqConfig::new(4)
        };
        assert!(matches!(
            ProductQuantizer::train(&data, &cfg),
            Err(AnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn too_little_training_data_rejected() {
        let data = random_data(10, 8, 6);
        let cfg = PqConfig {
            ksub: 16,
            ..PqConfig::new(4)
        };
        assert!(matches!(
            ProductQuantizer::train(&data, &cfg),
            Err(AnnError::InsufficientTrainingData { .. })
        ));
    }
}
