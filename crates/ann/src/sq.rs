//! Scalar quantization (`f32 → u8`).
//!
//! The paper mentions scalar quantization (SQ) as the simple alternative to
//! PQ: each element is independently mapped to an 8-bit integer over a
//! per-dimension [min, max] range. It offers 4× compression (vs PQ's
//! typically 32–64×) but trivial encode/decode cost.

use crate::kernel::Kernels;
use crate::{AnnError, Metric, Result, VecSet};

/// A trained per-dimension scalar quantizer.
///
/// # Examples
///
/// ```
/// use vlite_ann::{ScalarQuantizer, VecSet};
///
/// let data = VecSet::from_fn(100, 4, |i, j| (i + j) as f32);
/// let sq = ScalarQuantizer::train(&data)?;
/// let codes = sq.encode(data.get(50));
/// let rec = sq.decode(&codes);
/// for (orig, r) in data.get(50).iter().zip(&rec) {
///     assert!((orig - r).abs() <= sq.step_size() / 2.0 + 1e-3);
/// }
/// # Ok::<(), vlite_ann::AnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarQuantizer {
    mins: Vec<f32>,
    scales: Vec<f32>,
}

impl ScalarQuantizer {
    /// Learns per-dimension ranges from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::InsufficientTrainingData`] if `data` is empty.
    pub fn train(data: &VecSet) -> Result<ScalarQuantizer> {
        if data.is_empty() {
            return Err(AnnError::InsufficientTrainingData {
                required: 1,
                supplied: 0,
            });
        }
        let dim = data.dim();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for v in data.iter() {
            for j in 0..dim {
                mins[j] = mins[j].min(v[j]);
                maxs[j] = maxs[j].max(v[j]);
            }
        }
        let scales = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| {
                let range = hi - lo;
                if range > 0.0 {
                    range / 255.0
                } else {
                    1.0 // constant dimension: any scale round-trips to lo
                }
            })
            .collect();
        Ok(ScalarQuantizer { mins, scales })
    }

    /// Reconstructs a quantizer from serialized per-dimension parameters —
    /// the deserialization path of persisted SQ8 payloads.
    ///
    /// # Panics
    ///
    /// Panics if the parameter vectors differ in length, are empty, or any
    /// parameter is non-finite (a scale must additionally be positive).
    pub fn from_params(mins: Vec<f32>, scales: Vec<f32>) -> ScalarQuantizer {
        assert_eq!(mins.len(), scales.len(), "mins/scales length mismatch");
        assert!(!mins.is_empty(), "quantizer must cover at least one dim");
        assert!(
            mins.iter().all(|m| m.is_finite()),
            "quantizer mins must be finite"
        );
        assert!(
            scales.iter().all(|s| s.is_finite() && *s > 0.0),
            "quantizer scales must be finite and positive"
        );
        ScalarQuantizer { mins, scales }
    }

    /// Per-dimension minimums (the decode offsets).
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dimension step sizes (the decode scales).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dimensionality this quantizer encodes.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }

    /// The largest per-dimension quantization step.
    pub fn step_size(&self) -> f32 {
        self.scales.iter().copied().fold(0.0, f32::max)
    }

    /// Encodes one vector to `dim` bytes, clamping out-of-range values.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut codes = vec![0u8; self.dim()];
        self.encode_into(v, &mut codes);
        codes
    }

    /// [`ScalarQuantizer::encode`] into a caller-owned row buffer — the
    /// bulk path (a segment write encodes every vector through one
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or `out.len() != dim`.
    pub fn encode_into(&self, v: &[f32], out: &mut [u8]) {
        assert_eq!(v.len(), self.dim(), "encode: wrong dimensionality");
        assert_eq!(out.len(), self.dim(), "encode: wrong code length");
        for (j, (code, &x)) in out.iter_mut().zip(v).enumerate() {
            let q = (x - self.mins[j]) / self.scales[j];
            *code = q.round().clamp(0.0, 255.0) as u8;
        }
    }

    /// Decodes `codes` back to approximate floats.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != dim`.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.dim(), "decode: wrong code length");
        codes
            .iter()
            .enumerate()
            .map(|(j, &c)| self.mins[j] + f32::from(c) * self.scales[j])
            .collect()
    }

    /// Folds this quantizer into `query` once, so code rows can then be
    /// scored directly — no decode buffer, no lookup table, the query
    /// stays f32. Under L2 the fold is `a = query − mins`, leaving
    /// `Σ (a − c·scale)²` per row; under inner product it is
    /// `w = query · scales` and `bias = Σ query·mins`, leaving
    /// `−(bias + Σ w·c)`.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim`.
    pub fn fold_query(&self, metric: Metric, query: &[f32]) -> Sq8Query<'_> {
        assert_eq!(query.len(), self.dim(), "fold_query: wrong dimensionality");
        let (folded, bias) = match metric {
            Metric::L2 => (
                query.iter().zip(&self.mins).map(|(q, m)| q - m).collect(),
                0.0,
            ),
            Metric::InnerProduct => (
                query.iter().zip(&self.scales).map(|(q, s)| q * s).collect(),
                query.iter().zip(&self.mins).map(|(q, m)| q * m).sum(),
            ),
        };
        Sq8Query {
            metric,
            folded,
            scales: &self.scales,
            bias,
        }
    }
}

/// A query with a [`ScalarQuantizer`] folded in
/// ([`ScalarQuantizer::fold_query`]): `dim` floats that score SQ8 code
/// rows through the kernel table's SQ8 block entries — to code rows what
/// [`Metric::score_panels`] is to f32 panels.
#[derive(Debug, Clone)]
pub struct Sq8Query<'a> {
    metric: Metric,
    /// L2: `query − mins`. Inner product: `query · scales`.
    folded: Vec<f32>,
    scales: &'a [f32],
    /// Inner product's code-independent share, `Σ query·mins`.
    bias: f32,
}

impl Sq8Query<'_> {
    /// Scores the `out.len()` row-major code rows of `codes`
    /// ("smaller is closer", like [`Metric::score`] on the decoded
    /// vectors). `out[i]` is bit-identical to scoring row `i` alone
    /// through the same `kern`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out.len() * dim`.
    pub fn score_block(&self, kern: &Kernels, codes: &[u8], out: &mut [f32]) {
        match self.metric {
            Metric::L2 => (kern.sq8_l2_block)(&self.folded, self.scales, codes, out),
            Metric::InnerProduct => {
                (kern.sq8_dot_block)(&self.folded, codes, out);
                for d in out.iter_mut() {
                    *d = -(self.bias + *d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = VecSet::from_fn(500, 8, |_, _| rng.random::<f32>() * 10.0 - 5.0);
        let sq = ScalarQuantizer::train(&data).unwrap();
        for v in data.iter() {
            let rec = sq.decode(&sq.encode(v));
            for (x, r) in v.iter().zip(&rec) {
                assert!((x - r).abs() <= sq.step_size() / 2.0 + 1e-4);
            }
        }
    }

    #[test]
    fn constant_dimension_round_trips_exactly() {
        let data = VecSet::from_fn(10, 2, |i, j| if j == 0 { 7.5 } else { i as f32 });
        let sq = ScalarQuantizer::train(&data).unwrap();
        let rec = sq.decode(&sq.encode(&[7.5, 3.0]));
        assert_eq!(rec[0], 7.5);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let data = VecSet::from_fn(10, 1, |i, _| i as f32); // range [0, 9]
        let sq = ScalarQuantizer::train(&data).unwrap();
        assert_eq!(sq.encode(&[-100.0])[0], 0);
        assert_eq!(sq.encode(&[100.0])[0], 255);
    }

    #[test]
    fn empty_training_set_rejected() {
        let data = VecSet::new(4);
        assert!(matches!(
            ScalarQuantizer::train(&data),
            Err(AnnError::InsufficientTrainingData { .. })
        ));
    }
}
