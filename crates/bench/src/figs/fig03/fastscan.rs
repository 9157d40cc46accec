//! Register-blocked PQ scanning ("fast scan").
//!
//! Faiss's IVF-PQ fast-scan (André et al., VLDB 2016) reorganizes PQ codes
//! into fixed-size blocks, transposed subquantizer-major, and quantizes the
//! f32 lookup table to 8 bits so an entire block's partial distances fit in
//! SIMD registers. This module reproduces that *structure* in safe Rust:
//!
//! - codes are stored in blocks of [`FAST_SCAN_BLOCK`] vectors, contiguous
//!   per subquantizer, so the scan inner loop streams both the code bytes
//!   and one LUT row linearly;
//! - the f32 LUT is quantized to `u8` with a shared scale and per-table
//!   bias, accumulated in `u32`.
//!
//! The compiler auto-vectorizes the branch-free inner loop, capturing the
//! memory-layout advantage that makes fast scan outrun classic IVF-PQ
//! (paper Fig. 3 left) without hand-written intrinsics.

use vlite_ann::TopK;

use super::pq::Lut;

/// Number of vectors per fast-scan block.
pub const FAST_SCAN_BLOCK: usize = 32;

/// An 8-bit quantized lookup table.
///
/// The approximate distance of a code is
/// `bias + scale · Σ_j table8[j][code_j]`, with per-entry rounding error at
/// most `scale / 2`.
#[derive(Debug, Clone)]
pub struct QuantizedLut {
    m: usize,
    ksub: usize,
    table: Vec<u8>,
    /// Multiplier from integer accumulator to f32 distance.
    pub scale: f32,
    /// Additive offset (sum of per-subquantizer minima).
    pub bias: f32,
}

impl QuantizedLut {
    /// Quantizes a full-precision LUT.
    pub fn from_lut(lut: &Lut) -> QuantizedLut {
        let (m, ksub) = (lut.m(), lut.ksub());
        let table = lut.table();
        let mut mins = vec![f32::INFINITY; m];
        let mut spread_max = 0.0f32;
        for j in 0..m {
            let row = &table[j * ksub..(j + 1) * ksub];
            let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
            mins[j] = lo;
            let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            spread_max = spread_max.max(hi - lo);
        }
        let bias: f32 = mins.iter().sum();
        let scale = if spread_max > 0.0 {
            spread_max / 255.0
        } else {
            1.0
        };
        let mut q = Vec::with_capacity(m * ksub);
        for j in 0..m {
            for c in 0..ksub {
                let v = (table[j * ksub + c] - mins[j]) / scale;
                q.push(v.round().clamp(0.0, 255.0) as u8);
            }
        }
        QuantizedLut {
            m,
            ksub,
            table: q,
            scale,
            bias,
        }
    }

    /// Number of subquantizers.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Worst-case absolute error versus the full-precision LUT distance.
    #[cfg(test)]
    pub fn max_error(&self) -> f32 {
        self.m as f32 * self.scale / 2.0
    }

    #[inline]
    fn row(&self, j: usize) -> &[u8] {
        &self.table[j * self.ksub..(j + 1) * self.ksub]
    }
}

/// PQ codes for one inverted list, laid out in fast-scan blocks.
#[derive(Debug, Clone)]
pub struct FastScanList {
    m: usize,
    len: usize,
    ids: Vec<u64>,
    /// Blocked codes: for each block `b` and subquantizer `j`, the 32 code
    /// bytes of the block's vectors, zero-padded in the final block.
    blocks: Vec<u8>,
}

impl FastScanList {
    /// Builds the blocked layout from row-major codes (`len × m`) and ids.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != ids.len() * m`.
    pub fn build(codes: &[u8], m: usize, ids: &[u64]) -> FastScanList {
        assert_eq!(codes.len(), ids.len() * m, "codes/ids length mismatch");
        let len = ids.len();
        let nblocks = len.div_ceil(FAST_SCAN_BLOCK);
        let mut blocks = vec![0u8; nblocks * m * FAST_SCAN_BLOCK];
        for (i, code) in codes.chunks_exact(m).enumerate() {
            let b = i / FAST_SCAN_BLOCK;
            let lane = i % FAST_SCAN_BLOCK;
            for (j, &c) in code.iter().enumerate() {
                blocks[(b * m + j) * FAST_SCAN_BLOCK + lane] = c;
            }
        }
        FastScanList {
            m,
            len,
            ids: ids.to_vec(),
            blocks,
        }
    }

    /// Scans the whole list against a quantized LUT, offering every vector
    /// to `top`. Returns the number of distance computations performed.
    pub fn scan(&self, lut: &QuantizedLut, top: &mut TopK) -> usize {
        debug_assert_eq!(lut.m(), self.m);
        let nblocks = self.len.div_ceil(FAST_SCAN_BLOCK);
        let mut acc = [0u32; FAST_SCAN_BLOCK];
        let mut dist = [0.0f32; FAST_SCAN_BLOCK];
        for b in 0..nblocks {
            acc.fill(0);
            for j in 0..self.m {
                let row = lut.row(j);
                let codes = &self.blocks[(b * self.m + j) * FAST_SCAN_BLOCK..][..FAST_SCAN_BLOCK];
                for lane in 0..FAST_SCAN_BLOCK {
                    // Branch-free gather; auto-vectorizes on x86-64.
                    acc[lane] += u32::from(row[codes[lane] as usize]);
                }
            }
            for (d, &sum) in dist.iter_mut().zip(&acc) {
                *d = lut.bias + lut.scale * sum as f32;
            }
            let base = b * FAST_SCAN_BLOCK;
            let lanes = FAST_SCAN_BLOCK.min(self.len - base);
            top.offer(&self.ids[base..base + lanes], &dist[..lanes]);
        }
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::super::pq::{PqConfig, ProductQuantizer};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vlite_ann::VecSet;

    fn setup(n: usize) -> (VecSet, ProductQuantizer, FastScanList) {
        let mut rng = StdRng::seed_from_u64(11);
        // Train on a fixed-size corpus; the list under test holds its first
        // `n` rows (so tiny lists still get well-trained codebooks).
        let data = VecSet::from_fn(n.max(320), 8, |_, _| rng.random::<f32>());
        let cfg = PqConfig {
            m: 4,
            ksub: 16,
            train_iters: 6,
            seed: 5,
        };
        let pq = ProductQuantizer::train(&data, &cfg).unwrap();
        let subset = data.select(&(0..n).collect::<Vec<_>>());
        let ids: Vec<u64> = (0..n as u64).collect();
        let codes: Vec<u8> = subset.iter().flat_map(|v| pq.encode(v)).collect();
        let list = FastScanList::build(&codes, pq.m(), &ids);
        (data, pq, list)
    }

    #[test]
    fn quantized_scan_matches_exact_lut_within_bound() {
        let (data, pq, list) = setup(100);
        let lut = pq.lut(data.get(3));
        let qlut = QuantizedLut::from_lut(&lut);
        let mut top = TopK::new(100);
        list.scan(&qlut, &mut top);
        let results = top.into_sorted();
        assert_eq!(results.len(), 100);
        for n in &results {
            let exact = lut.distance(&pq.encode(data.get(n.id as usize)));
            assert!(
                (n.distance - exact).abs() <= qlut.max_error() + 1e-4,
                "id={} approx={} exact={} bound={}",
                n.id,
                n.distance,
                exact,
                qlut.max_error()
            );
        }
    }

    #[test]
    fn non_multiple_of_block_size_handled() {
        for n in [1, 31, 32, 33, 63, 65] {
            let (_, pq, list) = setup(n);
            let query: Vec<f32> = vec![0.5; 8];
            let qlut = QuantizedLut::from_lut(&pq.lut(&query));
            let mut top = TopK::new(n);
            let scanned = list.scan(&qlut, &mut top);
            assert_eq!(scanned, n);
            assert_eq!(
                top.into_sorted().len(),
                n,
                "padding lanes must not leak ids (n={n})"
            );
        }
    }

    #[test]
    fn top1_recall_is_high_despite_quantization() {
        let (data, pq, list) = setup(320);
        let mut hits = 0;
        for q in (0..320).step_by(16) {
            let lut = pq.lut(data.get(q));
            // Exact-LUT top-1.
            let mut exact_best = (0u64, f32::INFINITY);
            for i in 0..data.len() {
                let d = lut.distance(&pq.encode(data.get(i)));
                if d < exact_best.1 {
                    exact_best = (i as u64, d);
                }
            }
            let qlut = QuantizedLut::from_lut(&lut);
            let mut top = TopK::new(4);
            list.scan(&qlut, &mut top);
            if top.into_sorted().iter().any(|n| n.id == exact_best.0) {
                hits += 1;
            }
        }
        assert!(
            hits >= 18,
            "8-bit LUT quantization lost too much: {hits}/20"
        );
    }

    #[test]
    fn empty_list_scans_nothing() {
        let (_, pq, _) = setup(64);
        let list = FastScanList::build(&[], pq.m(), &[]);
        let qlut = QuantizedLut::from_lut(&pq.lut(&[0.0; 8]));
        let mut top = TopK::new(3);
        assert_eq!(list.scan(&qlut, &mut top), 0);
        assert!(top.is_empty());
    }
}
