//! Fig. 3 — IVF vs IVF-FastScan latency; IVF-FS stage breakdown.
//!
//! Left panel (real tier): one IVF-PQ index holding every list twice, as
//! row-major PQ codes (classic scan) and in the register-blocked fast-scan
//! layout, timed at batch sizes 4 and 16. Right panel: the LUT-dominated
//! breakdown (CQ / LUT construction / LUT scan) measured on the fast-scan
//! layout at batches 2 and 8, plus the modeled 128M-vector breakdown.
//!
//! The PQ and fast-scan codecs are private to this figure: the serving
//! runtime stores lists flat (hot) or as SQ8 (cold), so only this harness
//! builds PQ codes. A flat [`IvfIndex`] is the coarse quantizer and hands
//! its lists over through [`IvfIndex::take_flat_lists`].

mod fastscan;
mod pq;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use vlite_ann::{IvfConfig, IvfIndex, Neighbor, TopK, VecSet};
use vlite_core::SearchCostModel;
use vlite_metrics::Table;
use vlite_sim::devices;
use vlite_workload::{CorpusConfig, DatasetPreset, SyntheticCorpus};

use fastscan::{FastScanList, QuantizedLut};
use pq::{Lut, PqConfig, ProductQuantizer};

use crate::{banner, write_csv};

/// How [`IvfPq::search`] scans the probed lists.
#[derive(Debug, Clone, Copy)]
enum Scan {
    /// One f32 LUT lookup per code byte (classic IVF-PQ).
    Classic,
    /// The blocked layout against the 8-bit LUT (IVF-PQ fast scan).
    FastScan,
}

/// IVF-PQ: a flat coarse quantizer whose lists are PQ-encoded twice.
struct IvfPq {
    coarse: IvfIndex,
    pq: ProductQuantizer,
    /// Per list: ids and row-major `len × m` codes.
    codes: Vec<(Vec<u64>, Vec<u8>)>,
    /// Per list: the same codes in fast-scan blocks.
    blocked: Vec<FastScanList>,
}

impl IvfPq {
    fn train(data: &VecSet, nlist: usize, pq_cfg: &PqConfig) -> vlite_ann::Result<IvfPq> {
        let config = IvfConfig::new(nlist);
        let mut coarse = IvfIndex::train(data, &config)?;
        // The codebooks train on a sample as large as the centroids' one.
        let pq = if data.len() > config.max_train_points {
            let mut rng = StdRng::seed_from_u64(pq_cfg.seed);
            let rows = sample(&mut rng, data.len(), config.max_train_points).into_vec();
            ProductQuantizer::train(&data.select(&rows), pq_cfg)?
        } else {
            ProductQuantizer::train(data, pq_cfg)?
        };
        let (mut codes, mut blocked) = (Vec::new(), Vec::new());
        for (ids, vectors) in coarse.take_flat_lists() {
            let list: Vec<u8> = vectors.iter().flat_map(|v| pq.encode(v)).collect();
            blocked.push(FastScanList::build(&list, pq.m(), &ids));
            codes.push((ids, list));
        }
        Ok(IvfPq {
            coarse,
            pq,
            codes,
            blocked,
        })
    }

    fn probe(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let probes = self.coarse.probe(query, nprobe);
        probes.iter().map(|p| p.list).collect()
    }

    fn scan_classic(&self, lut: &Lut, lists: &[u32], k: usize) -> Vec<Neighbor> {
        let mut top = TopK::new(k);
        for &l in lists {
            let (ids, codes) = &self.codes[l as usize];
            for (&id, code) in ids.iter().zip(codes.chunks_exact(self.pq.m())) {
                top.push(id, lut.distance(code));
            }
        }
        top.into_sorted()
    }

    fn scan_fast(&self, qlut: &QuantizedLut, lists: &[u32], k: usize) -> Vec<Neighbor> {
        let mut top = TopK::new(k);
        for &l in lists {
            self.blocked[l as usize].scan(qlut, &mut top);
        }
        top.into_sorted()
    }

    /// Probe → LUT → scan.
    fn search(&self, scan: Scan, query: &[f32], k: usize, nprobe: usize) -> Vec<Neighbor> {
        let lists = self.probe(query, nprobe);
        let lut = self.pq.lut(query);
        match scan {
            Scan::Classic => self.scan_classic(&lut, &lists, k),
            Scan::FastScan => self.scan_fast(&QuantizedLut::from_lut(&lut), &lists, k),
        }
    }
}

fn time_search(index: &IvfPq, scan: Scan, queries: &VecSet, batch: usize, nprobe: usize) -> f64 {
    let reps = 6;
    let mut total = 0.0;
    for rep in 0..reps {
        let t0 = Instant::now();
        for i in 0..batch {
            let q = queries.get((rep * batch + i) % queries.len());
            let _ = index.search(scan, q, 10, nprobe);
        }
        total += t0.elapsed().as_secs_f64();
    }
    total / reps as f64
}

/// Runs the Fig. 3 harness.
pub fn run() {
    banner("Fig. 3", "IVF vs IVF-FastScan latency; IVF-FS breakdown");
    let corpus = SyntheticCorpus::generate(&CorpusConfig::medium());
    let queries = corpus.queries(64, 17);
    let pq_cfg = PqConfig {
        m: 8,
        ksub: 256,
        train_iters: 6,
        seed: 4,
    };
    let nprobe = 16;

    let index = IvfPq::train(&corpus.vectors, 256, &pq_cfg).expect("IVF-PQ trains");

    let mut left = Table::new(vec!["batch", "IVF (norm.)", "IVF-FS (norm.)", "speedup"]);
    let mut csv = String::from("batch,ivf_s,ivf_fs_s\n");
    for &batch in &[4usize, 16] {
        let t_ivf = time_search(&index, Scan::Classic, &queries, batch, nprobe);
        let t_fs = time_search(&index, Scan::FastScan, &queries, batch, nprobe);
        left.row(vec![
            batch.to_string(),
            "1.00".to_string(),
            format!("{:.2}", t_fs / t_ivf),
            format!("{:.2}x", t_ivf / t_fs),
        ]);
        csv.push_str(&format!("{batch},{t_ivf},{t_fs}\n"));
    }
    println!("{}", left.render());
    write_csv("fig03_left.csv", &csv);

    // Right panel: stage breakdown on the real fast-scan layout.
    let mut right = Table::new(vec!["batch", "CQ (ms)", "LUT build (ms)", "LUT scan (ms)"]);
    let mut csv = String::from("batch,cq_s,lut_build_s,lut_scan_s\n");
    for &batch in &[2usize, 8] {
        let (mut t_cq, mut t_build, mut t_scan) = (0.0, 0.0, 0.0);
        let reps = 6;
        for rep in 0..reps {
            for i in 0..batch {
                let q = queries.get((rep * batch + i) % queries.len());
                let t0 = Instant::now();
                let lists = index.probe(q, nprobe);
                let t1 = Instant::now();
                let qlut = QuantizedLut::from_lut(&index.pq.lut(q));
                let t2 = Instant::now();
                let _ = index.scan_fast(&qlut, &lists, 10);
                let t3 = Instant::now();
                t_cq += t1.duration_since(t0).as_secs_f64();
                t_build += t2.duration_since(t1).as_secs_f64();
                t_scan += t3.duration_since(t2).as_secs_f64();
            }
        }
        let n = reps as f64;
        right.row(vec![
            batch.to_string(),
            format!("{:.3}", t_cq / n * 1e3),
            format!("{:.3}", t_build / n * 1e3),
            format!("{:.3}", t_scan / n * 1e3),
        ]);
        csv.push_str(&format!(
            "{batch},{},{},{}\n",
            t_cq / n,
            t_build / n,
            t_scan / n
        ));
    }
    println!("{}", right.render());
    write_csv("fig03_right_real.csv", &csv);

    // Modeled 128M-vector index (the paper's right panel substrate).
    let preset = DatasetPreset::orcas_1k();
    let wl = preset.workload(1);
    let cost = SearchCostModel::from_preset(&preset, &wl, &devices::xeon_8462y(), &devices::h100());
    let mut modeled = Table::new(vec!["batch", "CQ (s)", "LUT stages (s)", "LUT share"]);
    for &batch in &[2.0f64, 8.0] {
        let cq = cost.t_cq(batch);
        let lut = cost.t_lut_full(batch);
        modeled.row(vec![
            format!("{batch}"),
            format!("{cq:.3}"),
            format!("{lut:.3}"),
            format!("{:.0}%", 100.0 * lut / (cq + lut)),
        ]);
    }
    println!("modeled 128M-vector index (paper: 'LUT operations dominate'):");
    println!("{}", modeled.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn fastscan_top1_distance_within_lut_quantization_error() {
        // Both scans read the same centroids, codebooks and codes; the only
        // difference is the scan arithmetic, so the top-1 ADC distances must
        // agree within the 8-bit LUT error bound. (Id-level agreement is not
        // required: clustered data produces duplicate codes and therefore
        // ties.)
        let mut rng = StdRng::seed_from_u64(3);
        let data = VecSet::from_fn(1500, 16, |i, _| (i % 8) as f32 * 4.0 + rng.random::<f32>());
        let pq_cfg = PqConfig {
            m: 4,
            ksub: 16,
            train_iters: 5,
            seed: 7,
        };
        let index = IvfPq::train(&data, 16, &pq_cfg).unwrap();
        for q in 0..20 {
            let query = data.get(q * 71 % data.len());
            let bound = QuantizedLut::from_lut(&index.pq.lut(query)).max_error();
            let a = index.search(Scan::Classic, query, 1, 8)[0].distance;
            let b = index.search(Scan::FastScan, query, 1, 8)[0].distance;
            assert!(
                (a - b).abs() <= bound + 1e-3,
                "query {q}: pq={a} fastscan={b} bound={bound}"
            );
        }
    }
}
