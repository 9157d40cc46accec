//! Adversarial tests for the on-disk segment format: every corruption —
//! truncation, bit flips anywhere, stale/partial files, wrong shapes —
//! must surface as a clean [`StoreError`], never a panic or skewed
//! results. Plus the tier-equivalence property: an mmap'd cold scan
//! returns exactly what scanning the same clusters hot at full precision
//! would, modulo the SQ8 quantization bound.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vlite_ann::{kernel, l2_sq, scan_lists_store, Metric, VecSet};
use vlite_store::{write_segment, Segment, StoreError, TieredStore};

fn sample_clusters(
    n_clusters: usize,
    per: usize,
    dim: usize,
    seed: u64,
) -> Vec<(Vec<u64>, VecSet)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_clusters)
        .map(|c| {
            let ids: Vec<u64> = (0..per as u64).map(|i| (c as u64) << 20 | i).collect();
            let vectors = VecSet::from_fn(per, dim, |_, _| {
                (c as f32) * 3.0 + rng.random::<f32>() * 2.0 - 1.0
            });
            (ids, vectors)
        })
        .collect()
}

/// Length and FNV-1a hash of the pinned segment, taken from the writer
/// as it stood before row buffers and slicing-by-8.
const PINNED_LEN: usize = 847;
const PINNED_HASH: u64 = 0x6f1a_6489_f7e0_077e;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vlite-resilience-{}-{tag}.seg", std::process::id()))
}

/// Writes a small reference segment and returns its bytes and path.
fn reference_segment(tag: &str) -> (PathBuf, Vec<u8>) {
    let clusters = sample_clusters(5, 24, 8, 0xfeed);
    let path = temp_path(tag);
    write_segment(&path, 8, Metric::L2, &clusters).expect("writes");
    let bytes = std::fs::read(&path).expect("readable");
    (path, bytes)
}

fn expect_corrupt(path: &std::path::Path, what: &str) {
    match Segment::open(path) {
        Err(StoreError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: want Corrupt, got {other}"),
        Ok(_) => panic!("{what}: corrupted segment opened cleanly"),
    }
}

#[test]
fn truncated_files_fail_cleanly_at_every_length() {
    let (path, bytes) = reference_segment("truncate");
    // A sweep of truncation points: inside the magic, the header, the
    // table, and each extent region. Every one must be a clean error.
    let cuts = [
        0usize,
        4,
        7,
        16,
        31,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for &cut in &cuts {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        expect_corrupt(&path, &format!("truncated to {cut} bytes"));
    }
    let _ = std::fs::remove_file(path);
}

/// The segment format, pinned byte for byte: a fixed small segment
/// (closed-form contents, an empty cluster, extents whose lengths are and
/// are not multiples of the checksum's eight-byte step) hashes to the
/// value the byte-at-a-time writer and CRC produced. Any change to the
/// layout, the SQ8 encoding, an extent CRC or the header CRC moves it.
#[test]
fn a_fixed_segment_is_byte_identical_to_the_pinned_format() {
    let clusters: Vec<(Vec<u64>, VecSet)> = [7usize, 0, 12]
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            let ids = (0..n as u64)
                .map(|i| ((c as u64) << 32) | (i * 3))
                .collect();
            let vectors = VecSet::from_fn(n, 5, |i, j| {
                (c as f32) * 1.5 - (i as f32) * 0.25 + (j as f32) * 0.125
            });
            (ids, vectors)
        })
        .collect();
    let path = temp_path("pinned");
    write_segment(&path, 5, Metric::InnerProduct, &clusters).expect("writes");
    let bytes = std::fs::read(&path).expect("readable");
    let _ = std::fs::remove_file(&path);
    // FNV-1a 64 — deliberately not the file's own checksum.
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (bytes.len(), hash),
        (PINNED_LEN, PINNED_HASH),
        "segment bytes moved: {} bytes, hash {hash:#018x}",
        bytes.len()
    );
}

#[test]
fn bad_magic_and_version_fail_cleanly() {
    let (path, bytes) = reference_segment("magic");
    let mut bad = bytes.clone();
    bad[0] = b'X';
    std::fs::write(&path, &bad).expect("write");
    expect_corrupt(&path, "bad magic");

    let mut bad = bytes.clone();
    bad[8] = 0xFF; // version
    std::fs::write(&path, &bad).expect("write");
    expect_corrupt(&path, "bad version");
    let _ = std::fs::remove_file(path);
}

#[test]
fn header_field_tampering_is_caught_by_the_header_checksum() {
    let (path, bytes) = reference_segment("header");
    // Flip one byte in each interesting header field: dim, n_clusters,
    // total_vectors, an SQ scale, a table offset, a table count.
    for &off in &[12usize, 16, 24, 36, 80, 120] {
        let mut bad = bytes.clone();
        bad[off] ^= 0x01;
        std::fs::write(&path, &bad).expect("write");
        expect_corrupt(&path, &format!("header byte {off} flipped"));
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn payload_bit_flips_are_caught_by_extent_checksums() {
    let (path, bytes) = reference_segment("payload");
    // Flip a single bit at several payload positions (past the header).
    let header_guess = bytes.len() / 3; // payload dominates this file
    for frac in [0.4, 0.6, 0.8, 0.99] {
        let off = ((bytes.len() as f64) * frac) as usize;
        assert!(off > header_guess);
        let mut bad = bytes.clone();
        bad[off] ^= 0x40;
        std::fs::write(&path, &bad).expect("write");
        expect_corrupt(&path, &format!("payload byte {off} flipped"));
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn garbage_and_empty_files_fail_cleanly() {
    let path = temp_path("garbage");
    std::fs::write(&path, b"").expect("write");
    expect_corrupt(&path, "empty file");
    std::fs::write(&path, vec![0xA5u8; 4096]).expect("write");
    expect_corrupt(&path, "garbage file");
    // A file that *starts* like a segment but lies about its size.
    let mut liar = Vec::new();
    liar.extend_from_slice(b"VLSTSEG1");
    liar.extend_from_slice(&1u32.to_le_bytes());
    liar.extend_from_slice(&8u32.to_le_bytes());
    liar.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd cluster count
    liar.extend_from_slice(&0u32.to_le_bytes());
    liar.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &liar).expect("write");
    expect_corrupt(&path, "absurd cluster count");
    let _ = std::fs::remove_file(path);
}

#[test]
fn tiered_store_surfaces_corruption_as_errors_not_panics() {
    let (path, bytes) = reference_segment("store");
    let mut bad = bytes.clone();
    let off = bytes.len() - 10;
    bad[off] ^= 0x02;
    std::fs::write(&path, &bad).expect("write");
    let err = TieredStore::open(&path, Metric::L2, &[false; 5]).expect_err("corrupt");
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    // Mismatched hot-set length on a *clean* file is a Mismatch, not a
    // panic.
    std::fs::write(&path, &bytes).expect("restore");
    let err = TieredStore::open(&path, Metric::L2, &[false; 3]).expect_err("wrong hot len");
    assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
    let _ = std::fs::remove_file(path);
}

/// File-backed resident bytes of this process (`RssFile`), where the
/// kernel reports it.
fn rss_file_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("RssFile:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Panels back to row-major (`panels[(g·dim + d)·16 + lane]` is dimension
/// `d` of row `16g + lane`), plus the pad lanes of the last group.
fn untranspose(panels: &[f32], n: usize, dim: usize) -> (VecSet, Vec<f32>) {
    let rows_per = kernel::PANEL_ROWS;
    let at = |r: usize, d: usize| panels[((r / rows_per) * dim + d) * rows_per + r % rows_per];
    let rows = VecSet::from_fn(n, dim, at);
    let pads = (n..n.div_ceil(rows_per) * rows_per)
        .flat_map(|r| (0..dim).map(move |d| at(r, d)))
        .collect();
    (rows, pads)
}

/// `Segment::open`'s checksum pass reads every extent, then releases
/// each f32 extent from the resident set (`madvise(MADV_DONTNEED)`): only
/// a promotion reads it again. A promotion transposes the f32 extent out
/// of the mapping into panels, faulting it back in from the file, and then
/// releases the cluster's id, f32 and SQ8 file pages. The bytes must still
/// be there for the next promotion and for a cold scan after a demotion:
/// a second load re-reads the extents through fresh page faults and must
/// match the first copy and the f32 extent's stored CRC, and the SQ8 codes
/// must still encode the source. Both copies, un-transposed, are the
/// source vectors bit for bit, with zero pad lanes (the cluster ends in a
/// ragged group). Where the kernel reports `RssFile`, both releases must
/// also be real: the 4 MiB f32 extent is not resident after open, and a
/// promotion drops most of the 1.1 MiB of id and code pages.
#[test]
fn promoted_extent_pages_are_released_and_read_back_intact() {
    let (n, dim) = (16_381usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0xd047_eed0);
    let ids: Vec<u64> = (0..n as u64).collect();
    let vectors = VecSet::from_fn(n, dim, |_, _| rng.random::<f32>());
    let path = temp_path("release");
    write_segment(&path, dim, Metric::L2, &[(ids.clone(), vectors.clone())]).expect("writes");
    let (f32_bytes, id_and_code_bytes) = ((n * dim * 4) as u64, (n * (8 + dim)) as u64);

    let before_open = rss_file_bytes();
    let seg = Segment::open(&path).expect("opens"); // CRC pass reads every page
    let after_open = rss_file_bytes();
    if let (true, Some(before), Some(after)) = (seg.is_mapped(), before_open, after_open) {
        assert!(
            after.saturating_sub(before) < id_and_code_bytes + f32_bytes / 4,
            "RssFile {before} -> {after} across open: the {f32_bytes}-byte f32 extent \
             stayed resident"
        );
    }

    let before = rss_file_bytes();
    let first = seg.load_cluster_panels(0);
    let after = rss_file_bytes();
    if let (true, Some(before), Some(after)) = (seg.is_mapped(), before, after) {
        assert!(
            before.saturating_sub(after) >= id_and_code_bytes * 3 / 4,
            "RssFile {before} -> {after}: {id_and_code_bytes} bytes of id and code \
             extents were not released"
        );
    }

    let second = seg.load_cluster_panels(0);
    assert_eq!(first.0, ids);
    let (rows, pads) = untranspose(&first.1, n, dim);
    assert_eq!(rows, vectors, "first copy bit-identical to the source");
    assert!(pads.iter().all(|&p| p.to_bits() == 0), "pad lanes are +0.0");
    assert_eq!(second, first, "re-read after release");
    let (rows, _) = untranspose(&second.1, n, dim);
    let mut crc = vlite_store::Crc32::new();
    for x in rows.as_flat() {
        crc.update(&x.to_le_bytes());
    }
    assert_eq!(
        crc.finish(),
        seg.cluster_crcs(0).1,
        "extent CRC after release"
    );
    for (row, codes) in vectors.iter().zip(seg.sq8_codes(0).chunks_exact(dim)) {
        assert_eq!(
            codes,
            seg.sq().encode(row).as_slice(),
            "SQ8 codes after release"
        );
    }
    drop(seg);
    let _ = std::fs::remove_file(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tier-equivalence property: for random clusters and queries, a
    /// cold (mmap'd SQ8) scan of a cluster set returns results identical
    /// to scanning the same clusters hot at full precision, modulo the
    /// per-element SQ8 quantization bound — concretely, every cold
    /// distance equals the full-precision distance to the *decoded*
    /// vector (within float-sum tolerance), which itself sits within the
    /// quantizer's half-step bound of the original.
    #[test]
    fn cold_scan_equals_hot_scan_modulo_sq8(
        seed in 0u64..1_000_000,
        n_clusters in 2usize..6,
        per in 4usize..40,
        dim in 2usize..24,
    ) {
        let clusters = sample_clusters(n_clusters, per, dim, seed);
        let path = temp_path(&format!("prop-{seed}-{n_clusters}-{per}-{dim}"));
        let mut hot_store = TieredStore::create(
            &path, dim, Metric::L2, &clusters, &vec![true; n_clusters],
        ).expect("creates");
        hot_store.set_ephemeral(true);
        let lists: Vec<u32> = (0..n_clusters as u32).collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x51a5);
        let query: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() * 6.0).collect();

        let hot_snapshot = hot_store.snapshot();
        let hot = scan_lists_store(&hot_snapshot, &query, &lists, 5);

        // Demote everything live, then scan cold through the mmap.
        hot_store.apply_placement(&vec![false; n_clusters]);
        let cold_snapshot = hot_store.snapshot();
        let cold = scan_lists_store(&cold_snapshot, &query, &lists, 5);

        prop_assert_eq!(hot.len(), cold.len());
        let sq = hot_store.sq().clone();
        let step = sq.step_size();
        // Locate each cold hit's original vector by id.
        for n in &cold {
            let (c, i) = (((n.id >> 20) as usize), (n.id & 0xFFFFF) as usize);
            let original = clusters[c].1.get(i);
            let decoded = sq.decode(&sq.encode(original));
            // 1) The cold distance is the full-precision distance to the
            //    decoded vector (scoring codes directly introduces only
            //    fp rounding error).
            let reference = l2_sq(&query, &decoded);
            prop_assert!(
                (n.distance - reference).abs() <= 1e-3 * (1.0 + reference.abs()),
                "cold {} vs decoded reference {}", n.distance, reference
            );
            // 2) The decoded vector sits within the quantization bound of
            //    the original, elementwise.
            for (o, d) in original.iter().zip(&decoded) {
                prop_assert!((o - d).abs() <= step / 2.0 + 1e-4);
            }
        }
        // 3) Both tiers agree on the top hit whenever quantization can't
        //    flip it: if the hot margin between rank-0 and rank-1 exceeds
        //    the worst-case distance perturbation, the winner must match.
        if hot.len() > 1 {
            let margin = hot[1].distance - hot[0].distance;
            let worst: f32 = (0..dim)
                .map(|j| {
                    let e = sq.scales()[j] / 2.0;
                    let q_term = (query[j].abs() + 8.0) * e; // |q - x| is bounded by data range
                    2.0 * q_term + e * e
                })
                .sum();
            if margin > 2.0 * worst {
                prop_assert_eq!(hot[0].id, cold[0].id);
            }
        }
    }
}
