//! The on-disk cold-tier segment format.
//!
//! One segment file holds every cluster of one IVF index, each cluster as
//! three extents:
//!
//! - **ids** — `n × u64` vector ids (little-endian);
//! - **f32** — `n × dim × f32` full-precision vectors, the durable source
//!   of truth a *promotion* materializes into a resident arena;
//! - **sq8** — `n × dim × u8` scalar-quantized codes, what a *cold scan*
//!   actually reads, 4× fewer bytes than full precision.
//!
//! Layout (all little-endian):
//!
//! ```text
//! offset 0    magic               8 B   "VLSTSEG1"
//!        8    version             4 B   u32 = 1
//!        12   dim                 4 B   u32
//!        16   n_clusters          4 B   u32
//!        20   metric              4 B   u32 (0 = L2, 1 = inner product)
//!        24   total_vectors       8 B   u64
//!        32   sq mins             dim × f32
//!             sq scales           dim × f32
//!             cluster table       n_clusters × 48 B
//!                                 { n u64, ids_off u64, f32_off u64,
//!                                   sq8_off u64, ids_crc u32, f32_crc u32,
//!                                   sq8_crc u32, pad u32 }
//!             header crc          4 B   CRC-32 of every header byte above
//!             extents…                  (offsets are absolute)
//! ```
//!
//! Every extent carries its own CRC-32 and the header carries one over
//! itself; [`Segment::open`] verifies all of them plus every bound before
//! returning, so a truncated, bit-flipped, or stale file is a clean
//! [`StoreError`] — never a panic, never silently skewed distances. Files
//! are written under a temporary name and atomically renamed into place.
//!
//! The file holds no pruning metadata: each cluster's cold bounding ball
//! (see the `ball` module) is derived from its SQ8 extent while
//! [`Segment::open`] checksums it, and a hot cluster's from the panels a
//! promotion builds.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vlite_ann::{kernel, Metric, ScalarQuantizer, VecSet};

use crate::ball::Ball;
use crate::checksum::{crc32, Crc32};
use crate::mmap::Mmap;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"VLSTSEG1";
/// On-disk format version written and accepted by this build.
pub const SEGMENT_VERSION: u32 = 1;

const FIXED_HEADER: usize = 8 + 4 + 4 + 4 + 4 + 8;
const TABLE_ENTRY: usize = 48;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file's contents are not a valid segment (bad magic/version,
    /// out-of-bounds extents, checksum mismatch, truncation, …).
    Corrupt(String),
    /// The file is a valid segment but does not describe the expected
    /// index (wrong dimensionality, cluster count, metric, or contents).
    Mismatch(String),
    /// The requested configuration is outside what the store supports.
    Unsupported(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(detail) => write!(f, "corrupt segment: {detail}"),
            StoreError::Mismatch(detail) => write!(f, "segment mismatch: {detail}"),
            StoreError::Unsupported(detail) => write!(f, "unsupported: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

fn metric_code(metric: Metric) -> u32 {
    match metric {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
    }
}

fn metric_from_code(code: u32) -> Result<Metric> {
    match code {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::InnerProduct),
        other => Err(StoreError::Corrupt(format!("unknown metric code {other}"))),
    }
}

/// One cluster's parsed extent table entry (absolute offsets, validated).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClusterExtent {
    pub n: usize,
    pub ids_off: usize,
    pub f32_off: usize,
    pub sq8_off: usize,
    pub ids_crc: u32,
    pub f32_crc: u32,
}

/// Trains per-dimension SQ8 parameters over every vector of `clusters`.
fn train_sq(dim: usize, clusters: &[(Vec<u64>, VecSet)]) -> ScalarQuantizer {
    let mut mins = vec![f32::INFINITY; dim];
    let mut maxs = vec![f32::NEG_INFINITY; dim];
    for (_, vectors) in clusters {
        for v in vectors.iter() {
            for j in 0..dim {
                mins[j] = mins[j].min(v[j]);
                maxs[j] = maxs[j].max(v[j]);
            }
        }
    }
    let (mins, scales): (Vec<f32>, Vec<f32>) = mins
        .into_iter()
        .zip(maxs)
        .map(|(lo, hi)| {
            if lo.is_finite() && hi.is_finite() && hi > lo {
                (lo, (hi - lo) / 255.0)
            } else if lo.is_finite() {
                (lo, 1.0) // constant dimension: any scale round-trips to lo
            } else {
                (0.0, 1.0) // no vectors at all
            }
        })
        .unzip();
    ScalarQuantizer::from_params(mins, scales)
}

/// Refills `buf` with `values` as little-endian bytes — one extent row
/// (or a cluster's id run) at a time, so the checksum and the file see
/// whole buffers rather than a value per call.
pub(crate) fn fill_le<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    buf.resize(values.len() * N, 0);
    for (bytes, &v) in buf.chunks_exact_mut(N).zip(values) {
        bytes.copy_from_slice(&to_le(v));
    }
}

/// Serializes `clusters` into a segment file at `path` (written to a
/// temporary sibling, then atomically renamed).
///
/// # Errors
///
/// [`StoreError::Unsupported`] for a bad dimensionality or no clusters;
/// [`StoreError::Mismatch`] for a cluster whose dimensionality or id count
/// disagrees; [`StoreError::Io`] on filesystem failures.
pub fn write_segment(
    path: &Path,
    dim: usize,
    metric: Metric,
    clusters: &[(Vec<u64>, VecSet)],
) -> Result<()> {
    let metric_code = metric_code(metric);
    if dim == 0 || dim > u32::MAX as usize {
        return Err(StoreError::Unsupported(format!("bad dimensionality {dim}")));
    }
    if clusters.is_empty() {
        return Err(StoreError::Unsupported("need at least one cluster".into()));
    }
    let mut total_vectors = 0u64;
    for (c, (ids, vectors)) in clusters.iter().enumerate() {
        if vectors.dim() != dim {
            return Err(StoreError::Mismatch(format!(
                "cluster {c} has dim {} (segment dim {dim})",
                vectors.dim()
            )));
        }
        if ids.len() != vectors.len() {
            return Err(StoreError::Mismatch(format!(
                "cluster {c}: {} ids for {} vectors",
                ids.len(),
                vectors.len()
            )));
        }
        total_vectors += ids.len() as u64;
    }
    let sq = train_sq(dim, clusters);

    let n_clusters = clusters.len();
    let header_len = FIXED_HEADER + 8 * dim + TABLE_ENTRY * n_clusters + 4;

    // Stream the extents straight to the temp file (never buffering the
    // payload — at server start the detached lists already hold one copy
    // of the corpus): write a placeholder header, stream each cluster's
    // ids/f32/sq8 extents with incremental CRCs, then seek back and write
    // the real header over the placeholder.
    let tmp = path.with_extension("seg.tmp");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::io::BufWriter::new(File::create(&tmp)?);
    file.write_all(&vec![0u8; header_len])?;

    let mut table: Vec<u8> = Vec::with_capacity(TABLE_ENTRY * n_clusters);
    let mut offset = header_len;
    let mut buf: Vec<u8> = Vec::new();
    let mut codes = vec![0u8; dim];
    for (ids, vectors) in clusters {
        let n = ids.len();
        let ids_off = offset;
        fill_le(&mut buf, ids, u64::to_le_bytes);
        let ids_crc = crc32(&buf);
        file.write_all(&buf)?;
        offset += n * 8;

        let f32_off = offset;
        let mut crc = Crc32::new();
        for v in vectors.iter() {
            fill_le(&mut buf, v, f32::to_le_bytes);
            crc.update(&buf);
            file.write_all(&buf)?;
        }
        let f32_crc = crc.finish();
        offset += n * dim * 4;

        let sq8_off = offset;
        let mut crc = Crc32::new();
        for v in vectors.iter() {
            sq.encode_into(v, &mut codes);
            crc.update(&codes);
            file.write_all(&codes)?;
        }
        let sq8_crc = crc.finish();
        offset += n * dim;

        table.extend_from_slice(&(n as u64).to_le_bytes());
        table.extend_from_slice(&(ids_off as u64).to_le_bytes());
        table.extend_from_slice(&(f32_off as u64).to_le_bytes());
        table.extend_from_slice(&(sq8_off as u64).to_le_bytes());
        table.extend_from_slice(&ids_crc.to_le_bytes());
        table.extend_from_slice(&f32_crc.to_le_bytes());
        table.extend_from_slice(&sq8_crc.to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes());
    }

    let mut header: Vec<u8> = Vec::with_capacity(header_len);
    header.extend_from_slice(&SEGMENT_MAGIC);
    header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    header.extend_from_slice(&(dim as u32).to_le_bytes());
    header.extend_from_slice(&(n_clusters as u32).to_le_bytes());
    header.extend_from_slice(&metric_code.to_le_bytes());
    header.extend_from_slice(&total_vectors.to_le_bytes());
    for &m in sq.mins() {
        header.extend_from_slice(&m.to_le_bytes());
    }
    for &s in sq.scales() {
        header.extend_from_slice(&s.to_le_bytes());
    }
    header.extend_from_slice(&table);
    let header_crc = crc32(&header);
    header.extend_from_slice(&header_crc.to_le_bytes());
    debug_assert_eq!(header.len(), header_len);

    // Seek back over the placeholder; rename only after a full sync so
    // readers never observe a partial segment.
    let mut file = file.into_inner().map_err(|e| StoreError::Io(e.into()))?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// A validated, memory-mapped segment, with each cluster's cold bounding
/// ball derived at open (never stored in the file).
#[derive(Debug)]
pub struct Segment {
    map: Mmap,
    dim: usize,
    metric: Metric,
    sq: ScalarQuantizer,
    clusters: Vec<ClusterExtent>,
    cold_balls: Vec<Ball>,
    total_vectors: u64,
    path: PathBuf,
}

fn bytes_at<'a>(map: &'a [u8], off: usize, len: usize, what: &str) -> Result<&'a [u8]> {
    off.checked_add(len)
        .and_then(|end| map.get(off..end))
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "{what}: extent [{off}, {off}+{len}) exceeds file length {}",
                map.len()
            ))
        })
}

fn u32_at(map: &[u8], off: usize, what: &str) -> Result<u32> {
    let b = bytes_at(map, off, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn u64_at(map: &[u8], off: usize, what: &str) -> Result<u64> {
    let b = bytes_at(map, off, 8, what)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

fn f32_at(map: &[u8], off: usize, what: &str) -> Result<f32> {
    Ok(f32::from_bits(u32_at(map, off, what)?))
}

impl Segment {
    /// Opens and fully validates the segment at `path`: magic, version,
    /// header checksum, every extent's bounds, and every extent's CRC-32.
    /// Each cluster's cold bounding ball is computed from its SQ8 extent
    /// right after the checksum reads it, before any promotion releases
    /// the pages. Each f32 extent is released from the resident set as
    /// soon as its checksum passes ([`Mmap::release`]); a promotion faults
    /// it back in from the file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read,
    /// [`StoreError::Corrupt`] for any validation failure.
    pub fn open(path: &Path) -> Result<Segment> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let bytes: &[u8] = &map;

        let magic = bytes_at(bytes, 0, 8, "magic")?;
        if magic != SEGMENT_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad magic {magic:02x?} (want {SEGMENT_MAGIC:02x?})"
            )));
        }
        let version = u32_at(bytes, 8, "version")?;
        if version != SEGMENT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported segment version {version} (want {SEGMENT_VERSION})"
            )));
        }
        let dim = u32_at(bytes, 12, "dim")? as usize;
        if dim == 0 {
            return Err(StoreError::Corrupt("zero dimensionality".into()));
        }
        let n_clusters = u32_at(bytes, 16, "n_clusters")? as usize;
        if n_clusters == 0 {
            return Err(StoreError::Corrupt("zero clusters".into()));
        }
        let metric = metric_from_code(u32_at(bytes, 20, "metric")?)?;
        let total_vectors = u64_at(bytes, 24, "total_vectors")?;

        let header_len = FIXED_HEADER
            .checked_add(8usize.checked_mul(dim).ok_or_else(huge)?)
            .and_then(|v| v.checked_add(TABLE_ENTRY.checked_mul(n_clusters)?))
            .and_then(|v| v.checked_add(4))
            .ok_or_else(huge)?;
        let stored_crc = u32_at(bytes, header_len - 4, "header crc")?;
        let actual_crc = crc32(bytes_at(bytes, 0, header_len - 4, "header")?);
        if stored_crc != actual_crc {
            return Err(StoreError::Corrupt(format!(
                "header checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }

        let mut mins = Vec::with_capacity(dim);
        let mut scales = Vec::with_capacity(dim);
        let sq_base = FIXED_HEADER;
        for j in 0..dim {
            mins.push(f32_at(bytes, sq_base + 4 * j, "sq mins")?);
            scales.push(f32_at(bytes, sq_base + 4 * (dim + j), "sq scales")?);
        }
        if mins.iter().any(|m| !m.is_finite()) || scales.iter().any(|s| !s.is_finite() || *s <= 0.0)
        {
            return Err(StoreError::Corrupt(
                "non-finite or non-positive SQ8 parameters".into(),
            ));
        }
        let sq = ScalarQuantizer::from_params(mins, scales);

        let table_base = FIXED_HEADER + 8 * dim;
        let mut clusters = Vec::with_capacity(n_clusters);
        let mut cold_balls = Vec::with_capacity(n_clusters);
        let mut seen_vectors = 0u64;
        for c in 0..n_clusters {
            let e = table_base + TABLE_ENTRY * c;
            let n64 = u64_at(bytes, e, "cluster n")?;
            let n = usize::try_from(n64).map_err(|_| huge())?;
            let to_usize = |v: u64| usize::try_from(v).map_err(|_| huge());
            let ids_off = to_usize(u64_at(bytes, e + 8, "ids_off")?)?;
            let f32_off = to_usize(u64_at(bytes, e + 16, "f32_off")?)?;
            let sq8_off = to_usize(u64_at(bytes, e + 24, "sq8_off")?)?;
            let ids_crc = u32_at(bytes, e + 32, "ids_crc")?;
            let f32_crc = u32_at(bytes, e + 36, "f32_crc")?;
            let sq8_crc = u32_at(bytes, e + 40, "sq8_crc")?;

            let ids_len = n.checked_mul(8).ok_or_else(huge)?;
            let f32_len = n
                .checked_mul(dim)
                .and_then(|v| v.checked_mul(4))
                .ok_or_else(huge)?;
            let sq8_len = n.checked_mul(dim).ok_or_else(huge)?;
            let ids = bytes_at(bytes, ids_off, ids_len, "ids extent")?;
            let f32s = bytes_at(bytes, f32_off, f32_len, "f32 extent")?;
            let sq8s = bytes_at(bytes, sq8_off, sq8_len, "sq8 extent")?;
            if ids_off < header_len || f32_off < header_len || sq8_off < header_len {
                return Err(StoreError::Corrupt(format!(
                    "cluster {c}: extent overlaps the header"
                )));
            }
            for (name, extent, stored) in [
                ("ids", ids, ids_crc),
                ("f32", f32s, f32_crc),
                ("sq8", sq8s, sq8_crc),
            ] {
                let actual = crc32(extent);
                if actual != stored {
                    return Err(StoreError::Corrupt(format!(
                        "cluster {c} {name} extent checksum mismatch \
                         (stored {stored:#010x}, computed {actual:#010x})"
                    )));
                }
            }
            // Only a promotion reads the f32 extent again, and it refaults
            // the pages from the file: the checksum pass must not leave
            // every cold cluster's full-precision copy resident.
            map.release(f32_off, f32_len);
            cold_balls.push(Ball::over_codes(sq8s, sq.scales()));
            seen_vectors += n64;
            clusters.push(ClusterExtent {
                n,
                ids_off,
                f32_off,
                sq8_off,
                ids_crc,
                f32_crc,
            });
        }
        if seen_vectors != total_vectors {
            return Err(StoreError::Corrupt(format!(
                "cluster table sums to {seen_vectors} vectors, header claims {total_vectors}"
            )));
        }

        Ok(Segment {
            map,
            dim,
            metric,
            sq,
            clusters,
            cold_balls,
            total_vectors,
            path: path.to_path_buf(),
        })
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The metric the segment's payloads are scored under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Total vectors across all clusters.
    pub fn total_vectors(&self) -> u64 {
        self.total_vectors
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The per-dimension SQ8 quantizer shared by every cluster.
    pub fn sq(&self) -> &ScalarQuantizer {
        &self.sq
    }

    /// Whether the bytes are served by a real memory mapping (as opposed
    /// to the heap-copy fallback on unsupported targets).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Number of vectors in cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cluster_len(&self, c: u32) -> usize {
        self.clusters[c as usize].n
    }

    /// Bytes a cold scan of cluster `c` touches (ids + SQ8 codes).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cold_bytes(&self, c: u32) -> u64 {
        let n = self.clusters[c as usize].n as u64;
        n * (8 + self.dim as u64)
    }

    /// Bytes cluster `c` occupies when promoted to a resident hot arena
    /// (ids + full-precision vectors: the payload, not the < 16 pad rows
    /// of its panels).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn hot_bytes(&self, c: u32) -> u64 {
        let n = self.clusters[c as usize].n as u64;
        n * (8 + 4 * self.dim as u64)
    }

    /// Decodes `out.len()` vector ids of cluster `c`, starting at its
    /// `start`-th, from the mapped ids extent.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or the run exceeds the cluster.
    pub fn ids_into(&self, c: u32, start: usize, out: &mut [u64]) {
        let e = &self.clusters[c as usize];
        assert!(
            start + out.len() <= e.n,
            "id run {start}+{} out of range (cluster holds {})",
            out.len(),
            e.n
        );
        let off = e.ids_off + 8 * start;
        let bytes = &self.map[off..off + 8 * out.len()];
        for (id, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *id = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        }
    }

    /// Cluster `c`'s bounding ball over its decoded SQ8 codes.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub(crate) fn cold_ball(&self, c: u32) -> &Ball {
        &self.cold_balls[c as usize]
    }

    /// Cluster `c`'s SQ8 codes, row-major `n × dim`, straight from the
    /// mapping (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn sq8_codes(&self, c: u32) -> &[u8] {
        let e = &self.clusters[c as usize];
        &self.map[e.sq8_off..e.sq8_off + e.n * self.dim]
    }

    /// Materializes cluster `c`'s ids and its full-precision vectors as
    /// 16-row panels ([`kernel::to_panels`]: groups of 16 rows, dim-major,
    /// the last group zero-padded) — the promotion path. The panels are
    /// transposed straight out of the mapped f32 extent into their one
    /// allocation. All three of the cluster's extents are then released
    /// from the resident set ([`Mmap::release`]): the arena is the
    /// resident copy of the ids and vectors from here on (without this a
    /// fully hot store holds the corpus twice), and cold scans, the only
    /// readers of the SQ8 codes, skip a hot cluster. A later demotion
    /// faults the id and code pages back in from the file.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn load_cluster_panels(&self, c: u32) -> (Vec<u64>, Vec<f32>) {
        let e = &self.clusters[c as usize];
        let mut ids = vec![0u64; e.n];
        self.ids_into(c, 0, &mut ids);
        let f32_len = e.n * self.dim * 4;
        let floats = self.map[e.f32_off..e.f32_off + f32_len]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let panels = kernel::to_panels(e.n, self.dim, floats);
        self.map.release(e.ids_off, e.n * 8);
        self.map.release(e.f32_off, f32_len);
        self.map.release(e.sq8_off, e.n * self.dim);
        (ids, panels)
    }

    /// The stored `(ids, f32)` extent CRCs of cluster `c`, for verifying a
    /// reopened segment against in-memory data.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn cluster_crcs(&self, c: u32) -> (u32, u32) {
        let e = &self.clusters[c as usize];
        (e.ids_crc, e.f32_crc)
    }
}

fn huge() -> StoreError {
    StoreError::Corrupt("extent arithmetic overflow".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn sample_clusters(
        n_clusters: usize,
        per: usize,
        dim: usize,
        seed: u64,
    ) -> Vec<(Vec<u64>, VecSet)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_clusters)
            .map(|c| {
                let ids: Vec<u64> = (0..per as u64).map(|i| (c as u64) * 1_000 + i).collect();
                let vectors =
                    VecSet::from_fn(per, dim, |_, _| (c as f32) * 2.0 + rng.random::<f32>());
                (ids, vectors)
            })
            .collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "vlite-segment-test-{}-{tag}.seg",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_ids_vectors_and_codes() {
        let dim = 8;
        let clusters = sample_clusters(6, 40, dim, 1);
        let path = temp_path("roundtrip");
        write_segment(&path, dim, Metric::L2, &clusters).expect("writes");
        let seg = Segment::open(&path).expect("opens");
        assert_eq!(seg.dim(), dim);
        assert_eq!(seg.n_clusters(), 6);
        assert_eq!(seg.total_vectors(), 240);
        for (c, (ids, vectors)) in clusters.iter().enumerate() {
            let c = c as u32;
            assert_eq!(seg.cluster_len(c), ids.len());
            let (got_ids, got_panels) = seg.load_cluster_panels(c);
            assert_eq!(&got_ids, ids, "ids round-trip");
            let padded = ids.len().div_ceil(kernel::PANEL_ROWS) * kernel::PANEL_ROWS;
            assert_eq!(got_panels.len(), padded * dim, "whole zero-padded groups");
            let want = kernel::to_panels(vectors.len(), dim, vectors.as_flat().iter().copied());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_panels), bits(&want), "f32 panels bit-identical");
            // SQ8 codes match a fresh encode under the stored params.
            let codes = seg.sq8_codes(c);
            for (i, v) in vectors.iter().enumerate() {
                assert_eq!(
                    &codes[i * dim..(i + 1) * dim],
                    seg.sq().encode(v).as_slice()
                );
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_clusters_are_representable() {
        let mut clusters = sample_clusters(3, 10, 4, 2);
        clusters[1] = (Vec::new(), VecSet::new(4));
        let path = temp_path("empty");
        write_segment(&path, 4, Metric::L2, &clusters).expect("writes");
        let seg = Segment::open(&path).expect("opens");
        assert_eq!(seg.cluster_len(1), 0);
        assert_eq!(seg.total_vectors(), 20);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Segment::open(Path::new("/nonexistent/vlite.seg")).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
    }
}
