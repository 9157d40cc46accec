//! Index splitter: hot clusters → GPU shards + mapping tables (§IV-A4).
//!
//! "The splitter first identifies the hot clusters based on the access
//! profile and the target cache coverage ρ. These hot clusters are then
//! sorted by size and distributed to GPU shards in a round-robin fashion to
//! balance memory usage across sub-indexes. Alongside [...] the splitter
//! generates mapping tables [encoding] the correspondence between original
//! cluster IDs and their assigned shard as well as the remapped local
//! cluster IDs."
//!
//! Only the cluster → shard half of those tables remains. The paper remaps
//! local ids because each GPU holds its own sub-index; here every shard
//! scans the one tiered store by global cluster id, so no scan reads a
//! local id.

use crate::AccessProfile;

/// Where a cluster lives after splitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Cold cluster, scanned by the CPU.
    Cpu,
    /// Hot cluster resident on a GPU shard.
    Gpu {
        /// Shard (GPU) index.
        shard: u16,
    },
}

/// The mapping tables produced by the splitter.
///
/// # Examples
///
/// ```
/// use vlite_core::{AccessProfile, IndexSplit};
/// use vlite_workload::DatasetPreset;
///
/// let preset = DatasetPreset::tiny();
/// let wl = preset.workload(9);
/// let profile = AccessProfile::from_workload(&preset, &wl, 1_000, 9);
/// let split = IndexSplit::build(&profile, 0.2, 4);
/// assert_eq!(split.n_shards(), 4);
/// // Shard byte loads are balanced by size-sorted round-robin packing.
/// let loads = split.shard_bytes();
/// let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
/// assert!(*max as f64 <= *min as f64 * 1.5 + 1e4);
/// ```
#[derive(Debug, Clone)]
pub struct IndexSplit {
    placement: Vec<Placement>,
    shard_clusters: Vec<Vec<u32>>,
    shard_bytes: Vec<u64>,
    coverage: f64,
}

impl IndexSplit {
    /// Splits the hot set at `coverage` across `n_shards` GPU shards.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0` or exceeds `u16::MAX`.
    pub fn build(profile: &AccessProfile, coverage: f64, n_shards: usize) -> IndexSplit {
        assert!(n_shards > 0, "need at least one shard");
        assert!(n_shards <= usize::from(u16::MAX), "too many shards");
        let mut hot = profile.hot_set(coverage);
        // Sort by size descending (ties by id for determinism).
        let sizes = profile.sizes();
        hot.sort_by(|&a, &b| sizes[b as usize].cmp(&sizes[a as usize]).then(a.cmp(&b)));
        let mut placement = vec![Placement::Cpu; profile.nlist()];
        let mut shard_clusters: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut shard_bytes = vec![0u64; n_shards];
        for (i, &cluster) in hot.iter().enumerate() {
            let shard = i % n_shards;
            placement[cluster as usize] = Placement::Gpu {
                shard: shard as u16,
            };
            shard_clusters[shard].push(cluster);
            shard_bytes[shard] += profile.cluster_bytes()[cluster as usize];
        }
        IndexSplit {
            placement,
            shard_clusters,
            shard_bytes,
            coverage,
        }
    }

    /// The coverage this split was built for.
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Number of GPU shards.
    pub fn n_shards(&self) -> usize {
        self.shard_clusters.len()
    }

    /// Placement of a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn placement(&self, cluster: u32) -> Placement {
        self.placement[cluster as usize]
    }

    /// Per-cluster GPU residency in cluster id order: the tier map a
    /// tiered store places.
    pub fn hot_flags(&self) -> Vec<bool> {
        (self.placement.iter())
            .map(|p| matches!(p, Placement::Gpu { .. }))
            .collect()
    }

    /// Global cluster ids resident on one shard, in placement order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_clusters(&self, shard: usize) -> &[u32] {
        &self.shard_clusters[shard]
    }

    /// Index bytes resident per shard.
    pub fn shard_bytes(&self) -> &[u64] {
        &self.shard_bytes
    }

    /// Total GPU-resident bytes.
    pub fn total_gpu_bytes(&self) -> u64 {
        self.shard_bytes.iter().sum()
    }

    /// Number of hot clusters.
    pub fn hot_count(&self) -> usize {
        self.shard_clusters.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_workload::DatasetPreset;

    fn profile() -> AccessProfile {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(11);
        AccessProfile::from_workload(&preset, &wl, 2000, 11)
    }

    #[test]
    fn mapping_is_a_bijection_onto_shard_slots() {
        let p = profile();
        let split = IndexSplit::build(&p, 0.25, 4);
        // Every hot cluster appears exactly once across the shard lists,
        // in the shard its placement names.
        let mut seen = 0usize;
        for cluster in 0..p.nlist() as u32 {
            if let Placement::Gpu { shard } = split.placement(cluster) {
                for s in 0..split.n_shards() {
                    let hits = split.shard_clusters(s).iter().filter(|&&c| c == cluster);
                    let expected = usize::from(s == usize::from(shard));
                    assert_eq!(hits.count(), expected, "cluster {cluster} shard {s}");
                }
                seen += 1;
            }
        }
        assert_eq!(seen, split.hot_count());
        assert_eq!(seen, p.hot_set(0.25).len());
    }

    #[test]
    fn byte_loads_are_balanced() {
        let p = profile();
        let split = IndexSplit::build(&p, 0.3, 3);
        let loads = split.shard_bytes();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max <= min * 1.35 + 1024.0, "imbalanced shards: {loads:?}");
    }

    #[test]
    fn zero_coverage_leaves_everything_on_cpu() {
        let p = profile();
        let split = IndexSplit::build(&p, 0.0, 2);
        assert_eq!(split.hot_count(), 0);
        assert_eq!(split.total_gpu_bytes(), 0);
        assert!(split.hot_flags().iter().all(|&hot| !hot));
    }

    #[test]
    fn full_coverage_moves_everything_to_gpus() {
        let p = profile();
        let split = IndexSplit::build(&p, 1.0, 2);
        assert_eq!(split.hot_count(), p.nlist());
        assert_eq!(split.total_gpu_bytes(), p.total_bytes());
    }

    #[test]
    fn total_gpu_bytes_matches_profile_prefix() {
        let p = profile();
        for &cov in &[0.1, 0.2, 0.5] {
            let split = IndexSplit::build(&p, cov, 4);
            assert_eq!(split.total_gpu_bytes(), p.bytes_at(cov));
        }
    }

    #[test]
    fn single_shard_takes_all_hot_clusters() {
        let p = profile();
        let split = IndexSplit::build(&p, 0.2, 1);
        assert_eq!(split.shard_clusters(0).len(), split.hot_count());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        IndexSplit::build(&profile(), 0.2, 0);
    }
}
