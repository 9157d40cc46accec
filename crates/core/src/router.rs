//! Query routing (§IV-B1).
//!
//! After coarse quantization, [`IndexSplit::route`] splits each query's
//! probe list by the split's placement: probes of GPU-resident clusters go
//! to exactly the shard holding them, the rest stay on the CPU. Unlike
//! Faiss's `IndexIVFShards` — which sends the *full* probe list to every
//! shard and launches kernels even for non-resident clusters — routing
//! prunes, so per-shard `nprobe` shrinks and GPU scheduling pressure drops.
//!
//! The paper's router also rewrites each probe into its shard's local
//! cluster id, because every GPU holds its own sub-index. Here every shard
//! scans the one tiered store by global id, so routed probes stay global.

use crate::{IndexSplit, Placement};

/// A query's probe list after routing, in global cluster ids.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedQuery {
    /// Per-shard probe lists, in probe order.
    pub shard_probes_global: Vec<Vec<u32>>,
    /// Probes served by the CPU, in probe order.
    pub cpu_probes: Vec<u32>,
}

impl RoutedQuery {
    /// Number of probes that hit GPU-resident clusters.
    pub fn gpu_probe_count(&self) -> usize {
        self.shard_probes_global.iter().map(Vec::len).sum()
    }

    /// Total probes (GPU + CPU) — conserved from the input list.
    pub fn total_probes(&self) -> usize {
        self.gpu_probe_count() + self.cpu_probes.len()
    }

    /// The query's hit rate against the cache: GPU probes / total probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_probes();
        if total == 0 {
            0.0
        } else {
            self.gpu_probe_count() as f64 / total as f64
        }
    }
}

impl IndexSplit {
    /// Routes one query's probe list.
    ///
    /// # Examples
    ///
    /// ```
    /// use vlite_core::{AccessProfile, IndexSplit};
    /// use vlite_workload::DatasetPreset;
    ///
    /// let preset = DatasetPreset::tiny();
    /// let wl = preset.workload(13);
    /// let profile = AccessProfile::from_workload(&preset, &wl, 1_000, 13);
    /// let split = IndexSplit::build(&profile, 0.2, 2);
    /// let routed = split.route(&[0, 1, 2, 3]);
    /// assert_eq!(routed.total_probes(), 4);
    /// ```
    pub fn route(&self, probes: &[u32]) -> RoutedQuery {
        let mut shard_probes_global: Vec<Vec<u32>> = vec![Vec::new(); self.n_shards()];
        let mut cpu_probes = Vec::new();
        for &cluster in probes {
            match self.placement(cluster) {
                Placement::Cpu => cpu_probes.push(cluster),
                Placement::Gpu { shard } => shard_probes_global[usize::from(shard)].push(cluster),
            }
        }
        RoutedQuery {
            shard_probes_global,
            cpu_probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AccessProfile, IndexSplit};
    use vlite_workload::DatasetPreset;

    fn split(coverage: f64, shards: usize) -> (IndexSplit, AccessProfile) {
        let preset = DatasetPreset::tiny();
        let wl = preset.workload(13);
        let profile = AccessProfile::from_workload(&preset, &wl, 2000, 13);
        (IndexSplit::build(&profile, coverage, shards), profile)
    }

    #[test]
    fn probes_are_conserved_exactly_once() {
        let (split, profile) = split(0.25, 4);
        let probes: Vec<u32> = (0..profile.nlist() as u32).step_by(3).collect();
        let routed = split.route(&probes);
        assert_eq!(routed.total_probes(), probes.len());
        // Global ids across CPU + shards reproduce the input as a set.
        let mut all: Vec<u32> = routed.cpu_probes.clone();
        for list in &routed.shard_probes_global {
            all.extend(list);
        }
        all.sort_unstable();
        let mut expected = probes.clone();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn zero_coverage_routes_everything_to_cpu() {
        let (split, _) = split(0.0, 2);
        let routed = split.route(&[1, 2, 3]);
        assert_eq!(routed.cpu_probes, vec![1, 2, 3]);
        assert_eq!(routed.gpu_probe_count(), 0);
        assert_eq!(routed.hit_rate(), 0.0);
    }

    #[test]
    fn full_coverage_routes_everything_to_gpus() {
        let (split, profile) = split(1.0, 2);
        let probes: Vec<u32> = (0..profile.nlist() as u32).step_by(7).collect();
        let routed = split.route(&probes);
        assert!(routed.cpu_probes.is_empty());
        assert_eq!(routed.hit_rate(), 1.0);
    }

    #[test]
    fn pruning_reduces_per_shard_probe_counts() {
        // Routing's whole point: each shard sees only its own clusters,
        // so per-shard nprobe ≪ total nprobe.
        let (split, profile) = split(0.4, 4);
        let probes: Vec<u32> = (0..profile.nlist() as u32).collect();
        let routed = split.route(&probes);
        for list in &routed.shard_probes_global {
            assert!(list.len() < probes.len() / 2, "shard probe list not pruned");
        }
    }

    #[test]
    fn empty_probe_list_routes_empty() {
        let (split, _) = split(0.2, 2);
        let routed = split.route(&[]);
        assert_eq!(routed.total_probes(), 0);
        assert_eq!(routed.hit_rate(), 0.0);
    }
}
