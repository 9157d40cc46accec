//! Integration: `IndexSplit::route` pruning invariants over a *real* IVF
//! index's probe lists (the unit tests cover modeled workloads; this ties
//! the cluster → shard table to actual coarse-quantizer output).
//!
//! Invariants:
//! - every probe lands on exactly one destination (one shard or the CPU);
//! - pruning: a shard never receives a cluster it does not host.

use vectorlite_rag::core::{IndexSplit, Placement, RealConfig, RealDeployment};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn deployment(coverage: Option<f64>, n_shards: usize) -> (SyntheticCorpus, RealDeployment) {
    let corpus = SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 8_000,
        dim: 16,
        n_centers: 32,
        zipf_exponent: 1.1,
        noise: 0.25,
        seed: 77,
    });
    let mut config = RealConfig::small();
    config.ivf = vectorlite_rag::ann::IvfConfig::new(64);
    config.n_shards = n_shards;
    config.coverage_override = coverage;
    let deployment = RealDeployment::build(&corpus, config).expect("builds");
    (corpus, deployment)
}

#[test]
fn every_real_probe_lands_on_exactly_one_destination() {
    let (corpus, d) = deployment(Some(0.3), 3);
    let queries = corpus.queries(64, 5);
    for q in queries.iter() {
        let probes = d.probe_global(q);
        let routed = d.router.route(&probes);

        // Conservation: counts match exactly.
        assert_eq!(routed.total_probes(), probes.len());

        // Exactly-once: the multiset of routed global ids equals the input.
        let mut all: Vec<u32> = routed.cpu_probes.clone();
        for list in &routed.shard_probes_global {
            all.extend(list);
        }
        let mut expected = probes.clone();
        all.sort_unstable();
        expected.sort_unstable();
        assert_eq!(all, expected);

        // Placement agreement: CPU probes are cold, shard probes are hot
        // on exactly the shard that received them.
        for &c in &routed.cpu_probes {
            assert_eq!(d.router.placement(c), Placement::Cpu, "cluster {c}");
        }
        for (shard, globals) in routed.shard_probes_global.iter().enumerate() {
            for &c in globals {
                match d.router.placement(c) {
                    Placement::Gpu { shard: s } => {
                        assert_eq!(usize::from(s), shard, "cluster {c} on the wrong shard")
                    }
                    Placement::Cpu => panic!("cold cluster {c} sent to shard {shard}"),
                }
            }
        }
    }
}

#[test]
fn pruning_holds_for_every_coverage_and_shard_count() {
    let (corpus, d) = deployment(None, 2);
    let queries = corpus.queries(16, 21);
    for &coverage in &[0.0, 0.15, 0.5, 1.0] {
        for shards in 1..=4usize {
            let split = IndexSplit::build(&d.profile, coverage, shards);
            for q in queries.iter() {
                let probes = d.probe_global(q);
                let routed = split.route(&probes);
                assert_eq!(routed.total_probes(), probes.len());
                // Per-shard lists never exceed what the shard hosts.
                for (shard, list) in routed.shard_probes_global.iter().enumerate() {
                    assert!(
                        list.len() <= split.shard_clusters(shard).len(),
                        "shard {shard} got more probes than resident clusters"
                    );
                }
                if coverage == 0.0 {
                    assert_eq!(routed.gpu_probe_count(), 0);
                    assert_eq!(split.hot_count(), 0);
                }
                if coverage == 1.0 {
                    assert!(routed.cpu_probes.is_empty());
                }
            }
        }
    }
}
