//! The hybrid dispatcher (§IV-B2), one-shot form.
//!
//! Moved here from `vlite-core`'s `real.rs` prototype: one scoped worker
//! per shard ("GPU") scans its pruned probe lists for the whole batch, one
//! more scans the cold probes, each returns its partials through its join
//! handle, and the caller merges and re-ranks every query.
//! [`RagServer`](crate::RagServer) runs the same fan-out and gather with
//! *persistent* workers; this free-standing form serves ad-hoc batches
//! against a [`RealDeployment`] without spinning up the full runtime.

use vlite_ann::{merge_sorted, Neighbor, VecSet};
use vlite_core::{RealDeployment, RoutedQuery};

/// Outcome of one dispatched batch.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// Final merged top-k per query (input order).
    pub results: Vec<Vec<Neighbor>>,
}

/// Hybrid batched search through the one-shot dispatcher against a built
/// deployment. Returns the final top-k per query.
///
/// # Panics
///
/// Panics if `queries` is empty, and as [`run_dispatcher`].
pub fn hybrid_search_batch(deployment: &RealDeployment, queries: &VecSet) -> DispatchOutcome {
    assert!(!queries.is_empty(), "batch must be non-empty");
    let routed: Vec<RoutedQuery> = queries
        .iter()
        .map(|q| deployment.router.route(&deployment.probe_global(q)))
        .collect();
    run_dispatcher(&deployment.index, queries, &routed, deployment.config.top_k)
}

/// Runs one batch through `n_shards + 1` scoped scan workers — one per
/// shard, then one for the cold probes — and merges their partials.
///
/// Scans use *global* cluster ids (`shard_probes_global`), so the result is
/// identical to a single-path scan of the union probe list — routing only
/// changes who scans what, never what is scanned.
///
/// # Panics
///
/// Re-raises the panic of a worker whose scan panicked, once every worker
/// has finished.
pub fn run_dispatcher(
    index: &vlite_ann::IvfIndex,
    queries: &VecSet,
    routed: &[RoutedQuery],
    k: usize,
) -> DispatchOutcome {
    let n_shards = routed.first().map_or(0, |r| r.shard_probes.len());
    let mut shares: Vec<Vec<Vec<Neighbor>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..=n_shards)
            .map(|worker| {
                scope.spawn(move || {
                    (0..queries.len())
                        .map(|qi| {
                            let lists = if worker < n_shards {
                                &routed[qi].shard_probes_global[worker]
                            } else {
                                &routed[qi].cpu_probes
                            };
                            if lists.is_empty() {
                                Vec::new()
                            } else {
                                index.scan_lists(queries.get(qi), lists, k)
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let results = (0..queries.len())
        .map(|qi| {
            let lists: Vec<Vec<Neighbor>> = shares
                .iter_mut()
                .map(|share| std::mem::take(&mut share[qi]))
                .collect();
            merge_sorted(&lists, k)
        })
        .collect();
    DispatchOutcome { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_core::RealConfig;
    use vlite_workload::{CorpusConfig, SyntheticCorpus};

    fn corpus() -> SyntheticCorpus {
        SyntheticCorpus::generate(&CorpusConfig {
            n_vectors: 6000,
            dim: 16,
            n_centers: 32,
            zipf_exponent: 1.2,
            noise: 0.25,
            seed: 9,
        })
    }

    fn deployment() -> RealDeployment {
        RealDeployment::build(&corpus(), RealConfig::small()).expect("build succeeds")
    }

    #[test]
    fn hybrid_results_match_plain_search_exactly() {
        // Routing partitions the probe list; scanning hot lists on shard
        // workers and cold lists on the CPU must reproduce the single-path
        // scan exactly after the merge.
        let d = deployment();
        let queries = corpus().queries(12, 77);
        let outcome = hybrid_search_batch(&d, &queries);
        assert_eq!(outcome.results.len(), queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let plain = d.search_flat_path(q);
            assert_eq!(outcome.results[qi], plain, "query {qi} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "wrong dimensionality")]
    fn a_panicking_worker_propagates_out_of_the_dispatcher() {
        let d = deployment();
        let good = corpus().queries(1, 31);
        let routed = vec![d.router.route(&d.probe_global(good.get(0)))];
        let mut wrong_dim = VecSet::with_capacity(d.index.dim() / 2, 1);
        wrong_dim.push(&good.get(0)[..d.index.dim() / 2]);
        run_dispatcher(&d.index, &wrong_dim, &routed, d.config.top_k);
    }
}
