//! Output checks. A run that fails any of them reports no numbers: a
//! faster wrong answer is not a result.

use vlite_ann::{eval, FlatIndex, Metric, Neighbor, VecSet};
use vlite_serve::SearchResponse;

use crate::env;
use crate::workload::TOP_K;

/// Every kept reply must hold exactly `TOP_K` neighbours with distinct
/// ids, nearest first. Returns the first violation.
pub fn well_formed(kept: &[(usize, SearchResponse)]) -> Result<(), String> {
    for (query, reply) in kept {
        let n = &reply.neighbors;
        if n.len() != TOP_K {
            return Err(format!(
                "query {query}: {} neighbours, expected {TOP_K}",
                n.len()
            ));
        }
        if n.windows(2).any(|w| w[0].distance > w[1].distance) {
            return Err(format!("query {query}: distances decrease"));
        }
        let mut ids: Vec<u64> = n.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != TOP_K {
            return Err(format!("query {query}: duplicate neighbour ids"));
        }
    }
    Ok(())
}

/// Mean recall@10 of the kept replies against exact search over the
/// corpus.
pub fn recall_at_10(
    vectors: VecSet,
    queries: &[Vec<f32>],
    kept: &[(usize, SearchResponse)],
) -> f64 {
    if kept.is_empty() {
        return 0.0;
    }
    let mut batch = VecSet::with_capacity(vectors.dim(), kept.len());
    for (query, _) in kept {
        batch.push(&queries[*query]);
    }
    let truth: Vec<Vec<Neighbor>> =
        FlatIndex::new(vectors, Metric::L2).search_batch(&batch, TOP_K, env::nproc());
    let total: f64 = kept
        .iter()
        .zip(&truth)
        .map(|((_, reply), truth)| eval::recall_at_k(truth, &reply.neighbors, TOP_K))
        .sum();
    total / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_serve::{RequestTimings, TenantId, TraceId};

    fn reply(neighbors: Vec<Neighbor>) -> (usize, SearchResponse) {
        let response = SearchResponse {
            id: 0,
            tenant: TenantId(0),
            neighbors,
            timings: RequestTimings {
                queue: 0.0,
                search: 0.0,
                e2e: 0.0,
                generation: None,
            },
            hit_rate: 0.0,
            generation: 0,
            trace: TraceId(1),
        };
        (0, response)
    }

    fn ramp() -> Vec<Neighbor> {
        (0..TOP_K as u64)
            .map(|i| Neighbor::new(i, i as f32))
            .collect()
    }

    #[test]
    fn malformed_replies_are_caught() {
        assert!(well_formed(&[reply(ramp())]).is_ok());
        let mut short = ramp();
        short.pop();
        assert!(well_formed(&[reply(short)]).is_err());
        let mut dup = ramp();
        dup[1].id = 0;
        assert!(well_formed(&[reply(dup)]).is_err());
        let mut unsorted = ramp();
        unsorted.swap(2, 3);
        assert!(well_formed(&[reply(unsorted)]).is_err());
    }

    #[test]
    fn exact_replies_have_recall_one() {
        let vectors = VecSet::from_fn(64, 4, |i, j| (i * 4 + j) as f32);
        let query = vectors.get(5).to_vec();
        let exact = FlatIndex::new(vectors.clone(), Metric::L2).search(&query, TOP_K);
        let kept = [reply(exact)];
        let queries = [query];
        assert_eq!(recall_at_10(vectors.clone(), &queries, &kept), 1.0);
        let far: Vec<Neighbor> = (50..60).map(|i| Neighbor::new(i, 0.0)).collect();
        assert_eq!(recall_at_10(vectors, &queries, &[reply(far)]), 0.0);
    }
}
