//! Retrieval quality metrics: recall@k and NDCG@k.
//!
//! The paper tunes `nprobe` to hit an average retrieval quality of
//! 0.91 NDCG@50 against exact search (§V-A); these metrics let the
//! reproduction verify its indexes reach comparable operating points.

use crate::Neighbor;

/// Fraction of the true top-k ids present in the approximate top-k.
///
/// # Panics
///
/// Panics if `truth` is empty.
///
/// # Examples
///
/// ```
/// use vlite_ann::{eval::recall_at_k, Neighbor};
///
/// let truth = vec![Neighbor::new(1, 0.1), Neighbor::new(2, 0.2)];
/// let approx = vec![Neighbor::new(2, 0.2), Neighbor::new(9, 0.3)];
/// assert_eq!(recall_at_k(&truth, &approx, 2), 0.5);
/// ```
pub fn recall_at_k(truth: &[Neighbor], approx: &[Neighbor], k: usize) -> f64 {
    assert!(!truth.is_empty(), "ground truth must be non-empty");
    let k = k.min(truth.len());
    let truth_ids: Vec<u64> = truth.iter().take(k).map(|n| n.id).collect();
    let hits = approx
        .iter()
        .take(k)
        .filter(|n| truth_ids.contains(&n.id))
        .count();
    hits as f64 / k as f64
}

/// Normalized discounted cumulative gain at `k`, with binary relevance: a
/// returned id is relevant iff it appears in the true top-k.
///
/// Returns 1.0 when the approximate ranking contains the entire true top-k
/// in any order of the first k positions with ideal positioning, and less
/// as relevant items are missed or pushed down the ranking.
///
/// # Panics
///
/// Panics if `truth` is empty.
///
/// # Examples
///
/// ```
/// use vlite_ann::{eval::ndcg_at_k, Neighbor};
///
/// let truth = vec![Neighbor::new(1, 0.1), Neighbor::new(2, 0.2)];
/// // Perfect ranking.
/// assert_eq!(ndcg_at_k(&truth, &truth, 2), 1.0);
/// ```
pub fn ndcg_at_k(truth: &[Neighbor], approx: &[Neighbor], k: usize) -> f64 {
    assert!(!truth.is_empty(), "ground truth must be non-empty");
    let k = k.min(truth.len());
    let truth_ids: Vec<u64> = truth.iter().take(k).map(|n| n.id).collect();
    let dcg: f64 = approx
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, n)| {
            if truth_ids.contains(&n.id) {
                1.0 / ((i + 2) as f64).log2()
            } else {
                0.0
            }
        })
        .sum();
    let ideal: f64 = (0..k).map(|i| 1.0 / ((i + 2) as f64).log2()).sum();
    dcg / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(ids: &[u64]) -> Vec<Neighbor> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Neighbor::new(id, i as f32))
            .collect()
    }

    #[test]
    fn perfect_recall_and_ndcg() {
        let truth = nb(&[1, 2, 3, 4]);
        assert_eq!(recall_at_k(&truth, &truth, 4), 1.0);
        assert_eq!(ndcg_at_k(&truth, &truth, 4), 1.0);
    }

    #[test]
    fn recall_counts_set_overlap() {
        let truth = nb(&[1, 2, 3, 4]);
        let approx = nb(&[4, 3, 9, 8]);
        assert_eq!(recall_at_k(&truth, &approx, 4), 0.5);
    }

    #[test]
    fn ndcg_penalizes_low_positions() {
        let truth = nb(&[1, 2]);
        let front = nb(&[1, 9]);
        let back = nb(&[9, 1]);
        assert!(ndcg_at_k(&truth, &front, 2) > ndcg_at_k(&truth, &back, 2));
    }

    #[test]
    fn ndcg_zero_when_nothing_relevant() {
        let truth = nb(&[1, 2]);
        let approx = nb(&[8, 9]);
        assert_eq!(ndcg_at_k(&truth, &approx, 2), 0.0);
    }

    #[test]
    fn short_approx_lists_are_partial() {
        let truth = nb(&[1, 2, 3, 4]);
        let approx = nb(&[1]);
        assert_eq!(recall_at_k(&truth, &approx, 4), 0.25);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_truth_rejected() {
        recall_at_k(&[], &nb(&[1]), 1);
    }
}
