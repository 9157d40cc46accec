//! Bounded top-k selection.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One search result: a vector id and its "smaller is closer" score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the database vector.
    pub id: u64,
    /// Distance/score to the query (smaller is closer).
    pub distance: f32,
}

impl Neighbor {
    /// Creates a neighbor.
    pub fn new(id: u64, distance: f32) -> Self {
        Self { id, distance }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: distance first, id as a deterministic tie-breaker.
        self.distance
            .total_cmp(&other.distance)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Keeps the `k` smallest-distance neighbors seen so far using a bounded
/// max-heap, the standard selection structure in ANN scan loops.
///
/// # Examples
///
/// ```
/// use vlite_ann::TopK;
///
/// let mut top = TopK::new(2);
/// top.push(1, 5.0);
/// top.push(2, 1.0);
/// top.push(3, 3.0);
/// let hits = top.into_sorted();
/// assert_eq!(hits.len(), 2);
/// assert_eq!(hits[0].id, 2);
/// assert_eq!(hits[1].id, 3);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a selector for the `k` closest results.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k selection requires k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Requested result count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidates have been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current admission threshold: the k-th best distance, or `+∞` while
    /// fewer than `k` candidates are held. [`TopK::offer`] skips chunks of
    /// distances past it, and `vlite-store`'s pruned scan passes compare a
    /// cluster's lower distance bound against it to skip the whole
    /// cluster.
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.distance)
        }
    }

    /// Offers a candidate; returns `true` if it was admitted.
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        let candidate = Neighbor::new(id, distance);
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            return true;
        }
        // Rejections (most calls outside `offer`) stay one `peek` compare.
        match self.heap.peek() {
            Some(worst) if candidate < *worst => {}
            _ => return false,
        }
        // Replace the worst in place: one sift-down when the guard drops,
        // instead of a pop and a push.
        if let Some(mut worst) = self.heap.peek_mut() {
            *worst = candidate;
        }
        true
    }

    /// Offers a buffer of candidates — the admission filter of the block
    /// scan loops (a kernel fills `distances`, this admits). Eight
    /// candidates all farther than the current [`TopK::threshold`] cost
    /// one branch-free test; a chunk with any other goes element by
    /// element, where a farther candidate costs one compare and
    /// everything else goes through [`TopK::push`], which still decides
    /// ties, NaN and ±0 under the total order, so the outcome equals
    /// pushing every element.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn offer(&mut self, ids: &[u64], distances: &[f32]) {
        assert_eq!(ids.len(), distances.len());
        let mut threshold = self.threshold();
        let ((id_chunks, id_tail), (chunks, tail)) =
            (ids.as_chunks::<8>(), distances.as_chunks::<8>());
        for (ids, chunk) in id_chunks.iter().zip(chunks) {
            // Skip the chunk when every distance is past the threshold.
            // `>` is false for NaN on either side, so a NaN opens its
            // chunk: the skip is a subset of what `push` rejects.
            let all_past = chunk.iter().fold(true, |all, &d| all & (d > threshold));
            if !all_past {
                self.offer_each(ids, chunk, &mut threshold);
            }
        }
        self.offer_each(id_tail, tail, &mut threshold);
    }

    /// [`TopK::offer`]'s per-element path: one compare against
    /// `threshold` per candidate, [`TopK::push`] for the rest, and
    /// `threshold` refreshed after every admission.
    fn offer_each(&mut self, ids: &[u64], distances: &[f32], threshold: &mut f32) {
        for (&id, &distance) in ids.iter().zip(distances) {
            if distance > *threshold {
                continue;
            }
            if self.push(id, distance) {
                *threshold = self.threshold();
            }
        }
    }

    /// Merges another selector's contents into this one.
    pub fn merge(&mut self, other: TopK) {
        for n in other.heap {
            self.push(n.id, n.distance);
        }
    }

    /// Consumes the selector, returning results sorted closest-first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Merges several sorted result lists into a single sorted top-k list.
///
/// Used by the dispatcher to combine CPU and GPU partial results (paper
/// §IV-B2: "merges the CPU and GPU results, re-ranks them").
pub fn merge_sorted(lists: &[Vec<Neighbor>], k: usize) -> Vec<Neighbor> {
    let mut top = TopK::new(k);
    for list in lists {
        for n in list {
            top.push(n.id, n.distance);
        }
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut top = TopK::new(3);
        for (id, d) in [(1, 9.0), (2, 1.0), (3, 8.0), (4, 2.0), (5, 7.0), (6, 3.0)] {
            top.push(id, d);
        }
        let ids: Vec<u64> = top.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 4, 6]);
    }

    #[test]
    fn threshold_tracks_kth_distance() {
        let mut top = TopK::new(2);
        assert_eq!(top.threshold(), f32::INFINITY);
        top.push(1, 5.0);
        assert_eq!(top.threshold(), f32::INFINITY);
        top.push(2, 3.0);
        assert_eq!(top.threshold(), 5.0);
        top.push(3, 1.0);
        assert_eq!(top.threshold(), 3.0);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let mut top = TopK::new(1);
        top.push(7, 1.0);
        top.push(3, 1.0);
        assert_eq!(top.into_sorted()[0].id, 3);
    }

    #[test]
    fn rejected_candidates_return_false() {
        let mut top = TopK::new(1);
        assert!(top.push(1, 1.0));
        assert!(!top.push(2, 2.0));
        assert!(top.push(3, 0.5));
    }

    #[test]
    fn merge_combines_selectors() {
        let mut a = TopK::new(2);
        a.push(1, 1.0);
        a.push(2, 2.0);
        let mut b = TopK::new(2);
        b.push(3, 0.5);
        b.push(4, 3.0);
        a.merge(b);
        let ids: Vec<u64> = a.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    #[test]
    fn merge_sorted_lists() {
        let l1 = vec![Neighbor::new(1, 1.0), Neighbor::new(2, 4.0)];
        let l2 = vec![Neighbor::new(3, 2.0), Neighbor::new(4, 3.0)];
        let merged = merge_sorted(&[l1, l2], 3);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    /// Distances the filter must not mishandle: both zeros, both
    /// infinities, both NaN signs, and repeats (ties broken by id).
    const PALETTE: [f32; 10] = [
        f32::NAN,
        -f32::NAN,
        -0.0,
        0.0,
        1.0,
        1.0,
        2.5,
        -3.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    proptest::proptest! {
        /// `offer` over a buffer ≡ `push` of every element, in chunks of
        /// any size (whole eight-wide admission chunks, ragged tails and
        /// both across one call): equal distances with a smaller id
        /// arriving later, NaN, ±0.0 and k larger than the buffer
        /// included.
        #[test]
        fn offer_equals_pushing_every_element(
            picks in proptest::prop::collection::vec((0usize..PALETTE.len(), 0u64..6), 0..80),
            k in 1usize..48,
            chunk in 1usize..21,
        ) {
            let ids: Vec<u64> = picks.iter().map(|p| p.1).collect();
            let distances: Vec<f32> = picks.iter().map(|p| PALETTE[p.0]).collect();
            proptest::prop_assert_eq!(offered(k, &ids, &distances, chunk), pushed(k, &ids, &distances));
        }
    }

    /// `(id, distance bits)` of `top`'s results, closest first.
    fn bits(top: TopK) -> Vec<(u64, u32)> {
        top.into_sorted()
            .iter()
            .map(|n| (n.id, n.distance.to_bits()))
            .collect()
    }

    /// Every candidate through `push`, in order.
    fn pushed(k: usize, ids: &[u64], distances: &[f32]) -> Vec<(u64, u32)> {
        let mut top = TopK::new(k);
        for (&id, &d) in ids.iter().zip(distances) {
            top.push(id, d);
        }
        bits(top)
    }

    /// Every candidate through `offer`, `chunk` at a time.
    fn offered(k: usize, ids: &[u64], distances: &[f32], chunk: usize) -> Vec<(u64, u32)> {
        let mut top = TopK::new(k);
        for (ids, distances) in ids.chunks(chunk).zip(distances.chunks(chunk)) {
            top.offer(ids, distances);
        }
        bits(top)
    }

    /// One full heap (k = 2, threshold 1.0 held by id 5), then an
    /// eight-wide chunk whose only admissible candidate sits in one lane
    /// and every other lane is past the threshold: the chunk test must
    /// let it through. A tie at the threshold with a smaller id is
    /// admissible, so a chunk test of `d < threshold` would skip it, and
    /// a negative NaN is the smallest value under the total order, so a
    /// test of `d <= threshold` would skip it.
    #[test]
    fn a_lone_admissible_lane_opens_its_chunk() {
        for (lane, admissible) in [(7, 1.0), (3, -f32::NAN)] {
            let mut ids = vec![4, 5];
            let mut distances = vec![0.5, 1.0];
            for l in 0..8 {
                ids.push(if l == lane { 1 } else { 10 + l });
                distances.push(if l == lane { admissible } else { 2.0 });
            }
            let want = pushed(2, &ids, &distances);
            assert!(want.iter().any(|&(id, _)| id == 1), "lane {lane} admits");
            // The heap fills in its own call, so the chunk meets a finite
            // threshold in one eight-wide test.
            let mut top = TopK::new(2);
            top.offer(&ids[..2], &distances[..2]);
            top.offer(&ids[2..], &distances[2..]);
            assert_eq!(bits(top), want, "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        TopK::new(0);
    }
}
