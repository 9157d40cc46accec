//! Span-tree primitives for causal request tracing — the runtime's only
//! per-request store.
//!
//! A *trace* is identified by a 128-bit id and holds a list of spans; each
//! span names a stage of work with `[start_s, end_s]` boundaries, an
//! optional parent span (forming a tree), and zero or more *links* to other
//! trace ids that causally interacted with it — the batch a request rode
//! in, the requests a migration stalled. The store is bounded three ways:
//!
//! - once more than `capacity` ordinary traces are held, whole oldest
//!   traces are evicted (a trace is only useful complete — evicting
//!   individual spans would leave dangling parents);
//! - trees recorded as *kept* (shed, slow or target-missing requests) sit
//!   in their own queue of `kept_capacity` trees, so a flood of fast
//!   requests never evicts an outlier; the traces a kept tree links (its
//!   batch, one per request) ride with it, in no queue, until no kept tree
//!   links them;
//! - one trace holds at most [`MAX_SPANS_PER_TRACE`] spans: the key is a
//!   client-supplied id, and a client reusing one id must not grow a single
//!   trace without limit. A tree that would cross the cap is dropped whole
//!   and its spans counted.
//!
//! The recording side lives in `vlite-serve`; this module owns the data
//! model, the bounded store, and the well-formedness checker that the
//! property tests drive.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Most spans one trace may hold. A request tree is 3–7 spans and a batch
/// trace a handful, so only a client replaying one `traceparent` id for
/// dozens of requests ever reaches it.
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// One recorded span of work inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The 128-bit trace this span belongs to.
    pub trace_id: u128,
    /// Id unique within the process (not just the trace).
    pub span_id: u64,
    /// Parent span id within the same trace; `None` for a root span.
    pub parent_id: Option<u64>,
    /// Stage name, e.g. `request`, `queue`, `batch`, `scan:shard0`. Every
    /// per-request name is static, so recording a request allocates none.
    pub name: Cow<'static, str>,
    /// Start boundary in seconds since the serving epoch.
    pub start_s: f64,
    /// End boundary in seconds since the serving epoch (`>= start_s`).
    pub end_s: f64,
    /// Trace ids causally linked to this span (co-batched requests, the
    /// batch a migration stalled, ...).
    pub links: Vec<u128>,
    /// On a `request` root span: the request id and tenant index it served
    /// (what a listing of requests shows). `None` on every other span.
    pub request: Option<(u64, u16)>,
}

struct Held {
    spans: Vec<SpanRecord>,
    /// A kept tree or a trace riding with one (not in `recent`).
    kept: bool,
}

#[derive(Default)]
struct Inner {
    traces: HashMap<u128, Held>,
    /// Ordinary trace ids in first-recorded order; the eviction queue.
    recent: VecDeque<u128>,
    /// Kept tree ids in the order they were kept, each with the traces
    /// riding with it; evicted only by newer kept trees.
    kept: VecDeque<(u128, Vec<u128>)>,
    stats: StoreStats,
}

/// Occupancy and loss counters of a [`SpanStore`], read under one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Ordinary traces currently held.
    pub recent: usize,
    /// Kept traces (trees and their riders) currently held.
    pub kept: usize,
    /// Whole ordinary traces evicted (or dropped at capacity 0) so far.
    pub recent_evicted: u64,
    /// Whole kept traces evicted by newer kept trees so far.
    pub kept_evicted: u64,
    /// Spans dropped because their trace was at [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u64,
}

/// Bounded, thread-safe store of span trees keyed by trace id.
pub struct SpanStore {
    inner: Mutex<Inner>,
    capacity: usize,
    kept_capacity: usize,
}

impl Inner {
    /// Moves a held trace out of the ordinary queue (a no-op for a trace
    /// already kept). Returns whether the trace is held.
    fn take_kept(&mut self, trace_id: u128) -> bool {
        let Some(held) = self.traces.get_mut(&trace_id) else {
            return false;
        };
        if !held.kept {
            held.kept = true;
            self.recent.retain(|id| *id != trace_id);
        }
        true
    }

    /// Evicts the oldest kept tree and every trace riding only with it.
    fn evict_kept(&mut self) {
        let Some((tree, riders)) = self.kept.pop_front() else {
            return;
        };
        for id in std::iter::once(tree).chain(riders) {
            let still_kept = (self.kept.iter()).any(|(t, r)| *t == id || r.contains(&id));
            if !still_kept && self.traces.remove(&id).is_some() {
                self.stats.kept_evicted += 1;
            }
        }
    }
}

impl SpanStore {
    /// Poison-recovering lock: span recording must keep working after an
    /// unrelated panic, and every critical section leaves `Inner` whole.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A store holding at most `capacity` ordinary traces plus
    /// `kept_capacity` kept trees and the traces riding with them. A
    /// capacity of `0` drops every trace of that kind (counting each as an
    /// eviction).
    pub fn new(capacity: usize, kept_capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            kept_capacity,
        }
    }

    /// Records one span into its trace (ordinary unless already kept).
    pub fn record(&self, span: SpanRecord) {
        self.record_tree(span.trace_id, vec![span], false);
    }

    /// Records `spans` — one whole tree of trace `trace_id` — under one
    /// lock acquisition, so a reader sees all of the tree or none of it.
    /// A new ordinary trace beyond capacity evicts the oldest whole one.
    /// With `keep`, the trace takes the newest kept slot (evicting the
    /// oldest kept tree beyond capacity) and every held trace its spans
    /// link rides with it. A tree that would push the trace past
    /// [`MAX_SPANS_PER_TRACE`] is dropped whole and counted.
    pub fn record_tree(&self, trace_id: u128, spans: Vec<SpanRecord>, keep: bool) {
        // Only a kept tree (shed, slow, or past a target it is judged by)
        // walks its links.
        let links: Vec<u128> = if keep {
            spans.iter().flat_map(|s| &s.links).copied().collect()
        } else {
            Vec::new()
        };
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut riders = Vec::new();
        if let Some(held) = inner.traces.get_mut(&trace_id) {
            if held.spans.len() + spans.len() > MAX_SPANS_PER_TRACE {
                inner.stats.dropped_spans += spans.len() as u64;
                return;
            }
            held.spans.extend(spans);
            if !keep {
                return;
            }
            inner.take_kept(trace_id);
            // A kept tree kept again moves to the newest slot, riders and all.
            if let Some(i) = inner.kept.iter().position(|(t, _)| *t == trace_id) {
                riders = inner.kept.remove(i).map_or_else(Vec::new, |(_, r)| r);
            }
        } else if keep {
            inner.traces.insert(trace_id, Held { spans, kept: true });
        } else {
            while inner.recent.len() >= self.capacity {
                inner.stats.recent_evicted += 1;
                let Some(oldest) = inner.recent.pop_front() else {
                    return; // capacity 0: the new trace itself is the loss
                };
                inner.traces.remove(&oldest);
            }
            inner.recent.push_back(trace_id);
            // The caller's Vec becomes the trace: a fresh request costs no
            // copy and no second allocation.
            inner.traces.insert(trace_id, Held { spans, kept: false });
            return;
        }
        // The links board before the tree takes its slot, so the eviction
        // that makes room cannot drop a trace this tree links.
        for link in links {
            if link != trace_id && !riders.contains(&link) && inner.take_kept(link) {
                riders.push(link);
            }
        }
        inner.kept.push_back((trace_id, riders));
        while inner.kept.len() > self.kept_capacity {
            inner.evict_kept();
        }
    }

    /// All spans recorded for `trace_id`, in recording order.
    pub fn get(&self, trace_id: u128) -> Option<Vec<SpanRecord>> {
        self.lock()
            .traces
            .get(&trace_id)
            .map(|held| held.spans.clone())
    }

    /// Calls `visit(spans, kept)` on every ordinary trace, oldest first,
    /// then on every kept tree (not on its riders) — under the store lock,
    /// so `visit` should copy what it needs and return.
    pub fn for_each(&self, mut visit: impl FnMut(&[SpanRecord], bool)) {
        let inner = self.lock();
        for id in inner
            .recent
            .iter()
            .chain(inner.kept.iter().map(|(tree, _)| tree))
        {
            if let Some(held) = inner.traces.get(id) {
                visit(&held.spans, held.kept);
            }
        }
    }

    /// Occupancy and loss counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            recent: inner.recent.len(),
            // Riders sit in no queue: every held trace not in the ordinary
            // queue is kept.
            kept: inner.traces.len() - inner.recent.len(),
            ..inner.stats
        }
    }
}

/// Renders a trace id as the 32-digit lowercase hex W3C form.
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parses a 32-digit hex trace id (the W3C `trace-id` field).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Tolerance when comparing span boundaries: recorded times are f64
/// seconds derived from integer nanoseconds, so equal instants compare
/// equal, but allow for one ulp of drift from unit conversion.
const NEST_EPS: f64 = 1e-9;

/// Checks that `spans` form a well-formed tree for one trace and returns a
/// human-readable description of every violation found (empty = valid).
///
/// Checked invariants:
/// - every span's `end_s >= start_s`;
/// - span ids are unique within the trace;
/// - every `parent_id` refers to a span in the list;
/// - every child's interval nests within its parent's interval;
/// - parent links are acyclic (a root is reachable from every span).
pub fn tree_violations(spans: &[SpanRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
    for span in spans {
        if span.end_s < span.start_s {
            violations.push(format!(
                "span {} `{}` ends before it starts ({} < {})",
                span.span_id, span.name, span.end_s, span.start_s
            ));
        }
        if by_id.insert(span.span_id, span).is_some() {
            violations.push(format!("duplicate span id {}", span.span_id));
        }
    }
    for span in spans {
        let Some(parent_id) = span.parent_id else {
            continue;
        };
        let Some(parent) = by_id.get(&parent_id) else {
            violations.push(format!(
                "span {} `{}` references missing parent {}",
                span.span_id, span.name, parent_id
            ));
            continue;
        };
        if span.start_s + NEST_EPS < parent.start_s || span.end_s > parent.end_s + NEST_EPS {
            violations.push(format!(
                "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                span.span_id,
                span.name,
                span.start_s,
                span.end_s,
                parent.span_id,
                parent.name,
                parent.start_s,
                parent.end_s
            ));
        }
    }
    // Cycle check: walk each span's parent chain; a well-formed chain
    // terminates at a root within len(spans) hops.
    for span in spans {
        let mut hops = 0usize;
        let mut cursor = span;
        while let Some(parent_id) = cursor.parent_id {
            let Some(parent) = by_id.get(&parent_id) else {
                break; // already reported as a missing parent
            };
            cursor = parent;
            hops += 1;
            if hops > spans.len() {
                violations.push(format!(
                    "span {} `{}` sits on a parent cycle",
                    span.span_id, span.name
                ));
                break;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u128, id: u64, parent: Option<u64>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: format!("s{id}").into(),
            start_s: start,
            end_s: end,
            links: Vec::new(),
            request: None,
        }
    }

    #[test]
    fn store_keeps_whole_traces_and_evicts_oldest() {
        let store = SpanStore::new(2, 1);
        store.record(span(1, 10, None, 0.0, 1.0));
        store.record(span(1, 11, Some(10), 0.2, 0.8));
        store.record(span(2, 20, None, 0.0, 1.0));
        assert_eq!((store.stats().recent, store.stats().recent_evicted), (2, 0));

        store.record(span(3, 30, None, 0.0, 1.0));
        assert_eq!((store.stats().recent, store.stats().recent_evicted), (2, 1));
        assert!(store.get(1).is_none(), "oldest trace evicted whole");
        assert_eq!(store.get(2).expect("trace 2 kept").len(), 1);
        assert_eq!(store.get(3).expect("trace 3 kept").len(), 1);

        // Appending to a *held* trace never evicts.
        store.record(span(2, 21, Some(20), 0.1, 0.9));
        assert_eq!(store.stats().recent_evicted, 1);
        assert_eq!(store.get(2).expect("trace 2 kept").len(), 2);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let store = SpanStore::new(0, 0);
        store.record(span(1, 1, None, 0.0, 1.0));
        store.record_tree(2, vec![span(2, 2, None, 0.0, 1.0)], true);
        let stats = store.stats();
        assert_eq!((stats.recent, stats.kept), (0, 0));
        assert_eq!((stats.recent_evicted, stats.kept_evicted), (1, 1));
        assert!(store.get(1).is_none() && store.get(2).is_none());
    }

    /// The kept trees `for_each` visits, in its order.
    fn kept_ids(store: &SpanStore) -> Vec<u128> {
        let mut ids = Vec::new();
        store.for_each(|spans, kept| ids.extend(kept.then_some(spans[0].trace_id)));
        ids
    }

    #[test]
    fn kept_trees_and_the_traces_they_link_survive_a_flood() {
        let store = SpanStore::new(4, 2);
        let root = |trace: u128| span(trace, trace as u64, None, 0.0, 1.0);
        let linking = |trace: u128, link: u128| SpanRecord {
            links: vec![link],
            ..span(trace, 1_000 + trace as u64, Some(trace as u64), 0.0, 1.0)
        };
        // A batch trace recorded as ordinary, then a kept request linking
        // it: the batch rides with the request.
        store.record(root(100));
        store.record_tree(7, vec![root(7), linking(7, 100)], true);
        assert_eq!((store.stats().recent, store.stats().kept), (0, 2));

        // Twice the ordinary capacity of newer traces evicts neither, and
        // an ordinary write to a riding trace appends without demoting it.
        for id in 10..18 {
            store.record(root(id));
        }
        store.record(span(100, 1, Some(100), 0.2, 0.4));
        assert_eq!(store.get(7).expect("kept request").len(), 2);
        assert_eq!(store.get(100).expect("its batch").len(), 2);
        assert_eq!(store.stats().recent_evicted, 4);

        // A second kept request linking the same batch takes the second
        // kept slot; the batch takes none.
        store.record_tree(8, vec![root(8), linking(8, 100)], true);
        assert_eq!(kept_ids(&store), vec![7, 8]);
        assert_eq!((store.stats().kept, store.stats().kept_evicted), (3, 0));

        // Only newer kept trees evict kept ones, oldest first, and the
        // batch stays while any tree linking it does.
        store.record_tree(9, vec![root(9)], true);
        assert_eq!(kept_ids(&store), vec![8, 9], "request 7 was the oldest");
        assert!(store.get(100).is_some(), "request 8 still links the batch");
        store.record_tree(6, vec![root(6)], true);
        assert_eq!(kept_ids(&store), vec![9, 6]);
        assert!(store.get(100).is_none(), "the batch left with request 8");
        assert_eq!(store.stats().kept_evicted, 3);

        // An ordinary trace becomes kept when a later tree says so.
        store.record_tree(17, vec![linking(17, 0)], true);
        assert_eq!(store.get(17).expect("promoted").len(), 2);
        assert_eq!((store.stats().recent, store.stats().kept), (3, 2));
    }

    #[test]
    fn a_burst_of_kept_trees_keeps_the_newest_trees_and_every_batch_they_link() {
        const KEPT: u128 = 64;
        let store = SpanStore::new(512, KEPT as usize);
        // Two batch traces, recorded before their members finish.
        let batches = [1u128 << 64, 2 << 64];
        for (i, &batch) in batches.iter().enumerate() {
            store.record(span(batch, 10_000 + i as u64, None, 0.0, 1.0));
        }
        for t in 0..2 * KEPT {
            let search = SpanRecord {
                links: vec![batches[t as usize % 2]],
                ..span(t, 2 * t as u64 + 1, Some(2 * t as u64), 0.0, 1.0)
            };
            store.record_tree(t, vec![span(t, 2 * t as u64, None, 0.0, 1.0), search], true);
        }
        let held: Vec<u128> = (0..2 * KEPT).filter(|&t| store.get(t).is_some()).collect();
        assert_eq!(
            held,
            (KEPT..2 * KEPT).collect::<Vec<_>>(),
            "the newest trees"
        );
        for batch in batches {
            assert!(store.get(batch).is_some(), "batch {batch:x} rides along");
        }
        let stats = store.stats();
        assert_eq!(
            (stats.recent, stats.kept, stats.kept_evicted),
            (0, KEPT as usize + 2, KEPT as u64)
        );
    }

    #[test]
    fn a_trace_at_the_span_cap_drops_whole_trees_and_counts_them() {
        let store = SpanStore::new(2, 1);
        let tree = |n: u64| {
            vec![
                span(9, n, None, 0.0, 1.0),
                span(9, n + 1, Some(n), 0.0, 1.0),
            ]
        };
        for n in 0..(MAX_SPANS_PER_TRACE as u64 / 2) {
            store.record_tree(9, tree(2 * n), false);
        }
        store.record_tree(9, tree(10_000), false);
        store.record(span(9, 20_000, None, 0.0, 1.0));
        let spans = store.get(9).expect("still held");
        assert_eq!(spans.len(), MAX_SPANS_PER_TRACE, "nothing past the cap");
        assert!(tree_violations(&spans).is_empty(), "no half-recorded tree");
        assert_eq!(store.stats().dropped_spans, 3);
    }

    #[test]
    fn trace_id_hex_round_trips() {
        let id = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128;
        let hex = format_trace_id(id);
        assert_eq!(hex, "0102030405060708090a0b0c0d0e0f10");
        assert_eq!(parse_trace_id(&hex), Some(id));
        assert_eq!(parse_trace_id("0102"), None, "short ids rejected");
        assert_eq!(
            parse_trace_id("zz02030405060708090a0b0c0d0e0f10"),
            None,
            "non-hex rejected"
        );
    }

    #[test]
    fn well_formed_tree_has_no_violations() {
        let spans = vec![
            span(1, 1, None, 0.0, 10.0),
            span(1, 2, Some(1), 0.0, 4.0),
            span(1, 3, Some(1), 4.0, 10.0),
            span(1, 4, Some(3), 4.0, 6.0),
        ];
        assert!(tree_violations(&spans).is_empty());
    }

    #[test]
    fn violations_are_detected() {
        let inverted = vec![span(1, 1, None, 5.0, 1.0)];
        assert_eq!(tree_violations(&inverted).len(), 1);

        let dangling = vec![span(1, 1, Some(99), 0.0, 1.0)];
        assert!(tree_violations(&dangling)
            .iter()
            .any(|v| v.contains("missing parent")));

        let escaping = vec![span(1, 1, None, 2.0, 3.0), span(1, 2, Some(1), 0.0, 5.0)];
        assert!(tree_violations(&escaping)
            .iter()
            .any(|v| v.contains("escapes parent")));

        let mut duplicate = vec![span(1, 7, None, 0.0, 1.0)];
        duplicate.push(span(1, 7, None, 0.0, 1.0));
        assert!(tree_violations(&duplicate)
            .iter()
            .any(|v| v.contains("duplicate span id")));

        let cyclic = vec![span(1, 1, Some(2), 0.0, 1.0), span(1, 2, Some(1), 0.0, 1.0)];
        assert!(tree_violations(&cyclic)
            .iter()
            .any(|v| v.contains("parent cycle")));
    }
}
