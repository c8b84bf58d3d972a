//! Refcounted spanner membership.
//!
//! Spanner edges have multiple "reasons" to exist (a tree edge of the
//! shortest-path forest, the selected representative of one or two
//! inter-cluster buckets). A refcount per edge turns reason-level add /
//! remove events into exact set-level deltas: an edge is reported inserted
//! when its count leaves zero and deleted when it returns to zero, with
//! per-batch netting (an edge that bounces within one batch reports
//! nothing).

use bds_dstruct::edge_table::pack;
use bds_dstruct::EdgeTable;
use bds_graph::api::DeltaBuf;
use bds_graph::types::Edge;

#[derive(Debug, Default)]
pub struct SpannerSet {
    /// Canonical edge -> refcount (packed-key flat table; counts > 0).
    count: EdgeTable,
    /// Presence at the start of the current batch (0/1), recorded on
    /// first touch.
    baseline: EdgeTable,
}

impl SpannerSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// A set holding one reason per entry of `reasons` (an edge listed
    /// twice counts 2), with an empty baseline: what one
    /// [`SpannerSet::add`] per reason followed by a
    /// [`SpannerSet::take_delta_into`] leaves, built in bulk (sort,
    /// run-length counts, one table build).
    pub fn from_reasons(reasons: &[Edge]) -> Self {
        let mut keys: Vec<u64> = bds_par::par_map(reasons, |e| pack(e.u, e.v));
        bds_par::par_sort(&mut keys);
        let mut runs: Vec<(u64, u64)> = Vec::with_capacity(keys.len());
        for key in keys {
            match runs.last_mut() {
                Some((last, count)) if *last == key => *count += 1,
                _ => runs.push((key, 1)),
            }
        }
        Self {
            count: EdgeTable::from_sorted_batch(&runs),
            baseline: EdgeTable::new(),
        }
    }

    #[inline]
    fn touch(&mut self, e: Edge) {
        if self.baseline.get(e.u, e.v).is_none() {
            let present = self.count.contains(e.u, e.v);
            self.baseline.insert(e.u, e.v, present as u64);
        }
    }

    /// Add one reason for `e` to be in the spanner.
    pub fn add(&mut self, e: Edge) {
        self.touch(e);
        let c = self.count.get(e.u, e.v).unwrap_or(0);
        self.count.insert(e.u, e.v, c + 1);
    }

    /// Remove one reason. Panics if the count is already zero.
    pub fn remove(&mut self, e: Edge) {
        self.touch(e);
        let c = self
            .count
            .get(e.u, e.v)
            .unwrap_or_else(|| panic!("remove of uncounted {e:?}"));
        debug_assert!(c > 0, "refcount underflow for {e:?}");
        if c == 1 {
            self.count.remove(e.u, e.v);
        } else {
            self.count.insert(e.u, e.v, c - 1);
        }
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.count.contains(e.u, e.v)
    }

    /// Number of distinct spanner edges.
    pub fn len(&self) -> usize {
        self.count.len()
    }

    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        self.count
            .scan_into(&mut out, self.count.len(), 0, |u, v, _| Edge { u, v });
        out
    }

    /// Write the current membership into `out` as insertions (the
    /// [`bds_graph::api::BatchDynamic::output_into`] building block).
    pub fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for (u, v, _) in self.count.iter() {
            out.push_ins(Edge { u, v });
        }
    }

    /// Net membership changes since the last call (or construction),
    /// written into a caller-owned buffer. Allocation-free once `out`
    /// and the baseline table have warmed up — the delta path of every
    /// steady-state batch loop.
    pub fn take_delta_into(&mut self, out: &mut DeltaBuf) {
        out.clear();
        let count = &self.count;
        self.baseline.drain_with(|u, v, was| {
            let e = Edge { u, v };
            let now = count.contains(u, v);
            match (was != 0, now) {
                (false, true) => out.push_ins(e),
                (true, false) => out.push_del(e),
                _ => {}
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_netting() {
        let mut s = SpannerSet::new();
        let mut d = DeltaBuf::new();
        let e = Edge::new(0, 1);
        s.add(e);
        s.add(e); // second reason
        assert_eq!(s.len(), 1);
        s.take_delta_into(&mut d);
        assert_eq!(d.inserted(), &[e]);
        assert!(d.deleted().is_empty());

        s.remove(e);
        assert!(s.contains(e));
        s.take_delta_into(&mut d);
        assert_eq!(d.recourse(), 0, "still present: no delta");

        s.remove(e);
        s.take_delta_into(&mut d);
        assert_eq!(d.deleted(), &[e]);
        assert!(!s.contains(e));
    }

    #[test]
    fn bounce_within_batch_reports_nothing() {
        let mut s = SpannerSet::new();
        let e = Edge::new(2, 3);
        s.add(e);
        s.remove(e);
        s.add(e);
        s.remove(e);
        let mut d = DeltaBuf::new();
        s.take_delta_into(&mut d);
        assert_eq!(d.recourse(), 0);
    }

    /// The refcounts one `add` per reason leaves.
    fn by_adds(reasons: &[Edge]) -> Vec<(Edge, u64)> {
        let mut s = SpannerSet::new();
        for &e in reasons {
            s.add(e);
        }
        counts(&s)
    }

    fn counts(s: &SpannerSet) -> Vec<(Edge, u64)> {
        let mut c: Vec<(Edge, u64)> = s.count.iter().map(|(u, v, c)| (Edge { u, v }, c)).collect();
        c.sort_unstable();
        c
    }

    #[test]
    fn bulk_build_matches_one_add_per_reason() {
        // Edges with one, two and three reasons, listed out of order.
        let (a, b, c, d) = (
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 9),
            Edge::new(3, 4),
        );
        let reasons = [c, a, b, c, d, b, c];
        let mut bulk = SpannerSet::from_reasons(&reasons);
        let want = by_adds(&reasons);
        assert_eq!(counts(&bulk), want);
        assert_eq!(want, vec![(a, 1), (b, 2), (c, 3), (d, 1)]);
        let mut delta = DeltaBuf::new();
        bulk.take_delta_into(&mut delta);
        assert_eq!(
            delta.recourse(),
            0,
            "bulk build starts with an empty baseline"
        );
        // Two of c's three reasons go: it stays, and reports nothing.
        bulk.remove(c);
        bulk.remove(c);
        bulk.remove(b);
        bulk.take_delta_into(&mut delta);
        assert_eq!(delta.recourse(), 0);
        bulk.remove(c);
        bulk.take_delta_into(&mut delta);
        assert_eq!(delta.deleted(), &[c]);
    }

    #[test]
    fn bulk_build_matches_adds_on_a_large_batch() {
        // Above bds_par's GRAIN, so the sort and map run in parallel.
        let reasons: Vec<Edge> = (0..20_000u32)
            .map(|i| Edge::new(i % 997, 1_000 + i % 1_499))
            .chain((0..5_000u32).map(|i| Edge::new(i % 997, 1_000 + i % 1_499)))
            .collect();
        for threads in [1, 2] {
            let mut bulk =
                bds_par::run_with_threads(threads, || SpannerSet::from_reasons(&reasons));
            let want = by_adds(&reasons);
            assert!(want.iter().any(|&(_, c)| c >= 2));
            assert_eq!(counts(&bulk), want);
            let mut delta = DeltaBuf::new();
            bulk.take_delta_into(&mut delta);
            assert_eq!(delta.recourse(), 0);
        }
    }

    #[test]
    fn bulk_build_of_nothing_is_empty() {
        let mut s = SpannerSet::from_reasons(&[]);
        assert!(s.is_empty());
        let mut delta = DeltaBuf::new();
        s.take_delta_into(&mut delta);
        assert_eq!(delta.recourse(), 0);
    }

    #[test]
    #[should_panic(expected = "uncounted")]
    fn underflow_panics() {
        let mut s = SpannerSet::new();
        s.remove(Edge::new(0, 1));
    }
}
