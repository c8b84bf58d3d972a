//! Refcounted spanner membership.
//!
//! Spanner edges have multiple "reasons" to exist (a tree edge of the
//! shortest-path forest, the selected representative of one or two
//! inter-cluster buckets). A refcount per edge turns reason-level add /
//! remove events into exact set-level deltas: an edge is reported inserted
//! when its count leaves zero and deleted when it returns to zero, with
//! per-batch netting (an edge that bounces within one batch reports
//! nothing).

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
        self.count.iter().map(|(u, v, _)| Edge { u, v }).collect()
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

    #[test]
    #[should_panic(expected = "uncounted")]
    fn underflow_panics() {
        let mut s = SpannerSet::new();
        s.remove(Edge::new(0, 1));
    }
}
