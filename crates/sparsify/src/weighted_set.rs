//! Weighted sparsifier membership with per-batch delta netting — the
//! weighted analogue of `bds_core::SpannerSet`. Each edge has at most one
//! owner (one bundle level, one terminal set, or one Bentley–Saxe slot),
//! so membership is a map rather than a refcount. Weights are positive
//! `f64`s stored bit-packed in a flat [`EdgeTable`] (0.0 encodes
//! "absent" in the baseline, exactly as the hash-map version used it).

use bds_dstruct::EdgeTable;
use bds_graph::api::DeltaBuf;
use bds_graph::types::Edge;

#[derive(Debug, Default)]
pub struct WeightedSet {
    /// Canonical edge -> weight bits.
    weight: EdgeTable,
    /// weight bits at batch start for touched edges (0.0 = absent).
    baseline: EdgeTable,
}

impl WeightedSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of `output`'s insertions at their weights, with an empty
    /// baseline: what inserting each and taking the delta leaves, built
    /// in bulk. Panics on a duplicate edge.
    pub fn from_output(output: &DeltaBuf) -> Self {
        let entries: Vec<(u32, u32, u64)> = output
            .inserted_weighted()
            .map(|(e, w)| (e.u, e.v, w.to_bits()))
            .collect();
        Self {
            weight: EdgeTable::from_batch(&entries),
            baseline: EdgeTable::new(),
        }
    }

    fn touch(&mut self, e: Edge) {
        if self.baseline.get(e.u, e.v).is_none() {
            let w = self.weight.get(e.u, e.v).unwrap_or(0.0f64.to_bits());
            self.baseline.insert(e.u, e.v, w);
        }
    }

    /// Insert `e` at `w`; panics if already present (owners are disjoint).
    pub fn insert(&mut self, e: Edge, w: f64) {
        self.touch(e);
        let old = self.weight.insert(e.u, e.v, w.to_bits());
        assert!(old.is_none(), "weighted edge {e:?} already owned");
    }

    /// Remove `e`; panics if absent.
    pub fn remove(&mut self, e: Edge) -> f64 {
        self.touch(e);
        let bits = self
            .weight
            .remove(e.u, e.v)
            .unwrap_or_else(|| panic!("remove of unowned {e:?}"));
        f64::from_bits(bits)
    }

    pub fn get(&self, e: Edge) -> Option<f64> {
        self.weight.get(e.u, e.v).map(f64::from_bits)
    }

    pub fn len(&self) -> usize {
        self.weight.len()
    }

    pub fn is_empty(&self) -> bool {
        self.weight.is_empty()
    }

    pub fn edges(&self) -> Vec<(Edge, f64)> {
        self.weight
            .iter()
            .map(|(u, v, bits)| (Edge { u, v }, f64::from_bits(bits)))
            .collect()
    }

    /// Write the current weighted membership into `out` as insertions.
    pub fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for (u, v, bits) in self.weight.iter() {
            out.push_ins_w(Edge { u, v }, f64::from_bits(bits));
        }
    }

    /// Net weighted changes since the last call, written into a
    /// caller-owned buffer (weight lane populated). Allocation-free once
    /// `out` and the baseline table have warmed up. A cross-level
    /// reweighting reports as deletion-at-old-weight plus
    /// insertion-at-new-weight.
    pub fn take_delta_into(&mut self, out: &mut DeltaBuf) {
        out.clear();
        let weight = &self.weight;
        self.baseline.drain_with(|u, v, was_bits| {
            let e = Edge { u, v };
            let was = f64::from_bits(was_bits);
            let now = weight.get(u, v).map_or(0.0, f64::from_bits);
            if was == now {
                return;
            }
            if was != 0.0 {
                out.push_del_w(e, was);
            }
            if now != 0.0 {
                out.push_ins_w(e, now);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_delta() {
        let mut s = WeightedSet::new();
        let mut d = DeltaBuf::new();
        let e = Edge::new(0, 1);
        s.insert(e, 4.0);
        s.take_delta_into(&mut d);
        assert_eq!(d.inserted_weighted().collect::<Vec<_>>(), vec![(e, 4.0)]);
        assert!(d.deleted().is_empty());
        s.remove(e);
        s.insert(e, 16.0); // reweighting across levels
        s.take_delta_into(&mut d);
        assert_eq!(d.deleted_weighted().collect::<Vec<_>>(), vec![(e, 4.0)]);
        assert_eq!(d.inserted_weighted().collect::<Vec<_>>(), vec![(e, 16.0)]);
    }

    #[test]
    fn bounce_nets_out() {
        let mut s = WeightedSet::new();
        let e = Edge::new(2, 3);
        s.insert(e, 1.0);
        s.remove(e);
        let mut d = DeltaBuf::new();
        s.take_delta_into(&mut d);
        assert_eq!(d.recourse(), 0);
    }
}
