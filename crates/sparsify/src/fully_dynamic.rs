//! **Theorem 1.6** — fully-dynamic (1±ε) spectral sparsifier.
//!
//! Identical reduction to Theorem 1.1 but with invariant **B2**
//! (2^{l₀} ≥ n) and the decremental sparsifier of Lemma 6.6 per slot.
//! Correctness rests on decomposability (Lemma 6.7): the union of
//! (1±ε)-sparsifiers of an edge partition is a (1±ε)-sparsifier of the
//! whole graph. E₀ edges carry weight 1 (a subgraph is an exact
//! sparsifier of itself).
//!
//! E₀ and the edge index are the shared [`PartitionIndex`]: an E₀ insert
//! or delete is one index operation (expected O(1)), never a scan of E₀,
//! and per-batch scratch is reused as in Theorem 1.1.

use crate::decremental::DecrementalSparsifier;
use crate::weighted_set::WeightedSet;
use bds_core::partition::PartitionIndex;
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
};
use bds_graph::types::{Edge, UpdateBatch};

enum Slot {
    Empty,
    Instance(Box<DecrementalSparsifier>),
}

/// Fully-dynamic spectral sparsifier (Theorem 1.6).
pub struct FullyDynamicSparsifier {
    n: usize,
    t: u32,
    l0: u32,
    /// E₀ (weight-1 edges of the sparsifier) and the edge -> owner index.
    part: PartitionIndex,
    slots: Vec<Slot>,
    sparsifier: WeightedSet,
    seed: u64,
    rebuilds: u64,
    recourse: u64,
    /// Work counters of the slot instances rebuilds have torn down, so
    /// the cumulative statistics never go backwards.
    retired: BatchStats,
    /// Reusable buffer for slot-level deltas.
    scratch: DeltaBuf,
    /// Reusable sorted copy of the current insertion batch.
    batch: Vec<Edge>,
}

/// Typed builder for [`FullyDynamicSparsifier`] (Theorem 1.6).
#[derive(Debug, Clone)]
pub struct FullyDynamicSparsifierBuilder {
    n: usize,
    t: u32,
    seed: u64,
}

impl FullyDynamicSparsifierBuilder {
    /// Bundle depth t per slot (quality knob; default 2).
    pub fn depth(mut self, t: u32) -> Self {
        self.t = t;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<FullyDynamicSparsifier, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        if self.t < 1 {
            return Err(ConfigError::InvalidParam {
                name: "depth",
                reason: "the bundle depth t must be ≥ 1",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(FullyDynamicSparsifier::new(
            self.n, self.t, edges, self.seed,
        ))
    }
}

impl FullyDynamicSparsifier {
    /// Typed builder: `FullyDynamicSparsifier::builder(n).depth(t)
    /// .seed(s).build(&edges)`.
    pub fn builder(n: usize) -> FullyDynamicSparsifierBuilder {
        FullyDynamicSparsifierBuilder {
            n,
            t: 2,
            seed: 0x5eed,
        }
    }

    /// `t` = bundle depth (quality knob; the paper's t = Θ(ε⁻² log³ n)).
    pub fn new(n: usize, t: u32, edges: &[Edge], seed: u64) -> Self {
        assert!(n >= 2);
        let l0 = (n as f64).log2().ceil() as u32; // invariant B2
        let mut s = Self {
            n,
            t,
            l0,
            part: PartitionIndex::new(),
            slots: Vec::new(),
            sparsifier: WeightedSet::new(),
            seed,
            rebuilds: 0,
            recourse: 0,
            retired: BatchStats::default(),
            scratch: DeltaBuf::new(),
            batch: Vec::new(),
        };
        if !edges.is_empty() {
            let mut j = 1u32;
            while (edges.len() as u64) > s.capacity(j) {
                j += 1;
            }
            s.build_slot(j, edges.to_vec());
        }
        s.sparsifier.take_delta_into(&mut DeltaBuf::new());
        s
    }

    fn capacity(&self, slot: u32) -> u64 {
        1u64 << (self.l0.min(40) + slot)
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(7);
        self.seed
    }

    fn slot_len(&self, i: u32) -> usize {
        match self.slots.get(i as usize - 1) {
            Some(Slot::Instance(d)) => d.num_live_edges(),
            _ => 0,
        }
    }

    fn slot_is_empty(&self, i: u32) -> bool {
        self.slot_len(i) == 0
    }

    fn build_slot(&mut self, j: u32, edges: Vec<Edge>) {
        while self.slots.len() < j as usize {
            self.slots.push(Slot::Empty);
        }
        debug_assert!(self.slot_is_empty(j));
        assert!(
            edges.len() as u64 <= self.capacity(j),
            "invariant B2 violated"
        );
        self.rebuilds += 1;
        let seed = self.next_seed();
        let inst = DecrementalSparsifier::new(self.n, &edges, self.t, seed);
        for (e, w) in inst.sparsifier_edges() {
            self.sparsifier.insert(e, w);
        }
        for e in edges {
            self.part.assign(e, j);
        }
        self.slots[j as usize - 1] = Slot::Instance(Box::new(inst));
    }

    fn drain_slot(&mut self, j: u32) -> Vec<Edge> {
        if j as usize > self.slots.len() {
            return Vec::new();
        }
        match std::mem::replace(&mut self.slots[j as usize - 1], Slot::Empty) {
            Slot::Empty => Vec::new(),
            Slot::Instance(d) => {
                add_work(&mut self.retired, &d);
                for (e, _) in d.sparsifier_edges() {
                    self.sparsifier.remove(e);
                }
                d.live_edges()
            }
        }
    }

    fn insert_inner(&mut self, inserted: &[Edge]) {
        if inserted.is_empty() {
            return;
        }
        let mut u = std::mem::take(&mut self.batch);
        u.clear();
        u.extend_from_slice(inserted);
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), inserted.len(), "duplicate edges in insert batch");
        for &e in &u {
            assert!(!self.part.contains(e), "insert of present edge {e:?}");
        }
        let cap0 = self.capacity(0);
        let q = u.len() as u64 / cap0;
        let r = (u.len() as u64 % cap0) as usize;
        let mut cursor = u.len();
        for i in (0..62u32).rev() {
            if q & (1 << i) != 0 {
                let size = (cap0 << i) as usize;
                cursor -= size;
                let lo = i.max(1);
                let mut j = lo;
                while !self.slot_is_empty(j) {
                    j += 1;
                }
                let mut merged = u[cursor..cursor + size].to_vec();
                for s in lo..j {
                    merged.extend(self.drain_slot(s));
                }
                self.build_slot(j, merged);
            }
        }
        let ur = &u[..r];
        if (self.part.e0().len() + ur.len()) as u64 <= cap0 {
            for &e in ur {
                self.part.push_e0(e);
                self.sparsifier.insert(e, 1.0);
            }
        } else {
            let mut j = 1u32;
            while !self.slot_is_empty(j) {
                j += 1;
            }
            let mut merged = ur.to_vec();
            let sparsifier = &mut self.sparsifier;
            self.part.drain_e0(|e| {
                sparsifier.remove(e);
                merged.push(e);
            });
            for s in 1..j {
                merged.extend(self.drain_slot(s));
            }
            self.build_slot(j, merged);
        }
        self.batch = u;
    }

    fn delete_inner(&mut self, deleted: &[Edge]) {
        let sparsifier = &mut self.sparsifier;
        self.part.route_deletions(deleted, |e| {
            sparsifier.remove(e);
        });
        for (slot, edges) in self.part.routed() {
            // INVARIANT: the index only names slots built by build_slot,
            // which grows `slots` to hold them.
            let Slot::Instance(d) = &mut self.slots[slot as usize - 1] else {
                panic!("indexed slot {slot} empty")
            };
            d.delete_into(edges, &mut self.scratch);
            for (e, _) in self.scratch.deleted_weighted() {
                self.sparsifier.remove(e);
            }
            for (e, w) in self.scratch.inserted_weighted() {
                self.sparsifier.insert(e, w);
            }
        }
    }

    pub fn num_live_edges(&self) -> usize {
        self.part.len()
    }

    pub fn sparsifier_edges(&self) -> Vec<(Edge, f64)> {
        self.sparsifier.edges()
    }

    pub fn sparsifier_size(&self) -> usize {
        self.sparsifier.len()
    }

    pub fn num_rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Test oracle: index consistency (E₀ positions and slot owners),
    /// invariant B2, per-slot validation, and sparsifier composition.
    pub fn validate(&self) {
        let mut slot_edges = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Slot::Instance(d) = slot {
                let m = d.num_live_edges();
                assert!(m as u64 <= self.capacity(i as u32 + 1), "B2 violated");
                slot_edges += m;
                d.validate();
                for e in d.live_edges() {
                    assert_eq!(self.part.slot_of(e), Some(i as u32 + 1), "index wrong");
                }
            }
        }
        self.part.validate(slot_edges);
        assert!(
            self.part.e0().len() as u64 <= self.capacity(0),
            "E0 overflow"
        );
        let mut want = WeightedSet::new();
        for &e in self.part.e0() {
            want.insert(e, 1.0);
        }
        for slot in &self.slots {
            if let Slot::Instance(d) = slot {
                for (e, w) in d.sparsifier_edges() {
                    want.insert(e, w);
                }
            }
        }
        let mut got = self.sparsifier.edges();
        let mut exp = want.edges();
        got.sort_by_key(|x| x.0);
        exp.sort_by_key(|x| x.0);
        assert_eq!(got, exp, "fully-dynamic sparsifier diverged");
    }
}

impl BatchDynamic for FullyDynamicSparsifier {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        FullyDynamicSparsifier::num_live_edges(self)
    }

    /// The maintained output set: the weighted sparsifier (weight lane
    /// populated; E₀ edges carry weight 1).
    fn output_into(&self, out: &mut DeltaBuf) {
        self.sparsifier.output_into(out);
    }

    /// The work counters of every slot instance built so far (live and
    /// retired by rebuilds, so no counter ever decreases) plus the
    /// wrapper-level recourse.
    fn stats(&self) -> BatchStats {
        let mut s = self.retired;
        for slot in &self.slots {
            if let Slot::Instance(d) = slot {
                add_work(&mut s, d);
            }
        }
        s.recourse = self.recourse;
        s
    }
}

/// Add one slot instance's work counters (not its recourse) into `acc`.
fn add_work(acc: &mut BatchStats, d: &DecrementalSparsifier) {
    let ds = d.stats();
    acc.scan_steps += ds.scan_steps;
    acc.vertices_touched += ds.vertices_touched;
}

impl Decremental for FullyDynamicSparsifier {
    /// Delete a batch of present edges (weight lane populated).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.sparsifier.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

impl FullyDynamic for FullyDynamicSparsifier {
    /// Insert a batch of absent edges (weight lane populated).
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.insert_inner(insertions);
        self.sparsifier.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }

    /// Apply one mixed batch (deletions, then insertions) atomically,
    /// netting across phases through the [`WeightedSet`] baseline.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.delete_inner(&batch.deletions);
        self.insert_inner(&batch.insertions);
        self.sparsifier.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashMap;
    use bds_graph::cuts::sparsifier_error;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_and_quality() {
        let n = 100;
        let edges = gen::gnm_connected(n, 1200, 3);
        let s = FullyDynamicSparsifier::new(n, 3, &edges, 7);
        s.validate();
        let err = sparsifier_error(n, &edges, &s.sparsifier_edges(), 30, 11);
        assert!(err < 1.0, "error {err} unreasonably high");
    }

    #[test]
    fn mixed_updates_validate() {
        let n = 50;
        let init = gen::gnm_connected(n, 300, 13);
        let mut s = FullyDynamicSparsifier::new(n, 2, &init, 17);
        let mut stream = UpdateStream::new(n, &init, 19);
        let mut d = DeltaBuf::new();
        for _ in 0..12 {
            let b = stream.next_batch(10, 8);
            s.delete_into(&b.deletions, &mut d);
            s.insert_into(&b.insertions, &mut d);
            s.validate();
            assert_eq!(s.num_live_edges(), stream.live_edges().len());
        }
    }

    /// n = 16 gives cap₀ = 16: a growth phase fills E₀ until it
    /// overflows into a rebuilt slot, then churn deletes from both E₀ and
    /// the slots. Every batch is validated (E₀ position index included)
    /// and its weighted delta replayed against a shadow, and no work
    /// counter may decrease — a rebuild must keep the counters of the
    /// slots it retires.
    #[test]
    fn e0_fill_overflow_and_deletions_keep_position_index() {
        let n = 16;
        let mut s = FullyDynamicSparsifier::new(n, 2, &[], 3);
        assert_eq!(s.capacity(0), 16);
        let mut stream = UpdateStream::new(n, &[], 5);
        let mut shadow: FxHashMap<Edge, f64> = FxHashMap::default();
        let mut d = DeltaBuf::new();
        let (mut e0_deletes, mut slot_deletes, mut merges) = (0, 0, 0);
        for round in 0..60 {
            let b = if round < 10 {
                stream.next_batch(8, 2)
            } else {
                stream.next_batch(6, 6)
            };
            for &e in &b.deletions {
                match s.part.slot_of(e) {
                    Some(0) => e0_deletes += 1,
                    Some(_) => slot_deletes += 1,
                    None => panic!("stream deleted an edge the sparsifier lacks"),
                }
            }
            let (e0_before, rebuilds) = (s.part.e0().len(), s.num_rebuilds());
            let before = BatchDynamic::stats(&s);
            s.apply_into(&b, &mut d);
            if s.num_rebuilds() > rebuilds && s.part.e0().len() < e0_before {
                merges += 1;
            }
            let after = BatchDynamic::stats(&s);
            assert!(
                after.scan_steps >= before.scan_steps
                    && after.vertices_touched >= before.vertices_touched
                    && after.cluster_changes >= before.cluster_changes,
                "round {round}: stats went backwards: {before:?} -> {after:?}"
            );
            for (e, w) in d.deleted_weighted() {
                assert_eq!(shadow.remove(&e), Some(w), "round {round}: {e:?}");
            }
            for (e, w) in d.inserted_weighted() {
                assert_eq!(shadow.insert(e, w), None, "round {round}: {e:?}");
            }
            s.validate();
            let mut got = s.sparsifier_edges();
            let mut want: Vec<(Edge, f64)> = shadow.iter().map(|(&e, &w)| (e, w)).collect();
            got.sort_by_key(|x| x.0);
            want.sort_by_key(|x| x.0);
            assert_eq!(got, want, "round {round}");
            assert_eq!(s.num_live_edges(), stream.live_edges().len());
        }
        assert!(merges > 0, "E₀ never overflowed into a slot");
        assert!(
            e0_deletes > 0 && slot_deletes > 0,
            "{e0_deletes} / {slot_deletes}"
        );
    }

    #[test]
    fn weighted_delta_replay() {
        let n = 40;
        let init = gen::gnm_connected(n, 200, 23);
        let mut s = FullyDynamicSparsifier::new(n, 2, &init, 29);
        let mut stream = UpdateStream::new(n, &init, 31);
        let mut shadow: Vec<(Edge, f64)> = s.sparsifier_edges();
        let mut d = DeltaBuf::new();
        for _ in 0..10 {
            let b = stream.next_batch(6, 6);
            for phase in 0..2 {
                if phase == 0 {
                    s.delete_into(&b.deletions, &mut d);
                } else {
                    s.insert_into(&b.insertions, &mut d);
                }
                for (e, w) in d.deleted_weighted() {
                    let pos = shadow
                        .iter()
                        .position(|&(se, sw)| se == e && sw == w)
                        .unwrap_or_else(|| panic!("missing ({e:?},{w})"));
                    shadow.swap_remove(pos);
                }
                shadow.extend(d.inserted_weighted());
            }
            let mut got = s.sparsifier_edges();
            got.sort_by_key(|x| x.0);
            shadow.sort_by_key(|x| x.0);
            assert_eq!(got, shadow);
        }
    }
}
