//! **Theorem 1.1** — fully-dynamic (2k−1)-spanner from the decremental
//! structure of Lemma 3.3, via the Bentley–Saxe style partition of
//! [BS80, BS08].
//!
//! The edge set is partitioned E = E₀ ∪ E₁ ∪ … ∪ E_b with invariant B1:
//! |E_i| ≤ 2^{i+l₀} where 2^{l₀} ≥ n^{1+1/k}. E₀ is kept wholesale in the
//! spanner; every other slot holds a decremental instance. An insertion
//! batch U splits into U_r ∪ U₀ ∪ … (|U_i| = 2^{l₀+i} or empty, |U_r| <
//! 2^{l₀}), and each nonempty U_i is merged together with slots E_i..E_{j−1}
//! into the first empty slot j ≥ i, rebuilt with fresh randomness.
//! Deletions route through the edge index to their owning slot. Each edge
//! therefore participates in at most O(log n) rebuilds.
//!
//! E₀ and the edge index live in one [`PartitionIndex`], whose index
//! also records each E₀ edge's position in the buffer: an E₀ insert or
//! delete is one index operation (expected O(1)), never a scan of E₀.
//! Per-batch scratch (the sorted insertion copy, the per-slot deletion
//! groups, slot-level deltas) is reused, so a batch that stays within E₀
//! allocates nothing once warm.

use crate::decremental::DecrementalSpanner;
use crate::partition::PartitionIndex;
use crate::spanner_set::SpannerSet;
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
};
use bds_graph::types::{Edge, UpdateBatch};

/// Slots ≥ 1 hold decremental instances; E₀ is the unstructured buffer.
enum Slot {
    Empty,
    Instance(Box<DecrementalSpanner>),
}

/// Fully-dynamic (2k−1)-spanner (Theorem 1.1).
pub struct FullyDynamicSpanner {
    n: usize,
    k: u32,
    l0: u32,
    /// E₀ (whose edges are all in the spanner) and the edge -> owner
    /// index (0 = E₀, i ≥ 1 = slots[i-1]).
    part: PartitionIndex,
    slots: Vec<Slot>,
    spanner: SpannerSet,
    seed: u64,
    rebuilds: u64,
    recourse: u64,
    /// Work counters of the slot instances rebuilds have torn down, so
    /// [`FullyDynamicSpanner::stats`] never goes backwards.
    retired: BatchStats,
    /// Reusable buffer for slot-level deltas (keeps the steady-state
    /// delta path allocation-free).
    scratch: DeltaBuf,
    /// Reusable sorted copy of the current insertion batch.
    batch: Vec<Edge>,
}

/// Typed builder for [`FullyDynamicSpanner`] (Theorem 1.1).
#[derive(Debug, Clone)]
pub struct FullyDynamicSpannerBuilder {
    n: usize,
    k: u32,
    seed: u64,
}

impl FullyDynamicSpannerBuilder {
    /// Stretch parameter: the spanner guarantees stretch 2k−1.
    pub fn stretch(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<FullyDynamicSpanner, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        if self.k < 1 {
            return Err(ConfigError::InvalidParam {
                name: "stretch",
                reason: "k must be ≥ 1 (spanner stretch is 2k−1)",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(FullyDynamicSpanner::new(self.n, self.k, edges, self.seed))
    }
}

impl FullyDynamicSpanner {
    /// Typed builder: `FullyDynamicSpanner::builder(n).stretch(k)
    /// .seed(s).build(&edges)`.
    pub fn builder(n: usize) -> FullyDynamicSpannerBuilder {
        FullyDynamicSpannerBuilder {
            n,
            k: 2,
            seed: 0x5eed,
        }
    }

    pub fn new(n: usize, k: u32, edges: &[Edge], seed: u64) -> Self {
        assert!(k >= 1 && n >= 2);
        // 2^{l0} >= n^{1+1/k}
        let target = (n as f64).powf(1.0 + 1.0 / k as f64);
        let l0 = (target.log2().ceil() as u32).max(1);
        let mut s = Self {
            n,
            k,
            l0,
            part: PartitionIndex::new(),
            slots: Vec::new(),
            spanner: SpannerSet::new(),
            seed,
            rebuilds: 0,
            recourse: 0,
            retired: BatchStats::default(),
            scratch: DeltaBuf::new(),
            batch: Vec::new(),
        };
        if !edges.is_empty() {
            // Initial placement: smallest slot j ≥ 1 with |E| ≤ 2^{j+l0}.
            let mut j = 1u32;
            while (edges.len() as u64) > s.capacity(j) {
                j += 1;
            }
            s.build_slot(j, edges.to_vec());
        }
        s.spanner.take_delta_into(&mut DeltaBuf::new());
        s
    }

    fn capacity(&self, slot: u32) -> u64 {
        1u64 << (self.l0.min(40) + slot)
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
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

    /// Install a fresh decremental instance into slot `j` (1-based) over
    /// `edges`, registering spanner contributions and the index.
    fn build_slot(&mut self, j: u32, edges: Vec<Edge>) {
        while self.slots.len() < j as usize {
            self.slots.push(Slot::Empty);
        }
        debug_assert!(self.slot_is_empty(j), "slot {j} not empty");
        assert!(
            edges.len() as u64 <= self.capacity(j),
            "invariant B1 violated"
        );
        self.rebuilds += 1;
        let seed = self.next_seed();
        let inst = DecrementalSpanner::new(self.n, self.k, &edges, seed);
        for e in inst.spanner_edges() {
            self.spanner.add(e);
        }
        for e in edges {
            self.part.assign(e, j);
        }
        self.slots[j as usize - 1] = Slot::Instance(Box::new(inst));
    }

    /// Tear down slot `j`, removing its spanner contribution and keeping
    /// its work counters; returns its live edges (index entries are
    /// overwritten by the caller's rebuild).
    fn drain_slot(&mut self, j: u32) -> Vec<Edge> {
        if j as usize > self.slots.len() {
            return Vec::new();
        }
        let slot = std::mem::replace(&mut self.slots[j as usize - 1], Slot::Empty);
        match slot {
            Slot::Empty => Vec::new(),
            Slot::Instance(d) => {
                add_work(&mut self.retired, &d);
                for e in d.spanner_edges() {
                    self.spanner.remove(e);
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

        // Split U into U_r ∪ U_0 ∪ U_1 ∪ … by the binary representation of
        // |U| / 2^{l0}; process pieces largest-first (the paper's order).
        let cap0 = self.capacity(0);
        let q = u.len() as u64 / cap0;
        let r = (u.len() as u64 % cap0) as usize;
        let mut cursor = u.len();
        for i in (0..62u32).rev() {
            if q & (1 << i) != 0 {
                let size = (cap0 << i) as usize;
                cursor -= size;
                // First empty slot j ≥ max(i, 1), absorbing E_{max(i,1)}..E_{j−1}.
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
        debug_assert_eq!(cursor, r);
        let ur = &u[..r];

        if (self.part.e0().len() + ur.len()) as u64 <= cap0 {
            for &e in ur {
                self.part.push_e0(e);
                self.spanner.add(e);
            }
        } else {
            // Merge U_r ∪ E₀ ∪ E₁ ∪ … ∪ E_{j−1} into the first empty j.
            let mut j = 1u32;
            while !self.slot_is_empty(j) {
                j += 1;
            }
            let mut merged = ur.to_vec();
            let spanner = &mut self.spanner;
            self.part.drain_e0(|e| {
                spanner.remove(e);
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
        let spanner = &mut self.spanner;
        self.part.route_deletions(deleted, |e| spanner.remove(e));
        for (slot, edges) in self.part.routed() {
            // INVARIANT: the index only names slots built by build_slot,
            // which grows `slots` to hold them.
            let Slot::Instance(d) = &mut self.slots[slot as usize - 1] else {
                panic!("indexed slot {slot} is empty")
            };
            d.delete_into(edges, &mut self.scratch);
            for &e in self.scratch.deleted() {
                self.spanner.remove(e);
            }
            for &e in self.scratch.inserted() {
                self.spanner.add(e);
            }
        }
    }

    /// Current spanner edge set.
    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.spanner.edges()
    }

    pub fn num_live_edges(&self) -> usize {
        self.part.len()
    }

    pub fn spanner_size(&self) -> usize {
        self.spanner.len()
    }

    pub fn num_rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Aggregated statistics: the work counters of every slot instance
    /// built so far (live and retired by rebuilds, so no counter ever
    /// decreases) plus the wrapper-level recourse.
    pub fn stats(&self) -> BatchStats {
        let mut s = self.retired;
        for slot in &self.slots {
            if let Slot::Instance(d) = slot {
                add_work(&mut s, d);
            }
        }
        s.recourse = self.recourse;
        s
    }

    /// Validation oracle: index consistency (E₀ positions and slot
    /// owners), invariant B1, per-slot decremental validation, and
    /// spanner composition. Test-only.
    pub fn validate(&self) {
        let mut slot_edges = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Slot::Instance(d) = slot {
                let m = d.num_live_edges();
                assert!(
                    m as u64 <= self.capacity(i as u32 + 1),
                    "B1 violated at {i}"
                );
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
        // Spanner = union over slot spanners + E₀ (refcounted).
        let mut want = SpannerSet::new();
        for &e in self.part.e0() {
            want.add(e);
        }
        for slot in &self.slots {
            if let Slot::Instance(d) = slot {
                for e in d.spanner_edges() {
                    want.add(e);
                }
            }
        }
        let mut got = self.spanner.edges();
        let mut exp = want.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "fully-dynamic spanner diverged");
    }
}

/// Add one slot instance's work counters (not its recourse) into `acc`.
fn add_work(acc: &mut BatchStats, d: &DecrementalSpanner) {
    let ds = d.stats();
    acc.scan_steps += ds.scan_steps;
    acc.cluster_changes += ds.cluster_changes;
    acc.vertices_touched += ds.vertices_touched;
}

impl BatchDynamic for FullyDynamicSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        FullyDynamicSpanner::num_live_edges(self)
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        self.spanner.output_into(out);
    }

    fn stats(&self) -> BatchStats {
        FullyDynamicSpanner::stats(self)
    }
}

impl Decremental for FullyDynamicSpanner {
    /// Delete a batch of edges (must be present; panics otherwise).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.spanner.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

impl FullyDynamic for FullyDynamicSpanner {
    /// Insert a batch of edges (must be absent; panics otherwise).
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.insert_inner(insertions);
        self.spanner.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }

    /// Apply one mixed batch (deletions, then insertions) atomically.
    /// Both phases record against one [`SpannerSet`] batch baseline and
    /// a single delta extraction nets them — no allocation on the delta
    /// path.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.delete_inner(&batch.deletions);
        self.insert_inner(&batch.insertions);
        self.spanner.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashSet;
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_and_validate() {
        let edges = gen::gnm_connected(60, 200, 3);
        let s = FullyDynamicSpanner::new(60, 2, &edges, 7);
        s.validate();
        assert_eq!(s.num_live_edges(), edges.len());
    }

    #[test]
    fn mixed_batches_keep_invariants_and_stretch() {
        let n = 60;
        let k = 2;
        let init = gen::gnm_connected(n, 180, 5);
        let mut s = FullyDynamicSpanner::new(n, k, &init, 11);
        let mut stream = UpdateStream::new(n, &init, 13);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for round in 0..25 {
            let b = stream.next_batch(8, 6);
            s.delete_into(&b.deletions, &mut d);
            d.apply_to(&mut shadow);
            s.insert_into(&b.insertions, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            let st = edge_stretch(n, stream.live_edges(), &s.spanner_edges(), n, 3);
            assert!(st <= (2 * k - 1) as f64, "stretch {st} in round {round}");
        }
    }

    #[test]
    fn insert_only_growth() {
        let n = 50;
        let mut s = FullyDynamicSpanner::new(n, 3, &[], 17);
        let all = gen::gnm(n, 400, 19);
        let mut shadow: FxHashSet<Edge> = FxHashSet::default();
        let mut d = DeltaBuf::new();
        for chunk in all.chunks(37) {
            s.insert_into(chunk, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
        }
        assert_eq!(s.num_live_edges(), all.len());
    }

    #[test]
    fn delete_to_empty() {
        let n = 40;
        let edges = gen::gnm(n, 120, 23);
        let mut s = FullyDynamicSpanner::new(n, 2, &edges, 29);
        let mut d = DeltaBuf::new();
        for chunk in edges.chunks(11) {
            s.delete_into(chunk, &mut d);
            s.validate();
        }
        assert_eq!(s.num_live_edges(), 0);
        assert_eq!(s.spanner_size(), 0);
    }

    /// n = 16, k = 2 gives cap₀ = 64: a growth phase fills E₀ until it
    /// overflows into a rebuilt slot, then churn deletes from both E₀ and
    /// the slots. Every batch is validated (E₀ position index included)
    /// and its delta replayed against a shadow of the spanner, and no
    /// work counter may decrease — a rebuild must keep the counters of
    /// the slots it retires.
    #[test]
    fn e0_fill_overflow_and_deletions_keep_position_index() {
        let (n, k) = (16, 2);
        let mut s = FullyDynamicSpanner::new(n, k, &[], 3);
        assert_eq!(s.capacity(0), 64);
        let mut stream = UpdateStream::new(n, &[], 5);
        let mut shadow: FxHashSet<Edge> = FxHashSet::default();
        let mut d = DeltaBuf::new();
        let (mut e0_deletes, mut slot_deletes, mut merges) = (0, 0, 0);
        for round in 0..60 {
            let b = if round < 10 {
                stream.next_batch(12, 2)
            } else {
                stream.next_batch(8, 8)
            };
            for &e in &b.deletions {
                match s.part.slot_of(e) {
                    Some(0) => e0_deletes += 1,
                    Some(_) => slot_deletes += 1,
                    None => panic!("stream deleted an edge the spanner lacks"),
                }
            }
            let (e0_before, rebuilds) = (s.part.e0().len(), s.num_rebuilds());
            let before = s.stats();
            s.apply_into(&b, &mut d);
            if s.num_rebuilds() > rebuilds && s.part.e0().len() < e0_before {
                merges += 1;
            }
            let after = s.stats();
            assert!(
                after.scan_steps >= before.scan_steps
                    && after.vertices_touched >= before.vertices_touched
                    && after.cluster_changes >= before.cluster_changes,
                "round {round}: stats went backwards: {before:?} -> {after:?}"
            );
            for e in d.deleted() {
                assert!(shadow.remove(e), "round {round}: deleted {e:?} not in H");
            }
            for &e in d.inserted() {
                assert!(shadow.insert(e), "round {round}: inserted {e:?} twice");
            }
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            assert_eq!(s.num_live_edges(), stream.live_edges().len());
            let st = edge_stretch(n, stream.live_edges(), &got, n, 3);
            assert!(st <= (2 * k - 1) as f64, "stretch {st} in round {round}");
        }
        assert!(merges > 0, "E₀ never overflowed into a slot");
        assert!(
            e0_deletes > 0 && slot_deletes > 0,
            "{e0_deletes} / {slot_deletes}"
        );
    }

    #[test]
    fn process_batch_nets_deltas() {
        let n = 30;
        let init = gen::gnm_connected(n, 90, 31);
        let mut s = FullyDynamicSpanner::new(n, 2, &init, 37);
        let mut stream = UpdateStream::new(n, &init, 41);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for _ in 0..15 {
            let b = stream.next_batch(5, 5);
            s.apply_into(&b, &mut d);
            d.apply_to(&mut shadow);
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
