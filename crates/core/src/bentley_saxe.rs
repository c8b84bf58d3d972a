//! The Bentley–Saxe style reduction from fully-dynamic to decremental
//! [BS80, BS08], shared by **Theorem 1.1** (the spanner,
//! [`crate::fully_dynamic`]) and **Theorem 1.6** (the spectral
//! sparsifier, `bds_sparsify::fully_dynamic`).
//!
//! The edge set is partitioned E = E₀ ∪ E₁ ∪ … ∪ E_b with
//! |E_i| ≤ 2^{i+l₀}, where the slot structure fixes l₀ ([`Slot::l0`]:
//! invariant B1, 2^{l₀} ≥ n^{1+1/k}, for the spanner; B2, 2^{l₀} ≥ n, for
//! the sparsifier). E₀ is kept wholesale in the output (at weight 1);
//! every other slot holds a decremental instance. An insertion batch U
//! splits into U_r ∪ U₀ ∪ … (|U_i| = 2^{l₀+i} or empty, |U_r| < 2^{l₀}),
//! and each nonempty U_i is merged together with slots E_i..E_{j−1} into
//! the first empty slot j ≥ i, rebuilt with fresh randomness. Deletions
//! route through the edge index to their owning slot. Each edge
//! therefore participates in at most O(log n) rebuilds. The output is E₀
//! plus the union of the slot outputs: a (2k−1)-spanner, or by
//! decomposability (Lemma 6.7) a (1±ε)-sparsifier, of E.
//!
//! E₀ and the edge index live in one [`PartitionIndex`], whose index
//! also records each E₀ edge's position in the buffer: an E₀ insert or
//! delete is one index operation (expected O(1)), never a scan of E₀.
//! Per-batch scratch (the sorted insertion copy, the per-slot deletion
//! groups, slot-level deltas) is reused, so a batch that stays within E₀
//! allocates nothing once warm.

use crate::partition::PartitionIndex;
use bds_graph::api::{BatchDynamic, BatchStats, Decremental, DeltaBuf, FullyDynamic};
use bds_graph::types::{Edge, UpdateBatch};

/// The set the wrapper folds E₀ and every slot's output into, and whose
/// per-batch net change it reports: `SpannerSet` (refcounted, weight
/// lane left empty) for Theorem 1.1, `WeightedSet` (weight lane filled)
/// for Theorem 1.6.
pub trait OutputSet: Default {
    /// The set of `output`'s insertions (at their weights), with an
    /// empty baseline: the bulk form of adding each and taking the delta.
    fn from_output(output: &DeltaBuf) -> Self;
    /// Add `e` at weight `w` (an unweighted set ignores `w`).
    fn add(&mut self, e: Edge, w: f64);
    /// Remove `e`; panics if it is absent.
    fn remove(&mut self, e: Edge);
    /// Write the current membership into `out` as insertions.
    fn output_into(&self, out: &mut DeltaBuf);
    /// Net membership changes since the last call, into `out`.
    fn take_delta_into(&mut self, out: &mut DeltaBuf);
}

/// A decremental structure that fills one Bentley–Saxe slot.
pub trait Slot: Decremental + Sized {
    /// The set slot outputs fold into.
    type Output: OutputSet;
    /// Typed builder of the fully-dynamic wrapper over this slot type,
    /// reached as [`BentleySaxe::builder`].
    type Builder;
    /// Step of the per-slot seed stream: each rebuild draws
    /// `seed ← seed · φ + SEED_STEP`.
    const SEED_STEP: u64;
    /// The builder [`BentleySaxe::builder`] returns.
    fn fully_dynamic_builder(n: usize) -> Self::Builder;
    /// Build an instance over `edges` with the structure's parameter
    /// (the stretch k, or the bundle depth t).
    fn build(n: usize, param: u32, edges: &[Edge], seed: u64) -> Self;
    /// E₀'s capacity exponent l₀(n, param): E_i holds ≤ 2^{i+l₀} edges.
    fn l0(n: usize, param: u32) -> u32;
    /// The instance's live edge set.
    fn live_edges(&self) -> Vec<Edge>;
    /// Test oracle: the instance's own invariants.
    fn validate(&self);
}

/// Fully-dynamic structure over slot instances of type `D`: E₀ plus
/// the Bentley–Saxe slots E₁ … E_b. `FullyDynamicSpanner` and
/// `FullyDynamicSparsifier` are its two instantiations.
pub struct BentleySaxe<D: Slot> {
    n: usize,
    /// The slot structure's parameter (passed to [`Slot::build`]).
    param: u32,
    l0: u32,
    /// E₀ (whose edges are all in the output) and the edge -> owner
    /// index (0 = E₀, i ≥ 1 = `slots[i-1]`).
    part: PartitionIndex,
    /// Slot i ≥ 1 at `i − 1`; `None` until first built.
    slots: Vec<Option<Box<D>>>,
    out: D::Output,
    seed: u64,
    rebuilds: u64,
    recourse: u64,
    /// Work counters of the slot instances rebuilds have torn down, so
    /// the cumulative statistics never go backwards.
    retired: BatchStats,
    /// Reusable buffer for slot-level deltas and outputs (keeps the
    /// steady-state delta path allocation-free).
    scratch: DeltaBuf,
    /// Reusable sorted copy of the current insertion batch.
    batch: Vec<Edge>,
}

impl<D: Slot> BentleySaxe<D> {
    /// Typed builder, e.g. `FullyDynamicSpanner::builder(n).stretch(k)
    /// .seed(s).build(&edges)`.
    pub fn builder(n: usize) -> D::Builder {
        D::fully_dynamic_builder(n)
    }

    /// Build over `edges`; `param` is the slot structure's parameter
    /// (the stretch k for the spanner, the bundle depth t for the
    /// sparsifier).
    pub fn new(n: usize, param: u32, edges: &[Edge], seed: u64) -> Self {
        assert!(n >= 2);
        let mut s = Self {
            n,
            param,
            l0: D::l0(n, param),
            part: PartitionIndex::new(),
            slots: Vec::new(),
            out: D::Output::default(),
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
            s.install_slot(j, edges.to_vec());
            s.out = D::Output::from_output(&s.scratch);
        }
        s
    }

    fn capacity(&self, slot: u32) -> u64 {
        1u64 << (self.l0.min(40) + slot)
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(D::SEED_STEP);
        self.seed
    }

    /// True if slot `i` (1-based) holds no live edge — never built, or
    /// an instance all of whose edges were deleted.
    fn slot_is_empty(&self, i: u32) -> bool {
        !matches!(self.slots.get(i as usize - 1), Some(Some(d)) if d.num_live_edges() > 0)
    }

    /// Install a fresh instance into the empty slot `j` (1-based) over
    /// `edges`, folding its output in and indexing its edges.
    fn build_slot(&mut self, j: u32, edges: Vec<Edge>) {
        self.install_slot(j, edges);
        fold(&mut self.out, &self.scratch);
    }

    /// [`BentleySaxe::build_slot`] short of the fold: the new instance's
    /// output is left in `scratch`.
    fn install_slot(&mut self, j: u32, edges: Vec<Edge>) {
        if self.slots.len() < j as usize {
            self.slots.resize_with(j as usize, || None);
        }
        // An emptied instance may still occupy slot j: retire it so its
        // work counters survive the rebuild.
        let stale = self.drain_slot(j);
        debug_assert!(stale.is_empty(), "slot {j} not empty");
        assert!(
            edges.len() as u64 <= self.capacity(j),
            "slot {j} over capacity (invariant B1/B2 violated)"
        );
        self.rebuilds += 1;
        let seed = self.next_seed();
        let inst = D::build(self.n, self.param, &edges, seed);
        inst.output_into(&mut self.scratch);
        for e in edges {
            self.part.assign(e, j);
        }
        self.slots[j as usize - 1] = Some(Box::new(inst));
    }

    /// Tear down slot `j`, removing its output and keeping its work
    /// counters; returns its live edges (index entries are overwritten
    /// by the caller's rebuild).
    fn drain_slot(&mut self, j: u32) -> Vec<Edge> {
        let Some(d) = self.slots.get_mut(j as usize - 1).and_then(Option::take) else {
            return Vec::new();
        };
        self.retired += d.stats();
        d.output_into(&mut self.scratch);
        for &e in self.scratch.inserted() {
            self.out.remove(e);
        }
        d.live_edges()
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
                self.out.add(e, 1.0);
            }
        } else {
            // Merge U_r ∪ E₀ ∪ E₁ ∪ … ∪ E_{j−1} into the first empty j.
            let mut j = 1u32;
            while !self.slot_is_empty(j) {
                j += 1;
            }
            let mut merged = ur.to_vec();
            let out = &mut self.out;
            self.part.drain_e0(|e| {
                out.remove(e);
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
        let out = &mut self.out;
        self.part.route_deletions(deleted, |e| out.remove(e));
        for (slot, edges) in self.part.routed() {
            // INVARIANT: the index only names slots built by build_slot,
            // which grows `slots` to hold them.
            let Some(d) = &mut self.slots[slot as usize - 1] else {
                panic!("indexed slot {slot} is empty")
            };
            d.delete_into(edges, &mut self.scratch);
            fold(&mut self.out, &self.scratch);
        }
    }

    /// Report the batch's net output change into `out`.
    fn emit(&mut self, out: &mut DeltaBuf) {
        self.out.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }

    /// The maintained output set (E₀ plus every slot's output).
    pub fn output(&self) -> &D::Output {
        &self.out
    }

    /// E₀ and the edge -> owning slot index.
    pub fn partition(&self) -> &PartitionIndex {
        &self.part
    }

    pub fn num_rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Validation oracle: index consistency (E₀ positions and slot
    /// owners), the slot capacities, per-slot validation, and output
    /// composition. Test-only.
    pub fn validate(&self) {
        let mut slot_edges = 0;
        let mut want = D::Output::default();
        for &e in self.part.e0() {
            want.add(e, 1.0);
        }
        let mut buf = DeltaBuf::new();
        for (i, d) in self.slots.iter().enumerate() {
            let Some(d) = d else { continue };
            let slot = i as u32 + 1;
            let m = d.num_live_edges();
            assert!(m as u64 <= self.capacity(slot), "slot {slot} over capacity");
            slot_edges += m;
            d.validate();
            for e in d.live_edges() {
                assert_eq!(self.part.slot_of(e), Some(slot), "index wrong");
            }
            d.output_into(&mut buf);
            fold(&mut want, &buf);
        }
        self.part.validate(slot_edges);
        assert!(
            self.part.e0().len() as u64 <= self.capacity(0),
            "E0 overflow"
        );
        let mut sorted = |s: &D::Output| {
            s.output_into(&mut buf);
            let mut v: Vec<(Edge, f64)> = buf.inserted_weighted().collect();
            v.sort_by_key(|x| x.0);
            v
        };
        assert_eq!(
            sorted(&self.out),
            sorted(&want),
            "fully-dynamic output diverged from E₀ ∪ slot outputs"
        );
    }
}

/// Fold one slot-level delta (or output, as insertions) into `out`.
fn fold<O: OutputSet>(out: &mut O, delta: &DeltaBuf) {
    for &e in delta.deleted() {
        out.remove(e);
    }
    for (e, w) in delta.inserted_weighted() {
        out.add(e, w);
    }
}

impl<D: Slot> BatchDynamic for BentleySaxe<D> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.part.len()
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        self.out.output_into(out);
    }

    /// The work counters of every slot instance built so far (live and
    /// retired by rebuilds, so no counter ever decreases) plus the
    /// wrapper-level recourse.
    fn stats(&self) -> BatchStats {
        let mut s = self.retired;
        for d in self.slots.iter().flatten() {
            s += d.stats();
        }
        s.recourse = self.recourse;
        s
    }
}

impl<D: Slot> Decremental for BentleySaxe<D> {
    /// Delete a batch of edges (must be present; panics otherwise).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.emit(out);
    }
}

impl<D: Slot> FullyDynamic for BentleySaxe<D> {
    /// Insert a batch of edges (must be absent; panics otherwise).
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.insert_inner(insertions);
        self.emit(out);
    }

    /// Apply one mixed batch (deletions, then insertions) atomically.
    /// Both phases record against one output-set batch baseline and a
    /// single delta extraction nets them — no allocation on the delta
    /// path.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.delete_inner(&batch.deletions);
        self.insert_inner(&batch.insertions);
        self.emit(out);
    }
}
