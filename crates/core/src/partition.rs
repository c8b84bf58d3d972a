//! The Bentley–Saxe partition's bookkeeping, kept by the one
//! fully-dynamic wrapper [`crate::bentley_saxe::BentleySaxe`] (Theorems
//! 1.1 and 1.6).
//!
//! [`PartitionIndex`] owns the E₀ buffer and the edge → owner index of
//! the partition E = E₀ ∪ E₁ ∪ … ∪ E_b. The index value is tagged: an
//! E₀ edge stores its *position* in the buffer, an edge of slot i ≥ 1
//! stores `i`. So an E₀ insert is one index insert plus a push, and an
//! E₀ delete is one index remove, a `swap_remove`, and one index fix-up
//! for the edge that moved into the hole — expected O(1) each, with no
//! scan of E₀ and no second edge map.
//!
//! Slot rebuilds belong to the wrapper: it drains E₀ and the absorbed
//! slots, rebuilds, and [`PartitionIndex::assign`] overwrites every
//! drained edge's entry with its new slot.

use bds_dstruct::FxHashMap;
use bds_graph::types::Edge;

/// Tag bit of an index value that is an E₀ position (clear: slot number).
const E0_TAG: u64 = 1 << 63;

/// E₀ plus the edge → owner index of one Bentley–Saxe partition.
#[derive(Debug, Default)]
pub struct PartitionIndex {
    /// E₀: the unstructured buffer, every edge of which is in the output.
    e0: Vec<Edge>,
    /// Edge → `E0_TAG | position` for E₀ edges, slot number for the rest.
    owner: FxHashMap<Edge, u64>,
    /// Deletions of the last [`PartitionIndex::route_deletions`] call
    /// grouped by owning slot (slot i at `i − 1`); reused across batches.
    routed: Vec<Vec<Edge>>,
}

impl PartitionIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed (live) edges: |E₀| plus every slot's size.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The E₀ buffer, in unspecified order.
    pub fn e0(&self) -> &[Edge] {
        &self.e0
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.owner.contains_key(&e)
    }

    /// Owning slot of `e` (0 = E₀), or `None` if it is not live.
    pub fn slot_of(&self, e: Edge) -> Option<u32> {
        self.owner.get(&e).copied().map(slot_of_value)
    }

    /// Append an absent edge to E₀.
    pub fn push_e0(&mut self, e: Edge) {
        let prev = self.owner.insert(e, E0_TAG | self.e0.len() as u64);
        assert!(prev.is_none(), "insert of present edge {e:?}");
        self.e0.push(e);
    }

    /// Empty E₀, handing each edge to `f`. The drained edges' index
    /// entries stay until the caller's rebuild overwrites them with
    /// [`PartitionIndex::assign`].
    pub fn drain_e0(&mut self, mut f: impl FnMut(Edge)) {
        for e in self.e0.drain(..) {
            f(e);
        }
    }

    /// Index `e` as owned by slot `slot` ≥ 1 (inserting or overwriting).
    pub fn assign(&mut self, e: Edge, slot: u32) {
        debug_assert!(slot >= 1, "slot 0 is E₀; use push_e0");
        self.owner.insert(e, u64::from(slot));
    }

    /// Unindex a deletion batch. An E₀ edge leaves the buffer at once and
    /// is handed to `on_e0`; every other edge is grouped by its owning
    /// slot for [`PartitionIndex::routed`]. Panics on an absent edge.
    /// Allocation-free once each slot's group has reached its batch size.
    pub fn route_deletions(&mut self, deleted: &[Edge], mut on_e0: impl FnMut(Edge)) {
        for group in &mut self.routed {
            group.clear();
        }
        for &e in deleted {
            let val = self
                .owner
                .remove(&e)
                .unwrap_or_else(|| panic!("delete of absent edge {e:?}"));
            if val & E0_TAG != 0 {
                // INVARIANT: E₀ positions are < |E₀| ≤ 2^{l₀} ≤ 2^40, so
                // the untagged value fits a usize.
                self.remove_e0_at((val & !E0_TAG) as usize, e);
                on_e0(e);
            } else {
                // INVARIANT: slot values are slot numbers ≥ 1 (assign).
                let i = val as usize - 1;
                if self.routed.len() <= i {
                    self.routed.resize_with(i + 1, Vec::new);
                }
                // INVARIANT: resized above to hold index i.
                self.routed[i].push(e);
            }
        }
    }

    /// The nonempty per-slot groups of the last
    /// [`PartitionIndex::route_deletions`], as `(slot, edges)`.
    pub fn routed(&self) -> impl Iterator<Item = (u32, &[Edge])> + '_ {
        self.routed
            .iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            // INVARIANT: one group per slot, and slot numbers are u32.
            .map(|(i, group)| (i as u32 + 1, group.as_slice()))
    }

    /// Remove E₀'s entry at `pos` (whose index entry is already gone) and
    /// re-point the edge `swap_remove` moved into the hole.
    fn remove_e0_at(&mut self, pos: usize, e: Edge) {
        let removed = self.e0.swap_remove(pos);
        assert_eq!(removed, e, "E₀ position index points at the wrong edge");
        if let Some(&moved) = self.e0.get(pos) {
            self.owner.insert(moved, E0_TAG | pos as u64);
        }
    }

    /// Test oracle: every E₀ edge's stored position points back at it,
    /// and the index holds exactly E₀ plus the `slot_edges` edges of the
    /// slots (the caller checks each slot edge with
    /// [`PartitionIndex::slot_of`]).
    pub fn validate(&self, slot_edges: usize) {
        for (pos, e) in self.e0.iter().enumerate() {
            assert_eq!(
                self.owner.get(e).copied(),
                Some(E0_TAG | pos as u64),
                "E₀ edge {e:?} not indexed at its position {pos}"
            );
        }
        assert_eq!(
            self.owner.len(),
            self.e0.len() + slot_edges,
            "index size is not |E₀| + slot sizes"
        );
    }
}

/// Slot number of an index value (0 for E₀).
fn slot_of_value(val: u64) -> u32 {
    if val & E0_TAG != 0 {
        0
    } else {
        // INVARIANT: untagged values are slot numbers stored from a u32.
        val as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(u, v)
    }

    #[test]
    fn e0_delete_fixes_up_moved_edge() {
        let mut p = PartitionIndex::new();
        for i in 1..6 {
            p.push_e0(e(0, i));
        }
        p.assign(e(7, 8), 2);
        p.validate(1);
        let mut gone = Vec::new();
        p.route_deletions(&[e(0, 1), e(7, 8), e(0, 3)], |x| gone.push(x));
        assert_eq!(gone, vec![e(0, 1), e(0, 3)]);
        assert_eq!(p.routed().collect::<Vec<_>>(), vec![(2, &[e(7, 8)][..])]);
        p.validate(0);
        assert_eq!(p.e0().len(), 3);
        assert_eq!(p.slot_of(e(0, 5)), Some(0));
        assert_eq!(p.slot_of(e(0, 1)), None);
    }

    #[test]
    #[should_panic(expected = "delete of absent edge")]
    fn absent_delete_panics() {
        PartitionIndex::new().route_deletions(&[e(1, 2)], |_| {});
    }
}
