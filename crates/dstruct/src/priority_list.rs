//! The data structure of **Lemma 3.1**: an ordered list of values indexed
//! by distinct `u64` priorities, kept in *descending* priority order.
//!
//! Mapping to the paper's interface:
//! * `Initialize`        → [`PriorityList::from_entries`] /
//!   [`PriorityList::from_sorted_entries`] (the batch-parallel path: one
//!   global `bds_par` sort groups every vertex's entries, then each list
//!   bulk-builds from its slice in O(degree) work with no comparisons)
//! * `UpdateValue(k, v)` → [`PriorityList::get_mut`] (keyed by priority —
//!   callers track an entry's current priority, which is stable under
//!   other entries' moves, unlike ranks)
//! * `UpdatePriority`    → [`PriorityList::update_priority`]
//! * `Query(k)`          → [`PriorityList::kth`]
//! * `Find(p)`           → [`PriorityList::find`]
//! * `NextWith(k, f)`    → [`PriorityList::next_with`]
//!
//! The paper implements this with a lazily allocated segment tree over
//! the priority domain. Since PR 2 the backing store is a *flat* sorted
//! array with a tombstone bitmap ([`crate::FlatList`]) rather than an
//! order-statistics treap:
//!
//! * `NextWith` is a linear walk over two contiguous arrays steered by
//!   bitmap words — the O(q − k) scanned entries of the Lemma 3.1 bound
//!   now cost streaming loads the hardware prefetcher covers, not one
//!   dependent cache miss per entry as with treap nodes. This is the
//!   inner loop of every level-synchronous phase of Algorithm 1 and of
//!   `DecrementalSpanner`, which is why the representation matters.
//! * `Find`/`bound_rank` are one `partition_point` over the dense key
//!   array plus a rank walk over the live bitmap: one O(log) Fenwick
//!   walk over superblock counts, then at most 8 word popcounts (the
//!   rank index of [`crate::flat_list`]). Those words are prefetchable
//!   and 128× denser than treap nodes (`servebench` measures the list
//!   inside the Theorem 1.1 engine as `engine.apply_us_per_update.t1`).
//! * Removals — the only mutation the decremental structures perform in
//!   their hot phase — clear a bit in O(log n); compaction runs when
//!   dead entries outnumber live ones and is charged to those removals.
//! * `UpdatePriority` and inserts pay an O(n) shift in the worst case,
//!   but n here is a vertex degree and the shift is a single `memmove`
//!   over dense memory; re-inserting at a tombstoned priority reuses the
//!   dead slot without shifting.
//!
//! The bounds the decremental work analysis charges per entry —
//! `NextWith` scan work and removals — are preserved; insert,
//! update-priority, and rank navigation trade their O(log n) for flat
//! passes that are faster at list = vertex-degree scale.

use crate::flat_list::FlatList;

/// Ordered list in descending priority order. Priorities must be
/// distinct among live entries.
#[derive(Clone, Debug, Default)]
pub struct PriorityList<V> {
    // Key = !priority so the flat list's ascending order is descending
    // priority order.
    inner: FlatList<u64, V>,
}

#[inline]
fn enc(p: u64) -> u64 {
    !p
}

#[inline]
fn dec(k: u64) -> u64 {
    !k
}

impl<V: Copy> PriorityList<V> {
    pub fn new() -> Self {
        Self {
            inner: FlatList::new(),
        }
    }

    /// `Initialize`: bulk-build from `(priority, value)` pairs in any
    /// order (sorts internally).
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, V)>) -> Self {
        Self {
            inner: FlatList::from_entries(entries.into_iter().map(|(p, v)| (enc(p), v))),
        }
    }

    /// `Initialize` from entries already sorted by **descending**
    /// priority — the zero-comparison path for batch builds that sorted
    /// all lists' entries with one global parallel sort.
    pub fn from_sorted_entries(entries: impl IntoIterator<Item = (u64, V)>) -> Self {
        Self {
            inner: FlatList::from_sorted(entries.into_iter().map(|(p, v)| (enc(p), v))),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Insert an entry; panics (debug) if the priority is taken.
    pub fn insert(&mut self, priority: u64, value: V) {
        let old = self.inner.insert(enc(priority), value);
        debug_assert!(old.is_none(), "duplicate priority {priority}");
    }

    pub fn remove(&mut self, priority: u64) -> Option<V> {
        self.inner.remove(&enc(priority))
    }

    pub fn get(&self, priority: u64) -> Option<&V> {
        self.inner.get(&enc(priority))
    }

    /// `UpdateValue` keyed by priority.
    pub fn get_mut(&mut self, priority: u64) -> Option<&mut V> {
        self.inner.get_mut(&enc(priority))
    }

    pub fn contains(&self, priority: u64) -> bool {
        self.inner.contains(&enc(priority))
    }

    /// `UpdatePriority`: move the entry at `old` to priority `new`.
    /// Returns false if `old` was absent. Panics (debug) if `new` is taken.
    pub fn update_priority(&mut self, old: u64, new: u64) -> bool {
        if old == new {
            return self.contains(old);
        }
        match self.inner.remove(&enc(old)) {
            Some(v) => {
                self.insert(new, v);
                true
            }
            None => false,
        }
    }

    /// `Query(k)`: the entry with the k-th largest priority (0-based).
    pub fn kth(&self, rank: usize) -> Option<(u64, &V)> {
        self.inner.kth(rank).map(|(k, v)| (dec(k), v))
    }

    /// `Find(p)`: the value at priority `p` together with its 0-based rank
    /// (number of entries with *larger* priority).
    pub fn find(&self, priority: u64) -> Option<(usize, &V)> {
        let rank = self.inner.rank_of(&enc(priority))?;
        Some((
            rank,
            self.inner
                .get(&enc(priority))
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                .expect("rank implies presence"),
        ))
    }

    /// Rank of `priority` if present (0-based, descending).
    pub fn rank_of(&self, priority: u64) -> Option<usize> {
        self.inner.rank_of(&enc(priority))
    }

    /// Number of entries with priority strictly *greater* than `priority`
    /// — the rank the entry at `priority` occupies (or would occupy).
    /// Defined for absent priorities; used to resume a scan at the slot a
    /// removed or moved entry used to occupy.
    pub fn bound_rank(&self, priority: u64) -> usize {
        self.inner.lower_bound_rank(&enc(priority))
    }

    /// `NextWith(k, f)`: the first entry at rank ≥ `from_rank` (descending
    /// priority order) satisfying `pred`. `examined` counts visited
    /// entries — the work charged by the Lemma 3.1 analysis.
    pub fn next_with(
        &self,
        from_rank: usize,
        mut pred: impl FnMut(u64, &V) -> bool,
        examined: &mut u64,
    ) -> Option<(usize, u64, &V)> {
        self.inner
            .scan_from(from_rank, |k, v| pred(dec(*k), v), examined)
            .map(|(r, k, v)| (r, dec(k), v))
    }

    /// Entries in descending priority order (testing/debug).
    pub fn entries(&self) -> Vec<(u64, &V)> {
        self.inner.iter().map(|(k, v)| (dec(k), v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descending_order_and_ranks() {
        let pl = PriorityList::from_entries([(10u64, 'a'), (30, 'b'), (20, 'c')]);
        assert_eq!(pl.kth(0), Some((30, &'b')));
        assert_eq!(pl.kth(1), Some((20, &'c')));
        assert_eq!(pl.kth(2), Some((10, &'a')));
        assert_eq!(pl.find(20), Some((1, &'c')));
        assert_eq!(pl.rank_of(30), Some(0));
        assert_eq!(pl.rank_of(99), None);
    }

    #[test]
    fn update_priority_moves_entry() {
        let mut pl = PriorityList::from_entries([(10u64, 'a'), (30, 'b'), (20, 'c')]);
        assert!(pl.update_priority(10, 40)); // 'a' to the front
        assert_eq!(pl.kth(0), Some((40, &'a')));
        assert_eq!(pl.len(), 3);
        assert!(!pl.update_priority(10, 50)); // gone
    }

    #[test]
    fn next_with_scans_forward() {
        // Priorities 100, 90, ..., 10; values 0..=9.
        let pl = PriorityList::from_entries((0..10u64).map(|i| (100 - 10 * i, i)));
        let mut w = 0;
        // First even value at rank >= 3 (value 3 at rank 3 is odd; value 4
        // at rank 4 is even).
        let hit = pl.next_with(3, |_, &v| v % 2 == 0, &mut w);
        assert_eq!(hit, Some((4, 60, &4)));
        assert_eq!(w, 2);
        assert!(pl.next_with(9, |_, &v| v == 100, &mut w).is_none());
    }

    #[test]
    fn bound_rank_for_absent_priorities() {
        let pl = PriorityList::from_entries([(10u64, 'a'), (30, 'b'), (20, 'c')]);
        assert_eq!(pl.bound_rank(30), 0);
        assert_eq!(pl.bound_rank(25), 1); // would sit after 30
        assert_eq!(pl.bound_rank(20), 1);
        assert_eq!(pl.bound_rank(5), 3);
        assert_eq!(pl.bound_rank(u64::MAX), 0);
    }

    #[test]
    fn boundary_priorities() {
        let mut pl = PriorityList::new();
        pl.insert(0, 'z');
        pl.insert(u64::MAX, 'm');
        assert_eq!(pl.kth(0), Some((u64::MAX, &'m')));
        assert_eq!(pl.kth(1), Some((0, &'z')));
        assert_eq!(pl.remove(u64::MAX), Some('m'));
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn sorted_and_incremental_builds_scan_identically() {
        // Regression for the PR-2 batch-build path: `from_sorted_entries`
        // must be observationally identical to a sequence of `insert`s —
        // same entries, same ranks, same `next_with` hits and work.
        let entries: Vec<(u64, u32)> = (0..500u64).map(|i| (i * 11 + 3, i as u32)).collect();
        let mut desc = entries.clone();
        desc.sort_unstable_by_key(|&(p, _)| std::cmp::Reverse(p));
        let bulk: PriorityList<u32> = PriorityList::from_sorted_entries(desc.iter().copied());
        let mut inc: PriorityList<u32> = PriorityList::new();
        for &(p, v) in &entries {
            inc.insert(p, v);
        }
        assert_eq!(bulk.entries(), inc.entries());
        for from in [0usize, 1, 7, 250, 499, 500] {
            let (mut wa, mut wb) = (0u64, 0u64);
            let a = bulk.next_with(from, |_, &v| v % 13 == 0, &mut wa);
            let b = inc.next_with(from, |_, &v| v % 13 == 0, &mut wb);
            assert_eq!(a, b, "from_rank {from}");
            assert_eq!(wa, wb, "scan work at {from}");
        }
        for p in [3u64, 14, 5489, 5500, 0, u64::MAX] {
            assert_eq!(bulk.bound_rank(p), inc.bound_rank(p), "priority {p}");
        }
    }
}
