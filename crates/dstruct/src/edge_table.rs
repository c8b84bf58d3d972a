//! A flat, open-addressed table keyed by *packed* directed edges — the
//! \[GMV91\]-style batch-parallel hash table the paper's preliminaries
//! assume, specialized to this codebase's dominant access pattern:
//! `(u, v) → u64` lookups on the hot paths of every dynamic structure.
//!
//! Design:
//! * **Packed keys.** An edge `(u, v)` with `u, v < 2³²` becomes the
//!   single word `(u << 32) | v` ([`pack`]). One `mix64` of that word
//!   replaces the two-field tuple hashing a `FxHashMap<(V, V), _>` pays,
//!   and key comparison is one integer compare.
//! * **Linear probing over interleaved 16-byte slots** (power-of-two
//!   capacity, grow-on-⅝-load), plus a **1-byte tag array**: each
//!   occupied slot publishes 7 independent hash bits. Probes scan the
//!   tag array — 16× denser than the slots, so it stays cache-resident
//!   — and touch a slot only on a tag match; absent keys usually
//!   resolve without touching the slot array at all.
//! * **Backward-shift removals, no tombstones.** A removal walks the
//!   rest of its cluster and moves back into the hole every entry homed
//!   at or cyclically before it, then frees the last hole (Knuth, TAOCP
//!   vol. 3, Algorithm R). The table never holds a tombstone and
//!   rehashes only to grow. Tombstones would count against the ⅝ load
//!   limit, so a table whose live load sits between ½ and ⅝ — where
//!   the serving tables live — would rehash every slot each few
//!   thousand churn removals.
//! * **Sequential batch ops with group prefetching.**
//!   [`EdgeTable::from_batch`] packs and sorts with `bds_par`, then
//!   scatters into exactly-sized storage; [`EdgeTable::insert_batch`]
//!   scatters into pre-grown storage without sorting. The scatter and
//!   [`EdgeTable::get_batch`] pipeline hash → prefetch → probe over
//!   blocks so independent slot fetches overlap instead of serializing
//!   on memory latency. Each batch op is one loop on the calling
//!   thread, so the slot layout, and with it [`EdgeTable::iter`]'s
//!   order, is a function of the operations alone at every pool width.
//!   (A parallel CAS scatter, region-partitioned removals and chunked
//!   lookups measure slower than these loops at 2 threads, and a CAS
//!   scatter places colliding keys by race.)
//!
//! The value type is `u64`; callers store priorities, random keys, slot
//! indices, refcounts, or `f64::to_bits` weights in it directly.

use crate::fx::mix64;

/// Key sentinel for an empty slot. Unreachable as a real key: it would
/// require `u = v = u32::MAX`, and `u32::MAX` is every caller's
/// `NO_VERTEX` sentinel (graphs are over `0..n` with `n < u32::MAX`).
const EMPTY: u64 = u64::MAX;

/// Tag of a never-used slot; occupied slots carry `0x80 | top-7-bits`.
const TAG_FREE: u8 = 0;

/// Queries per group-prefetch pipeline block in the batch operations,
/// and how far ahead of its probe a batch reader issues
/// [`EdgeTable::prefetch`]. A power of two.
pub const PREFETCH_DEPTH: usize = 16;
const _: () = assert!(PREFETCH_DEPTH.is_power_of_two());

/// Tag-first probing adds an extra array indirection that only pays off
/// once the slot array decisively exceeds the fast caches (misses then
/// resolve in the dense, cache-resident tag array without touching the
/// slots). Below this many slots, probes walk the slots directly.
const TAG_PROBE_MIN_SLOTS: usize = 1 << 20;

/// Pack a directed vertex pair into its `u64` key.
#[inline]
pub fn pack(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// One 16-byte table slot: packed key + value, cache-line interleaved.
#[derive(Clone, Copy)]
#[repr(C)]
struct Slot {
    key: u64,
    val: u64,
}

const FREE: Slot = Slot { key: EMPTY, val: 0 };

/// Flat open-addressed `(u, v) → u64` table with packed keys.
#[derive(Clone, Default)]
pub struct EdgeTable {
    /// Power-of-two slot array (empty vec when unallocated).
    slots: Vec<Slot>,
    /// Per-slot byte: `TAG_FREE` or `0x80 | 7 hash bits`.
    tags: Vec<u8>,
    /// `capacity − 1` (0 when unallocated).
    mask: usize,
    len: usize,
    /// Rehashes into new storage: growth only, never churn.
    #[cfg(test)]
    rebuilds: u64,
}

impl std::fmt::Debug for EdgeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeTable")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

/// Home slot (low bits) and tag (top 7 bits, marked occupied) of a key.
#[inline(always)]
fn hash_pair(key: u64, mask: usize) -> (usize, u8) {
    let h = mix64(key);
    (h as usize & mask, 0x80 | (h >> 57) as u8)
}

/// Smallest power-of-two capacity that keeps `len` entries under ⅝ load.
fn capacity_for(len: usize) -> usize {
    let target = len * 8 / 5 + 1;
    target.next_power_of_two().max(16)
}

/// Whether the entry at slot `j`, homed at `home`, may fill the hole at
/// `hole` earlier in its cluster: only if its home is at or cyclically
/// before the hole, since a probe for it starts at its home and must
/// still pass the hole on its way to the entry.
#[inline(always)]
fn shifts_back(home: usize, hole: usize, j: usize, mask: usize) -> bool {
    (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask)
}

impl EdgeTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// A table pre-sized for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        if n == 0 {
            return Self::default();
        }
        let cap = capacity_for(n);
        Self {
            slots: vec![FREE; cap],
            tags: vec![TAG_FREE; cap],
            mask: cap - 1,
            len: 0,
            #[cfg(test)]
            rebuilds: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub fn clear(&mut self) {
        self.slots.fill(FREE);
        self.tags.fill(TAG_FREE);
        self.len = 0;
    }

    /// Read slot `i`. SAFETY-invariant: probe indices are produced as
    /// `h & mask` with `mask == slots.len() - 1`, so `i` is in bounds.
    #[inline(always)]
    fn slot(&self, i: usize) -> Slot {
        debug_assert!(i < self.slots.len());
        unsafe { *self.slots.get_unchecked(i) }
    }

    #[inline(always)]
    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        debug_assert!(i < self.slots.len());
        // SAFETY: probe indices are `h & mask` with
        // `mask == slots.len() - 1` (power-of-two table), so in bounds.
        unsafe { self.slots.get_unchecked_mut(i) }
    }

    #[inline(always)]
    fn tag(&self, i: usize) -> u8 {
        debug_assert!(i < self.tags.len());
        // SAFETY: `tags` mirrors `slots` in length; same masked-index
        // bound as `slot` above.
        unsafe { *self.tags.get_unchecked(i) }
    }

    #[inline(always)]
    fn set_tag(&mut self, i: usize, t: u8) {
        debug_assert!(i < self.tags.len());
        // SAFETY: same masked-index bound as `tag`.
        unsafe { *self.tags.get_unchecked_mut(i) = t }
    }

    /// Hint the cache that slot `i` is about to be probed. Batch ops
    /// pipeline hash → prefetch → probe over [`PREFETCH_DEPTH`]-blocks
    /// so independent slot fetches overlap instead of serializing on
    /// memory latency ("group prefetching").
    #[inline(always)]
    fn prefetch_slot(&self, i: usize) {
        // SAFETY: prefetch is a hint with no memory effects; even a
        // one-past-the-end address would be sound, and `i` is a masked
        // in-bounds probe index anyway.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.slots.as_ptr().add(i) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Hint the cache that `(u, v)` is about to be looked up: prefetch
    /// its home slot. For batch readers that pipeline their own queries
    /// (routing them first, say) and probe each one [`PREFETCH_DEPTH`]
    /// queries after its hint, as [`EdgeTable::get_batch`] does inside.
    #[inline(always)]
    pub fn prefetch(&self, u: u32, v: u32) {
        if self.len != 0 {
            self.prefetch_slot(hash_pair(pack(u, v), self.mask).0);
        }
    }

    /// Probe for `key` with tag `tag` from its home slot `i`,
    /// dispatching on table size: small tables walk the slots directly
    /// (one array, one touch per probe); large tables scan the dense
    /// tag array and touch a slot only on a 7-bit tag match, so misses
    /// usually never reach the big array.
    #[inline(always)]
    fn probe_from(&self, i: usize, key: u64, tag: u8) -> Option<u64> {
        if self.slots.len() >= TAG_PROBE_MIN_SLOTS {
            self.probe_tags(i, key, tag)
        } else {
            self.probe_slots(i, key)
        }
    }

    #[inline(always)]
    fn probe_slots(&self, mut i: usize, key: u64) -> Option<u64> {
        let mask = self.mask;
        loop {
            let s = self.slot(i);
            if s.key == key {
                return Some(s.val);
            }
            if s.key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline(always)]
    fn probe_tags(&self, mut i: usize, key: u64, tag: u8) -> Option<u64> {
        let mask = self.mask;
        loop {
            let t = self.tag(i);
            if t == tag {
                let s = self.slot(i);
                if s.key == key {
                    return Some(s.val);
                }
            } else if t == TAG_FREE {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// First free slot at or after `i` (tag scan).
    #[inline(always)]
    fn free_from(&self, mut i: usize) -> usize {
        let mask = self.mask;
        while self.tag(i) != TAG_FREE {
            i = (i + 1) & mask;
        }
        i
    }

    /// Bulk-build from `(u, v, value)` entries: `bds_par` sort (which
    /// groups equal keys for the duplicate check) followed by the
    /// sequential scatter into exactly-sized storage. Keys must be
    /// distinct; duplicates panic (callers deduplicate first — see
    /// `EsTree::new`'s keep-highest-priority pass).
    pub fn from_batch(entries: &[(u32, u32, u64)]) -> Self {
        if entries.is_empty() {
            return Self::default();
        }
        let mut packed: Vec<(u64, u64)> =
            bds_par::par_map(entries, |&(u, v, val)| (pack(u, v), val));
        bds_par::par_sort(&mut packed);
        Self::from_sorted_batch(&packed)
    }

    /// Bulk-build from `(packed_key, value)` pairs already sorted by key
    /// — the zero-copy path for callers that sorted the batch themselves
    /// (e.g. to deduplicate or to reuse the ordering for adjacency
    /// grouping). Keys must be distinct; duplicates panic.
    pub fn from_sorted_batch(packed: &[(u64, u64)]) -> Self {
        for w in packed.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate edge key {:?}", unpack(w[0].0));
        }
        Self::from_distinct_batch(packed)
    }

    /// Bulk-build from `(packed_key, value)` pairs with distinct keys,
    /// in any order: [`EdgeTable::from_sorted_batch`]'s scatter without
    /// its sorted-order duplicate check, for callers that have ruled
    /// duplicates out in an order of their own. A duplicate key
    /// is not detected and corrupts the table.
    pub fn from_distinct_batch(packed: &[(u64, u64)]) -> Self {
        if packed.is_empty() {
            return Self::default();
        }
        let mut table = Self::with_capacity(packed.len());
        table.len = packed.len();
        table.scatter(packed);
        table
    }

    /// Scatter distinct, absent keys into free slots, in input order.
    /// Callers guarantee the load factor stays below 1.
    fn scatter(&mut self, packed: &[(u64, u64)]) {
        let mask = self.mask;
        // Double-buffered write-flavored pipeline: hash + prefetch block
        // k + 1 while block k's free-slot writes execute.
        let mut buf_a = [(0u64, 0usize, 0u8, 0u64); PREFETCH_DEPTH];
        let mut buf_b = [(0u64, 0usize, 0u8, 0u64); PREFETCH_DEPTH];
        let (mut cur, mut nxt) = (&mut buf_a, &mut buf_b);
        let stage = |tbl: &Self,
                     block: &[(u64, u64)],
                     buf: &mut [(u64, usize, u8, u64); PREFETCH_DEPTH]| {
            for (j, &(key, val)) in block.iter().enumerate() {
                let (home, tag) = hash_pair(key, mask);
                buf[j] = (key, home, tag, val);
                tbl.prefetch_slot(home);
            }
        };
        let mut blocks = packed.chunks(PREFETCH_DEPTH);
        let mut cur_block = blocks.next();
        if let Some(b) = cur_block {
            stage(self, b, cur);
        }
        while let Some(b) = cur_block {
            let next_block = blocks.next();
            if let Some(nb) = next_block {
                stage(self, nb, nxt);
            }
            for &(key, home, tag, val) in cur[..b.len()].iter() {
                let i = self.free_from(home);
                debug_assert_ne!(self.slot(i).key, key);
                *self.slot_mut(i) = Slot { key, val };
                self.set_tag(i, tag);
            }
            std::mem::swap(&mut cur, &mut nxt);
            cur_block = next_block;
        }
    }

    #[inline]
    pub fn get(&self, u: u32, v: u32) -> Option<u64> {
        self.get_key(pack(u, v))
    }

    #[inline]
    pub fn get_key(&self, key: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let (home, tag) = hash_pair(key, self.mask);
        self.probe_from(home, key, tag)
    }

    #[inline]
    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.get(u, v).is_some()
    }

    /// Insert or overwrite; returns the previous value if present.
    #[inline]
    pub fn insert(&mut self, u: u32, v: u32, val: u64) -> Option<u64> {
        self.insert_key(pack(u, v), val)
    }

    pub fn insert_key(&mut self, key: u64, val: u64) -> Option<u64> {
        debug_assert!(key != EMPTY, "key sentinel inserted");
        self.reserve(1);
        let mask = self.mask;
        let (mut i, tag) = hash_pair(key, mask);
        loop {
            let k = self.slot(i).key;
            if k == key {
                return Some(std::mem::replace(&mut self.slot_mut(i).val, val));
            }
            if k == EMPTY {
                *self.slot_mut(i) = Slot { key, val };
                self.set_tag(i, tag);
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove; returns the value if present. The hole is closed by
    /// backward shift, so a removal costs the rest of its cluster and
    /// never leaves a tombstone.
    #[inline]
    pub fn remove(&mut self, u: u32, v: u32) -> Option<u64> {
        self.remove_key(pack(u, v))
    }

    pub fn remove_key(&mut self, key: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask;
        let (mut i, _) = hash_pair(key, mask);
        loop {
            let k = self.slot(i).key;
            if k == key {
                break;
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
        let out = self.slot(i).val;
        self.close_hole(i);
        self.len -= 1;
        Some(out)
    }

    /// Backward-shift deletion (Knuth, TAOCP vol. 3, Algorithm R): empty
    /// slot `hole` by walking the rest of its cluster and moving each
    /// entry that [`shifts_back`] into the hole, which then moves to
    /// that entry's old slot; the last hole becomes `FREE`. Every probe
    /// chain stays gap-free, so no tombstone is needed. The ⅝ load
    /// bound guarantees the walk meets a `FREE` slot.
    fn close_hole(&mut self, mut hole: usize) {
        let mask = self.mask;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slot(j);
            if s.key == EMPTY {
                break;
            }
            if shifts_back(hash_pair(s.key, mask).0, hole, j, mask) {
                *self.slot_mut(hole) = s;
                let t = self.tag(j);
                self.set_tag(hole, t);
                hole = j;
            }
        }
        *self.slot_mut(hole) = FREE;
        self.set_tag(hole, TAG_FREE);
    }

    /// Batch point lookups, in query order, pipelined in
    /// `PREFETCH_DEPTH`-blocks (hash + prefetch every home slot, then
    /// probe) so the cache misses that a pointwise loop — or a
    /// tuple-keyed hash map — pays serially overlap; the dense tag
    /// array resolves most absent keys without touching the slots.
    pub fn get_batch(&self, queries: &[(u32, u32)]) -> Vec<Option<u64>> {
        if self.len == 0 {
            return vec![None; queries.len()];
        }
        let mut out = Vec::with_capacity(queries.len());
        // Double-buffered software pipeline: block k + 1 is hashed and
        // prefetched while block k's probes execute, so every prefetch
        // gets a full block of latency headroom before its demand load.
        let mut buf_a = [(0u64, 0usize, 0u8); PREFETCH_DEPTH];
        let mut buf_b = [(0u64, 0usize, 0u8); PREFETCH_DEPTH];
        let (mut cur, mut nxt) = (&mut buf_a, &mut buf_b);
        let mut blocks = queries.chunks(PREFETCH_DEPTH);
        let mut cur_block = blocks.next();
        if let Some(b) = cur_block {
            self.stage_block(b, cur);
        }
        while let Some(b) = cur_block {
            let next_block = blocks.next();
            if let Some(nb) = next_block {
                self.stage_block(nb, nxt);
            }
            for &(key, home, tag) in &cur[..b.len()] {
                out.push(self.probe_from(home, key, tag));
            }
            std::mem::swap(&mut cur, &mut nxt);
            cur_block = next_block;
        }
        out
    }

    /// Hash a query block into `buf` and prefetch every home slot.
    #[inline(always)]
    fn stage_block(&self, block: &[(u32, u32)], buf: &mut [(u64, usize, u8); PREFETCH_DEPTH]) {
        let mask = self.mask;
        for (j, &(u, v)) in block.iter().enumerate() {
            let key = pack(u, v);
            let (home, tag) = hash_pair(key, mask);
            buf[j] = (key, home, tag);
            self.prefetch_slot(home);
        }
    }

    /// Batch insert with distinct, absent keys: pre-grows once, then
    /// scatters without sorting. Returns the number of entries
    /// inserted. Panics (debug) on present keys —
    /// use [`EdgeTable::insert`] for overwrite semantics.
    pub fn insert_batch(&mut self, entries: &[(u32, u32, u64)]) -> usize {
        if entries.is_empty() {
            return 0;
        }
        self.reserve(entries.len());
        if cfg!(debug_assertions) {
            let mut keys: Vec<u64> = entries.iter().map(|&(u, v, _)| pack(u, v)).collect();
            keys.sort_unstable();
            debug_assert!(
                keys.windows(2).all(|w| w[0] != w[1]),
                "insert_batch with duplicate keys in the batch"
            );
            for &(u, v, _) in entries {
                debug_assert!(self.get(u, v).is_none(), "insert_batch of present key");
            }
        }
        let packed: Vec<(u64, u64)> = bds_par::par_map(entries, |&(u, v, val)| (pack(u, v), val));
        self.scatter(&packed);
        self.len += entries.len();
        entries.len()
    }

    /// Batch remove, one backward-shift removal per query in query
    /// order. Returns the number of keys actually removed.
    pub fn remove_batch(&mut self, queries: &[(u32, u32)]) -> usize {
        let mut removed = 0;
        for &(u, v) in queries {
            removed += usize::from(self.remove(u, v).is_some());
        }
        removed
    }

    /// Append `f(u, v, value)` for each live entry whose value has every
    /// bit of `mask` set (`mask = 0` keeps them all), in slot order: the
    /// order of [`EdgeTable::iter`]. `at_most` must bound the number of
    /// such entries.
    ///
    /// Branch-free: every slot's item is written at the cursor, which
    /// then advances by the slot's keep bit, so a part-full table pays
    /// no mispredicted branch per slot. `out` grows once by
    /// `at_most + 1` (the spare entry takes the writes after the last
    /// kept item) and is truncated to what was kept. `f` also runs on
    /// empty slots, whose items are overwritten, so it must be a cheap
    /// map defined on any input.
    #[inline]
    pub fn scan_into<T: Copy>(
        &self,
        out: &mut Vec<T>,
        at_most: usize,
        mask: u64,
        f: impl Fn(u32, u32, u64) -> T,
    ) {
        if self.len == 0 {
            return;
        }
        let base = out.len();
        out.resize(base + at_most + 1, f(0, 0, 0));
        let buf = &mut out[base..];
        let mut k = 0;
        for s in &self.slots {
            let (u, v) = unpack(s.key);
            buf[k] = f(u, v, s.val);
            k += usize::from((s.key != EMPTY) & (s.val & mask == mask));
        }
        out.truncate(base + k);
    }

    /// Live entries as `(u, v, value)`, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.slots.iter().filter(|s| s.key != EMPTY).map(|s| {
            let (u, v) = unpack(s.key);
            (u, v, s.val)
        })
    }

    /// Drain every live entry, leaving the table empty (capacity kept).
    pub fn drain(&mut self) -> Vec<(u32, u32, u64)> {
        let out: Vec<(u32, u32, u64)> = self.iter().collect();
        self.clear();
        out
    }

    /// Drain every live entry through a callback, leaving the table empty.
    /// Unlike [`EdgeTable::drain`] this performs no heap allocation — the
    /// delta-extraction hot path of every batch loop — except to shrink:
    /// a drain touches every slot, so storage more than 16× what the
    /// drained entries need (and over 4096 slots) is re-sized for them.
    /// Otherwise one rebuild-sized batch would make every later drain of
    /// a per-batch baseline rebuild-sized.
    pub fn drain_with(&mut self, mut f: impl FnMut(u32, u32, u64)) {
        let drained = self.len;
        for s in &self.slots {
            if s.key != EMPTY {
                let (u, v) = unpack(s.key);
                f(u, v, s.val);
            }
        }
        if self.slots.len() > (16 * capacity_for(drained)).max(1 << 12) {
            *self = Self::with_capacity(drained);
        } else {
            self.clear();
        }
    }

    /// Ensure ⅝-load headroom for `extra` more entries; past the
    /// threshold the table grows into `capacity_for(len + extra)` slots.
    pub fn reserve(&mut self, extra: usize) {
        let need = self.len + extra;
        if self.slots.is_empty() || need * 8 >= self.slots.len() * 5 {
            self.rebuild(capacity_for(need));
        }
    }

    /// Rehash every entry into fresh storage of `new_cap` slots, which
    /// [`EdgeTable::reserve`] only calls to grow.
    fn rebuild(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.slots.len());
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
        let old = std::mem::replace(&mut self.slots, vec![FREE; new_cap]);
        self.tags = vec![TAG_FREE; new_cap];
        self.mask = new_cap - 1;
        let mask = self.mask;
        for s in old {
            if s.key == EMPTY {
                continue;
            }
            let (home, tag) = hash_pair(s.key, mask);
            let i = self.free_from(home);
            *self.slot_mut(i) = s;
            self.set_tag(i, tag);
        }
    }
}

impl FromIterator<(u32, u32, u64)> for EdgeTable {
    fn from_iter<I: IntoIterator<Item = (u32, u32, u64)>>(iter: I) -> Self {
        let entries: Vec<(u32, u32, u64)> = iter.into_iter().collect();
        Self::from_batch(&entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (u, v) in [(0, 0), (1, 2), (u32::MAX - 1, 3), (7, u32::MAX - 1)] {
            assert_eq!(unpack(pack(u, v)), (u, v));
        }
        assert_ne!(pack(1, 2), pack(2, 1), "packed keys are directed");
    }

    #[test]
    fn point_ops_roundtrip() {
        let mut t = EdgeTable::new();
        assert_eq!(t.get(1, 2), None);
        assert_eq!(t.insert(1, 2, 10), None);
        assert_eq!(t.insert(2, 1, 20), None);
        assert_eq!(t.insert(1, 2, 11), Some(10));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1, 2), Some(11));
        assert_eq!(t.get(2, 1), Some(20));
        assert_eq!(t.remove(1, 2), Some(11));
        assert_eq!(t.remove(1, 2), None);
        assert_eq!(t.len(), 1);
        assert!(t.contains(2, 1));
    }

    #[test]
    fn growth_keeps_entries() {
        let mut t = EdgeTable::new();
        for i in 0..10_000u32 {
            assert_eq!(t.insert(i, i + 1, i as u64), None);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.capacity().is_power_of_two());
        assert!(t.len() * 8 < t.capacity() * 5, "load factor bound");
        for i in 0..10_000u32 {
            assert_eq!(t.get(i, i + 1), Some(i as u64), "entry {i}");
        }
    }

    #[test]
    fn removals_preserve_probe_chains() {
        // Dense consecutive keys force long probe clusters; deleting
        // from cluster middles must keep every survivor reachable
        // (backward shift closes each hole).
        let mut t = EdgeTable::with_capacity(64);
        for i in 0..40u32 {
            t.insert(i, i, (i as u64) << 8);
        }
        for i in (0..40u32).step_by(3) {
            assert_eq!(t.remove(i, i), Some((i as u64) << 8));
        }
        for i in 0..40u32 {
            let want = (i % 3 != 0).then_some((i as u64) << 8);
            assert_eq!(t.get(i, i), want, "key {i}");
        }
    }

    #[test]
    fn backward_shift_wraps_past_slot_zero() {
        // Keys homed in the last two slots of a 16-slot table form one
        // cluster that wraps past slot 0. Removing any one of them must
        // pull back exactly the entries homed at or before each hole,
        // including one homed at the hole itself.
        let homed = |h: usize, n: usize| -> Vec<u32> {
            (0u32..)
                .filter(|&k| hash_pair(pack(k, k), 15).0 == h)
                .take(n)
                .collect()
        };
        let keys = [homed(14, 2), homed(15, 3), homed(0, 1), homed(1, 1)].concat();
        let fill = || {
            let mut t = EdgeTable::with_capacity(8);
            for &k in &keys {
                t.insert(k, k, k as u64);
            }
            assert_eq!(t.capacity(), 16);
            t
        };
        for &victim in &keys {
            let mut t = fill();
            assert_eq!(t.remove(victim, victim), Some(victim as u64));
            for &k in &keys {
                assert_eq!(
                    t.get(k, k),
                    (k != victim).then_some(k as u64),
                    "victim {victim}"
                );
            }
        }
        let mut t = fill();
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(t.remove(k, k), Some(k as u64));
            for &rest in &keys[n + 1..] {
                assert_eq!(t.get(rest, rest), Some(rest as u64));
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn churn_near_max_load_never_rehashes() {
        // 39,000 live keys in 65,536 slots (0.595 load, between ½ and
        // ⅝): steady remove/insert churn must never rehash, and every
        // probe chain must survive the backward shifts.
        let mut t = EdgeTable::with_capacity(39_000);
        assert_eq!(t.capacity(), 1 << 16);
        let mut live: Vec<u32> = (0..39_000).collect();
        for &k in &live {
            t.insert(k, k + 1, k as u64);
        }
        let mut removed = Vec::new();
        let mut fresh = live.len() as u32;
        let mut draw = 0u64;
        for _ in 0..100 {
            for _ in 0..256 {
                draw += 1;
                let k = live.swap_remove(mix64(draw) as usize % live.len());
                assert_eq!(t.remove(k, k + 1), Some(k as u64));
                removed.push(k);
            }
            for _ in 0..256 {
                assert_eq!(t.insert(fresh, fresh + 1, fresh as u64), None);
                live.push(fresh);
                fresh += 1;
            }
            assert_eq!((t.len(), t.capacity(), t.rebuilds), (39_000, 1 << 16, 0));
        }
        for &k in &live {
            assert_eq!(t.get(k, k + 1), Some(k as u64), "live {k}");
        }
        for &k in &removed {
            assert_eq!(t.get(k, k + 1), None, "removed {k}");
        }
    }

    #[test]
    fn drain_shrinks_only_oversized_storage() {
        let fill = |t: &mut EdgeTable, m: u32| {
            for i in 0..m {
                t.insert(i, i + 1, 0);
            }
        };
        let mut t = EdgeTable::new();
        fill(&mut t, 10_000);
        let big = t.capacity();
        t.drain_with(|_, _, _| {});
        assert_eq!(t.capacity(), big, "sized for what it just drained");
        fill(&mut t, 5_000);
        t.drain_with(|_, _, _| {});
        assert_eq!(t.capacity(), big, "within 16× of 5000 entries");
        fill(&mut t, 10);
        let mut seen = 0;
        t.drain_with(|_, _, _| seen += 1);
        assert_eq!(seen, 10);
        assert_eq!(t.capacity(), EdgeTable::with_capacity(10).capacity());
        t.insert(1, 2, 3);
        assert_eq!((t.len(), t.get(1, 2)), (1, Some(3)));
        let mut s = EdgeTable::with_capacity(1_000);
        let small = s.capacity();
        s.drain_with(|_, _, _| {});
        assert_eq!(s.capacity(), small, "under 4096 slots: never shrunk");
    }

    #[test]
    fn from_batch_matches_point_inserts() {
        let entries: Vec<(u32, u32, u64)> = (0..50_000u32)
            .map(|i| (i * 7, i * 7 + 1, i as u64 * 3))
            .collect();
        let t = EdgeTable::from_batch(&entries);
        assert_eq!(t.len(), entries.len());
        for &(u, v, val) in &entries {
            assert_eq!(t.get(u, v), Some(val));
        }
        assert_eq!(t.get(3, 3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate edge key")]
    fn from_batch_rejects_duplicates() {
        let _ = EdgeTable::from_batch(&[(1, 2, 5), (1, 2, 6)]);
    }

    #[test]
    fn batch_ops_roundtrip() {
        let mut t = EdgeTable::new();
        let ins: Vec<(u32, u32, u64)> = (0..5_000u32).map(|i| (i, i + 9, i as u64)).collect();
        assert_eq!(t.insert_batch(&ins), ins.len());
        let queries: Vec<(u32, u32)> = (0..6_000u32).map(|i| (i, i + 9)).collect();
        let got = t.get_batch(&queries);
        for (i, g) in got.iter().enumerate() {
            let want = (i < 5_000).then_some(i as u64);
            assert_eq!(*g, want);
        }
        let dels: Vec<(u32, u32)> = (0..2_500u32).map(|i| (i * 2, i * 2 + 9)).collect();
        assert_eq!(t.remove_batch(&dels), 2_500);
        assert_eq!(t.len(), 2_500);
        for i in 0..5_000u32 {
            assert_eq!(t.get(i, i + 9).is_some(), i % 2 == 1);
        }
    }

    #[test]
    fn remove_batch_matches_model() {
        // Batch removal against point removals: absent keys, duplicates
        // in the batch, dense keys whose clusters run long, and a
        // cluster homed in the table's last slots that wraps past slot
        // 0, so backward shifts move entries across the wrap.
        let m = 6_144u32;
        let wrapping = 24;
        let mut entries: Vec<(u32, u32, u64)> = (0..m).map(|i| (i / 7, i, i as u64 + 1)).collect();
        let cap = capacity_for(m as usize + wrapping);
        entries.extend(
            (m..)
                .filter(|&k| hash_pair(pack(k, k), cap - 1).0 >= cap - 4)
                .take(wrapping)
                .map(|k| (k, k, k as u64)),
        );
        let mut t = EdgeTable::from_batch(&entries);
        assert_eq!(t.capacity(), cap);
        let mut dels: Vec<(u32, u32)> =
            entries.iter().step_by(2).map(|&(u, v, _)| (u, v)).collect();
        dels.push((u32::MAX - 2, 0)); // absent
        dels.push(dels[0]); // duplicate: second copy is a no-op
        let expect = entries.len().div_ceil(2);
        assert_eq!(t.remove_batch(&dels), expect);
        assert_eq!(t.len(), entries.len() - expect);
        for (i, &(u, v, val)) in entries.iter().enumerate() {
            let want = (i % 2 == 1).then_some(val);
            assert_eq!(t.get(u, v), want, "entry {i}");
        }
        // Remove the rest in one batch: the table drains fully.
        let rest: Vec<(u32, u32)> = entries
            .iter()
            .skip(1)
            .step_by(2)
            .map(|&(u, v, _)| (u, v))
            .collect();
        assert_eq!(t.remove_batch(&rest), rest.len());
        assert!(t.is_empty());
    }

    #[test]
    fn bulk_build_slot_order_is_independent_of_width() {
        // Colliding keys land in input order, so every build of one
        // input lays out the same slots, whatever the pool width.
        let packed: Vec<(u64, u64)> = (0..80_000u32).map(|i| (pack(i / 7, i), i as u64)).collect();
        let order = |threads| {
            bds_par::run_with_threads(threads, || {
                EdgeTable::from_sorted_batch(&packed)
                    .iter()
                    .collect::<Vec<_>>()
            })
        };
        let want = order(1);
        assert_eq!(want.len(), packed.len());
        for threads in [1, 2, 3] {
            for round in 0..4 {
                assert!(order(threads) == want, "threads = {threads}, round {round}");
            }
        }
    }

    #[test]
    fn iter_and_drain_cover_entries() {
        let mut t = EdgeTable::new();
        for i in 0..100u32 {
            t.insert(i, 1000 - i, i as u64);
        }
        let mut seen: Vec<(u32, u32, u64)> = t.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 100);
        assert!(seen
            .iter()
            .all(|&(u, v, val)| v == 1000 - u && val == u as u64));
        let drained = t.drain();
        assert_eq!(drained.len(), 100);
        assert!(t.is_empty());
        assert_eq!(t.get(5, 995), None);
    }

    /// `scan_into` returns exactly `iter()`'s entries in `iter()`'s
    /// order, appended after what `out` held, unmasked and masked (odd
    /// values only).
    fn assert_scan_is_iter(t: &EdgeTable) {
        let want: Vec<(u32, u32, u64)> = t.iter().collect();
        let mut got = vec![(7, 7, 7)];
        t.scan_into(&mut got, t.len(), 0, |u, v, val| (u, v, val));
        assert_eq!((got[0], &got[1..]), ((7, 7, 7), &want[..]));
        let odd: Vec<(u32, u32, u64)> = want.iter().copied().filter(|e| e.2 & 1 == 1).collect();
        got.clear();
        t.scan_into(&mut got, odd.len(), 1, |u, v, val| (u, v, val));
        assert_eq!(got, odd);
    }

    #[test]
    fn scan_into_matches_iter() {
        // Unallocated, then a 16-slot table.
        let mut t = EdgeTable::new();
        assert_scan_is_iter(&t);
        for i in 0..9u32 {
            t.insert(i, i + 1, i as u64);
        }
        assert_eq!(t.capacity(), 16);
        assert_scan_is_iter(&t);
        // At the ⅝ load limit: 639 entries in 1024 slots (the 640th
        // would grow the table).
        let mut t = EdgeTable::with_capacity(600);
        for i in 0..639u32 {
            t.insert(i, 3 * i, i as u64);
        }
        assert_eq!((t.len(), t.capacity()), (639, 1024));
        assert_scan_is_iter(&t);
        // Backward-shift removals from a cluster that wraps past the
        // last slot of a 16-slot table.
        let homed = |h: usize, n: usize| -> Vec<u32> {
            (0u32..)
                .filter(|&k| hash_pair(pack(k, k), 15).0 == h)
                .take(n)
                .collect()
        };
        let keys = [homed(14, 2), homed(15, 3), homed(0, 1), homed(1, 1)].concat();
        let mut t = EdgeTable::with_capacity(8);
        for &k in &keys {
            t.insert(k, k, k as u64);
        }
        assert_eq!(t.capacity(), 16);
        assert!(t.slot(15).key != EMPTY && t.slot(0).key != EMPTY);
        for &k in &keys {
            assert_eq!(t.remove(k, k), Some(k as u64));
            assert_scan_is_iter(&t);
        }
        // After a `drain_with` that shrinks the storage.
        let mut t = EdgeTable::new();
        for i in 0..10_000u32 {
            t.insert(i, i + 1, 0);
        }
        t.drain_with(|_, _, _| {});
        for i in 0..10u32 {
            t.insert(i, i + 1, i as u64);
        }
        let big = t.capacity();
        t.drain_with(|_, _, _| {});
        assert!(t.capacity() < big, "the drain shrank the table");
        for i in 0..10u32 {
            t.insert(2 * i, i, i as u64);
        }
        assert_scan_is_iter(&t);
    }

    #[test]
    fn f64_values_via_bits() {
        let mut t = EdgeTable::new();
        t.insert(3, 4, 6.25f64.to_bits());
        assert_eq!(f64::from_bits(t.get(3, 4).unwrap()), 6.25);
    }
}
