//! The batched Even–Shiloach engine (Theorem 1.2 / Algorithm 1), shared
//! by [`crate::EsTree`] and Lemma 3.3's decremental spanner.
//!
//! Per vertex `v`, `In(v)` is a Lemma 3.1 priority list of in-edges in
//! descending priority order; the current parent is the *first* entry at
//! depth `Dist(v) − 1` (invariant A1), identified by its priority key
//! (ranks shift under deletions and re-keys, keys do not). A deletion
//! batch is [`EsEngine::remove`] per directed edge, then
//! [`EsEngine::run_phases`]: level-synchronous phases `i = 1..=L` in
//! which every dirty vertex at level `i` rescans forward with `NextWith`
//! from its *ceiling*, the highest priority it may still need to see,
//! resolved to a rank only at scan time. A failed scan bumps the vertex to
//! level `i+1`, resets its ceiling to the top, and requeues it with its
//! tree children (invariants A2–A4).
//!
//! Forward-only scanning is sound decrementally because an in-neighbor's
//! distance never decreases: entries skipped at some level can never
//! become candidates at that level again. After level `i` settles, a
//! [`Hook`] may re-key entries whose source sits at level `i` (Lemma 3.3's
//! cluster moves) through [`EsEngine::rekey`], [`EsEngine::adopt`] and
//! [`EsEngine::enqueue`].

use bds_dstruct::edge_table::pack;
use bds_dstruct::{EdgeTable, PriorityList};
use bds_graph::api::BatchStats;
use bds_graph::types::V;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parent sentinel.
pub const NO_VERTEX: V = V::MAX;
/// `dist` value for vertices beyond depth L (the paper's "L + 1").
pub const UNREACHED: u32 = u32::MAX;
/// Rescan levels at least this large scan in parallel.
pub const PAR_RESCAN_MIN: usize = 64;

/// What a structure adds to the level loop.
pub trait Hook {
    /// `v`'s parent moved from `old` to `new`; either may be [`NO_VERTEX`].
    fn parent_changed(&mut self, v: V, old: V, new: V);

    /// Level `i`'s parents have settled. The hook may re-key entries whose
    /// source sits at level `i`, adopt risers and enqueue rescans; each
    /// only affects vertices at level `i + 1`.
    fn level_settled(&mut self, es: &mut EsEngine, i: u32);
}

/// Even–Shiloach state over a digraph on `0..n`, truncated at depth L.
pub struct EsEngine {
    l_max: u32,
    dist: Vec<u32>,
    parent: Vec<V>,
    parent_prio: Vec<u64>,
    /// In(v): (priority, source), descending.
    ins: Vec<PriorityList<V>>,
    /// Out-adjacency (CSR) of the edges as built; a dead edge stays, but
    /// only a live one can be a tree edge.
    out_off: Vec<usize>,
    out_adj: Vec<V>,
    /// directed edge (u → v) -> its priority inside In(v); also the
    /// live-edge index.
    prio_of: EdgeTable,
    /// Pending rescans per level: (vertex, scan ceiling priority).
    queues: Vec<Vec<(V, u64)>>,
    /// scratch: epoch marker for per-phase deduplication
    pub(crate) mark: Vec<u32>,
    /// scratch: per-vertex slot index, valid while `mark[v] == epoch`
    slot: Vec<u32>,
    epoch: u32,
    stats: BatchStats,
}

impl EsEngine {
    /// The one build step: in-lists and `prio_of` from `(target,
    /// Reverse(priority), source)` entries sorted ascending (each
    /// in-list's entries together, in list order) with distinct (source,
    /// target) pairs, around the out-adjacency `out` (CSR offsets and
    /// targets of the same edges) and the initial tree `dist`/`parent`/
    /// `parent_prio` over `dist.len()` vertices.
    pub fn assemble(
        l_max: u32,
        entries: &[(V, Reverse<u64>, V)],
        (out_off, out_adj): (Vec<usize>, Vec<V>),
        dist: Vec<u32>,
        parent: Vec<V>,
        parent_prio: Vec<u64>,
    ) -> Self {
        let n = dist.len();
        debug_assert_eq!((out_off.len(), out_adj.len()), (n + 1, entries.len()));
        let prio_of = EdgeTable::from_distinct_batch(&bds_par::par_map(
            entries,
            |&(tgt, Reverse(p), src)| (pack(src, tgt), p),
        ));
        let ids: Vec<V> = (0..n as V).collect();
        let ins = bds_par::par_map(&ids, |&v| {
            let lo = entries.partition_point(|&(x, _, _)| x < v);
            let hi = entries.partition_point(|&(x, _, _)| x <= v);
            PriorityList::from_sorted_entries(
                entries[lo..hi].iter().map(|&(_, Reverse(p), src)| (p, src)),
            )
        });
        Self {
            l_max,
            dist,
            parent,
            parent_prio,
            ins,
            out_off,
            out_adj,
            prio_of,
            queues: vec![Vec::new(); l_max as usize + 2],
            mark: vec![0; n],
            slot: vec![0; n],
            epoch: 0,
            stats: BatchStats::default(),
        }
    }

    pub(crate) fn n(&self) -> usize {
        self.dist.len()
    }

    pub(crate) fn l_max(&self) -> u32 {
        self.l_max
    }

    #[inline]
    pub fn dist(&self, v: V) -> u32 {
        self.dist[v as usize]
    }

    /// `v`'s parent, or [`NO_VERTEX`].
    #[inline]
    pub fn parent(&self, v: V) -> V {
        self.parent[v as usize]
    }

    /// Priority of `v`'s parent entry in In(v).
    pub(crate) fn parent_priority(&self, v: V) -> u64 {
        self.parent_prio[v as usize]
    }

    pub fn has_edge(&self, u: V, v: V) -> bool {
        self.prio_of.contains(u, v)
    }

    /// Number of live directed edges.
    pub fn num_edges(&self) -> usize {
        self.prio_of.len()
    }

    /// In(v): (priority, source) in descending priority.
    pub fn in_list(&self, v: V) -> &PriorityList<V> {
        &self.ins[v as usize]
    }

    /// Out-neighbours of `u` as built, dead edges included.
    fn out(&self, u: V) -> &[V] {
        &self.out_adj[self.out_off[u as usize]..self.out_off[u as usize + 1]]
    }

    /// Scan steps and vertices touched since construction.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    pub(crate) fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// `NextWith` from ceiling `ceil`: the first entry of In(v) at or
    /// below `ceil` whose source sits one level above v.
    fn scan(&self, v: V, ceil: u64, work: &mut u64) -> Option<(u64, V)> {
        let ins = &self.ins[v as usize];
        let want = self.dist[v as usize] - 1;
        ins.next_with(
            ins.bound_rank(ceil),
            |_, &src| self.dist[src as usize] == want,
            work,
        )
        .map(|(_, p, &src)| (p, src))
    }

    /// The first candidate in In(v) (`v` at depth ≥ 1): what v's parent
    /// entry must be, as (priority, source).
    fn first_candidate(&self, v: V) -> Option<(u64, V)> {
        self.scan(v, u64::MAX, &mut 0)
    }

    /// v's parent is set and one level up, not left stale by a bump.
    fn valid_parent(&self, v: usize) -> bool {
        let p = self.parent[v];
        p != NO_VERTEX && self.dist[p as usize] == self.dist[v] - 1
    }

    /// Delete the directed edge (u → v). If it was v's parent entry, v is
    /// orphaned (reported to `hook`) and queued to rescan its level from
    /// the dead entry's priority. Panics if the edge is absent.
    pub fn remove(&mut self, u: V, v: V, hook: &mut impl Hook) {
        let p = self
            .prio_of
            .remove(u, v)
            .unwrap_or_else(|| panic!("delete of absent edge ({u},{v})"));
        if self.parent[v as usize] == u && self.parent_prio[v as usize] == p {
            self.parent[v as usize] = NO_VERTEX;
            self.enqueue(v, p);
            hook.parent_changed(v, u, NO_VERTEX);
        }
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        self.ins[v as usize].remove(p).expect("in-entry present");
    }

    /// Queue `v` to rescan its level from priority `ceil` down.
    pub fn enqueue(&mut self, v: V, ceil: u64) {
        self.queues[self.dist[v as usize] as usize].push((v, ceil));
    }

    /// Move the entry (u → v) to priority `new`, keeping v's recorded
    /// parent priority in step if it is v's parent entry. Returns the old
    /// priority and whether it was the parent entry.
    pub fn rekey(&mut self, u: V, v: V, new: u64) -> (u64, bool) {
        let old = self
            .prio_of
            .insert(u, v, new)
            .unwrap_or_else(|| panic!("rekey of absent edge ({u},{v})"));
        assert!(self.ins[v as usize].update_priority(old, new));
        let is_parent = self.parent[v as usize] == u && self.parent_prio[v as usize] == old;
        if is_parent {
            self.parent_prio[v as usize] = new;
        }
        (old, is_parent)
    }

    /// A riser: the entry (u → v) at priority `p`, with u one level above
    /// v, climbed. If v has no valid parent or a lower-priority one, u is
    /// now v's first candidate and becomes its parent; returns the parent
    /// it displaced (maybe [`NO_VERTEX`]).
    pub fn adopt(&mut self, v: V, u: V, p: u64) -> Option<V> {
        let old = self.parent[v as usize];
        if self.valid_parent(v as usize) && self.parent_prio[v as usize] >= p {
            return None;
        }
        self.parent[v as usize] = u;
        self.parent_prio[v as usize] = p;
        Some(old)
    }

    /// Run the phases `i = 1..=L` over what [`EsEngine::remove`] and the
    /// hook queued, calling [`Hook::level_settled`] after each level.
    /// Returns how many vertices fell past depth L.
    pub fn run_phases(&mut self, hook: &mut impl Hook) -> usize {
        let mut fell = 0;
        for i in 1..=self.l_max {
            let q = std::mem::take(&mut self.queues[i as usize]);
            // Deduplicate by vertex, keeping the highest ceiling (scanning
            // from higher up is always safe). The mark/slot scratch arrays
            // make this allocation-free.
            let epoch = self.next_epoch();
            let mut level: Vec<(V, u64)> = Vec::with_capacity(q.len());
            for (v, ceil) in q {
                let vi = v as usize;
                // Stale entry: v settled at another level since it was
                // queued (a child of a bumped parent that found a parent
                // of its own, or a vertex that bumped and requeued).
                if self.dist[vi] != i {
                    continue;
                }
                // Leapfrog: a riser adopted since v was queued is a valid
                // parent above the ceiling, and everything at or below the
                // ceiling is worse. With static keys nothing is adopted, a
                // queued vertex's parent is unset or a bumped (invalid)
                // one, and this never fires. It also makes a never-downgrade
                // check at apply unnecessary: a valid parent at or below
                // the ceiling is a candidate in the scanned range, so the
                // scan cannot return anything below it.
                if self.valid_parent(vi) && self.parent_prio[vi] > ceil {
                    continue;
                }
                if self.mark[vi] == epoch {
                    let s = self.slot[vi] as usize;
                    level[s].1 = level[s].1.max(ceil);
                } else {
                    self.mark[vi] = epoch;
                    self.slot[vi] = level.len() as u32;
                    level.push((v, ceil));
                }
            }
            self.stats.vertices_touched += level.len() as u64;

            // Read-only rescans against level i−1, settled: each returns
            // its step count with its result, so both branches tally the
            // same work.
            let scan = |&(v, ceil): &(V, u64)| {
                let mut w = 0u64;
                let hit = self.scan(v, ceil, &mut w);
                (v, hit, w)
            };
            let results = if level.len() >= PAR_RESCAN_MIN {
                bds_par::par_map_grain(&level, 16, scan)
            } else {
                level.iter().map(scan).collect::<Vec<_>>()
            };
            self.stats.scan_steps += results.iter().map(|r| r.2).sum::<u64>();

            for (v, hit, _) in results {
                let vi = v as usize;
                let old = self.parent[vi];
                if let Some((p, src)) = hit {
                    if old != src {
                        self.parent[vi] = src;
                        hook.parent_changed(v, old, src);
                    }
                    self.parent_prio[vi] = p;
                    continue;
                }
                self.parent[vi] = NO_VERTEX;
                if old != NO_VERTEX {
                    hook.parent_changed(v, old, NO_VERTEX);
                }
                if i == self.l_max {
                    // Falls off the maintained depth; depth-L vertices are
                    // tree leaves, so there are no children to requeue.
                    self.dist[vi] = UNREACHED;
                    fell += 1;
                    continue;
                }
                self.dist[vi] = i + 1;
                let next = &mut self.queues[i as usize + 1];
                next.push((v, u64::MAX));
                // Tree children resume from their parent entry's priority;
                // that entry now simply fails the depth test.
                for &c in &self.out_adj[self.out_off[vi]..self.out_off[vi + 1]] {
                    if self.parent[c as usize] == v {
                        next.push((c, self.parent_prio[c as usize]));
                    }
                }
            }
            hook.level_settled(self, i);
        }
        fell
    }

    /// Root the tree at `source`: BFS distances, then each vertex's first
    /// candidate as its parent, picked in parallel.
    pub(crate) fn root_at(&mut self, source: V) {
        self.dist = self.bfs(source);
        let ids: Vec<V> = (0..self.n() as V).collect();
        let found = bds_par::par_filter_map(&ids, |&v| {
            let d = self.dist[v as usize];
            (d >= 1 && d != UNREACHED).then(|| (v, self.first_candidate(v)))
        });
        for (v, hit) in found {
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let (p, src) = hit.expect("reachable vertex must have a parent");
            self.parent[v as usize] = src;
            self.parent_prio[v as usize] = p;
        }
    }

    /// Level-synchronous BFS distances from `source` over the live edges,
    /// truncated at L (Lemma 3.2): each frontier expands in parallel, and
    /// the first CAS on a vertex claims it.
    fn bfs(&self, source: V) -> Vec<u32> {
        let dist: Vec<AtomicU32> = (0..self.n()).map(|_| AtomicU32::new(UNREACHED)).collect();
        // ordering: Relaxed — first-writer-wins distance claims; levels
        // are separated by the pool's join barrier, so no data is
        // published through these cells.
        dist[source as usize].store(0, Ordering::Relaxed);
        let mut frontier = vec![source];
        let mut d = 0;
        while !frontier.is_empty() && d < self.l_max {
            d += 1;
            frontier = bds_par::par_flat_map(&frontier, |&u| {
                let mut claimed = Vec::new();
                for &w in self.out(u) {
                    // ordering: Relaxed, as above.
                    if self.prio_of.contains(u, w)
                        && dist[w as usize]
                            .compare_exchange(UNREACHED, d, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        claimed.push(w);
                    }
                }
                claimed
            });
        }
        dist.into_iter().map(AtomicU32::into_inner).collect()
    }

    /// Validation oracle: recompute BFS distances from `source` over the
    /// live edges and check `dist`; check that every vertex within depth
    /// (other than `source`) has its first candidate as parent, and that
    /// the in-lists and `prio_of` hold the same entries. Panics on
    /// violation.
    pub fn validate(&self, source: V) {
        assert_eq!(
            self.dist,
            self.bfs(source),
            "distance labels diverge from BFS"
        );
        let mut entries = 0;
        for v in 0..self.n() as V {
            for (p, &u) in self.ins[v as usize].iter() {
                assert_eq!(
                    self.prio_of.get(u, v),
                    Some(p),
                    "In({v}) and prio_of disagree on {u}"
                );
                entries += 1;
            }
            let (d, p) = (self.dist[v as usize], self.parent[v as usize]);
            if d == 0 || d == UNREACHED {
                assert_eq!(p, NO_VERTEX, "vertex {v} at depth {d} has a parent");
                continue;
            }
            // The first candidate is a live entry one level up, so this
            // also checks the parent edge and the parent's depth.
            assert_eq!(
                self.first_candidate(v),
                Some((self.parent_prio[v as usize], p)),
                "parent of {v} is not the first candidate"
            );
        }
        assert_eq!(self.prio_of.len(), entries, "prio_of holds dead entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::gen;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    /// Moves keys the way Lemma 3.3's cluster moves do: after level i
    /// settles, some level-i vertices re-key all their out-entries to
    /// random keys (lowering some, raising others), then keep the
    /// engine's contract — a lowered parent entry rescans from its old
    /// priority, a raised candidate is offered for adoption.
    struct Rekeyer {
        rng: StdRng,
        moved: u64,
        rescans: u64,
        adopted: u64,
    }

    impl Hook for Rekeyer {
        fn parent_changed(&mut self, _: V, _: V, _: V) {}

        fn level_settled(&mut self, es: &mut EsEngine, i: u32) {
            for v in 0..es.n() as V {
                if es.dist(v) != i || !self.rng.gen_bool(0.3) {
                    continue;
                }
                let outs: Vec<V> = es
                    .out(v)
                    .iter()
                    .copied()
                    .filter(|&w| es.has_edge(v, w))
                    .collect();
                for w in outs {
                    // The low word (the source) keeps keys distinct in In(w).
                    let new = (self.rng.gen_range(0..2 * es.n() as u64) << 32) | v as u64;
                    let (old, is_parent) = es.rekey(v, w, new);
                    self.moved += 1;
                    if es.dist(w) != i + 1 {
                        continue;
                    }
                    if is_parent {
                        if new < old {
                            es.enqueue(w, old);
                            self.rescans += 1;
                        }
                    } else if new > old && es.adopt(w, v, new).is_some() {
                        self.adopted += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn rekeying_hook_keeps_parents_first_candidates() {
        // Undirected edges, both orientations keyed by their source, as
        // sorted build entries (target, Reverse(key), source).
        let n = 600;
        let edges = gen::gnm_connected(n, 2_400, 41);
        let key = |u: V| (u as u64) << 32 | u as u64;
        let mut entries: Vec<(V, Reverse<u64>, V)> = edges
            .iter()
            .flat_map(|e| [(e.v, Reverse(key(e.u)), e.u), (e.u, Reverse(key(e.v)), e.v)])
            .collect();
        entries.sort_unstable();
        let g = bds_graph::CsrGraph::from_edges(n, &edges);
        let mut out = (vec![0], Vec::new());
        for v in 0..n as V {
            out.1.extend_from_slice(g.neighbors(v));
            out.0.push(out.1.len());
        }
        let (unset, none) = (vec![UNREACHED; n], vec![NO_VERTEX; n]);
        let mut trees = Vec::new();
        for threads in [1, 2] {
            bds_par::run_with_threads(threads, || {
                let mut es = EsEngine::assemble(
                    12,
                    &entries,
                    out.clone(),
                    unset.clone(),
                    none.clone(),
                    vec![0; n],
                );
                es.root_at(0);
                let mut hook = Rekeyer {
                    rng: StdRng::seed_from_u64(5),
                    moved: 0,
                    rescans: 0,
                    adopted: 0,
                };
                let mut live = edges.clone();
                live.shuffle(&mut StdRng::seed_from_u64(6));
                while live.len() > 200 {
                    for e in live.split_off(live.len() - 40) {
                        es.remove(e.u, e.v, &mut hook);
                        es.remove(e.v, e.u, &mut hook);
                    }
                    es.run_phases(&mut hook);
                    es.validate(0);
                }
                assert!(hook.moved > 0 && hook.rescans > 0 && hook.adopted > 0);
                trees.push(
                    (0..n as V)
                        .map(|v| (es.dist(v), es.parent(v), es.parent_priority(v)))
                        .collect::<Vec<_>>(),
                );
            });
        }
        assert_eq!(trees[0], trees[1]);
    }
}
