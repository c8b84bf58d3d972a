//! The batched Even–Shiloach tree (Theorem 1.2 / Algorithm 1).
//!
//! Per vertex `v`, `In(v)` is a Lemma 3.1 priority list of in-edges in
//! descending priority order; the current parent is the *first* entry at
//! depth `Dist(v) − 1` (invariant A1), identified by its priority key
//! (ranks shift under deletions, keys do not). A deletion batch runs
//! level-synchronous phases `i = 1..=L`: every dirty vertex at level `i`
//! rescans forward from its resume position with `NextWith`; a failed scan
//! bumps the vertex to level `i+1`, resets its scan to the head, and
//! enqueues it together with its tree children (invariants A2–A4).
//!
//! Forward-only scanning is sound decrementally because an in-neighbor's
//! distance never decreases: entries skipped at some level can never
//! become candidates at that level again.

use bds_dstruct::edge_table::{pack, unpack};
use bds_dstruct::{EdgeTable, PriorityList};
use bds_graph::api::{BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf};
use bds_graph::types::{Edge, V};
use bds_par::{WorkCounter, GRAIN};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parent sentinel.
pub const NO_VERTEX: V = V::MAX;
/// `dist` value for vertices beyond depth L (the paper's "L + 1").
pub const UNREACHED: u32 = u32::MAX;

/// One vertex's parent pointer change from a deletion batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentChange {
    pub vertex: V,
    pub old_parent: V,
    pub new_parent: V,
}

#[derive(Clone, Copy)]
struct InEntry {
    src: V,
}

/// Range of entries whose packed key has high word `x`, in a slice
/// sorted by packed key (i.e. the adjacency group of vertex `x`).
#[inline]
fn group_bounds(sorted: &[(u64, u64)], x: V) -> (usize, usize) {
    let lo = sorted.partition_point(|&(k, _)| k < (x as u64) << 32);
    let hi = sorted.partition_point(|&(k, _)| k < (x as u64 + 1) << 32);
    (lo, hi)
}

/// View a `u32` slice atomically for CAS-parallel BFS claims.
///
/// SAFETY: `AtomicU32` has `u32`'s size and alignment with compatible
/// in-memory representation; the exclusive borrow rules out concurrent
/// non-atomic access.
fn atomic_u32_view(dist: &mut [u32]) -> &[AtomicU32] {
    unsafe { std::slice::from_raw_parts(dist.as_ptr() as *const AtomicU32, dist.len()) }
}

/// Batched decremental Even–Shiloach tree on a digraph over `0..n`.
pub struct EsTree {
    n: usize,
    source: V,
    l_max: u32,
    dist: Vec<u32>,
    parent: Vec<V>,
    parent_prio: Vec<u64>,
    ins: Vec<PriorityList<InEntry>>,
    outs: Vec<Vec<V>>,
    /// directed edge (u → v) -> its priority inside `ins[v]`.
    prio_of: EdgeTable,
    /// Number of live *canonical* (undirected) edges: unordered pairs
    /// {u, v} with at least one orientation live. Kept incrementally so
    /// the trait view agrees with the undirected implementors.
    canon_live: usize,
    /// scratch: epoch marker for per-phase deduplication
    mark: Vec<u32>,
    /// scratch: per-vertex slot index, valid while `mark[v] == epoch`
    slot: Vec<u32>,
    epoch: u32,
    pub scan_work: WorkCounter,
    /// Cumulative statistics since construction.
    stats: BatchStats,
}

/// Typed builder for [`EsTree`] (Theorem 1.2).
#[derive(Debug, Clone)]
pub struct EsTreeBuilder {
    n: usize,
    source: V,
    l_max: u32,
}

impl EsTreeBuilder {
    /// BFS source vertex (default 0).
    pub fn source(mut self, source: V) -> Self {
        self.source = source;
        self
    }

    /// Maintained depth bound L (default 16).
    pub fn max_depth(mut self, l_max: u32) -> Self {
        self.l_max = l_max;
        self
    }

    /// Build from directed, prioritized edges `(u, v, priority)`.
    pub fn build(self, edges: &[(V, V, u64)]) -> Result<EsTree, ConfigError> {
        if self.n < 1 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 1 });
        }
        if self.source as usize >= self.n {
            return Err(ConfigError::VertexOutOfRange {
                vertex: self.source,
                n: self.n,
            });
        }
        if self.l_max < 1 {
            return Err(ConfigError::InvalidParam {
                name: "max_depth",
                reason: "the maintained depth L must be ≥ 1",
            });
        }
        for &(u, v, _) in edges {
            if u as usize >= self.n || v as usize >= self.n {
                return Err(ConfigError::VertexOutOfRange {
                    vertex: if u as usize >= self.n { u } else { v },
                    n: self.n,
                });
            }
        }
        Ok(EsTree::new(self.n, self.source, self.l_max, edges))
    }
}

impl EsTree {
    /// Typed builder: `EsTree::builder(n).source(s).max_depth(l)
    /// .build(&edges)`.
    pub fn builder(n: usize) -> EsTreeBuilder {
        EsTreeBuilder {
            n,
            source: 0,
            l_max: 16,
        }
    }
    /// Build from directed, prioritized edges `(u, v, priority)` — the
    /// priority orders `In(v)` descending and must be unique within each
    /// in-list. Duplicate directed edges are deduplicated as a batch,
    /// keeping the highest priority, so adversarial or generated
    /// workloads cannot abort construction. Initialization runs a
    /// level-synchronous BFS (Lemma 3.2) with parallel frontier
    /// expansion, and builds the per-vertex in/out adjacency by parallel
    /// sort + grouped scatter rather than sequential pushes.
    pub fn new(n: usize, source: V, l_max: u32, edges: &[(V, V, u64)]) -> Self {
        // --- Batch dedup, keeping the highest priority per (u, v). ---
        // Sorting (packed key, !priority) ascending clusters duplicates
        // with their highest-priority copy first; dedup-by-key keeps it.
        let mut fwd: Vec<(u64, u64)> = bds_par::par_map(edges, |&(u, v, p)| (pack(u, v), !p));
        bds_par::par_sort(&mut fwd);
        fwd.dedup_by_key(|&mut (k, _)| k);
        // Un-flip priorities; `fwd` stays sorted by packed key, i.e.
        // grouped by source vertex u.
        let fwd: Vec<(u64, u64)> = bds_par::par_map(&fwd, |&(k, np)| (k, !np));

        // prio_of: zero-copy bulk build from the sorted distinct batch.
        let prio_of = EdgeTable::from_sorted_batch(&fwd);

        // Canonical (undirected) edge count: each unordered pair {u, v}
        // counts once — at its u < v orientation if present, else at the
        // lone u > v orientation.
        let canon_live = fwd
            .iter()
            .filter(|&&(k, _)| {
                let (u, v) = unpack(k);
                u < v || !prio_of.contains(v, u)
            })
            .count();

        // --- Adjacency, built per vertex in parallel. ---
        // `fwd` groups out-edges by u; a reversed copy, sorted by
        // (target, descending priority), groups in-edges by v with each
        // group already in list order. Group boundaries come from binary
        // searches; every vertex's flat in-list then bulk-builds from
        // its slice with zero comparisons.
        let mut rev: Vec<(V, Reverse<u64>, V)> = bds_par::par_map(&fwd, |&(k, p)| {
            let (u, v) = unpack(k);
            (v, Reverse(p), u)
        });
        bds_par::par_sort(&mut rev);
        let ids: Vec<V> = (0..n as V).collect();
        let outs: Vec<Vec<V>> = bds_par::par_map(&ids, |&u| {
            let (lo, hi) = group_bounds(&fwd, u);
            fwd[lo..hi].iter().map(|&(k, _)| unpack(k).1).collect()
        });
        let ins: Vec<PriorityList<InEntry>> = bds_par::par_map(&ids, |&v| {
            let lo = rev.partition_point(|&(x, _, _)| x < v);
            let hi = rev.partition_point(|&(x, _, _)| x <= v);
            PriorityList::from_sorted_entries(
                rev[lo..hi]
                    .iter()
                    .map(|&(_, Reverse(p), u)| (p, InEntry { src: u })),
            )
        });

        // --- Level-synchronous BFS from the source, truncated at l_max,
        // with CAS-parallel frontier expansion above the GRAIN cutoff. ---
        let mut dist = vec![UNREACHED; n];
        dist[source as usize] = 0;
        let mut frontier = vec![source];
        let mut d = 0;
        while !frontier.is_empty() && d < l_max {
            d += 1;
            frontier = if frontier.len() < GRAIN || bds_par::threads_available() <= 1 {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &w in &outs[u as usize] {
                        if dist[w as usize] == UNREACHED {
                            dist[w as usize] = d;
                            next.push(w);
                        }
                    }
                }
                next
            } else {
                let adist = atomic_u32_view(&mut dist);
                bds_par::par_flat_map(&frontier, |&u| {
                    let mut local = Vec::new();
                    for &w in &outs[u as usize] {
                        if adist[w as usize]
                            // ordering: Relaxed — first-writer-wins
                            // distance claim; levels are separated by
                            // the pool's join barrier, so no data is
                            // published through this cell.
                            .compare_exchange(UNREACHED, d, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                        {
                            local.push(w);
                        }
                    }
                    local
                })
            };
        }

        let mut tree = Self {
            n,
            source,
            l_max,
            dist,
            parent: vec![NO_VERTEX; n],
            parent_prio: vec![0; n],
            ins,
            outs,
            prio_of,
            canon_live,
            mark: vec![0; n],
            slot: vec![0; n],
            epoch: 0,
            scan_work: WorkCounter::new(),
            stats: BatchStats::default(),
        };
        // Initial parents: first (max-priority) in-entry at depth d-1.
        let dist = &tree.dist;
        // (vertex, matched (rank, priority, src)) per reachable vertex
        type ParentHit = (V, Option<(usize, u64, V)>);
        let found: Vec<ParentHit> = bds_par::par_filter_map(&ids, |&v| {
            if dist[v as usize] < 1 || dist[v as usize] == UNREACHED {
                return None;
            }
            let want = dist[v as usize] - 1;
            let mut w = 0u64;
            let hit = tree.ins[v as usize]
                .next_with(0, |_, rec| dist[rec.src as usize] == want, &mut w)
                .map(|(r, p, rec)| (r, p, rec.src));
            Some((v, hit))
        });
        for (v, hit) in found {
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let (_, p, src) = hit.expect("reachable vertex must have a parent");
            tree.parent[v as usize] = src;
            tree.parent_prio[v as usize] = p;
        }
        tree
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn source(&self) -> V {
        self.source
    }

    pub fn l_max(&self) -> u32 {
        self.l_max
    }

    #[inline]
    pub fn dist(&self, v: V) -> u32 {
        self.dist[v as usize]
    }

    #[inline]
    pub fn parent(&self, v: V) -> Option<V> {
        let p = self.parent[v as usize];
        (p != NO_VERTEX).then_some(p)
    }

    /// Priority of `v`'s current parent entry in `In(v)`.
    pub fn parent_priority(&self, v: V) -> Option<u64> {
        self.parent(v).map(|_| self.parent_prio[v as usize])
    }

    pub fn has_edge(&self, u: V, v: V) -> bool {
        self.prio_of.contains(u, v)
    }

    /// Number of live *directed* edges (the native digraph view).
    pub fn num_edges(&self) -> usize {
        self.prio_of.len()
    }

    /// Number of live *canonical* (undirected) edges: unordered pairs
    /// with at least one live orientation. This is what the
    /// [`BatchDynamic`] trait view reports, so cross-structure harnesses
    /// see the same count as the eight undirected implementors.
    pub fn num_canonical_edges(&self) -> usize {
        self.canon_live
    }

    /// Tree edges `(parent, child)` of the current shortest-path tree.
    pub fn tree_edges(&self) -> Vec<(V, V)> {
        (0..self.n as V)
            .filter_map(|v| self.parent(v).map(|p| (p, v)))
            .collect()
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// Cumulative statistics since construction (`recourse` counts net
    /// parent-pointer changes).
    pub fn stats(&self) -> BatchStats {
        let mut s = self.stats;
        s.scan_steps = self.scan_work.get();
        s
    }

    /// Delete a batch of *directed* edges (callers delete both
    /// orientations of an undirected edge). Returns all parent-pointer
    /// changes plus this batch's statistics. Panics if an edge is absent.
    pub fn delete_batch(&mut self, edges: &[(V, V)]) -> (Vec<ParentChange>, BatchStats) {
        let mut stats = BatchStats::default();
        let work0 = self.scan_work.get();
        let mut changes: Vec<ParentChange> = Vec::new();
        // Per-level work queues: (vertex, resume_rank).
        let nl = self.l_max as usize + 2;
        let mut queues: Vec<Vec<(V, usize)>> = vec![Vec::new(); nl];

        // Phase 0: physically remove all deleted edges; seed the queues
        // with vertices that lost their parent edge.
        let mut seeds: Vec<(V, u64, V)> = Vec::new(); // (v, old parent prio, old parent)
        for &(u, v) in edges {
            let p = self
                .prio_of
                .remove(u, v)
                .unwrap_or_else(|| panic!("delete of absent edge ({u},{v})"));
            if u != v && !self.prio_of.contains(v, u) {
                // Last live orientation of {u, v} gone. Self-loops are
                // excluded on both sides of the count: the build filter
                // never counts them (a loop is its own reverse, so the
                // `contains` probe sees the edge itself), and canonical
                // edges cannot represent them.
                self.canon_live -= 1;
            }
            if self.parent[v as usize] == u && self.parent_prio[v as usize] == p {
                seeds.push((v, p, u));
            }
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            self.ins[v as usize].remove(p).expect("in-entry present");
        }
        for (v, old_prio, old_parent) in seeds {
            let d = self.dist[v as usize];
            debug_assert!(d >= 1 && d != UNREACHED);
            self.parent[v as usize] = NO_VERTEX;
            // Resume where the removed entry used to sit (post-removal
            // rank); earlier entries were already rejected at this level.
            let resume = self.ins[v as usize].bound_rank(old_prio);
            queues[d as usize].push((v, resume));
            // Record the removal now; a found parent later overwrites.
            changes.push(ParentChange {
                vertex: v,
                old_parent,
                new_parent: NO_VERTEX,
            });
        }

        // Level-synchronous phases.
        for i in 1..=self.l_max {
            let q = std::mem::take(&mut queues[i as usize]);
            if q.is_empty() {
                continue;
            }
            // Deduplicate by vertex, keeping the smallest resume rank
            // (scanning earlier is always safe). The mark/slot scratch
            // arrays make this allocation-free.
            let epoch = self.next_epoch();
            let mut level: Vec<(V, usize)> = Vec::with_capacity(q.len());
            for (v, r) in q {
                // Stale entry: a vertex enqueued as the child of a bumped
                // parent may have been re-parented in the same phase (its
                // own scan, computed from the phase snapshot, succeeded).
                // Its state is already consistent — skip it. A vertex that
                // genuinely bumped re-enqueued itself at its new level.
                if self.dist[v as usize] != i {
                    continue;
                }
                if self.mark[v as usize] == epoch {
                    let s = self.slot[v as usize] as usize;
                    if r < level[s].1 {
                        level[s].1 = r;
                    }
                } else {
                    self.mark[v as usize] = epoch;
                    self.slot[v as usize] = level.len() as u32;
                    level.push((v, r));
                }
            }
            stats.vertices_touched += level.len() as u64;

            // Parallel read-only rescan: distances of level i-1 are
            // settled, and each task only reads In(v) of its own vertex.
            let dist = &self.dist;
            let ins = &self.ins;
            let want = i - 1;
            let results: Vec<(V, Option<(u64, V)>)> = if level.len() >= 64 {
                bds_par::par_map_grain(&level, 16, |&(v, resume)| {
                    let mut w = 0u64;
                    let hit = ins[v as usize]
                        .next_with(resume, |_, rec| dist[rec.src as usize] == want, &mut w)
                        .map(|(_, p, rec)| (p, rec.src));
                    self.scan_work.add(w);
                    (v, hit)
                })
            } else {
                let mut out = Vec::with_capacity(level.len());
                let mut w = 0u64;
                for &(v, resume) in &level {
                    let hit = ins[v as usize]
                        .next_with(resume, |_, rec| dist[rec.src as usize] == want, &mut w)
                        .map(|(_, p, rec)| (p, rec.src));
                    out.push((v, hit));
                }
                self.scan_work.add(w);
                out
            };

            // Sequential application of the results.
            for (v, hit) in results {
                match hit {
                    Some((p, src)) => {
                        let old = self.parent[v as usize];
                        if old != src || self.parent_prio[v as usize] != p {
                            self.parent[v as usize] = src;
                            self.parent_prio[v as usize] = p;
                            if old != src {
                                changes.push(ParentChange {
                                    vertex: v,
                                    old_parent: old,
                                    new_parent: src,
                                });
                            }
                        }
                    }
                    None => {
                        let old = self.parent[v as usize];
                        if i == self.l_max {
                            // Falls off the maintained depth.
                            self.dist[v as usize] = UNREACHED;
                            self.parent[v as usize] = NO_VERTEX;
                            if old != NO_VERTEX {
                                changes.push(ParentChange {
                                    vertex: v,
                                    old_parent: old,
                                    new_parent: NO_VERTEX,
                                });
                            }
                            // Depth-L vertices are tree leaves: no children.
                            continue;
                        }
                        self.dist[v as usize] = i + 1;
                        self.parent[v as usize] = NO_VERTEX;
                        if old != NO_VERTEX {
                            changes.push(ParentChange {
                                vertex: v,
                                old_parent: old,
                                new_parent: NO_VERTEX,
                            });
                        }
                        queues[i as usize + 1].push((v, 0));
                        // Tree children keep their scan position; their
                        // parent entry will simply fail the depth test.
                        for ci in 0..self.outs[v as usize].len() {
                            let c = self.outs[v as usize][ci];
                            if self.parent[c as usize] == v && self.prio_of.contains(v, c) {
                                let resume =
                                    self.ins[c as usize].bound_rank(self.parent_prio[c as usize]);
                                queues[i as usize + 1].push((c, resume));
                            }
                        }
                    }
                }
            }
        }

        // Collapse multiple changes per vertex into net changes.
        let net = self.net_changes(changes);
        stats.recourse = net.len() as u64;
        stats.scan_steps = self.scan_work.get() - work0;
        self.stats.vertices_touched += stats.vertices_touched;
        self.stats.recourse += stats.recourse;
        (net, stats)
    }

    /// Collapse a change log into net per-vertex changes (old = first old,
    /// new = last new), dropping no-ops. Allocation-free dedup via the
    /// same epoch-mark `mark`/`slot` scratch the phase loop uses.
    fn net_changes(&mut self, changes: Vec<ParentChange>) -> Vec<ParentChange> {
        let epoch = self.next_epoch();
        // (vertex, first old parent, last new parent), first-seen order.
        let mut acc: Vec<ParentChange> = Vec::new();
        for c in changes {
            if self.mark[c.vertex as usize] == epoch {
                acc[self.slot[c.vertex as usize] as usize].new_parent = c.new_parent;
            } else {
                self.mark[c.vertex as usize] = epoch;
                self.slot[c.vertex as usize] = acc.len() as u32;
                acc.push(c);
            }
        }
        acc.retain(|c| c.old_parent != c.new_parent);
        acc
    }

    /// Validation oracle: recompute BFS distances from scratch and check
    /// `dist`, plus structural parent invariants. Panics on violation.
    pub fn validate(&self) {
        // Reference BFS over the *current* edge set.
        let mut ref_dist = vec![UNREACHED; self.n];
        ref_dist[self.source as usize] = 0;
        let mut frontier = vec![self.source];
        let mut d = 0;
        while !frontier.is_empty() && d < self.l_max {
            d += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in &self.outs[u as usize] {
                    if self.prio_of.contains(u, w) && ref_dist[w as usize] == UNREACHED {
                        ref_dist[w as usize] = d;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        assert_eq!(self.dist, ref_dist, "distance labels diverge from BFS");
        for v in 0..self.n as V {
            let dv = self.dist[v as usize];
            if dv == 0 || dv == UNREACHED {
                assert_eq!(self.parent[v as usize], NO_VERTEX, "vertex {v}");
                continue;
            }
            let p = self.parent[v as usize];
            assert_ne!(p, NO_VERTEX, "vertex {v} at depth {dv} lacks a parent");
            assert!(self.prio_of.contains(p, v), "parent edge ({p},{v}) dead");
            assert_eq!(
                self.dist[p as usize],
                dv - 1,
                "parent depth invariant at {v}"
            );
            // Invariant A1: no *valid candidate* strictly before the
            // parent entry in In(v).
            let rank = self.ins[v as usize]
                .rank_of(self.parent_prio[v as usize])
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                .expect("parent entry present");
            let mut w = 0u64;
            let first = self.ins[v as usize]
                .next_with(0, |_, rec| self.dist[rec.src as usize] == dv - 1, &mut w)
                .map(|(r, _, _)| r);
            assert_eq!(
                first,
                Some(rank),
                "parent of {v} is not the first candidate"
            );
        }
    }
}

impl BatchDynamic for EsTree {
    fn num_vertices(&self) -> usize {
        self.n
    }

    /// Counts *canonical* (undirected) edges, like every other
    /// implementor: an unordered pair with one or both orientations live
    /// counts once. The directed count stays available through
    /// [`EsTree::num_edges`].
    fn num_live_edges(&self) -> usize {
        self.num_canonical_edges()
    }

    /// The maintained output set: the shortest-path tree edges, as
    /// canonical undirected edges.
    fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for v in 0..self.n as V {
            if let Some(p) = self.parent(v) {
                out.push_ins(Edge::new(p, v));
            }
        }
    }

    fn stats(&self) -> BatchStats {
        EsTree::stats(self)
    }
}

impl Decremental for EsTree {
    /// Undirected view of [`EsTree::delete_batch`]: deletes both
    /// orientations of every edge (the usual construction inserts both)
    /// and reports the tree-edge delta — each net parent change removes
    /// the old parent edge and adds the new one.
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        let dirs: Vec<(V, V)> = deletions
            .iter()
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        let (changes, _stats) = self.delete_batch(&dirs);
        for c in changes {
            if c.old_parent != NO_VERTEX {
                out.push_del(Edge::new(c.old_parent, c.vertex));
            }
            if c.new_parent != NO_VERTEX {
                out.push_ins(Edge::new(c.new_parent, c.vertex));
            }
        }
        // A parent swap (v adopting its former child as parent) touches
        // the same canonical edge in both directions — a set-level no-op.
        out.net();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashMap;
    use bds_graph::gen;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    /// Both orientations with per-source priorities (perm = identity).
    fn directed(edges: &[Edge]) -> Vec<(V, V, u64)> {
        let mut out = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            out.push((e.u, e.v, ((e.u as u64) << 32) | e.u as u64));
            out.push((e.v, e.u, ((e.v as u64) << 32) | e.v as u64));
        }
        out
    }

    #[test]
    fn init_matches_bfs_and_validates() {
        let edges = gen::gnm_connected(120, 360, 5);
        let t = EsTree::new(120, 0, 16, &directed(&edges));
        t.validate();
        assert_eq!(t.dist(0), 0);
    }

    #[test]
    fn single_deletions_match_recompute() {
        let edges = gen::gnm_connected(80, 200, 8);
        let mut t = EsTree::new(80, 0, 12, &directed(&edges));
        let mut rng = StdRng::seed_from_u64(17);
        let mut live = edges.clone();
        live.shuffle(&mut rng);
        for _ in 0..120 {
            let Some(e) = live.pop() else { break };
            let (_changes, _stats) = t.delete_batch(&[(e.u, e.v), (e.v, e.u)]);
            t.validate();
        }
    }

    #[test]
    fn batch_deletions_match_recompute() {
        let edges = gen::gnm_connected(150, 500, 21);
        let mut t = EsTree::new(150, 0, 20, &directed(&edges));
        let mut rng = StdRng::seed_from_u64(33);
        let mut live = edges.clone();
        live.shuffle(&mut rng);
        while live.len() > 50 {
            let b = rng.gen_range(1..=40.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - b);
            let dirs: Vec<(V, V)> = batch
                .iter()
                .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
                .collect();
            t.delete_batch(&dirs);
            t.validate();
        }
    }

    #[test]
    fn duplicate_directed_edges_keep_highest_priority() {
        // The seed panicked here; duplicates must now dedup as a batch,
        // keeping the highest-priority copy per directed edge.
        let edges = vec![
            (0u32, 1u32, 5u64),
            (0, 1, 9), // duplicate: wins
            (0, 1, 2), // duplicate: dropped
            (1, 2, 7),
            (1, 0, 3),
            (2, 1, 4),
        ];
        let t = EsTree::new(3, 0, 4, &edges);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.parent_priority(1), Some(9));
        t.validate();
        let mut t = t;
        // The deduped edge deletes cleanly (exactly one live copy).
        t.delete_batch(&[(0, 1)]);
        t.validate();
        assert!(!t.has_edge(0, 1));
    }

    #[test]
    fn canonical_edge_count_tracks_orientations() {
        // 0<->1 (both orientations), 1->2 and 2->1 (both), 0->2 (one):
        // 3 canonical edges, 5 directed ones.
        let edges = vec![
            (0u32, 1u32, 10u64),
            (1, 0, 11),
            (1, 2, 12),
            (2, 1, 13),
            (0, 2, 14),
        ];
        let mut t = EsTree::new(3, 0, 4, &edges);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.num_canonical_edges(), 3);
        assert_eq!(BatchDynamic::num_live_edges(&t), 3);
        // Deleting one orientation of a symmetric pair keeps the
        // canonical edge alive; deleting the second kills it.
        t.delete_batch(&[(0, 1)]);
        assert_eq!(t.num_canonical_edges(), 3);
        t.delete_batch(&[(1, 0)]);
        assert_eq!(t.num_canonical_edges(), 2);
        // Deleting a lone orientation kills its canonical edge at once.
        t.delete_batch(&[(0, 2)]);
        assert_eq!(t.num_canonical_edges(), 1);
        assert_eq!(t.num_edges(), 2);
        t.delete_batch(&[(1, 2), (2, 1)]);
        assert_eq!(t.num_canonical_edges(), 0);
        assert_eq!(BatchDynamic::num_live_edges(&t), 0);
    }

    #[test]
    fn canonical_edge_count_ignores_self_loops() {
        // The raw directed constructor accepts self-loops; they are not
        // representable as canonical edges, so they must contribute zero
        // to the canonical count at build AND at delete (the delete used
        // to underflow the counter).
        let edges = vec![(0u32, 0u32, 1u64), (0, 1, 2), (1, 1, 3)];
        let mut t = EsTree::new(2, 0, 4, &edges);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.num_canonical_edges(), 1);
        t.delete_batch(&[(0, 0)]);
        assert_eq!(t.num_canonical_edges(), 1);
        t.delete_batch(&[(0, 1)]);
        assert_eq!(t.num_canonical_edges(), 0);
        t.delete_batch(&[(1, 1)]);
        assert_eq!(t.num_canonical_edges(), 0);
    }

    #[test]
    fn truncation_at_l_max() {
        // Path 0-1-2-3-4 with L=2: vertices 3,4 unreached.
        let edges: Vec<Edge> = (0..4).map(|i| Edge::new(i, i + 1)).collect();
        let t = EsTree::new(5, 0, 2, &directed(&edges));
        assert_eq!(t.dist(2), 2);
        assert_eq!(t.dist(3), UNREACHED);
        assert_eq!(t.dist(4), UNREACHED);
        t.validate();
    }

    #[test]
    fn vertex_falls_off_depth() {
        // Cycle of 6 with L=3; deleting one cycle edge pushes the far side
        // beyond depth 3.
        let mut edges: Vec<Edge> = (0..5).map(|i| Edge::new(i, i + 1)).collect();
        edges.push(Edge::new(0, 5));
        let mut t = EsTree::new(6, 0, 3, &directed(&edges));
        t.validate();
        assert_eq!(t.dist(3), 3);
        // Delete (2,3): 3 must fall to UNREACHED (its other route 0-5-4-3
        // has length 3 — wait, that keeps it at 3).
        t.delete_batch(&[(2, 3), (3, 2)]);
        t.validate();
        assert_eq!(t.dist(3), 3); // via 0-5-4-3
        t.delete_batch(&[(4, 3), (3, 4)]);
        t.validate();
        assert_eq!(t.dist(3), UNREACHED);
    }

    #[test]
    fn parent_changes_replay_tree() {
        // Applying reported parent changes to a shadow copy must
        // reproduce tree_edges() — the property the spanner layers use.
        let edges = gen::gnm_connected(60, 150, 3);
        let mut t = EsTree::new(60, 0, 10, &directed(&edges));
        let mut shadow: FxHashMap<V, V> = t.tree_edges().into_iter().map(|(p, v)| (v, p)).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut live = edges.clone();
        live.shuffle(&mut rng);
        while live.len() > 30 {
            let b = rng.gen_range(1..=10.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - b);
            let dirs: Vec<(V, V)> = batch
                .iter()
                .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
                .collect();
            let (changes, _) = t.delete_batch(&dirs);
            for c in changes {
                if c.new_parent == NO_VERTEX {
                    shadow.remove(&c.vertex);
                } else {
                    shadow.insert(c.vertex, c.new_parent);
                }
            }
            let mut want = t.tree_edges();
            let mut got: Vec<(V, V)> = shadow.iter().map(|(&v, &p)| (p, v)).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(want, got);
        }
    }

    #[test]
    fn amortized_scan_work_is_bounded() {
        // Work bound sanity: deleting every edge one by one costs
        // O(L · log n) amortized scan steps per deletion.
        let n = 200;
        let l = 12u32;
        let edges = gen::gnm_connected(n, 800, 12);
        let mut t = EsTree::new(n, 0, l, &directed(&edges));
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(5);
        live.shuffle(&mut rng);
        let m = live.len();
        for e in live {
            t.delete_batch(&[(e.u, e.v), (e.v, e.u)]);
        }
        let per_edge = t.scan_work.get() as f64 / m as f64;
        // Generous constant; the point is it doesn't blow up with m².
        assert!(
            per_edge < (l as f64) * (n as f64).log2() * 4.0,
            "amortized scan work too high: {per_edge}"
        );
    }
}
