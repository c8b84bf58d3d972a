//! **Lemma 3.3** — decremental (2k−1)-spanner via exponential-start-time
//! clustering maintained on the shifted auxiliary graph G′.
//!
//! The structure embeds a batched Even–Shiloach engine (the phase loop of
//! Theorem 1.2) and interleaves cluster/priority maintenance with it
//! level-synchronously: after distances at level `i` settle, clusters at
//! level `i` are recomputed (a vertex is its own center iff its parent is
//! a p-node, otherwise it inherits the parent's cluster), the priority
//! keys `(perm[Cluster(v)], v)` of v's out-entries are updated in its
//! out-neighbors' in-lists, and out-neighbors parented on a moved entry
//! are enqueued for a bounded forward rescan. Priorities only *decrease*
//! at a fixed distance (the candidate set only shrinks decrementally), so
//! entries before a scan position never become candidates — the invariant
//! that keeps forward-only rescans sound.
//!
//! The spanner is the shortest-path forest restricted to original
//! vertices (intra-cluster trees) plus, for every vertex `v` and adjacent
//! cluster `c ≠ Cluster(v)`, one representative edge from the bucket
//! `InterCluster[(v, c)]` (§3.3).
//!
//! A bucket needs no index of its own: In(v) keys the entry (w → v)
//! `perm[Cluster(w)]·2³² + w`, so `InterCluster[(v, c)]` is In(v)'s key
//! range `[perm[c]·2³², (perm[c]+1)·2³²)`, and its selected edge is the
//! range's lowest non-shortcut entry, found by one rank lookup.

use crate::spanner_set::SpannerSet;
use bds_dstruct::edge_table::pack;
use bds_dstruct::{EdgeTable, FxHashMap, PriorityList};
use bds_estree::ShiftedGraph;
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf,
};
use bds_graph::types::{Edge, V};
use bds_graph::CsrGraph;
use std::cmp::Reverse;
use std::collections::BTreeSet;

const NO_VERTEX: V = V::MAX;

#[derive(Clone, Copy)]
struct InEntry {
    src: V,
}

/// Decremental (2k−1)-spanner (Lemma 3.3).
pub struct DecrementalSpanner {
    n: usize,
    k: u32,
    sg: ShiftedGraph,
    // --- Even–Shiloach state over G′ (original vertices + p-chain) ---
    dist: Vec<u32>,
    parent: Vec<V>,
    parent_prio: Vec<u64>,
    /// In(v), descending: for an original v, its shortcut (the top key of
    /// range perm[v]) and, per live neighbour w, (w → v) keyed
    /// `cluster_priority(Cluster(w), w)`. InterCluster[(v, c)] is the key
    /// range `[perm[c]·2³², (perm[c]+1)·2³²)`; its selection is the range's
    /// lowest non-shortcut entry.
    ins: Vec<PriorityList<InEntry>>,
    /// directed edge (u → v) -> current priority inside ins[v]; also the
    /// live-edge membership index.
    prio_of: EdgeTable,
    /// Number of live (undirected) edges.
    live: usize,
    // --- clustering state (original vertices only) ---
    cluster: Vec<V>,
    spanner: SpannerSet,
    mark: Vec<u32>,
    /// scratch: per-vertex slot index, valid while `mark[v] == epoch`
    slot: Vec<u32>,
    epoch: u32,
    /// Rescan levels at least this large scan in parallel.
    par_rescan_min: usize,
    stats: BatchStats,
}

/// Typed builder for [`DecrementalSpanner`] (Lemma 3.3).
#[derive(Debug, Clone)]
pub struct DecrementalSpannerBuilder {
    n: usize,
    k: u32,
    seed: u64,
}

impl DecrementalSpannerBuilder {
    /// Stretch parameter: the spanner guarantees stretch 2k−1.
    pub fn stretch(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<DecrementalSpanner, ConfigError> {
        if self.n < 1 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 1 });
        }
        if self.k < 1 {
            return Err(ConfigError::InvalidParam {
                name: "stretch",
                reason: "k must be ≥ 1 (spanner stretch is 2k−1)",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(DecrementalSpanner::new(self.n, self.k, edges, self.seed))
    }
}

impl DecrementalSpanner {
    /// Typed builder: `DecrementalSpanner::builder(n).stretch(k).seed(s)
    /// .build(&edges)`. Validates inputs with a [`ConfigError`] instead
    /// of asserting.
    pub fn builder(n: usize) -> DecrementalSpannerBuilder {
        DecrementalSpannerBuilder {
            n,
            k: 2,
            seed: 0x5eed,
        }
    }

    /// Build over `n` vertices with stretch parameter `k ≥ 1`. Shifts are
    /// drawn Exp(ln(10n)/k) and resampled until max δ < k (Algorithm 2's
    /// Las Vegas loop), so the (2k−1) stretch guarantee is unconditional.
    pub fn new(n: usize, k: u32, edges: &[Edge], seed: u64) -> Self {
        assert!(k >= 1 && n >= 1);
        let beta = (10.0 * n.max(2) as f64).ln() / k as f64;
        let sg = ShiftedGraph::sample(n, beta, Some(k as f64), seed);
        Self::with_shifts(n, k, edges, sg)
    }

    /// Build with explicit shifts (tests pin randomness through this).
    pub fn with_shifts(n: usize, k: u32, edges: &[Edge], sg: ShiftedGraph) -> Self {
        let total = sg.total_vertices();
        let t = sg.t;
        // Input adjacency for the build only. A duplicate input edge
        // panics once pass 2 has sorted the in-list entries.
        let g = CsrGraph::from_edges(n, edges);

        // Shortcut targets per p-node level.
        let mut shortcut: Vec<Vec<V>> = vec![Vec::new(); t as usize];
        for v in 0..n as V {
            shortcut[(t - 1 - sg.d[v as usize]) as usize].push(v);
        }

        // BFS over G′ from p0. p-node i sits at distance i.
        let mut dist = vec![u32::MAX; total];
        for i in 0..t {
            dist[sg.p_node(i) as usize] = i;
        }
        {
            let mut frontier: Vec<V> = Vec::new();
            for i in 0..t {
                // p_i joins the frontier at step i; expand originals level
                // by level. Distances of originals are in [1, t].
                frontier.extend(shortcut[i as usize].iter().copied().filter(|&v| {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = i + 1;
                        true
                    } else {
                        false
                    }
                }));
                let mut next = Vec::new();
                for &u in &frontier {
                    for &w in g.neighbors(u) {
                        if dist[w as usize] == u32::MAX {
                            dist[w as usize] = dist[u as usize] + 1;
                            next.push(w);
                        }
                    }
                }
                frontier = next;
            }
        }

        // Pass 1 (levels ascending): parents and clusters.
        let mut order: Vec<V> = (0..n as V).collect();
        order.sort_unstable_by_key(|&v| dist[v as usize]);
        let mut parent = vec![NO_VERTEX; total];
        let mut parent_prio = vec![0u64; total];
        let mut cluster = vec![NO_VERTEX; n];
        for i in 1..t {
            parent[sg.p_node(i) as usize] = sg.p_node(i - 1);
            parent_prio[sg.p_node(i) as usize] = u64::MAX;
        }
        for &v in &order {
            let dv = dist[v as usize];
            debug_assert!(dv >= 1 && dv <= t, "vertex {v} at dist {dv}");
            let mut best: Option<(u64, V, V)> = None; // (key, parent, center)
            if t - 1 - sg.d[v as usize] == dv - 1 {
                best = Some((sg.self_priority(v), sg.p_node(dv - 1), v));
            }
            for &w in g.neighbors(v) {
                if dist[w as usize] == dv - 1 {
                    let key = sg.cluster_priority(cluster[w as usize], w);
                    if best.is_none_or(|(bk, _, _)| key > bk) {
                        best = Some((key, w, cluster[w as usize]));
                    }
                }
            }
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let (key, par, center) = best.expect("every vertex has a parent in G'");
            parent[v as usize] = par;
            parent_prio[v as usize] = key;
            cluster[v as usize] = center;
        }

        // Pass 2: build prioritized in-lists and the priority index as
        // one sorted batch over all n + t lists: every directed entry
        // (shortcut, p-chain, and both edge orientations) is emitted as
        // (target, descending key, src), one parallel sort groups each
        // list's entries in final order, and the flat lists bulk-build
        // from their slices with zero comparisons — no per-vertex
        // sequential insert loops.
        let ids: Vec<V> = (0..n as V).collect();
        let mut entries: Vec<(V, Reverse<u64>, V)> = bds_par::par_flat_map(&ids, |&v| {
            let mut out = Vec::with_capacity(g.degree(v) + 1);
            let p = sg.p_node(t - 1 - sg.d[v as usize]);
            out.push((v, Reverse(sg.self_priority(v)), p));
            for &w in g.neighbors(v) {
                // entry (w → v) keyed by w's cluster
                out.push((v, Reverse(sg.cluster_priority(cluster[w as usize], w)), w));
            }
            out
        });
        for i in 0..t.saturating_sub(1) {
            entries.push((sg.p_node(i + 1), Reverse(u64::MAX), sg.p_node(i)));
        }
        bds_par::par_sort(&mut entries);
        // An entry's key is a function of its (src, target), so a
        // duplicate input edge leaves two equal entries side by side,
        // and `prio_of` can take the entries in this order.
        for w in entries.windows(2) {
            assert!(w[0] != w[1], "duplicate edge ({}, {})", w[0].2, w[0].0);
        }
        let prio_of = EdgeTable::from_distinct_batch(&bds_par::par_map(
            &entries,
            |&(tgt, Reverse(key), src)| (pack(src, tgt), key),
        ));
        let targets: Vec<V> = (0..total as V).collect();
        let ins: Vec<PriorityList<InEntry>> = bds_par::par_map(&targets, |&v| {
            let lo = entries.partition_point(|&(x, _, _)| x < v);
            let hi = entries.partition_point(|&(x, _, _)| x <= v);
            PriorityList::from_sorted_entries(
                entries[lo..hi]
                    .iter()
                    .map(|&(_, Reverse(key), src)| (key, InEntry { src })),
            )
        });

        let mut this = Self {
            n,
            k,
            sg,
            dist,
            parent,
            parent_prio,
            ins,
            prio_of,
            live: edges.len(),
            cluster,
            spanner: SpannerSet::new(),
            mark: vec![0; total],
            slot: vec![0; total],
            epoch: 0,
            par_rescan_min: 64,
            stats: BatchStats::default(),
        };

        // Initial spanner, one reason per forest edge and per bucket
        // selection. Walking In(v) in descending order, the selection of
        // each key range other than Cluster(v)'s is the range's last
        // entry, unless that entry is v's shortcut (as in `selection`).
        let reasons = bds_par::par_flat_map(&ids, |&v| {
            let mut out = Vec::new();
            let p = this.parent[v as usize];
            if !this.sg.is_p(p) {
                out.push(Edge::new(p, v));
            }
            let own = this.sg.cluster_priority(this.cluster[v as usize], 0) >> 32;
            let mut entries = this.ins[v as usize].iter().peekable();
            while let Some((key, rec)) = entries.next() {
                let range = key >> 32;
                let last = entries.peek().is_none_or(|&(next, _)| next >> 32 != range);
                if last && range != own && !this.sg.is_p(rec.src) {
                    out.push(Edge::new(v, rec.src));
                }
            }
            out
        });
        this.spanner = SpannerSet::from_reasons(&reasons);
        this
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn k(&self) -> u32 {
        self.k
    }

    pub fn shifts(&self) -> &ShiftedGraph {
        &self.sg
    }

    pub fn num_live_edges(&self) -> usize {
        self.live
    }

    pub fn live_edges(&self) -> Vec<Edge> {
        let upper = |u: V| {
            self.neighbors(u)
                .filter(move |&w| u < w)
                .map(move |v| Edge { u, v })
        };
        (0..self.n as V).flat_map(upper).collect()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.prio_of.contains(e.u, e.v)
    }

    /// Live neighbours of original vertex `v`: the original sources of
    /// In(v), in descending priority.
    fn neighbors(&self, v: V) -> impl Iterator<Item = V> + '_ {
        self.ins[v as usize]
            .iter()
            .map(|(_, rec)| rec.src)
            .filter(|&w| !self.sg.is_p(w))
    }

    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.spanner.edges()
    }

    pub fn spanner_size(&self) -> usize {
        self.spanner.len()
    }

    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// The selected representative of InterCluster[(v, c)]: the lowest
    /// entry of In(v)'s key range `[perm[c]·2³², (perm[c]+1)·2³²)`, i.e.
    /// the min-id neighbour of v in cluster c. `None` if c = Cluster(v),
    /// if the range is empty, or if its lowest entry is v's shortcut
    /// (the highest key of range perm[v], so then the range's only one).
    fn selection(&self, (v, c): (V, V)) -> Option<Edge> {
        if self.cluster[v as usize] == c {
            return None;
        }
        let ins = &self.ins[v as usize];
        let lo = self.sg.cluster_priority(c, 0);
        // Entries with priority ≥ lo; the last of them is the candidate.
        let at_or_above = lo.checked_sub(1).map_or(ins.len(), |p| ins.bound_rank(p));
        let (p, rec) = ins.kth(at_or_above.checked_sub(1)?)?;
        (p >> 32 == lo >> 32 && !self.sg.is_p(rec.src)).then(|| Edge::new(v, rec.src))
    }

    /// Move the spanner's reasons for the buckets `keys` from their
    /// selections `before` an edit of In(·) or Cluster(·) to their
    /// selections now.
    fn reselect(&mut self, keys: [(V, V); 2], before: [Option<Edge>; 2]) {
        for (key, before) in keys.into_iter().zip(before) {
            let after = self.selection(key);
            if before != after {
                if let Some(e) = before {
                    self.spanner.remove(e);
                }
                if let Some(e) = after {
                    self.spanner.add(e);
                }
            }
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    fn delete_inner(&mut self, batch: &[Edge]) {
        let t = self.sg.t;
        let nl = t as usize + 2;
        // (vertex, scan ceiling priority) per level for parent fixing.
        let mut queues: Vec<Vec<(V, u64)>> = vec![Vec::new(); nl];
        // cluster-dirty vertices per level.
        let mut cqueues: Vec<Vec<V>> = vec![Vec::new(); nl];

        // ---- Phase 0: remove edges from every structure. ----
        for &e in batch {
            assert!(self.contains_edge(e), "delete of absent {e:?}");
            let (cu, cv) = (self.cluster[e.u as usize], self.cluster[e.v as usize]);
            let keys = [(e.u, cv), (e.v, cu)];
            let before = keys.map(|key| self.selection(key));
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                let p = self.prio_of.remove(a, b).expect("directed edge present");
                if self.parent[b as usize] == a && self.parent_prio[b as usize] == p {
                    // b lost its parent edge: seed a rescan at its level.
                    // The ceiling (dead entry's priority) is resolved to a
                    // rank only at scan time — ranks shift under the other
                    // removals of this batch, priorities do not.
                    self.parent[b as usize] = NO_VERTEX;
                    self.spanner.remove(Edge::new(a, b));
                    queues[self.dist[b as usize] as usize].push((b, p));
                }
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                self.ins[b as usize].remove(p).expect("in-entry present");
            }
            self.live -= 1;
            self.reselect(keys, before);
        }

        // ---- Level-synchronous phases. ----
        for i in 1..=t {
            // (a) distance/parent fixing at level i.
            let q = std::mem::take(&mut queues[i as usize]);
            if !q.is_empty() {
                let epoch = self.next_epoch();
                let mut level: Vec<(V, u64)> = Vec::with_capacity(q.len());
                for (v, ceil) in q {
                    if self.dist[v as usize] != i {
                        continue; // stale entry, vertex already consistent
                    }
                    // Skip-guard: a leapfrog assignment already installed a
                    // *valid* parent above this ceiling; everything at or
                    // below the ceiling is worse. Stale parents (left over
                    // from a bump, violating the depth relation) never skip.
                    let pv = self.parent[v as usize];
                    if pv != NO_VERTEX
                        && self.dist[pv as usize] + 1 == i
                        && self.parent_prio[v as usize] > ceil
                    {
                        continue;
                    }
                    if self.mark[v as usize] == epoch {
                        let s = self.slot[v as usize] as usize;
                        if ceil > level[s].1 {
                            level[s].1 = ceil; // higher ceiling = earlier scan
                        }
                    } else {
                        self.mark[v as usize] = epoch;
                        self.slot[v as usize] = level.len() as u32;
                        level.push((v, ceil));
                    }
                }
                self.stats.vertices_touched += level.len() as u64;

                // Parallel, read-only snapshot scans.
                let dist = &self.dist;
                let ins = &self.ins;
                let want = i - 1;
                // Each scan returns its step count with its result, so
                // both branches tally the same work.
                let scan = |&(v, ceil): &(V, u64)| {
                    let resume = ins[v as usize].bound_rank(ceil);
                    let mut w = 0u64;
                    let hit = ins[v as usize]
                        .next_with(resume, |_, rec| dist[rec.src as usize] == want, &mut w)
                        .map(|(_, p, rec)| (p, rec.src));
                    (v, hit, w)
                };
                let scan_results = if level.len() >= self.par_rescan_min {
                    bds_par::par_map_grain(&level, 16, scan)
                } else {
                    level.iter().map(scan).collect::<Vec<_>>()
                };
                self.stats.scan_steps += scan_results.iter().map(|r| r.2).sum::<u64>();

                for (v, hit, _) in scan_results {
                    match hit {
                        Some((p, src)) => {
                            let old = self.parent[v as usize];
                            // A leapfrog during the previous level's (b)
                            // pass may have installed a strictly better
                            // *valid* parent than anything at/below the scan
                            // ceiling; never downgrade it.
                            if old != NO_VERTEX
                                && self.dist[old as usize] + 1 == i
                                && self.parent_prio[v as usize] > p
                            {
                                continue;
                            }
                            if old != src {
                                if old != NO_VERTEX && !self.sg.is_p(old) {
                                    self.spanner.remove(Edge::new(old, v));
                                }
                                if !self.sg.is_p(src) {
                                    self.spanner.add(Edge::new(src, v));
                                }
                                self.parent[v as usize] = src;
                                self.parent_prio[v as usize] = p;
                                cqueues[i as usize].push(v);
                            } else if self.parent_prio[v as usize] != p {
                                self.parent_prio[v as usize] = p;
                            }
                        }
                        None => {
                            // Bump. The shortcut entry guarantees every
                            // original vertex settles by depth t − d_v.
                            assert!(i < t, "vertex {v} fell past depth t");
                            let old = self.parent[v as usize];
                            if old != NO_VERTEX {
                                if !self.sg.is_p(old) {
                                    self.spanner.remove(Edge::new(old, v));
                                }
                                self.parent[v as usize] = NO_VERTEX;
                            }
                            self.dist[v as usize] = i + 1;
                            queues[i as usize + 1].push((v, u64::MAX));
                            // Tree children resume from their (now dead)
                            // parent entry's priority.
                            let children: Vec<V> = self
                                .neighbors(v)
                                .filter(|&c| self.parent[c as usize] == v)
                                .collect();
                            for c in children {
                                queues[i as usize + 1].push((c, self.parent_prio[c as usize]));
                            }
                        }
                    }
                }
            }

            // (b) cluster fixing at level i.
            let cq = std::mem::take(&mut cqueues[i as usize]);
            if cq.is_empty() {
                continue;
            }
            let epoch = self.next_epoch();
            for v in cq {
                if self.dist[v as usize] != i || self.mark[v as usize] == epoch {
                    continue;
                }
                self.mark[v as usize] = epoch;
                let par = self.parent[v as usize];
                debug_assert_ne!(par, NO_VERTEX);
                let new_c = if self.sg.is_p(par) {
                    v
                } else {
                    self.cluster[par as usize]
                };
                let old_c = self.cluster[v as usize];
                if new_c == old_c {
                    continue;
                }
                self.stats.cluster_changes += 1;
                self.apply_cluster_change(v, old_c, new_c, &mut queues, &mut cqueues);
            }
        }
    }

    /// Relabel `v` from cluster `old_c` to `new_c`: re-key every
    /// out-entry of `v` (which moves it between its neighbours' buckets),
    /// flip its own buckets' eligibility, and enqueue dependent
    /// rescans/cluster checks at the next level.
    fn apply_cluster_change(
        &mut self,
        v: V,
        old_c: V,
        new_c: V,
        queues: &mut [Vec<(V, u64)>],
        cqueues: &mut [Vec<V>],
    ) {
        let neighbors: Vec<V> = self.neighbors(v).collect();
        for &w in &neighbors {
            // Re-key the entry (v → w) in In(w): it moves from old_c's
            // key range (bucket) to new_c's.
            let keys = [(w, old_c), (w, new_c)];
            let before = keys.map(|key| self.selection(key));
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let old_p = self.prio_of.get(v, w).expect("directed edge present");
            let new_p = self.sg.cluster_priority(new_c, v);
            assert!(self.ins[w as usize].update_priority(old_p, new_p));
            self.prio_of.insert(v, w, new_p);
            self.reselect(keys, before);
            let dw = self.dist[w as usize];
            if self.parent[w as usize] == v && self.parent_prio[w as usize] == old_p {
                // Keep the recorded priority in sync with the moved entry
                // even when v is a *stale* parent (w is pending a rescan
                // after v bumped; the depth relation is broken).
                self.parent_prio[w as usize] = new_p;
                if dw == self.dist[v as usize] + 1 {
                    if new_p < old_p {
                        // Entry moved down: a better candidate may now
                        // precede it — bounded forward rescan below the old
                        // slot's priority (rank resolved at scan time).
                        queues[dw as usize].push((w, old_p));
                    }
                    // w's cluster follows its parent's cluster.
                    cqueues[dw as usize].push(w);
                }
            } else if new_p > old_p && dw == self.dist[v as usize] + 1 {
                // Riser: v's entry climbed while being a candidate for w.
                // If it passes w's current *valid* parent (or w has no
                // valid parent), v is now the max-priority candidate —
                // assign eagerly (the paper's single-NextWith detection).
                let pw = self.parent[w as usize];
                let pw_valid = pw != NO_VERTEX && self.dist[pw as usize] + 1 == dw;
                if pw == NO_VERTEX || !pw_valid || self.parent_prio[w as usize] < new_p {
                    if pw != NO_VERTEX && !self.sg.is_p(pw) {
                        self.spanner.remove(Edge::new(pw, w));
                    }
                    self.spanner.add(Edge::new(v, w));
                    self.parent[w as usize] = v;
                    self.parent_prio[w as usize] = new_p;
                    cqueues[dw as usize].push(w);
                }
            }
        }
        // Eligibility flips for v's own buckets: (v, old_c) becomes
        // selectable, (v, new_c) stops being selectable.
        let keys = [(v, old_c), (v, new_c)];
        let before = keys.map(|key| self.selection(key));
        self.cluster[v as usize] = new_c;
        self.reselect(keys, before);
    }

    /// Full validation oracle: recomputes distances, clusters, buckets and
    /// the spanner from scratch (same random bits) and compares; each
    /// bucket's min-id member must be its In(v) key-range selection.
    /// O(n·m) — test-only.
    pub fn validate(&self) {
        let t = self.sg.t;
        // Reference distances on G′ via per-vertex BFS over the original
        // graph: dist(p0, v) = min_u (t − d_u + dist_G(u, v)).
        let edges = self.live_edges();
        let g = bds_graph::CsrGraph::from_edges(self.n, &edges);
        let mut ref_dist = vec![u32::MAX; self.n];
        let mut best_center = vec![NO_VERTEX; self.n];
        for u in 0..self.n as V {
            let du = g.bfs(u, 10 * t + 10);
            let base = t - self.sg.d[u as usize];
            for v in 0..self.n as V {
                if du[v as usize] == bds_graph::csr::UNREACHED {
                    continue;
                }
                let cand = base + du[v as usize];
                let better = cand < ref_dist[v as usize]
                    || (cand == ref_dist[v as usize]
                        && (best_center[v as usize] == NO_VERTEX
                            || self.sg.perm[u as usize]
                                > self.sg.perm[best_center[v as usize] as usize]));
                if better {
                    ref_dist[v as usize] = cand;
                    best_center[v as usize] = u;
                }
            }
        }
        for v in 0..self.n {
            assert_eq!(self.dist[v], ref_dist[v], "dist mismatch at {v}");
            assert_eq!(
                self.cluster[v], best_center[v],
                "cluster mismatch at {v} (dist {})",
                self.dist[v]
            );
        }
        // Parent invariants.
        for v in 0..self.n as V {
            let p = self.parent[v as usize];
            assert_ne!(p, NO_VERTEX, "vertex {v} lacks a parent");
            if self.sg.is_p(p) {
                assert_eq!(self.dist[v as usize], t - self.sg.d[v as usize]);
                assert_eq!(self.cluster[v as usize], v);
            } else {
                assert_eq!(self.dist[p as usize] + 1, self.dist[v as usize]);
                assert_eq!(self.cluster[p as usize], self.cluster[v as usize]);
                assert!(self.prio_of.contains(p, v), "dead parent edge");
            }
            // Parent = first candidate in priority order.
            let mut w = 0u64;
            let first = self.ins[v as usize].next_with(
                0,
                |_, rec| self.dist[rec.src as usize] == self.dist[v as usize] - 1,
                &mut w,
            );
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let (_, fp, frec) = first.expect("candidate must exist");
            assert_eq!(frec.src, p, "parent of {v} is not the first candidate");
            assert_eq!(fp, self.parent_prio[v as usize]);
        }
        // Priority keys match current clusters.
        for (u, vtx, p) in self.prio_of.iter() {
            if self.sg.is_p(u) {
                continue;
            }
            assert_eq!(
                p,
                self.sg.cluster_priority(self.cluster[u as usize], u),
                "stale priority on ({u},{vtx})"
            );
        }
        // `live` counts the in-lists' edges; `prio_of` holds both their
        // orientations plus the n shortcuts and the t − 1 chain entries.
        assert_eq!(self.live, edges.len(), "live-edge count diverged");
        assert_eq!(self.prio_of.len(), 2 * self.live + self.n + t as usize - 1);
        // Buckets from adjacency × clusters: each selects its min-id
        // member through the key range. Spanner contents = forest +
        // selected representatives.
        let mut buckets: FxHashMap<(V, V), BTreeSet<V>> = FxHashMap::default();
        for e in &edges {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let key = (a, self.cluster[b as usize]);
                buckets.entry(key).or_default().insert(b);
            }
        }
        let mut want = SpannerSet::new();
        for v in 0..self.n as V {
            let p = self.parent[v as usize];
            if !self.sg.is_p(p) {
                want.add(Edge::new(p, v));
            }
        }
        for (&(v, c), members) in &buckets {
            let first = members.first().map(|&w| Edge::new(v, w));
            let expect = first.filter(|_| self.cluster[v as usize] != c);
            assert_eq!(self.selection((v, c)), expect, "selection of ({v}, {c})");
            if let Some(e) = expect {
                want.add(e);
            }
        }
        let mut got = self.spanner.edges();
        let mut exp = want.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "spanner contents diverged");
    }
}

impl BatchDynamic for DecrementalSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        DecrementalSpanner::num_live_edges(self)
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        self.spanner.output_into(out);
    }

    fn stats(&self) -> BatchStats {
        self.stats
    }
}

impl Decremental for DecrementalSpanner {
    /// Delete a batch of edges, writing the exact (δH_ins, δH_del) into
    /// `out`. Panics if an edge is absent (deletions must reference live
    /// edges).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.spanner.take_delta_into(out);
        self.stats.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashSet;
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn init_validates_and_stretch_holds() {
        for (n, m, k, seed) in [(60, 180, 2, 1u64), (80, 240, 3, 2), (50, 120, 4, 3)] {
            let edges = gen::gnm_connected(n, m, seed);
            let s = DecrementalSpanner::new(n, k, &edges, seed * 7 + 1);
            s.validate();
            let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 5);
            assert!(
                st <= (2 * k - 1) as f64,
                "stretch {st} exceeds {} (n={n}, k={k})",
                2 * k - 1
            );
        }
    }

    #[test]
    fn bulk_built_spanner_validates_at_widths_1_and_2() {
        // n and 2m above bds_par's GRAIN, so at width 2 the entry sort,
        // the `prio_of` build and the initial-selection walk run in
        // parallel. Deleting every edge afterwards removes each
        // refcounted reason once: a miscounted one would panic or leave
        // an edge behind.
        let (n, m, k) = (2_500, 6_000, 3);
        let edges = gen::gnm_connected(n, m, 21);
        let mut spanners = Vec::new();
        for threads in [1, 2] {
            bds_par::run_with_threads(threads, || {
                let mut s = DecrementalSpanner::new(n, k, &edges, 13);
                s.validate();
                let mut got = s.spanner_edges();
                got.sort_unstable();
                spanners.push(got);
                let mut out = DeltaBuf::new();
                for batch in edges.chunks(1_500) {
                    s.delete_into(batch, &mut out);
                }
                assert_eq!(s.spanner_size(), 0, "threads = {threads}");
                s.validate();
            });
        }
        assert_eq!(spanners[0], spanners[1]);
    }

    #[test]
    fn parallel_rescans_count_their_scan_steps() {
        // Eight hubs share 300 leaves. With this seed hub 0 starts a
        // level early and parents most leaves, so deleting its edges
        // puts them all into one rescan level — far more than
        // `par_rescan_min`. The parallel branch must tally the same
        // scan work as the sequential one.
        let (hubs, n, seed) = (8u32, 308usize, 9u64);
        let edges: Vec<Edge> = (hubs..n as u32)
            .flat_map(|v| (0..hubs).map(move |h| Edge::new(h, v)))
            .collect();
        let batch: Vec<Edge> = (hubs..n as u32).map(|v| Edge::new(0, v)).collect();
        for threads in [1, 2] {
            let steps = |par_rescan_min: usize| {
                bds_par::run_with_threads(threads, || {
                    let mut s = DecrementalSpanner::new(n, 2, &edges, seed);
                    let orphans = s.parent.iter().filter(|&&p| p == 0).count();
                    assert!(orphans >= 64, "hub 0 parents only {orphans} leaves");
                    s.par_rescan_min = par_rescan_min;
                    s.delete_into(&batch, &mut DeltaBuf::new());
                    s.validate();
                    s.stats().scan_steps
                })
            };
            let sequential = steps(usize::MAX);
            assert!(sequential > 0);
            assert_eq!(steps(64), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn k1_spanner_is_whole_graph() {
        let edges = gen::gnm_connected(30, 90, 4);
        let s = DecrementalSpanner::new(30, 1, &edges, 9);
        let mut got = s.spanner_edges();
        let mut want = edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn single_deletions_validate() {
        let n = 50;
        let edges = gen::gnm_connected(n, 140, 11);
        let mut s = DecrementalSpanner::new(n, 3, &edges, 13);
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(7);
        live.shuffle(&mut rng);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut delta = DeltaBuf::new();
        for _ in 0..90 {
            let Some(e) = live.pop() else { break };
            s.delete_into(&[e], &mut delta);
            delta.apply_to(&mut shadow);
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "delta replay diverged");
        }
    }

    #[test]
    fn batch_deletions_validate_and_keep_stretch() {
        let n = 70;
        let edges = gen::gnm_connected(n, 250, 23);
        let k = 2;
        let mut s = DecrementalSpanner::new(n, k, &edges, 29);
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(31);
        live.shuffle(&mut rng);
        let mut delta = DeltaBuf::new();
        while live.len() > 60 {
            let b = rng.gen_range(1..=25.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - b);
            s.delete_into(&batch, &mut delta);
            s.validate();
            let st = edge_stretch(n, &live, &s.spanner_edges(), n, 3);
            assert!(st <= (2 * k - 1) as f64, "stretch {st} after deletions");
        }
    }

    #[test]
    fn deleting_all_edges_empties_spanner() {
        let n = 40;
        let edges = gen::gnm(n, 100, 3);
        let mut s = DecrementalSpanner::new(n, 3, &edges, 5);
        let mut live = edges;
        let mut rng = StdRng::seed_from_u64(1);
        live.shuffle(&mut rng);
        let mut delta = DeltaBuf::new();
        while !live.is_empty() {
            let b = rng.gen_range(1..=10.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - b);
            s.delete_into(&batch, &mut delta);
        }
        s.validate();
        assert!(s.spanner_edges().is_empty());
        assert_eq!(s.num_live_edges(), 0);
    }

    #[test]
    fn expected_size_is_near_bound() {
        // O(n^{1+1/k}) expected size; allow a generous constant.
        let n = 400;
        let k = 2;
        let edges = gen::gnm_connected(n, 6 * n, 77);
        let s = DecrementalSpanner::new(n, k as u32, &edges, 99);
        let bound = 8.0 * (n as f64).powf(1.0 + 1.0 / k as f64);
        assert!(
            (s.spanner_size() as f64) < bound,
            "size {} vs bound {bound}",
            s.spanner_size()
        );
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_input_edge_panics() {
        let mut edges = gen::gnm_connected(10, 20, 3);
        edges.push(edges[7]);
        DecrementalSpanner::new(10, 2, &edges, 5);
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn deleting_absent_edge_panics() {
        let edges = gen::gnm_connected(10, 20, 3);
        let mut s = DecrementalSpanner::new(10, 2, &edges, 5);
        // find a non-edge
        let mut missing = None;
        'outer: for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                let e = Edge::new(a, b);
                if !edges.contains(&e) {
                    missing = Some(e);
                    break 'outer;
                }
            }
        }
        s.delete_into(&[missing.unwrap()], &mut DeltaBuf::new());
    }
}
