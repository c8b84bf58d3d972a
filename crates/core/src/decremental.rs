//! **Lemma 3.3** — decremental (2k−1)-spanner via exponential-start-time
//! clustering maintained on the shifted auxiliary graph G′.
//!
//! The structure runs Theorem 1.2's batched Even–Shiloach engine
//! ([`bds_estree::EsEngine`]) over G′ and keeps only what is Lemma 3.3's
//! own: the shifts, cluster labels, bucket selection and the spanner. Its
//! hook interleaves cluster maintenance with the engine's phases: after
//! distances at level `i` settle, clusters at level `i` are recomputed (a
//! vertex is its own center iff its parent is a p-node, otherwise it
//! inherits the parent's cluster), the priority keys `(perm[Cluster(v)],
//! v)` of v's out-entries are re-keyed in its out-neighbors' in-lists, and
//! out-neighbors parented on a moved entry are enqueued for a bounded
//! forward rescan. Priorities only *decrease* at a fixed distance (the
//! candidate set only shrinks decrementally), so entries before a scan
//! position never become candidates — the invariant that keeps
//! forward-only rescans sound; an entry that rises past a parent is
//! adopted at once.
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
use bds_dstruct::FxHashMap;
use bds_estree::{EsEngine, Hook, ShiftedGraph, NO_VERTEX};
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf,
};
use bds_graph::types::{Edge, V};
use bds_graph::CsrGraph;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Decremental (2k−1)-spanner (Lemma 3.3).
pub struct DecrementalSpanner {
    n: usize,
    k: u32,
    /// Even–Shiloach state over G′ (original vertices + p-chain). In(v),
    /// descending: for an original v, its shortcut (the top key of range
    /// perm[v]) and, per live neighbour w, (w → v) keyed
    /// `cluster_priority(Cluster(w), w)`.
    es: EsEngine,
    /// Number of live (undirected) edges.
    live: usize,
    cl: Clusters,
}

/// Lemma 3.3's own state, and the engine hook that maintains it.
struct Clusters {
    sg: ShiftedGraph,
    /// Cluster center per original vertex.
    cluster: Vec<V>,
    spanner: SpannerSet,
    /// Cluster changes and recourse (the engine counts the rest).
    stats: BatchStats,
    /// Vertices whose cluster is rechecked when their level settles:
    /// pushed as they find a parent at the level being settled, and by
    /// that level's cluster moves for the next one.
    pending: Vec<V>,
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

        // Pass 2: every directed entry of G′ (shortcut, p-chain, and both
        // edge orientations) as (target, descending key, src); one
        // parallel sort groups each in-list's entries in final order for
        // the engine's build step.
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
        // duplicate input edge leaves two equal entries side by side.
        for w in entries.windows(2) {
            assert!(w[0] != w[1], "duplicate edge ({}, {})", w[0].2, w[0].0);
        }
        // Out-adjacency of G′: each original's neighbours, then each
        // p-node's chain successor and shortcut targets.
        let mut out_adj: Vec<V> = Vec::with_capacity(entries.len());
        let mut out_off = vec![0];
        for v in 0..n as V {
            out_adj.extend_from_slice(g.neighbors(v));
            out_off.push(out_adj.len());
        }
        for i in 0..t {
            out_adj.extend((i + 1 < t).then(|| sg.p_node(i + 1)));
            out_adj.extend_from_slice(&shortcut[i as usize]);
            out_off.push(out_adj.len());
        }
        let out = (out_off, out_adj);
        let es = EsEngine::assemble(t, &entries, out, dist, parent, parent_prio);

        // Initial spanner, one reason per forest edge and per bucket
        // selection. Walking In(v) in descending order, the selection of
        // each key range other than Cluster(v)'s is the range's last
        // entry, unless that entry is v's shortcut (as in `selection`).
        let reasons = bds_par::par_flat_map(&ids, |&v| {
            let mut out = Vec::new();
            let p = es.parent(v);
            if !sg.is_p(p) {
                out.push(Edge::new(p, v));
            }
            let own = sg.cluster_priority(cluster[v as usize], 0) >> 32;
            let mut entries = es.in_list(v).iter().peekable();
            while let Some((key, &src)) = entries.next() {
                let range = key >> 32;
                let last = entries.peek().is_none_or(|&(next, _)| next >> 32 != range);
                if last && range != own && !sg.is_p(src) {
                    out.push(Edge::new(v, src));
                }
            }
            out
        });
        Self {
            n,
            k,
            es,
            live: edges.len(),
            cl: Clusters {
                sg,
                cluster,
                spanner: SpannerSet::from_reasons(&reasons),
                stats: BatchStats::default(),
                pending: Vec::new(),
            },
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn k(&self) -> u32 {
        self.k
    }

    pub fn shifts(&self) -> &ShiftedGraph {
        &self.cl.sg
    }

    pub fn num_live_edges(&self) -> usize {
        self.live
    }

    pub fn live_edges(&self) -> Vec<Edge> {
        let upper = |u: V| {
            self.cl
                .neighbors(&self.es, u)
                .filter(move |&w| u < w)
                .map(move |v| Edge { u, v })
        };
        (0..self.n as V).flat_map(upper).collect()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.es.has_edge(e.u, e.v)
    }

    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.cl.spanner.edges()
    }

    pub fn spanner_size(&self) -> usize {
        self.cl.spanner.len()
    }

    pub fn stats(&self) -> BatchStats {
        let mut stats = self.es.stats();
        stats += self.cl.stats;
        stats
    }

    fn delete_inner(&mut self, batch: &[Edge]) {
        // Phase 0: remove edges from the engine, moving the selections of
        // the two buckets each edge sat in.
        for &e in batch {
            assert!(self.contains_edge(e), "delete of absent {e:?}");
            let (cu, cv) = (self.cl.cluster[e.u as usize], self.cl.cluster[e.v as usize]);
            let keys = [(e.u, cv), (e.v, cu)];
            let before = keys.map(|key| self.cl.selection(&self.es, key));
            self.es.remove(e.u, e.v, &mut self.cl);
            self.es.remove(e.v, e.u, &mut self.cl);
            self.live -= 1;
            self.cl.reselect(&self.es, keys, before);
        }
        // Level-synchronous phases; the shortcut entry guarantees every
        // original vertex settles by depth t − d_v.
        let fell = self.es.run_phases(&mut self.cl);
        assert_eq!(fell, 0, "a vertex fell past depth t");
    }

    /// Full validation oracle: recomputes distances, clusters, buckets and
    /// the spanner from scratch (same random bits) and compares; the
    /// engine checks its own tree; each bucket's min-id member must be its
    /// In(v) key-range selection. O(n·m) — test-only.
    pub fn validate(&self) {
        let (sg, cluster) = (&self.cl.sg, &self.cl.cluster);
        let t = sg.t;
        self.es.validate(sg.source());
        // Reference distances on G′ via per-vertex BFS over the original
        // graph: dist(p0, v) = min_u (t − d_u + dist_G(u, v)).
        let edges = self.live_edges();
        let g = bds_graph::CsrGraph::from_edges(self.n, &edges);
        let mut ref_dist = vec![u32::MAX; self.n];
        let mut best_center = vec![NO_VERTEX; self.n];
        for u in 0..self.n as V {
            let du = g.bfs(u, 10 * t + 10);
            let base = t - sg.d[u as usize];
            for v in 0..self.n as V {
                if du[v as usize] == bds_graph::csr::UNREACHED {
                    continue;
                }
                let cand = base + du[v as usize];
                let better = cand < ref_dist[v as usize]
                    || (cand == ref_dist[v as usize]
                        && (best_center[v as usize] == NO_VERTEX
                            || sg.perm[u as usize] > sg.perm[best_center[v as usize] as usize]));
                if better {
                    ref_dist[v as usize] = cand;
                    best_center[v as usize] = u;
                }
            }
        }
        for v in 0..self.n {
            assert_eq!(self.es.dist(v as V), ref_dist[v], "dist mismatch at {v}");
            assert_eq!(
                cluster[v], best_center[v],
                "cluster mismatch at {v} (dist {})",
                ref_dist[v]
            );
        }
        // Clusters follow parents; priority keys match current clusters.
        for v in 0..self.n as V {
            let p = self.es.parent(v);
            let center = if sg.is_p(p) { v } else { cluster[p as usize] };
            assert_eq!(
                cluster[v as usize], center,
                "cluster of {v} does not follow its parent"
            );
            for (p, &u) in self.es.in_list(v).iter().filter(|&(_, &u)| !sg.is_p(u)) {
                let want = sg.cluster_priority(cluster[u as usize], u);
                assert_eq!(p, want, "stale priority on ({u},{v})");
            }
        }
        // `live` counts the in-lists' edges; the engine holds both their
        // orientations plus the n shortcuts and the t − 1 chain entries.
        assert_eq!(self.live, edges.len(), "live-edge count diverged");
        assert_eq!(self.es.num_edges(), 2 * self.live + self.n + t as usize - 1);
        // Buckets from adjacency × clusters: each selects its min-id
        // member through the key range. Spanner contents = forest +
        // selected representatives.
        let mut buckets: FxHashMap<(V, V), BTreeSet<V>> = FxHashMap::default();
        for e in &edges {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let key = (a, cluster[b as usize]);
                buckets.entry(key).or_default().insert(b);
            }
        }
        let mut want = SpannerSet::new();
        for v in 0..self.n as V {
            let p = self.es.parent(v);
            if !sg.is_p(p) {
                want.add(Edge::new(p, v));
            }
        }
        for (&(v, c), members) in &buckets {
            let first = members.first().map(|&w| Edge::new(v, w));
            let expect = first.filter(|_| cluster[v as usize] != c);
            assert_eq!(
                self.cl.selection(&self.es, (v, c)),
                expect,
                "selection of ({v}, {c})"
            );
            if let Some(e) = expect {
                want.add(e);
            }
        }
        let mut got = self.cl.spanner.edges();
        let mut exp = want.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "spanner contents diverged");
    }
}

impl Clusters {
    /// Live neighbours of original vertex `v`: the original sources of
    /// In(v), in descending priority.
    fn neighbors<'a>(&'a self, es: &'a EsEngine, v: V) -> impl Iterator<Item = V> + 'a {
        es.in_list(v)
            .iter()
            .map(|(_, &src)| src)
            .filter(|&w| !self.sg.is_p(w))
    }

    /// The selected representative of InterCluster[(v, c)]: the lowest
    /// entry of In(v)'s key range `[perm[c]·2³², (perm[c]+1)·2³²)`, i.e.
    /// the min-id neighbour of v in cluster c. `None` if c = Cluster(v),
    /// if the range is empty, or if its lowest entry is v's shortcut
    /// (the highest key of range perm[v], so then the range's only one).
    fn selection(&self, es: &EsEngine, (v, c): (V, V)) -> Option<Edge> {
        if self.cluster[v as usize] == c {
            return None;
        }
        let ins = es.in_list(v);
        let lo = self.sg.cluster_priority(c, 0);
        // Entries with priority ≥ lo; the last of them is the candidate.
        let at_or_above = lo.checked_sub(1).map_or(ins.len(), |p| ins.bound_rank(p));
        let (p, &src) = ins.kth(at_or_above.checked_sub(1)?)?;
        (p >> 32 == lo >> 32 && !self.sg.is_p(src)).then(|| Edge::new(v, src))
    }

    /// Move the spanner's reasons for the buckets `keys` from their
    /// selections `before` an edit of In(·) or Cluster(·) to their
    /// selections now.
    fn reselect(&mut self, es: &EsEngine, keys: [(V, V); 2], before: [Option<Edge>; 2]) {
        for (key, before) in keys.into_iter().zip(before) {
            let after = self.selection(es, key);
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

    /// Relabel `v` from cluster `old_c` to `new_c`: re-key every
    /// out-entry of `v` (which moves it between its neighbours' buckets),
    /// flip its own buckets' eligibility, and enqueue dependent
    /// rescans/cluster checks at the next level.
    fn apply_cluster_change(&mut self, es: &mut EsEngine, v: V, old_c: V, new_c: V) {
        let neighbors: Vec<V> = self.neighbors(es, v).collect();
        for w in neighbors {
            // Re-key the entry (v → w) in In(w): it moves from old_c's
            // key range (bucket) to new_c's.
            let keys = [(w, old_c), (w, new_c)];
            let before = keys.map(|key| self.selection(es, key));
            let new_p = self.sg.cluster_priority(new_c, v);
            let (old_p, is_parent) = es.rekey(v, w, new_p);
            self.reselect(es, keys, before);
            if es.dist(w) != es.dist(v) + 1 {
                continue; // v is no candidate for w
            }
            if is_parent {
                if new_p < old_p {
                    // Entry moved down: a better candidate may now
                    // precede it — bounded forward rescan below the old
                    // slot's priority (rank resolved at scan time).
                    es.enqueue(w, old_p);
                }
                self.pending.push(w); // w's cluster follows its parent's
            } else if new_p > old_p {
                // Riser: v's entry climbed while being a candidate for w;
                // if it passes w's parent, v is w's first candidate (the
                // paper's single-NextWith detection).
                if let Some(pw) = es.adopt(w, v, new_p) {
                    self.parent_changed(w, pw, v);
                }
            }
        }
        // Eligibility flips for v's own buckets: (v, old_c) becomes
        // selectable, (v, new_c) stops being selectable.
        let keys = [(v, old_c), (v, new_c)];
        let before = keys.map(|key| self.selection(es, key));
        self.cluster[v as usize] = new_c;
        self.reselect(es, keys, before);
    }
}

impl Hook for Clusters {
    /// The forest edge follows v's parent; a vertex that found a parent
    /// has its cluster rechecked when its level settles.
    fn parent_changed(&mut self, v: V, old: V, new: V) {
        if old != NO_VERTEX && !self.sg.is_p(old) {
            self.spanner.remove(Edge::new(old, v));
        }
        if new != NO_VERTEX {
            if !self.sg.is_p(new) {
                self.spanner.add(Edge::new(new, v));
            }
            self.pending.push(v);
        }
    }

    /// Cluster fixing at level i: a vertex is its own center iff its
    /// parent is a p-node, otherwise it takes its parent's cluster. A
    /// vertex queued twice is a no-op the second time: level i's parents
    /// and level i − 1's clusters do not move while this runs.
    fn level_settled(&mut self, es: &mut EsEngine, i: u32) {
        for v in std::mem::take(&mut self.pending) {
            if es.dist(v) != i {
                continue;
            }
            let par = es.parent(v);
            debug_assert_ne!(par, NO_VERTEX);
            let new_c = if self.sg.is_p(par) {
                v
            } else {
                self.cluster[par as usize]
            };
            let old_c = self.cluster[v as usize];
            if new_c != old_c {
                self.stats.cluster_changes += 1;
                self.apply_cluster_change(es, v, old_c, new_c);
            }
        }
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
        self.cl.spanner.output_into(out);
    }

    fn stats(&self) -> BatchStats {
        DecrementalSpanner::stats(self)
    }
}

impl Decremental for DecrementalSpanner {
    /// Delete a batch of edges, writing the exact (δH_ins, δH_del) into
    /// `out`. Panics if an edge is absent (deletions must reference live
    /// edges).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.cl.spanner.take_delta_into(out);
        self.cl.stats.recourse += out.recourse() as u64;
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
        // Eight hubs share 300 leaves. Explicit shifts put every hub at
        // depth 1 as its own center and every leaf at depth 2, parented
        // by hub 0 (the largest fractional shift). Deleting hub 0's
        // edges makes each leaf rescan its own In-list for the next hub;
        // those scans do not depend on each other, so deleting in one
        // batch (a level of 300 rescans, the parallel branch) must tally
        // the same scan work as deleting in batches below
        // PAR_RESCAN_MIN (the sequential branch).
        let (hubs, n) = (8u32, 308usize);
        let edges: Vec<Edge> = (hubs..n as u32)
            .flat_map(|v| (0..hubs).map(move |h| Edge::new(h, v)))
            .collect();
        let deltas: Vec<f64> = (0..n)
            .map(|v| match v as u32 {
                0 => 2.9,
                h if h < hubs => 2.5 + 0.01 * h as f64,
                l => 0.1 + 0.0001 * l as f64,
            })
            .collect();
        let batch: Vec<Edge> = (hubs..n as u32).map(|v| Edge::new(0, v)).collect();
        assert!(batch.len() >= bds_estree::PAR_RESCAN_MIN);
        for threads in [1, 2] {
            let steps = |chunk: usize| {
                bds_par::run_with_threads(threads, || {
                    let sg = ShiftedGraph::from_deltas(&deltas);
                    let mut s = DecrementalSpanner::with_shifts(n, 3, &edges, sg);
                    assert!((hubs..n as u32).all(|v| s.es.parent(v) == 0));
                    for b in batch.chunks(chunk) {
                        s.delete_into(b, &mut DeltaBuf::new());
                    }
                    s.validate();
                    let st = s.stats();
                    assert_eq!(st.vertices_touched, batch.len() as u64);
                    st.scan_steps
                })
            };
            let sequential = steps(bds_estree::PAR_RESCAN_MIN - 1);
            assert!(sequential >= batch.len() as u64);
            assert_eq!(steps(batch.len()), sequential, "threads = {threads}");
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
    fn deep_cluster_moves_validate() {
        // k = 4 grows deep cluster trees, so a re-clustered vertex often
        // keeps children whose clusters must follow it a level down.
        let n = 80;
        for seed in [0u64, 3, 7] {
            let edges = gen::gnm_connected(n, 800, seed);
            let mut s = DecrementalSpanner::new(n, 4, &edges, seed * 3 + 1);
            let mut live = edges.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            live.shuffle(&mut rng);
            let mut delta = DeltaBuf::new();
            while live.len() > 500 {
                let b: usize = rng.gen_range(1..=8);
                let batch: Vec<Edge> = live.split_off(live.len() - b);
                s.delete_into(&batch, &mut delta);
                s.validate();
            }
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
