//! [`EsTree`]: Theorem 1.2's decremental BFS tree, the Even–Shiloach
//! engine ([`crate::engine`]) with a hook that records parent changes,
//! over a digraph with a depth cap.

use crate::engine::{EsEngine, Hook, NO_VERTEX, UNREACHED};
use bds_dstruct::edge_table::{pack, unpack};
use bds_graph::api::{BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf};
use bds_graph::types::{Edge, V};
use std::cmp::Reverse;

/// One vertex's parent pointer change from a deletion batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentChange {
    pub vertex: V,
    pub old_parent: V,
    pub new_parent: V,
}

/// Theorem 1.2's hook: record every parent change; nothing happens
/// between levels.
impl Hook for Vec<ParentChange> {
    fn parent_changed(&mut self, vertex: V, old_parent: V, new_parent: V) {
        self.push(ParentChange {
            vertex,
            old_parent,
            new_parent,
        });
    }

    fn level_settled(&mut self, _: &mut EsEngine, _: u32) {}
}

/// Batched decremental Even–Shiloach tree on a digraph over `0..n`.
pub struct EsTree {
    source: V,
    es: EsEngine,
    /// Number of live *canonical* (undirected) edges: unordered pairs
    /// {u, v} with at least one orientation live. Kept incrementally so
    /// the trait view agrees with the undirected implementors.
    canon_live: usize,
    /// Net parent changes across all batches.
    recourse: u64,
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
    /// workloads cannot abort construction. The engine's build step
    /// assembles the lists around the out-adjacency, which the sorted,
    /// deduplicated edges already are; the engine then roots the tree
    /// with a level-synchronous BFS (Lemma 3.2) and picks every parent
    /// as its first candidate in parallel.
    pub fn new(n: usize, source: V, l_max: u32, edges: &[(V, V, u64)]) -> Self {
        // --- Batch dedup, keeping the highest priority per (u, v). ---
        // Sorting (packed key, !priority) ascending clusters duplicates
        // with their highest-priority copy first; dedup-by-key keeps it.
        let mut fwd: Vec<(u64, u64)> = bds_par::par_map(edges, |&(u, v, p)| (pack(u, v), !p));
        bds_par::par_sort(&mut fwd);
        fwd.dedup_by_key(|&mut (k, _)| k);
        let mut entries: Vec<(V, Reverse<u64>, V)> = bds_par::par_map(&fwd, |&(k, np)| {
            let (u, v) = unpack(k);
            (v, Reverse(!np), u)
        });
        bds_par::par_sort(&mut entries);
        // Out-adjacency: `fwd` is grouped by source, in target order.
        let out_off = (0..=n as u64)
            .map(|u| fwd.partition_point(|&(k, _)| k < u << 32))
            .collect();
        let out_adj = fwd.iter().map(|&(k, _)| unpack(k).1).collect();
        let mut es = EsEngine::assemble(
            l_max,
            &entries,
            (out_off, out_adj),
            vec![UNREACHED; n],
            vec![NO_VERTEX; n],
            vec![0; n],
        );

        // Canonical (undirected) edge count: each unordered pair {u, v}
        // counts once — at its u < v orientation if present, else at the
        // lone u > v orientation.
        let canon_live = fwd
            .iter()
            .filter(|&&(k, _)| {
                let (u, v) = unpack(k);
                u < v || !es.has_edge(v, u)
            })
            .count();

        es.root_at(source);
        Self {
            source,
            es,
            canon_live,
            recourse: 0,
        }
    }

    pub fn n(&self) -> usize {
        self.es.n()
    }

    pub fn source(&self) -> V {
        self.source
    }

    pub fn l_max(&self) -> u32 {
        self.es.l_max()
    }

    #[inline]
    pub fn dist(&self, v: V) -> u32 {
        self.es.dist(v)
    }

    #[inline]
    pub fn parent(&self, v: V) -> Option<V> {
        let p = self.es.parent(v);
        (p != NO_VERTEX).then_some(p)
    }

    /// Priority of `v`'s current parent entry in `In(v)`.
    pub fn parent_priority(&self, v: V) -> Option<u64> {
        self.parent(v).map(|_| self.es.parent_priority(v))
    }

    pub fn has_edge(&self, u: V, v: V) -> bool {
        self.es.has_edge(u, v)
    }

    /// Number of live *directed* edges (the native digraph view).
    pub fn num_edges(&self) -> usize {
        self.es.num_edges()
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
        (0..self.n() as V)
            .filter_map(|v| self.parent(v).map(|p| (p, v)))
            .collect()
    }

    /// Cumulative statistics since construction (`recourse` counts net
    /// parent-pointer changes).
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            recourse: self.recourse,
            ..self.es.stats()
        }
    }

    /// Delete a batch of *directed* edges (callers delete both
    /// orientations of an undirected edge). Returns all parent-pointer
    /// changes plus this batch's statistics. Panics if an edge is absent.
    pub fn delete_batch(&mut self, edges: &[(V, V)]) -> (Vec<ParentChange>, BatchStats) {
        let before = self.es.stats();
        let mut changes: Vec<ParentChange> = Vec::new();
        for &(u, v) in edges {
            self.es.remove(u, v, &mut changes);
            if u != v && !self.es.has_edge(v, u) {
                // Last live orientation of {u, v} gone. Self-loops are
                // excluded on both sides of the count: the build filter
                // never counts them (a loop is its own reverse, so the
                // `has_edge` probe sees the edge itself), and canonical
                // edges cannot represent them.
                self.canon_live -= 1;
            }
        }
        self.es.run_phases(&mut changes);
        // Collapse multiple changes per vertex into net changes.
        let net = self.net_changes(changes);
        let mut stats = self.es.stats();
        stats.scan_steps -= before.scan_steps;
        stats.vertices_touched -= before.vertices_touched;
        stats.recourse = net.len() as u64;
        self.recourse += stats.recourse;
        (net, stats)
    }

    /// Collapse a change log into net per-vertex changes: each vertex's
    /// first change (its old parent), in first-seen order, pointed at its
    /// parent now; no-ops dropped. Allocation-free dedup via the engine's
    /// epoch-mark scratch.
    fn net_changes(&mut self, mut changes: Vec<ParentChange>) -> Vec<ParentChange> {
        let epoch = self.es.next_epoch();
        let es = &mut self.es;
        changes.retain_mut(|c| {
            let first = std::mem::replace(&mut es.mark[c.vertex as usize], epoch) != epoch;
            c.new_parent = es.parent(c.vertex);
            first && c.old_parent != c.new_parent
        });
        changes
    }

    /// Validation oracle: recompute BFS distances from scratch and check
    /// `dist`, plus structural parent invariants. Panics on violation.
    pub fn validate(&self) {
        self.es.validate(self.source);
    }
}

impl BatchDynamic for EsTree {
    fn num_vertices(&self) -> usize {
        self.n()
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
        for v in 0..self.n() as V {
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
        let per_edge = t.stats().scan_steps as f64 / m as f64;
        // Generous constant; the point is it doesn't blow up with m².
        assert!(
            per_edge < (l as f64) * (n as f64).log2() * 4.0,
            "amortized scan work too high: {per_edge}"
        );
    }
}
