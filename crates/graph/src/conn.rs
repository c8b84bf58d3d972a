//! Batch-dynamic connectivity: the second product on the engine
//! substrate.
//!
//! [`BatchConnectivity`] wraps the de-treaped HDT spanning forest
//! ([`bds_dstruct::hdt::DynamicForest`] — multi-level Euler tours on
//! flat blocked sequences) behind the workspace's
//! [`BatchDynamic`]/[`FullyDynamic`] trait contract. Its maintained
//! output set H is the *spanning forest itself*: every batch's
//! [`DeltaBuf`] reports exactly which tree edges entered or left the
//! forest (the replacement-edge recourse), so the structure drops into
//! everything built on the contract — [`crate::shard::ShardedEngine`],
//! [`crate::serve::ServeLoop`], the WAL recovery path, and the generic
//! conformance suite — without any of those layers knowing it is not a
//! spanner.
//!
//! The new query surface the contract does not have —
//! [`BatchConnectivity::batch_connected`], `component_size`,
//! `num_components` — is `&self` end to end (the PR-8 satellite: the
//! flat Euler sequences dropped the treap's splay side effects), and is
//! additionally served through [`ConnView`], an epoch'd read mirror in
//! the [`SpannerView`](crate::api::SpannerView) mold: the writer feeds it each batch's delta
//! under the same sequence discipline, readers answer `connected` in
//! two array loads off a flattened component-id table. A `ConnView`
//! built from a [`crate::shard::ShardedView`]'s unioned edges answers
//! *global* connectivity for a sharded engine — the union of per-shard
//! spanning forests preserves the connectivity of the union graph.

use crate::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
};
use crate::types::{Edge, UpdateBatch, V};
use bds_dstruct::{DynamicForest, EdgeTable};

// ---------------------------------------------------------------------------
// BatchConnectivity
// ---------------------------------------------------------------------------

/// Fully-dynamic connectivity over `0..n` behind the batch contract.
///
/// Maintained output H = the HDT spanning forest; per-batch deltas are
/// the exact forest recourse (netted across a mixed batch). Queries are
/// `&self` and safe to fan out in parallel.
pub struct BatchConnectivity {
    forest: DynamicForest,
    seq: u64,
    stats: BatchStats,
}

/// Typed builder for [`BatchConnectivity`] (validates like every other
/// structure builder in the workspace).
#[derive(Debug, Clone)]
pub struct BatchConnectivityBuilder {
    n: usize,
}

impl BatchConnectivityBuilder {
    /// Build over an initial edge set (canonical, in-range, duplicate
    /// free — rejected otherwise). The initial forest is bulk-built:
    /// one DSU pass splits tree from non-tree edges and the level-0
    /// Euler tours are laid out component-at-a-time instead of linked
    /// edge by edge.
    pub fn build(&self, edges: &[Edge]) -> Result<BatchConnectivity, ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::TooFewVertices { n: 0, min: 1 });
        }
        validate_edges(self.n, edges)?;
        let pairs: Vec<(u32, u32)> = edges.iter().map(|e| (e.u, e.v)).collect();
        Ok(BatchConnectivity {
            forest: DynamicForest::from_edges(self.n, &pairs),
            seq: 0,
            stats: BatchStats::default(),
        })
    }
}

impl BatchConnectivity {
    /// Builder over `0..n` vertices.
    pub fn builder(n: usize) -> BatchConnectivityBuilder {
        BatchConnectivityBuilder { n }
    }

    /// Empty structure over `0..n` (n ≥ 1 unchecked; use
    /// [`BatchConnectivity::builder`] for validated construction).
    pub fn new(n: usize) -> Self {
        Self {
            forest: DynamicForest::new(n),
            seq: 0,
            stats: BatchStats::default(),
        }
    }

    /// Whether `u` and `v` are connected in the maintained graph.
    pub fn connected(&self, u: V, v: V) -> bool {
        self.forest.connected(u, v)
    }

    /// Number of vertices in `v`'s component.
    pub fn component_size(&self, v: V) -> u32 {
        self.forest.component_size(v)
    }

    /// Number of connected components (isolated vertices count).
    pub fn num_components(&self) -> usize {
        self.forest.num_vertices() - self.forest.num_forest_edges()
    }

    /// Answer a batch of connectivity queries in parallel into `out`
    /// (cleared first). `&self`: safe against a shared reference, e.g.
    /// from several reader threads at once.
    pub fn batch_connected(&self, pairs: &[(V, V)], out: &mut Vec<bool>) {
        out.clear();
        out.resize(pairs.len(), false);
        bds_par::par_map_slice(pairs, out, |&(u, v)| self.forest.connected(u, v));
    }

    /// The current spanning-forest edges (the maintained output set H).
    pub fn forest_edges(&self) -> Vec<Edge> {
        self.forest
            .forest_edges()
            .into_iter()
            .map(|(u, v)| Edge { u, v })
            .collect()
    }

    fn push_forest_delta(out: &mut DeltaBuf, delta: bds_dstruct::ForestDelta) {
        for (u, v) in delta.removed {
            out.push_del(Edge { u, v });
        }
        for (u, v) in delta.added {
            out.push_ins(Edge { u, v });
        }
    }
}

impl BatchDynamic for BatchConnectivity {
    fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    fn num_live_edges(&self) -> usize {
        self.forest.num_edges()
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for (u, v) in self.forest.forest_edges() {
            out.push_ins(Edge { u, v });
        }
    }

    /// `scan_steps` is the HDT replacement-search work:
    /// [`DynamicForest::scan_steps`].
    fn stats(&self) -> BatchStats {
        BatchStats {
            scan_steps: self.forest.scan_steps(),
            ..self.stats
        }
    }

    fn batch_seq(&self) -> u64 {
        self.seq
    }
}

impl Decremental for BatchConnectivity {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        for e in deletions {
            let d = self.forest.delete_edge(e.u, e.v);
            Self::push_forest_delta(out, d);
        }
        out.net();
        self.seq += 1;
        out.stamp_seq(self.seq);
        self.stats.recourse += out.recourse() as u64;
        self.stats.vertices_touched += 2 * deletions.len() as u64;
    }
}

impl FullyDynamic for BatchConnectivity {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        for e in insertions {
            let d = self.forest.insert_edge(e.u, e.v);
            assert!(
                d.removed.is_empty(),
                "tree-edge insert produced a removal delta"
            );
            Self::push_forest_delta(out, d);
        }
        self.seq += 1;
        out.stamp_seq(self.seq);
        self.stats.recourse += out.recourse() as u64;
        self.stats.vertices_touched += 2 * insertions.len() as u64;
    }

    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        out.clear();
        for e in &batch.deletions {
            let d = self.forest.delete_edge(e.u, e.v);
            Self::push_forest_delta(out, d);
        }
        for e in &batch.insertions {
            let d = self.forest.insert_edge(e.u, e.v);
            Self::push_forest_delta(out, d);
        }
        // A tree edge cut in the deletion phase can re-enter as a
        // replacement in the insertion phase (and vice versa): net to
        // the exact membership change of the batch.
        out.net();
        self.seq += 1;
        out.stamp_seq(self.seq);
        self.stats.recourse += out.recourse() as u64;
        self.stats.vertices_touched += 2 * (batch.insertions.len() + batch.deletions.len()) as u64;
    }
}

// ---------------------------------------------------------------------------
// ConnView — the epoch'd component mirror
// ---------------------------------------------------------------------------

/// An epoch'd read mirror of component structure, fed by forest deltas.
///
/// Where [`SpannerView`](crate::api::SpannerView) mirrors edge *membership*, `ConnView` mirrors
/// the *components* a forest induces: a flattened component-id array
/// (`connected` = two loads + compare, no path compression, `&self`)
/// plus per-component sizes. The writer applies each batch's
/// [`DeltaBuf`] under the same sequence discipline as `SpannerView`
/// (sequenced deltas must advance `seq` by exactly one — drift panics);
/// insert-only deltas fold in incrementally, a delta carrying deletions
/// triggers a rebuild from the mirrored forest edge set (O(n + f) — the
/// forest is at most n−1 edges, so rebuilds stay linear in vertices).
#[derive(Debug, Clone)]
pub struct ConnView {
    n: usize,
    /// The component table: between calls, `parent[v]` is `v`'s
    /// component id, the component's smallest vertex. Inside
    /// `rebuild`/`apply` it is the union-find forest those calls
    /// update, whose every link points from a larger vertex id to a
    /// smaller one (so the table's own roots are the component ids, and
    /// `parent[v] ≤ v` always).
    parent: Vec<V>,
    /// Component size at the component id's slot (stale elsewhere).
    csize: Vec<u32>,
    /// Mirrored forest edges, for deletion-path rebuilds.
    edges: Vec<Edge>,
    /// Mirrored edge -> its slot in `edges`, so a deletion finds its
    /// edge in O(1). Built by the first delta that deletes, then kept in
    /// step with `edges` (equal lengths mark it live).
    slots: EdgeTable,
    /// Component count, recomputed at each flatten (robust to cyclic
    /// mirrored edge sets, e.g. a sharded union).
    ncomp: usize,
    epoch: u64,
    seq: u64,
}

impl ConnView {
    /// A view of the edgeless graph over `0..n`.
    pub fn new(n: usize) -> Self {
        Self::from_edges(n, &[])
    }

    /// A view of the components induced by `edges` (a forest or any
    /// edge set — connectivity of the union is what is mirrored).
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut v = Self {
            n,
            parent: Vec::new(),
            csize: Vec::new(),
            edges: edges.to_vec(),
            slots: EdgeTable::new(),
            ncomp: n,
            epoch: 0,
            seq: 0,
        };
        v.rebuild();
        v
    }

    /// A view seeded from a structure's current output set, anchored at
    /// its batch sequence — the [`SpannerView::from_output`](crate::api::SpannerView::from_output) analogue.
    /// For [`BatchConnectivity`] the output is its spanning forest, so
    /// the view mirrors exact component structure.
    pub fn from_output(n: usize, structure: &impl BatchDynamic) -> Self {
        let mut buf = DeltaBuf::new();
        structure.output_into(&mut buf);
        let mut v = Self::from_edges(n, buf.inserted());
        v.seq = structure.batch_seq();
        v
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of delta batches applied since construction/reseed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sequence number of the last sequenced delta applied.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Re-anchor the sequence check at `seq` (next accepted sequenced
    /// delta must carry `seq + 1`).
    pub fn resync_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Flatten the union-find forest in place into the component table,
    /// and count sizes, in one forward pass; after it every query is
    /// `&self` and O(1). Sizes are counted by runs of one id, so a giant
    /// component costs one increment per run rather than a chain of
    /// read-modify-writes to one counter.
    fn flatten(&mut self) {
        self.csize.clear();
        self.csize.resize(self.n, 0);
        let mut roots = 0usize;
        let (mut run_id, mut run): (V, u32) = (0, 0);
        for v in 0..self.n {
            // INVARIANT: v < n = parent.len(), and p = parent[v] ≤ v, so
            // parent[p] is already p's component id (flattened earlier
            // in this pass, or p = v is a root).
            let p = self.parent[v];
            // INVARIANT: as above.
            let r = self.parent[p as usize];
            // INVARIANT: as above.
            self.parent[v] = r;
            roots += usize::from(r as usize == v);
            if r != run_id {
                // INVARIANT: ids are vertex ids < n = csize.len().
                self.csize[run_id as usize] += run;
                (run_id, run) = (r, 0);
            }
            run += 1;
        }
        if let Some(size) = self.csize.get_mut(run_id as usize) {
            *size += run;
        }
        self.ncomp = roots;
    }

    fn rebuild(&mut self) {
        self.parent.clear();
        // INVARIANT: vertex ids are `V`, so n fits in one.
        self.parent.extend(0..self.n as V);
        for i in 0..self.edges.len() {
            // INVARIANT: i < edges.len().
            let e = self.edges[i];
            self.union(e.u, e.v);
        }
        self.flatten();
    }

    /// Rem's union with splicing (Patwary–Blair–Manne 2010): climb from
    /// both endpoints at once, always from the side whose parent is
    /// larger, and splice that node under the other side's smaller
    /// parent on the way up. It stops when both sides share a parent, or
    /// when the climbing side is a root, which the splice just linked.
    /// Every link keeps pointing at a smaller id (what `flatten`'s single
    /// pass needs), so each root stays its tree's smallest vertex.
    fn union(&mut self, a: V, b: V) {
        let (mut x, mut y) = (a, b);
        loop {
            // INVARIANT: x, y and every parent entry are vertex ids < n =
            // parent.len() (mirrored edges stay inside 0..n).
            let (mut px, mut py) = (self.parent[x as usize], self.parent[y as usize]);
            if px == py {
                return;
            }
            if px < py {
                std::mem::swap(&mut x, &mut y);
                std::mem::swap(&mut px, &mut py);
            }
            // INVARIANT: as above; py < px ≤ x keeps the link downward.
            self.parent[x as usize] = py;
            if px == x {
                return;
            }
            x = px;
        }
    }

    /// Mirror one more edge, indexing its slot if the index is live.
    fn push_edge(&mut self, e: Edge) {
        if self.slots.len() == self.edges.len() {
            self.slots.insert(e.u, e.v, self.edges.len() as u64);
        }
        self.edges.push(e);
    }

    /// Index every mirrored edge by slot, unless the index is live.
    fn index_slots(&mut self) {
        if self.slots.len() == self.edges.len() {
            return;
        }
        self.slots.clear();
        for (i, e) in self.edges.iter().enumerate() {
            self.slots.insert(e.u, e.v, i as u64);
        }
    }

    /// Advance the mirror by one forest delta and bump the epoch.
    ///
    /// Sequence discipline matches [`SpannerView::apply`](crate::api::SpannerView::apply): a sequenced
    /// delta (seq ≠ 0) must carry exactly `self.seq + 1`, anything else
    /// panics. Insert-only deltas union incrementally plus one O(n)
    /// flatten; deltas with deletions drop each deleted edge by its
    /// indexed slot, then rebuild from the mirrored forest.
    pub fn apply(&mut self, delta: &DeltaBuf) {
        if delta.seq() != 0 {
            assert_eq!(
                delta.seq(),
                self.seq + 1,
                "conn view drift: delta carries batch seq {} but the view expects {} \
                 (double apply, skipped batch, or a delta from a different engine)",
                delta.seq(),
                self.seq + 1
            );
            self.seq = delta.seq();
        }
        let dels = delta.deleted();
        if dels.is_empty() {
            for &e in delta.inserted() {
                self.push_edge(e);
                self.union(e.u, e.v);
            }
            self.flatten();
        } else {
            self.index_slots();
            for &d in dels {
                let i = self
                    .slots
                    .remove(d.u, d.v)
                    // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                    .expect("conn view delta removes unmirrored forest edge")
                    as usize;
                self.edges.swap_remove(i);
                if let Some(&moved) = self.edges.get(i) {
                    self.slots.insert(moved.u, moved.v, i as u64);
                }
            }
            for &e in delta.inserted() {
                self.push_edge(e);
            }
            self.rebuild();
        }
        self.epoch += 1;
    }

    /// Whether `u` and `v` are currently connected (two loads).
    pub fn connected(&self, u: V, v: V) -> bool {
        self.parent[u as usize] == self.parent[v as usize]
    }

    /// Size of `v`'s component.
    pub fn component_size(&self, v: V) -> u32 {
        self.csize[self.parent[v as usize] as usize]
    }

    /// Component id of `v` at this epoch: the smallest vertex of its
    /// component.
    pub fn component_id(&self, v: V) -> V {
        self.parent[v as usize]
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.ncomp
    }

    /// Answer a batch of connectivity queries in parallel into `out`
    /// (cleared first).
    pub fn batch_connected(&self, pairs: &[(V, V)], out: &mut Vec<bool>) {
        out.clear();
        out.resize(pairs.len(), false);
        bds_par::par_map_slice(pairs, out, |&(u, v)| self.connected(u, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SpannerView;
    use crate::union_find::UnionFind;

    fn e(u: V, v: V) -> Edge {
        Edge::new(u, v)
    }

    #[test]
    fn builder_validates() {
        assert!(BatchConnectivity::builder(0).build(&[]).is_err());
        assert!(BatchConnectivity::builder(4)
            .build(&[Edge { u: 2, v: 1 }])
            .is_err());
        assert!(BatchConnectivity::builder(4).build(&[e(0, 5)]).is_err());
        assert!(BatchConnectivity::builder(4)
            .build(&[e(0, 1), e(0, 1)])
            .is_err());
        assert!(BatchConnectivity::builder(4)
            .build(&[e(0, 1), e(2, 3)])
            .is_ok());
    }

    #[test]
    fn batch_updates_and_queries() {
        let mut c = BatchConnectivity::builder(8)
            .build(&[e(0, 1), e(1, 2), e(0, 2), e(4, 5)])
            .unwrap();
        assert!(c.connected(0, 2));
        assert!(!c.connected(0, 4));
        assert_eq!(c.component_size(1), 3);
        let mut out = DeltaBuf::new();
        // Deleting the tree path must keep 0-2 connected via the cycle
        // edge.
        c.delete_into(&[e(0, 1)], &mut out);
        assert!(c.connected(0, 1));
        c.insert_into(&[e(2, 4)], &mut out);
        assert!(c.connected(0, 5));
        let mut ans = Vec::new();
        c.batch_connected(&[(0, 5), (3, 6), (7, 7)], &mut ans);
        assert_eq!(ans, vec![true, false, true]);
    }

    #[test]
    fn num_components_counts_isolated() {
        let c = BatchConnectivity::builder(8)
            .build(&[e(0, 1), e(1, 2), e(0, 2), e(4, 5)])
            .unwrap();
        // Components: {0,1,2}, {3}, {4,5}, {6}, {7}.
        assert_eq!(c.num_components(), 5);
    }

    #[test]
    fn output_is_forest_and_deltas_track_it() {
        use bds_dstruct::FxHashSet;
        let mut c = BatchConnectivity::builder(6)
            .build(&[e(0, 1), e(1, 2), e(0, 2)])
            .unwrap();
        let mut shadow: FxHashSet<Edge> = c.forest_edges().into_iter().collect();
        assert_eq!(shadow.len(), 2);
        let mut out = DeltaBuf::new();
        c.apply_into(
            &UpdateBatch {
                insertions: vec![e(3, 4)],
                deletions: vec![e(0, 1)],
            },
            &mut out,
        );
        out.apply_to(&mut shadow);
        let now: FxHashSet<Edge> = c.forest_edges().into_iter().collect();
        assert_eq!(shadow, now);
    }

    #[test]
    fn conn_view_tracks_deltas_and_checks_seq() {
        let mut c = BatchConnectivity::builder(10)
            .build(&[e(0, 1), e(2, 3)])
            .unwrap();
        let mut view = ConnView::from_output(10, &c);
        assert!(view.connected(0, 1));
        assert!(!view.connected(1, 2));
        assert_eq!(view.component_size(2), 2);
        assert_eq!(view.num_components(), 8);

        let mut d = DeltaBuf::new();
        c.insert_into(&[e(1, 2)], &mut d);
        view.apply(&d);
        assert!(view.connected(0, 3));
        assert_eq!(view.component_size(0), 4);
        assert_eq!(view.epoch(), 1);

        // Deletion path: replacement-free cut splits the component.
        c.delete_into(&[e(1, 2)], &mut d);
        view.apply(&d);
        assert!(!view.connected(0, 3));
        assert_eq!(view.num_components(), 8);

        // Double apply must panic (drift).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut v2 = view.clone();
            v2.apply(&d);
        }));
        assert!(r.is_err(), "double apply must panic");
    }

    #[test]
    fn conn_view_matches_oracle_under_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 48usize;
        let mut rng = StdRng::seed_from_u64(77);
        let mut c = BatchConnectivity::builder(n).build(&[]).unwrap();
        let mut view = ConnView::from_output(n, &c);
        let mut live: Vec<Edge> = Vec::new();
        let mut d = DeltaBuf::new();
        for _ in 0..120 {
            let mut batch = UpdateBatch::default();
            for _ in 0..rng.gen_range(1..6) {
                if !live.is_empty() && rng.gen_bool(0.45) {
                    let i = rng.gen_range(0..live.len());
                    let ed = live[i];
                    // The model forbids an edge in both lists of one
                    // batch: skip edges inserted earlier this batch.
                    if batch.insertions.contains(&ed) {
                        continue;
                    }
                    live.swap_remove(i);
                    batch.deletions.push(ed);
                } else {
                    let u = rng.gen_range(0..n as V);
                    let v = rng.gen_range(0..n as V);
                    if u == v {
                        continue;
                    }
                    let ed = e(u, v);
                    if live.contains(&ed) || batch.deletions.contains(&ed) {
                        continue;
                    }
                    live.push(ed);
                    batch.insertions.push(ed);
                }
            }
            c.apply_into(&batch, &mut d);
            view.apply(&d);
            // Oracle over the live set.
            let mut uf = UnionFind::new(n);
            for ed in &live {
                uf.union(ed.u, ed.v);
            }
            for _ in 0..30 {
                let u = rng.gen_range(0..n as V);
                let v = rng.gen_range(0..n as V);
                assert_eq!(view.connected(u, v), uf.same(u, v), "view ({u},{v})");
                assert_eq!(c.connected(u, v), uf.same(u, v), "struct ({u},{v})");
            }
            assert_eq!(view.num_components(), uf.components());
            let u = rng.gen_range(0..n as V);
            assert_eq!(view.component_size(u), uf.component_size(u));
            assert_eq!(c.component_size(u), uf.component_size(u));
        }
    }

    /// `view` against a [`UnionFind`] over `edges`: every component id
    /// is its smallest member, every table entry is ≤ its index, and
    /// sizes and the component count agree.
    fn assert_view_is_union_find(view: &ConnView, n: usize, edges: &[Edge], what: &str) {
        let mut uf = UnionFind::new(n);
        for ed in edges {
            uf.union(ed.u, ed.v);
        }
        let mut smallest = vec![V::MAX; n];
        for v in 0..n as V {
            let r = uf.find(v) as usize;
            smallest[r] = smallest[r].min(v);
        }
        for v in 0..n as V {
            assert!(
                view.parent[v as usize] <= v,
                "{what}: entry {v} above its index"
            );
            let id = smallest[uf.find(v) as usize];
            assert_eq!(view.component_id(v), id, "{what}: id of {v}");
            assert_eq!(
                view.component_size(v),
                uf.component_size(v),
                "{what}: size of {v}"
            );
        }
        assert_eq!(view.num_components(), uf.components(), "{what}");
    }

    #[test]
    fn conn_view_union_find_matches_oracle() {
        use crate::gen;
        let n = 300usize;
        let top = n as V - 1;
        let ascending: Vec<Edge> = (0..top).map(|v| e(v, v + 1)).collect();
        let descending: Vec<Edge> = ascending.iter().rev().copied().collect();
        let star: Vec<Edge> = (0..top).map(|v| e(v, top)).collect();
        let forest = gen::spanning_forest(n, &gen::gnm(n, n, 3));
        // Two shards' forests over one graph: their union has cycles.
        let mut union = forest.clone();
        union.extend(gen::spanning_forest(n, &gen::gnm(n, n, 4)));
        union.sort_unstable();
        union.dedup();
        assert!(union.len() > forest.len(), "the union adds edges");
        for (name, edges) in [
            ("ascending path", &ascending),
            ("descending path", &descending),
            ("star on the largest id", &star),
            ("random forest", &forest),
            ("union of two forests", &union),
        ] {
            let view = ConnView::from_edges(n, edges);
            assert_view_is_union_find(&view, n, edges, name);
            // The same edges folded in by one insert-only delta.
            let mut view = ConnView::new(n);
            let mut d = DeltaBuf::new();
            for &ed in edges.iter() {
                d.push_ins(ed);
            }
            view.apply(&d);
            assert_view_is_union_find(&view, n, edges, name);
        }
    }

    #[test]
    fn conn_view_insert_only_apply_after_deleting_one() {
        use crate::gen;
        let n = 400usize;
        let forest = gen::spanning_forest(n, &gen::gnm(n, 2 * n, 8));
        let mut view = ConnView::from_edges(n, &forest);
        let mut d = DeltaBuf::new();
        for &ed in forest.iter().step_by(3) {
            d.push_del(ed);
        }
        view.apply(&d);
        d.clear();
        for &ed in forest.iter().step_by(6) {
            d.push_ins(ed);
        }
        view.apply(&d);
        let live: Vec<Edge> = forest
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 3 != 0 || i % 6 == 0)
            .map(|(_, &ed)| ed)
            .collect();
        assert_view_is_union_find(&view, n, &live, "insert-only after deleting");
        let fresh = ConnView::from_edges(n, &live);
        assert_eq!(view.parent, fresh.parent);
        assert_eq!(view.num_components(), fresh.num_components());
        for v in 0..n as V {
            assert_eq!(view.component_size(v), fresh.component_size(v));
        }
    }

    #[test]
    fn conn_view_apply_matches_fresh_build() {
        // Every delta, insert-only or deleting, must leave the mirror
        // identical to a view built from scratch over the same forest:
        // the slot index, the splicing union and the in-place flatten
        // together. Component ids are the smallest member vertex, so
        // they compare directly.
        use crate::{gen, stream::UpdateStream};
        let n = 5000usize;
        let init = gen::gnm(n, 2 * n, 5);
        let mut c = BatchConnectivity::builder(n).build(&init).unwrap();
        let mut view = ConnView::from_output(n, &c);
        let mut stream = UpdateStream::new(n, &init, 6);
        let mut d = DeltaBuf::new();
        for round in 0..60 {
            let (ins, dels) = [(64, 0), (0, 64), (64, 64)][round % 3];
            c.apply_into(&stream.next_batch(ins, dels), &mut d);
            view.apply(&d);
            let fresh = ConnView::from_edges(n, &c.forest_edges());
            assert_eq!(
                view.num_components(),
                fresh.num_components(),
                "round {round}"
            );
            assert_eq!(view.num_components(), c.num_components(), "round {round}");
            for v in 0..n as V {
                assert_eq!(view.component_id(v), fresh.component_id(v), "id of {v}");
                assert_eq!(
                    view.component_size(v),
                    fresh.component_size(v),
                    "size of {v}"
                );
            }
        }
    }

    #[test]
    fn hdt_work_within_log_squared_bound() {
        // HDT amortization: replacement-search work (tree edges promoted
        // plus non-tree candidates examined, reported as `scan_steps`)
        // stays within C·log₂²n per update over a churn run, C = 1.
        use crate::{gen, stream::UpdateStream};
        const C: f64 = 1.0;
        let n = 2000usize;
        let init = gen::gnm(n, 4 * n, 11);
        let mut c = BatchConnectivity::builder(n).build(&init).unwrap();
        let mut stream = UpdateStream::new(n, &init, 12);
        let mut d = DeltaBuf::new();
        let mut updates = 0;
        for _ in 0..100 {
            let batch = stream.next_batch(64, 64);
            updates += batch.len();
            c.apply_into(&batch, &mut d);
        }
        let steps = c.stats().scan_steps;
        assert!(steps > 0, "no replacement work counted");
        let per_update = steps as f64 / updates as f64;
        let bound = C * (n as f64).log2().powi(2);
        assert!(
            per_update <= bound,
            "{per_update:.2} steps per update > {bound:.1}"
        );
    }

    #[test]
    fn spanner_view_mirrors_forest_output_too() {
        // BatchConnectivity honors the generic output/delta contract, so
        // the *edge-membership* mirror works unchanged as well.
        let mut c = BatchConnectivity::builder(6)
            .build(&[e(0, 1), e(1, 2)])
            .unwrap();
        let mut sv = SpannerView::from_output(6, &c);
        assert_eq!(sv.len(), 2);
        let mut d = DeltaBuf::new();
        c.delete_into(&[e(0, 1)], &mut d);
        sv.apply(&d);
        assert_eq!(sv.len(), 1);
        assert!(sv.contains(e(1, 2)));
    }
}
