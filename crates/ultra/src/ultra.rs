//! The ultra-sparse spanner structure. See the crate docs for the scheme.

use bds_contract::contracted::NO_HEAD;
use bds_contract::schedule::{contraction_sequence, ultra_target};
use bds_contract::{ContractedEdges, RepChain, SparseSpanner};
use bds_core::SpannerSet;
use bds_dstruct::{DynamicForest, FlatList, FxHashMap, FxHashSet};
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
};
use bds_graph::types::{Edge, UpdateBatch, V};
use rand::{rngs::StdRng, Rng, SeedableRng};

const NO_PAR: V = V::MAX;

/// Tuning knobs of Theorem 1.4.
#[derive(Debug, Clone, Copy)]
pub struct UltraParams {
    /// The paper's x ∈ [2, O(log log n / (log log log n)²)].
    pub x: u32,
}

impl Default for UltraParams {
    fn default() -> Self {
        Self { x: 2 }
    }
}

/// Batch-dynamic ultra-sparse spanner (Theorem 1.4).
pub struct UltraSparseSpanner {
    n: usize,
    x: u32,
    /// Heavy threshold θ = ⌈10·x·log₂x⌉ (≥ 2 so "heavy" is meaningful),
    /// also the light-BFS radius.
    theta: u32,
    rand_v: Vec<u64>,
    in_d: Vec<bool>,
    adj: Vec<FlatList<(u8, u64, V), ()>>,
    edges: FxHashSet<Edge>,
    head: Vec<V>,
    par: Vec<V>,
    h1: SpannerSet,
    forest: DynamicForest,
    /// NextLevelEdges buckets over head pairs, with representatives.
    contracted: ContractedEdges,
    /// Theorem 1.3 instance over the contracted graph (squared schedule).
    gprime: SparseSpanner,
    /// gprime's spanner mapped back to representatives in `final_set`.
    chain: RepChain,
    final_set: SpannerSet,
    pub head_recomputes: u64,
    recourse: u64,
    /// Reusable buffer for contracted-spanner and H1 deltas.
    scratch: DeltaBuf,
}

/// Typed builder for [`UltraSparseSpanner`] (Theorem 1.4).
#[derive(Debug, Clone)]
pub struct UltraSparseSpannerBuilder {
    n: usize,
    x: u32,
    seed: u64,
}

impl UltraSparseSpannerBuilder {
    /// Sparsity knob x: the spanner keeps n + O(n/x) edges (default 2).
    pub fn x(mut self, x: u32) -> Self {
        self.x = x;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<UltraSparseSpanner, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        if self.x < 2 {
            return Err(ConfigError::InvalidParam {
                name: "x",
                reason: "the paper's x ranges over [2, O(log log n / (log log log n)²)]",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(UltraSparseSpanner::new(
            self.n,
            edges,
            UltraParams { x: self.x },
            self.seed,
        ))
    }
}

impl UltraSparseSpanner {
    /// Typed builder: `UltraSparseSpanner::builder(n).x(2).seed(s)
    /// .build(&edges)`.
    pub fn builder(n: usize) -> UltraSparseSpannerBuilder {
        UltraSparseSpannerBuilder {
            n,
            x: 2,
            seed: 0x5eed,
        }
    }

    pub fn new(n: usize, edges: &[Edge], params: UltraParams, seed: u64) -> Self {
        let x = params.x.max(2);
        let theta = ((10.0 * x as f64 * (x as f64).log2()).ceil() as u32).max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let rand_v: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let in_d: Vec<bool> = (0..n).map(|_| rng.gen_bool(1.0 / x as f64)).collect();

        let mut this = Self {
            n,
            x,
            theta,
            rand_v,
            in_d,
            adj: (0..n).map(|_| FlatList::new()).collect(),
            edges: FxHashSet::default(),
            head: vec![NO_HEAD; n],
            par: vec![NO_PAR; n],
            h1: SpannerSet::new(),
            forest: DynamicForest::new(n),
            contracted: ContractedEdges::default(),
            gprime: SparseSpanner::with_rates(
                n,
                &[],
                &contraction_sequence(ultra_target(n)),
                seed ^ 0x617c,
            ),
            chain: RepChain::default(),
            final_set: SpannerSet::new(),
            head_recomputes: 0,
            recourse: 0,
            scratch: DeltaBuf::new(),
        };
        // Sampled vertices head to themselves from the start — vertices
        // that never see an edge are otherwise never recomputed.
        for v in 0..n {
            if this.in_d[v] {
                this.head[v] = v as V;
            }
        }
        // The initial spanner is not recourse: discard its delta.
        this.process_inner(&UpdateBatch::insert_only(edges.to_vec()));
        this.final_set.take_delta_into(&mut DeltaBuf::new());
        this
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn x(&self) -> u32 {
        self.x
    }

    pub fn theta(&self) -> u32 {
        self.theta
    }

    pub fn num_live_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.final_set.edges()
    }

    pub fn spanner_size(&self) -> usize {
        self.final_set.len()
    }

    pub fn h1_size(&self) -> usize {
        self.h1.len()
    }

    pub fn h2_size(&self) -> usize {
        self.forest.forest_edges().len()
    }

    pub fn contracted_spanner_size(&self) -> usize {
        self.gprime.spanner_size()
    }

    #[inline]
    fn deg(&self, v: V) -> u32 {
        self.adj[v as usize].len() as u32
    }

    #[inline]
    fn heavy(&self, v: V) -> bool {
        self.deg(v) >= self.theta
    }

    #[inline]
    fn is_bot(&self, v: V) -> bool {
        self.head[v as usize] == NO_HEAD
    }

    /// Head of a heavy (or sampled) vertex: itself if sampled, else the
    /// minimum-rand sampled neighbor, else itself as an unclustered
    /// center (D′). Returns (head, par).
    fn compute_head_heavy(&self, v: V) -> (V, V) {
        if self.in_d[v as usize] {
            return (v, NO_PAR);
        }
        match self.adj[v as usize].first() {
            Some((k, _)) if k.0 == 0 => (k.2, k.2),
            _ => (v, NO_PAR),
        }
    }

    /// Algorithm 5: radius-θ BFS through light vertices. Returns
    /// (head, par) where head ∈ {center, v, NO_HEAD} and par is the first
    /// hop of a shortest in-cluster path (NO_PAR when head ∈ {v, ⊥}).
    fn compute_head_light(&self, v: V) -> (V, V) {
        if self.in_d[v as usize] {
            return (v, NO_PAR);
        }
        // visited: vertex -> (dist, first hop from v; v itself = NO_PAR)
        let mut visited: FxHashMap<V, (u32, V)> = FxHashMap::default();
        visited.insert(v, (0, NO_PAR));
        // best candidate: (dist, rand of center, center, first hop)
        let mut best: Option<(u32, u64, V, V)> = None;
        let consider = |cand: (u32, u64, V, V), best: &mut Option<(u32, u64, V, V)>| {
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                *best = Some(cand);
            }
        };
        let mut frontier = vec![v];
        let mut level = 0u32;
        while !frontier.is_empty() && level < self.theta {
            let mut next = Vec::new();
            for &w in &frontier {
                let fh_w = visited[&w].1;
                for (key, _) in self.adj[w as usize].iter() {
                    let xn = key.2;
                    if visited.contains_key(&xn) {
                        continue;
                    }
                    let fh = if w == v { xn } else { fh_w };
                    let d = level + 1;
                    visited.insert(xn, (d, fh));
                    if self.in_d[xn as usize] {
                        consider((d, self.rand_v[xn as usize], xn, fh), &mut best);
                    }
                    if self.heavy(xn) {
                        // Boundary: don't branch; use its head as a
                        // candidate (Algorithm 5's last case).
                        if !self.in_d[xn as usize] {
                            let hx = self.head[xn as usize];
                            debug_assert_ne!(hx, NO_HEAD, "heavy vertex with ⊥ head");
                            if hx == xn {
                                // D′ member.
                                consider((d, self.rand_v[xn as usize], xn, fh), &mut best);
                            } else if let Some(&(dc, _)) = visited.get(&hx) {
                                consider((dc, self.rand_v[hx as usize], hx, fh), &mut best);
                            } else {
                                consider((d + 1, self.rand_v[hx as usize], hx, fh), &mut best);
                            }
                        }
                    } else {
                        next.push(xn);
                    }
                }
            }
            level += 1;
            // Candidates at distance ≤ level are now final.
            if let Some(b) = best {
                if b.0 <= level {
                    return (b.2, b.3);
                }
            }
            frontier = next;
        }
        if let Some(b) = best {
            return (b.2, b.3);
        }
        // No candidate: the light-reachable component (the whole component
        // — no heavy vertex was met) decides between ⊥ and self.
        if frontier.is_empty() && visited.len() <= self.theta as usize {
            (NO_HEAD, NO_PAR)
        } else {
            (v, NO_PAR)
        }
    }

    /// Contracted edge that `e` supports under the current heads.
    fn bucket_of(&self, e: Edge) -> Option<Edge> {
        ContractedEdges::key(self.head[e.u as usize], self.head[e.v as usize])
    }

    fn process_inner(&mut self, batch: &UpdateBatch) {
        let mut touched: FxHashSet<V> = FxHashSet::default();

        // --- Step 1: apply edge updates to adjacency / buckets / H1-incid
        //     / forest (pre-flip statuses). ---
        for &e in &batch.deletions {
            assert!(self.edges.remove(&e), "delete of absent {e:?}");
            self.contracted.move_support(e, self.bucket_of(e), None);
            if self.forest.contains_edge(e.u, e.v) {
                let d = self.forest.delete_edge(e.u, e.v);
                self.apply_forest_delta(d);
            }
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let key = (!self.in_d[b as usize] as u8, self.rand_v[b as usize], b);
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                self.adj[a as usize].remove(&key).expect("adj entry");
            }
            touched.insert(e.u);
            touched.insert(e.v);
        }
        for &e in &batch.insertions {
            assert!(self.edges.insert(e), "insert of present {e:?}");
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let key = (!self.in_d[b as usize] as u8, self.rand_v[b as usize], b);
                self.adj[a as usize].insert(key, ());
            }
            self.contracted.move_support(e, None, self.bucket_of(e));
            touched.insert(e.u);
            touched.insert(e.v);
        }

        // --- Step 2a: recompute heads of heavy touched vertices; seed the
        //     reverse search with every endpoint. ---
        let mut seeds: Vec<V> = touched.iter().copied().collect();
        let mut pending: Vec<(V, V, V)> = Vec::new(); // (v, new_head, new_par)
        let mut pending_set: FxHashSet<V> = FxHashSet::default();
        for &w in &touched {
            if self.heavy(w) {
                let (nh, np) = self.compute_head_heavy(w);
                self.head_recomputes += 1;
                if nh != self.head[w as usize] || np != self.par[w as usize] {
                    pending.push((w, nh, np));
                    pending_set.insert(w);
                }
            }
        }
        // Apply heavy head changes immediately: light BFS reads them.
        for &(w, nh, np) in &pending {
            self.apply_head_change(w, nh, np);
        }

        // --- Step 2b: LightNeedRecomputation (Algorithm 6): reverse BFS
        //     of radius θ from the seeds, branching through light
        //     vertices; collect light vertices to recompute. ---
        let mut light_set: FxHashSet<V> = FxHashSet::default();
        let mut visited: FxHashSet<V> = seeds.iter().copied().collect();
        for &s in &seeds {
            if !self.heavy(s) {
                light_set.insert(s);
            }
        }
        let mut frontier: Vec<V> = std::mem::take(&mut seeds);
        let mut level = 0;
        while !frontier.is_empty() && level < self.theta {
            let mut next = Vec::new();
            for &w in &frontier {
                // Branch outward only through vertices that light BFS can
                // traverse (light), plus the seeds themselves.
                if self.heavy(w) && level > 0 {
                    continue;
                }
                for (key, _) in self.adj[w as usize].iter() {
                    let xn = key.2;
                    if !visited.insert(xn) {
                        continue;
                    }
                    if !self.heavy(xn) {
                        light_set.insert(xn);
                    }
                    next.push(xn);
                }
            }
            level += 1;
            frontier = next;
        }

        // --- Step 2c: recompute light heads; apply diffs sequentially. ---
        let mut lights: Vec<V> = light_set.into_iter().collect();
        lights.sort_unstable();
        for w in lights {
            let (nh, np) = self.compute_head_light(w);
            self.head_recomputes += 1;
            if nh != self.head[w as usize] || np != self.par[w as usize] {
                self.apply_head_change(w, nh, np);
            }
        }

        // --- Step 3: forest insertions for new ⊥-⊥ edges not added by
        //     the flip handlers. ---
        for &e in &batch.insertions {
            if self.edges.contains(&e)
                && self.is_bot(e.u)
                && self.is_bot(e.v)
                && !self.forest.contains_edge(e.u, e.v)
            {
                let d = self.forest.insert_edge(e.u, e.v);
                self.apply_forest_delta(d);
            }
        }

        // --- Step 4: contracted-graph updates into the Theorem 1.3
        //     instance (one mixed batch: the tower nets its own delta),
        //     then its spanner's representatives into the final set. ---
        let (mut next, mut rep_events) = (UpdateBatch::default(), Vec::new());
        self.contracted.finish(&mut next, &mut rep_events);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.gprime.apply_into(&next, &mut scratch);
        let (index, out) = (&self.contracted, &mut self.final_set);
        self.chain.apply(index, &rep_events, &scratch, out);
        // H1 delta into the final set (reusing the same scratch buffer).
        self.h1.take_delta_into(&mut scratch);
        for &e in scratch.deleted() {
            self.final_set.remove(e);
        }
        for &e in scratch.inserted() {
            self.final_set.add(e);
        }
        self.scratch = scratch;
    }

    fn apply_forest_delta(&mut self, d: bds_dstruct::ForestDelta) {
        for (a, b) in d.removed {
            self.final_set.remove(Edge::new(a, b));
        }
        for (a, b) in d.added {
            self.final_set.add(Edge::new(a, b));
        }
    }

    /// Switch v's (head, par), updating H1, the ⊥-forest, and the buckets
    /// of every incident edge.
    fn apply_head_change(&mut self, v: V, new_head: V, new_par: V) {
        let old_head = self.head[v as usize];
        let old_par = self.par[v as usize];
        // H1 edge swap.
        if old_par != NO_PAR {
            self.h1.remove(Edge::new(old_par, v));
        }
        if new_par != NO_PAR {
            self.h1.add(Edge::new(new_par, v));
        }
        // Bucket retags (only the v-side head flips).
        if new_head != old_head {
            let neighbors: Vec<V> = self.adj[v as usize].iter().map(|(k, _)| k.2).collect();
            for xn in neighbors {
                let hx = self.head[xn as usize];
                let from = ContractedEdges::key(old_head, hx);
                let to = ContractedEdges::key(new_head, hx);
                self.contracted.move_support(Edge::new(v, xn), from, to);
            }
            // ⊥ transitions.
            if old_head == NO_HEAD {
                // Leaving ⊥: its ⊥-incident edges leave the forest graph.
                let neighbors: Vec<V> = self.adj[v as usize].iter().map(|(k, _)| k.2).collect();
                for xn in neighbors {
                    if self.forest.contains_edge(v, xn) {
                        let d = self.forest.delete_edge(v, xn);
                        self.apply_forest_delta(d);
                    }
                }
            }
            self.head[v as usize] = new_head;
            if new_head == NO_HEAD {
                // Entering ⊥: join with currently-⊥ neighbors.
                let neighbors: Vec<V> = self.adj[v as usize].iter().map(|(k, _)| k.2).collect();
                for xn in neighbors {
                    if self.is_bot(xn) && !self.forest.contains_edge(v, xn) {
                        let d = self.forest.insert_edge(v, xn);
                        self.apply_forest_delta(d);
                    }
                }
            }
        }
        self.par[v as usize] = new_par;
    }

    /// Test oracle: recompute heads/pars/buckets/forest membership and the
    /// final composition from scratch; check cluster SPT connectivity.
    pub fn validate(&self) {
        // Heads and pars are a deterministic function of the state.
        for v in 0..self.n as V {
            let (wh, wp) = if self.heavy(v) {
                self.compute_head_heavy(v)
            } else {
                self.compute_head_light(v)
            };
            assert_eq!(self.head[v as usize], wh, "head mismatch at {v}");
            // `par` may differ among equally valid first hops only if the
            // BFS is nondeterministic — ours is deterministic, so:
            assert_eq!(self.par[v as usize], wp, "par mismatch at {v}");
        }
        self.contracted
            .validate(self.edges.iter().copied(), &self.head);
        // H1 = {(par(v), v)}.
        let mut want_h1 = SpannerSet::new();
        for v in 0..self.n as V {
            if self.par[v as usize] != NO_PAR {
                want_h1.add(Edge::new(self.par[v as usize], v));
            }
        }
        let mut got = self.h1.edges();
        let mut exp = want_h1.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "H1 diverged");
        // H1 edges stay within their cluster and walk toward the center.
        for v in 0..self.n as V {
            let p = self.par[v as usize];
            if p != NO_PAR {
                assert_eq!(
                    self.head[p as usize], self.head[v as usize],
                    "par edge ({p},{v}) crosses clusters"
                );
                assert!(self.edges.contains(&Edge::new(p, v)), "dead par edge");
            }
        }
        // Forest graph = ⊥-induced subgraph; forest edges span it.
        let bot_edges: Vec<Edge> = self
            .edges
            .iter()
            .copied()
            .filter(|e| self.is_bot(e.u) && self.is_bot(e.v))
            .collect();
        assert_eq!(
            self.forest.num_edges(),
            bot_edges.len(),
            "forest graph diverged"
        );
        let mut uf_all = bds_graph::UnionFind::new(self.n);
        for e in &bot_edges {
            uf_all.union(e.u, e.v);
        }
        let mut uf_forest = bds_graph::UnionFind::new(self.n);
        for (a, b) in self.forest.forest_edges() {
            assert!(uf_forest.union(a, b), "cycle in H2");
        }
        for e in &bot_edges {
            assert!(uf_forest.same(e.u, e.v), "H2 fails to span ⊥ component");
        }
        // gprime graph = bucket keys.
        let mut want_g = self.contracted.keys();
        let mut got_g = self.gprime.live_edges();
        want_g.sort_unstable();
        got_g.sort_unstable();
        assert_eq!(want_g, got_g, "contracted graph diverged");
        self.gprime.validate();
        // Final composition: H1 ∪ H2 ∪ the reps of gprime's spanner.
        let h2 = self.forest.forest_edges().into_iter();
        let h1_h2 = self
            .h1
            .edges()
            .into_iter()
            .chain(h2.map(|(a, b)| Edge::new(a, b)));
        let upstairs = self.gprime.spanner_edges();
        self.chain
            .validate(&self.contracted, &upstairs, h1_h2, &self.final_set);
    }
}

impl BatchDynamic for UltraSparseSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.edges.len()
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        self.final_set.output_into(out);
    }

    /// `cluster_changes` counts head recomputations; the inner Theorem
    /// 1.3 tower contributes the remaining work counters.
    fn stats(&self) -> BatchStats {
        let mut s = BatchDynamic::stats(&self.gprime);
        s.cluster_changes += self.head_recomputes;
        s.recourse = self.recourse;
        s
    }
}

impl Decremental for UltraSparseSpanner {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.apply_into(&UpdateBatch::delete_only(deletions.to_vec()), out);
    }
}

impl FullyDynamic for UltraSparseSpanner {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.apply_into(&UpdateBatch::insert_only(insertions.to_vec()), out);
    }

    /// Apply one batch of edge updates, writing the exact spanner delta
    /// into `out`.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.process_inner(batch);
        self.final_set.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_validates_and_spans() {
        let n = 150;
        let edges = gen::gnm_connected(n, 700, 3);
        let s = UltraSparseSpanner::new(n, &edges, UltraParams { x: 2 }, 7);
        s.validate();
        let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 5);
        assert!(st.is_finite(), "ultra spanner disconnected");
    }

    #[test]
    fn size_is_near_linear() {
        // n + O(n/x): H1 ∪ H2 is a forest-like set ≤ n; the contracted
        // spanner contributes the o(n) tail.
        let n = 800;
        let edges = gen::gnm_connected(n, 6 * n, 5);
        for x in [2u32, 3] {
            let s = UltraSparseSpanner::new(n, &edges, UltraParams { x }, 11 + x as u64);
            let size = s.spanner_size();
            // The O(n/x) tail's constant is empirical; 14 holds with slack
            // across seeds of the vendored RNG (typical draws: 11–12).
            assert!(
                size <= n + 14 * n / x as usize + 50,
                "x={x}: size {size} vs n={n}"
            );
            assert!(s.h1_size() + s.h2_size() <= n, "forest part exceeds n");
        }
    }

    #[test]
    fn mixed_updates_validate_and_replay() {
        let n = 80;
        let init = gen::gnm_connected(n, 300, 13);
        let mut s = UltraSparseSpanner::new(n, &init, UltraParams { x: 2 }, 17);
        let mut stream = UpdateStream::new(n, &init, 19);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for round in 0..20 {
            let b = stream.next_batch(5, 4);
            s.apply_into(&b, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            let st = edge_stretch(n, stream.live_edges(), &s.spanner_edges(), 30, 3);
            assert!(st.is_finite(), "round {round}: disconnected");
        }
    }

    #[test]
    fn delete_to_empty() {
        let n = 50;
        let edges = gen::gnm(n, 150, 23);
        let mut s = UltraSparseSpanner::new(n, &edges, UltraParams { x: 2 }, 29);
        let mut live = edges;
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        while !live.is_empty() {
            let k = rng.gen_range(1..=8.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            s.delete_into(&batch, &mut d);
            s.validate();
        }
        assert_eq!(s.spanner_size(), 0);
    }

    #[test]
    fn sparse_light_graph_goes_bot() {
        // A tiny path component is entirely light and unsampled for most
        // seeds: its vertices must map to ⊥ and H2 must span it.
        let n = 30;
        let mut edges: Vec<Edge> = (0..4).map(|i| Edge::new(i, i + 1)).collect();
        edges.extend(
            gen::gnm_connected(20, 60, 3)
                .into_iter()
                .map(|e| Edge::new(e.u + 10, e.v + 10)),
        );
        let s = UltraSparseSpanner::new(n, &edges, UltraParams { x: 2 }, 41);
        s.validate();
        let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 5);
        assert!(st.is_finite());
    }
}
