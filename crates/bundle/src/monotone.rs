//! **Lemma 6.4** — decremental O(log n)-spanner with monotone recourse.
//!
//! Algorithm 8 of the paper: run O(log n) independent copies of the
//! \[MPX13\] exponential-shift clustering with a *constant* β chosen so
//! that each edge is intra-cluster with probability ≥ ½ per copy
//! (Lemma 6.5), and take the union of the cluster spanning forests. Each
//! copy is exactly the shifted-graph Even–Shiloach construction of §3.3,
//! with two simplifications the paper points out: no inter-cluster edges,
//! and static per-vertex priorities (the random permutation only orders
//! each in-list; no cluster labels are maintained).

use bds_core::SpannerSet;
use bds_estree::{EsTree, ShiftedGraph, NO_VERTEX};
use bds_graph::api::{
    default_copies, validate_beta, validate_copies, validate_edges, BatchDynamic, BatchStats,
    ConfigError, Decremental, DeltaBuf,
};
use bds_graph::types::{Edge, V};

/// Default β: empirically ≤ ½ edge-cut probability (experiment E11 of
/// `bds_bench`'s `tables` binary sweeps this and prints the measured
/// cut rates).
pub const DEFAULT_BETA: f64 = 0.25;

struct Instance {
    sg: ShiftedGraph,
    es: EsTree,
}

impl Instance {
    /// Tree edges between original vertices.
    fn forest_edges(&self, n: usize) -> Vec<Edge> {
        (0..n as V)
            .filter_map(|v| {
                let p = self.es.parent(v)?;
                (!self.sg.is_p(p)).then(|| Edge::new(p, v))
            })
            .collect()
    }
}

/// Decremental monotone O(log n)-spanner (Lemma 6.4).
pub struct MonotoneSpanner {
    n: usize,
    instances: Vec<Instance>,
    spanner: SpannerSet,
    num_edges: usize,
    recourse: u64,
}

/// Typed builder for [`MonotoneSpanner`] (Lemma 6.4).
#[derive(Debug, Clone)]
pub struct MonotoneSpannerBuilder {
    n: usize,
    copies: Option<usize>,
    beta: f64,
    seed: u64,
}

impl MonotoneSpannerBuilder {
    /// Number of independent clustering copies (default ≈ 2·log₂ n + 2).
    pub fn copies(mut self, copies: usize) -> Self {
        self.copies = Some(copies);
        self
    }

    /// Exponential shift rate β (default [`DEFAULT_BETA`]).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<MonotoneSpanner, ConfigError> {
        if self.n < 1 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 1 });
        }
        let copies = self.copies.unwrap_or_else(|| default_copies(self.n));
        validate_copies(copies)?;
        validate_beta(self.beta)?;
        validate_edges(self.n, edges)?;
        Ok(MonotoneSpanner::with_params(
            self.n, edges, copies, self.beta, self.seed,
        ))
    }
}

impl MonotoneSpanner {
    /// Typed builder: `MonotoneSpanner::builder(n).copies(c).beta(b)
    /// .seed(s).build(&edges)`.
    pub fn builder(n: usize) -> MonotoneSpannerBuilder {
        MonotoneSpannerBuilder {
            n,
            copies: None,
            beta: DEFAULT_BETA,
            seed: 0x5eed,
        }
    }
    /// `copies` clustering instances (≈ 2·log₂ n for the w.h.p. coverage
    /// bound), shift rate `beta`.
    pub fn with_params(n: usize, edges: &[Edge], copies: usize, beta: f64, seed: u64) -> Self {
        assert!(n >= 1 && copies >= 1);
        let ids: Vec<u64> = (0..copies as u64).collect();
        let instances: Vec<Instance> = bds_par::par_map_grain(&ids, 1, |&i| {
            let sg = ShiftedGraph::sample(n, beta, None, seed ^ (0xabcd + i * 7919));
            let es = EsTree::new(
                sg.total_vertices(),
                sg.source(),
                sg.t,
                &sg.static_edges(edges),
            );
            Instance { sg, es }
        });
        let mut spanner = SpannerSet::new();
        for inst in &instances {
            for e in inst.forest_edges(n) {
                spanner.add(e);
            }
        }
        spanner.take_delta_into(&mut DeltaBuf::new());
        Self {
            n,
            instances,
            spanner,
            num_edges: edges.len(),
            recourse: 0,
        }
    }

    /// Default parameterization: 2·log₂ n + 2 copies, β = 0.25.
    pub fn new(n: usize, edges: &[Edge], seed: u64) -> Self {
        Self::with_params(n, edges, default_copies(n), DEFAULT_BETA, seed)
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn copies(&self) -> usize {
        self.instances.len()
    }

    pub fn num_live_edges(&self) -> usize {
        self.num_edges
    }

    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.spanner.edges()
    }

    pub fn spanner_size(&self) -> usize {
        self.spanner.len()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.instances[0].es.has_edge(e.u, e.v)
    }

    fn delete_inner(&mut self, batch: &[Edge]) {
        let n = self.n;
        let dirs: Vec<(V, V)> = batch
            .iter()
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
            .collect();
        let mut change_sets: Vec<(&mut Instance, Vec<(Edge, bool)>)> =
            self.instances.iter_mut().map(|i| (i, Vec::new())).collect();
        bds_par::par_for_each_task(&mut change_sets, |(inst, out)| {
            let (changes, _stats) = inst.es.delete_batch(&dirs);
            out.reserve(changes.len() * 2);
            for c in changes {
                if c.vertex as usize >= n {
                    continue; // p-node bookkeeping (never happens)
                }
                if c.old_parent != NO_VERTEX && !inst.sg.is_p(c.old_parent) {
                    out.push((Edge::new(c.old_parent, c.vertex), false));
                }
                if c.new_parent != NO_VERTEX && !inst.sg.is_p(c.new_parent) {
                    out.push((Edge::new(c.new_parent, c.vertex), true));
                }
            }
        });
        for (_, set) in change_sets {
            for (e, add) in set {
                if add {
                    self.spanner.add(e);
                } else {
                    self.spanner.remove(e);
                }
            }
        }
        self.num_edges -= batch.len();
    }

    /// Test oracle: per-instance ES validation plus spanner composition.
    pub fn validate(&self) {
        for inst in &self.instances {
            inst.es.validate();
        }
        let mut want = SpannerSet::new();
        for inst in &self.instances {
            for e in inst.forest_edges(self.n) {
                want.add(e);
            }
        }
        let mut got = self.spanner.edges();
        let mut exp = want.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "monotone spanner diverged");
    }

    /// Fraction of live edges that are inter-cluster in instance 0 — the
    /// Lemma 6.5 quantity (experiment E11).
    pub fn cut_fraction(&self, edges: &[Edge]) -> f64 {
        if edges.is_empty() {
            return 0.0;
        }
        let inst = &self.instances[0];
        // Cluster of v = root of its parent chain below the p-nodes.
        let mut cluster = vec![NO_VERTEX; self.n];
        let mut order: Vec<V> = (0..self.n as V).collect();
        order.sort_unstable_by_key(|&v| inst.es.dist(v));
        for v in order {
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let p = inst.es.parent(v).expect("clustered");
            cluster[v as usize] = if inst.sg.is_p(p) {
                v
            } else {
                cluster[p as usize]
            };
        }
        let cut = edges
            .iter()
            .filter(|e| cluster[e.u as usize] != cluster[e.v as usize])
            .count();
        cut as f64 / edges.len() as f64
    }
}

impl BatchDynamic for MonotoneSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.num_edges
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        self.spanner.output_into(out);
    }

    /// Aggregates the per-copy Even–Shiloach work counters; `recourse`
    /// counts this structure's own spanner delta.
    fn stats(&self) -> BatchStats {
        let mut s = BatchStats::default();
        for inst in &self.instances {
            s += inst.es.stats();
        }
        s.recourse = self.recourse;
        s
    }
}

impl Decremental for MonotoneSpanner {
    /// Delete a batch of edges; all instances process it in parallel
    /// (independent random copies — this is where the poly(log n) depth
    /// per batch comes from).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.spanner.take_delta_into(out);
        self.recourse += out.recourse() as u64;
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
    fn init_covers_graph_with_log_stretch() {
        let n = 150;
        let edges = gen::gnm_connected(n, 600, 3);
        let s = MonotoneSpanner::new(n, &edges, 42);
        s.validate();
        let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 7);
        // O(log n) stretch with generous constant (shift radius ≈ 10/β·ln n).
        assert!(st.is_finite(), "some edge uncovered");
        assert!(st < 40.0 * (n as f64).ln(), "stretch {st}");
        // Size O(n log n): copies × forest ≤ copies × n.
        assert!(s.spanner_size() <= s.copies() * n);
    }

    #[test]
    fn deletions_validate_and_replay() {
        let n = 60;
        let edges = gen::gnm_connected(n, 200, 5);
        let mut s = MonotoneSpanner::with_params(n, &edges, 6, 0.3, 17);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(23);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        while live.len() > 40 {
            let b = rng.gen_range(1..=15.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - b);
            s.delete_into(&batch, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
            let mut got: Vec<Edge> = shadow.iter().copied().collect();
            let mut want = s.spanner_edges();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "delta replay diverged");
        }
        assert_eq!(s.num_live_edges(), live.len());
    }

    #[test]
    fn cut_fraction_small_for_small_beta() {
        let n = 300;
        let edges = gen::gnm_connected(n, 1200, 9);
        let s = MonotoneSpanner::with_params(n, &edges, 1, 0.25, 31);
        let f = s.cut_fraction(&edges);
        assert!(f < 0.55, "cut fraction {f} too high for beta=0.25");
    }

    #[test]
    fn delete_everything() {
        let n = 40;
        let edges = gen::gnm(n, 100, 11);
        let mut s = MonotoneSpanner::with_params(n, &edges, 4, 0.3, 13);
        let mut d = DeltaBuf::new();
        for chunk in edges.chunks(9) {
            s.delete_into(chunk, &mut d);
            s.validate();
        }
        assert_eq!(s.spanner_size(), 0);
    }
}
