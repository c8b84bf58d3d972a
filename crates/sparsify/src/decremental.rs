//! **Lemma 6.6** — decremental (1±ε) spectral sparsifier.
//!
//! The Light-Spectral-Sparsify chain (Algorithms 9/10): level i maintains
//! a decremental t-bundle B_i over G_i (Theorem 1.5); each residual edge
//! of G_i \ B_i is kept in G_{i+1} with probability ¼ (a deterministic
//! per-(level, edge) coin, so replay is exact) at 4× the weight. The
//! chain stops when a level holds ≤ `threshold` edges; that terminal
//! residual is kept wholesale. The sparsifier is the disjoint union
//! ∪ 4^i·B_i ∪ 4^k·G_k.
//!
//! Deletions cascade: a batch on G_i removes graph-deleted edges and
//! bundle promotions from G_{i+1} (monotonicity guarantees the residual
//! never *gains* edges, which is why the chain stays decremental). When a
//! level's edge count sinks below the threshold the chain is truncated
//! there, exactly as the paper prescribes ("we destroy the data structure
//! and reduce k accordingly").

use crate::weighted_set::WeightedSet;
use bds_bundle::BundleSpanner;
use bds_dstruct::fx::mix64;
use bds_dstruct::{EdgeTable, FxHashSet};
use bds_graph::api::{
    default_copies, validate_beta, validate_copies, validate_edges, AuxTag, BatchDynamic,
    BatchStats, ConfigError, Decremental, DeltaBuf,
};
use bds_graph::types::Edge;

/// Decremental (1±ε) spectral sparsifier (Lemma 6.6).
pub struct DecrementalSparsifier {
    n: usize,
    t: u32,
    threshold: usize,
    seed: u64,
    /// B_0 … B_{k−1}.
    levels: Vec<BundleSpanner>,
    /// G_k: terminal residual kept wholesale (packed-key edge set).
    terminal: EdgeTable,
    sparsifier: WeightedSet,
    recourse: u64,
    /// Work counters of the bundle levels truncation has destroyed, so
    /// the cumulative statistics never go backwards.
    retired: BatchStats,
    /// Reusable buffer for per-level bundle deltas.
    level_scratch: DeltaBuf,
}

/// Typed builder for [`DecrementalSparsifier`] (Lemma 6.6).
#[derive(Debug, Clone)]
pub struct DecrementalSparsifierBuilder {
    n: usize,
    t: u32,
    copies: Option<usize>,
    beta: f64,
    threshold: Option<usize>,
    seed: u64,
}

impl DecrementalSparsifierBuilder {
    /// Bundle depth t per level (quality knob: larger t → smaller ε;
    /// default 2).
    pub fn depth(mut self, t: u32) -> Self {
        self.t = t;
        self
    }

    /// Clustering copies per bundle level (default ≈ 2·log₂ n + 2).
    pub fn copies(mut self, copies: usize) -> Self {
        self.copies = Some(copies);
        self
    }

    /// Exponential shift rate β (default 0.25).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Terminal size cut-off (default 4·log₂ n).
    pub fn threshold(mut self, threshold: usize) -> Self {
        self.threshold = Some(threshold);
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<DecrementalSparsifier, ConfigError> {
        if self.n < 1 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 1 });
        }
        if self.t < 1 {
            return Err(ConfigError::InvalidParam {
                name: "depth",
                reason: "the bundle depth t must be ≥ 1",
            });
        }
        validate_beta(self.beta)?;
        validate_edges(self.n, edges)?;
        let logn = (usize::BITS - self.n.max(2).leading_zeros()) as usize;
        let copies = self.copies.unwrap_or_else(|| default_copies(self.n));
        validate_copies(copies)?;
        let threshold = self.threshold.unwrap_or(4 * logn);
        Ok(DecrementalSparsifier::with_params(
            self.n, edges, self.t, copies, self.beta, threshold, self.seed,
        ))
    }
}

impl DecrementalSparsifier {
    /// Typed builder: `DecrementalSparsifier::builder(n).depth(t)
    /// .seed(s).build(&edges)`.
    pub fn builder(n: usize) -> DecrementalSparsifierBuilder {
        DecrementalSparsifierBuilder {
            n,
            t: 2,
            copies: None,
            beta: 0.25,
            threshold: None,
            seed: 0x5eed,
        }
    }
    /// `t` = bundle depth per level (quality knob: larger t → smaller ε),
    /// `copies`/`beta` = monotone-spanner parameters per bundle level,
    /// `threshold` = terminal size cut-off (paper: O(log n)).
    pub fn with_params(
        n: usize,
        edges: &[Edge],
        t: u32,
        copies: usize,
        beta: f64,
        threshold: usize,
        seed: u64,
    ) -> Self {
        let mut this = Self {
            n,
            t,
            threshold: threshold.max(1),
            seed,
            levels: Vec::new(),
            terminal: EdgeTable::new(),
            sparsifier: WeightedSet::new(),
            recourse: 0,
            retired: BatchStats::default(),
            level_scratch: DeltaBuf::new(),
        };
        let mut gi: Vec<Edge> = edges.to_vec();
        let mut i = 0u32;
        // ⌈log₄ m⌉ levels suffice; the threshold usually stops earlier.
        while gi.len() > this.threshold && i < 40 {
            let b = BundleSpanner::with_params(
                n,
                &gi,
                t,
                copies,
                beta,
                seed ^ (0xb0b0 + i as u64 * 65_537),
            );
            let w = 4f64.powi(i as i32);
            for e in b.bundle_edges() {
                this.sparsifier.insert(e, w);
            }
            gi = b
                .residual_edges()
                .into_iter()
                .filter(|e| this.coin(i + 1, *e))
                .collect();
            this.levels.push(b);
            i += 1;
        }
        let w = 4f64.powi(i as i32);
        for &e in &gi {
            this.sparsifier.insert(e, w);
        }
        this.terminal = gi.into_iter().map(|e| (e.u, e.v, 0)).collect();
        this.sparsifier.take_delta_into(&mut DeltaBuf::new());
        this
    }

    /// Paper-flavoured defaults: copies ≈ 2 log₂ n, β = 0.25,
    /// threshold = 4·log₂ n.
    pub fn new(n: usize, edges: &[Edge], t: u32, seed: u64) -> Self {
        let logn = (usize::BITS - n.max(2).leading_zeros()) as usize;
        Self::with_params(n, edges, t, default_copies(n), 0.25, 4 * logn, seed)
    }

    /// Deterministic ¼ coin for membership of `e` in G_{level}.
    fn coin(&self, level: u32, e: Edge) -> bool {
        mix64(self.seed ^ (level as u64) << 48 ^ e.key()) & 3 == 0
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    pub fn t(&self) -> u32 {
        self.t
    }

    /// Number of live edges of the input graph G₀.
    pub fn num_live_edges(&self) -> usize {
        if let Some(b) = self.levels.first() {
            b.num_live_edges()
        } else {
            self.terminal.len()
        }
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        if let Some(b) = self.levels.first() {
            b.contains_edge(e)
        } else {
            self.terminal.contains(e.u, e.v)
        }
    }

    /// All live edges of G₀ (used by the fully-dynamic wrapper rebuilds).
    pub fn live_edges(&self) -> Vec<Edge> {
        if let Some(b) = self.levels.first() {
            let mut out = b.bundle_edges();
            out.extend(b.residual_edges());
            out
        } else {
            self.terminal
                .iter()
                .map(|(u, v, _)| Edge { u, v })
                .collect()
        }
    }

    /// The weighted sparsifier edges.
    pub fn sparsifier_edges(&self) -> Vec<(Edge, f64)> {
        self.sparsifier.edges()
    }

    pub fn sparsifier_size(&self) -> usize {
        self.sparsifier.len()
    }

    fn delete_inner(&mut self, batch: &[Edge]) {
        let mut xi: Vec<Edge> = batch.to_vec();
        // A promotion at level i may still be owned by a *deeper* level
        // (terminal or a deeper bundle) until the cascade reaches it, so
        // promotion inserts are deferred past the cascade.
        let mut promoted: Vec<(Edge, f64)> = Vec::new();
        let mut scratch = std::mem::take(&mut self.level_scratch);
        for i in 0..self.levels.len() {
            if xi.is_empty() {
                break;
            }
            let w = 4f64.powi(i as i32);
            self.levels[i].delete_into(&xi, &mut scratch);
            for &e in scratch.deleted() {
                self.sparsifier.remove(e);
            }
            for &e in scratch.inserted() {
                promoted.push((e, w));
            }
            // Cascade: residual leavers that were sampled into G_{i+1}.
            xi.clear();
            for e in scratch.aux_edges(AuxTag::ResidualDeleted) {
                if self.coin(i as u32 + 1, e) {
                    xi.push(e);
                }
            }
        }
        self.level_scratch = scratch;
        // Terminal level.
        let wk = 4f64.powi(self.levels.len() as i32);
        for e in xi {
            assert!(
                self.terminal.remove(e.u, e.v).is_some(),
                "cascaded edge {e:?} missing from terminal"
            );
            let w = self.sparsifier.remove(e);
            debug_assert_eq!(w, wk);
        }
        for (e, w) in promoted {
            self.sparsifier.insert(e, w);
        }
        self.truncate_if_small();
    }

    /// Truncate the chain at the first level that sank to ≤ threshold
    /// edges (the paper's "reduce k accordingly").
    fn truncate_if_small(&mut self) {
        let Some(cut) =
            (0..self.levels.len()).find(|&i| self.levels[i].num_live_edges() <= self.threshold)
        else {
            return;
        };
        // Everything at levels ≥ cut leaves the sparsifier; level cut's
        // live edges become the new terminal at weight 4^cut.
        let new_terminal: Vec<Edge> = {
            let b = &self.levels[cut];
            let mut v = b.bundle_edges();
            v.extend(b.residual_edges());
            v
        };
        for i in cut..self.levels.len() {
            for e in self.levels[i].bundle_edges() {
                self.sparsifier.remove(e);
            }
        }
        for (u, v, _) in self.terminal.drain() {
            self.sparsifier.remove(Edge { u, v });
        }
        for b in &self.levels[cut..] {
            self.retired += BatchDynamic::stats(b);
        }
        self.levels.truncate(cut);
        let w = 4f64.powi(cut as i32);
        for &e in &new_terminal {
            self.sparsifier.insert(e, w);
        }
        self.terminal = new_terminal.into_iter().map(|e| (e.u, e.v, 0)).collect();
    }

    /// Test oracle: level consistency, coin-replay of the sampling chain,
    /// and sparsifier composition.
    pub fn validate(&self) {
        for (i, b) in self.levels.iter().enumerate() {
            b.validate();
            // G_{i+1} = sampled residual of G_i.
            let next_edges: FxHashSet<Edge> = if i + 1 < self.levels.len() {
                let nb = &self.levels[i + 1];
                let mut v: FxHashSet<Edge> = nb.bundle_edges().into_iter().collect();
                v.extend(nb.residual_edges());
                v
            } else {
                self.terminal
                    .iter()
                    .map(|(u, v, _)| Edge { u, v })
                    .collect()
            };
            for e in b.residual_edges() {
                let want = self.coin(i as u32 + 1, e);
                // Presence may be *false* even for sampled edges only if
                // the edge was never sampled at init — impossible here
                // since membership is maintained exactly; so equality.
                assert_eq!(
                    next_edges.contains(&e),
                    want,
                    "sampling mismatch at level {i} for {e:?}"
                );
            }
            for &e in &next_edges {
                assert!(
                    b.contains_edge(e) && !b.in_bundle(e),
                    "level {} edge {e:?} not residual at level {i}",
                    i + 1
                );
            }
        }
        // Sparsifier = disjoint union of weighted levels.
        let mut want = WeightedSet::new();
        for (i, b) in self.levels.iter().enumerate() {
            let w = 4f64.powi(i as i32);
            for e in b.bundle_edges() {
                want.insert(e, w);
            }
        }
        let wk = 4f64.powi(self.levels.len() as i32);
        for (u, v, _) in self.terminal.iter() {
            want.insert(Edge { u, v }, wk);
        }
        let mut got = self.sparsifier.edges();
        let mut exp = want.edges();
        got.sort_by_key(|x| x.0);
        exp.sort_by_key(|x| x.0);
        assert_eq!(got, exp, "sparsifier composition diverged");
    }
}

impl BatchDynamic for DecrementalSparsifier {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        DecrementalSparsifier::num_live_edges(self)
    }

    /// The maintained output set: the weighted sparsifier ∪ 4^i·B_i ∪
    /// 4^k·G_k (weight lane populated).
    fn output_into(&self, out: &mut DeltaBuf) {
        self.sparsifier.output_into(out);
    }

    /// The work counters of every bundle level built so far (live and
    /// destroyed by truncation, so no counter ever decreases) plus the
    /// chain-level recourse.
    fn stats(&self) -> BatchStats {
        let mut s = self.retired;
        for b in &self.levels {
            s += BatchDynamic::stats(b);
        }
        s.recourse = self.recourse;
        s
    }
}

impl Decremental for DecrementalSparsifier {
    /// Delete a batch of live G₀ edges, writing the weighted delta into
    /// `out` (weight lane populated).
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.delete_inner(deletions);
        self.sparsifier.take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::cuts::sparsifier_error;
    use bds_graph::gen;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn init_validates_and_weights_compose() {
        let n = 80;
        let edges = gen::gnm_connected(n, 500, 3);
        let s = DecrementalSparsifier::with_params(n, &edges, 2, 5, 0.3, 20, 7);
        s.validate();
        assert!(s.num_levels() >= 1);
        assert!(s.sparsifier_size() <= edges.len());
    }

    #[test]
    fn quality_improves_with_t() {
        // The (1±ε) trend: deeper bundles → smaller error. We check the
        // coarse monotonicity on one graph (averaging over seeds would be
        // tighter; the tables binary does that).
        let n = 120;
        let edges = gen::gnm_connected(n, 1500, 11);
        let err_t = |t: u32| {
            let s = DecrementalSparsifier::with_params(n, &edges, t, 6, 0.3, 16, 13);
            sparsifier_error(n, &edges, &s.sparsifier_edges(), 40, 17)
        };
        let e1 = err_t(1);
        let e4 = err_t(4);
        assert!(
            e4 <= e1 * 1.25 + 0.05,
            "error should not grow with t: t=1 → {e1}, t=4 → {e4}"
        );
    }

    #[test]
    fn deletions_cascade_and_validate() {
        let n = 60;
        let edges = gen::gnm_connected(n, 400, 19);
        let mut s = DecrementalSparsifier::with_params(n, &edges, 2, 5, 0.3, 12, 23);
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(29);
        live.shuffle(&mut rng);
        let mut shadow: Vec<(Edge, f64)> = s.sparsifier_edges();
        let mut d = DeltaBuf::new();
        while live.len() > 40 {
            let k = rng.gen_range(1..=20.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            s.delete_into(&batch, &mut d);
            for (e, w) in d.deleted_weighted() {
                let pos = shadow
                    .iter()
                    .position(|&(se, sw)| se == e && sw == w)
                    .unwrap_or_else(|| panic!("deleted ({e:?},{w}) not in shadow"));
                shadow.swap_remove(pos);
            }
            shadow.extend(d.inserted_weighted());
            s.validate();
            let mut got = s.sparsifier_edges();
            got.sort_by_key(|x| x.0);
            shadow.sort_by_key(|x| x.0);
            assert_eq!(got, shadow, "weighted delta replay diverged");
        }
        assert_eq!(s.num_live_edges(), live.len());
    }

    #[test]
    fn delete_to_empty_truncates_chain() {
        let n = 40;
        let edges = gen::gnm_connected(n, 250, 31);
        let mut s = DecrementalSparsifier::with_params(n, &edges, 2, 4, 0.3, 10, 37);
        let mut live = edges;
        let mut rng = StdRng::seed_from_u64(41);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        let mut prev = BatchDynamic::stats(&s);
        while !live.is_empty() {
            let k = rng.gen_range(1..=15.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            s.delete_into(&batch, &mut d);
            s.validate();
            // Truncation must keep the destroyed levels' work counters.
            let now = BatchDynamic::stats(&s);
            assert!(
                now.scan_steps >= prev.scan_steps && now.vertices_touched >= prev.vertices_touched,
                "stats went backwards: {prev:?} -> {now:?}"
            );
            prev = now;
        }
        assert_eq!(s.sparsifier_size(), 0);
        assert_eq!(s.num_levels(), 0);
    }

    #[test]
    fn weights_are_powers_of_four() {
        let n = 60;
        let edges = gen::gnm_connected(n, 600, 43);
        let s = DecrementalSparsifier::with_params(n, &edges, 1, 4, 0.3, 8, 47);
        for (_, w) in s.sparsifier_edges() {
            let l = w.log2() / 2.0;
            assert!((l - l.round()).abs() < 1e-9, "weight {w} not a power of 4");
        }
    }
}
