//! **Theorem 1.3** — the nested-contraction sparse spanner tower.
//!
//! L contraction levels (usually one at practical n; the schedule of
//! Lemma 4.3 generalizes) sit below a Theorem 1.1 instance with
//! k = ⌈log₂ |V_L|⌉. Updates flow *upward*: each level turns its batch
//! into net E_{i+1} updates plus H_i and representative deltas. Spanner
//! membership then flows *downward*: `Active_i = H_i ∪ rep_i(Active_{i+1})`
//! is maintained with refcounts and one [`RepChain`] per level recording
//! exactly which level-i edge currently stands in for each active
//! contracted edge — so every batch yields an exact level-0 (δH_ins,
//! δH_del) pair, the interface of Theorem 1.3.

use crate::contracted::RepChain;
use crate::level::{ContractLevel, LevelBatchResult};
use crate::schedule::{contraction_sequence, sparse_target};
use bds_core::{FullyDynamicSpanner, SpannerSet};
use bds_graph::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
};
use bds_graph::types::{Edge, UpdateBatch};

/// Batch-dynamic sparse spanner (Theorem 1.3).
pub struct SparseSpanner {
    n: usize,
    levels: Vec<ContractLevel>,
    top: FullyDynamicSpanner,
    /// Active_i for i = 0..=L (level L = the top spanner's edges).
    active: Vec<SpannerSet>,
    /// Per level i (< L): Active_{i+1}'s representatives in Active_i.
    chains: Vec<RepChain>,
    recourse: u64,
    /// Reusable buffer for the top instance's and each level's upward
    /// deltas.
    scratch: DeltaBuf,
}

/// Typed builder for [`SparseSpanner`] (Theorem 1.3).
#[derive(Debug, Clone)]
pub struct SparseSpannerBuilder {
    n: usize,
    rates: Option<Vec<f64>>,
    seed: u64,
}

impl SparseSpannerBuilder {
    /// Explicit contraction rates (default: the Lemma 4.3 schedule for
    /// the Θ(log n) target).
    pub fn rates(mut self, rates: &[f64]) -> Self {
        self.rates = Some(rates.to_vec());
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<SparseSpanner, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        let rates = self
            .rates
            .unwrap_or_else(|| contraction_sequence(sparse_target(self.n)));
        if rates.is_empty() {
            return Err(ConfigError::InvalidParam {
                name: "rates",
                reason: "at least one contraction rate is required",
            });
        }
        if rates.iter().any(|&x| !(x > 1.0 && x.is_finite())) {
            return Err(ConfigError::InvalidParam {
                name: "rates",
                reason: "every contraction rate must be finite and > 1",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(SparseSpanner::with_rates(self.n, edges, &rates, self.seed))
    }
}

impl SparseSpanner {
    /// Typed builder: `SparseSpanner::builder(n).seed(s).build(&edges)`.
    pub fn builder(n: usize) -> SparseSpannerBuilder {
        SparseSpannerBuilder {
            n,
            rates: None,
            seed: 0x5eed,
        }
    }
    /// Contraction rates from Lemma 4.3 with the Θ(log n) target and a
    /// top instance with k = ⌈log₂ |V_L|⌉.
    pub fn new(n: usize, edges: &[Edge], seed: u64) -> Self {
        Self::with_rates(n, edges, &contraction_sequence(sparse_target(n)), seed)
    }

    /// Explicit contraction rates (the ultra-sparse spanner passes the
    /// squared schedule here — the paper's white-box modification).
    pub fn with_rates(n: usize, edges: &[Edge], rates: &[f64], seed: u64) -> Self {
        assert!(!rates.is_empty());
        let mut levels: Vec<ContractLevel> = Vec::with_capacity(rates.len());
        let mut universe = vec![true; n];
        let mut cur_edges: Vec<Edge> = edges.to_vec();
        for (i, &x) in rates.iter().enumerate() {
            let lvl = ContractLevel::new(
                n,
                &universe,
                x,
                &cur_edges,
                seed ^ (0xc0ffee + i as u64 * 104_729),
            );
            universe = lvl.in_next.clone();
            cur_edges = lvl.contracted().keys();
            levels.push(lvl);
        }
        // bds:allow(no-unwrap): levels is nonempty by construction (the build loop always pushes).
        let top_n = levels.last().unwrap().next_vertex_count().max(2);
        let k_top = (top_n as f64).log2().ceil().max(1.0) as u32;
        let top = FullyDynamicSpanner::new(n, k_top, &cur_edges, seed ^ 0xf00d);

        // Assemble the initial Active chain, top down.
        let l = levels.len();
        let mut active: Vec<SpannerSet> = (0..=l).map(|_| SpannerSet::new()).collect();
        let mut chains: Vec<RepChain> = (0..l).map(|_| RepChain::default()).collect();
        for e in top.spanner_edges() {
            active[l].add(e);
        }
        let mut scratch = DeltaBuf::new();
        for i in (0..l).rev() {
            for e in levels[i].h_edges() {
                active[i].add(e);
            }
            active[i + 1].output_into(&mut scratch);
            chains[i].apply(levels[i].contracted(), &[], &scratch, &mut active[i]);
        }
        for a in &mut active {
            a.take_delta_into(&mut scratch);
        }
        Self {
            n,
            levels,
            top,
            active,
            chains,
            recourse: 0,
            scratch,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    pub fn num_live_edges(&self) -> usize {
        self.levels[0].num_edges()
    }

    pub fn live_edges(&self) -> Vec<Edge> {
        self.levels[0].live_edges()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.levels[0].contains_edge(e)
    }

    pub fn spanner_size(&self) -> usize {
        self.active[0].len()
    }

    /// Total head recomputations across levels (recourse statistic).
    pub fn head_changes(&self) -> u64 {
        self.levels.iter().map(|l| l.head_changes).sum()
    }

    fn process_inner(&mut self, batch: &UpdateBatch) {
        let l = self.levels.len();
        // --- Phase A: upward through the contraction levels. ---
        let mut results: Vec<LevelBatchResult> = Vec::with_capacity(l);
        for lvl in self.levels.iter_mut() {
            let mut r = LevelBatchResult::default();
            lvl.apply(results.last().map_or(batch, |below| &below.next), &mut r);
            results.push(r);
        }
        // --- Top instance (delta into the reusable scratch buffer). ---
        let mut scratch = std::mem::take(&mut self.scratch);
        self.top.apply_into(&results[l - 1].next, &mut scratch);
        for &e in scratch.deleted() {
            self.active[l].remove(e);
        }
        for &e in scratch.inserted() {
            self.active[l].add(e);
        }

        // --- Phase B: downward membership propagation. ---
        for i in (0..l).rev() {
            self.active[i + 1].take_delta_into(&mut scratch);
            let (index, r) = (self.levels[i].contracted(), &results[i]);
            self.chains[i].apply(index, &r.rep_events, &scratch, &mut self.active[i]);
            for &e in r.h_delta.deleted() {
                self.active[i].remove(e);
            }
            for &e in r.h_delta.inserted() {
                self.active[i].add(e);
            }
        }
        self.scratch = scratch;
    }

    /// The maintained sparse spanner (level-0 edges).
    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.active[0].edges()
    }

    /// Test oracle: per-level validation, the graph chain (each level's
    /// contracted edges are the next level's graph, the top instance's
    /// above the last), top validation, and the Active chain.
    pub fn validate(&self) {
        let l = self.levels.len();
        for (i, lvl) in self.levels.iter().enumerate() {
            lvl.validate();
            let above = self.levels.get(i + 1);
            let m = above.map_or(self.top.partition().len(), |a| a.num_edges());
            assert_eq!(m, lvl.contracted().len(), "graph chain broken above {i}");
            for e in lvl.contracted().keys() {
                let live = above.map_or(self.top.partition().contains(e), |a| a.contains_edge(e));
                assert!(live, "contracted edge {e:?} of level {i} missing above");
            }
        }
        self.top.validate();
        let (mut got, mut want) = (self.active[l].edges(), self.top.spanner_edges());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "Active_{l} is not the top spanner");
        for i in (0..l).rev() {
            let (lvl, upstairs) = (&self.levels[i], self.active[i + 1].edges());
            self.chains[i].validate(lvl.contracted(), &upstairs, lvl.h_edges(), &self.active[i]);
        }
    }
}

impl BatchDynamic for SparseSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        SparseSpanner::num_live_edges(self)
    }

    /// The maintained output set: the level-0 sparse spanner Active₀.
    fn output_into(&self, out: &mut DeltaBuf) {
        self.active[0].output_into(out);
    }

    /// `cluster_changes` counts contraction head recomputations; the
    /// remaining work counters come from the top Theorem 1.1 instance.
    fn stats(&self) -> BatchStats {
        let mut s = BatchDynamic::stats(&self.top);
        s.cluster_changes += self.head_changes();
        s.recourse = self.recourse;
        s
    }
}

impl Decremental for SparseSpanner {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.apply_into(&UpdateBatch::delete_only(deletions.to_vec()), out);
    }
}

impl FullyDynamic for SparseSpanner {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.apply_into(&UpdateBatch::insert_only(insertions.to_vec()), out);
    }

    /// Apply one mixed batch atomically, writing the exact level-0
    /// spanner delta into `out`.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.process_inner(batch);
        self.active[0].take_delta_into(out);
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashSet;
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_validates_with_bounded_stretch() {
        let n = 120;
        let edges = gen::gnm_connected(n, 600, 3);
        let s = SparseSpanner::new(n, &edges, 7);
        s.validate();
        let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 5);
        assert!(st.is_finite(), "disconnected spanner");
        // Per-level stretch transform L -> 3L+2 on top of O(log n).
        let logn = (n as f64).log2();
        assert!(st <= 3.0 * (2.0 * logn) + 10.0, "stretch {st}");
    }

    #[test]
    fn two_level_tower_works() {
        // Force a 2-level schedule to exercise the general tower.
        let n = 200;
        let edges = gen::gnm_connected(n, 900, 5);
        let s = SparseSpanner::with_rates(n, &edges, &[4.0, 3.0], 11);
        s.validate();
        let st = edge_stretch(n, &edges, &s.spanner_edges(), n, 5);
        assert!(st.is_finite());
    }

    #[test]
    fn mixed_updates_validate_and_replay() {
        let n = 70;
        let init = gen::gnm_connected(n, 260, 13);
        let mut s = SparseSpanner::with_rates(n, &init, &[3.0], 17);
        let mut stream = UpdateStream::new(n, &init, 19);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for round in 0..30 {
            let b = stream.next_batch(6, 5);
            s.apply_into(&b, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            let st = edge_stretch(n, stream.live_edges(), &s.spanner_edges(), 30, 3);
            assert!(st.is_finite(), "round {round}: spanner lost connectivity");
        }
    }

    #[test]
    fn two_level_updates_validate() {
        let n = 90;
        let init = gen::gnm_connected(n, 350, 23);
        let mut s = SparseSpanner::with_rates(n, &init, &[3.0, 2.5], 29);
        let mut stream = UpdateStream::new(n, &init, 31);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for _ in 0..20 {
            let b = stream.next_batch(5, 5);
            s.apply_into(&b, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
        }
    }

    #[test]
    fn delete_to_empty() {
        let n = 40;
        let edges = gen::gnm(n, 120, 31);
        let mut s = SparseSpanner::with_rates(n, &edges, &[3.0], 37);
        let mut live = edges;
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        while !live.is_empty() {
            let k = rng.gen_range(1..=10.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            s.delete_into(&batch, &mut d);
            s.validate();
        }
        assert_eq!(s.spanner_size(), 0);
    }

    #[test]
    fn linear_size_trend() {
        // E6 shape: sparse-spanner size stays a bounded multiple of n.
        for (n, seed) in [(300usize, 1u64), (600, 2), (1200, 3)] {
            let edges = gen::gnm_connected(n, 8 * n, seed);
            let s = SparseSpanner::new(n, &edges, seed * 97);
            let ratio = s.spanner_size() as f64 / n as f64;
            assert!(ratio < 12.0, "n={n}: ratio {ratio}");
        }
    }
}
