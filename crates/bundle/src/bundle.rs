//! **Theorem 1.5** — decremental t-bundle spanner.
//!
//! B = H₁ ∪ … ∪ H_t where H_i is an O(log n)-spanner of
//! G_i = G \ (H₁ ∪ … ∪ H_{i−1}). Each level runs a monotone decremental
//! spanner D_i (Lemma 6.4) over G_i plus a monotonicity list J_i: when
//! D_i's spanner drops a still-live edge, the edge parks in J_i and stays
//! in H_i forever (so H_i never shrinks except by graph deletions, and
//! G_{i+1} never *gains* edges — the key to staying decremental). When
//! D_i's spanner *gains* an edge, that edge leaves G_{i+1} and the
//! deletion cascades to the deeper levels.
//!
//! Every edge has exactly one *home*: spanner of level i, J-list of level
//! i, or the residual G_{t+1} = G \ B. The residual delta this structure
//! reports is what drives the sparsifier sampling chain of Lemma 6.6.

use crate::monotone::MonotoneSpanner;
use bds_dstruct::{FxHashMap, FxHashSet};
use bds_graph::api::{
    default_copies, validate_beta, validate_copies, validate_edges, AuxTag, BatchDynamic,
    BatchStats, ConfigError, Decremental, DeltaBuf,
};
use bds_graph::types::Edge;

/// Where an edge currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Home {
    /// In the spanner of D_level (1-based level).
    Spanner(u32),
    /// Parked in J_level.
    J(u32),
    /// In none of the H_i: part of G_{t+1}.
    Residual,
}

struct Level {
    d: MonotoneSpanner,
    j: FxHashSet<Edge>,
}

/// Decremental t-bundle spanner (Theorem 1.5).
pub struct BundleSpanner {
    n: usize,
    t: u32,
    levels: Vec<Level>,
    home: FxHashMap<Edge, Home>,
    recourse: u64,
    /// Reusable buffer for per-level monotone-spanner deltas.
    level_scratch: DeltaBuf,
}

/// Typed builder for [`BundleSpanner`] (Theorem 1.5).
#[derive(Debug, Clone)]
pub struct BundleSpannerBuilder {
    n: usize,
    t: u32,
    copies: Option<usize>,
    beta: f64,
    seed: u64,
}

impl BundleSpannerBuilder {
    /// Bundle depth t (number of stacked spanner levels; default 2).
    pub fn depth(mut self, t: u32) -> Self {
        self.t = t;
        self
    }

    /// Clustering copies per level (default ≈ 2·log₂ n + 2).
    pub fn copies(mut self, copies: usize) -> Self {
        self.copies = Some(copies);
        self
    }

    /// Exponential shift rate β per level (default
    /// [`crate::monotone::DEFAULT_BETA`]).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<BundleSpanner, ConfigError> {
        if self.n < 1 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 1 });
        }
        if self.t < 1 {
            return Err(ConfigError::InvalidParam {
                name: "depth",
                reason: "the bundle needs at least one level",
            });
        }
        let copies = self.copies.unwrap_or_else(|| default_copies(self.n));
        validate_copies(copies)?;
        validate_beta(self.beta)?;
        validate_edges(self.n, edges)?;
        Ok(BundleSpanner::with_params(
            self.n, edges, self.t, copies, self.beta, self.seed,
        ))
    }
}

impl BundleSpanner {
    /// Typed builder: `BundleSpanner::builder(n).depth(t).seed(s)
    /// .build(&edges)`.
    pub fn builder(n: usize) -> BundleSpannerBuilder {
        BundleSpannerBuilder {
            n,
            t: 2,
            copies: None,
            beta: crate::monotone::DEFAULT_BETA,
            seed: 0x5eed,
        }
    }

    pub fn with_params(
        n: usize,
        edges: &[Edge],
        t: u32,
        copies: usize,
        beta: f64,
        seed: u64,
    ) -> Self {
        assert!(t >= 1);
        let mut home: FxHashMap<Edge, Home> = FxHashMap::default();
        let mut levels = Vec::with_capacity(t as usize);
        let mut gi: Vec<Edge> = edges.to_vec();
        for i in 1..=t {
            let d = MonotoneSpanner::with_params(n, &gi, copies, beta, seed ^ (i as u64 * 10_007));
            let hi: FxHashSet<Edge> = d.spanner_edges().into_iter().collect();
            for &e in &hi {
                home.insert(e, Home::Spanner(i));
            }
            gi.retain(|e| !hi.contains(e));
            levels.push(Level {
                d,
                j: FxHashSet::default(),
            });
        }
        for e in gi {
            home.insert(e, Home::Residual);
        }
        Self {
            n,
            t,
            levels,
            home,
            recourse: 0,
            level_scratch: DeltaBuf::new(),
        }
    }

    /// Default monotone-spanner parameters per level.
    pub fn new(n: usize, edges: &[Edge], t: u32, seed: u64) -> Self {
        Self::with_params(
            n,
            edges,
            t,
            default_copies(n),
            crate::monotone::DEFAULT_BETA,
            seed,
        )
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn t(&self) -> u32 {
        self.t
    }

    pub fn num_live_edges(&self) -> usize {
        self.home.len()
    }

    /// All bundle edges B = ∪ H_i.
    pub fn bundle_edges(&self) -> Vec<Edge> {
        self.home
            .iter()
            .filter(|(_, h)| !matches!(h, Home::Residual))
            .map(|(e, _)| *e)
            .collect()
    }

    pub fn bundle_size(&self) -> usize {
        self.home
            .values()
            .filter(|h| !matches!(h, Home::Residual))
            .count()
    }

    /// Edges of the residual G \ B.
    pub fn residual_edges(&self) -> Vec<Edge> {
        self.home
            .iter()
            .filter(|(_, h)| matches!(h, Home::Residual))
            .map(|(e, _)| *e)
            .collect()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.home.contains_key(&e)
    }

    pub fn in_bundle(&self, e: Edge) -> bool {
        matches!(self.home.get(&e), Some(h) if !matches!(h, Home::Residual))
    }

    /// Deepest level whose D_i graph contains `e`.
    fn reach(&self, h: Home) -> u32 {
        match h {
            Home::Spanner(j) | Home::J(j) => j,
            Home::Residual => self.t,
        }
    }

    /// Test oracle: every level's monotone spanner validates; the home map
    /// is consistent with the level spanners and the bundle definition.
    pub fn validate(&self) {
        for (idx, lvl) in self.levels.iter().enumerate() {
            let i = idx as u32 + 1;
            lvl.d.validate();
            let sp: FxHashSet<Edge> = lvl.d.spanner_edges().into_iter().collect();
            for e in &sp {
                assert_eq!(
                    self.home.get(e),
                    Some(&Home::Spanner(i)),
                    "spanner edge {e:?} mis-homed at level {i}"
                );
            }
            for e in &lvl.j {
                assert_eq!(
                    self.home.get(e),
                    Some(&Home::J(i)),
                    "J edge {e:?} mis-homed"
                );
                assert!(!sp.contains(e), "J edge {e:?} also in spanner");
            }
        }
        // Every home entry is backed by the right container, and each
        // edge's presence in level graphs matches its reach.
        for (&e, &h) in &self.home {
            match h {
                Home::Spanner(j) => {
                    assert!(self.levels[j as usize - 1].d.contains_edge(e));
                }
                Home::J(j) => {
                    assert!(self.levels[j as usize - 1].j.contains(&e));
                }
                Home::Residual => {}
            }
            let reach = self.reach(h);
            for l in 1..=self.t {
                assert_eq!(
                    self.levels[l as usize - 1].d.contains_edge(e),
                    l <= reach,
                    "edge {e:?} presence at level {l} inconsistent with reach {reach}"
                );
            }
        }
    }
}

impl BatchDynamic for BundleSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.home.len()
    }

    /// The maintained output set: the bundle B = ∪ H_i.
    fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for (&e, h) in &self.home {
            if !matches!(h, Home::Residual) {
                out.push_ins(e);
            }
        }
    }

    fn stats(&self) -> BatchStats {
        let mut s = BatchStats::default();
        for lvl in &self.levels {
            s += BatchDynamic::stats(&lvl.d);
        }
        s.recourse = self.recourse;
        s
    }
}

impl Decremental for BundleSpanner {
    /// Delete a batch of graph edges (must be live), cascading through
    /// the levels. Insertions/deletions in `out` are the bundle-membership
    /// delta; the [`DeltaBuf::aux`] lane carries the residual deletions
    /// ([`AuxTag::ResidualDeleted`]: graph-deleted residual edges plus the
    /// promotions) that drive the Lemma 6.6 sampling chain.
    fn delete_into(&mut self, batch: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        let mut pending: Vec<Vec<Edge>> = vec![Vec::new(); self.t as usize + 1];
        let mut pending_set: Vec<FxHashSet<Edge>> = vec![FxHashSet::default(); self.t as usize + 1];
        for &e in batch {
            let h = self
                .home
                .remove(&e)
                .unwrap_or_else(|| panic!("delete of absent edge {e:?}"));
            match h {
                Home::Spanner(_) => out.push_del(e),
                Home::J(j) => {
                    self.levels[j as usize - 1].j.remove(&e);
                    out.push_del(e);
                }
                Home::Residual => out.push_aux(AuxTag::ResidualDeleted, e),
            }
            for l in 1..=self.reach(h) {
                pending[l as usize].push(e);
                pending_set[l as usize].insert(e);
            }
        }
        for i in 1..=self.t {
            let xi = std::mem::take(&mut pending[i as usize]);
            if xi.is_empty() {
                continue;
            }
            let xset = std::mem::take(&mut pending_set[i as usize]);
            let mut scratch = std::mem::take(&mut self.level_scratch);
            self.levels[i as usize - 1].d.delete_into(&xi, &mut scratch);
            // Spanner(D_i) drops a live edge -> park it in J_i (stays in
            // H_i; monotonicity).
            for &e in scratch.deleted() {
                if xset.contains(&e) {
                    continue; // removed from D_i's graph: handled already
                }
                debug_assert_eq!(self.home.get(&e), Some(&Home::Spanner(i)));
                self.home.insert(e, Home::J(i));
                self.levels[i as usize - 1].j.insert(e);
            }
            // Spanner(D_i) gains a live edge -> it leaves G_{i+1}…: cascade
            // the deletion to every deeper level that holds it.
            for &e in scratch.inserted() {
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                let old = *self.home.get(&e).expect("promoted edge is live");
                match old {
                    Home::Spanner(j) => {
                        debug_assert!(j > i, "promotion from level {j} to {i}");
                    }
                    Home::J(j) => {
                        debug_assert!(j >= i);
                        if j == i {
                            // A J_i edge re-entered spanner(D_i): H_i
                            // unchanged, just re-home it.
                            self.levels[i as usize - 1].j.remove(&e);
                            self.home.insert(e, Home::Spanner(i));
                            continue;
                        }
                        self.levels[j as usize - 1].j.remove(&e);
                    }
                    Home::Residual => {
                        out.push_ins(e);
                        out.push_aux(AuxTag::ResidualDeleted, e);
                    }
                }
                let old_reach = self.reach(old);
                for l in (i + 1)..=old_reach {
                    pending[l as usize].push(e);
                    pending_set[l as usize].insert(e);
                }
                self.home.insert(e, Home::Spanner(i));
            }
            self.level_scratch = scratch;
        }
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn init_bundle_structure() {
        let n = 80;
        let edges = gen::gnm_connected(n, 400, 7);
        let b = BundleSpanner::with_params(n, &edges, 3, 6, 0.3, 11);
        b.validate();
        assert_eq!(b.bundle_size() + b.residual_edges().len(), edges.len());
        // H_1 is a spanner of G: finite stretch.
        let st = edge_stretch(n, &edges, &b.bundle_edges(), n, 3);
        assert!(st.is_finite());
    }

    #[test]
    fn bundle_property_holds_levelwise() {
        // H_i must be a spanner of G \ (H_1 ∪ … ∪ H_{i−1}): check that
        // every residual edge is spanned by the bundle with finite stretch
        // (the defining property used by the sparsifier).
        let n = 60;
        let edges = gen::gnm_connected(n, 300, 13);
        let b = BundleSpanner::with_params(n, &edges, 2, 6, 0.3, 17);
        let bundle = b.bundle_edges();
        for e in b.residual_edges() {
            let st = edge_stretch(n, &[e], &bundle, 2, 3);
            assert!(st.is_finite(), "residual edge {e:?} unspanned");
        }
    }

    #[test]
    fn deletions_cascade_and_validate() {
        let n = 50;
        let edges = gen::gnm_connected(n, 220, 19);
        let mut b = BundleSpanner::with_params(n, &edges, 3, 5, 0.3, 23);
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(29);
        live.shuffle(&mut rng);
        let mut bundle_shadow: FxHashSet<Edge> = b.bundle_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        while live.len() > 30 {
            let k = rng.gen_range(1..=12.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            b.delete_into(&batch, &mut d);
            for e in d.deleted() {
                assert!(bundle_shadow.remove(e), "deleted {e:?} not in shadow");
            }
            for e in d.inserted() {
                assert!(bundle_shadow.insert(*e), "inserted {e:?} already present");
            }
            b.validate();
            let mut got = b.bundle_edges();
            let mut want: Vec<Edge> = bundle_shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "bundle delta replay diverged");
        }
    }

    #[test]
    fn monotone_recourse_once_per_edge() {
        // Theorem 1.5's O(1) amortized recourse: an edge enters and leaves
        // the bundle at most once... entering can only happen once because
        // promotions only move downward in level and the residual is only
        // left once. Count per-edge transitions.
        let n = 40;
        let edges = gen::gnm_connected(n, 160, 31);
        let mut b = BundleSpanner::with_params(n, &edges, 2, 5, 0.3, 37);
        let mut enter_count: FxHashMap<Edge, u32> = FxHashMap::default();
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(41);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        while !live.is_empty() {
            let k = rng.gen_range(1..=8.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            b.delete_into(&batch, &mut d);
            for &e in d.inserted() {
                *enter_count.entry(e).or_insert(0) += 1;
            }
        }
        for (e, c) in enter_count {
            assert!(c <= 1, "edge {e:?} entered the bundle {c} times");
        }
        assert_eq!(b.num_live_edges(), 0);
    }

    #[test]
    fn residual_delta_accounts_for_promotions() {
        let n = 40;
        let edges = gen::gnm_connected(n, 200, 43);
        let mut b = BundleSpanner::with_params(n, &edges, 2, 5, 0.3, 47);
        let mut residual_shadow: FxHashSet<Edge> = b.residual_edges().into_iter().collect();
        let mut live = edges.clone();
        let mut rng = StdRng::seed_from_u64(53);
        live.shuffle(&mut rng);
        let mut d = DeltaBuf::new();
        for _ in 0..20 {
            let k = rng.gen_range(1..=6.min(live.len()));
            let batch: Vec<Edge> = live.split_off(live.len() - k);
            b.delete_into(&batch, &mut d);
            for e in d.aux_edges(AuxTag::ResidualDeleted) {
                assert!(residual_shadow.remove(&e), "{e:?} not in residual shadow");
            }
            let mut got = b.residual_edges();
            let mut want: Vec<Edge> = residual_shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "residual replay diverged");
        }
    }
}
