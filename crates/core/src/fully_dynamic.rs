//! **Theorem 1.1** — fully-dynamic (2k−1)-spanner: the Bentley–Saxe
//! reduction of [`crate::bentley_saxe`] over the decremental spanner of
//! Lemma 3.3, with invariant B1 (2^{l₀} ≥ n^{1+1/k}). Slot spanners
//! union into one refcounted [`SpannerSet`] with E₀, so the delta
//! stream carries no weight lane.

use crate::bentley_saxe::{BentleySaxe, OutputSet, Slot};
use crate::decremental::DecrementalSpanner;
use crate::spanner_set::SpannerSet;
use bds_graph::api::{validate_edges, ConfigError, DeltaBuf};
use bds_graph::types::Edge;

/// Fully-dynamic (2k−1)-spanner (Theorem 1.1).
pub type FullyDynamicSpanner = BentleySaxe<DecrementalSpanner>;

/// Typed builder for [`FullyDynamicSpanner`] (Theorem 1.1).
#[derive(Debug, Clone)]
pub struct FullyDynamicSpannerBuilder {
    n: usize,
    k: u32,
    seed: u64,
}

impl FullyDynamicSpannerBuilder {
    /// Stretch parameter: the spanner guarantees stretch 2k−1.
    pub fn stretch(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<FullyDynamicSpanner, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        if self.k < 1 {
            return Err(ConfigError::InvalidParam {
                name: "stretch",
                reason: "k must be ≥ 1 (spanner stretch is 2k−1)",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(FullyDynamicSpanner::new(self.n, self.k, edges, self.seed))
    }
}

impl Slot for DecrementalSpanner {
    type Output = SpannerSet;
    type Builder = FullyDynamicSpannerBuilder;
    const SEED_STEP: u64 = 1;

    fn fully_dynamic_builder(n: usize) -> FullyDynamicSpannerBuilder {
        FullyDynamicSpannerBuilder {
            n,
            k: 2,
            seed: 0x5eed,
        }
    }

    fn build(n: usize, k: u32, edges: &[Edge], seed: u64) -> Self {
        DecrementalSpanner::new(n, k, edges, seed)
    }

    /// Invariant B1: 2^{l₀} ≥ n^{1+1/k}.
    fn l0(n: usize, k: u32) -> u32 {
        assert!(k >= 1);
        let target = (n as f64).powf(1.0 + 1.0 / k as f64);
        (target.log2().ceil() as u32).max(1)
    }

    fn live_edges(&self) -> Vec<Edge> {
        DecrementalSpanner::live_edges(self)
    }

    fn validate(&self) {
        DecrementalSpanner::validate(self)
    }
}

impl OutputSet for SpannerSet {
    fn from_output(output: &DeltaBuf) -> Self {
        SpannerSet::from_reasons(output.inserted())
    }

    fn add(&mut self, e: Edge, _w: f64) {
        SpannerSet::add(self, e);
    }

    fn remove(&mut self, e: Edge) {
        SpannerSet::remove(self, e);
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        SpannerSet::output_into(self, out);
    }

    fn take_delta_into(&mut self, out: &mut DeltaBuf) {
        SpannerSet::take_delta_into(self, out);
    }
}

impl FullyDynamicSpanner {
    /// Current spanner edge set.
    pub fn spanner_edges(&self) -> Vec<Edge> {
        self.output().edges()
    }

    pub fn spanner_size(&self) -> usize {
        self.output().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_dstruct::FxHashSet;
    use bds_graph::api::{BatchDynamic, Decremental, FullyDynamic};
    use bds_graph::csr::edge_stretch;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_and_validate() {
        let edges = gen::gnm_connected(60, 200, 3);
        let s = FullyDynamicSpanner::new(60, 2, &edges, 7);
        s.validate();
        assert_eq!(s.num_live_edges(), edges.len());
    }

    #[test]
    fn mixed_batches_keep_invariants_and_stretch() {
        let n = 60;
        let k = 2;
        let init = gen::gnm_connected(n, 180, 5);
        let mut s = FullyDynamicSpanner::new(n, k, &init, 11);
        let mut stream = UpdateStream::new(n, &init, 13);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for round in 0..25 {
            let b = stream.next_batch(8, 6);
            s.delete_into(&b.deletions, &mut d);
            d.apply_to(&mut shadow);
            s.insert_into(&b.insertions, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            let st = edge_stretch(n, stream.live_edges(), &s.spanner_edges(), n, 3);
            assert!(st <= (2 * k - 1) as f64, "stretch {st} in round {round}");
        }
    }

    #[test]
    fn insert_only_growth() {
        let n = 50;
        let mut s = FullyDynamicSpanner::new(n, 3, &[], 17);
        let all = gen::gnm(n, 400, 19);
        let mut shadow: FxHashSet<Edge> = FxHashSet::default();
        let mut d = DeltaBuf::new();
        for chunk in all.chunks(37) {
            s.insert_into(chunk, &mut d);
            d.apply_to(&mut shadow);
            s.validate();
        }
        assert_eq!(s.num_live_edges(), all.len());
    }

    #[test]
    fn delete_to_empty() {
        let n = 40;
        let edges = gen::gnm(n, 120, 23);
        let mut s = FullyDynamicSpanner::new(n, 2, &edges, 29);
        let mut d = DeltaBuf::new();
        for chunk in edges.chunks(11) {
            s.delete_into(chunk, &mut d);
            s.validate();
        }
        assert_eq!(s.num_live_edges(), 0);
        assert_eq!(s.spanner_size(), 0);
    }

    #[test]
    fn process_batch_nets_deltas() {
        let n = 30;
        let init = gen::gnm_connected(n, 90, 31);
        let mut s = FullyDynamicSpanner::new(n, 2, &init, 37);
        let mut stream = UpdateStream::new(n, &init, 41);
        let mut shadow: FxHashSet<Edge> = s.spanner_edges().into_iter().collect();
        let mut d = DeltaBuf::new();
        for _ in 0..15 {
            let b = stream.next_batch(5, 5);
            s.apply_into(&b, &mut d);
            d.apply_to(&mut shadow);
            let mut got = s.spanner_edges();
            let mut want: Vec<Edge> = shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
