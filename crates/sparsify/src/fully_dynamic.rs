//! **Theorem 1.6** — fully-dynamic (1±ε) spectral sparsifier: the
//! Bentley–Saxe reduction of [`bds_core::bentley_saxe`] (the one
//! Theorem 1.1 uses) with invariant **B2** (2^{l₀} ≥ n) and the
//! decremental sparsifier of Lemma 6.6 per slot.
//!
//! Correctness rests on decomposability (Lemma 6.7): the union of
//! (1±ε)-sparsifiers of an edge partition is a (1±ε)-sparsifier of the
//! whole graph. E₀ edges carry weight 1 (a subgraph is an exact
//! sparsifier of itself), and the slot sparsifiers union into one
//! [`WeightedSet`], so the delta stream carries the weight lane.

use crate::decremental::DecrementalSparsifier;
use crate::weighted_set::WeightedSet;
use bds_core::bentley_saxe::{BentleySaxe, OutputSet, Slot};
use bds_graph::api::{validate_edges, ConfigError, DeltaBuf};
use bds_graph::types::Edge;

/// Fully-dynamic spectral sparsifier (Theorem 1.6). Its weighted edge
/// set is [`BentleySaxe::output`].
pub type FullyDynamicSparsifier = BentleySaxe<DecrementalSparsifier>;

/// Typed builder for [`FullyDynamicSparsifier`] (Theorem 1.6).
#[derive(Debug, Clone)]
pub struct FullyDynamicSparsifierBuilder {
    n: usize,
    t: u32,
    seed: u64,
}

impl FullyDynamicSparsifierBuilder {
    /// Bundle depth t per slot (quality knob; default 2; the paper's
    /// t = Θ(ε⁻² log³ n)).
    pub fn depth(mut self, t: u32) -> Self {
        self.t = t;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn build(self, edges: &[Edge]) -> Result<FullyDynamicSparsifier, ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::TooFewVertices { n: self.n, min: 2 });
        }
        if self.t < 1 {
            return Err(ConfigError::InvalidParam {
                name: "depth",
                reason: "the bundle depth t must be ≥ 1",
            });
        }
        validate_edges(self.n, edges)?;
        Ok(FullyDynamicSparsifier::new(
            self.n, self.t, edges, self.seed,
        ))
    }
}

impl Slot for DecrementalSparsifier {
    type Output = WeightedSet;
    type Builder = FullyDynamicSparsifierBuilder;
    const SEED_STEP: u64 = 7;

    fn fully_dynamic_builder(n: usize) -> FullyDynamicSparsifierBuilder {
        FullyDynamicSparsifierBuilder {
            n,
            t: 2,
            seed: 0x5eed,
        }
    }

    fn build(n: usize, t: u32, edges: &[Edge], seed: u64) -> Self {
        DecrementalSparsifier::new(n, edges, t, seed)
    }

    /// Invariant B2: 2^{l₀} ≥ n.
    fn l0(n: usize, _t: u32) -> u32 {
        (n as f64).log2().ceil() as u32
    }

    fn live_edges(&self) -> Vec<Edge> {
        DecrementalSparsifier::live_edges(self)
    }

    fn validate(&self) {
        DecrementalSparsifier::validate(self)
    }
}

impl OutputSet for WeightedSet {
    fn from_output(output: &DeltaBuf) -> Self {
        WeightedSet::from_output(output)
    }

    fn add(&mut self, e: Edge, w: f64) {
        self.insert(e, w);
    }

    fn remove(&mut self, e: Edge) {
        WeightedSet::remove(self, e);
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        WeightedSet::output_into(self, out);
    }

    fn take_delta_into(&mut self, out: &mut DeltaBuf) {
        WeightedSet::take_delta_into(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::api::{BatchDynamic, Decremental, FullyDynamic};
    use bds_graph::cuts::sparsifier_error;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    #[test]
    fn init_and_quality() {
        let n = 100;
        let edges = gen::gnm_connected(n, 1200, 3);
        let s = FullyDynamicSparsifier::new(n, 3, &edges, 7);
        s.validate();
        let err = sparsifier_error(n, &edges, &s.output().edges(), 30, 11);
        assert!(err < 1.0, "error {err} unreasonably high");
    }

    #[test]
    fn mixed_updates_validate() {
        let n = 50;
        let init = gen::gnm_connected(n, 300, 13);
        let mut s = FullyDynamicSparsifier::new(n, 2, &init, 17);
        let mut stream = UpdateStream::new(n, &init, 19);
        let mut d = DeltaBuf::new();
        for _ in 0..12 {
            let b = stream.next_batch(10, 8);
            s.delete_into(&b.deletions, &mut d);
            s.insert_into(&b.insertions, &mut d);
            s.validate();
            assert_eq!(s.num_live_edges(), stream.live_edges().len());
        }
    }

    #[test]
    fn weighted_delta_replay() {
        let n = 40;
        let init = gen::gnm_connected(n, 200, 23);
        let mut s = FullyDynamicSparsifier::new(n, 2, &init, 29);
        let mut stream = UpdateStream::new(n, &init, 31);
        let mut shadow: Vec<(Edge, f64)> = s.output().edges();
        let mut d = DeltaBuf::new();
        for _ in 0..10 {
            let b = stream.next_batch(6, 6);
            for phase in 0..2 {
                if phase == 0 {
                    s.delete_into(&b.deletions, &mut d);
                } else {
                    s.insert_into(&b.insertions, &mut d);
                }
                for (e, w) in d.deleted_weighted() {
                    let pos = shadow
                        .iter()
                        .position(|&(se, sw)| se == e && sw == w)
                        .unwrap_or_else(|| panic!("missing ({e:?},{w})"));
                    shadow.swap_remove(pos);
                }
                shadow.extend(d.inserted_weighted());
            }
            let mut got = s.output().edges();
            got.sort_by_key(|x| x.0);
            shadow.sort_by_key(|x| x.0);
            assert_eq!(got, shadow);
        }
    }
}
