//! One dynamically maintained `Contract(G_i, x_i)` level (§4.3).
//!
//! Vertices of V_{i+1} ⊆ V_i are sampled once at construction (the
//! sampling is independent of the edges, so the oblivious-adversary
//! argument composes across levels). Each vertex's adjacency lives in a
//! sorted `FlatList<(u8, u64, V), ()>` keyed `(unmark, rand, neighbor)`,
//! where `unmark = 1` iff the neighbor is *not* sampled and `rand` is a
//! fresh 64-bit draw per entry: `Head(v)` is the sampled neighbor of
//! minimum rand (the list's first entry, when marked), `v` itself if
//! sampled, and ⊥ otherwise. A head changes only when the first entry
//! changes — expected O(1) incident-edge work per update, exactly the
//! paper's analysis.
//!
//! The level exposes the H_i edge set (edges with a ⊥ endpoint plus the
//! (v, Head(v)) star edges) as a refcounted [`SpannerSet`], and keeps
//! its contracted edges in the shared [`ContractedEdges`] index; each
//! batch reports the net E_{i+1} updates, the H_i delta and the
//! representative changes.

use crate::contracted::{ContractedEdges, RepEvent, NO_HEAD};
use bds_core::SpannerSet;
use bds_dstruct::{EdgeTable, FlatList, FxHashSet};
use bds_graph::api::DeltaBuf;
use bds_graph::types::{Edge, UpdateBatch, V};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Output of one batch at one level.
#[derive(Debug, Default)]
pub struct LevelBatchResult {
    /// Net E_{i+1} updates (the contracted graph's batch).
    pub next: UpdateBatch,
    /// Net H_i membership changes.
    pub h_delta: DeltaBuf,
    /// Chronological representative changes of surviving contracted edges.
    pub rep_events: Vec<RepEvent>,
}

/// One contraction level.
pub struct ContractLevel {
    n: usize,
    /// V_i membership (vertices that may carry edges at this level).
    pub in_level: Vec<bool>,
    /// V_{i+1} membership (the sampled set D).
    pub in_next: Vec<bool>,
    head: Vec<V>,
    adj: Vec<FlatList<(u8, u64, V), ()>>,
    /// directed (owner, neighbor) -> the entry's random key; also the edge set.
    rand_of: EdgeTable,
    h_set: SpannerSet,
    /// NextLevelEdges and the BwdCorrespondence.
    contracted: ContractedEdges,
    rng: StdRng,
    /// Count of head recomputations (the expected-O(1) quantity).
    pub head_changes: u64,
}

impl ContractLevel {
    /// Sample V_{i+1} from the `universe` (V_i) with probability 1/x and
    /// ingest the initial edge set.
    pub fn new(n: usize, universe: &[bool], x: f64, edges: &[Edge], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_next: Vec<bool> = universe
            .iter()
            .map(|&inl| inl && rng.gen_bool((1.0 / x).clamp(0.0, 1.0)))
            .collect();
        let mut lvl = Self {
            n,
            in_level: universe.to_vec(),
            in_next,
            head: vec![NO_HEAD; n],
            adj: (0..n).map(|_| FlatList::new()).collect(),
            rand_of: EdgeTable::new(),
            h_set: SpannerSet::new(),
            contracted: ContractedEdges::default(),
            rng,
            head_changes: 0,
        };
        // Sampled vertices head to themselves.
        for v in 0..n as V {
            if lvl.in_next[v as usize] {
                lvl.head[v as usize] = v;
            }
        }
        let mut r = LevelBatchResult::default();
        lvl.apply(&UpdateBatch::insert_only(edges.to_vec()), &mut r);
        // Initialization deltas are consumed by the caller via fresh reads.
        lvl
    }

    pub fn num_edges(&self) -> usize {
        self.rand_of.len() / 2
    }

    pub fn live_edges(&self) -> Vec<Edge> {
        let upper = |(u, v, _)| (u < v).then_some(Edge { u, v });
        self.rand_of.iter().filter_map(upper).collect()
    }

    pub fn contains_edge(&self, e: Edge) -> bool {
        self.rand_of.contains(e.u, e.v)
    }

    pub fn head(&self, v: V) -> Option<V> {
        let h = self.head[v as usize];
        (h != NO_HEAD).then_some(h)
    }

    pub fn h_edges(&self) -> Vec<Edge> {
        self.h_set.edges()
    }

    pub fn h_size(&self) -> usize {
        self.h_set.len()
    }

    /// The contracted edge set E_{i+1} with its representatives.
    pub fn contracted(&self) -> &ContractedEdges {
        &self.contracted
    }

    /// Number of sampled (V_{i+1}) vertices.
    pub fn next_vertex_count(&self) -> usize {
        self.in_next.iter().filter(|&&b| b).count()
    }

    /// Number of reasons edge `e` belongs to H_i under heads `(hu, hv)`.
    fn h_reasons(e: Edge, hu: V, hv: V) -> u32 {
        let mut c = 0;
        if hu == NO_HEAD {
            c += 1;
        }
        if hv == NO_HEAD {
            c += 1;
        }
        if hu == e.v {
            c += 1; // e is u's head edge
        }
        if hv == e.u {
            c += 1; // e is v's head edge
        }
        c
    }

    /// Update the H reasons and bucket membership of `e` from heads
    /// `old` to `new` (`None`: the edge is absent on that side).
    fn retag_edge(&mut self, e: Edge, old: Option<(V, V)>, new: Option<(V, V)>) {
        let reasons = |h: Option<(V, V)>| h.map_or(0, |(hu, hv)| Self::h_reasons(e, hu, hv));
        let (oc, nc) = (reasons(old), reasons(new));
        for _ in nc..oc {
            self.h_set.remove(e);
        }
        for _ in oc..nc {
            self.h_set.add(e);
        }
        let key = |h: Option<(V, V)>| h.and_then(|(hu, hv)| ContractedEdges::key(hu, hv));
        self.contracted.move_support(e, key(old), key(new));
    }

    /// Apply a batch (deletions then insertions, the paper's order) and
    /// report the level's outputs.
    pub fn apply(&mut self, batch: &UpdateBatch, out: &mut LevelBatchResult) {
        let mut touched: FxHashSet<V> = FxHashSet::default();

        // --- deletions ---
        for &e in &batch.deletions {
            assert!(self.contains_edge(e), "delete of absent level edge {e:?}");
            // Drop H reasons and bucket membership under current heads.
            let heads = (self.head[e.u as usize], self.head[e.v as usize]);
            self.retag_edge(e, Some(heads), None);
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                let rnd = self.rand_of.remove(a, b).expect("entry");
                let key = (!self.in_next[b as usize] as u8, rnd, b);
                // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
                self.adj[a as usize].remove(&key).expect("adj entry");
            }
            touched.insert(e.u);
            touched.insert(e.v);
        }

        // --- insertions ---
        for &e in &batch.insertions {
            assert!(
                self.in_level[e.u as usize] && self.in_level[e.v as usize],
                "edge {e:?} outside the level universe"
            );
            assert!(!self.contains_edge(e), "insert of present level edge {e:?}");
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let rnd: u64 = self.rng.gen();
                self.rand_of.insert(a, b, rnd);
                let key = (!self.in_next[b as usize] as u8, rnd, b);
                self.adj[a as usize].insert(key, ());
            }
            let heads = (self.head[e.u as usize], self.head[e.v as usize]);
            self.retag_edge(e, None, Some(heads));
            touched.insert(e.u);
            touched.insert(e.v);
        }

        // --- head recomputation for touched unsampled vertices ---
        for &w in &touched {
            if self.in_next[w as usize] {
                continue; // head(w) = w forever
            }
            let new_head = match self.adj[w as usize].first() {
                Some((k, _)) if k.0 == 0 => k.2,
                _ => NO_HEAD,
            };
            let old_head = self.head[w as usize];
            if new_head == old_head {
                continue;
            }
            self.head_changes += 1;
            // Re-tag every incident edge: the w-side head flips.
            let neighbors: Vec<V> = self.adj[w as usize].iter().map(|(k, _)| k.2).collect();
            for x in neighbors {
                let e = Edge::new(w, x);
                let hx = self.head[x as usize];
                let (old_pair, new_pair) = if w == e.u {
                    ((old_head, hx), (new_head, hx))
                } else {
                    ((hx, old_head), (hx, new_head))
                };
                self.retag_edge(e, Some(old_pair), Some(new_pair));
            }
            self.head[w as usize] = new_head;
        }

        self.contracted.finish(&mut out.next, &mut out.rep_events);
        self.h_set.take_delta_into(&mut out.h_delta);
    }

    /// Test oracle: recompute heads, H reasons, and buckets from scratch
    /// (same rand keys) and compare.
    pub fn validate(&self) {
        for v in 0..self.n as V {
            if !self.in_level[v as usize] {
                assert_eq!(self.adj[v as usize].len(), 0);
                continue;
            }
            let want = if self.in_next[v as usize] {
                v
            } else {
                match self.adj[v as usize].first() {
                    Some((k, _)) if k.0 == 0 => k.2,
                    _ => NO_HEAD,
                }
            };
            assert_eq!(self.head[v as usize], want, "head mismatch at {v}");
        }
        let edges = self.live_edges();
        let mut want_h = SpannerSet::new();
        for &e in &edges {
            let (hu, hv) = (self.head[e.u as usize], self.head[e.v as usize]);
            for _ in 0..Self::h_reasons(e, hu, hv) {
                want_h.add(e);
            }
        }
        let mut got = self.h_set.edges();
        let mut exp = want_h.edges();
        got.sort_unstable();
        exp.sort_unstable();
        assert_eq!(got, exp, "H set diverged");
        self.contracted.validate(edges, &self.head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    fn full_universe(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn init_heads_and_buckets() {
        let n = 60;
        let edges = gen::gnm_connected(n, 200, 3);
        let lvl = ContractLevel::new(n, &full_universe(n), 4.0, &edges, 7);
        lvl.validate();
        // Expected |V'| ≈ n/x.
        let nv = lvl.next_vertex_count();
        assert!((4..=40).contains(&nv), "sampled {nv} of {n}");
        // E[|H|] = O(nx): loose sanity bound.
        assert!(lvl.h_size() <= edges.len());
    }

    #[test]
    fn updates_keep_invariants() {
        let n = 50;
        let init = gen::gnm_connected(n, 150, 5);
        let mut lvl = ContractLevel::new(n, &full_universe(n), 3.0, &init, 11);
        let mut stream = UpdateStream::new(n, &init, 13);
        let mut next_shadow: FxHashSet<Edge> = lvl.contracted().keys().into_iter().collect();
        let mut h_shadow: FxHashSet<Edge> = lvl.h_edges().into_iter().collect();
        for _ in 0..40 {
            let b = stream.next_batch(4, 4);
            let mut r = LevelBatchResult::default();
            lvl.apply(&b, &mut r);
            lvl.validate();
            for e in &r.next.deletions {
                assert!(next_shadow.remove(e), "E' delta removes absent {e:?}");
            }
            for e in &r.next.insertions {
                assert!(next_shadow.insert(*e), "E' delta inserts dup {e:?}");
            }
            r.h_delta.apply_to(&mut h_shadow);
            let mut got: Vec<Edge> = lvl.contracted().keys();
            let mut want: Vec<Edge> = next_shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "E' replay diverged");
            let mut got: Vec<Edge> = lvl.h_edges();
            let mut want: Vec<Edge> = h_shadow.iter().copied().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "H replay diverged");
        }
    }

    #[test]
    #[should_panic(expected = "delete of absent level edge")]
    fn deleting_an_absent_level_edge_panics() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let mut lvl = ContractLevel::new(4, &full_universe(4), 2.0, &edges, 3);
        let batch = UpdateBatch::delete_only(vec![Edge::new(0, 2)]);
        lvl.apply(&batch, &mut LevelBatchResult::default());
    }

    #[test]
    #[should_panic(expected = "insert of present level edge")]
    fn inserting_a_present_level_edge_panics() {
        let edges = vec![Edge::new(0, 1), Edge::new(1, 2)];
        let mut lvl = ContractLevel::new(4, &full_universe(4), 2.0, &edges, 3);
        let batch = UpdateBatch::insert_only(vec![Edge::new(1, 2)]);
        lvl.apply(&batch, &mut LevelBatchResult::default());
    }

    #[test]
    fn head_change_probability_is_small() {
        // Expected O(1) head recomputations per update (the 1/(deg+1)
        // argument): across many single-edge updates on a dense-ish graph
        // the average must be well below the trivial bound of 2.
        let n = 100;
        let init = gen::gnm_connected(n, 800, 29);
        let mut lvl = ContractLevel::new(n, &full_universe(n), 3.0, &init, 31);
        let mut stream = UpdateStream::new(n, &init, 37);
        let before = lvl.head_changes;
        let rounds = 300;
        for _ in 0..rounds {
            let b = stream.next_batch(1, 1);
            let mut r = LevelBatchResult::default();
            lvl.apply(&b, &mut r);
        }
        let per_update = (lvl.head_changes - before) as f64 / (2.0 * rounds as f64);
        assert!(per_update < 0.9, "head-change rate {per_update} too high");
    }
}
