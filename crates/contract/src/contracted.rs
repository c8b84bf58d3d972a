//! The contraction layer shared by Theorems 1.3 and 1.4.
//!
//! Both theorems contract a graph along vertex heads and keep the same
//! two things below the contracted graph; only the head rules differ
//! ([`crate::level`]'s per-entry random keys, `bds_ultra`'s per-vertex
//! keys and light BFS), and those stay with their callers.
//!
//! * [`ContractedEdges`] — the `NextLevelEdges` buckets: every
//!   contracted edge (Head(u), Head(v)) with the level edges supporting
//!   it and one representative (the `BwdCorrespondence`). Supports move
//!   between buckets one at a time; [`ContractedEdges::finish`] nets a
//!   batch into contracted insertions, deletions and representative
//!   changes.
//! * [`RepChain`] — for each edge of the spanner maintained on the
//!   contracted graph, the level edge currently counted on its behalf
//!   in the level-below spanner set.

use bds_core::SpannerSet;
use bds_dstruct::{FxHashMap, FxHashSet};
use bds_graph::api::DeltaBuf;
use bds_graph::types::{Edge, UpdateBatch, V};
use std::collections::BTreeSet;

/// The ⊥ head: the vertex contracts into no next-level vertex.
pub const NO_HEAD: V = V::MAX;

/// A representative change of a surviving contracted edge:
/// `(contracted, old_rep, new_rep)`.
pub type RepEvent = (Edge, Edge, Edge);

/// `NextLevelEdges` with its `BwdCorrespondence`, plus the open batch's
/// netting state.
#[derive(Debug, Default)]
pub struct ContractedEdges {
    /// Contracted edge -> supporting level edges.
    buckets: FxHashMap<Edge, BTreeSet<Edge>>,
    /// Contracted edge -> representative support.
    rep: FxHashMap<Edge, Edge>,
    /// Contracted edges born in the open batch.
    born: FxHashSet<Edge>,
    /// Contracted edges live before the open batch and dead now, with
    /// their last representative.
    died: FxHashMap<Edge, Edge>,
    /// Representative changes of the open batch, in order.
    events: Vec<RepEvent>,
}

impl ContractedEdges {
    /// Bucket of an edge whose endpoints head to `hu` and `hv`: none when
    /// either head is ⊥ or both endpoints contract into one vertex.
    pub fn key(hu: V, hv: V) -> Option<Edge> {
        (hu != NO_HEAD && hv != NO_HEAD && hu != hv).then(|| Edge::new(hu, hv))
    }

    /// Move support `e` from bucket `from` to bucket `to` (`None` is no
    /// bucket: an inserted edge moves from `None`, a deleted one to it).
    pub fn move_support(&mut self, e: Edge, from: Option<Edge>, to: Option<Edge>) {
        if from == to {
            return;
        }
        if let Some(key) = from {
            self.remove(key, e);
        }
        if let Some(key) = to {
            self.add(key, e);
        }
    }

    fn add(&mut self, key: Edge, e: Edge) {
        let b = self.buckets.entry(key).or_default();
        let was_empty = b.is_empty();
        b.insert(e);
        if !was_empty {
            return;
        }
        self.rep.insert(key, e);
        match self.died.remove(&key) {
            // Rebirth within the batch: net zero for the contracted edge
            // set, but the representative may have changed.
            Some(old_rep) if old_rep != e => self.events.push((key, old_rep, e)),
            Some(_) => {}
            None => {
                self.born.insert(key);
            }
        }
    }

    fn remove(&mut self, key: Edge, e: Edge) {
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        let b = self.buckets.get_mut(&key).expect("bucket exists");
        assert!(b.remove(&e), "support {e:?} missing from bucket {key:?}");
        if let Some(&first) = b.first() {
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let rep = self.rep.get_mut(&key).expect("rep of live bucket");
            if *rep == e {
                *rep = first;
                // Buckets born in this batch emit no rep events: consumers
                // read a *new* contracted edge's representative from
                // `rep_of` after the batch, so a mid-batch swap would
                // break their chains (which start from the pre-batch rep).
                if !self.born.contains(&key) {
                    self.events.push((key, e, first));
                }
            }
        } else {
            self.buckets.remove(&key);
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let old_rep = self.rep.remove(&key).expect("rep of live bucket");
            // Born and dead within one batch cancels entirely.
            if !self.born.remove(&key) {
                self.died.insert(key, old_rep);
            }
        }
    }

    /// Close the batch: append the net contracted-graph updates to `next`
    /// and the representative changes of surviving contracted edges, in
    /// order, to `rep_events`.
    pub fn finish(&mut self, next: &mut UpdateBatch, rep_events: &mut Vec<RepEvent>) {
        next.insertions.extend(std::mem::take(&mut self.born));
        next.deletions
            .extend(std::mem::take(&mut self.died).into_keys());
        rep_events.append(&mut self.events);
    }

    /// The contracted edge set (bucket keys).
    pub fn keys(&self) -> Vec<Edge> {
        self.buckets.keys().copied().collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Current representative of a contracted edge.
    pub fn rep_of(&self, contracted: Edge) -> Option<Edge> {
        self.rep.get(&contracted).copied()
    }

    /// Test oracle: rebuild the buckets of the live `edges` under `head`
    /// and compare; every representative supports its bucket and no
    /// batch is left open.
    pub fn validate(&self, edges: impl IntoIterator<Item = Edge>, head: &[V]) {
        let mut want: FxHashMap<Edge, BTreeSet<Edge>> = FxHashMap::default();
        for e in edges {
            if let Some(key) = Self::key(head[e.u as usize], head[e.v as usize]) {
                want.entry(key).or_default().insert(e);
            }
        }
        assert_eq!(self.buckets, want, "buckets diverged");
        assert_eq!(self.rep.len(), self.buckets.len());
        for (key, b) in &self.buckets {
            assert!(b.contains(&self.rep[key]), "rep not a support of {key:?}");
        }
        assert!(self.born.is_empty() && self.died.is_empty() && self.events.is_empty());
    }
}

/// The representative chain under one contracted spanner: upstairs
/// spanner edge -> the level edge counted on its behalf below.
#[derive(Debug, Default)]
pub struct RepChain {
    counted: FxHashMap<Edge, Edge>,
}

impl RepChain {
    /// Apply one batch to the level-below set `out`: first `rep_events`
    /// for contracted edges that stay counted (chronological, so the
    /// swaps compose), then the upstairs spanner's net delta.
    pub fn apply(
        &mut self,
        index: &ContractedEdges,
        rep_events: &[RepEvent],
        upstairs: &DeltaBuf,
        out: &mut SpannerSet,
    ) {
        for &(e_up, old, new) in rep_events {
            if let Some(cur) = self.counted.get_mut(&e_up) {
                debug_assert_eq!(*cur, old, "rep chain broken for {e_up:?}");
                out.remove(old);
                out.add(new);
                *cur = new;
            }
        }
        for &e_up in upstairs.deleted() {
            let rep = self.counted.remove(&e_up);
            out.remove(rep.unwrap_or_else(|| panic!("no counted rep for {e_up:?}")));
        }
        for &e_up in upstairs.inserted() {
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let rep = index.rep_of(e_up).expect("live contracted edge has a rep");
            out.add(rep);
            let dup = self.counted.insert(e_up, rep);
            debug_assert!(dup.is_none());
        }
    }

    /// Test oracle: the chain counts exactly the live representative of
    /// every `upstairs` edge, and `got` is `others` plus those
    /// representatives.
    pub fn validate(
        &self,
        index: &ContractedEdges,
        upstairs: &[Edge],
        others: impl IntoIterator<Item = Edge>,
        got: &SpannerSet,
    ) {
        let mut want = SpannerSet::new();
        for e in others {
            want.add(e);
        }
        for e_up in upstairs {
            let rep = index.rep_of(*e_up);
            let rep = rep.unwrap_or_else(|| panic!("upstairs edge {e_up:?} is not contracted"));
            assert_eq!(self.counted.get(e_up), Some(&rep), "stale rep of {e_up:?}");
            want.add(rep);
        }
        assert_eq!(self.counted.len(), upstairs.len(), "reps of dead edges");
        let (mut got, mut want) = (got.edges(), want.edges());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "level-below spanner is not H plus the reps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{ContractLevel, LevelBatchResult};
    use bds_graph::gen;
    use bds_graph::stream::UpdateStream;

    /// Replay batches' contracted deltas and rep events through a
    /// [`RepChain`] counting every contracted edge: its counted rep of
    /// each edge must equal the index's live rep after every batch.
    struct Replay {
        chain: RepChain,
        all: SpannerSet,
        up: DeltaBuf,
    }

    impl Replay {
        fn new(index: &ContractedEdges) -> Self {
            let mut r = Self {
                chain: RepChain::default(),
                all: SpannerSet::new(),
                up: DeltaBuf::new(),
            };
            for e in index.keys() {
                r.up.push_ins(e);
            }
            r.chain.apply(index, &[], &r.up, &mut r.all);
            r
        }

        fn batch(&mut self, index: &ContractedEdges, next: &UpdateBatch, events: &[RepEvent]) {
            self.up.clear();
            next.deletions.iter().for_each(|&e| self.up.push_del(e));
            next.insertions.iter().for_each(|&e| self.up.push_ins(e));
            self.chain.apply(index, events, &self.up, &mut self.all);
            self.chain.validate(index, &index.keys(), [], &self.all);
        }
    }

    #[test]
    fn rep_events_track_representatives() {
        // Input 1: a Theorem 1.3 contraction level under random updates.
        let n = 40;
        let init = gen::gnm_connected(n, 120, 17);
        let mut lvl = ContractLevel::new(n, &vec![true; n], 3.0, &init, 19);
        let mut replay = Replay::new(lvl.contracted());
        let mut stream = UpdateStream::new(n, &init, 23);
        for _ in 0..40 {
            let b = stream.next_batch(3, 3);
            let mut r = LevelBatchResult::default();
            lvl.apply(&b, &mut r);
            replay.batch(lvl.contracted(), &r.next, &r.rep_events);
        }

        // Input 2: contracted edge k dies and is reborn with a different
        // representative within one batch (a head flip moves every
        // support out of k and a new one in).
        let k = Edge::new(0, 1);
        let (a, b, c) = (Edge::new(2, 3), Edge::new(2, 4), Edge::new(5, 6));
        let mut index = ContractedEdges::default();
        index.move_support(a, None, Some(k));
        index.move_support(b, None, Some(k));
        index.finish(&mut UpdateBatch::default(), &mut Vec::new());
        let mut replay = Replay::new(&index);
        index.move_support(a, Some(k), None);
        index.move_support(b, Some(k), Some(Edge::new(0, 7)));
        index.move_support(c, None, Some(k));
        let (mut next, mut events) = (UpdateBatch::default(), Vec::new());
        index.finish(&mut next, &mut events);
        assert_eq!(next.insertions, [Edge::new(0, 7)]);
        assert!(next.deletions.is_empty(), "rebirth must net out");
        assert_eq!(events, [(k, a, b), (k, b, c)]);
        replay.batch(&index, &next, &events);
    }
}
