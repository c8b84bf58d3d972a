//! The unified batch-dynamic engine API.
//!
//! The paper defines one interface contract for all six theorems: apply a
//! batch of edge updates, receive the exact (δH_ins, δH_del) recourse.
//! This module is that contract as code, shared by every structure in the
//! workspace:
//!
//! * [`DeltaBuf`] — the one delta type: a caller-owned, reusable
//!   buffer every implementor reports into. One flat `Vec<Edge>` with a
//!   split index (insertions before it, deletions after), an optional
//!   per-edge weight lane for the sparsifiers, and an auxiliary edge
//!   lane for structure-specific side channels (the bundle's residual
//!   deletions). Reusing one buffer across batches makes the
//!   steady-state delta path allocation-free.
//! * [`BatchDynamic`] / [`Decremental`] / [`FullyDynamic`] — the
//!   capability-split update traits, and the only update path every
//!   structure has. Delete-only structures (`EsTree`, the
//!   bundle/monotone spanners, the decremental spanner and sparsifier)
//!   implement [`Decremental`]; structures that also take insertions
//!   (the Bentley–Saxe wrappers, the contraction towers) implement
//!   [`FullyDynamic`].
//! * [`BatchStats`] — one per-structure statistics record (scan steps,
//!   vertices touched, cluster changes, recourse) replacing the ad-hoc
//!   per-crate stats types.
//! * [`ConfigError`] / [`BatchError`] / [`BatchReport`] — typed
//!   construction and input validation instead of asserts reachable from
//!   user input. See [`crate::types::UpdateBatch::normalized`].
//! * [`SpannerView`] — a read-side mirror of a maintained edge set, kept
//!   current by applying each batch's [`DeltaBuf`]; readers serve
//!   `contains`/`degree`/iteration off a stable epoch (and materialize a
//!   CSR snapshot when they need traversals) while the writer prepares
//!   the next batch.

use crate::csr::CsrGraph;
use crate::types::{Edge, UpdateBatch, V};
use bds_dstruct::{EdgeTable, FxHashMap, FxHashSet};

// ---------------------------------------------------------------------------
// DeltaBuf
// ---------------------------------------------------------------------------

/// The semantic of one auxiliary-lane entry ([`DeltaBuf::aux`]).
///
/// The aux lane used to be an untyped edge channel whose meaning was
/// whatever the producing structure said it was; consumers (and the WAL
/// serializer) had to guess. Every entry now carries its tag, so a
/// delta round-trips through serialization without losing what the
/// side-channel edges *mean*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AuxTag {
    /// An edge that left the t-bundle's residual set R = G \ H — the
    /// signal that drives the Lemma 6.6 sampling chain in the
    /// decremental sparsifier.
    ResidualDeleted = 0,
}

impl AuxTag {
    /// Decode a serialized tag byte (see `bds_graph::wal`); `None` for
    /// an unknown tag, which deserializers must treat as corruption.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(AuxTag::ResidualDeleted),
            _ => None,
        }
    }
}

/// A reusable (δH_ins, δH_del) buffer.
///
/// Layout: one flat edge vector; entries `[0..split)` are the edges that
/// entered the maintained set H, entries `[split..len)` the edges that
/// left it. Weighted structures fill the parallel `weights` lane
/// (`f64::to_bits`); unweighted structures leave it empty. The `aux` lane
/// is a second, structure-specific edge channel of [`AuxTag`]-tagged
/// entries (the t-bundle reports its residual deletions there — what
/// drives the Lemma 6.6 sampling chain).
///
/// This is the workspace's only delta type: every structure reports
/// each batch into one through the [`Decremental`] / [`FullyDynamic`]
/// trait methods. The buffer is *caller-owned*: allocate one, pass
/// `&mut` to every `*_into` call, and the steady-state batch loop
/// performs no delta-path heap allocations once the vectors have warmed
/// up ([`DeltaBuf::clear`] keeps capacity).
#[derive(Debug, Clone, Default)]
pub struct DeltaBuf {
    edges: Vec<Edge>,
    split: usize,
    weights: Vec<u64>,
    aux: Vec<(AuxTag, Edge)>,
    /// Reusable index-permutation scratch for the weighted [`DeltaBuf::net`]
    /// path (sorting parallel edge/weight lanes without allocating).
    perm: Vec<u32>,
    /// Batch sequence number stamped by the producing engine (0 =
    /// unsequenced). See [`DeltaBuf::stamp_seq`].
    seq: u64,
}

impl DeltaBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the edge lane for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            edges: Vec::with_capacity(cap),
            split: 0,
            weights: Vec::new(),
            aux: Vec::new(),
            perm: Vec::new(),
            seq: 0,
        }
    }

    /// Empty the buffer, retaining all allocations. Resets the sequence
    /// number to 0 (unsequenced).
    pub fn clear(&mut self) {
        self.edges.clear();
        self.weights.clear();
        self.aux.clear();
        self.split = 0;
        self.seq = 0;
    }

    /// The batch sequence number stamped by the producing engine, or 0
    /// for a buffer no engine has stamped (hand-built deltas, output
    /// snapshots). Sequenced deltas let a mirror assert it applies each
    /// engine batch exactly once, in order — see [`SpannerView::apply`].
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Stamp this delta as the engine's `seq`-th batch (1-based;
    /// engines stamp monotonically, +1 per batch). 0 means unsequenced.
    pub fn stamp_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Total recourse |δH_ins| + |δH_del|.
    pub fn recourse(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.aux.is_empty()
    }

    /// True if the weight lane is populated.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Edges that entered H this batch.
    pub fn inserted(&self) -> &[Edge] {
        &self.edges[..self.split]
    }

    /// Edges that left H this batch.
    pub fn deleted(&self) -> &[Edge] {
        &self.edges[self.split..]
    }

    /// The auxiliary edge lane: `(tag, edge)` entries whose semantics
    /// the [`AuxTag`] names (see the producing structure's docs).
    pub fn aux(&self) -> &[(AuxTag, Edge)] {
        &self.aux
    }

    /// The aux-lane edges carrying `tag` (the typed replacement for
    /// consumers that used to read the whole untyped lane).
    pub fn aux_edges(&self, tag: AuxTag) -> impl Iterator<Item = Edge> + '_ {
        self.aux
            .iter()
            .filter(move |&&(t, _)| t == tag)
            .map(|&(_, e)| e)
    }

    /// Weighted view of the inserted section. Unweighted buffers report
    /// weight 1.0 for every edge.
    pub fn inserted_weighted(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.lane_weighted(0, self.split)
    }

    /// Weighted view of the deleted section (weights as of removal).
    pub fn deleted_weighted(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.lane_weighted(self.split, self.edges.len())
    }

    fn lane_weighted(&self, lo: usize, hi: usize) -> impl Iterator<Item = (Edge, f64)> + '_ {
        debug_assert!(self.weights.is_empty() || self.weights.len() == self.edges.len());
        (lo..hi).map(|i| {
            let w = self
                .weights
                .get(i)
                .map_or(1.0, |&bits| f64::from_bits(bits));
            (self.edges[i], w)
        })
    }

    /// Append an insertion. O(1): a deletion displaced from the split
    /// point moves to the back. On a weighted buffer this upgrades to
    /// weight 1.0 (the [`DeltaBuf::merge_from`] convention), so mixing
    /// unweighted and weighted pushes can never desynchronize the lanes.
    #[inline]
    pub fn push_ins(&mut self, e: Edge) {
        if !self.weights.is_empty() {
            self.push_ins_w(e, 1.0);
            return;
        }
        self.edges.push(e);
        let last = self.edges.len() - 1;
        self.edges.swap(self.split, last);
        self.split += 1;
    }

    /// Append a deletion. On a weighted buffer this upgrades to weight
    /// 1.0, keeping the lanes aligned.
    #[inline]
    pub fn push_del(&mut self, e: Edge) {
        if !self.weights.is_empty() {
            self.push_del_w(e, 1.0);
            return;
        }
        self.edges.push(e);
    }

    /// Append a weighted insertion. On a buffer with an unweighted
    /// prefix, the prefix upgrades in place to weight 1.0 first.
    #[inline]
    pub fn push_ins_w(&mut self, e: Edge, w: f64) {
        if self.weights.len() < self.edges.len() {
            self.weights.resize(self.edges.len(), 1.0f64.to_bits());
        }
        self.edges.push(e);
        self.weights.push(w.to_bits());
        let last = self.edges.len() - 1;
        self.edges.swap(self.split, last);
        self.weights.swap(self.split, last);
        self.split += 1;
    }

    /// Append a weighted deletion. On a buffer with an unweighted
    /// prefix, the prefix upgrades in place to weight 1.0 first.
    #[inline]
    pub fn push_del_w(&mut self, e: Edge, w: f64) {
        if self.weights.len() < self.edges.len() {
            self.weights.resize(self.edges.len(), 1.0f64.to_bits());
        }
        self.edges.push(e);
        self.weights.push(w.to_bits());
    }

    /// Append a tagged entry to the auxiliary lane.
    #[inline]
    pub fn push_aux(&mut self, tag: AuxTag, e: Edge) {
        self.aux.push((tag, e));
    }

    /// Net the two sections at set level: an edge appearing in both
    /// left H and re-entered it within one batch — a membership no-op —
    /// and is dropped from both sections. In-place and steady-state
    /// allocation-free (sorts the sections; the weighted path reuses an
    /// internal index scratch).
    ///
    /// Weight-lane safety: on a weighted buffer a pair cancels only when
    /// the insertion and the deletion carry the *same* weight — both the
    /// edge entries and their weight entries are dropped together, so the
    /// lanes never desynchronize. A pair at different weights is a
    /// reweighting and stays. This is the merge netting the sharded
    /// dispatcher relies on.
    pub fn net(&mut self) {
        const DEAD: Edge = Edge {
            u: V::MAX,
            v: V::MAX,
        };
        if self.weights.is_empty() {
            let (ins, del) = self.edges.split_at_mut(self.split);
            ins.sort_unstable();
            del.sort_unstable();
            let (mut i, mut j) = (0, 0);
            let mut killed = 0usize;
            while i < ins.len() && j < del.len() {
                match ins[i].cmp(&del[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        ins[i] = DEAD;
                        del[j] = DEAD;
                        killed += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            if killed > 0 {
                self.split -= killed;
                self.edges.retain(|&e| e != DEAD);
            }
            return;
        }
        // Weighted: sort index permutations of each section by
        // (edge, weight bits) — the parallel lanes themselves stay put —
        // and cancel exact matches via a merge scan.
        assert_eq!(self.weights.len(), self.edges.len(), "mixed weight lane");
        self.perm.clear();
        self.perm.extend(0..self.edges.len() as u32);
        let (pi, pd) = self.perm.split_at_mut(self.split);
        {
            let edges = &self.edges;
            let weights = &self.weights;
            let by = |i: &u32| (edges[*i as usize], weights[*i as usize]);
            pi.sort_unstable_by_key(by);
            pd.sort_unstable_by_key(by);
        }
        let (mut i, mut j) = (0, 0);
        let mut killed = 0usize;
        while i < pi.len() && j < pd.len() {
            let a = (self.edges[pi[i] as usize], self.weights[pi[i] as usize]);
            let b = (self.edges[pd[j] as usize], self.weights[pd[j] as usize]);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.edges[pi[i] as usize] = DEAD;
                    self.edges[pd[j] as usize] = DEAD;
                    killed += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        if killed > 0 {
            // Compact both lanes in tandem, keeping them aligned.
            let mut k = 0usize;
            let mut new_split = self.split;
            for idx in 0..self.edges.len() {
                if self.edges[idx] == DEAD {
                    if idx < self.split {
                        new_split -= 1;
                    }
                    continue;
                }
                self.edges[k] = self.edges[idx];
                self.weights[k] = self.weights[idx];
                k += 1;
            }
            self.edges.truncate(k);
            self.weights.truncate(k);
            self.split = new_split;
        }
    }

    /// Append another delta's contents: its insertions join this
    /// buffer's insertion section, its deletions the deletion section,
    /// its aux lane the aux lane. If either buffer carries weights the
    /// result is weighted (missing weights fill in as 1.0). This is the
    /// shard-merge building block: allocation-free once the receiving
    /// lanes have warmed up.
    pub fn merge_from(&mut self, other: &DeltaBuf) {
        let weighted = self.is_weighted() || other.is_weighted();
        if weighted && self.weights.len() < self.edges.len() {
            // Upgrade an unweighted prefix in place.
            self.weights.resize(self.edges.len(), 1.0f64.to_bits());
        }
        if weighted {
            for (e, w) in other.inserted_weighted() {
                self.push_ins_w(e, w);
            }
            for (e, w) in other.deleted_weighted() {
                self.push_del_w(e, w);
            }
        } else {
            for &e in other.inserted() {
                self.push_ins(e);
            }
            for &e in other.deleted() {
                self.push_del(e);
            }
        }
        self.aux.extend_from_slice(&other.aux);
    }

    /// Apply this delta to a materialized edge set, asserting exact
    /// consistency (the conformance-suite oracle).
    pub fn apply_to(&self, set: &mut FxHashSet<Edge>) {
        for &e in self.deleted() {
            assert!(set.remove(&e), "delta removes absent edge {e:?}");
        }
        for &e in self.inserted() {
            assert!(set.insert(e), "delta inserts duplicate edge {e:?}");
        }
    }

    /// Apply this delta to a materialized weighted edge map, asserting
    /// exact consistency including weights (weight 1.0 for unweighted
    /// buffers).
    pub fn apply_weighted_to(&self, map: &mut FxHashMap<Edge, u64>) {
        for (e, w) in self.deleted_weighted() {
            let got = map.remove(&e);
            assert_eq!(
                got,
                Some(w.to_bits()),
                "delta removes {e:?} at weight {w}, map had {got:?}"
            );
        }
        for (e, w) in self.inserted_weighted() {
            let old = map.insert(e, w.to_bits());
            assert!(old.is_none(), "delta inserts duplicate edge {e:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// BatchStats
// ---------------------------------------------------------------------------

/// Unified per-structure work/recourse statistics, cumulative since
/// construction. One type for every implementor — the Even–Shiloach
/// engine, the clustering spanners, the towers and the sparsifiers all
/// report through it (fields a structure does not track stay zero).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Entries examined by priority-list `NextWith` scans.
    pub scan_steps: u64,
    /// Vertices processed across level-synchronous phases.
    pub vertices_touched: u64,
    /// Cluster/head relabelings (the Lemma 3.6 quantity; head recomputes
    /// for the contraction structures).
    pub cluster_changes: u64,
    /// Total |δH| reported across all batches.
    pub recourse: u64,
}

/// Field-wise sum: the one way to aggregate the counters of several
/// instances (callers that track recourse themselves overwrite it).
impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, o: BatchStats) {
        self.scan_steps += o.scan_steps;
        self.vertices_touched += o.vertices_touched;
        self.cluster_changes += o.cluster_changes;
        self.recourse += o.recourse;
    }
}

// ---------------------------------------------------------------------------
// Errors and batch normalization reports
// ---------------------------------------------------------------------------

/// Typed construction-time validation failure (returned by the builders
/// instead of panicking on bad user input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Fewer vertices than the structure supports.
    TooFewVertices { n: usize, min: usize },
    /// A named parameter is outside its valid range.
    InvalidParam {
        name: &'static str,
        reason: &'static str,
    },
    /// An initial edge references a vertex ≥ n.
    VertexOutOfRange { vertex: V, n: usize },
    /// The initial edge list contains a duplicate.
    DuplicateEdge(Edge),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewVertices { n, min } => {
                write!(f, "n = {n} is below the minimum of {min} vertices")
            }
            ConfigError::InvalidParam { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            ConfigError::VertexOutOfRange { vertex, n } => {
                write!(f, "edge endpoint {vertex} out of range for n = {n}")
            }
            ConfigError::DuplicateEdge(e) => write!(f, "duplicate initial edge {e:?}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Typed batch-validation failure from
/// [`crate::types::UpdateBatch::normalized`] and
/// [`FullyDynamic::process_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// An edge appears in both the insertion and the deletion list of one
    /// batch (the paper's model forbids it; applying either order would
    /// silently change semantics).
    EdgeInBothLists(Edge),
    /// An edge endpoint is ≥ the structure's vertex count.
    VertexOutOfRange { vertex: V, n: usize },
    /// An edge is not in canonical form `u < v` (a struct literal can
    /// bypass [`Edge::new`]; self-loops land here too).
    NonCanonicalEdge(Edge),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::EdgeInBothLists(e) => {
                write!(f, "edge {e:?} appears in both lists of one batch")
            }
            BatchError::VertexOutOfRange { vertex, n } => {
                write!(f, "edge endpoint {vertex} out of range for n = {n}")
            }
            BatchError::NonCanonicalEdge(e) => {
                write!(f, "edge {e:?} is not canonical (u < v required)")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// What batch normalization dropped (self-loops only arise through the
/// raw-pair entry point [`crate::types::UpdateBatch::from_pairs`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    pub self_loops_dropped: usize,
    pub duplicate_insertions_dropped: usize,
    pub duplicate_deletions_dropped: usize,
}

impl BatchReport {
    pub fn total_dropped(&self) -> usize {
        self.self_loops_dropped
            + self.duplicate_insertions_dropped
            + self.duplicate_deletions_dropped
    }
}

// ---------------------------------------------------------------------------
// The capability-split update traits
// ---------------------------------------------------------------------------

/// Read side common to every batch-dynamic structure.
pub trait BatchDynamic {
    /// Number of vertices of the maintained input graph.
    fn num_vertices(&self) -> usize;

    /// Number of live edges of the maintained input graph.
    fn num_live_edges(&self) -> usize;

    /// Write the currently maintained output set H into `out` (cleared
    /// first; written as insertions, with the weight lane populated by
    /// weighted structures).
    fn output_into(&self, out: &mut DeltaBuf);

    /// Cumulative work statistics since construction.
    fn stats(&self) -> BatchStats;

    /// The structure's monotone batch sequence number, if it sequences
    /// its deltas (0 = unsequenced; the default). Engines that stamp
    /// [`DeltaBuf::seq`] override this so snapshot-seeded mirrors
    /// ([`SpannerView::from_output`]) anchor their sequence check at
    /// the right batch.
    fn batch_seq(&self) -> u64 {
        0
    }
}

/// A structure processing batches of edge *deletions* — the capability
/// every theorem's structure has.
pub trait Decremental: BatchDynamic {
    /// Delete a batch of live edges. Clears `out`, then writes the exact
    /// (δH_ins, δH_del) recourse of this batch into it.
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf);
}

/// A structure additionally processing batches of edge *insertions*
/// (Theorems 1.1/1.3/1.4/1.6 — the Bentley–Saxe reductions and the
/// contraction towers).
pub trait FullyDynamic: Decremental {
    /// Insert a batch of absent edges. Clears `out`, then writes the
    /// exact recourse.
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf);

    /// Apply one mixed batch atomically (deletions before insertions, as
    /// the paper's model specifies), netting the recourse across both
    /// phases into `out`. The batch must already be normalized: no edge
    /// in both lists, no duplicates.
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf);

    /// Validating entry point for untrusted batches: rejects edges with
    /// an endpoint ≥ [`BatchDynamic::num_vertices`] or not in canonical
    /// form, normalizes (dedup, both-lists check), and then applies. On
    /// `Err` the structure is untouched. Allocates for the normalized
    /// copy — steady-state loops over trusted batches should call
    /// [`FullyDynamic::apply_into`] directly.
    fn process_checked(
        &mut self,
        batch: &UpdateBatch,
        out: &mut DeltaBuf,
    ) -> Result<BatchReport, BatchError> {
        let n = self.num_vertices();
        for &e in batch.insertions.iter().chain(&batch.deletions) {
            check_edge(n, e)?;
        }
        let (norm, report) = batch.normalized()?;
        self.apply_into(&norm, out);
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// SpannerView — the read side
// ---------------------------------------------------------------------------

/// A snapshot mirror of a maintained edge set.
///
/// The writer keeps a view current by calling [`SpannerView::apply`] with
/// each batch's [`DeltaBuf`]; every application bumps the epoch. Readers
/// answer `contains`/`degree`/`weight` point queries and iterate edges
/// directly off the mirror, or call [`SpannerView::to_csr`] to
/// materialize a compact CSR snapshot of the current epoch for traversal
/// workloads (BFS, stretch oracles). Cloning the view pins an epoch, so
/// a reader can keep serving a stable snapshot while the writer applies
/// the next batch to its own copy.
#[derive(Debug, Clone)]
pub struct SpannerView {
    n: usize,
    epoch: u64,
    /// Canonical edge -> weight bits (1.0 for unweighted sets).
    member: EdgeTable,
    degree: Vec<u32>,
    /// Sequence number of the last *sequenced* delta applied (0 before
    /// any). See [`SpannerView::apply`].
    seq: u64,
}

impl SpannerView {
    /// An empty view over `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            epoch: 0,
            member: EdgeTable::new(),
            degree: vec![0; n],
            seq: 0,
        }
    }

    /// A view seeded with a structure's current output set, anchored at
    /// the structure's batch sequence ([`BatchDynamic::batch_seq`]) so
    /// the next sequenced delta it produces applies cleanly.
    pub fn from_output(n: usize, structure: &impl BatchDynamic) -> Self {
        let mut view = Self::new(n);
        view.reseed_from_output(structure, &mut DeltaBuf::new());
        view
    }

    /// Re-seed this view in place from a structure's current output —
    /// the allocation-reusing equivalent of [`SpannerView::from_output`]
    /// for long-lived mirrors. The member table and degree vector keep
    /// their capacity; `scratch` receives the output snapshot (and is
    /// left holding it). The view re-anchors at the structure's batch
    /// sequence and restarts its epoch at 0.
    pub fn reseed_from_output(&mut self, structure: &impl BatchDynamic, scratch: &mut DeltaBuf) {
        structure.output_into(scratch);
        self.reseed(scratch, structure.batch_seq());
    }

    /// Re-seed this view from an output snapshot (`output`'s
    /// insertions), anchored at batch sequence `seq`, epoch 0.
    pub(crate) fn reseed(&mut self, output: &DeltaBuf, seq: u64) {
        self.member.clear();
        self.member.reserve(output.inserted().len());
        self.degree.fill(0);
        for (e, w) in output.inserted_weighted() {
            self.member.insert(e.u, e.v, w.to_bits());
            self.degree[e.u as usize] += 1;
            self.degree[e.v as usize] += 1;
        }
        self.epoch = 0;
        self.seq = seq;
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of delta batches applied since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sequence number of the last sequenced delta applied (0 if this
    /// view has only seen unsequenced deltas).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Re-anchor the sequence check at `seq`: the next sequenced delta
    /// this view accepts must carry `seq + 1`. Composing layers call
    /// this after seeding a mirror from a snapshot of an engine that is
    /// already `seq` batches in (e.g. [`crate::shard::ShardedView::of`]).
    pub fn resync_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Number of edges in the mirrored set.
    pub fn len(&self) -> usize {
        self.member.len()
    }

    pub fn is_empty(&self) -> bool {
        self.member.is_empty()
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.member.contains(e.u, e.v)
    }

    /// Weight of `e` in the mirrored set (1.0 for unweighted sets).
    pub fn weight(&self, e: Edge) -> Option<f64> {
        self.member.get(e.u, e.v).map(f64::from_bits)
    }

    pub fn degree(&self, v: V) -> u32 {
        self.degree[v as usize]
    }

    /// Iterate the mirrored edges (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.member
            .iter()
            .map(|(u, v, bits)| (Edge { u, v }, f64::from_bits(bits)))
    }

    /// The mirrored edges as a fresh vector, in [`SpannerView::iter`]'s
    /// order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        self.edges_into(&mut out);
        out
    }

    /// Append the mirrored edges to `out` in one branch-free scan
    /// ([`EdgeTable::scan_into`]).
    pub(crate) fn edges_into(&self, out: &mut Vec<Edge>) {
        self.member
            .scan_into(out, self.member.len(), 0, |u, v, _| Edge { u, v });
    }

    /// Prefetch `e`'s home slot ahead of a [`SpannerView::contains`] or
    /// [`SpannerView::weight`] probe ([`EdgeTable::prefetch`]).
    #[inline]
    pub(crate) fn prefetch(&self, e: Edge) {
        self.member.prefetch(e.u, e.v);
    }

    /// Advance the mirror by one batch delta and bump the epoch.
    /// Allocation-free apart from hash-table growth.
    ///
    /// **Sequence discipline.** A delta stamped by an engine
    /// ([`DeltaBuf::seq`] ≠ 0) must advance this view's sequence by
    /// exactly one; applying the same delta twice, skipping a batch, or
    /// feeding a delta from a different engine stream panics here
    /// instead of silently corrupting the mirror. Unsequenced deltas
    /// (hand-built buffers, output snapshots) skip the check.
    pub fn apply(&mut self, delta: &DeltaBuf) {
        if delta.seq() != 0 {
            assert_eq!(
                delta.seq(),
                self.seq + 1,
                "view drift: delta carries batch seq {} but the view expects {} \
                 (double apply, skipped batch, or a delta from a different engine)",
                delta.seq(),
                self.seq + 1
            );
            self.seq = delta.seq();
        }
        for (e, w) in delta.deleted_weighted() {
            let old = self.member.remove(e.u, e.v);
            assert_eq!(old, Some(w.to_bits()), "view delta mismatch at {e:?}");
            self.degree[e.u as usize] -= 1;
            self.degree[e.v as usize] -= 1;
        }
        for (e, w) in delta.inserted_weighted() {
            let old = self.member.insert(e.u, e.v, w.to_bits());
            assert!(old.is_none(), "view delta duplicates {e:?}");
            self.degree[e.u as usize] += 1;
            self.degree[e.v as usize] += 1;
        }
        self.epoch += 1;
    }

    /// Materialize a CSR snapshot of the current epoch (allocates; the
    /// CSR is independent of the view and stays valid across later
    /// `apply` calls).
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(self.n, &self.edges())
    }
}

// ---------------------------------------------------------------------------
// Builder validation helpers (shared by every crate's typed builder)
// ---------------------------------------------------------------------------

/// The per-edge input check shared by [`validate_edge_forms`] and
/// [`FullyDynamic::process_checked`]: both endpoints below `n` and
/// canonical form (`u < v` — [`Edge`]'s fields are public, so a struct
/// literal can bypass the canonicalizing constructor).
fn check_edge(n: usize, e: Edge) -> Result<(), BatchError> {
    if e.u as usize >= n || e.v as usize >= n {
        let vertex = if e.u as usize >= n { e.u } else { e.v };
        return Err(BatchError::VertexOutOfRange { vertex, n });
    }
    if e.u >= e.v {
        return Err(BatchError::NonCanonicalEdge(e));
    }
    Ok(())
}

/// Validate an initial edge list against `n`: every edge passes the
/// per-edge range and canonical-form check, and there are no duplicates.
pub fn validate_edges(n: usize, edges: &[Edge]) -> Result<(), ConfigError> {
    validate_edge_forms(n, edges)?;
    let mut sorted: Vec<Edge> = edges.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(ConfigError::DuplicateEdge(w[0]));
        }
    }
    Ok(())
}

/// The per-edge half of [`validate_edges`]: every endpoint below `n`
/// and every edge canonical, with no duplicate check. For callers that
/// find duplicates themselves while indexing the edges (the sharded
/// engine's per-lane live tables).
pub fn validate_edge_forms(n: usize, edges: &[Edge]) -> Result<(), ConfigError> {
    for &e in edges {
        check_edge(n, e).map_err(|err| match err {
            BatchError::VertexOutOfRange { vertex, n } => {
                ConfigError::VertexOutOfRange { vertex, n }
            }
            _ => ConfigError::InvalidParam {
                name: "edges",
                reason: "edge is not canonical (u < v required; self-loops are invalid)",
            },
        })?;
    }
    Ok(())
}

/// The workspace-wide default clustering-copy count, ≈ 2·log₂ n + 2
/// (the w.h.p. coverage bound of Lemma 6.4).
pub fn default_copies(n: usize) -> usize {
    2 * (usize::BITS - n.max(2).leading_zeros()) as usize + 2
}

/// Validate a clustering-copy count.
pub fn validate_copies(copies: usize) -> Result<(), ConfigError> {
    if copies < 1 {
        return Err(ConfigError::InvalidParam {
            name: "copies",
            reason: "at least one clustering copy is required",
        });
    }
    Ok(())
}

/// Validate an exponential shift rate β.
pub fn validate_beta(beta: f64) -> Result<(), ConfigError> {
    if !(beta > 0.0 && beta.is_finite()) {
        return Err(ConfigError::InvalidParam {
            name: "beta",
            reason: "the shift rate must be positive and finite",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_buf_split_layout() {
        let mut b = DeltaBuf::new();
        b.push_del(Edge::new(0, 1));
        b.push_ins(Edge::new(1, 2));
        b.push_del(Edge::new(2, 3));
        b.push_ins(Edge::new(3, 4));
        assert_eq!(b.inserted(), &[Edge::new(1, 2), Edge::new(3, 4)]);
        let mut dels = b.deleted().to_vec();
        dels.sort_unstable();
        assert_eq!(dels, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert_eq!(b.recourse(), 4);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.recourse(), 0);
    }

    #[test]
    fn delta_buf_weighted_lanes() {
        let mut b = DeltaBuf::new();
        b.push_del_w(Edge::new(0, 1), 4.0);
        b.push_ins_w(Edge::new(1, 2), 16.0);
        assert!(b.is_weighted());
        let ins: Vec<_> = b.inserted_weighted().collect();
        assert_eq!(ins, vec![(Edge::new(1, 2), 16.0)]);
        let del: Vec<_> = b.deleted_weighted().collect();
        assert_eq!(del, vec![(Edge::new(0, 1), 4.0)]);
    }

    #[test]
    fn weighted_net_cancels_with_weight_entries() {
        // Regression: net() on a weighted buffer used to be forbidden
        // (and in release silently desynchronized the weight lane). A
        // same-weight ins/del pair must cancel *with* its weight
        // entries; a different-weight pair is a reweighting and stays.
        let mut b = DeltaBuf::new();
        b.push_ins_w(Edge::new(0, 1), 2.0); // cancels
        b.push_ins_w(Edge::new(1, 2), 3.0); // reweight: stays
        b.push_ins_w(Edge::new(2, 3), 5.0); // untouched
        b.push_del_w(Edge::new(0, 1), 2.0); // cancels
        b.push_del_w(Edge::new(1, 2), 4.0); // reweight: stays
        b.net();
        let ins: Vec<_> = b.inserted_weighted().collect();
        let del: Vec<_> = b.deleted_weighted().collect();
        assert_eq!(
            ins,
            vec![(Edge::new(1, 2), 3.0), (Edge::new(2, 3), 5.0)],
            "surviving insertions keep their own weights"
        );
        assert_eq!(del, vec![(Edge::new(1, 2), 4.0)]);
        assert_eq!(b.recourse(), 3);
        // The surviving buffer must still replay against a weighted map.
        let mut map: FxHashMap<Edge, u64> =
            [(Edge::new(1, 2), 4.0f64.to_bits())].into_iter().collect();
        b.apply_weighted_to(&mut map);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&Edge::new(1, 2)), Some(&3.0f64.to_bits()));
    }

    #[test]
    fn mixed_pushes_on_weighted_buffer_keep_lanes_aligned() {
        // Regression: the unweighted pushes used to only debug_assert on
        // a weighted buffer — in release builds the weight lane silently
        // desynchronized from the edge lane. They now auto-upgrade with
        // weight 1.0 (and the weighted pushes upgrade an unweighted
        // prefix), in every build profile.
        let mut b = DeltaBuf::new();
        b.push_ins_w(Edge::new(0, 1), 2.0);
        b.push_del(Edge::new(1, 2)); // unweighted push on a weighted buffer
        b.push_ins(Edge::new(2, 3)); // ditto
        b.push_del_w(Edge::new(3, 4), 0.5);
        let ins: FxHashMap<Edge, u64> = b
            .inserted_weighted()
            .map(|(e, w)| (e, w.to_bits()))
            .collect();
        assert_eq!(ins.get(&Edge::new(0, 1)), Some(&2.0f64.to_bits()));
        assert_eq!(ins.get(&Edge::new(2, 3)), Some(&1.0f64.to_bits()));
        let del: FxHashMap<Edge, u64> = b
            .deleted_weighted()
            .map(|(e, w)| (e, w.to_bits()))
            .collect();
        assert_eq!(del.get(&Edge::new(1, 2)), Some(&1.0f64.to_bits()));
        assert_eq!(del.get(&Edge::new(3, 4)), Some(&0.5f64.to_bits()));
        assert_eq!(b.recourse(), 4);
        // The lanes replay exactly — the corruption the old debug_assert
        // missed in release would trip these weight assertions.
        let mut map: FxHashMap<Edge, u64> = [
            (Edge::new(1, 2), 1.0f64.to_bits()),
            (Edge::new(3, 4), 0.5f64.to_bits()),
        ]
        .into_iter()
        .collect();
        b.apply_weighted_to(&mut map);
        assert_eq!(map.len(), 2);

        // The other direction: a weighted push on an unweighted prefix
        // upgrades the prefix to 1.0 instead of desynchronizing.
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(0, 1));
        b.push_del(Edge::new(1, 2));
        b.push_ins_w(Edge::new(2, 3), 7.0);
        assert!(b.is_weighted());
        let ins: FxHashMap<Edge, u64> = b
            .inserted_weighted()
            .map(|(e, w)| (e, w.to_bits()))
            .collect();
        assert_eq!(ins.get(&Edge::new(0, 1)), Some(&1.0f64.to_bits()));
        assert_eq!(ins.get(&Edge::new(2, 3)), Some(&7.0f64.to_bits()));
        let del: Vec<_> = b.deleted_weighted().collect();
        assert_eq!(del, vec![(Edge::new(1, 2), 1.0)]);
    }

    #[test]
    fn view_asserts_sequence_discipline() {
        let mut v = SpannerView::new(4);
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(0, 1));
        b.stamp_seq(1);
        v.apply(&b);
        assert_eq!(v.seq(), 1);
        // Unsequenced deltas skip the check and leave seq alone.
        let mut raw = DeltaBuf::new();
        raw.push_ins(Edge::new(1, 2));
        v.apply(&raw);
        assert_eq!(v.seq(), 1);
        // Resync re-anchors a snapshot-seeded mirror.
        v.resync_seq(6);
        let mut c = DeltaBuf::new();
        c.push_ins(Edge::new(2, 3));
        c.stamp_seq(7);
        v.apply(&c);
        assert_eq!(v.seq(), 7);
        // clear() drops the stamp.
        c.clear();
        assert_eq!(c.seq(), 0);
    }

    #[test]
    #[should_panic(expected = "view drift")]
    fn view_rejects_double_apply_of_a_sequenced_delta() {
        let mut v = SpannerView::new(4);
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(0, 1));
        b.stamp_seq(1);
        v.apply(&b);
        v.apply(&b); // same batch twice: must panic, not corrupt
    }

    #[test]
    fn unweighted_net_still_cancels_pairs() {
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(0, 1));
        b.push_ins(Edge::new(1, 2));
        b.push_del(Edge::new(0, 1));
        b.net();
        assert_eq!(b.inserted(), &[Edge::new(1, 2)]);
        assert!(b.deleted().is_empty());
    }

    #[test]
    fn merge_from_combines_sections_and_lanes() {
        let mut a = DeltaBuf::new();
        a.push_ins(Edge::new(0, 1));
        a.push_del(Edge::new(1, 2));
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(2, 3));
        b.push_del(Edge::new(3, 4));
        b.push_aux(AuxTag::ResidualDeleted, Edge::new(9, 10));
        a.merge_from(&b);
        let mut ins = a.inserted().to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        let mut del = a.deleted().to_vec();
        del.sort_unstable();
        assert_eq!(del, vec![Edge::new(1, 2), Edge::new(3, 4)]);
        assert_eq!(a.aux(), &[(AuxTag::ResidualDeleted, Edge::new(9, 10))]);
        assert_eq!(
            a.aux_edges(AuxTag::ResidualDeleted).collect::<Vec<_>>(),
            vec![Edge::new(9, 10)]
        );
        assert!(!a.is_weighted());

        // Merging a weighted delta upgrades the unweighted prefix to
        // weight 1.0 and keeps the lanes aligned.
        let mut w = DeltaBuf::new();
        w.push_ins_w(Edge::new(5, 6), 7.5);
        w.push_del_w(Edge::new(6, 7), 0.5);
        a.merge_from(&w);
        assert!(a.is_weighted());
        let ins: FxHashMap<Edge, u64> = a
            .inserted_weighted()
            .map(|(e, wt)| (e, wt.to_bits()))
            .collect();
        assert_eq!(ins.get(&Edge::new(0, 1)), Some(&1.0f64.to_bits()));
        assert_eq!(ins.get(&Edge::new(5, 6)), Some(&7.5f64.to_bits()));
        let del: FxHashMap<Edge, u64> = a
            .deleted_weighted()
            .map(|(e, wt)| (e, wt.to_bits()))
            .collect();
        assert_eq!(del.get(&Edge::new(6, 7)), Some(&0.5f64.to_bits()));
        assert_eq!(a.recourse(), 6);
    }

    #[test]
    fn delta_buf_oracle_roundtrip() {
        let mut set: FxHashSet<Edge> = [Edge::new(0, 1)].into_iter().collect();
        let mut b = DeltaBuf::new();
        b.push_del(Edge::new(0, 1));
        b.push_ins(Edge::new(1, 2));
        b.apply_to(&mut set);
        assert!(set.contains(&Edge::new(1, 2)) && set.len() == 1);
    }

    #[test]
    fn view_tracks_deltas() {
        let mut v = SpannerView::new(5);
        let mut b = DeltaBuf::new();
        b.push_ins(Edge::new(0, 1));
        b.push_ins(Edge::new(1, 2));
        v.apply(&b);
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.degree(1), 2);
        assert!(v.contains(Edge::new(0, 1)));
        assert_eq!(v.weight(Edge::new(0, 1)), Some(1.0));
        let snapshot = v.clone();
        b.clear();
        b.push_del(Edge::new(0, 1));
        v.apply(&b);
        assert_eq!(v.len(), 1);
        assert_eq!(snapshot.len(), 2, "cloned epoch stays stable");
        let csr = v.to_csr();
        assert_eq!(csr.degree(1), 1);
    }

    #[test]
    fn validate_edges_catches_bad_input() {
        assert_eq!(
            validate_edges(3, &[Edge::new(0, 5)]),
            Err(ConfigError::VertexOutOfRange { vertex: 5, n: 3 })
        );
        // Struct literals bypass Edge::new: out-of-range u, self-loops,
        // and non-canonical order must all be rejected, not panic later.
        assert_eq!(
            validate_edges(3, &[Edge { u: 9, v: 0 }]),
            Err(ConfigError::VertexOutOfRange { vertex: 9, n: 3 })
        );
        assert!(matches!(
            validate_edges(3, &[Edge { u: 2, v: 2 }]),
            Err(ConfigError::InvalidParam { name: "edges", .. })
        ));
        assert!(matches!(
            validate_edges(3, &[Edge { u: 2, v: 1 }]),
            Err(ConfigError::InvalidParam { name: "edges", .. })
        ));
        assert_eq!(
            validate_edges(3, &[Edge::new(0, 1), Edge::new(1, 0)]),
            Err(ConfigError::DuplicateEdge(Edge::new(0, 1)))
        );
        assert!(validate_edges(3, &[Edge::new(0, 1), Edge::new(1, 2)]).is_ok());
    }
}
