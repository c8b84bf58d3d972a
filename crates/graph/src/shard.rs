//! Sharded serving: one [`FullyDynamic`] surface over N independent
//! shard structures, with the shard layout fixed at build time.
//!
//! The unified traits of [`crate::api`] take `&mut self` on a single
//! structure. This module is the scaling layer on top of that contract:
//! a [`ShardedEngine`] owns N lanes, each holding one independently
//! built shard structure, partitions every update batch by a
//! deterministic edge→shard map (a [`Partitioner`]), fans the per-lane
//! sub-batches out across lanes in parallel via `bds_par`, and merges
//! the per-lane deltas back into the caller's single [`DeltaBuf`] — so
//! to a caller the dispatcher *is* a [`FullyDynamic`] structure.
//! Sharding needs no algorithmic support from the structures: the union
//! of (2k−1)-spanners of the parts of any edge partition is a
//! (2k−1)-spanner of the whole graph, and the union of per-part
//! spanning forests preserves the connectivity of the union graph.
//!
//! Invariants and contracts:
//!
//! * **Fixed, deterministic routing.** The shard count is chosen at
//!   build time ([`ShardedEngineBuilder::shards`]) and never changes;
//!   edges route by [`HashPartitioner`], a pure function of the
//!   (canonical) edge and the shard count, so an edge's insertions and
//!   deletions always reach the same lane.
//! * **One owner of the live input set.** The engine tracks the live
//!   input edges per lane ([`ShardedEngine::live_input_edges`]); the
//!   serving layer ([`crate::serve`]) asks the engine for membership
//!   instead of keeping a copy of its own.
//! * **Sequence discipline.** Every batch bumps the engine's monotone
//!   sequence number, stamped into the caller's merged delta and every
//!   per-lane delta ([`DeltaBuf::seq`]). [`ShardedView::apply`] asserts
//!   the sequence advances by exactly one and that the view was built
//!   from this engine at this layout epoch — so applying a batch twice,
//!   skipping one, or mixing up two engines all panic with a clear
//!   message instead of silently corrupting the mirror.
//! * **Zero steady-state allocations.** Each lane scatters into its own
//!   pre-allocated sub-batch and reports into its own [`DeltaBuf`]
//!   scratch; the merge appends into the caller's warm buffer. After
//!   warm-up the batch path performs no heap allocations (asserted by
//!   the counting-allocator test in `tests/alloc.rs`).
//!
//! Crash redundancy lives outside the engine: [`crate::wal`] logs every
//! batch, [`crate::wal::recover`] rebuilds the engine from a snapshot
//! plus the logged batches, and a [`crate::wal::FollowerView`] tails the
//! log on another thread or process.
//!
//! # Quickstart
//!
//! ```
//! use bds_graph::api::{DeltaBuf, FullyDynamic};
//! use bds_graph::shard::{MirrorSpanner, ShardedEngineBuilder, ShardedView};
//! use bds_graph::types::{Edge, UpdateBatch};
//!
//! let n = 100;
//! let edges: Vec<Edge> = (1..40).map(|i| Edge::new(0, i)).collect();
//! // Four lanes; the factory builds lane `i` over the edges routed to it.
//! let mut engine = ShardedEngineBuilder::new(n)
//!     .shards(4)
//!     .build_with(&edges, |_i, shard_edges| MirrorSpanner::build(n, shard_edges))
//!     .unwrap();
//! let mut view = ShardedView::of(&engine);
//!
//! let mut delta = DeltaBuf::new();
//! let batch = UpdateBatch {
//!     insertions: vec![Edge::new(40, 41)],
//!     deletions: vec![edges[0], edges[1]],
//! };
//! engine.apply_into(&batch, &mut delta);
//! assert_eq!(delta.recourse(), 3);
//! view.apply(&engine);
//! assert!(view.contains(Edge::new(40, 41)));
//! assert_eq!(view.len(), 38);
//! ```

use crate::api::{
    validate_edge_forms, validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental,
    DeltaBuf, FullyDynamic, SpannerView,
};
use crate::csr::CsrGraph;
use crate::types::{Edge, UpdateBatch, V};
use bds_dstruct::edge_table::PREFETCH_DEPTH;
use bds_dstruct::EdgeTable;
// Engine-id allocation is a process-global static, so it lives on the
// facade's `global` escape (a loom location cannot sit in a `static`);
// the uniqueness argument is a single atomic RMW, model-checked over
// the facade type by `serve`'s `model_engine_identity_*` test.
use bds_par::sync::global::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// A deterministic edge→shard map.
///
/// The contract: `shard_of(e, k)` is a pure function of the canonical
/// edge and `k`, with `shard_of(e, k) < k` — the same edge must route to
/// the same shard every time it appears (insert, delete, query).
pub trait Partitioner: Clone + Send + Sync {
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize;
}

/// The partitioner: the workspace's SplitMix64 avalanche
/// ([`bds_dstruct::fx::mix64`]) over the packed canonical edge key.
/// Balanced in expectation for any input distribution, at the cost of
/// no endpoint locality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    #[inline]
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize {
        (bds_dstruct::fx::mix64(e.key()) % num_shards as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

/// One lane: its shard structure and the delta scratch it reports
/// into, the sub-batch the scatter fills, and the engine-tracked live
/// input edges routed here. Keeping everything a worker touches
/// adjacent means the parallel fan-out hands each worker one exclusive
/// `&mut Lane`.
struct Lane<S> {
    shard: S,
    delta: DeltaBuf,
    sub: UpdateBatch,
    live: EdgeTable,
}

impl<S> Lane<S> {
    /// Lane `i` over exactly `edges`: index them in the live table,
    /// failing on the first duplicate, then build the shard with
    /// `factory(i, edges)`.
    fn build<E>(
        i: usize,
        edges: &[Edge],
        factory: impl FnOnce(usize, &[Edge]) -> Result<S, E>,
    ) -> Result<Self, ConfigError>
    where
        ConfigError: From<E>,
    {
        let mut live = EdgeTable::with_capacity(edges.len());
        for &e in edges {
            if live.insert(e.u, e.v, 1).is_some() {
                return Err(ConfigError::DuplicateEdge(e));
            }
        }
        Ok(Lane {
            shard: factory(i, edges)?,
            delta: DeltaBuf::new(),
            sub: UpdateBatch::default(),
            live,
        })
    }
}

/// Which trait entry point a fan-out round drives on every lane.
#[derive(Clone, Copy)]
enum Op {
    Delete,
    Insert,
    Apply,
}

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-lane load statistics (see [`ShardedEngine::lane_loads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneLoad {
    /// Live input edges currently routed to this lane.
    pub live_edges: usize,
}

/// A dispatcher that owns N lanes of shard structures behind one
/// [`FullyDynamic`] surface. See the [module docs](self) for the
/// contract and a quickstart.
pub struct ShardedEngine<S, P: Partitioner = HashPartitioner> {
    n: usize,
    lanes: Vec<Lane<S>>,
    part: P,
    /// Monotone batch sequence number (stamped into every delta).
    seq: u64,
    /// Layout epoch: 0 at build, the logged value after
    /// [`crate::wal::recover`]; views, logs and snapshots bind to it.
    layout: u64,
    /// Process-unique identity; views bind to it.
    id: u64,
}

/// Typed builder for [`ShardedEngine`]: the shard count, then a
/// per-shard factory.
#[derive(Debug, Clone)]
pub struct ShardedEngineBuilder {
    n: usize,
    shards: usize,
}

impl ShardedEngineBuilder {
    /// Typed builder: `ShardedEngineBuilder::new(n).shards(k)
    /// .build_with(&edges, factory)` — the shard type is fixed by the
    /// factory passed to [`ShardedEngineBuilder::build_with`].
    pub fn new(n: usize) -> Self {
        ShardedEngineBuilder { n, shards: 2 }
    }

    /// Number of shards (default 2). Fixed for the engine's lifetime.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Build the engine: the initial edges are routed by
    /// [`HashPartitioner`], and `factory(i, shard_edges)` builds shard
    /// `i` over exactly the edges routed to it (their order follows the
    /// input).
    ///
    /// The lanes are built at once, one pool task per lane, so the
    /// factory runs concurrently, once per lane (a single lane is built
    /// on the caller at full width). It must be deterministic in
    /// `(i, shard_edges)`: that is what makes the engine independent of
    /// the thread count, and what lets [`crate::wal::recover`] rebuild
    /// an identical engine. Each lane checks its edges for duplicates
    /// while indexing them; if several lanes fail, the error is the
    /// first failing lane's.
    pub fn build_with<S: FullyDynamic + Send, E>(
        self,
        edges: &[Edge],
        factory: impl Fn(usize, &[Edge]) -> Result<S, E> + Sync + Send,
    ) -> Result<ShardedEngine<S>, ConfigError>
    where
        ConfigError: From<E>,
    {
        if self.shards < 1 {
            return Err(ConfigError::InvalidParam {
                name: "shards",
                reason: "at least one shard is required",
            });
        }
        validate_edge_forms(self.n, edges)?;
        let part = HashPartitioner;
        let mut routed: Vec<Vec<Edge>> = vec![Vec::new(); self.shards];
        for &e in edges {
            routed[part.shard_of(e, self.shards)].push(e);
        }
        let ids: Vec<usize> = (0..self.shards).collect();
        // INVARIANT: every id is below self.shards == routed.len().
        let lanes = bds_par::par_map_grain(&ids, 1, |&i| Lane::build(i, &routed[i], &factory))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine {
            n: self.n,
            lanes,
            part,
            seq: 0,
            layout: 0,
            // ordering: Relaxed — unique-ID allocation only; no other
            // state is published through the counter.
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }
}

impl<S, P: Partitioner> ShardedEngine<S, P> {
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    pub fn partitioner(&self) -> &P {
        &self.part
    }

    /// Monotone batch sequence number: the number of update batches this
    /// engine has applied. Stamped into every produced delta.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Layout epoch: 0 for a freshly built engine; a recovered engine
    /// answers with the epoch its log was written at. The WAL stamps it
    /// into log and snapshot headers (so recovery rejects artifacts cut
    /// at different layouts), and a [`ShardedView`] binds to it.
    pub fn layout_epoch(&self) -> u64 {
        self.layout
    }

    /// Process-unique engine identity. Views bind to it, and
    /// [`crate::wal`] stamps it into log and snapshot headers so a
    /// recovery can reject artifacts from a different engine.
    pub fn engine_id(&self) -> u64 {
        self.id
    }

    /// Adopt a logged identity after crash recovery: the recovered
    /// engine *is* the logical engine the WAL described, so it must
    /// answer with the logged id, layout epoch, and batch seq — not the
    /// fresh ones its in-process rebuild produced. Crate-internal:
    /// only [`crate::wal::recover`] may re-stamp identity.
    pub(crate) fn restore_identity(&mut self, id: u64, layout: u64, seq: u64) {
        self.id = id;
        self.layout = layout;
        self.seq = seq;
    }

    /// The shard structure of lane `i` (read side; updates must go
    /// through the engine so routing and deltas stay consistent).
    pub fn shard(&self, i: usize) -> &S {
        &self.lanes[i].shard
    }

    /// Per-lane load statistics: live input edges per lane. Allocates
    /// one vector (diagnostics path, not the batch path).
    pub fn lane_loads(&self) -> Vec<LaneLoad> {
        self.lanes
            .iter()
            .map(|lane| LaneLoad {
                live_edges: lane.live.len(),
            })
            .collect()
    }

    /// Whether `e` (canonical) is a live input edge: one partitioner
    /// route plus one probe of the owning lane's live table. This is
    /// the membership the serving coalescer checks updates against.
    pub(crate) fn contains_input(&self, e: Edge) -> bool {
        self.lanes[self.part.shard_of(e, self.lanes.len())]
            .live
            .contains(e.u, e.v)
    }

    /// Route `deletions`/`insertions` into the per-lane sub-batches
    /// (cleared first; capacity is retained, so the steady state does
    /// not allocate) and keep the per-lane live-edge tables current.
    fn scatter(&mut self, insertions: &[Edge], deletions: &[Edge]) {
        let k = self.lanes.len();
        for lane in &mut self.lanes {
            lane.sub.insertions.clear();
            lane.sub.deletions.clear();
        }
        let part = &self.part;
        let lanes = &mut self.lanes;
        for &e in deletions {
            let lane = &mut lanes[part.shard_of(e, k)];
            lane.sub.deletions.push(e);
            let old = lane.live.remove(e.u, e.v);
            assert!(old.is_some(), "deleting edge {e:?} not live on its lane");
        }
        for &e in insertions {
            let lane = &mut lanes[part.shard_of(e, k)];
            lane.sub.insertions.push(e);
            let old = lane.live.insert(e.u, e.v, 1);
            assert!(
                old.is_none(),
                "inserting edge {e:?} already live on its lane"
            );
        }
    }

    /// Every live input edge currently routed across the lanes — the
    /// engine-maintained membership of G, not the structures' outputs.
    /// Arbitrary order.
    pub fn live_input_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.lanes
            .iter()
            .flat_map(|l| l.live.iter().map(|(u, v, _)| Edge { u, v }))
    }
}

impl<S: FullyDynamic + Send, P: Partitioner> ShardedEngine<S, P> {
    /// Fan one scattered batch out across every lane in parallel and
    /// merge the per-lane deltas into `out`, stamped with the new batch
    /// sequence number.
    fn fan_out_merge(&mut self, op: Op, out: &mut DeltaBuf) {
        bds_par::par_for_each_task(&mut self.lanes, |lane| {
            let Lane {
                shard, delta, sub, ..
            } = lane;
            // Structures treat an empty batch as a no-op with an empty
            // delta, so idle shards stay cheap; calling through keeps
            // that contract observable.
            match op {
                Op::Delete => shard.delete_into(&sub.deletions, delta),
                Op::Insert => shard.insert_into(&sub.insertions, delta),
                Op::Apply => shard.apply_into(sub, delta),
            }
        });
        self.seq += 1;
        out.clear();
        for lane in &mut self.lanes {
            lane.delta.stamp_seq(self.seq);
            out.merge_from(&lane.delta);
        }
        // Shards own disjoint edges, so cross-shard cancellation cannot
        // occur — this is pure defense-in-depth, and it exercises the
        // weight-lane-safe netting on every merged batch.
        out.net();
        out.stamp_seq(self.seq);
    }
}

impl<S: FullyDynamic + Send, P: Partitioner> BatchDynamic for ShardedEngine<S, P> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.lanes.iter().map(|l| l.shard.num_live_edges()).sum()
    }

    /// Materializes the union of shard outputs. Unlike the
    /// batch path this is a snapshot API: it allocates one temporary
    /// per-shard scratch per call (the `&self` signature precludes
    /// reusing engine-owned scratch) — steady-state readers should
    /// mirror batches into a [`ShardedView`] instead.
    fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        let mut scratch = DeltaBuf::new();
        for lane in &self.lanes {
            lane.shard.output_into(&mut scratch);
            out.merge_from(&scratch);
        }
    }

    fn stats(&self) -> BatchStats {
        let mut agg = BatchStats::default();
        for lane in &self.lanes {
            agg += lane.shard.stats();
        }
        agg
    }

    fn batch_seq(&self) -> u64 {
        self.seq
    }
}

impl<S: FullyDynamic + Send, P: Partitioner> Decremental for ShardedEngine<S, P> {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.scatter(&[], deletions);
        self.fan_out_merge(Op::Delete, out);
    }
}

impl<S: FullyDynamic + Send, P: Partitioner> FullyDynamic for ShardedEngine<S, P> {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.scatter(insertions, &[]);
        self.fan_out_merge(Op::Insert, out);
    }

    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        self.scatter(&batch.insertions, &batch.deletions);
        self.fan_out_merge(Op::Apply, out);
    }
}

// ---------------------------------------------------------------------------
// ShardedView
// ---------------------------------------------------------------------------

/// Per-shard [`SpannerView`] mirrors composed behind the one-epoch read
/// API: point queries route through the engine's partitioner to the
/// owning lane's mirror, aggregate
/// queries union the shards. Advance it exactly once per engine batch
/// with [`ShardedView::apply`]; cloning pins an epoch, exactly like
/// [`SpannerView`].
///
/// A view is bound to the engine it was built from (its identity and
/// layout epoch) and to the batch sequence it last saw: applying a batch
/// twice, skipping one, or applying against a different engine (or one
/// at another layout epoch) panics with a clear message instead of
/// silently corrupting the mirror. A view that lapsed — or must follow
/// another engine, such as a recovered one — is rebuilt with
/// [`ShardedView::of`], or re-seeded in place with
/// [`ShardedView::reseed`], which reuses its allocations.
///
/// **Clone semantics.** `clone()` is a deep, fully independent snapshot
/// of the mirror at its current epoch: it shares no state with the
/// original or the engine, never advances, and its drop order is
/// irrelevant — a dropped (or leaked) clone can never block a writer.
/// This is the safe-but-O(len) way to pin an epoch; the concurrent
/// serving path ([`crate::serve`]) instead pins one of two long-lived
/// buffers with an RAII epoch guard, which is O(1) per pin and is the
/// thing that actually requires a release discipline.
#[derive(Debug, Clone)]
pub struct ShardedView<P: Partitioner = HashPartitioner> {
    n: usize,
    views: Vec<SpannerView>,
    part: P,
    epoch: u64,
    engine_id: u64,
    layout: u64,
    seq: u64,
}

impl<P: Partitioner> ShardedView<P> {
    /// A view mirroring `engine`'s current per-lane outputs, at
    /// epoch 0, bound to the engine's identity, layout epoch, and batch
    /// sequence.
    pub fn of<S: FullyDynamic + Send>(engine: &ShardedEngine<S, P>) -> Self {
        // Lane outputs are read here (the shards need not be `Sync`);
        // the mirrors are seeded from them at once, one task per lane.
        let outputs: Vec<DeltaBuf> = engine
            .lanes
            .iter()
            .map(|lane| {
                let mut out = DeltaBuf::new();
                lane.shard.output_into(&mut out);
                out
            })
            .collect();
        let (n, seq) = (engine.n, engine.seq);
        let views = bds_par::par_map_grain(&outputs, 1, |out| {
            let mut v = SpannerView::new(n);
            v.reseed(out, seq);
            v
        });
        Self {
            n: engine.n,
            views,
            part: engine.part.clone(),
            epoch: 0,
            engine_id: engine.id,
            layout: engine.layout,
            seq: engine.seq,
        }
    }

    /// Re-seed this view in place from `engine`'s current state: the
    /// allocation-reusing equivalent of [`ShardedView::of`] for
    /// long-lived mirrors, and the supported way to resynchronize a
    /// view that missed batches (or to re-bind it to another engine)
    /// without discarding warm table capacity. Lane mirrors are
    /// rebuilt from the lane outputs through `scratch`; the view
    /// re-binds to the engine's identity, layout epoch, and batch
    /// sequence, and the epoch restarts at 0.
    pub fn reseed<S: FullyDynamic + Send>(
        &mut self,
        engine: &ShardedEngine<S, P>,
        scratch: &mut DeltaBuf,
    ) {
        self.views.truncate(engine.lanes.len());
        let kept = self.views.len();
        for (view, lane) in self.views.iter_mut().zip(&engine.lanes) {
            view.reseed_from_output(&lane.shard, scratch);
            view.resync_seq(engine.seq);
        }
        for lane in engine.lanes.iter().skip(kept) {
            let mut v = SpannerView::from_output(engine.n, &lane.shard);
            v.resync_seq(engine.seq);
            self.views.push(v);
        }
        self.n = engine.n;
        self.part = engine.part.clone();
        self.epoch = 0;
        self.engine_id = engine.id;
        self.layout = engine.layout;
        self.seq = engine.seq;
    }

    /// Advance every per-lane mirror by the engine's most recent batch
    /// deltas and bump the (single) epoch. Call exactly once per engine
    /// batch: the engine's sequence number must be exactly one ahead of
    /// what this view last saw, from the same engine at the same
    /// layout epoch — anything else panics (the three silent drift
    /// modes: double apply, skipped batch, wrong engine; plus a stale
    /// layout epoch).
    pub fn apply<S>(&mut self, engine: &ShardedEngine<S, P>) {
        assert_eq!(
            self.engine_id, engine.id,
            "sharded view drift: this view mirrors a different engine \
             (view was built from engine #{}, applied against engine #{})",
            self.engine_id, engine.id
        );
        assert_eq!(
            self.layout, engine.layout,
            "sharded view is stale: it was built at layout epoch {} but the engine is at \
             layout epoch {}; rebuild it with ShardedView::of",
            self.layout, engine.layout
        );
        match engine.seq {
            s if s == self.seq + 1 => {}
            s if s == self.seq => panic!(
                "sharded view drift: engine batch #{s} was already applied to this view \
                 (double apply)"
            ),
            s if s > self.seq => panic!(
                "sharded view drift: the engine is at batch #{s} but this view last saw \
                 #{}; {} batch(es) were skipped",
                self.seq,
                s - self.seq - 1
            ),
            s => panic!(
                "sharded view drift: the engine is at batch #{s}, behind this view at #{}",
                self.seq
            ),
        }
        for (view, lane) in self.views.iter_mut().zip(&engine.lanes) {
            view.apply(&lane.delta);
        }
        self.seq = engine.seq;
        self.epoch += 1;
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of engine batches applied since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine batch sequence number this view last mirrored.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub fn num_shards(&self) -> usize {
        self.views.len()
    }

    /// Total number of mirrored edges across all shards.
    pub fn len(&self) -> usize {
        self.views.iter().map(SpannerView::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.views.iter().all(SpannerView::is_empty)
    }

    /// O(1): routes to the owning shard's mirror.
    pub fn contains(&self, e: Edge) -> bool {
        self.views[self.part.shard_of(e, self.views.len())].contains(e)
    }

    /// Weight of `e` in the union (1.0 for unweighted sets).
    pub fn weight(&self, e: Edge) -> Option<f64> {
        self.views[self.part.shard_of(e, self.views.len())].weight(e)
    }

    /// Degree of `v` in the union (a vertex's edges span shards).
    pub fn degree(&self, v: V) -> u32 {
        self.views.iter().map(|view| view.degree(v)).sum()
    }

    /// Answer a batch of membership queries into `out` (cleared and
    /// resized to `queries.len()`). Each query is routed to its lane
    /// and its home slot prefetched [`PREFETCH_DEPTH`] queries ahead of
    /// its probe, so a batch's cache misses overlap instead of queueing;
    /// above the parallel grain, contiguous chunks run that pipeline on
    /// the pool ([`bds_par::par_map_chunks`]). Zero steady-state
    /// allocations once `out`'s capacity is warm — this is the
    /// `BatchConnected`-shaped read path of the batch-dynamic
    /// connectivity literature, answered against one consistent epoch.
    pub fn batch_contains(&self, queries: &[Edge], out: &mut Vec<bool>) {
        out.clear();
        out.resize(queries.len(), false);
        self.probe_pipelined(queries, out, SpannerView::contains);
    }

    /// Batch [`ShardedView::degree`] (union degrees) into `out`; same
    /// contract as [`ShardedView::batch_contains`].
    pub fn batch_degree(&self, queries: &[V], out: &mut Vec<u32>) {
        out.clear();
        out.resize(queries.len(), 0);
        bds_par::par_map_slice(queries, out, |&v| self.degree(v));
    }

    /// Batch [`ShardedView::weight`] into `out`; same contract as
    /// [`ShardedView::batch_contains`].
    pub fn batch_weight(&self, queries: &[Edge], out: &mut Vec<Option<f64>>) {
        out.clear();
        out.resize(queries.len(), None);
        self.probe_pipelined(queries, out, SpannerView::weight);
    }

    /// `out[i] = probe(lane of queries[i], queries[i])`, routing and
    /// prefetching each query [`PREFETCH_DEPTH`] queries before its
    /// probe. The lanes of the queries in flight wait in a ring, so each
    /// query is routed once.
    fn probe_pipelined<R: Send>(
        &self,
        queries: &[Edge],
        out: &mut [R],
        probe: impl Fn(&SpannerView, Edge) -> R + Sync + Send,
    ) {
        let lanes = self.views.len();
        let route = |e: Edge| {
            let lane = self.part.shard_of(e, lanes);
            // INVARIANT: shard_of returns a lane < lanes = views.len().
            self.views[lane].prefetch(e);
            lane
        };
        bds_par::par_map_chunks(queries, out, |qs, os| {
            let mut ring = [0usize; PREFETCH_DEPTH];
            for (slot, &e) in ring.iter_mut().zip(qs) {
                *slot = route(e);
            }
            for (i, (&e, o)) in qs.iter().zip(os.iter_mut()).enumerate() {
                // INVARIANT: PREFETCH_DEPTH is a power of two, so the
                // masked index is < PREFETCH_DEPTH = ring.len().
                let slot = &mut ring[i & (PREFETCH_DEPTH - 1)];
                let lane = *slot;
                if let Some(&ahead) = qs.get(i + PREFETCH_DEPTH) {
                    *slot = route(ahead);
                }
                // INVARIANT: lane came from `route`, so < views.len().
                *o = probe(&self.views[lane], e);
            }
        });
    }

    /// Iterate the union of mirrored edges (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.views.iter().flat_map(SpannerView::iter)
    }

    /// The union of mirrored edges as a fresh vector, in
    /// [`ShardedView::iter`]'s order: one branch-free scan per lane into
    /// storage sized once for the union.
    pub fn edges(&self) -> Vec<Edge> {
        // One spare entry: a lane's scan writes one past its last edge.
        let mut out = Vec::with_capacity(self.len() + 1);
        for view in &self.views {
            view.edges_into(&mut out);
        }
        out
    }

    /// Materialize a CSR snapshot of the union at the current epoch
    /// (allocates; independent of later `apply` calls).
    pub fn to_csr(&self) -> CsrGraph {
        CsrGraph::from_edges(self.n, &self.edges())
    }
}

// ---------------------------------------------------------------------------
// MirrorSpanner — the identity structure
// ---------------------------------------------------------------------------

/// The identity [`FullyDynamic`] structure: maintains H = G exactly
/// (every live edge is in the output, every batch's delta is the batch
/// itself). It exists for harnesses — dispatcher tests, allocation
/// proofs, examples — that need a real trait implementor whose behavior
/// is fully predictable; its steady-state churn path is allocation-free.
#[derive(Debug, Default)]
pub struct MirrorSpanner {
    n: usize,
    /// Canonical edge -> 1 (packed-key flat table).
    live: bds_dstruct::EdgeTable,
    recourse: u64,
}

impl MirrorSpanner {
    /// Build over `n` vertices with `edges` initially live.
    pub fn build(n: usize, edges: &[Edge]) -> Result<Self, ConfigError> {
        validate_edges(n, edges)?;
        let mut live = bds_dstruct::EdgeTable::new();
        for e in edges {
            live.insert(e.u, e.v, 1);
        }
        Ok(Self {
            n,
            live,
            recourse: 0,
        })
    }

    pub fn contains(&self, e: Edge) -> bool {
        self.live.contains(e.u, e.v)
    }
}

impl BatchDynamic for MirrorSpanner {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_live_edges(&self) -> usize {
        self.live.len()
    }

    fn output_into(&self, out: &mut DeltaBuf) {
        out.clear();
        for (u, v, _) in self.live.iter() {
            out.push_ins(Edge { u, v });
        }
    }

    fn stats(&self) -> BatchStats {
        BatchStats {
            recourse: self.recourse,
            ..BatchStats::default()
        }
    }
}

impl Decremental for MirrorSpanner {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        for &e in deletions {
            assert!(
                self.live.remove(e.u, e.v).is_some(),
                "delete of absent edge {e:?}"
            );
            out.push_del(e);
        }
        self.recourse += out.recourse() as u64;
    }
}

impl FullyDynamic for MirrorSpanner {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        out.clear();
        for &e in insertions {
            assert!(
                self.live.insert(e.u, e.v, 1).is_none(),
                "insert of present edge {e:?}"
            );
            out.push_ins(e);
        }
        self.recourse += out.recourse() as u64;
    }

    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        out.clear();
        for &e in &batch.deletions {
            assert!(
                self.live.remove(e.u, e.v).is_some(),
                "delete of absent edge {e:?}"
            );
            out.push_del(e);
        }
        for &e in &batch.insertions {
            assert!(
                self.live.insert(e.u, e.v, 1).is_none(),
                "insert of present edge {e:?}"
            );
            out.push_ins(e);
        }
        self.recourse += out.recourse() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::stream::UpdateStream;
    use bds_dstruct::FxHashMap;
    use bds_par::GRAIN;

    type Shadow = FxHashMap<Edge, u64>;

    fn shadow_of(s: &impl BatchDynamic) -> Shadow {
        let mut buf = DeltaBuf::new();
        s.output_into(&mut buf);
        let mut m = Shadow::default();
        buf.apply_weighted_to(&mut m);
        m
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            ShardedEngineBuilder::new(10)
                .shards(0)
                .build_with(&[], move |_, es| MirrorSpanner::build(10, es)),
            Err(ConfigError::InvalidParam { name: "shards", .. })
        ));
        assert!(matches!(
            ShardedEngineBuilder::new(3)
                .shards(2)
                .build_with(&[Edge::new(0, 9)], move |_, es| MirrorSpanner::build(3, es)),
            Err(ConfigError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn duplicates_fail_in_the_first_failing_lane_at_every_width() {
        let (n, k) = (50, 3);
        let edges = gen::gnm(n, 200, 7);
        let on = |lane| {
            edges
                .iter()
                .copied()
                .find(|&e| HashPartitioner.shard_of(e, k) == lane)
                .unwrap()
        };
        // Lanes 1 and 2 each see one edge twice; lane 0 is clean.
        let mut dup = edges.clone();
        dup.push(on(2));
        dup.push(on(1));
        for threads in [1, 2] {
            let build = |input: &[Edge]| {
                bds_par::run_with_threads(threads, || {
                    ShardedEngineBuilder::new(n)
                        .shards(k)
                        .build_with(input, move |_, es| {
                            let mut sorted = es.to_vec();
                            sorted.sort_unstable();
                            sorted.dedup();
                            assert_eq!(sorted.len(), es.len(), "a factory saw a duplicate");
                            MirrorSpanner::build(n, es)
                        })
                        .map(|engine| engine.num_live_edges())
                })
            };
            assert_eq!(build(&edges), Ok(edges.len()), "threads = {threads}");
            assert_eq!(
                build(&dup),
                Err(ConfigError::DuplicateEdge(on(1))),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn partitioners_are_deterministic_and_in_range() {
        let edges = gen::gnm(64, 300, 5);
        for k in [1usize, 2, 3, 7, 16] {
            for &e in &edges {
                let h = HashPartitioner.shard_of(e, k);
                assert!(h < k);
                assert_eq!(h, HashPartitioner.shard_of(e, k));
            }
        }
    }

    #[test]
    fn sharded_mirror_tracks_the_graph() {
        let n = 80;
        let init = gen::gnm_connected(n, 240, 11);
        for shards in [1usize, 3, 5] {
            let mut engine = ShardedEngineBuilder::new(n)
                .shards(shards)
                .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
                .unwrap();
            assert_eq!(engine.num_shards(), shards);
            assert_eq!(engine.num_live_edges(), init.len());
            let mut shadow = shadow_of(&engine);
            let mut view = ShardedView::of(&engine);
            let mut stream = UpdateStream::new(n, &init, 23);
            let mut buf = DeltaBuf::new();
            for round in 0..12 {
                let batch = stream.next_batch(9, 7);
                engine.apply_into(&batch, &mut buf);
                buf.apply_weighted_to(&mut shadow);
                view.apply(&engine);
                assert_eq!(engine.num_live_edges(), stream.live_edges().len());
                assert_eq!(
                    shadow_of(&engine),
                    shadow,
                    "round {round}: output diverged from delta replay"
                );
                assert_eq!(view.len(), shadow.len());
                assert_eq!(view.epoch(), round + 1);
                assert_eq!(view.seq(), engine.seq());
                for &e in stream.live_edges().iter().take(20) {
                    assert!(view.contains(e));
                }
            }
            // CSR union degree sums match the view's per-vertex degrees.
            let csr = view.to_csr();
            for v in 0..n as V {
                assert_eq!(csr.degree(v), view.degree(v) as usize);
            }
            // Lane loads account for every live edge exactly once.
            let loads = engine.lane_loads();
            assert_eq!(loads.len(), shards);
            assert_eq!(
                loads.iter().map(|l| l.live_edges).sum::<usize>(),
                engine.num_live_edges()
            );
        }
    }

    #[test]
    fn split_entry_points_match_mixed_batches() {
        let n = 40;
        let init = gen::gnm(n, 120, 3);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let mut shadow = shadow_of(&engine);
        let mut buf = DeltaBuf::new();
        let dels: Vec<Edge> = init.iter().copied().take(10).collect();
        engine.delete_into(&dels, &mut buf);
        assert_eq!(buf.deleted().len(), 10);
        assert_eq!(buf.seq(), 1);
        buf.apply_weighted_to(&mut shadow);
        engine.insert_into(&dels, &mut buf);
        assert_eq!(buf.inserted().len(), 10);
        assert_eq!(buf.seq(), 2);
        buf.apply_weighted_to(&mut shadow);
        assert_eq!(shadow_of(&engine), shadow);
        assert_eq!(engine.stats().recourse, 20);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut engine = ShardedEngineBuilder::new(10)
            .shards(2)
            .build_with(&[Edge::new(0, 1)], move |_, es| {
                MirrorSpanner::build(10, es)
            })
            .unwrap();
        let mut buf = DeltaBuf::new();
        engine.apply_into(&UpdateBatch::default(), &mut buf);
        assert_eq!(buf.recourse(), 0);
        assert_eq!(engine.num_live_edges(), 1);
        // Even an empty batch is a batch: the sequence advances and a
        // view must see it exactly once.
        assert_eq!(engine.seq(), 1);
    }

    // --- the three silent view-drift modes are now immediate panics ---

    fn drift_engine() -> (
        ShardedEngine<MirrorSpanner, HashPartitioner>,
        ShardedView<HashPartitioner>,
        DeltaBuf,
    ) {
        let n = 30;
        let init = gen::gnm(n, 60, 13);
        let engine = ShardedEngineBuilder::new(n)
            .shards(2)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let view = ShardedView::of(&engine);
        (engine, view, DeltaBuf::new())
    }

    #[test]
    fn from_output_anchors_a_mirror_at_the_engine_seq() {
        // A SpannerView seeded mid-stream from the engine's output must
        // accept the very next merged delta (BatchDynamic::batch_seq
        // anchors the sequence check) — not panic with a false drift.
        let (mut engine, _view, mut buf) = drift_engine();
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        let mut mirror = SpannerView::from_output(30, &engine);
        assert_eq!(mirror.seq(), engine.seq());
        engine.apply_into(&UpdateBatch::delete_only(vec![Edge::new(0, 29)]), &mut buf);
        mirror.apply(&buf);
        assert_eq!(mirror.seq(), 2);
        assert!(!mirror.contains(Edge::new(0, 29)));
    }

    #[test]
    #[should_panic(expected = "double apply")]
    fn view_double_apply_panics() {
        let (mut engine, mut view, mut buf) = drift_engine();
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        view.apply(&engine);
        view.apply(&engine); // same batch twice
    }

    #[test]
    #[should_panic(expected = "skipped")]
    fn view_skipped_batch_panics() {
        let (mut engine, mut view, mut buf) = drift_engine();
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        engine.apply_into(&UpdateBatch::delete_only(vec![Edge::new(0, 29)]), &mut buf);
        view.apply(&engine); // the first batch was never applied
    }

    #[test]
    #[should_panic(expected = "different engine")]
    fn view_cross_engine_apply_panics() {
        let (mut engine, _view, mut buf) = drift_engine();
        let (other_engine, mut other_view, _) = drift_engine();
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        // Same shard count, same seq delta — only the identity check
        // can catch this.
        drop(other_engine);
        other_view.apply(&engine);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn view_stale_layout_epoch_panics() {
        // A view bound to one layout epoch must not follow the same
        // engine id at another epoch (what a recovered engine adopting
        // a differently stamped log would look like).
        let (mut engine, mut view, mut buf) = drift_engine();
        let (id, seq) = (engine.engine_id(), engine.seq());
        engine.restore_identity(id, 1, seq);
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        view.apply(&engine);
    }

    // --- PR 6: cheap view re-seeding + parallel batch queries ---

    #[test]
    fn view_reseed_resyncs_a_lapsed_mirror() {
        let n = 80;
        let init = gen::gnm(n, 160, 31);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let mut view = ShardedView::of(&engine);
        let mut stream = UpdateStream::new(n, &init, 55);
        let mut buf = DeltaBuf::new();
        // The view lapses: three batches land without view.apply.
        for _ in 0..3 {
            let batch = stream.next_batch(12, 9);
            engine.apply_into(&batch, &mut buf);
        }
        let mut scratch = DeltaBuf::new();
        view.reseed(&engine, &mut scratch);
        assert_eq!(view.seq(), engine.seq());
        let shadow = shadow_of(&engine);
        assert_eq!(view.len(), shadow.len());
        for &e in shadow.keys() {
            assert!(view.contains(e));
        }
        // The reseeded view accepts the very next delta — no false drift.
        let batch = stream.next_batch(10, 10);
        engine.apply_into(&batch, &mut buf);
        view.apply(&engine);
        assert_eq!(shadow_of(&engine).len(), view.len());
        // Reseed also re-binds the view to another engine with a
        // different lane count.
        let live: Vec<Edge> = engine.live_input_edges().collect();
        let mut other = ShardedEngineBuilder::new(n)
            .shards(5)
            .build_with(&live, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        view.reseed(&other, &mut scratch);
        assert_eq!(view.num_shards(), 5);
        assert_eq!(view.seq(), other.seq());
        let batch = stream.next_batch(5, 5);
        other.apply_into(&batch, &mut buf);
        view.apply(&other);
        assert_eq!(shadow_of(&other).len(), view.len());
    }

    #[test]
    fn batch_queries_match_point_queries() {
        let n = 200;
        let init = gen::gnm(n, 500, 17);
        // Live edges alternate with absent probes, repeated out to the
        // longest batch.
        let absent = (0..n as u32 / 2)
            .map(|i| Edge::new(i, n as u32 - 1 - i))
            .filter(|e| !init.contains(e));
        let mixed: Vec<Edge> = init
            .iter()
            .take(40)
            .copied()
            .zip(absent)
            .flat_map(|(a, b)| [a, b])
            .collect();
        let queries: Vec<Edge> = mixed.iter().copied().cycle().take(GRAIN + 1).collect();
        let (mut got_c, mut got_w) = (Vec::new(), Vec::new());
        for shards in 1..=3 {
            let engine = ShardedEngineBuilder::new(n)
                .shards(shards)
                .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
                .unwrap();
            let view = ShardedView::of(&engine);
            // Below, at and just past one prefetch window; the served
            // burst; the parallel path.
            for len in [0, 1, 15, 16, 17, 1024, GRAIN + 1] {
                let qs = &queries[..len];
                view.batch_contains(qs, &mut got_c);
                view.batch_weight(qs, &mut got_w);
                assert_eq!((got_c.len(), got_w.len()), (len, len));
                for (i, &e) in qs.iter().enumerate() {
                    let at = (shards, len, e);
                    assert_eq!(got_c[i], view.contains(e), "contains {at:?}");
                    assert_eq!(got_w[i], view.weight(e), "weight {at:?}");
                    assert_eq!(got_c[i], i % 2 == 0, "{at:?}: live edges alternate");
                }
            }
            let verts: Vec<V> = (0..n as V).collect();
            let mut got_d = Vec::new();
            view.batch_degree(&verts, &mut got_d);
            assert_eq!(got_d.len(), n);
            let total: u64 = got_d.iter().map(|&d| d as u64).sum();
            assert_eq!(total, 2 * view.len() as u64);
            for &v in &verts {
                assert_eq!(got_d[v as usize], view.degree(v));
            }
        }
    }

    #[test]
    fn cloned_view_is_an_independent_snapshot() {
        // Satellite bugfix audit: `ShardedView::clone` is a deep copy,
        // not an epoch pin — there is no writer-side buffer a dropped
        // clone could wedge. A clone freezes its snapshot while the
        // original advances; the serve module's RAII guard is the O(1)
        // pin path.
        let (mut engine, view, mut buf) = drift_engine();
        let snap = view.clone();
        let e = Edge::new(0, 29);
        assert!(!snap.contains(e));
        engine.apply_into(&UpdateBatch::insert_only(vec![e]), &mut buf);
        let mut live = view;
        live.apply(&engine);
        assert!(live.contains(e));
        assert!(!snap.contains(e), "clone must not observe later batches");
        assert_eq!(snap.seq(), 0);
        assert_eq!(live.seq(), 1);
        drop(snap); // dropping a clone wedges nothing
        engine.apply_into(&UpdateBatch::delete_only(vec![e]), &mut buf);
        live.apply(&engine);
        assert!(!live.contains(e));
    }
}
