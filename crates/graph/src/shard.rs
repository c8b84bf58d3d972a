//! Elastic sharded serving: one [`FullyDynamic`] surface over N
//! independent shard structures.
//!
//! The unified traits of [`crate::api`] take `&mut self` on a single
//! structure. This module is the scaling layer on top of that contract:
//! a [`ShardedEngine`] owns N lanes, each holding one independently
//! built shard structure, partitions every update batch by a
//! deterministic edge→shard map (a [`Partitioner`]), fans the per-lane
//! sub-batches out across lanes in parallel via `bds_par`, and merges
//! the per-lane deltas back into the caller's single [`DeltaBuf`] — so
//! to a caller the dispatcher *is* a [`FullyDynamic`] structure. This
//! mirrors how parallel batch-dynamic connectivity structures scale by
//! re-partitioning work as the graph changes and how batch-dynamic
//! trees fan change propagation across independent pieces (Acar et al.).
//!
//! Invariants and contracts:
//!
//! * **Deterministic routing.** The partitioner is a pure function of
//!   the (canonical) edge and the shard count, so an edge's insertions
//!   and deletions always reach the same lane *between layout changes*.
//!   [`Partitioner::validate`] is checked at build and reshard time, so
//!   a partitioner built for the wrong vertex or shard count is a typed
//!   [`ConfigError`], not silent skew. Defaults: [`HashPartitioner`]
//!   (balance, no locality), [`VertexRangePartitioner`] (locality, and
//!   load-aware rebalancing via quantile cuts), [`JumpPartitioner`]
//!   (consistent hashing — a k→k+1 reshard moves only ~1/(k+1) of the
//!   edges instead of nearly all of them).
//! * **One owner of the live input set.** The engine tracks the live
//!   input edges per lane ([`ShardedEngine::live_input_edges`]); the
//!   serving layer ([`crate::serve`]) asks the engine for membership
//!   instead of keeping a copy of its own.
//! * **Elastic layout.** [`ShardedEngine::reshard`] changes the shard
//!   count in place: only the edges whose route changes move, as a
//!   delete batch on their old lane and an insert batch (or a fresh
//!   factory build, for brand-new lanes) on their new one — the engine
//!   stores the shard factory for exactly this. Because the engine
//!   tracks the live input edges per lane, reshard cost is proportional
//!   to the moved edges, not the graph.
//!   [`ShardedEngine::rebalance_if_skewed`] watches
//!   [`ShardedEngine::lane_loads`] and asks the partitioner for a
//!   load-evening equivalent of itself when the maximum lane exceeds
//!   [`DEFAULT_SKEW_THRESHOLD`] × the mean.
//! * **Sequence discipline.** Every batch bumps the engine's monotone
//!   sequence number, stamped into the caller's merged delta and every
//!   per-lane delta ([`DeltaBuf::seq`]). [`ShardedView::apply`] asserts
//!   the sequence advances by exactly one and that the view was built
//!   from this engine at this layout — so applying a batch twice,
//!   skipping one, mixing up two engines, or surviving a reshard /
//!   rebalance all panic with a clear message instead of silently
//!   corrupting the mirror.
//! * **Zero steady-state allocations.** Each lane scatters into its own
//!   pre-allocated sub-batch and reports into its own [`DeltaBuf`]
//!   scratch; the merge appends into the caller's warm buffer. After
//!   warm-up the batch path performs no heap allocations (asserted by
//!   the counting-allocator test in `tests/alloc.rs`). Reshard and
//!   rebalance allocate; they are maintenance, not the batch path.
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
//! use bds_graph::shard::{JumpPartitioner, MirrorSpanner, ShardedEngineBuilder, ShardedView};
//! use bds_graph::types::{Edge, UpdateBatch};
//!
//! let n = 100;
//! let edges: Vec<Edge> = (1..40).map(|i| Edge::new(0, i)).collect();
//! // Four lanes; the factory builds lane `i` over the edges routed to it.
//! let mut engine = ShardedEngineBuilder::new(n)
//!     .shards(4)
//!     .partitioner(JumpPartitioner::new())
//!     .build_with(&edges, move |_i, shard_edges| MirrorSpanner::build(n, shard_edges))
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
//!
//! // Elasticity: grow the fleet. The consistent-hash partitioner moves
//! // only a fraction of the edges; the view re-seeds after any layout
//! // change (applying the stale one would panic, not drift).
//! let stats = engine.reshard(5).unwrap();
//! assert_eq!(engine.num_shards(), 5);
//! assert!(stats.moved_edges < stats.total_edges);
//! let mut view = ShardedView::of(&engine);
//! engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(41, 42)]), &mut delta);
//! view.apply(&engine);
//! assert!(view.contains(Edge::new(41, 42)));
//! ```

use crate::api::{
    validate_edges, BatchDynamic, BatchStats, ConfigError, Decremental, DeltaBuf, FullyDynamic,
    SpannerView,
};
use crate::csr::CsrGraph;
use crate::types::{Edge, UpdateBatch, V};
use bds_dstruct::EdgeTable;
// Engine-id allocation is a process-global static, so it lives on the
// facade's `global` escape (a loom location cannot sit in a `static`);
// the uniqueness argument is a single atomic RMW, model-checked over
// the facade type by `serve`'s `model_engine_identity_*` test.
use bds_par::sync::global::{AtomicU64, Ordering};
use bds_par::sync::Arc;

// ---------------------------------------------------------------------------
// Endpoint histogram
// ---------------------------------------------------------------------------

/// Buckets in the engine-maintained lower-endpoint histogram. 256 is
/// coarse enough that per-update maintenance is one array increment and
/// a probe round is O(buckets + k), yet fine enough that bucket-aligned
/// quantile cuts land within ~0.4% of the ideal mass split.
pub const ENDPOINT_HIST_BUCKETS: usize = 256;

/// Bucket of lower endpoint `u` in a graph over `n` vertices (u64
/// arithmetic: `u * B` would overflow usize on 32-bit targets).
#[inline]
fn endpoint_bucket(u: V, n: usize) -> usize {
    (u as u64 * ENDPOINT_HIST_BUCKETS as u64 / n.max(1) as u64) as usize
}

/// A histogram of the lower endpoints of every live input edge, summed
/// over the engine's per-lane counters ([`ShardedEngine::endpoint_histogram`]).
///
/// This is what makes rebalance probing cheap: a partitioner whose
/// routing depends only on the lower endpoint can evaluate a candidate
/// layout's hypothetical lane loads from the histogram in O(buckets + k)
/// ([`Partitioner::loads_from_histogram`]) instead of the engine
/// re-routing every live edge in an O(m) scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointHistogram {
    n: usize,
    counts: Vec<u64>,
}

impl EndpointHistogram {
    /// The vertex count the bucket mapping was computed for.
    pub fn n(&self) -> usize {
        self.n
    }

    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Live edges whose lower endpoint falls in each bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total live edges.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bucket containing lower endpoint `u`.
    pub fn bucket_of(&self, u: V) -> usize {
        endpoint_bucket(u, self.n)
    }

    /// First vertex of bucket `b` (for `b == num_buckets`, `n`): the
    /// smallest `u` with `bucket_of(u) >= b`.
    pub fn bucket_start(&self, b: usize) -> V {
        if b >= self.counts.len() {
            return self.n as V;
        }
        ((b as u64 * self.n as u64).div_ceil(ENDPOINT_HIST_BUCKETS as u64)) as V
    }

    /// Whether a cut at vertex `x` lies exactly on a bucket boundary —
    /// the condition under which bucket counts split exactly across the
    /// cut. Cuts at or past `n` are trivially aligned (nothing above).
    pub fn cut_is_aligned(&self, x: V) -> bool {
        x as usize >= self.n || self.bucket_start(self.bucket_of(x)) == x
    }
}

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

/// A deterministic edge→shard map.
///
/// The contract: `shard_of(e, k)` is a pure function of the canonical
/// edge and `k`, with `shard_of(e, k) < k` — the same edge must route to
/// the same shard every time it appears (insert, delete, query), for as
/// long as the engine keeps one layout. Layout changes
/// ([`ShardedEngine::reshard`] / [`ShardedEngine::rebalance_if_skewed`])
/// re-route through the same contract at the new `k` (or the rebalanced
/// partitioner) and physically move exactly the edges whose route
/// changed.
pub trait Partitioner: Clone + Send + Sync {
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize;

    /// Validate this partitioner against an engine configuration before
    /// any edge is routed — checked at build and reshard time, so a
    /// mismatched partitioner (wrong vertex count, bounds computed for a
    /// different shard count) is a typed error instead of silent skew.
    /// Default: always valid.
    fn validate(&self, _n: usize, _num_shards: usize) -> Result<(), ConfigError> {
        Ok(())
    }

    /// A partitioner of the same kind adjusted to even out the observed
    /// per-lane loads (`lane_loads[i]` = live edges on lane `i`; its
    /// length is the current shard count), or `None` if this partitioner
    /// cannot rebalance. The result must validate for the same shard
    /// count. Default: `None`.
    fn rebalanced(&self, _lane_loads: &[usize]) -> Option<Self> {
        None
    }

    /// Like [`Partitioner::rebalanced`], with the engine's live
    /// lower-endpoint histogram available. Implementations that cut
    /// vertex space should align their cuts to histogram buckets so
    /// [`Partitioner::loads_from_histogram`] stays exact and the whole
    /// probe round runs in O(buckets + k). Default: delegate to
    /// [`Partitioner::rebalanced`].
    fn rebalanced_with(&self, lane_loads: &[usize], _hist: &EndpointHistogram) -> Option<Self> {
        self.rebalanced(lane_loads)
    }

    /// The *exact* hypothetical per-lane live-edge loads this
    /// partitioner would produce, computed from the lower-endpoint
    /// histogram alone — or `None` if its routing is not an exact
    /// function of whole histogram buckets (hash-family partitioners,
    /// or vertex cuts that split a bucket), in which case the engine
    /// falls back to an O(m) re-route scan. Implementations must return
    /// `Some` only when the result equals the scan's. Default: `None`.
    fn loads_from_histogram(
        &self,
        _hist: &EndpointHistogram,
        _num_shards: usize,
    ) -> Option<Vec<usize>> {
        None
    }
}

/// The default partitioner: the workspace's SplitMix64 avalanche
/// ([`bds_dstruct::fx::mix64`]) over the packed canonical edge key.
/// Balanced in expectation for any input distribution, at the cost of
/// no endpoint locality — and no reshard friendliness: changing `k`
/// re-routes almost every edge (use [`JumpPartitioner`] for elastic
/// deployments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    #[inline]
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize {
        (bds_dstruct::fx::mix64(e.key()) % num_shards as u64) as usize
    }
}

/// Jump consistent hashing (Lamping–Veach): `O(log k)` evaluation, no
/// state, and the defining property that growing `k` by one re-routes
/// only ~`1/(k+1)` of the keys — every other key keeps its bucket. Works
/// for any `k` (powers of two included, where modulo partitioners are at
/// their worst under doubling).
fn jump_consistent(mut key: u64, buckets: usize) -> usize {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        j = ((b.wrapping_add(1) as f64) * ((1u64 << 31) as f64 / ((key >> 33) as f64 + 1.0)))
            as i64;
    }
    b as usize
}

/// Consistent-hash partitioner for elastic layouts: a `k → k+1` reshard
/// moves only ~`1/(k+1)` of the edges (vs ~`k/(k+1)` for
/// [`HashPartitioner`]), so [`ShardedEngine::reshard`] stays
/// proportional to the *moved* edges. The salt perturbs the key stream;
/// [`Partitioner::rebalanced`] bumps it, which redraws the (already
/// balanced-in-expectation) assignment — a full reshuffle, the honest
/// cost of re-salting a hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JumpPartitioner {
    salt: u64,
}

impl JumpPartitioner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_salt(salt: u64) -> Self {
        Self { salt }
    }

    pub fn salt(&self) -> u64 {
        self.salt
    }
}

impl Partitioner for JumpPartitioner {
    #[inline]
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize {
        let key = bds_dstruct::fx::mix64(e.key() ^ bds_dstruct::fx::mix64(self.salt));
        jump_consistent(key, num_shards)
    }

    fn rebalanced(&self, _lane_loads: &[usize]) -> Option<Self> {
        Some(Self {
            salt: self.salt.wrapping_add(1),
        })
    }
}

/// Routes by the lower endpoint's position in `0..n`: locality over
/// balance. Uniform ranges by default; after
/// [`Partitioner::rebalanced`] the cut points are load-aware quantiles
/// (treating each old range's observed load as uniformly spread inside
/// it), so repeated rebalancing converges toward even lanes on skewed
/// vertex distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRangePartitioner {
    n: usize,
    /// `k - 1` ascending cut points; lane `i` owns `u` in
    /// `[bounds[i-1], bounds[i])`. `None` = uniform `n/k` slices.
    bounds: Option<Arc<[V]>>,
}

impl VertexRangePartitioner {
    pub fn new(n: usize) -> Self {
        Self {
            n: n.max(1),
            bounds: None,
        }
    }

    /// The load-aware cut points, if this partitioner has been
    /// rebalanced (`None` = uniform ranges).
    pub fn bounds(&self) -> Option<&[V]> {
        self.bounds.as_deref()
    }
}

impl Partitioner for VertexRangePartitioner {
    #[inline]
    fn shard_of(&self, e: Edge, num_shards: usize) -> usize {
        match &self.bounds {
            Some(b) => b.partition_point(|&cut| cut <= e.u).min(num_shards - 1),
            // u64 arithmetic: `u * k` would overflow usize on 32-bit
            // targets for high vertices, skewing them onto one shard.
            None => ((e.u as u64 * num_shards as u64) / self.n as u64).min(num_shards as u64 - 1)
                as usize,
        }
    }

    fn validate(&self, n: usize, num_shards: usize) -> Result<(), ConfigError> {
        if self.n != n {
            return Err(ConfigError::InvalidParam {
                name: "partitioner",
                reason:
                    "VertexRangePartitioner was built for a different vertex count than the engine",
            });
        }
        if let Some(b) = &self.bounds {
            if b.len() + 1 != num_shards {
                return Err(ConfigError::InvalidParam {
                    name: "partitioner",
                    reason:
                        "rebalanced VertexRangePartitioner bounds were computed for a different shard count",
                });
            }
        }
        Ok(())
    }

    fn rebalanced(&self, lane_loads: &[usize]) -> Option<Self> {
        let k = lane_loads.len();
        if k < 2 {
            return None;
        }
        let total: usize = lane_loads.iter().sum();
        if total == 0 {
            return None;
        }
        // Fenceposts of the current ranges in vertex space (k + 1).
        let fence: Vec<f64> = match &self.bounds {
            Some(b) => {
                if b.len() + 1 != k {
                    return None;
                }
                std::iter::once(0.0)
                    .chain(b.iter().map(|&x| x as f64))
                    .chain(std::iter::once(self.n as f64))
                    .collect()
            }
            None => (0..=k)
                .map(|i| i as f64 * self.n as f64 / k as f64)
                .collect(),
        };
        // Piecewise-uniform CDF: lane i spreads lane_loads[i] evenly
        // over [fence[i], fence[i+1]); cut at equal-mass quantiles.
        let step = total as f64 / k as f64;
        let mut bounds: Vec<V> = Vec::with_capacity(k - 1);
        let mut lane = 0usize;
        let mut below = 0.0; // mass strictly before `lane`
        for cut in 1..k {
            let target = step * cut as f64;
            while lane + 1 < k && below + lane_loads[lane] as f64 <= target {
                below += lane_loads[lane] as f64;
                lane += 1;
            }
            let mass = lane_loads[lane] as f64;
            let frac = if mass > 0.0 {
                ((target - below) / mass).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let x = fence[lane] + frac * (fence[lane + 1] - fence[lane]);
            let prev = bounds.last().copied().unwrap_or(0) as u64;
            bounds.push((x.round() as u64).clamp(prev, self.n as u64) as V);
        }
        Some(Self {
            n: self.n,
            bounds: Some(bounds.into()),
        })
    }

    /// Equal-mass quantile cuts snapped to histogram bucket boundaries:
    /// cut `c` lands at the start of the first bucket whose inclusion
    /// would push the left mass past `c/k` of the total. Snapping keeps
    /// every cut aligned, so [`Partitioner::loads_from_histogram`]
    /// evaluates the candidate exactly and the whole probe round is
    /// O(buckets + k) — no per-edge scan.
    fn rebalanced_with(&self, lane_loads: &[usize], hist: &EndpointHistogram) -> Option<Self> {
        let k = lane_loads.len();
        if k < 2 {
            return None;
        }
        if hist.n() != self.n {
            return self.rebalanced(lane_loads);
        }
        let total = hist.total();
        if total == 0 {
            return None;
        }
        let counts = hist.counts();
        let mut bounds: Vec<V> = Vec::with_capacity(k - 1);
        let mut cum = 0u64;
        let mut bk = 0usize;
        for cut in 1..k {
            let target = total * cut as u64 / k as u64;
            while bk < counts.len() && cum + counts[bk] <= target {
                cum += counts[bk];
                bk += 1;
            }
            bounds.push(hist.bucket_start(bk));
        }
        Some(Self {
            n: self.n,
            bounds: Some(bounds.into()),
        })
    }

    fn loads_from_histogram(
        &self,
        hist: &EndpointHistogram,
        num_shards: usize,
    ) -> Option<Vec<usize>> {
        if hist.n() != self.n || num_shards == 0 {
            return None;
        }
        // The effective lane cuts: explicit bounds, or the uniform
        // slices' first vertices (`shard_of`'s floor(u·k/n) assigns `u`
        // to lane i exactly when u >= ceil(i·n/k)).
        let cuts: Vec<V> = match &self.bounds {
            Some(b) => {
                if b.len() + 1 != num_shards {
                    return None;
                }
                b.to_vec()
            }
            None => (1..num_shards)
                .map(|i| (i as u64 * self.n as u64).div_ceil(num_shards as u64) as V)
                .collect(),
        };
        // Exactness requires every cut on a bucket boundary; a cut that
        // splits a bucket falls back to the engine's scan.
        if !cuts.iter().all(|&x| hist.cut_is_aligned(x)) {
            return None;
        }
        let mut loads = vec![0usize; num_shards];
        let mut lane = 0usize;
        for (bk, &c) in hist.counts().iter().enumerate() {
            let start = hist.bucket_start(bk);
            while lane + 1 < num_shards && cuts[lane] <= start {
                lane += 1;
            }
            loads[lane] += c as usize;
        }
        Some(loads)
    }
}

// ---------------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------------

/// One lane: its shard structure and the delta scratch it reports
/// into, the sub-batch the scatter fills, the engine-tracked live input
/// edges routed here, and the cumulative recourse load counter. Keeping
/// everything a worker touches adjacent means the parallel fan-out hands
/// each worker one exclusive `&mut Lane`.
struct Lane<S> {
    shard: S,
    delta: DeltaBuf,
    sub: UpdateBatch,
    live: EdgeTable,
    /// Lower-endpoint histogram of this lane's live edges
    /// ([`ENDPOINT_HIST_BUCKETS`] buckets), maintained incrementally by
    /// the scatter — the O(1)-per-update signal that lets rebalance
    /// probing evaluate candidates in O(buckets + k) instead of O(m).
    hist: Vec<u32>,
    recourse: u64,
}

impl<S> Lane<S> {
    /// A lane serving `shard`, which was built over exactly `edges`.
    fn new(shard: S, edges: &[Edge], n: usize) -> Self {
        let mut live = EdgeTable::with_capacity(edges.len());
        for e in edges {
            live.insert(e.u, e.v, 1);
        }
        let mut lane = Lane {
            shard,
            delta: DeltaBuf::new(),
            sub: UpdateBatch::default(),
            live,
            hist: Vec::new(),
            recourse: 0,
        };
        lane.rebuild_hist(n);
        lane
    }

    /// Recount `hist` from the live table (layout-change paths only;
    /// the batch path maintains it incrementally).
    fn rebuild_hist(&mut self, n: usize) {
        self.hist.clear();
        self.hist.resize(ENDPOINT_HIST_BUCKETS, 0);
        for (u, _, _) in self.live.iter() {
            self.hist[endpoint_bucket(u, n)] += 1;
        }
    }
}

/// Which trait entry point a fan-out round drives on every lane.
#[derive(Clone, Copy)]
enum Op {
    Delete,
    Insert,
    Apply,
}

/// The stored per-shard factory: build shard `lane` over exactly
/// `edges`. Kept boxed so [`ShardedEngine::reshard`] can construct
/// shards long after build time.
type Factory<S> = Box<dyn FnMut(usize, &[Edge]) -> Result<S, ConfigError> + Send>;

static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-lane load statistics (see [`ShardedEngine::lane_loads`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneLoad {
    /// Live input edges currently routed to this lane.
    pub live_edges: usize,
    /// Cumulative output recourse served through this lane.
    pub recourse: u64,
}

/// What a reshard did (see [`ShardedEngine::reshard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardStats {
    pub old_shards: usize,
    pub new_shards: usize,
    /// Edges whose lane changed (each one deleted from its old lane and
    /// inserted into — or built into — its new one).
    pub moved_edges: usize,
    /// Live edges at reshard time.
    pub total_edges: usize,
}

/// What [`ShardedEngine::rebalance_if_skewed`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceOutcome {
    /// Skew under the threshold (or nothing to balance); nothing moved.
    Balanced,
    /// The partitioner produced a load-evening equivalent and the engine
    /// re-routed through it.
    Rebalanced { moved_edges: usize },
    /// The partitioner cannot rebalance (`Partitioner::rebalanced`
    /// returned `None`, e.g. [`HashPartitioner`]).
    Unsupported,
}

/// Rebalance when the heaviest lane carries more than this multiple of
/// the mean live-edge load (see
/// [`ShardedEngine::rebalance_if_skewed`]): 2× is far outside the
/// variation a balanced hash produces, yet early enough that one lane
/// is not yet serving a majority of the traffic.
pub const DEFAULT_SKEW_THRESHOLD: f64 = 2.0;

/// How many candidate partitioners
/// [`ShardedEngine::rebalance_if_skewed_with`] probes (read-only)
/// before committing the best one with a single physical re-route.
pub const REBALANCE_PROBE_ROUNDS: usize = 8;

/// A dispatcher that owns N lanes of shard structures behind one
/// [`FullyDynamic`] surface. See the [module docs](self) for the
/// contract and a quickstart.
pub struct ShardedEngine<S, P: Partitioner = HashPartitioner> {
    n: usize,
    lanes: Vec<Lane<S>>,
    part: P,
    factory: Factory<S>,
    /// Monotone batch sequence number (stamped into every delta).
    seq: u64,
    /// Bumped on any layout change (reshard, rebalance); views bind
    /// to it.
    layout: u64,
    /// Process-unique identity; views bind to it.
    id: u64,
}

/// Typed builder for [`ShardedEngine`]: shard count and partitioner,
/// then a per-shard factory.
#[derive(Debug, Clone)]
pub struct ShardedEngineBuilder<P: Partitioner = HashPartitioner> {
    n: usize,
    shards: usize,
    part: P,
}

impl<P: Partitioner> ShardedEngineBuilder<P> {
    /// Number of shards (default 2).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replace the edge→shard map (default [`HashPartitioner`]).
    pub fn partitioner<Q: Partitioner>(self, part: Q) -> ShardedEngineBuilder<Q> {
        ShardedEngineBuilder {
            n: self.n,
            shards: self.shards,
            part,
        }
    }

    /// Build the engine: the initial edges are routed by the
    /// partitioner, and `factory(i, shard_edges)` builds shard `i` over
    /// exactly the edges routed to it (their order follows the input).
    /// The factory is stored in the engine — [`ShardedEngine::reshard`]
    /// calls it again for brand-new lanes, with whatever lane index and
    /// edge slice apply then, so it must not assume the initial shard
    /// count. For [`crate::wal::recover`] to rebuild an identical
    /// engine it should be deterministic in `(i, shard_edges)`.
    pub fn build_with<S: FullyDynamic, E>(
        self,
        edges: &[Edge],
        factory: impl FnMut(usize, &[Edge]) -> Result<S, E> + Send + 'static,
    ) -> Result<ShardedEngine<S, P>, ConfigError>
    where
        ConfigError: From<E>,
    {
        if self.shards < 1 {
            return Err(ConfigError::InvalidParam {
                name: "shards",
                reason: "at least one shard is required",
            });
        }
        self.part.validate(self.n, self.shards)?;
        validate_edges(self.n, edges)?;
        let mut factory: Factory<S> = {
            let mut f = factory;
            Box::new(move |i, es| f(i, es).map_err(ConfigError::from))
        };
        let mut routed: Vec<Vec<Edge>> = vec![Vec::new(); self.shards];
        for &e in edges {
            routed[self.part.shard_of(e, self.shards)].push(e);
        }
        let mut lanes = Vec::with_capacity(self.shards);
        for (i, shard_edges) in routed.iter().enumerate() {
            lanes.push(Lane::new(factory(i, shard_edges)?, shard_edges, self.n));
        }
        Ok(ShardedEngine {
            n: self.n,
            lanes,
            part: self.part,
            factory,
            seq: 0,
            layout: 0,
            // ordering: Relaxed — unique-ID allocation only; no other
            // state is published through the counter.
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }
}

impl ShardedEngineBuilder<HashPartitioner> {
    /// Typed builder: `ShardedEngineBuilder::new(n).shards(k)
    /// .partitioner(p).build_with(&edges, factory)` — the shard type is
    /// fixed by the factory passed to
    /// [`ShardedEngineBuilder::build_with`].
    pub fn new(n: usize) -> Self {
        ShardedEngineBuilder {
            n,
            shards: 2,
            part: HashPartitioner,
        }
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

    /// Layout epoch: bumped by reshard and rebalance. A [`ShardedView`]
    /// is bound to the epoch it was built at and must be rebuilt after
    /// any layout change.
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

    /// Per-lane load statistics: live input edges and cumulative
    /// recourse. This is the signal
    /// [`ShardedEngine::rebalance_if_skewed`] acts on. Allocates one
    /// vector (diagnostics path, not the batch path).
    pub fn lane_loads(&self) -> Vec<LaneLoad> {
        self.lanes
            .iter()
            .map(|lane| LaneLoad {
                live_edges: lane.live.len(),
                recourse: lane.recourse,
            })
            .collect()
    }

    /// The per-lane deltas of the most recent batch, in lane order —
    /// what [`ShardedView::apply`] consumes. Valid until the next batch.
    pub fn last_shard_deltas(&self) -> impl Iterator<Item = &DeltaBuf> + '_ {
        self.lanes.iter().map(|l| &l.delta)
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
        let n = self.n;
        let part = &self.part;
        let lanes = &mut self.lanes;
        for &e in deletions {
            let lane = &mut lanes[part.shard_of(e, k)];
            lane.sub.deletions.push(e);
            let old = lane.live.remove(e.u, e.v);
            assert!(old.is_some(), "deleting edge {e:?} not live on its lane");
            lane.hist[endpoint_bucket(e.u, n)] -= 1;
        }
        for &e in insertions {
            let lane = &mut lanes[part.shard_of(e, k)];
            lane.sub.insertions.push(e);
            let old = lane.live.insert(e.u, e.v, 1);
            assert!(
                old.is_none(),
                "inserting edge {e:?} already live on its lane"
            );
            lane.hist[endpoint_bucket(e.u, n)] += 1;
        }
    }

    /// The lower-endpoint histogram of all live input edges, summed over
    /// the per-lane counters the scatter maintains. O(k × buckets);
    /// allocates one vector (maintenance/diagnostics path).
    pub fn endpoint_histogram(&self) -> EndpointHistogram {
        let mut counts = vec![0u64; ENDPOINT_HIST_BUCKETS];
        for lane in &self.lanes {
            for (c, &h) in counts.iter_mut().zip(&lane.hist) {
                *c += h as u64;
            }
        }
        EndpointHistogram { n: self.n, counts }
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

impl<S: FullyDynamic, P: Partitioner> ShardedEngine<S, P> {
    /// Change the shard count in place, keeping the maintained graph
    /// identical: every live edge whose route changes under the new
    /// count is deleted from its old lane and inserted into its new one
    /// (brand-new lanes are built through the stored factory over
    /// exactly their routed edges; with a merge, lanes beyond the new
    /// count are dropped whole). Cost is proportional to the moved
    /// edges — with a [`JumpPartitioner`], a `k → k+1` split moves only
    /// ~`1/(k+1)` of them.
    ///
    /// Bumps the layout epoch: existing [`ShardedView`]s must be
    /// rebuilt with [`ShardedView::of`] (applying a stale one panics).
    /// A factory failure aborts before any existing shard is mutated.
    pub fn reshard(&mut self, new_shards: usize) -> Result<ReshardStats, ConfigError> {
        if new_shards < 1 {
            return Err(ConfigError::InvalidParam {
                name: "shards",
                reason: "at least one shard is required",
            });
        }
        self.part.validate(self.n, new_shards)?;
        let old_shards = self.lanes.len();
        let total_edges = self.lanes.iter().map(|l| l.live.len()).sum();
        let moved_edges = self.reroute(new_shards, self.part.clone())?;
        Ok(ReshardStats {
            old_shards,
            new_shards,
            moved_edges,
            total_edges,
        })
    }

    /// Check [`ShardedEngine::lane_loads`] against
    /// [`DEFAULT_SKEW_THRESHOLD`] and, if the heaviest lane exceeds
    /// threshold × mean live edges, ask the partitioner for a
    /// load-evening equivalent ([`Partitioner::rebalanced`]) and
    /// re-route through it — same shard count, only the edges whose
    /// route changed move. Bumps the layout epoch when it rebalances.
    pub fn rebalance_if_skewed(&mut self) -> RebalanceOutcome {
        self.rebalance_if_skewed_with(DEFAULT_SKEW_THRESHOLD)
    }

    /// [`ShardedEngine::rebalance_if_skewed`] with an explicit skew
    /// threshold (max lane live edges > `threshold` × mean triggers).
    ///
    /// The engine *probes* before it moves: it iterates
    /// [`Partitioner::rebalanced_with`] up to [`REBALANCE_PROBE_ROUNDS`]
    /// times, evaluating each candidate's hypothetical lane loads
    /// read-only (per-lane totals alone cannot reveal the distribution
    /// *inside* a lane, so a single quantile recut under-corrects on
    /// concentrated skew — iterating the probe converges without paying
    /// a physical move per step). A candidate whose routing is an exact
    /// function of the scatter-maintained endpoint histogram
    /// ([`Partitioner::loads_from_histogram`], e.g. a bucket-aligned
    /// [`VertexRangePartitioner`]) is evaluated in O(buckets + k);
    /// anything else (hash families) falls back to an O(m) re-route
    /// scan. The best candidate found is applied with one physical
    /// re-route; if no candidate beats the current layout, nothing
    /// moves.
    pub fn rebalance_if_skewed_with(&mut self, threshold: f64) -> RebalanceOutcome {
        let k = self.lanes.len();
        let loads: Vec<usize> = self.lanes.iter().map(|l| l.live.len()).collect();
        let total: usize = loads.iter().sum();
        if k < 2 || total == 0 {
            return RebalanceOutcome::Balanced;
        }
        // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
        let max = *loads.iter().max().expect("k >= 2");
        let mean = total as f64 / k as f64;
        let target = threshold * mean;
        if (max as f64) <= target {
            return RebalanceOutcome::Balanced;
        }
        // Probe loop: hypothetical loads only, no shard is touched.
        let hist = self.endpoint_histogram();
        let mut best: Option<(P, usize)> = None;
        let mut saw_candidate = false;
        let mut invalid_candidate = false;
        let mut cur_part = self.part.clone();
        let mut cur_loads = loads;
        for _ in 0..REBALANCE_PROBE_ROUNDS {
            let Some(cand) = cur_part.rebalanced_with(&cur_loads, &hist) else {
                break;
            };
            saw_candidate = true;
            if cand.validate(self.n, k).is_err() {
                invalid_candidate = true;
                break;
            }
            let hyp = cand.loads_from_histogram(&hist, k).unwrap_or_else(|| {
                let mut hyp = vec![0usize; k];
                for lane in &self.lanes {
                    for (u, v, _) in lane.live.iter() {
                        hyp[cand.shard_of(Edge { u, v }, k)] += 1;
                    }
                }
                hyp
            });
            // bds:allow(no-unwrap): structure invariant named in the message; corrupt state must fail fast, not propagate.
            let hyp_max = *hyp.iter().max().expect("k >= 2");
            if hyp_max < best.as_ref().map_or(max, |&(_, m)| m) {
                best = Some((cand.clone(), hyp_max));
            }
            let done = (hyp_max as f64) <= target;
            cur_part = cand;
            cur_loads = hyp;
            if done {
                break;
            }
        }
        let Some((new_part, _)) = best else {
            // A partitioner that never produced a candidate — or whose
            // first improving candidate failed validation (a partitioner
            // bug; the skew is NOT resolved) — is Unsupported; one whose
            // valid candidates exist but cannot improve the layout is as
            // balanced as it gets.
            return if !saw_candidate || invalid_candidate {
                RebalanceOutcome::Unsupported
            } else {
                RebalanceOutcome::Balanced
            };
        };
        let moved_edges = self
            .reroute(k, new_part)
            // bds:allow(no-unwrap): reroute calls the factory only for brand-new lanes, and rebalance keeps the shard count.
            .expect("rebalance keeps the shard count, so the factory is never called");
        RebalanceOutcome::Rebalanced { moved_edges }
    }

    /// Shared re-routing engine of reshard and rebalance: move every
    /// live edge whose lane changes under `(new_k, new_part)`, build
    /// brand-new lanes through the stored factory, drop merged-away
    /// lanes, and bump the layout epoch. Returns the moved-edge count.
    fn reroute(&mut self, new_k: usize, new_part: P) -> Result<usize, ConfigError> {
        let old_k = self.lanes.len();
        let mut moved_out: Vec<Vec<Edge>> = vec![Vec::new(); old_k];
        let mut moved_in: Vec<Vec<Edge>> = vec![Vec::new(); new_k];
        for (i, lane) in self.lanes.iter().enumerate() {
            for (u, v, _) in lane.live.iter() {
                let e = Edge { u, v };
                let j = new_part.shard_of(e, new_k);
                if j != i {
                    moved_out[i].push(e);
                    moved_in[j].push(e);
                }
            }
        }
        let moved = moved_out.iter().map(Vec::len).sum();
        // Build all brand-new lanes first: a factory failure must abort
        // the reshard before any existing shard has been mutated.
        let mut new_lanes: Vec<Lane<S>> = Vec::new();
        for (j, ins) in moved_in.iter().enumerate().skip(old_k) {
            new_lanes.push(Lane::new((self.factory)(j, ins)?, ins, self.n));
        }
        // Surviving lanes shed their moved-out edges.
        let mut scratch = DeltaBuf::new();
        for (i, outs) in moved_out.iter().enumerate().take(new_k.min(old_k)) {
            if outs.is_empty() {
                continue;
            }
            let lane = &mut self.lanes[i];
            for e in outs {
                let old = lane.live.remove(e.u, e.v);
                assert!(
                    old.is_some(),
                    "rebalance moved an edge that was not live on its source lane"
                );
            }
            lane.shard.delete_into(outs, &mut scratch);
        }
        // Merged-away lanes are dropped whole (their edges are all in
        // `moved_in` for the surviving lanes).
        self.lanes.truncate(new_k);
        // Surviving lanes absorb their moved-in edges.
        for (j, ins) in moved_in.iter().enumerate().take(self.lanes.len()) {
            if ins.is_empty() {
                continue;
            }
            let lane = &mut self.lanes[j];
            for e in ins {
                let old = lane.live.insert(e.u, e.v, 1);
                assert!(
                    old.is_none(),
                    "rebalance moved an edge already live on its target lane"
                );
            }
            lane.shard.insert_into(ins, &mut scratch);
        }
        self.lanes.extend(new_lanes);
        // Reshard deltas are internal churn, not served output: clear
        // every lane delta so a stale one can never reach a view (views
        // are invalidated by the layout bump regardless). The endpoint
        // histograms recount from the moved live tables — an O(m) pass
        // the re-route scan above already paid for.
        let n = self.n;
        for lane in &mut self.lanes {
            lane.delta.clear();
            lane.rebuild_hist(n);
        }
        self.part = new_part;
        self.layout += 1;
        Ok(moved)
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
            lane.recourse += lane.delta.recourse() as u64;
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
            let s = lane.shard.stats();
            agg.scan_steps += s.scan_steps;
            agg.vertices_touched += s.vertices_touched;
            agg.cluster_changes += s.cluster_changes;
            agg.recourse += s.recourse;
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
/// twice, skipping one, applying against a different engine, or applying
/// across a reshard or rebalance panics with a clear message
/// instead of silently corrupting the mirror. After any layout change,
/// rebuild with [`ShardedView::of`] — or re-seed a long-lived view in
/// place with [`ShardedView::reseed`], which reuses its allocations.
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
        let views = engine
            .lanes
            .iter()
            .map(|lane| {
                let mut v = SpannerView::from_output(engine.n, &lane.shard);
                v.resync_seq(engine.seq);
                v
            })
            .collect();
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
    /// long-lived mirrors, and the supported way to recover after a
    /// layout change (reshard, rebalance) without discarding warm
    /// table capacity. Lane mirrors are rebuilt from the lane outputs
    /// through `scratch`; the view re-binds to the engine's
    /// identity, layout, and batch sequence, and the epoch restarts
    /// at 0.
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
    /// layout — anything else panics (the three silent drift modes:
    /// double apply, skipped batch, wrong engine; plus stale layout).
    pub fn apply<S>(&mut self, engine: &ShardedEngine<S, P>) {
        assert_eq!(
            self.engine_id, engine.id,
            "sharded view drift: this view mirrors a different engine \
             (view was built from engine #{}, applied against engine #{})",
            self.engine_id, engine.id
        );
        assert_eq!(
            self.layout, engine.layout,
            "sharded view is stale: the engine resharded or rebalanced since this view \
             was created; rebuild it with ShardedView::of"
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
    /// resized to `queries.len()`), fanned across threads via
    /// [`bds_par::par_map_slice`] above the parallel grain. Zero
    /// steady-state allocations once `out`'s capacity is warm — this is
    /// the `BatchConnected`-shaped read path of the batch-dynamic
    /// connectivity literature, answered against one consistent epoch.
    pub fn batch_contains(&self, queries: &[Edge], out: &mut Vec<bool>) {
        out.clear();
        out.resize(queries.len(), false);
        bds_par::par_map_slice(queries, out, |&e| self.contains(e));
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
        bds_par::par_map_slice(queries, out, |&e| self.weight(e));
    }

    /// Iterate the union of mirrored edges (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.views.iter().flat_map(SpannerView::iter)
    }

    /// The union of mirrored edges as a fresh vector.
    pub fn edges(&self) -> Vec<Edge> {
        self.iter().map(|(e, _)| e).collect()
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
    fn partitioners_are_deterministic_and_in_range() {
        let edges = gen::gnm(64, 300, 5);
        for k in [1usize, 2, 3, 7, 16] {
            for &e in &edges {
                let h = HashPartitioner.shard_of(e, k);
                assert!(h < k);
                assert_eq!(h, HashPartitioner.shard_of(e, k));
                let r = VertexRangePartitioner::new(64).shard_of(e, k);
                assert!(r < k);
                let j = JumpPartitioner::new().shard_of(e, k);
                assert!(j < k);
                assert_eq!(j, JumpPartitioner::new().shard_of(e, k));
            }
        }
        // Vertex-range: canonical u decides the shard; a low-u edge and a
        // high-u edge land on the first and last shard.
        let p = VertexRangePartitioner::new(100);
        assert_eq!(p.shard_of(Edge::new(0, 99), 4), 0);
        assert_eq!(p.shard_of(Edge::new(98, 99), 4), 3);
    }

    #[test]
    fn partitioner_validation_catches_engine_mismatch() {
        // Regression: build_with never validated the partitioner — a
        // VertexRangePartitioner over m != n silently skewed every high
        // vertex onto the last shard.
        let n = 64;
        let err = ShardedEngineBuilder::new(n)
            .shards(2)
            .partitioner(VertexRangePartitioner::new(32))
            .build_with(&[], move |_, es| MirrorSpanner::build(n, es));
        assert!(matches!(
            err,
            Err(ConfigError::InvalidParam {
                name: "partitioner",
                ..
            })
        ));
        // Rebalanced bounds are pinned to their shard count: resharding
        // under them must be rejected, not mis-route.
        let p = VertexRangePartitioner::new(100)
            .rebalanced(&[90, 5, 3, 2])
            .unwrap();
        assert!(p.validate(100, 4).is_ok());
        assert!(p.validate(100, 5).is_err());
        assert!(p.validate(99, 4).is_err());
    }

    #[test]
    fn jump_partitioner_moves_a_small_fraction_on_split() {
        let edges = gen::gnm(1000, 4000, 3);
        for k in [2usize, 4, 8] {
            let p = JumpPartitioner::new();
            let moved = edges
                .iter()
                .filter(|&&e| p.shard_of(e, k) != p.shard_of(e, k + 1))
                .count();
            let frac = moved as f64 / edges.len() as f64;
            assert!(
                frac > 0.0 && frac < 2.0 / (k + 1) as f64,
                "jump k={k}->{}: moved fraction {frac} (expect ~{})",
                k + 1,
                1.0 / (k + 1) as f64
            );
            // The modulo hash partitioner re-routes most edges on the
            // same split — the contrast that motivates JumpPartitioner.
            let moved_hash = edges
                .iter()
                .filter(|&&e| HashPartitioner.shard_of(e, k) != HashPartitioner.shard_of(e, k + 1))
                .count();
            assert!(
                moved_hash > 2 * moved,
                "hash moved {moved_hash} vs jump {moved} at k={k}"
            );
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
            .partitioner(VertexRangePartitioner::new(n))
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

    #[test]
    fn reshard_preserves_the_edge_set_and_moves_minimally() {
        let n = 80;
        let init = gen::gnm_connected(n, 240, 11);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .partitioner(JumpPartitioner::new())
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let mut shadow = shadow_of(&engine);
        let mut stream = UpdateStream::new(n, &init, 29);
        let mut buf = DeltaBuf::new();
        for new_k in [4usize, 7, 2, 1, 3] {
            let batch = stream.next_batch(8, 6);
            engine.apply_into(&batch, &mut buf);
            buf.apply_weighted_to(&mut shadow);
            let total_before = engine.num_live_edges();
            let stats = engine.reshard(new_k).unwrap();
            assert_eq!(stats.new_shards, new_k);
            assert_eq!(engine.num_shards(), new_k);
            assert_eq!(stats.total_edges, total_before);
            assert!(stats.moved_edges <= stats.total_edges);
            // Membership is untouched by the layout change.
            assert_eq!(engine.num_live_edges(), total_before);
            assert_eq!(
                shadow_of(&engine),
                shadow,
                "reshard to {new_k} changed the set"
            );
            // A fresh view serves the resharded layout.
            let view = ShardedView::of(&engine);
            assert_eq!(view.len(), shadow.len());
            assert_eq!(view.num_shards(), new_k);
            for &e in stream.live_edges().iter().take(20) {
                assert!(view.contains(e));
            }
        }
        // A k -> k+1 jump-partitioned split moves a minority of edges.
        let k = engine.num_shards();
        let stats = engine.reshard(k + 1).unwrap();
        assert!(
            stats.moved_edges * 2 < stats.total_edges,
            "jump split moved {}/{}",
            stats.moved_edges,
            stats.total_edges
        );
    }

    #[test]
    fn rebalance_evens_vertex_range_skew() {
        // Almost every edge has a low lower endpoint: the uniform
        // vertex-range layout piles them all onto lane 0.
        let n = 100;
        let mut edges: Vec<Edge> = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..40 {
                edges.push(Edge::new(u, v));
            }
        }
        edges.push(Edge::new(60, 61));
        edges.push(Edge::new(80, 81));
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .partitioner(VertexRangePartitioner::new(n))
            .build_with(&edges, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let shadow = shadow_of(&engine);
        let before = engine.lane_loads();
        let max_before = before.iter().map(|l| l.live_edges).max().unwrap();
        let mean = edges.len() as f64 / 4.0;
        assert!(
            max_before as f64 > DEFAULT_SKEW_THRESHOLD * mean,
            "test graph must be skewed"
        );
        let RebalanceOutcome::Rebalanced { moved_edges } = engine.rebalance_if_skewed() else {
            panic!("skewed vertex-range engine must rebalance");
        };
        assert!(moved_edges > 0);
        let after = engine.lane_loads();
        let max_after = after.iter().map(|l| l.live_edges).max().unwrap();
        assert!(
            max_after < max_before,
            "rebalance must shrink the heaviest lane: {max_before} -> {max_after}"
        );
        // Membership is untouched; the partitioner now carries bounds.
        assert_eq!(shadow_of(&engine), shadow);
        assert_eq!(engine.num_live_edges(), edges.len());
        assert!(engine.partitioner().bounds().is_some());
        // Reads still route correctly under the rebalanced layout.
        let view = ShardedView::of(&engine);
        for &e in edges.iter().take(30) {
            assert!(view.contains(e));
        }
    }

    #[test]
    fn rebalance_outcomes_for_hash_and_jump() {
        let n = 40;
        let edges: Vec<Edge> = (1..6).map(|i| Edge::new(0, i)).collect();
        // 5 edges over 4 hash lanes cannot be even: threshold 1.0
        // triggers, but HashPartitioner cannot rebalance.
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .build_with(&edges, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        assert_eq!(
            engine.rebalance_if_skewed_with(1.0),
            RebalanceOutcome::Unsupported
        );
        // A threshold above the worst possible skew never triggers.
        assert_eq!(
            engine.rebalance_if_skewed_with(10.0),
            RebalanceOutcome::Balanced
        );
        // JumpPartitioner re-salts (a reshuffle); membership survives.
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .partitioner(JumpPartitioner::new())
            .build_with(&edges, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let shadow = shadow_of(&engine);
        let before_max = engine
            .lane_loads()
            .iter()
            .map(|l| l.live_edges)
            .max()
            .unwrap();
        // 5 edges over 4 lanes: max ≥ 2 > mean = 1.25, so threshold 1.0
        // always triggers; the jump partitioner probes re-salted
        // candidates and commits one only if it actually improves.
        match engine.rebalance_if_skewed_with(1.0) {
            RebalanceOutcome::Rebalanced { moved_edges } => {
                assert!(moved_edges > 0);
                assert_ne!(engine.partitioner().salt(), 0);
                let after_max = engine
                    .lane_loads()
                    .iter()
                    .map(|l| l.live_edges)
                    .max()
                    .unwrap();
                assert!(after_max < before_max);
            }
            RebalanceOutcome::Balanced => {
                // No probed salt beat the current layout; nothing moved.
                assert_eq!(engine.partitioner().salt(), 0);
            }
            RebalanceOutcome::Unsupported => panic!("jump partitioner must support rebalance"),
        }
        assert_eq!(shadow_of(&engine), shadow);
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
    fn view_stale_after_reshard_panics() {
        let (mut engine, mut view, mut buf) = drift_engine();
        engine.reshard(3).unwrap();
        engine.apply_into(&UpdateBatch::insert_only(vec![Edge::new(0, 29)]), &mut buf);
        view.apply(&engine);
    }

    // --- PR 6: endpoint histogram + O(buckets) rebalance probing ---

    #[test]
    fn endpoint_histogram_tracks_apply_and_reshard() {
        // n > ENDPOINT_HIST_BUCKETS so buckets genuinely aggregate
        // vertex ranges; the incrementally-maintained histogram must
        // equal a from-scratch recount after every mutation path.
        let n = 600;
        let init = gen::gnm(n, 800, 21);
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        fn recount(engine: &ShardedEngine<MirrorSpanner, HashPartitioner>) {
            let hist = engine.endpoint_histogram();
            let mut want = vec![0u64; hist.counts().len()];
            for e in engine.live_input_edges() {
                want[hist.bucket_of(e.u)] += 1;
            }
            assert_eq!(hist.counts(), &want[..]);
            assert_eq!(hist.total(), engine.num_live_edges() as u64);
        }
        recount(&engine);
        let mut stream = UpdateStream::new(n, &init, 99);
        let mut buf = DeltaBuf::new();
        for _ in 0..6 {
            let batch = stream.next_batch(40, 25);
            engine.apply_into(&batch, &mut buf);
            recount(&engine);
        }
        engine.reshard(5).unwrap();
        recount(&engine);
    }

    #[test]
    fn histogram_loads_match_edge_scan() {
        let n = 512; // ENDPOINT_HIST_BUCKETS divides n: uniform cuts align
        let edges = gen::gnm(n, 1500, 7);
        let engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .partitioner(VertexRangePartitioner::new(n))
            .build_with(&edges, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let hist = engine.endpoint_histogram();
        let part = engine.partitioner().clone();
        // Uniform layout: histogram loads must exactly match a per-edge
        // routing scan.
        let loads = part
            .loads_from_histogram(&hist, 4)
            .expect("aligned uniform cuts must evaluate exactly");
        let mut scan = vec![0usize; 4];
        for e in engine.live_input_edges() {
            scan[part.shard_of(e, 4)] += 1;
        }
        assert_eq!(loads, scan);
        // A rebalanced candidate snaps its cuts to bucket boundaries, so
        // it too must evaluate exactly — and agree with the scan.
        let cand = part
            .rebalanced_with(&scan, &hist)
            .expect("vertex-range supports histogram rebalance");
        let cand_loads = cand
            .loads_from_histogram(&hist, 4)
            .expect("snapped cuts must stay bucket-aligned");
        let mut cand_scan = vec![0usize; 4];
        for e in engine.live_input_edges() {
            cand_scan[cand.shard_of(e, 4)] += 1;
        }
        assert_eq!(cand_loads, cand_scan);
        // A cut that splits a bucket (n=512, B=256: odd cuts are
        // mid-bucket) must refuse rather than approximate.
        let split = VertexRangePartitioner::new(n)
            .rebalanced(&[100, 1])
            .unwrap();
        if let Some(b) = split.bounds() {
            if !b.iter().all(|&x| hist.cut_is_aligned(x)) {
                assert_eq!(split.loads_from_histogram(&hist, 2), None);
            }
        }
        // Foreign histogram (different n) never evaluates.
        let other = ShardedEngineBuilder::new(100)
            .shards(2)
            .build_with(&[], move |_, es| MirrorSpanner::build(100, es))
            .unwrap();
        assert_eq!(
            part.loads_from_histogram(&other.endpoint_histogram(), 4),
            None
        );
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
        // Reseed also survives a reshard (lane count change).
        engine.reshard(5).unwrap();
        let batch = stream.next_batch(8, 4);
        engine.apply_into(&batch, &mut buf);
        view.reseed(&engine, &mut scratch);
        assert_eq!(view.num_shards(), 5);
        assert_eq!(view.seq(), engine.seq());
        let batch = stream.next_batch(5, 5);
        engine.apply_into(&batch, &mut buf);
        view.apply(&engine);
        assert_eq!(shadow_of(&engine).len(), view.len());
    }

    #[test]
    fn batch_queries_match_point_queries() {
        let n = 200;
        let init = gen::gnm(n, 500, 17);
        let engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let view = ShardedView::of(&engine);
        // Half live edges, half absent probes.
        let mut queries: Vec<Edge> = init.iter().take(40).copied().collect();
        queries.extend((0..40u32).map(|i| Edge::new(i, n as u32 - 1 - i)));
        let mut got_c = Vec::new();
        view.batch_contains(&queries, &mut got_c);
        assert_eq!(got_c.len(), queries.len());
        let mut got_w = Vec::new();
        view.batch_weight(&queries, &mut got_w);
        for (i, &e) in queries.iter().enumerate() {
            assert_eq!(got_c[i], view.contains(e), "contains {e:?}");
            assert_eq!(got_w[i], view.weight(e), "weight {e:?}");
            assert_eq!(got_w[i].is_some(), got_c[i]);
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
        // Outputs are cleared and resized on reuse.
        view.batch_contains(&queries[..5], &mut got_c);
        assert_eq!(got_c.len(), 5);
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
