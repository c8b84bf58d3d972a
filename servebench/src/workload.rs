//! The three workloads: what is served, how it is loaded, and the
//! inputs each one derives from its seed.

use bds_core::FullyDynamicSpanner;
use bds_graph::api::{ConfigError, FullyDynamic};
use bds_graph::conn::BatchConnectivity;
use bds_graph::gen;
use bds_graph::shard::{HashPartitioner, Partitioner, ShardedEngine, ShardedEngineBuilder};
use bds_graph::stream::UpdateStream;
use bds_graph::types::{Edge, UpdateBatch, V};
use std::time::Duration;

/// Spanner stretch parameter: every spanner here guarantees stretch
/// `2K - 1 = 3` (Theorem 1.1).
pub const K: u32 = 2;
/// Raw updates per engine batch (`BatchPolicy::Fixed`).
pub const BATCH: usize = 1024;
/// Ingest queue bound.
pub const QUEUE: usize = 4096;
/// Paced producer granularity: one send tick per `SEND_TICK`.
pub const SEND_TICK: Duration = Duration::from_millis(1);
/// Queries per reader burst; below `bds_par::GRAIN`, so a burst runs on
/// the reader's own thread instead of spawning workers on every tick.
pub const QUERIES: usize = 1024;
/// Snapshot period (batches) of the durable workload.
pub const SNAPSHOT_EVERY: u64 = 2000;
/// Churn is generated in chunks of this many updates (half deletions).
pub const CHUNK: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Product {
    Spanner,
    Conn,
}

/// Graph size. `FULL` is the benchmark; `TINY` is for the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Vertices of the served graph, reserved marker ids included.
    pub n: usize,
    /// Marker pairs: the top `2 * marker_pairs` ids carry no churn.
    pub marker_pairs: usize,
    /// Initial edges per churn vertex (the churn keeps it steady).
    pub edges_per_vertex: usize,
    /// Minimum repetitions of the set-up whose median is `setup_s`, and
    /// the build time they must add up to.
    pub setup_reps: usize,
    pub setup_budget: Duration,
    /// Load before the measured part of a phase.
    pub warmup: Duration,
}

impl Size {
    pub const FULL: Size = Size {
        n: 20_000,
        marker_pairs: 256,
        edges_per_vertex: 4,
        setup_reps: 7,
        setup_budget: Duration::from_millis(1500),
        warmup: Duration::from_secs(4),
    };
    pub const TINY: Size = Size {
        n: 1_000,
        marker_pairs: 64,
        edges_per_vertex: 4,
        setup_reps: 1,
        setup_budget: Duration::ZERO,
        warmup: Duration::from_millis(200),
    };

    /// Vertices `0..churn_n()` carry churn; the rest are marker ids.
    pub fn churn_n(&self) -> usize {
        self.n - 2 * self.marker_pairs
    }

    pub fn marker(&self, slot: usize) -> Edge {
        let a = (self.churn_n() + 2 * slot) as V;
        Edge::new(a, a + 1)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub product: Product,
    /// `Some(updates/s)`: open-loop paced producer; `None`: closed-loop
    /// flood.
    pub paced_rate: Option<u32>,
    /// WAL with `FsyncPolicy::EveryBatch` and periodic snapshots.
    pub durable: bool,
    /// Every `marker_every`-th update slot carries a marker insert.
    pub marker_every: u64,
    /// Reader granularity: one marker probe per tick. It must be well
    /// below the workload's ingest-to-visible latency, or that latency
    /// reads as multiples of the tick.
    pub probe_tick: Duration,
    /// Reader probe ticks per query burst.
    pub burst_every: u64,
    /// Replay shape: updates per batch and batch count.
    pub replay_batch: usize,
    pub replay_batches: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "spanner_flood",
        product: Product::Spanner,
        paced_rate: None,
        durable: false,
        marker_every: 64,
        probe_tick: Duration::from_millis(1),
        burst_every: 2,
        replay_batch: BATCH,
        replay_batches: 24,
    },
    Spec {
        name: "spanner_paced_wal",
        product: Product::Spanner,
        paced_rate: Some(20_000),
        durable: true,
        // Denser markers: the paced run sends few updates, and its tail
        // percentile needs enough samples beyond it.
        marker_every: 16,
        // Visibility here takes about a millisecond.
        probe_tick: Duration::from_micros(250),
        burst_every: 8,
        replay_batch: 32,
        replay_batches: 400,
    },
    Spec {
        name: "conn_rebuild_reads",
        product: Product::Conn,
        paced_rate: None,
        durable: false,
        marker_every: 64,
        probe_tick: Duration::from_millis(1),
        burst_every: 10,
        replay_batch: BATCH,
        replay_batches: 24,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// A served structure: how one lane of it is built.
pub trait Served: FullyDynamic + Send + Sized + 'static {
    const SHARDS: usize;
    fn build_lane(n: usize, seed: u64, lane: usize, edges: &[Edge]) -> Result<Self, ConfigError>;
}

impl Served for FullyDynamicSpanner {
    const SHARDS: usize = 2;
    fn build_lane(n: usize, seed: u64, lane: usize, edges: &[Edge]) -> Result<Self, ConfigError> {
        FullyDynamicSpanner::builder(n)
            .stretch(K)
            .seed(seed.wrapping_mul(1_000_003).wrapping_add(lane as u64))
            .build(edges)
    }
}

impl Served for BatchConnectivity {
    const SHARDS: usize = 1;
    fn build_lane(n: usize, _seed: u64, _lane: usize, edges: &[Edge]) -> Result<Self, ConfigError> {
        BatchConnectivity::builder(n).build(edges)
    }
}

pub fn engine<S: Served>(
    n: usize,
    seed: u64,
    init: &[Edge],
) -> Result<ShardedEngine<S>, ConfigError> {
    ShardedEngineBuilder::new(n)
        .shards(S::SHARDS)
        .build_with(init, move |i, es| S::build_lane(n, seed, i, es))
}

/// Route `edges` to `lanes` lanes exactly as the sharded engine does.
pub fn route(edges: &[Edge], lanes: usize) -> Vec<Vec<Edge>> {
    let mut out = vec![Vec::new(); lanes];
    for &e in edges {
        out[HashPartitioner.shard_of(e, lanes)].push(e);
    }
    out
}

/// Route a batch to per-lane sub-batches.
pub fn route_batch(batch: &UpdateBatch, lanes: usize) -> Vec<UpdateBatch> {
    let ins = route(&batch.insertions, lanes);
    let del = route(&batch.deletions, lanes);
    ins.into_iter()
        .zip(del)
        .map(|(insertions, deletions)| UpdateBatch {
            insertions,
            deletions,
        })
        .collect()
}

/// The seed-derived inputs of one workload.
pub struct Inputs {
    pub init: Vec<Edge>,
    /// Membership / connectivity queries, `4 * QUERIES` of them, read in
    /// rotating windows.
    pub queries: Vec<Edge>,
}

pub fn inputs(size: &Size, seed: u64) -> Inputs {
    let m = size.churn_n() * size.edges_per_vertex;
    let init = gen::gnm(size.churn_n(), m, seed);
    let mut rng = SplitMix(seed ^ 0x7175_6572_7973);
    let mut queries = Vec::with_capacity(4 * QUERIES);
    while queries.len() < 4 * QUERIES {
        // Half initial edges (live or since deleted), half random pairs
        // over all ids, marker ids included.
        let e = if queries.len() % 2 == 0 {
            init[rng.below(init.len())]
        } else {
            let a = rng.below(size.n) as V;
            let b = rng.below(size.n) as V;
            if a == b {
                continue;
            }
            Edge::new(a, b)
        };
        queries.push(e);
    }
    Inputs { init, queries }
}

/// The churn generator both the producer and the replay draw from: the
/// same seed gives the same batches.
pub fn stream(size: &Size, init: &[Edge], seed: u64) -> UpdateStream {
    UpdateStream::new(size.churn_n(), init, seed ^ 0x5354_5245_414d)
}

/// SplitMix64, for the few benchmark-side random choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
