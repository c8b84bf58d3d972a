//! Graph substrate: vertex/edge types, static CSR
//! graphs with (parallel) BFS, workload generators, connectivity, and the
//! verification oracles used to check spanner stretch and sparsifier
//! quality (Laplacian quadratic forms and cut weights).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod conn;
pub mod csr;
pub mod cuts;
pub mod gen;
pub mod serve;
pub mod shard;
pub mod stream;
pub mod types;
pub mod union_find;
pub mod wal;

pub use api::{
    AuxTag, BatchDynamic, BatchError, BatchReport, BatchStats, ConfigError, Decremental, DeltaBuf,
    FullyDynamic, SpannerView,
};
pub use conn::{BatchConnectivity, BatchConnectivityBuilder, ConnView};
pub use csr::CsrGraph;
pub use serve::{
    BatchPolicy, IngestError, IngestHandle, ReadGuard, ReadHandle, ServeLoop, ServeLoopBuilder,
    ServeReport, Update,
};
pub use shard::{
    HashPartitioner, MirrorSpanner, Partitioner, ShardedEngine, ShardedEngineBuilder, ShardedView,
};
pub use types::{Edge, UpdateBatch, V};
pub use union_find::UnionFind;
pub use wal::{FollowerView, FsyncPolicy, RecoverError, Recovered, Snapshot, WalConfig, WalWriter};
