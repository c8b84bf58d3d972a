//! Layer replay: a workload's `UpdateStream` batches driven directly
//! through each layer's public calls, under `bds_par::run_with_threads`,
//! with one span per call.
//!
//! Every workload replays the same set of calls on its own stream shape
//! (graph size, batch size): the Theorem 1.1 engine lanes, the workload's
//! sharded product and its view, the connectivity structure and a
//! `ConnView` rebuild, the WAL writer, and `EdgeTable`.

use crate::serving::Res;
use crate::trace::{Name, Tracer};
use crate::workload::{self, Product, Served, QUERIES};
use crate::Ctx;
use bds_core::FullyDynamicSpanner;
use bds_dstruct::EdgeTable;
use bds_graph::api::{BatchDynamic, BatchStats, DeltaBuf, FullyDynamic};
use bds_graph::conn::{BatchConnectivity, ConnView};
use bds_graph::shard::ShardedView;
use bds_graph::types::UpdateBatch;
use bds_graph::wal::{FsyncPolicy, Snapshot, WalWriter};
use std::hint::black_box;

/// `BatchStats` deltas summed over the replay. These are exact counts:
/// a seed must reproduce them bit for bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub scan_steps: u64,
    pub vertices_touched: u64,
    pub cluster_changes: u64,
    pub recourse: u64,
    pub conn_recourse: u64,
}

impl Counts {
    /// Add one batch's counter movement. The spanner's per-slot counters
    /// restart when a slot is rebuilt, so a field that went down
    /// contributes nothing for that batch.
    fn add(&mut self, before: BatchStats, after: BatchStats) {
        self.scan_steps += after.scan_steps.saturating_sub(before.scan_steps);
        self.vertices_touched += after
            .vertices_touched
            .saturating_sub(before.vertices_touched);
        self.cluster_changes += after.cluster_changes.saturating_sub(before.cluster_changes);
        self.recourse += after.recourse.saturating_sub(before.recourse);
    }
}

/// What one replay measured. Times are ns summed over calls unless a
/// field holds per-call samples.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub updates: u64,
    pub batches: u64,
    pub engine_build_ns: u64,
    pub engine_apply_ns: u64,
    pub shard_apply_ns: u64,
    /// Direct per-lane `apply_into` of the workload's product on the
    /// same routed sub-batches — the denominator of the shard overhead.
    pub direct_lane_ns: u64,
    pub conn_build_ns: u64,
    pub conn_apply_ns: u64,
    pub view_apply_ns: u64,
    pub contains_ns: u64,
    pub contains_q: u64,
    pub view_edges_ns: Vec<f64>,
    pub rebuild_ns: Vec<f64>,
    pub connected_ns: u64,
    pub connected_q: u64,
    pub append_sync_ns: Vec<f64>,
    pub append_delta_ns: u64,
    pub snapshot_ns: Vec<f64>,
    pub wal_bytes: u64,
    pub table_build_ns: u64,
    pub table_build_edges: u64,
    pub table_remove_ns: u64,
    pub table_remove_edges: u64,
    pub table_get_ns: u64,
    pub table_get_q: u64,
    pub counts: Counts,
    pub lane_skew: f64,
}

/// Replay `cx`'s workload at `threads` threads, recording spans into
/// `tr` (which must be on: span durations are the measurements).
pub fn run<S: Served>(cx: &Ctx, threads: usize, tr: &mut Tracer) -> Res<ReplayOut> {
    bds_par::run_with_threads(threads, || replay::<S>(cx, threads, tr))
}

fn replay<S: Served>(cx: &Ctx, threads: usize, tr: &mut Tracer) -> Res<ReplayOut> {
    let (n, seed, init) = (cx.size.n, cx.seed, &cx.inputs.init);
    let root = tr.enter(Name::Replay);
    let mut stream = workload::stream(&cx.size, init, seed);
    let b = cx.spec.replay_batch;
    let batches: Vec<UpdateBatch> = (0..cx.spec.replay_batches)
        .map(|_| stream.next_batch(b / 2, b - b / 2))
        .collect();
    let queries = &cx.inputs.queries[..QUERIES];
    let pairs: Vec<(u32, u32)> = queries.iter().map(|e| (e.u, e.v)).collect();
    let mut r = ReplayOut::default();

    let entries: Vec<(u32, u32, u64)> = init.iter().map(|e| (e.u, e.v, 1)).collect();
    let o = tr.enter(Name::TableBuild);
    let mut table = EdgeTable::from_batch(&entries);
    r.table_build_ns = tr.exit(o, entries.len() as u64);
    r.table_build_edges = entries.len() as u64;

    // Theorem 1.1 lanes, routed and seeded exactly like the sharded
    // spanner's lanes.
    let lanes_n = <FullyDynamicSpanner as Served>::SHARDS;
    let o = tr.enter(Name::EngineBuild);
    let mut lanes = workload::route(init, lanes_n)
        .iter()
        .enumerate()
        .map(|(i, es)| FullyDynamicSpanner::build_lane(n, seed, i, es))
        .collect::<Result<Vec<_>, _>>()?;
    r.engine_build_ns = tr.exit(o, init.len() as u64);

    let o = tr.enter(Name::ConnBuild);
    let mut conn = BatchConnectivity::build_lane(n, seed, 0, init)?;
    r.conn_build_ns = tr.exit(o, init.len() as u64);

    let o = tr.enter(Name::ShardBuild);
    let mut sharded = workload::engine::<S>(n, seed, init)?;
    tr.exit(o, init.len() as u64);
    let mut view = ShardedView::of(&sharded);

    let log = cx
        .work
        .join(format!("{}-replay-t{threads}.wal", cx.spec.name));
    let snap = cx
        .work
        .join(format!("{}-replay-t{threads}.snap", cx.spec.name));
    let mut wal = WalWriter::create(
        &log,
        sharded.engine_id(),
        sharded.layout_epoch(),
        n as u64,
        sharded.seq(),
        FsyncPolicy::Manual,
    )?;

    let (mut delta, mut lane_delta, mut conn_delta) =
        (DeltaBuf::new(), DeltaBuf::new(), DeltaBuf::new());
    let (mut hits, mut answers) = (Vec::new(), Vec::new());
    let snap_every = (batches.len() / 3).max(1);
    let rebuild_every = (batches.len() / 24).max(1);
    for (i, batch) in batches.iter().enumerate() {
        r.updates += batch.len() as u64;
        r.batches += 1;

        for (lane, sub) in lanes.iter_mut().zip(workload::route_batch(batch, lanes_n)) {
            let before = lane.stats();
            let o = tr.enter(Name::EngineApply);
            lane.apply_into(&sub, &mut lane_delta);
            r.engine_apply_ns += tr.exit(o, sub.len() as u64);
            r.counts.add(before, lane.stats());
        }

        let before = conn.stats().recourse;
        let o = tr.enter(Name::ConnApply);
        conn.apply_into(batch, &mut conn_delta);
        r.conn_apply_ns += tr.exit(o, batch.len() as u64);
        r.counts.conn_recourse += conn.stats().recourse.saturating_sub(before);

        // Write-ahead order, as `ServeLoop` does it: log + sync, apply,
        // log the output delta, then catch the view up.
        let o = tr.enter(Name::AppendSync);
        wal.append_batch(sharded.seq() + 1, batch)?;
        wal.sync()?;
        r.append_sync_ns.push(tr.exit(o, batch.len() as u64) as f64);
        let o = tr.enter(Name::ShardApply);
        sharded.apply_into(batch, &mut delta);
        r.shard_apply_ns += tr.exit(o, batch.len() as u64);
        let o = tr.enter(Name::AppendDelta);
        wal.append_delta(&delta)?;
        r.append_delta_ns += tr.exit(o, delta.recourse() as u64);
        let o = tr.enter(Name::ViewApply);
        view.apply(&sharded);
        r.view_apply_ns += tr.exit(o, delta.recourse() as u64);

        let o = tr.enter(Name::BatchContains);
        view.batch_contains(queries, &mut hits);
        r.contains_ns += tr.exit(o, QUERIES as u64);
        r.contains_q += QUERIES as u64;
        black_box(&hits);

        let dels: Vec<(u32, u32)> = batch.deletions.iter().map(|e| (e.u, e.v)).collect();
        let ins: Vec<(u32, u32, u64)> = batch.insertions.iter().map(|e| (e.u, e.v, 1)).collect();
        let o = tr.enter(Name::TableRemove);
        table.remove_batch(&dels);
        r.table_remove_ns += tr.exit(o, dels.len() as u64);
        r.table_remove_edges += dels.len() as u64;
        table.insert_batch(&ins);
        let o = tr.enter(Name::TableGet);
        black_box(table.get_batch(&pairs));
        r.table_get_ns += tr.exit(o, pairs.len() as u64);
        r.table_get_q += pairs.len() as u64;

        if (i + 1) % rebuild_every == 0 {
            let o = tr.enter(Name::ViewEdges);
            let edges = view.edges();
            r.view_edges_ns.push(tr.exit(o, edges.len() as u64) as f64);
            let forest = conn.forest_edges();
            let o = tr.enter(Name::ViewRebuild);
            let cv = ConnView::from_edges(n, &forest);
            r.rebuild_ns.push(tr.exit(o, forest.len() as u64) as f64);
            let o = tr.enter(Name::BatchConnected);
            cv.batch_connected(&pairs, &mut answers);
            r.connected_ns += tr.exit(o, pairs.len() as u64);
            r.connected_q += pairs.len() as u64;
            black_box(&answers);
        }
        if (i + 1) % snap_every == 0 {
            let o = tr.enter(Name::Snapshot);
            Snapshot::of(&sharded).write_to(&snap)?;
            r.snapshot_ns.push(tr.exit(o, 1) as f64);
        }
    }
    r.direct_lane_ns = match cx.spec.product {
        Product::Spanner => r.engine_apply_ns,
        Product::Conn => r.conn_apply_ns,
    };
    r.wal_bytes = std::fs::metadata(&log).map_or(0, |m| m.len());
    drop(wal);
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&snap);

    let loads: Vec<f64> = sharded
        .lane_loads()
        .iter()
        .map(|l| l.live_edges as f64)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    r.lane_skew = loads.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
    tr.exit(root, r.updates);
    Ok(r)
}
