//! PR-5 perf snapshot: writes `BENCH_PR5.json` — the elastic sharding
//! layer, measured two ways:
//!
//! * **Reshard cost vs full rebuild**: a warmed k = 4 engine of
//!   Theorem 1.1 shards grows to 5 lanes in place (`reshard`, moving
//!   only the re-routed edges) vs building a fresh 5-lane engine over
//!   the same live edges. Reported for the consistent-hash
//!   [`JumpPartitioner`] (moves ~1/5 of the edges) and, as the
//!   moved-fraction contrast, the modulo [`HashPartitioner`] (moves
//!   ~4/5).
//! * **Skew rebalance before/after**: a vertex-skewed graph under
//!   `VertexRangePartitioner` (uniform ranges pile ~85% of edges onto
//!   one lane), then `rebalance_if_skewed()` probes quantile recuts and
//!   commits the best — reported as max/mean lane load before and
//!   after, plus the moved-edge count and wall time.
//!
//! Usage: `cargo run --release -p bds_bench --bin bench_pr5 [-- out.json] [--quick]`

use bds_core::FullyDynamicSpanner;
use bds_graph::api::{BatchDynamic, DeltaBuf, FullyDynamic};
use bds_graph::gen;
use bds_graph::shard::{
    HashPartitioner, JumpPartitioner, MirrorSpanner, Partitioner, RebalanceOutcome,
    ShardedEngineBuilder, VertexRangePartitioner,
};
use bds_graph::stream::UpdateStream;
use bds_graph::types::Edge;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

fn ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// Reshard-vs-rebuild for one partitioner kind. Returns
/// (reshard_ms, rebuild_ms, moved, total) minima over `reps`.
fn reshard_vs_rebuild<P: Partitioner + 'static>(
    n: usize,
    m: usize,
    part: P,
    reps: usize,
) -> (f64, f64, usize, usize) {
    let init = gen::gnm_connected(n, m, 7);
    let (mut best_reshard, mut best_rebuild) = (f64::MAX, f64::MAX);
    let (mut moved, mut total) = (0usize, 0usize);
    for rep in 0..reps {
        let factory = move |i: usize, es: &[Edge]| {
            FullyDynamicSpanner::builder(n)
                .stretch(2)
                .seed(500 + i as u64)
                .build(es)
        };
        let mut engine = ShardedEngineBuilder::new(n)
            .shards(4)
            .partitioner(part.clone())
            .build_with(&init, factory)
            .unwrap();
        // Warm the engine with real churn so the reshard sees a lived-in
        // state, not a fresh build.
        let mut stream = UpdateStream::new(n, &init, 0x5e5 ^ rep as u64);
        let mut buf = DeltaBuf::new();
        for _ in 0..5 {
            let b = stream.next_batch(128, 128);
            engine.apply_into(&b, &mut buf);
        }
        let live: Vec<Edge> = stream.live_edges().to_vec();

        let (d, stats) = ms(|| engine.reshard(5).unwrap());
        best_reshard = best_reshard.min(d);
        moved = stats.moved_edges;
        total = stats.total_edges;
        assert_eq!(engine.num_live_edges(), live.len());

        let (d, fresh) = ms(|| {
            ShardedEngineBuilder::new(n)
                .shards(5)
                .partitioner(part.clone())
                .build_with(&live, factory)
                .unwrap()
        });
        best_rebuild = best_rebuild.min(d);
        assert_eq!(fresh.num_live_edges(), engine.num_live_edges());
    }
    (best_reshard, best_rebuild, moved, total)
}

/// A vertex-skewed edge set: ~85% of edges have their lower endpoint in
/// the bottom 1/20 of the vertex range.
fn skewed_edges(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = bds_dstruct::FxHashSet::default();
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let u = if rng.gen_bool(0.85) {
            rng.gen_range(0..(n as u32 / 20).max(1))
        } else {
            rng.gen_range(0..n as u32)
        };
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        if seen.insert(e) {
            out.push(e);
        }
    }
    out
}

fn main() {
    let mut out_path = "BENCH_PR5.json".to_string();
    let mut quick = false;
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
        } else {
            out_path = a;
        }
    }

    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"pr\": 5,");
    let _ = writeln!(j, "  \"threads\": {},", bds_par::threads_available());
    let _ = writeln!(j, "  \"quick\": {quick},");

    // --- Section 1: reshard cost vs full rebuild, 4 -> 5 lanes. ---
    let (n, m, reps) = if quick {
        (4_000, 24_000, 1)
    } else {
        (20_000, 120_000, 3)
    };
    let _ = writeln!(j, "  \"reshard_4_to_5_n{}k\": {{", n / 1000);
    let mut first = true;
    for (name, rs, rb, moved, total) in [
        {
            let (rs, rb, moved, total) = reshard_vs_rebuild(n, m, JumpPartitioner::new(), reps);
            ("jump", rs, rb, moved, total)
        },
        {
            let (rs, rb, moved, total) = reshard_vs_rebuild(n, m, HashPartitioner, reps);
            ("hash", rs, rb, moved, total)
        },
    ] {
        eprintln!(
            "reshard 4->5 [{name}]: {rs:.1}ms vs full rebuild {rb:.1}ms ({:.2}x), moved {moved}/{total} ({:.1}%)",
            rb / rs,
            100.0 * moved as f64 / total as f64
        );
        if !first {
            let _ = writeln!(j, ",");
        }
        first = false;
        let _ = write!(
            j,
            "    \"{name}\": {{ \"reshard_ms\": {rs:.3}, \"full_rebuild_ms\": {rb:.3}, \"speedup_vs_rebuild\": {:.2}, \"moved_edges\": {moved}, \"total_edges\": {total}, \"moved_fraction\": {:.4} }}",
            rb / rs,
            moved as f64 / total as f64
        );
    }
    let _ = writeln!(j, "\n  }},");

    // --- Section 2: skew rebalance before/after. ---
    let (sn, sm) = if quick {
        (4_000, 24_000)
    } else {
        (20_000, 120_000)
    };
    let edges = skewed_edges(sn, sm, 13);
    let mut engine = ShardedEngineBuilder::new(sn)
        .shards(4)
        .partitioner(VertexRangePartitioner::new(sn))
        .build_with(&edges, move |_, es| MirrorSpanner::build(sn, es))
        .unwrap();
    let loads_of = |e: &bds_graph::shard::ShardedEngine<MirrorSpanner, VertexRangePartitioner>| {
        e.lane_loads()
            .iter()
            .map(|l| l.live_edges)
            .collect::<Vec<_>>()
    };
    let before = loads_of(&engine);
    let max_before = *before.iter().max().unwrap();
    let mean = sm as f64 / 4.0;
    let (reb_ms, outcome) = ms(|| engine.rebalance_if_skewed());
    let moved = match outcome {
        RebalanceOutcome::Rebalanced { moved_edges } => moved_edges,
        other => panic!("skewed vertex-range engine must rebalance, got {other:?}"),
    };
    let after = loads_of(&engine);
    let max_after = *after.iter().max().unwrap();
    eprintln!(
        "skew rebalance: max/mean {:.2} -> {:.2} (loads {before:?} -> {after:?}), moved {moved}, {reb_ms:.1}ms",
        max_before as f64 / mean,
        max_after as f64 / mean
    );
    assert!(max_after < max_before);
    let _ = writeln!(j, "  \"skew_rebalance_n{}k\": {{", sn / 1000);
    let _ = writeln!(j, "    \"lane_loads_before\": {before:?},");
    let _ = writeln!(j, "    \"lane_loads_after\": {after:?},");
    let _ = writeln!(
        j,
        "    \"imbalance_before\": {:.3},",
        max_before as f64 / mean
    );
    let _ = writeln!(
        j,
        "    \"imbalance_after\": {:.3},",
        max_after as f64 / mean
    );
    let _ = writeln!(j, "    \"moved_edges\": {moved},");
    let _ = writeln!(j, "    \"rebalance_ms\": {reb_ms:.3}");
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    std::fs::write(&out_path, &j).expect("write BENCH_PR5.json");
    println!("wrote {out_path}");
}
