//! Scenario: a live serving pipeline. Producer threads push raw edge
//! updates through bounded `IngestHandle`s; one writer thread owns a
//! sharded Theorem 1.1 spanner engine, coalesces the stream into
//! batches of at most `BATCH` raw updates, and publishes every
//! applied batch through double-buffered `ShardedView`s; reader threads
//! pin the freshest view with an RAII guard and answer *parallel batch
//! queries* (`batch_contains` / `batch_degree`) while the writer keeps
//! absorbing traffic.
//!
//! Run with: `cargo run --example serving_pipeline --release`

use batch_spanners::gen;
use batch_spanners::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Raw queued updates folded into one engine batch at most.
const BATCH: usize = 1024;

fn main() {
    let n = 2_000;
    let init = gen::gnm_connected(n, 4 * n, 5);
    println!(
        "serving pipeline: n = {n}, m0 = {}, 4 spanner shards (threads: {})",
        init.len(),
        bds_par::threads_available()
    );

    let engine = ShardedEngineBuilder::new(n)
        .shards(4)
        .build_with(&init, move |i, es| {
            FullyDynamicSpanner::builder(n)
                .stretch(2)
                .seed(40 + i as u64)
                .build(es)
        })
        .expect("valid configuration");

    let (serve, ingest) = ServeLoopBuilder::new(engine)
        .queue_capacity(8_192)
        .batch_policy(BatchPolicy::Fixed(BATCH))
        .build();
    let reads = serve.read_handle();
    let writer = serve.spawn();

    // --- Producers: two threads, each a deterministic churn script. ---
    // Inserting a live edge or deleting an absent one is fine: the
    // coalescer nets it out against the engine's live set.
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let tx = ingest.clone();
            std::thread::spawn(move || {
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(p + 1);
                let mut step = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..30_000u32 {
                    let a = (step() % n as u64) as V;
                    let b = (step() % n as u64) as V;
                    if a == b {
                        continue;
                    }
                    if step() % 3 == 0 {
                        tx.delete(a, b).unwrap();
                    } else {
                        tx.insert(a, b).unwrap();
                    }
                }
            })
        })
        .collect();
    drop(ingest); // writer exits once the producers hang up

    // --- Readers: pin-per-burst, batch queries against one epoch. ---
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2u32)
        .map(|_| {
            let r = reads.clone();
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let queries: Vec<Edge> = (0..(n as V - 1)).map(|u| Edge::new(u, u + 1)).collect();
                let verts: Vec<V> = (0..n as V).collect();
                let (mut hits, mut degs) = (Vec::new(), Vec::new());
                while !stop.load(Relaxed) {
                    let g = r.pin(); // RAII: released at end of scope
                    g.batch_contains(&queries, &mut hits);
                    g.batch_degree(&verts, &mut degs);
                    // Within one pin, answers are mutually consistent.
                    let total: u64 = degs.iter().map(|&d| d as u64).sum();
                    assert_eq!(total, 2 * g.len() as u64, "torn read");
                    answered.fetch_add((hits.len() + degs.len()) as u64, Relaxed);
                }
            })
        })
        .collect();

    for p in producers {
        p.join().unwrap();
    }
    let report = writer.join().unwrap();
    stop.store(true, Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    println!(
        "writer: {} raw updates -> {} batches (dropped {} no-ops, cancelled {} pairs)",
        report.raw_updates, report.batches, report.dropped_noops, report.cancelled_pairs
    );
    println!(
        "batch size: {BATCH} · apply total {:.1}ms (max {:.2}ms) · pin-wait {:.3}ms",
        report.apply_ns_total as f64 / 1e6,
        report.apply_ns_max as f64 / 1e6,
        report.pin_wait_ns as f64 / 1e6,
    );
    println!(
        "readers answered {} batch queries concurrently",
        answered.load(Relaxed)
    );

    // The handles outlive the loop: late readers still pin the final
    // state, which mirrors every applied batch.
    let g = reads.pin_at_least(report.final_seq);
    assert_eq!(g.seq(), report.final_seq);
    println!(
        "final published view: seq {} with {} spanner edges",
        g.seq(),
        g.len()
    );
}
