//! Tier-2 concurrency property: interleave a serve-loop writer with
//! concurrent epoch-pinned readers and check that *every* answered
//! batch query is consistent with some prefix of the submitted update
//! sequence — no torn reads, no time travel.
//!
//! Why prefixes are the right oracle: a single producer feeds the
//! loop's queue in program order, the coalescer drains a contiguous
//! chunk per batch, and each published view is the engine state after
//! applying some number of those chunks. So every state a reader can
//! legally observe is the sequential set-semantics state after some
//! op-count c ∈ 0..=U — we precompute a signature (membership bits of
//! a fixed query set + the full degree vector) for every prefix and
//! require each pinned read to hit one of them, with per-reader
//! publish sequence numbers monotone.
//!
//! The same prefix argument audits the spanner guarantee where it is
//! served: behind the loop, Theorem 1.1 shards must publish only views
//! that are a (2k − 1)-spanner of some prefix's live edge set.

use batch_spanners::gen;
use batch_spanners::graph::csr;
use batch_spanners::prelude::*;
use bds_dstruct::FxHashSet;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

/// Sequential set semantics of one raw op (insert-live and
/// delete-absent are no-ops, exactly as the coalescer nets them).
fn apply_op(live: &mut FxHashSet<Edge>, deg: &mut [u32], e: Edge, insert: bool) {
    let changed = if insert {
        live.insert(e)
    } else {
        live.remove(&e)
    };
    if changed {
        let d = if insert { 1 } else { u32::MAX }; // MAX == -1 wrapping
        deg[e.u as usize] = deg[e.u as usize].wrapping_add(d);
        deg[e.v as usize] = deg[e.v as usize].wrapping_add(d);
    }
}

/// The raw triples as ops on `n` vertices (self-loops dropped).
fn ops_on(n: usize, raw: &[(u64, u64, u64)]) -> Vec<(Edge, bool)> {
    raw.iter()
        .filter_map(|&(a, b, ins)| {
            Edge::try_new((a % n as u64) as V, (b % n as u64) as V).map(|e| (e, ins == 1))
        })
        .collect()
}

/// Feed `ops` to the loop in order, then hang up.
fn send_all(ingest: IngestHandle, ops: &[(Edge, bool)]) {
    for &(e, ins) in ops {
        if ins {
            ingest.insert(e.u, e.v).unwrap();
        } else {
            ingest.delete(e.u, e.v).unwrap();
        }
    }
}

/// `view ⊆ live`, and `view` stretches no edge of `live` past
/// 2k − 1 = 3 (every source sampled).
fn is_3_spanner_of(n: usize, live: &FxHashSet<Edge>, view: &[Edge]) -> bool {
    if !view.iter().all(|e| live.contains(e)) {
        return false;
    }
    let live: Vec<Edge> = live.iter().copied().collect();
    csr::edge_stretch(n, &live, view, n, 0) <= 3.0
}

/// The observable signature of a graph state for a fixed query set:
/// membership bits then the whole degree vector.
fn signature(queries: &[Edge], live: &FxHashSet<Edge>, deg: &[u32]) -> Vec<u32> {
    let mut sig: Vec<u32> = queries.iter().map(|e| live.contains(e) as u32).collect();
    sig.extend_from_slice(deg);
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn readers_observe_only_prefix_states(
        n in 24usize..48,
        seed in 0u64..1_000_000,
        raw in prop::collection::vec((0u64..10_000, 0u64..10_000, 0u64..2), 60..220),
    ) {
        let init = gen::gnm(n, 2 * n, seed);
        // Materialize the op sequence and every prefix's signature.
        let ops = ops_on(n, &raw);
        let queries: Vec<Edge> = init
            .iter()
            .copied()
            .take(12)
            .chain(ops.iter().map(|&(e, _)| e).take(12))
            .collect();
        let mut live: FxHashSet<Edge> = init.iter().copied().collect();
        let mut deg = vec![0u32; n];
        for e in &init {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mut valid: HashSet<Vec<u32>> = HashSet::new();
        valid.insert(signature(&queries, &live, &deg));
        for &(e, ins) in &ops {
            apply_op(&mut live, &mut deg, e, ins);
            valid.insert(signature(&queries, &live, &deg));
        }
        let final_sig = signature(&queries, &live, &deg);

        // Serve the same stream: MirrorSpanner shards make the merged
        // view exactly the live graph.
        let engine = ShardedEngineBuilder::new(n)
            .shards(3)
            .build_with(&init, move |_, es| MirrorSpanner::build(n, es))
            .unwrap();
        let (serve, ingest) = ServeLoopBuilder::new(engine)
            .queue_capacity(24) // small: forces writer/producer overlap
            .batch_policy(BatchPolicy::Fixed(16))
            .build();
        let reads = serve.read_handle();
        let writer = serve.spawn();

        let stop = Arc::new(AtomicBool::new(false));
        let verts: Vec<V> = (0..n as V).collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reads.clone();
                let stop = Arc::clone(&stop);
                let queries = queries.clone();
                let verts = verts.clone();
                let valid = valid.clone();
                std::thread::spawn(move || -> Result<u64, String> {
                    let mut last_seq = 0u64;
                    let mut checks = 0u64;
                    let (mut hits, mut degs) = (Vec::new(), Vec::new());
                    while !stop.load(SeqCst) {
                        // One pin covers both batch queries: they must
                        // answer from the same committed prefix.
                        let g = r.pin();
                        if g.seq() < last_seq {
                            return Err(format!(
                                "published seq went backwards: {} -> {}",
                                last_seq,
                                g.seq()
                            ));
                        }
                        last_seq = g.seq();
                        g.batch_contains(&queries, &mut hits);
                        g.batch_degree(&verts, &mut degs);
                        drop(g);
                        let mut sig: Vec<u32> =
                            hits.iter().map(|&h| h as u32).collect();
                        sig.extend_from_slice(&degs);
                        if !valid.contains(&sig) {
                            return Err(format!(
                                "torn read at seq {last_seq}: answers match no prefix state"
                            ));
                        }
                        checks += 1;
                        std::thread::yield_now();
                    }
                    Ok(checks)
                })
            })
            .collect();

        send_all(ingest, &ops);
        let report = writer.join().unwrap();
        stop.store(true, SeqCst);
        let mut total_checks = 0;
        for h in readers {
            match h.join().unwrap() {
                Ok(checks) => total_checks += checks,
                Err(m) => prop_assert!(false, "reader: {}", m),
            }
        }
        prop_assert!(total_checks > 0, "readers never completed a check");
        prop_assert_eq!(report.raw_updates, ops.len() as u64);

        // The final published state is exactly the full-sequence state.
        let g = reads.pin_at_least(report.final_seq);
        let (mut hits, mut degs) = (Vec::new(), Vec::new());
        g.batch_contains(&queries, &mut hits);
        g.batch_degree(&verts, &mut degs);
        let mut sig: Vec<u32> = hits.iter().map(|&h| h as u32).collect();
        sig.extend_from_slice(&degs);
        prop_assert_eq!(sig, final_sig, "final view != sequential oracle");
        prop_assert_eq!(g.len(), live.len());
    }

    /// Theorem 1.1 shards (k = 2) behind the loop: every view a reader
    /// pins during the flood must be a subgraph of the live set `L_c`
    /// after some prefix c with stretch ≤ 3 on it. The true prefix
    /// satisfies both, so a correct run always passes.
    #[test]
    fn pinned_spanner_views_are_3_spanners_of_a_prefix(
        n in 24usize..48,
        shards in 2usize..4,
        seed in 0u64..1_000_000,
        raw in prop::collection::vec((0u64..10_000, 0u64..10_000, 0u64..2), 60..220),
    ) {
        let init = gen::gnm(n, 2 * n, seed);
        let ops = ops_on(n, &raw);
        let mut live: FxHashSet<Edge> = init.iter().copied().collect();
        let mut prefixes = vec![live.clone()];
        for &(e, ins) in &ops {
            if ins {
                live.insert(e);
            } else {
                live.remove(&e);
            }
            prefixes.push(live.clone());
        }

        let engine = ShardedEngineBuilder::new(n)
            .shards(shards)
            .build_with(&init, move |i, es| {
                FullyDynamicSpanner::builder(n)
                    .stretch(2)
                    .seed(seed ^ i as u64)
                    .build(es)
            })
            .unwrap();
        let (serve, ingest) = ServeLoopBuilder::new(engine)
            .queue_capacity(24)
            .batch_policy(BatchPolicy::Fixed(16))
            .build();
        let reads = serve.read_handle();
        let writer = serve.spawn();

        // Readers copy each newly published view they pin; the audit
        // runs after the flood, off the serving threads.
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reads.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (mut views, mut last_seq) = (Vec::new(), None);
                    while !stop.load(SeqCst) {
                        let g = r.pin();
                        if last_seq != Some(g.seq()) {
                            last_seq = Some(g.seq());
                            views.push(g.edges());
                        }
                        drop(g);
                        std::thread::yield_now();
                    }
                    views
                })
            })
            .collect();

        send_all(ingest, &ops);
        let report = writer.join().unwrap();
        stop.store(true, SeqCst);
        let mut views: HashSet<Vec<Edge>> = HashSet::new();
        for h in readers {
            for mut v in h.join().unwrap() {
                v.sort_unstable();
                views.insert(v);
            }
        }
        prop_assert!(!views.is_empty(), "readers never pinned a view");
        for v in &views {
            prop_assert!(
                prefixes.iter().any(|l| is_3_spanner_of(n, l, v)),
                "a pinned view of {} edges is a 3-spanner of no prefix",
                v.len()
            );
        }
        let g = reads.pin_at_least(report.final_seq);
        prop_assert!(
            is_3_spanner_of(n, &live, &g.edges()),
            "final view is not a 3-spanner of the final live set"
        );
    }
}
