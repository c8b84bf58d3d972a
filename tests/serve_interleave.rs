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
//! that are a (2k − 1)-spanner of some prefix's live edge set — on
//! small sparse graphs, and on a dense one whose shards really sparsify
//! and overflow E₀ into a slot rebuild mid-flood.

use batch_spanners::gen;
use batch_spanners::graph::csr;
use batch_spanners::prelude::*;
use bds_dstruct::FxHashSet;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

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
        // Readers are running when the flood starts, and each checks at
        // least once: a flood this small can otherwise finish before
        // freshly spawned threads are first scheduled.
        let start = Arc::new(Barrier::new(3));
        let verts: Vec<V> = (0..n as V).collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reads.clone();
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                let queries = queries.clone();
                let verts = verts.clone();
                let valid = valid.clone();
                std::thread::spawn(move || -> Result<u64, String> {
                    start.wait();
                    let mut last_seq = 0u64;
                    let mut checks = 0u64;
                    let (mut hits, mut degs) = (Vec::new(), Vec::new());
                    // At least one check per reader once the flood starts.
                    loop {
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
                        if stop.load(SeqCst) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    Ok(checks)
                })
            })
            .collect();

        start.wait();
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

    /// Theorem 1.1 shards (k = 2) behind the loop on a small sparse
    /// graph: see [`serve_spanner_and_audit`].
    #[test]
    fn pinned_spanner_views_are_3_spanners_of_a_prefix(
        n in 24usize..48,
        shards in 2usize..4,
        seed in 0u64..1_000_000,
        raw in prop::collection::vec((0u64..10_000, 0u64..10_000, 0u64..2), 60..220),
    ) {
        let init = gen::gnm(n, 2 * n, seed);
        let ops = ops_on(n, &raw);
        let (view, live) = serve_spanner_and_audit(n, shards, seed, &init, &ops);
        prop_assert!(
            is_3_spanner_of(n, &live, &view),
            "final view is not a 3-spanner of the final live set"
        );
    }
}

/// Dense enough that the shards really sparsify, and insert-heavy
/// enough that E₀ overflows while readers pin views: n = 64 and k = 2
/// give E₀ a capacity of 64^{3/2} = 512 edges per shard. From 1,500
/// initial edges (all in slot 1 of their shard) the flood deletes 600
/// of them, then inserts every absent edge and re-inserts the deleted
/// ones — 1,116 insertions, more than 512 of them into some shard's E₀,
/// so a slot rebuild runs mid-flood.
#[test]
fn served_spanner_survives_e0_overflow_and_sparsifies() {
    let (n, shards) = (64, 2);
    let init = gen::gnm(n, 1500, 11);
    let present: FxHashSet<Edge> = init.iter().copied().collect();
    let (deleted, _) = init.split_at(600);
    let absent = (0..n as V)
        .flat_map(|u| (u + 1..n as V).map(move |v| Edge::new(u, v)))
        .filter(|e| !present.contains(e));
    let inserted: Vec<Edge> = absent.chain(deleted.iter().copied()).collect();
    let ops: Vec<(Edge, bool)> = deleted
        .iter()
        .map(|&e| (e, false))
        .chain(inserted.iter().map(|&e| (e, true)))
        .collect();
    let mut per_shard = vec![0; shards];
    for &e in &inserted {
        per_shard[HashPartitioner.shard_of(e, shards)] += 1;
    }
    assert!(
        per_shard.iter().any(|&c| c > 512),
        "no shard's E₀ overflows: {per_shard:?}"
    );

    let (view, live) = serve_spanner_and_audit(n, shards, 11, &init, &ops);
    assert!(
        is_3_spanner_of(n, &live, &view),
        "final view is not a 3-spanner of the final live set"
    );
    assert!(
        view.len() < live.len(),
        "final view keeps all {} live edges: stretch was checked against the identity",
        live.len()
    );
}

/// Serve `ops` from `init` through `shards` Theorem 1.1 (k = 2) shards
/// behind the loop while two readers copy each newly published view.
/// The audit runs after the flood, off the serving threads: taken in
/// publish order, every pinned view must be a subgraph of the live set
/// `L_c` after some prefix c with stretch ≤ 3 on it, with c
/// non-decreasing (each published view is the engine state after some
/// number of whole batches; the true prefix satisfies both, so a correct
/// run always passes). Returns the final view and the final live set.
fn serve_spanner_and_audit(
    n: usize,
    shards: usize,
    seed: u64,
    init: &[Edge],
    ops: &[(Edge, bool)],
) -> (Vec<Edge>, FxHashSet<Edge>) {
    let engine = ShardedEngineBuilder::new(n)
        .shards(shards)
        .build_with(init, move |i, es| {
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

    let stop = Arc::new(AtomicBool::new(false));
    // Readers are running when the flood starts.
    let start = Arc::new(Barrier::new(3));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let r = reads.clone();
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let (mut views, mut last_seq) = (Vec::new(), None);
                loop {
                    let g = r.pin();
                    if last_seq != Some(g.seq()) {
                        last_seq = Some(g.seq());
                        views.push((g.seq(), g.edges()));
                    }
                    drop(g);
                    if stop.load(SeqCst) {
                        break;
                    }
                    std::thread::yield_now();
                }
                views
            })
        })
        .collect();

    start.wait();
    send_all(ingest, ops);
    let report = writer.join().unwrap();
    stop.store(true, SeqCst);
    let mut views: BTreeMap<u64, Vec<Edge>> = BTreeMap::new();
    for h in readers {
        for (seq, mut v) in h.join().unwrap() {
            v.sort_unstable();
            views.insert(seq, v);
        }
    }
    assert!(!views.is_empty(), "readers never pinned a view");
    // Greedy earliest match: advance the prefix only while the next view
    // fails on it.
    let mut live: FxHashSet<Edge> = init.iter().copied().collect();
    let mut deg = vec![0u32; n]; // unused here: wraps harmlessly
    let mut rest = ops.iter();
    for (seq, v) in &views {
        while !is_3_spanner_of(n, &live, v) {
            let Some(&(e, ins)) = rest.next() else {
                panic!(
                    "the view of {} edges published at seq {seq} is a 3-spanner of no prefix",
                    v.len()
                );
            };
            apply_op(&mut live, &mut deg, e, ins);
        }
    }
    for &(e, ins) in rest {
        apply_op(&mut live, &mut deg, e, ins);
    }
    let g = reads.pin_at_least(report.final_seq);
    (g.edges(), live)
}
