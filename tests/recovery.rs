//! Crash-recovery torture tests over the write-ahead log (PR 7): kill
//! the serving pipeline at a random batch, recover from snapshot + log,
//! and demand *exact* equality against a monolith oracle — then do it
//! again with the log torn at every byte offset of its final records,
//! and again with single bits flipped anywhere in the artifacts. The
//! recovery path must never panic on bad bytes and must never lose a
//! published batch (write-ahead ordering).

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use batch_spanners::gen;
use batch_spanners::graph::csr;
use batch_spanners::prelude::*;
use batch_spanners::wal::{self, WalReader, WalRecord};
use bds_dstruct::FxHashSet;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

// ---------------------------------------------------------------------------
// Harness: a shard wrapper that panics after a set number of batches,
// killing the serve-loop writer mid-pipeline exactly like a crash.
// ---------------------------------------------------------------------------

struct Poisoned {
    inner: MirrorSpanner,
    applies_left: Cell<u32>,
}

impl BatchDynamic for Poisoned {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn num_live_edges(&self) -> usize {
        self.inner.num_live_edges()
    }
    fn output_into(&self, out: &mut DeltaBuf) {
        self.inner.output_into(out)
    }
    fn stats(&self) -> BatchStats {
        self.inner.stats()
    }
}

impl Decremental for Poisoned {
    fn delete_into(&mut self, deletions: &[Edge], out: &mut DeltaBuf) {
        self.inner.delete_into(deletions, out);
    }
}

impl FullyDynamic for Poisoned {
    fn insert_into(&mut self, insertions: &[Edge], out: &mut DeltaBuf) {
        self.inner.insert_into(insertions, out);
    }
    fn apply_into(&mut self, batch: &UpdateBatch, out: &mut DeltaBuf) {
        let left = self.applies_left.get();
        assert!(left > 0, "poisoned shard: injected crash");
        self.applies_left.set(left - 1);
        self.inner.apply_into(batch, out);
    }
}

/// Tiny deterministic RNG so every proptest case is replayable.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

struct CrashRun {
    log: PathBuf,
    snap: PathBuf,
    /// Batch seq of the last *published* view when the writer died.
    published_seq: u64,
    crashed: bool,
}

/// Drive a durable serve loop over `updates`, with every shard poisoned
/// to panic on its `kill_after`-th batch. Returns the on-disk artifacts
/// plus what readers had seen at the moment of death.
fn run_until_crash(
    tag: &str,
    n: usize,
    init: &[Edge],
    updates: &[Update],
    kill_after: u32,
    snapshot_every: u64,
) -> CrashRun {
    let log = tmp(&format!("{tag}.wal"));
    let snap = tmp(&format!("{tag}.snap"));
    let init_owned = init.to_vec();
    let engine = ShardedEngineBuilder::new(n)
        .shards(3)
        .build_with(&init_owned, move |_, es| {
            Ok::<_, ConfigError>(Poisoned {
                inner: MirrorSpanner::build(n, es)?,
                applies_left: Cell::new(kill_after),
            })
        })
        .unwrap();
    let (serve, ingest) = ServeLoopBuilder::new(engine)
        .queue_capacity(8)
        .batch_policy(BatchPolicy::Fixed(4))
        .durability(
            WalConfig::new(&log)
                .fsync(FsyncPolicy::EveryBatch)
                .snapshot(&snap, snapshot_every),
        )
        .build();
    let reads = serve.read_handle();
    let writer = serve.spawn();
    for &up in updates {
        if ingest.send(up).is_err() {
            break;
        }
    }
    drop(ingest);
    let crashed = writer.join().is_err();
    let published_seq = reads.pin().seq();
    CrashRun {
        log,
        snap,
        published_seq,
        crashed,
    }
}

// ---------------------------------------------------------------------------
// Oracle: walk the log once, fold every Batch record into a monolith
// shadow, and remember each record's byte extent for surgery.
// ---------------------------------------------------------------------------

struct Rec {
    start: u64,
    end: u64,
    /// Sequence the record carries (Seed/Batch/Delta all have one).
    seq: u64,
    is_batch: bool,
}

struct LogMap {
    base_seq: u64,
    records: Vec<Rec>,
    /// `states[s - base_seq]` = live input-edge set after batch `s`
    /// (index 0 is the initial state).
    states: Vec<FxHashSet<Edge>>,
    file_len: u64,
}

impl LogMap {
    fn walk(log: &Path, init: &[Edge]) -> Self {
        let mut rd = WalReader::open(log).expect("oracle walk expects a clean log");
        let base_seq = rd.header().base_seq;
        let mut records = Vec::new();
        let mut states = vec![init.iter().copied().collect::<FxHashSet<Edge>>()];
        loop {
            let start = rd.offset();
            let Some(rec) = rd.next_record().expect("oracle walk expects a clean log") else {
                break;
            };
            records.push(Rec {
                start,
                end: rd.offset(),
                seq: rec.seq(),
                is_batch: matches!(rec, WalRecord::Batch { .. }),
            });
            if let WalRecord::Batch { seq, batch } = rec {
                assert_eq!(seq, base_seq + states.len() as u64, "log must be gapless");
                let mut next = states.last().unwrap().clone();
                for e in &batch.deletions {
                    assert!(next.remove(e), "logged deletion of an absent edge");
                }
                for e in &batch.insertions {
                    assert!(next.insert(*e), "logged insertion of a live edge");
                }
                states.push(next);
            }
        }
        assert!(!rd.torn_tail(), "oracle walk expects a clean log");
        LogMap {
            base_seq,
            records,
            states,
            file_len: fs::metadata(log).unwrap().len(),
        }
    }

    fn oracle_at(&self, seq: u64) -> &FxHashSet<Edge> {
        &self.states[(seq - self.base_seq) as usize]
    }

    fn max_batch_seq(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.is_batch)
            .map(|r| r.seq)
            .max()
            .unwrap_or(self.base_seq)
    }

    /// Highest batch seq whose record lies entirely within `prefix_len`
    /// bytes — what a correct recovery of that prefix must reach.
    fn batch_seq_within(&self, prefix_len: u64) -> u64 {
        self.records
            .iter()
            .filter(|r| r.is_batch && r.end <= prefix_len)
            .map(|r| r.seq)
            .max()
            .unwrap_or(self.base_seq)
    }

    /// Seq of the last record (of any kind) ending at or before `off` —
    /// what `RecoverError::Corrupt` must report for a record at `off`.
    fn last_seq_before(&self, off: u64) -> u64 {
        self.records
            .iter()
            .rev()
            .find(|r| r.end <= off)
            .map(|r| r.seq)
            .unwrap_or(self.base_seq)
    }

    /// Start offset of the record containing byte `pos`.
    fn record_start_of(&self, pos: u64) -> u64 {
        self.records
            .iter()
            .find(|r| r.start <= pos && pos < r.end)
            .map(|r| r.start)
            .expect("position must fall inside a record")
    }

    fn is_boundary(&self, off: u64) -> bool {
        off == self.file_len
            || self.records.first().map(|r| r.start) == Some(off)
            || self.records.iter().any(|r| r.end == off)
    }
}

fn recover_mirror(
    snap: &Path,
    log: &Path,
    n: usize,
) -> Result<wal::Recovered<MirrorSpanner, HashPartitioner>, RecoverError> {
    wal::recover(
        snap,
        log,
        ShardedEngineBuilder::new(n).shards(3),
        move |_, es| MirrorSpanner::build(n, es),
    )
}

fn engine_edges<S, P>(engine: &ShardedEngine<S, P>) -> FxHashSet<Edge>
where
    S: FullyDynamic + Send,
    P: Partitioner,
{
    engine.live_input_edges().collect()
}

/// A random update stream over `n` vertices, deterministic in `seed`.
fn update_stream(n: usize, len: usize, seed: u64) -> Vec<Update> {
    let mut rng = seed | 1;
    let mut ups = Vec::with_capacity(len);
    while ups.len() < len {
        let a = (lcg(&mut rng) % n as u64) as V;
        let b = (lcg(&mut rng) % n as u64) as V;
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        ups.push(if lcg(&mut rng).is_multiple_of(2) {
            Update::Insert(e)
        } else {
            Update::Delete(e)
        });
    }
    ups
}

// ---------------------------------------------------------------------------
// Headline: kill at a random batch, recover, compare to the monolith.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Crash the durable pipeline at a random batch seq (and snapshot
    /// cadence), recover from snapshot + log, and require the rebuilt
    /// engine to exactly equal a monolith `MirrorSpanner` fed the same
    /// logged batches — never behind what readers saw (write-ahead).
    #[test]
    fn crash_at_random_batch_recovers_exactly(
        seed in any::<u64>(),
        kill_after in 1u32..12,
        snapshot_every in 0u64..4,
    ) {
        let n = 48;
        let init = gen::gnm(n, 90, seed ^ 0x5eed);
        let updates = update_stream(n, 200, seed);
        let tag = format!("crash_{seed:016x}_{kill_after}_{snapshot_every}");
        let run = run_until_crash(&tag, n, &init, &updates, kill_after, snapshot_every);

        let map = LogMap::walk(&run.log, &init);
        let r = recover_mirror(&run.snap, &run.log, n).expect("clean log must recover");
        // Write-ahead ordering: every published batch is in the log, so
        // recovery can never land behind a state a reader observed.
        prop_assert!(
            r.seq >= run.published_seq,
            "recovered seq {} behind published {}", r.seq, run.published_seq
        );
        prop_assert_eq!(r.seq, map.max_batch_seq());
        prop_assert_eq!(r.seq, r.engine.seq());
        prop_assert!(!r.torn_tail);
        prop_assert_eq!(
            r.engine.engine_id(),
            WalReader::open(&run.log).unwrap().header().engine_id,
            "recovered engine must adopt the logged identity"
        );

        // Monolith oracle: one unsharded MirrorSpanner fed the same
        // logged batches, plus the set-fold the LogMap maintains.
        let mut monolith = MirrorSpanner::build(n, &init).unwrap();
        let mut delta = DeltaBuf::new();
        let mut replayed = 0u64;
        let mut rd = WalReader::open(&run.log).unwrap();
        while let Some(rec) = rd.next_record().unwrap() {
            if let WalRecord::Batch { batch, .. } = rec {
                monolith.apply_into(&batch, &mut delta);
                replayed += 1;
            }
        }
        prop_assert_eq!(r.seq, map.base_seq + replayed);
        let mut out = DeltaBuf::new();
        monolith.output_into(&mut out);
        let monolith_edges: FxHashSet<Edge> = out.inserted().iter().copied().collect();
        let recovered_edges = engine_edges(&r.engine);
        prop_assert_eq!(&recovered_edges, &monolith_edges);
        prop_assert_eq!(&recovered_edges, map.oracle_at(r.seq));
        if run.crashed {
            // The fatal batch was logged before the engine ever saw it.
            prop_assert!(map.max_batch_seq() > run.published_seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Torn writes: truncate the log at EVERY byte offset of its final
// records and recover each prefix.
// ---------------------------------------------------------------------------

/// A clean (uncrashed) durable run whose artifacts the surgery tests
/// cut up: initial snapshot only, so recovery must replay every batch.
fn clean_artifacts(tag: &str, n: usize, init: &[Edge], ops: usize) -> CrashRun {
    let run = run_until_crash(tag, n, init, &update_stream(n, ops, 0xc1ea4), u32::MAX, 0);
    assert!(!run.crashed);
    run
}

#[test]
fn torn_tail_truncation_at_every_offset_recovers_prefix() {
    let n = 32;
    let init = gen::gnm(n, 60, 7);
    let run = clean_artifacts("torn", n, &init, 100);
    let map = LogMap::walk(&run.log, &init);
    let bytes = fs::read(&run.log).unwrap();
    // Cut everywhere from the start of the last Batch record to EOF:
    // that tears the final input record at every offset, and the
    // trailing output (Delta) record with it.
    let last_batch_start = map
        .records
        .iter()
        .filter(|r| r.is_batch)
        .map(|r| r.start)
        .max()
        .expect("run must have logged at least one batch");
    let torn = tmp("torn_cut.wal");
    for cut in last_batch_start..=map.file_len {
        fs::write(&torn, &bytes[..cut as usize]).unwrap();
        let r = recover_mirror(&run.snap, &torn, n)
            .unwrap_or_else(|e| panic!("cut at {cut} must recover, got {e}"));
        let expected = map.batch_seq_within(cut);
        assert_eq!(r.seq, expected, "cut at {cut}");
        assert_eq!(
            r.torn_tail,
            !map.is_boundary(cut),
            "cut at {cut}: torn iff mid-record"
        );
        assert_eq!(
            &engine_edges(&r.engine),
            map.oracle_at(expected),
            "cut at {cut}"
        );
    }
}

// ---------------------------------------------------------------------------
// Bit flips: anywhere in the header or body, recovery returns a typed
// error (or the checksum-valid prefix) — it never panics.
// ---------------------------------------------------------------------------

#[test]
fn bit_flips_yield_typed_corruption_never_a_panic() {
    let n = 32;
    let init = gen::gnm(n, 60, 9);
    let run = clean_artifacts("flip", n, &init, 100);
    let map = LogMap::walk(&run.log, &init);
    let bytes = fs::read(&run.log).unwrap();
    let header_len = map.records.first().map(|r| r.start).unwrap() as usize;

    // Every header byte, plus a deterministic sample of body bytes and
    // every record's length field (the one field that can turn a
    // complete record into an apparent torn tail).
    let mut positions: Vec<usize> = (0..header_len).collect();
    let mut rng = 0xf11bu64;
    for _ in 0..300 {
        positions.push(header_len + (lcg(&mut rng) as usize % (bytes.len() - header_len)));
    }
    positions.extend(map.records.iter().map(|r| r.start as usize));
    positions.sort_unstable();
    positions.dedup();

    let fuzzed = tmp("flip_fuzz.wal");
    for &pos in &positions {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << (pos % 8);
        fs::write(&fuzzed, &mutated).unwrap();

        // Strict recovery: a flipped record is Corrupt — unless the
        // flip hit a length field and the record now merely *ends
        // early*, which is indistinguishable from a torn tail.
        match recover_mirror(&run.snap, &fuzzed, n) {
            Ok(r) => {
                assert!(
                    pos >= header_len,
                    "flip at header byte {pos} must not recover"
                );
                let expected = map.batch_seq_within(map.record_start_of(pos as u64));
                assert_eq!(r.seq, expected, "flip at {pos}");
                assert_eq!(&engine_edges(&r.engine), map.oracle_at(expected));
            }
            Err(RecoverError::Corrupt { seq, offset }) => {
                if pos < header_len {
                    assert!(
                        (offset as usize) < header_len,
                        "flip at header byte {pos}: offset {offset} must be in the header"
                    );
                } else {
                    let start = map.record_start_of(pos as u64);
                    assert_eq!(offset, start, "flip at {pos}");
                    assert_eq!(seq, map.last_seq_before(start), "flip at {pos}");
                }
            }
            Err(e) => panic!("flip at {pos}: unexpected error kind {e}"),
        }

        // Tolerant recovery: same prefix, corruption reported not fatal.
        if pos >= header_len {
            let (r, corruption) = wal::recover_prefix(
                &run.snap,
                &fuzzed,
                ShardedEngineBuilder::new(n).shards(3),
                move |_, es| MirrorSpanner::build(n, es),
            )
            .unwrap_or_else(|e| panic!("flip at {pos}: prefix recovery failed with {e}"));
            let start = map.record_start_of(pos as u64);
            let expected = map.batch_seq_within(start);
            assert_eq!(r.seq, expected, "flip at {pos}");
            assert_eq!(&engine_edges(&r.engine), map.oracle_at(expected));
            if let Some(c) = corruption {
                assert_eq!(c.offset, start, "flip at {pos}");
                assert_eq!(c.seq, map.last_seq_before(start), "flip at {pos}");
            } else {
                // The flip turned the tail into an apparent torn write.
                assert!(r.torn_tail, "flip at {pos}: no corruption and no torn tail");
            }
        }
    }
}

#[test]
fn snapshot_bit_flips_are_typed_corruption() {
    let n = 32;
    let init = gen::gnm(n, 60, 11);
    let run = clean_artifacts("snapflip", n, &init, 60);
    let bytes = fs::read(&run.snap).unwrap();
    let fuzzed = tmp("snapflip_fuzz.snap");
    let mut rng = 0x5eedu64;
    let positions: Vec<usize> = (0..64)
        .map(|_| lcg(&mut rng) as usize % bytes.len())
        .collect();
    for pos in positions {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << (pos % 8);
        fs::write(&fuzzed, &mutated).unwrap();
        match wal::Snapshot::read_from(&fuzzed) {
            Err(RecoverError::Corrupt { .. }) => {}
            Err(e) => panic!("flip at {pos}: unexpected error kind {e}"),
            Ok(_) => panic!("flip at {pos}: checksum must catch a single-bit flip"),
        }
    }
}

#[test]
fn mismatched_artifacts_are_rejected_with_typed_errors() {
    let n = 24;
    let init = gen::gnm(n, 40, 13);
    let a = clean_artifacts("mismatch_a", n, &init, 40);
    let b = clean_artifacts("mismatch_b", n, &init, 40);
    // Snapshot from engine A against engine B's log: not the same
    // logical engine, refused before any replay.
    match recover_mirror(&a.snap, &b.log, n) {
        Err(RecoverError::EngineMismatch { snapshot, log }) => assert_ne!(snapshot, log),
        other => panic!(
            "cross-engine artifacts must fail with EngineMismatch, got {:?}",
            other.err()
        ),
    }
}

// ---------------------------------------------------------------------------
// FollowerView: a log-tailing mirror on another thread trails the
// primary and converges to the final published state.
// ---------------------------------------------------------------------------

#[test]
fn follower_tails_the_log_from_another_thread() {
    let n = 64;
    let init = gen::gnm(n, 120, 21);
    let log = tmp("follower.wal");
    let init_owned = init.clone();
    let engine = ShardedEngineBuilder::new(n)
        .shards(2)
        .build_with(&init_owned, move |_, es| MirrorSpanner::build(n, es))
        .unwrap();
    let (serve, ingest) = ServeLoopBuilder::new(engine)
        .queue_capacity(16)
        .batch_policy(BatchPolicy::Fixed(8))
        .durability(WalConfig::new(&log).fsync(FsyncPolicy::EveryBatch))
        .build();
    let reads = serve.read_handle();
    let writer = serve.spawn();

    // 0 = unknown; the producer publishes the final seq once the
    // writer reports, and the follower polls until it gets there.
    let target = Arc::new(AtomicU64::new(0));
    let follower_target = Arc::clone(&target);
    let log_for_follower = log.clone();
    let follower = std::thread::spawn(move || {
        let mut fv = wal::FollowerView::open(&log_for_follower).expect("header is synced at build");
        let mut last = fv.seq();
        loop {
            fv.catch_up().expect("live log must stay checksum-clean");
            assert!(fv.seq() >= last, "follower seq must be monotone");
            last = fv.seq();
            let t = follower_target.load(Ordering::Acquire);
            if t != 0 && fv.is_seeded() && fv.seq() >= t {
                return fv;
            }
            std::thread::yield_now();
        }
    });

    for up in update_stream(n, 400, 0xf0110) {
        ingest.send(up).unwrap();
    }
    drop(ingest);
    let report = writer.join().unwrap();
    target.store(report.final_seq.max(1), Ordering::Release);
    let fv = follower.join().unwrap();

    let primary = reads.pin_at_least(report.final_seq);
    assert_eq!(fv.seq(), primary.seq());
    let follower_edges: FxHashSet<Edge> = fv.view().edges().into_iter().collect();
    let primary_edges: FxHashSet<Edge> = primary.edges().into_iter().collect();
    assert_eq!(follower_edges, primary_edges);
    assert_eq!(report.wal_batches, report.batches);
    assert!(report.wal_syncs >= report.batches);
}

// ---------------------------------------------------------------------------
// Randomized structures: recovery must reproduce the *same coin flips*,
// not just the same input set.
// ---------------------------------------------------------------------------

fn spanner_factory(
    n: usize,
) -> impl Fn(usize, &[Edge]) -> Result<FullyDynamicSpanner, ConfigError> + Sync + Send + Clone + 'static
{
    move |i, es| {
        FullyDynamicSpanner::builder(n)
            .stretch(2)
            .seed(1000 + i as u64)
            .build(es)
    }
}

#[test]
fn recovered_randomized_engine_answers_identically_to_primary() {
    let n = 80;
    let init = gen::gnm_connected(n, 200, 5);
    let log = tmp("rand_recover.wal");
    let snap = tmp("rand_recover.snap");
    let engine = ShardedEngineBuilder::new(n)
        .shards(2)
        .build_with(&init, spanner_factory(n))
        .unwrap();
    let (serve, ingest) = ServeLoopBuilder::new(engine)
        .queue_capacity(32)
        .batch_policy(BatchPolicy::Fixed(8))
        // Initial snapshot only: recovery then replays the entire run,
        // which for a seeded structure reproduces the exact coin flips.
        .durability(WalConfig::new(&log).snapshot(&snap, 0))
        .build();
    let reads = serve.read_handle();
    let writer = serve.spawn();
    for up in update_stream(n, 300, 0xabcde) {
        ingest.send(up).unwrap();
    }
    drop(ingest);
    let report = writer.join().unwrap();
    let primary = reads.pin_at_least(report.final_seq);

    let r = wal::recover(
        &snap,
        &log,
        ShardedEngineBuilder::new(n).shards(2),
        spanner_factory(n),
    )
    .expect("clean log must recover");
    assert_eq!(r.seq, report.final_seq);
    // Not merely the same input set: the recovered spanner made the
    // same randomized choices, so its *output* matches edge-for-edge.
    let recovered_out: FxHashSet<Edge> = ShardedView::of(&r.engine).edges().into_iter().collect();
    let primary_out: FxHashSet<Edge> = primary.edges().into_iter().collect();
    assert_eq!(recovered_out, primary_out);
    // The spanner guarantee where crash redundancy lives: the recovered
    // sharded union is a subgraph of the recovered live input with
    // stretch at most 2k - 1 = 3 (k = 2).
    let live: Vec<Edge> = r.engine.live_input_edges().collect();
    let live_set: FxHashSet<Edge> = live.iter().copied().collect();
    assert!(recovered_out.is_subset(&live_set));
    let union: Vec<Edge> = recovered_out.into_iter().collect();
    let stretch = csr::edge_stretch(n, &live, &union, n, 0x5eed);
    assert!(
        stretch <= 3.0,
        "recovered sharded union has stretch {stretch}"
    );
}

// ---------------------------------------------------------------------------
// Compaction: dropping snapshot-covered records must not change what
// recovery rebuilds, and the rolled-forward seed must keep followers
// whole. Runs on the connectivity engine — the WAL is product-agnostic.
// ---------------------------------------------------------------------------

#[test]
fn compacted_log_recovers_exactly_and_reseeds_followers() {
    let n: usize = 48;
    let log = tmp("compact.wal");
    let log_orig = tmp("compact-orig.wal");
    let snap_path = tmp("compact.snap");

    let init: Vec<Edge> = (0..n as V - 1).map(|i| Edge::new(i, i + 1)).collect();
    let mut engine = ShardedEngineBuilder::new(n)
        .shards(3)
        .build_with(&init, move |_, es| BatchConnectivity::builder(n).build(es))
        .unwrap();
    let mut writer = WalWriter::create(
        &log,
        engine.engine_id(),
        engine.layout_epoch(),
        n as u64,
        engine.seq(),
        FsyncPolicy::Manual,
    )
    .unwrap();
    writer
        .append_seed(engine.seq(), &ShardedView::of(&engine).edges())
        .unwrap();

    let mut live: FxHashSet<Edge> = init.iter().copied().collect();
    let mut rng = 0xC0DEC_u64;
    let mut delta = DeltaBuf::new();
    let step = |engine: &mut ShardedEngine<BatchConnectivity, HashPartitioner>,
                writer: &mut WalWriter,
                live: &mut FxHashSet<Edge>,
                rng: &mut u64,
                delta: &mut DeltaBuf| {
        let mut batch = UpdateBatch::default();
        let snapshot: Vec<Edge> = live.iter().copied().collect();
        for k in 0..7 {
            if k % 2 == 0 && !snapshot.is_empty() {
                let e = snapshot[lcg(rng) as usize % snapshot.len()];
                if live.remove(&e) {
                    batch.deletions.push(e);
                }
            } else {
                let a = (lcg(rng) % n as u64) as V;
                let b = (lcg(rng) % n as u64) as V;
                let e = Edge::new(a, b);
                if a != b && !batch.deletions.contains(&e) && live.insert(e) {
                    batch.insertions.push(e);
                }
            }
        }
        writer.append_batch(engine.seq() + 1, &batch).unwrap();
        engine.apply_into(&batch, delta);
        writer.append_delta(delta).unwrap();
    };

    for _ in 0..8 {
        step(&mut engine, &mut writer, &mut live, &mut rng, &mut delta);
    }
    writer.sync().unwrap();
    fs::copy(&log, &log_orig).unwrap();
    let live_at_snap = live.clone();
    let snap = wal::Snapshot::of(&engine);
    snap.write_to(&snap_path).unwrap();

    // A snapshot from a different engine must be refused untouched.
    let len_before = fs::metadata(&log).unwrap().len();
    let mut bogus = snap.clone();
    bogus.engine_id ^= 1;
    assert!(matches!(
        writer.compact(&bogus),
        Err(RecoverError::EngineMismatch { .. })
    ));
    assert_eq!(fs::metadata(&log).unwrap().len(), len_before);

    // Seed + 8 batches + 8 deltas are covered; the log must shrink and
    // re-anchor at the snapshot.
    let dropped = writer.compact(&snap).unwrap();
    assert_eq!(dropped, 17);
    assert!(fs::metadata(&log).unwrap().len() < len_before);
    let rd = WalReader::open(&log).unwrap();
    assert_eq!(rd.header().base_seq, snap.seq);
    // Re-compacting against the same snapshot is a no-op.
    assert_eq!(writer.compact(&snap).unwrap(), 0);

    // The reopened handle keeps appending where the old one left off.
    for _ in 0..4 {
        step(&mut engine, &mut writer, &mut live, &mut rng, &mut delta);
    }
    writer.sync().unwrap();

    let factory = move |_: usize, es: &[Edge]| BatchConnectivity::builder(n).build(es);
    let from_orig = wal::recover(
        &snap_path,
        &log_orig,
        ShardedEngineBuilder::new(n).shards(3),
        factory,
    )
    .unwrap();
    assert_eq!(from_orig.seq, snap.seq);
    assert_eq!(engine_edges(&from_orig.engine), live_at_snap);

    let from_compact = wal::recover(
        &snap_path,
        &log,
        ShardedEngineBuilder::new(n).shards(3),
        factory,
    )
    .unwrap();
    assert_eq!(from_compact.seq, engine.seq());
    assert_eq!(from_compact.replayed, 4);
    assert!(!from_compact.torn_tail);
    assert_eq!(engine_edges(&from_compact.engine), live);

    // Connectivity parity: the recovered engine's unioned shard forests
    // answer exactly like a union-find over the live input edges.
    let view = ShardedView::of(&from_compact.engine);
    let cv = ConnView::from_edges(n, &view.edges());
    let mut uf = bds_graph::UnionFind::new(n);
    for e in &live {
        uf.union(e.u, e.v);
    }
    assert_eq!(cv.num_components(), uf.components());
    for a in 0..n as V {
        for b in (a + 1)..n as V {
            assert_eq!(cv.connected(a, b), uf.same(a, b), "pair ({a},{b})");
        }
    }

    // A follower opening the compacted log reseeds from the rolled-
    // forward seed and tails the retained deltas to the live output.
    let mut fv = wal::FollowerView::open(&log).unwrap();
    fv.catch_up().unwrap();
    assert!(fv.is_seeded());
    assert_eq!(fv.seq(), engine.seq());
    let follower_edges: FxHashSet<Edge> = fv.view().edges().into_iter().collect();
    let primary_edges: FxHashSet<Edge> = ShardedView::of(&engine).edges().into_iter().collect();
    assert_eq!(follower_edges, primary_edges);
}

/// Satellite regression (PR 10, ROADMAP open item): an *already open*
/// `FollowerView` must survive `WalWriter::compact` renaming a new log
/// generation over the path it tails — previously it kept reading the
/// dead inode forever. Three escalating scenarios against one follower:
///
/// 1. Follower caught up past the compaction point: the rewrite is
///    detected on the next idle poll, the view is kept (no re-seed),
///    the retained deltas it already holds are skipped, and tailing
///    continues on the new inode.
/// 2. Follower behind a *double* compaction (the deltas it missed
///    lived only in the intermediate generation): it must re-seed from
///    the rolled-forward `Seed` and converge to the primary exactly.
/// 3. A different engine's log appearing at the path is a hard
///    `EngineMismatch`, not silent divergence.
#[test]
fn open_follower_survives_compaction_rewrite() {
    let n: usize = 40;
    let log = tmp("compact-rewrite.wal");

    let init: Vec<Edge> = (0..n as V - 1).map(|i| Edge::new(i, i + 1)).collect();
    let mut engine = ShardedEngineBuilder::new(n)
        .shards(2)
        .build_with(&init, move |_, es| BatchConnectivity::builder(n).build(es))
        .unwrap();
    let mut writer = WalWriter::create(
        &log,
        engine.engine_id(),
        engine.layout_epoch(),
        n as u64,
        engine.seq(),
        FsyncPolicy::Manual,
    )
    .unwrap();
    writer
        .append_seed(engine.seq(), &ShardedView::of(&engine).edges())
        .unwrap();

    let mut live: FxHashSet<Edge> = init.iter().copied().collect();
    let mut rng = 0xF0110_u64;
    let mut delta = DeltaBuf::new();
    let mut step = |engine: &mut ShardedEngine<BatchConnectivity, HashPartitioner>,
                    writer: &mut WalWriter| {
        let mut batch = UpdateBatch::default();
        let snapshot: Vec<Edge> = live.iter().copied().collect();
        for k in 0..6 {
            if k % 2 == 0 && !snapshot.is_empty() {
                let e = snapshot[lcg(&mut rng) as usize % snapshot.len()];
                if live.remove(&e) {
                    batch.deletions.push(e);
                }
            } else {
                let a = (lcg(&mut rng) % n as u64) as V;
                let b = (lcg(&mut rng) % n as u64) as V;
                if a == b {
                    continue;
                }
                let e = Edge::new(a, b);
                if !batch.deletions.contains(&e) && live.insert(e) {
                    batch.insertions.push(e);
                }
            }
        }
        writer.append_batch(engine.seq() + 1, &batch).unwrap();
        engine.apply_into(&batch, &mut delta);
        writer.append_delta(&delta).unwrap();
    };
    let assert_mirrors = |fv: &wal::FollowerView, engine: &ShardedEngine<_, _>| {
        assert_eq!(fv.seq(), engine.seq());
        let f: FxHashSet<Edge> = fv.view().edges().into_iter().collect();
        let p: FxHashSet<Edge> = ShardedView::of(engine).edges().into_iter().collect();
        assert_eq!(f, p, "follower diverged from primary");
    };

    // Scenario 1: follower fully caught up (seq 8), then compact at a
    // snapshot cut taken at seq 5 — the follower is *ahead* of the new
    // base_seq, so the rewrite must keep its view.
    for _ in 0..5 {
        step(&mut engine, &mut writer);
    }
    let snap5 = wal::Snapshot::of(&engine);
    for _ in 0..3 {
        step(&mut engine, &mut writer);
    }
    writer.sync().unwrap();
    let mut fv = wal::FollowerView::open(&log).unwrap();
    fv.catch_up().unwrap();
    assert_eq!(fv.seq(), 8);
    assert!(writer.compact(&snap5).unwrap() > 0);
    // First idle poll lands on the new generation; the rolled-forward
    // seed and the retained deltas 6..=8 are all ≤ its seq, so nothing
    // is re-applied.
    assert_eq!(fv.catch_up().unwrap(), 0);
    assert!(fv.is_seeded());
    assert_mirrors(&fv, &engine);
    // ...and tailing continues on the new inode.
    step(&mut engine, &mut writer);
    writer.sync().unwrap();
    assert_eq!(fv.catch_up().unwrap(), 1);
    assert_mirrors(&fv, &engine);

    // Scenario 2: double compaction while the follower never polls.
    // The deltas between the two cuts exist only in the intermediate
    // generation the follower never opened, so catching up through the
    // old inode is impossible — it must re-seed from the rolled-forward
    // Seed of the final generation.
    let behind_seq = fv.seq();
    let snap_a = wal::Snapshot::of(&engine);
    writer.compact(&snap_a).unwrap();
    for _ in 0..4 {
        step(&mut engine, &mut writer);
    }
    let snap_b = wal::Snapshot::of(&engine);
    assert!(writer.compact(&snap_b).unwrap() > 0);
    for _ in 0..2 {
        step(&mut engine, &mut writer);
    }
    writer.sync().unwrap();
    assert!(behind_seq < snap_b.seq);
    // Re-seed (edge set at snap_b) + the two live deltas after it.
    let applied = fv.catch_up().unwrap();
    assert_eq!(applied, 2);
    assert!(fv.is_seeded());
    assert_eq!(fv.header().base_seq, snap_b.seq);
    assert_mirrors(&fv, &engine);

    // Scenario 3: a different engine's log at the same path is refused
    // loudly.
    let other = ShardedEngineBuilder::new(n)
        .shards(2)
        .build_with(&init, move |_, es| BatchConnectivity::builder(n).build(es))
        .unwrap();
    let _writer2 = WalWriter::create(
        &log,
        other.engine_id(),
        other.layout_epoch(),
        n as u64,
        other.seq(),
        FsyncPolicy::Manual,
    )
    .unwrap();
    assert!(matches!(
        fv.catch_up(),
        Err(RecoverError::EngineMismatch { .. })
    ));
}
