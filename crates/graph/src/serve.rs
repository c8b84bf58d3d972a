//! Concurrent serving pipeline: coalescing ingestion, an auto-tuned
//! single-writer batch loop, and epoch-pinned parallel readers.
//!
//! The paper's premise is that *batching* amortizes update cost; this
//! module is where that premise meets traffic. A [`ServeLoop`] owns a
//! [`ShardedEngine`] and pulls raw [`Update`]s from a bounded MPSC
//! queue (any number of [`IngestHandle`] producers), coalesces them
//! into [`UpdateBatch`]es, applies each batch on one writer thread, and
//! publishes the result through a pair of double-buffered
//! [`ShardedView`]s that readers pin for wait-free batch queries
//! ([`ShardedView::batch_contains`] and friends fan each query slice
//! out with `bds_par` — the `BatchConnected` shape of the
//! batch-dynamic connectivity literature).
//!
//! # Writer/reader epoch discipline
//!
//! The shared state is two view slots plus two pin counters and a
//! `front` index — `bds_par::sync::dbuf::DoubleBuf`, built on the
//! model-checkable sync facade so the pin/publish code below is the
//! same code the mini-loom tests exhaustively verify (run them with
//! `RUSTFLAGS="--cfg bds_model" cargo test -p bds_par -p bds_graph
//! --lib model_`). The protocol:
//!
//! * **Reader** (`ReadHandle::pin`): load `front = f`, increment
//!   `pins[f]`, then re-check `front == f`. On mismatch the reader
//!   decrements and retries; it never dereferences a slot it failed to
//!   confirm. The returned [`ReadGuard`] is RAII — dropping it (even
//!   by panic unwind) decrements the pin, so an abandoned reader can
//!   never wedge the writer's buffer reuse.
//! * **Writer** (one cycle): collect + coalesce a batch; bring the
//!   back slot up to the engine's sequence number (waiting out any
//!   straggler pins from *two* publishes ago); `apply_into` on the
//!   engine; apply the fresh delta to the back slot; publish by
//!   storing `front = back`.
//!
//! All accesses are `SeqCst`, which makes the safety argument a total
//! order: during the writer's mutation window `front` never equals the
//! back slot index, so a reader's re-check on that slot cannot
//! succeed — any concurrent increment is transient and is released
//! without a dereference. Conversely, once the writer stores `front`,
//! that `SeqCst` store publishes the completed mutation to every
//! reader whose re-check sees the new index.
//!
//! The catch-up of the lagging slot is *deferred* to the start of the
//! next cycle, after queue collection: readers pinned to the old front
//! get a whole collection interval to finish before the writer waits
//! on their pins, which is why steady-state reader load adds only
//! noise to writer batch latency (`servebench` measures it as
//! `serve.pin_wait_ms` beside `serve.apply_ms_max`; the wait is
//! accounted in [`ServeReport::pin_wait_ns`]).
//!
//! # Why `DeltaBuf::seq` makes the double-buffer safe
//!
//! Each merged engine delta is stamped with the batch sequence number
//! (`DeltaBuf::seq`), and `ShardedView::apply` panics unless the
//! engine is exactly one batch ahead of the view (same engine id, same
//! layout epoch). The two slots alternate between one and two batches
//! behind, and both catch-up paths replay the *same* stamped delta the
//! engine still holds — so a skipped or double-applied batch, a view
//! from a different engine, or a layout change without re-seed is an
//! immediate panic on the writer thread, not silent drift served to
//! readers.
//!
//! # Batch-size auto-tuning
//!
//! Batch size is the knob the paper's amortization bounds care about.
//! Under [`BatchPolicy::Auto`] the warm-up phase cycles through
//! [`TUNE_CANDIDATES`], timing `apply_into` for a few full batches at
//! each size, then picks the *knee*: the smallest candidate whose
//! updates/s is within [`KNEE_FRACTION`] of the best observed. That
//! keeps latency low when throughput has plateaued instead of chasing
//! the largest batch. The measured curve is returned in
//! [`ServeReport::tune_curve`] (the `serving_pipeline` example prints
//! it).

use crate::api::{BatchDynamic, DeltaBuf, FullyDynamic};
use crate::shard::{Partitioner, ShardedEngine, ShardedView};
use crate::types::{Edge, UpdateBatch, V};
use crate::wal::{Snapshot, WalConfig, WalWriter};
use bds_dstruct::FxHashMap;
use bds_par::sync::atomic::{AtomicBool, Ordering::SeqCst};
use bds_par::sync::dbuf::{double_buf, BufWriter, DoubleBuf, PinGuard};
use bds_par::sync::Arc;
use std::io;
#[cfg(not(bds_model))]
use std::ops::Deref;
// The channel stays `std`: mpsc has no instrumented counterpart, and
// the crash-classification edge it carries is modeled explicitly in
// `model_writer_gone_not_closed_after_crash` below.
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// Candidate batch sizes (raw queued updates per batch) probed by
/// [`BatchPolicy::Auto`] warm-up, in the order they are probed.
pub const TUNE_CANDIDATES: [usize; 5] = [16, 64, 256, 1024, 4096];

/// Largest tuning candidate — the fallback batch size when auto-tuning
/// is cut short. Const-indexed so an empty candidate table is a
/// compile-time error, not a runtime unwrap.
const MAX_TUNE_BATCH: usize = TUNE_CANDIDATES[TUNE_CANDIDATES.len() - 1];

/// Full batches timed per candidate size during auto-tune warm-up.
pub const TUNE_ROUNDS: usize = 4;

/// The auto-tuner picks the smallest candidate whose throughput is at
/// least this fraction of the best candidate's.
pub const KNEE_FRACTION: f64 = 0.9;

/// How long the writer sleeps on an empty queue before re-checking
/// (also bounds the latency of a partial batch under trickle traffic).
const IDLE_TICK: Duration = Duration::from_micros(500);

// ---------------------------------------------------------------------------
// Updates + ingestion
// ---------------------------------------------------------------------------

/// One raw graph update, as produced by an [`IngestHandle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    Insert(Edge),
    Delete(Edge),
}

impl Update {
    pub fn edge(self) -> Edge {
        match self {
            Update::Insert(e) | Update::Delete(e) => e,
        }
    }
}

/// Why an update was refused at the ingestion boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// An endpoint is `>= n` for the served graph.
    VertexOutOfRange { v: V, n: usize },
    /// Both endpoints are the same vertex (the graphs are simple).
    SelfLoop { v: V },
    /// The serve loop has exited cleanly; no more updates will be
    /// applied.
    Closed,
    /// The writer thread *died* (panicked — an engine invariant
    /// violation or a WAL I/O failure) rather than shutting down. The
    /// update was not applied and the final published views may trail
    /// earlier acknowledged sends; with durability enabled, recover
    /// from the log. Distinguished from [`IngestError::Closed`] so
    /// producers can tell a crash from quiescence.
    WriterGone,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::VertexOutOfRange { v, n } => {
                write!(f, "vertex {v} out of range for a {n}-vertex graph")
            }
            IngestError::SelfLoop { v } => write!(f, "self-loop ({v},{v}) rejected"),
            IngestError::Closed => write!(f, "serve loop has shut down"),
            IngestError::WriterGone => write!(f, "serve writer thread died (panic)"),
        }
    }
}

impl std::error::Error for IngestError {}

/// A cloneable producer handle onto the serve loop's bounded queue.
///
/// Sends **block** when the queue is full — backpressure, not
/// unbounded buffering. Every entry point validates here (range,
/// self-loop) and canonicalizes the edge, so the writer thread — and
/// the WAL it appends to before applying — only ever sees well-formed
/// edges; semantic no-ops (inserting a live edge, deleting an absent
/// one) are accepted and dropped by the coalescer instead, because only
/// the writer knows the live set.
///
/// Dropping every `IngestHandle` is the shutdown signal: the loop
/// drains the queue, publishes the final state to both view slots, and
/// returns its [`ServeReport`].
#[derive(Clone)]
pub struct IngestHandle {
    tx: SyncSender<Update>,
    n: usize,
    /// Set by the writer's panic sentinel *before* the channel
    /// disconnects (drop order: the sentinel is a `run` local, the
    /// receiver lives in `self`), so a producer that observes a
    /// disconnect can reliably tell a crash from a clean shutdown.
    gone: Arc<AtomicBool>,
}

impl IngestHandle {
    /// Queue an edge insertion (blocking while the queue is full).
    pub fn insert(&self, a: V, b: V) -> Result<(), IngestError> {
        self.send(Update::Insert(Edge { u: a, v: b }))
    }

    /// Queue an edge deletion (blocking while the queue is full).
    pub fn delete(&self, a: V, b: V) -> Result<(), IngestError> {
        self.send(Update::Delete(Edge { u: a, v: b }))
    }

    /// Queue an update (blocking while the queue is full). The edge
    /// need not be canonical: it is validated and canonicalized first.
    pub fn send(&self, up: Update) -> Result<(), IngestError> {
        let up = self.check(up)?;
        self.tx.send(up).map_err(|_| self.disconnect_error())
    }

    /// Non-blocking variant of [`IngestHandle::send`]: `Ok(false)` when
    /// the queue is full (the caller may retry, shed, or back off).
    pub fn try_send(&self, up: Update) -> Result<bool, IngestError> {
        let up = self.check(up)?;
        match self.tx.try_send(up) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(self.disconnect_error()),
        }
    }

    /// A disconnected queue means the receiver dropped: either the
    /// loop ran to clean completion ([`IngestError::Closed`]) or the
    /// writer thread panicked mid-run ([`IngestError::WriterGone`]).
    fn disconnect_error(&self) -> IngestError {
        // ordering: SeqCst — pairs with the sentinel's SeqCst store in
        // `WriterGoneSentinel::drop`, which runs before the channel
        // disconnect becomes visible; model-checked by
        // `model_writer_gone_not_closed_after_crash`.
        if self.gone.load(SeqCst) {
            IngestError::WriterGone
        } else {
            IngestError::Closed
        }
    }

    /// The one ingestion check every entry point runs: `Edge`'s fields
    /// are public, so a hand-built update may be a self-loop, reach past
    /// `n`, or list its endpoints in either order.
    fn check(&self, up: Update) -> Result<Update, IngestError> {
        let Edge { u, v } = up.edge();
        if u == v {
            return Err(IngestError::SelfLoop { v: u });
        }
        for x in [u, v] {
            if x as usize >= self.n {
                return Err(IngestError::VertexOutOfRange { v: x, n: self.n });
            }
        }
        let e = Edge::new(u, v);
        Ok(match up {
            Update::Insert(_) => Update::Insert(e),
            Update::Delete(_) => Update::Delete(e),
        })
    }
}

// ---------------------------------------------------------------------------
// Double-buffered view pair
// ---------------------------------------------------------------------------
//
// The pin/publish protocol itself lives in `bds_par::sync::dbuf` — on
// the model-checkable sync facade, so the exact slot/pin/front code the
// serving loop runs is what the mini-loom tests exhaustively verify
// (tier 2 of the verification ladder; see `bds_par::sync`). This
// module keeps only the domain-typed wrappers.

/// A cloneable, `Send + Sync` handle for readers: pins the freshest
/// published view for the lifetime of the returned guard.
pub struct ReadHandle<P: Partitioner> {
    pair: Arc<DoubleBuf<ShardedView<P>>>,
}

impl<P: Partitioner> Clone for ReadHandle<P> {
    fn clone(&self) -> Self {
        ReadHandle {
            pair: Arc::clone(&self.pair),
        }
    }
}

impl<P: Partitioner> ReadHandle<P> {
    /// Pin the current front view. O(1) — no copying, no locking; the
    /// writer keeps publishing to the other slot while this guard
    /// lives. Hold guards briefly (a batch of queries, not a session):
    /// a pin older than one publish forces the writer to wait before
    /// it can reuse the slot.
    pub fn pin(&self) -> ReadGuard<P> {
        ReadGuard {
            guard: self.pair.pin(),
        }
    }

    /// Spin until the published view has mirrored at least `seq`
    /// engine batches, then return the pin. Handy for tests and for
    /// read-your-writes handoffs.
    pub fn pin_at_least(&self, seq: u64) -> ReadGuard<P> {
        loop {
            let g = self.pin();
            if g.with(|v| v.seq()) >= seq {
                return g;
            }
            drop(g);
            std::thread::yield_now();
        }
    }
}

/// RAII pin on one published [`ShardedView`]: dereferences to the view
/// and releases the pin on drop — including on panic unwind, so a
/// crashed reader cannot wedge the writer (the PR 6 fix for the
/// release-path gap in clone-based snapshots; `ShardedView::clone` is
/// the orthogonal deep-copy escape hatch when a reader *wants* to hold
/// state across publishes).
pub struct ReadGuard<P: Partitioner> {
    guard: PinGuard<ShardedView<P>>,
}

impl<P: Partitioner> ReadGuard<P> {
    /// Closure-based access to the pinned view — the accessor that
    /// exists in every build; under `--cfg bds_model` it is the *only*
    /// one, so protocol code that must model-check goes through here.
    pub fn with<R>(&self, f: impl FnOnce(&ShardedView<P>) -> R) -> R {
        self.guard.with(f)
    }
}

#[cfg(not(bds_model))]
impl<P: Partitioner> Deref for ReadGuard<P> {
    type Target = ShardedView<P>;

    fn deref(&self) -> &ShardedView<P> {
        &self.guard
    }
}

// ---------------------------------------------------------------------------
// Coalescer
// ---------------------------------------------------------------------------

/// Folds a raw update stream into engine-legal batches: drops semantic
/// no-ops against the live input set, cancels insert↔delete pairs
/// within the pending batch, and guarantees the engine's strict
/// "insert absent / delete present" contract for whatever remains.
///
/// The coalescer keeps no copy of the live set: `push` asks a predicate,
/// which must answer for the state the pending batch will be applied
/// to. [`ServeLoop::run`] applies every taken batch before it collects
/// the next, so the engine's own live input set is exactly that state.
#[derive(Default)]
struct Coalescer {
    /// Pending edge -> its index in `batch.insertions` / `.deletions`.
    pend_ins: FxHashMap<Edge, usize>,
    pend_del: FxHashMap<Edge, usize>,
    batch: UpdateBatch,
    dropped: u64,
    cancelled: u64,
}

impl Coalescer {
    /// Remove `e` from the pending lane `list` by swap-remove, fixing
    /// up the displaced edge's index in `map`.
    fn cancel(list: &mut Vec<Edge>, map: &mut FxHashMap<Edge, usize>, e: Edge) {
        // bds:allow(no-unwrap): coalescer index invariant, model-checked by model_coalescer_swap_remove_fixup_under_interleaving.
        let i = map.remove(&e).expect("pending edge must be indexed");
        list.swap_remove(i);
        if let Some(&moved) = list.get(i) {
            map.insert(moved, i);
        }
    }

    /// Fold `up` into the pending batch; `live(e)` says whether `e` is a
    /// live input edge before the pending batch applies.
    fn push(&mut self, up: Update, live: impl Fn(Edge) -> bool) {
        match up {
            Update::Insert(e) => {
                if self.pend_del.contains_key(&e) {
                    // delete(e);insert(e) with e live: net no-op.
                    Self::cancel(&mut self.batch.deletions, &mut self.pend_del, e);
                    self.cancelled += 2;
                } else if live(e) || self.pend_ins.contains_key(&e) {
                    self.dropped += 1; // already (going to be) live
                } else {
                    self.pend_ins.insert(e, self.batch.insertions.len());
                    self.batch.insertions.push(e);
                }
            }
            Update::Delete(e) => {
                if self.pend_ins.contains_key(&e) {
                    // insert(e);delete(e) with e absent: net no-op.
                    Self::cancel(&mut self.batch.insertions, &mut self.pend_ins, e);
                    self.cancelled += 2;
                } else if !live(e) || self.pend_del.contains_key(&e) {
                    self.dropped += 1; // already (going to be) gone
                } else {
                    self.pend_del.insert(e, self.batch.deletions.len());
                    self.batch.deletions.push(e);
                }
            }
        }
    }

    /// Hand the pending batch to the caller, who must apply it before
    /// the next `push`.
    fn take(&mut self) -> UpdateBatch {
        self.pend_ins.clear();
        self.pend_del.clear();
        std::mem::take(&mut self.batch)
    }

    fn pending_is_empty(&self) -> bool {
        self.batch.is_empty()
    }
}

// ---------------------------------------------------------------------------
// ServeLoop
// ---------------------------------------------------------------------------

/// How the writer chooses its target batch size (raw queued updates
/// folded into one engine batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Always collect up to this many raw updates per batch.
    Fixed(usize),
    /// Warm up by probing [`TUNE_CANDIDATES`] and keep the knee
    /// (see the module docs).
    Auto,
}

/// One point of the auto-tuner's measured curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePoint {
    pub batch_size: usize,
    pub updates_per_sec: f64,
}

/// What the writer did over its lifetime, returned when the loop
/// drains and exits.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Engine batches applied (== final engine seq minus initial).
    pub batches: u64,
    /// Raw updates pulled off the queue.
    pub raw_updates: u64,
    /// Updates dropped as semantic no-ops (insert-live/delete-absent).
    pub dropped_noops: u64,
    /// Updates annihilated as insert↔delete pairs within one batch.
    pub cancelled_pairs: u64,
    /// The batch size the loop settled on (tuned or fixed).
    pub chosen_batch_size: usize,
    /// The auto-tuner's measured curve (empty under
    /// [`BatchPolicy::Fixed`]).
    pub tune_curve: Vec<TunePoint>,
    /// Total / worst-case wall time inside `apply_into`.
    pub apply_ns_total: u64,
    pub apply_ns_max: u64,
    /// Total wall time the writer spent waiting for reader pins to
    /// clear before reusing a buffer — the "readers block the writer"
    /// budget; ~0 when readers hold pins briefly.
    pub pin_wait_ns: u64,
    /// Engine batch sequence number at exit.
    pub final_seq: u64,
    /// Batch records appended to the WAL (0 without durability).
    pub wal_batches: u64,
    /// Fsyncs the WAL performed (policy-driven).
    pub wal_syncs: u64,
    /// Snapshots cut during the run (excluding the initial one).
    pub wal_snapshots: u64,
    /// Total wall time inside WAL appends + syncs + snapshots — the
    /// durability overhead on the write path.
    pub wal_ns_total: u64,
}

/// The single-writer serve loop. Build with [`ServeLoopBuilder`], hand
/// out [`ReadHandle`]s and [`IngestHandle`]s, then [`ServeLoop::run`]
/// (or [`ServeLoop::spawn`]) until every producer hangs up.
pub struct ServeLoop<S: FullyDynamic + Send, P: Partitioner> {
    engine: ShardedEngine<S, P>,
    rx: Receiver<Update>,
    writer: BufWriter<ShardedView<P>>,
    policy: BatchPolicy,
    coalescer: Coalescer,
    gone: Arc<AtomicBool>,
    wal: Option<WalState>,
}

/// Live durability state of a serving loop (see
/// [`ServeLoopBuilder::durability`]).
struct WalState {
    writer: WalWriter,
    /// Snapshot path and cadence (0 = initial snapshot only).
    snapshot: Option<(std::path::PathBuf, u64)>,
    since_snapshot: u64,
    snapshots: u64,
    ns_total: u64,
}

/// Configures and builds a [`ServeLoop`] around an existing engine.
pub struct ServeLoopBuilder<S: FullyDynamic + Send, P: Partitioner> {
    engine: ShardedEngine<S, P>,
    queue_capacity: usize,
    policy: BatchPolicy,
    durability: Option<WalConfig>,
}

impl<S: FullyDynamic + Send, P: Partitioner> ServeLoopBuilder<S, P> {
    /// Serve `engine` (consumed; the loop owns it until the report).
    pub fn new(engine: ShardedEngine<S, P>) -> Self {
        ServeLoopBuilder {
            engine,
            queue_capacity: 4096,
            policy: BatchPolicy::Auto,
            durability: None,
        }
    }

    /// Bound of the ingestion queue (producers block beyond it).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        if let BatchPolicy::Fixed(b) = policy {
            assert!(b > 0, "fixed batch size must be positive");
        }
        self.policy = policy;
        self
    }

    /// Write-ahead log every applied batch (and optionally cut periodic
    /// snapshots) per `config`. The `Batch` record is appended — and
    /// synced, per [`crate::wal::FsyncPolicy`] — *before* the batch's
    /// view swap is published, so no reader ever observes a state the
    /// log does not explain. A WAL I/O failure mid-run panics the
    /// writer thread (never publish unlogged state); producers then see
    /// [`IngestError::WriterGone`] and the log's valid prefix recovers
    /// everything published. See [`crate::wal`] for the recovery path.
    pub fn durability(mut self, config: WalConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Build the loop plus its first producer handle.
    ///
    /// With [`ServeLoopBuilder::durability`] configured this creates
    /// the log (and initial snapshot) on disk — a failure there
    /// panics; use [`ServeLoopBuilder::try_build`] to handle it.
    pub fn build(self) -> (ServeLoop<S, P>, IngestHandle) {
        // bds:allow(no-unwrap): panicking constructor by design; try_build is the fallible API.
        self.try_build().expect("failed to create WAL artifacts")
    }

    /// Fallible [`ServeLoopBuilder::build`]: surfaces WAL/snapshot
    /// creation errors instead of panicking. Without durability this
    /// never fails.
    pub fn try_build(self) -> io::Result<(ServeLoop<S, P>, IngestHandle)> {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.queue_capacity);
        let n = self.engine.num_vertices();
        let front = ShardedView::of(&self.engine);
        let wal = match self.durability {
            None => None,
            Some(config) => {
                // The initial snapshot anchors recovery at base_seq;
                // the seed record anchors followers at the same point.
                if let Some((path, _)) = &config.snapshot {
                    Snapshot::of(&self.engine).write_to(path)?;
                }
                let mut writer = WalWriter::create(
                    &config.log_path,
                    self.engine.engine_id(),
                    self.engine.layout_epoch(),
                    n as u64,
                    self.engine.seq(),
                    config.fsync,
                )?;
                writer.append_seed(self.engine.seq(), &front.edges())?;
                writer.sync()?;
                Some(WalState {
                    writer,
                    snapshot: config.snapshot,
                    since_snapshot: 0,
                    snapshots: 0,
                    ns_total: 0,
                })
            }
        };
        let back = front.clone();
        let (_, writer) = double_buf(front, back);
        let gone = Arc::new(AtomicBool::new(false));
        let serve = ServeLoop {
            engine: self.engine,
            rx,
            writer,
            policy: self.policy,
            coalescer: Coalescer::default(),
            gone: Arc::clone(&gone),
            wal,
        };
        Ok((serve, IngestHandle { tx, n, gone }))
    }
}

impl<S: FullyDynamic + Send, P: Partitioner> ServeLoop<S, P> {
    /// A reader handle onto the double-buffered views. Clone freely;
    /// handles stay valid after the loop exits (they keep pinning the
    /// final published state).
    pub fn read_handle(&self) -> ReadHandle<P> {
        ReadHandle {
            pair: self.writer.reader(),
        }
    }

    /// Run the loop on the current thread until every [`IngestHandle`]
    /// is dropped and the queue is drained; both view slots end at the
    /// final engine state.
    pub fn run(mut self) -> ServeReport {
        // Declared before any fallible work: if anything below panics
        // (engine invariant, WAL I/O), this local's Drop runs during
        // unwind *before* `self` — and with it the channel receiver —
        // is dropped, so every producer that wakes on the disconnect
        // already sees the flag and gets `WriterGone`, not `Closed`.
        let _sentinel = WriterGoneSentinel {
            gone: Arc::clone(&self.gone),
        };
        let mut report = ServeReport {
            chosen_batch_size: match self.policy {
                BatchPolicy::Fixed(b) => b,
                BatchPolicy::Auto => MAX_TUNE_BATCH,
            },
            ..ServeReport::default()
        };
        let mut delta = DeltaBuf::new();
        let mut tuner = match self.policy {
            BatchPolicy::Auto => Some(Tuner::new()),
            BatchPolicy::Fixed(_) => None,
        };

        loop {
            let target = tuner
                .as_ref()
                .map_or(report.chosen_batch_size, Tuner::current_size);
            let disconnected = self.collect(target, &mut report);
            // Deferred catch-up: the lagging slot had the whole collect
            // interval for its readers to unpin. The engine still holds
            // this batch's stamped per-lane deltas, so `apply` replays
            // exactly the delta the slot is missing (seq-checked).
            self.catch_up(&mut report);
            if self.coalescer.pending_is_empty() {
                if disconnected {
                    break;
                }
                continue;
            }
            let batch = self.coalescer.take();
            let raw = batch.len();
            // Write-ahead: the batch record (and its policy-driven
            // sync) precedes both the apply and the publish below. A
            // WAL failure panics — publishing state the log cannot
            // explain would break the recovery contract, and the
            // sentinel turns the panic into `WriterGone` upstream.
            if let Some(w) = self.wal.as_mut() {
                let t0 = Instant::now();
                w.writer
                    .append_batch(self.engine.seq() + 1, &batch)
                    // bds:allow(no-unwrap): durability contract: refuse to apply a batch that is not logged.
                    .expect("WAL append failed; refusing to apply an unlogged batch");
                w.ns_total += t0.elapsed().as_nanos() as u64;
            }
            let t0 = Instant::now();
            self.engine.apply_into(&batch, &mut delta);
            let apply_ns = t0.elapsed().as_nanos() as u64;
            report.batches += 1;
            report.apply_ns_total += apply_ns;
            report.apply_ns_max = report.apply_ns_max.max(apply_ns);
            if let Some(t) = tuner.as_mut() {
                if let Some(curve) = t.record(raw, apply_ns) {
                    report.tune_curve = curve;
                    report.chosen_batch_size = knee(&report.tune_curve);
                    tuner = None;
                }
            }
            // Output-plane record (for followers) and periodic
            // snapshot, still ahead of the publish: everything a reader
            // can observe is on disk first.
            if let Some(w) = self.wal.as_mut() {
                let t0 = Instant::now();
                w.writer
                    .append_delta(&delta)
                    // bds:allow(no-unwrap): durability contract: never publish an unlogged view delta.
                    .expect("WAL delta append failed");
                if let Some((path, every @ 1..)) = &w.snapshot {
                    w.since_snapshot += 1;
                    if w.since_snapshot >= *every {
                        Snapshot::of(&self.engine)
                            .write_to(path)
                            // bds:allow(no-unwrap): durability contract: a failed snapshot must not be mistaken for one.
                            .expect("snapshot write failed");
                        w.since_snapshot = 0;
                        w.snapshots += 1;
                    }
                }
                w.ns_total += t0.elapsed().as_nanos() as u64;
            }
            // Publish: the back slot is caught up to seq-1, readers
            // cannot confirm new pins on it (front points away), so
            // after the residual wait it is exclusively ours.
            self.catch_up(&mut report);
            self.writer.publish();
            if disconnected {
                break;
            }
        }
        // Leave both slots at the final state for late readers.
        self.catch_up(&mut report);
        if let Some(t) = tuner {
            report.tune_curve = t.partial_curve();
            if !report.tune_curve.is_empty() {
                report.chosen_batch_size = knee(&report.tune_curve);
            }
        }
        report.final_seq = self.engine.seq();
        if let Some(w) = self.wal.as_mut() {
            // Final sync so a Manual/EveryN policy does not leave the
            // tail of a *clean* shutdown in the page cache.
            let t0 = Instant::now();
            // bds:allow(no-unwrap): durability contract: the final sync backs the clean-shutdown promise.
            w.writer.sync().expect("final WAL sync failed");
            w.ns_total += t0.elapsed().as_nanos() as u64;
            report.wal_batches = w.writer.batches_appended();
            report.wal_syncs = w.writer.syncs();
            report.wal_snapshots = w.snapshots;
            report.wal_ns_total = w.ns_total;
        }
        report
    }

    /// Run on a fresh writer thread; join for the [`ServeReport`].
    pub fn spawn(self) -> std::thread::JoinHandle<ServeReport>
    where
        S: 'static,
        P: 'static,
    {
        std::thread::Builder::new()
            .name("bds-serve-writer".into())
            .spawn(move || self.run())
            // bds:allow(no-unwrap): thread spawn failure at startup is unrecoverable.
            .expect("spawn serve writer")
    }

    /// Pull up to `target` raw updates into the coalescer; returns
    /// `true` when every producer has hung up and the queue is empty.
    fn collect(&mut self, target: usize, report: &mut ServeReport) -> bool {
        let mut pulled = 0usize;
        while pulled < target {
            match self.rx.try_recv() {
                Ok(up) => {
                    self.coalescer.push(up, |e| self.engine.contains_input(e));
                    pulled += 1;
                }
                Err(_) => {
                    if pulled > 0 || !self.coalescer.pending_is_empty() {
                        // Ship a partial batch rather than stall reads.
                        break;
                    }
                    match self.rx.recv_timeout(IDLE_TICK) {
                        Ok(up) => {
                            self.coalescer.push(up, |e| self.engine.contains_input(e));
                            pulled += 1;
                        }
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => {
                            report.raw_updates += pulled as u64;
                            return true;
                        }
                    }
                }
            }
        }
        report.raw_updates += pulled as u64;
        report.dropped_noops = self.coalescer.dropped;
        report.cancelled_pairs = self.coalescer.cancelled;
        false
    }

    /// Bring the back slot up to the engine's current seq (0, 1 or 2
    /// stamped batches behind), waiting out reader pins first.
    fn catch_up(&mut self, report: &mut ServeReport) {
        // `peek_back` needs no pin wait: the writer reads its own last
        // write, and any straggler holds only shared access.
        let behind = self.writer.peek_back(|v| v.seq()) < self.engine.seq();
        if !behind {
            return;
        }
        self.wait_unpinned(report);
        // `with_back` re-checks the pin count, but after the timed wait
        // above that check is free; the slot is exclusively ours until
        // the next publish (front points away, so no reader can confirm
        // a new pin on it — see `bds_par::sync::dbuf`).
        self.writer.with_back(|view| view.apply(&self.engine));
    }

    fn wait_unpinned(&mut self, report: &mut ServeReport) {
        if self.writer.back_unpinned() {
            return;
        }
        let t0 = Instant::now();
        self.writer.wait_back_unpinned();
        report.pin_wait_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// Raises the shared `gone` flag if [`ServeLoop::run`] unwinds. The
/// std mpsc receiver wakes blocked senders with a disconnect error when
/// it drops during the unwind; because this sentinel is a local of
/// `run` and the receiver is a field of the `self` parameter, Rust's
/// drop order (locals before parameters) guarantees the flag is set
/// before any sender can observe that disconnect.
struct WriterGoneSentinel {
    gone: Arc<AtomicBool>,
}

impl Drop for WriterGoneSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // ordering: SeqCst — must be globally ordered before the
            // mpsc disconnect (receiver drop) that producers observe;
            // see `disconnect_error`.
            self.gone.store(true, SeqCst);
        }
    }
}

// ---------------------------------------------------------------------------
// Auto-tuner
// ---------------------------------------------------------------------------

/// Warm-up probe state: time [`TUNE_ROUNDS`] batches at each candidate
/// size, then report the curve.
struct Tuner {
    cand: usize,
    rounds: usize,
    updates: u64,
    ns: u64,
    curve: Vec<TunePoint>,
}

impl Tuner {
    fn new() -> Self {
        Tuner {
            cand: 0,
            rounds: 0,
            updates: 0,
            ns: 0,
            curve: Vec::new(),
        }
    }

    fn current_size(&self) -> usize {
        TUNE_CANDIDATES[self.cand]
    }

    /// Record one applied batch; returns the finished curve once every
    /// candidate has its rounds.
    fn record(&mut self, raw: usize, apply_ns: u64) -> Option<Vec<TunePoint>> {
        self.updates += raw as u64;
        self.ns += apply_ns;
        self.rounds += 1;
        if self.rounds < TUNE_ROUNDS {
            return None;
        }
        self.flush_candidate();
        if self.cand + 1 < TUNE_CANDIDATES.len() {
            self.cand += 1;
            self.rounds = 0;
            self.updates = 0;
            self.ns = 0;
            return None;
        }
        Some(std::mem::take(&mut self.curve))
    }

    fn flush_candidate(&mut self) {
        if self.updates > 0 && self.ns > 0 {
            self.curve.push(TunePoint {
                batch_size: TUNE_CANDIDATES[self.cand],
                updates_per_sec: self.updates as f64 / (self.ns as f64 / 1e9),
            });
        }
    }

    /// The curve measured so far (traffic ended mid-warm-up).
    fn partial_curve(mut self) -> Vec<TunePoint> {
        if self.rounds > 0 {
            self.flush_candidate();
        }
        self.curve
    }
}

/// The knee of a throughput curve: the smallest batch size within
/// [`KNEE_FRACTION`] of the best observed updates/s.
fn knee(curve: &[TunePoint]) -> usize {
    let best = curve
        .iter()
        .map(|p| p.updates_per_sec)
        .fold(0.0f64, f64::max);
    curve
        .iter()
        .find(|p| p.updates_per_sec >= KNEE_FRACTION * best)
        .map_or(MAX_TUNE_BATCH, |p| p.batch_size)
}

#[cfg(all(test, not(bds_model)))]
mod tests {
    use super::*;
    use crate::gen;
    use crate::shard::{MirrorSpanner, ShardedEngineBuilder};
    use bds_dstruct::FxHashSet;
    use std::sync::atomic::AtomicUsize;

    fn engine(
        n: usize,
        edges: &[Edge],
        shards: usize,
    ) -> ShardedEngine<MirrorSpanner, crate::shard::HashPartitioner> {
        ShardedEngineBuilder::new(n)
            .shards(shards)
            .build_with(edges, move |_, es| MirrorSpanner::build(n, es))
            .unwrap()
    }

    #[test]
    fn coalescer_nets_to_sequential_semantics() {
        let a = Edge::new(0, 1);
        let b = Edge::new(2, 3);
        let c = Edge::new(4, 5);
        let base: FxHashSet<Edge> = [a].into_iter().collect();
        let mut co = Coalescer::default();
        // delete live a, reinsert a -> cancels; insert absent b twice
        // -> one insert; insert c then delete c -> cancels; delete
        // absent c -> dropped.
        for up in [
            Update::Delete(a),
            Update::Insert(a),
            Update::Insert(b),
            Update::Insert(b),
            Update::Insert(c),
            Update::Delete(c),
            Update::Delete(c),
        ] {
            co.push(up, |e| base.contains(&e));
        }
        let batch = co.take();
        assert_eq!(batch.insertions, vec![b]);
        assert!(batch.deletions.is_empty());
        assert_eq!(co.cancelled, 4);
        assert_eq!(co.dropped, 2);
        let mut after = base;
        for e in &batch.deletions {
            after.remove(e);
        }
        after.extend(batch.insertions);
        assert_eq!(after, [a, b].into_iter().collect());
    }

    #[test]
    fn coalescer_swap_remove_fixes_displaced_index() {
        // Cancel the *first* of three pending insertions: the displaced
        // last edge must keep a correct index so a later cancel of it
        // removes the right entry.
        let es: Vec<Edge> = (0..3).map(|i| Edge::new(i, i + 10)).collect();
        let mut co = Coalescer::default();
        let live = |_| false;
        for &e in &es {
            co.push(Update::Insert(e), live);
        }
        co.push(Update::Delete(es[0]), live); // swap_remove moves es[2] to slot 0
        co.push(Update::Delete(es[2]), live);
        let batch = co.take();
        assert_eq!(batch.insertions, vec![es[1]]);
        assert!(batch.deletions.is_empty());
    }

    #[test]
    fn serve_drains_and_matches_oracle() {
        let n = 64;
        let init = gen::gnm(n, 120, 3);
        let (serve, ingest) = ServeLoopBuilder::new(engine(n, &init, 3))
            .queue_capacity(64)
            .batch_policy(BatchPolicy::Fixed(32))
            .build();
        let reads = serve.read_handle();
        let writer = serve.spawn();
        // Oracle: plain sequential set semantics over the same stream.
        let mut oracle: FxHashSet<Edge> = init.iter().copied().collect();
        let mut rng = 0xd00du64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut applied = 0u64;
        for _ in 0..600 {
            let a = (next() % n as u64) as V;
            let b = (next() % n as u64) as V;
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if next() % 2 == 0 {
                ingest.insert(a, b).unwrap();
                oracle.insert(e);
            } else {
                ingest.delete(a, b).unwrap();
                oracle.remove(&e);
            }
            applied += 1;
        }
        drop(ingest);
        let report = writer.join().unwrap();
        assert_eq!(report.raw_updates, applied);
        assert_eq!(report.chosen_batch_size, 32);
        assert!(report.tune_curve.is_empty());
        // The final published view is exactly the oracle set.
        let g = reads.pin_at_least(report.final_seq);
        assert_eq!(g.seq(), report.final_seq);
        assert_eq!(g.len(), oracle.len());
        for &e in &oracle {
            assert!(g.contains(e));
        }
        let mut out = Vec::new();
        let qs: Vec<Edge> = oracle.iter().copied().collect();
        g.batch_contains(&qs, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn auto_tuner_measures_a_curve_and_picks_a_candidate() {
        let n = 128;
        let (serve, ingest) = ServeLoopBuilder::new(engine(n, &[], 2))
            .queue_capacity(512)
            .batch_policy(BatchPolicy::Auto)
            .build();
        let writer = serve.spawn();
        // Enough traffic to finish the warm-up sweep: churn a sliding
        // window of edges so no update is a no-op.
        let need: usize = TUNE_CANDIDATES.iter().map(|c| c * TUNE_ROUNDS).sum();
        // Alternate whole-path insert/delete sweeps so no update is a
        // semantic no-op the coalescer would drop.
        let mut live = false;
        let mut ops = 0usize;
        'outer: loop {
            for u in 0..(n as V - 1) {
                if live {
                    ingest.delete(u, u + 1).unwrap();
                } else {
                    ingest.insert(u, u + 1).unwrap();
                }
                ops += 1;
                if ops >= need * 2 {
                    break 'outer;
                }
            }
            live = !live;
        }
        drop(ingest);
        let report = writer.join().unwrap();
        assert!(
            !report.tune_curve.is_empty(),
            "warm-up must measure at least one candidate"
        );
        assert!(TUNE_CANDIDATES.contains(&report.chosen_batch_size));
        assert_eq!(report.chosen_batch_size, knee(&report.tune_curve));
        for p in &report.tune_curve {
            assert!(p.updates_per_sec > 0.0);
        }
    }

    #[test]
    fn knee_prefers_smallest_within_fraction() {
        let c = |pairs: &[(usize, f64)]| {
            pairs
                .iter()
                .map(|&(b, t)| TunePoint {
                    batch_size: b,
                    updates_per_sec: t,
                })
                .collect::<Vec<_>>()
        };
        // Plateau from 64 up: pick 64, not 4096.
        let curve = c(&[(16, 10.0), (64, 95.0), (256, 100.0), (1024, 99.0)]);
        assert_eq!(knee(&curve), 64);
        // Strictly increasing: pick the top.
        let curve = c(&[(16, 10.0), (64, 50.0), (256, 80.0), (1024, 100.0)]);
        assert_eq!(knee(&curve), 1024);
        assert_eq!(knee(&[]), *TUNE_CANDIDATES.last().unwrap());
    }

    #[test]
    fn read_guard_is_raii_and_survives_panic() {
        let n = 16;
        let (serve, ingest) = ServeLoopBuilder::new(engine(n, &[], 2))
            .batch_policy(BatchPolicy::Fixed(4))
            .build();
        let reads = serve.read_handle();
        let pair = serve.writer.reader();
        {
            let g1 = reads.pin();
            let g2 = reads.pin();
            assert_eq!(pair.pin_count(g1.guard.slot()), 2);
            drop(g2);
            assert_eq!(pair.pin_count(g1.guard.slot()), 1);
        }
        assert_eq!(pair.pin_count(0), 0);
        assert_eq!(pair.pin_count(1), 0);
        // A panicking reader releases its pin during unwind.
        let r2 = reads.clone();
        let res = std::thread::spawn(move || {
            let _g = r2.pin();
            panic!("reader dies mid-query");
        })
        .join();
        assert!(res.is_err());
        assert_eq!(pair.pin_count(0), 0);
        assert_eq!(pair.pin_count(1), 0);
        // The writer can still publish after the dead reader.
        let writer = serve.spawn();
        ingest.insert(0, 1).unwrap();
        drop(ingest);
        let report = writer.join().unwrap();
        assert_eq!(report.final_seq, 1);
        assert!(reads.pin_at_least(1).contains(Edge::new(0, 1)));
    }

    #[test]
    fn ingest_validates_before_queueing() {
        let n = 8;
        let (serve, ingest) = ServeLoopBuilder::new(engine(n, &[], 2)).build();
        assert_eq!(ingest.insert(3, 3), Err(IngestError::SelfLoop { v: 3 }));
        assert_eq!(
            ingest.delete(0, 8),
            Err(IngestError::VertexOutOfRange { v: 8, n: 8 })
        );
        // `Edge`'s fields are public: hand-built updates through `send`
        // and `try_send` get the same checks, so none reaches the WAL.
        assert_eq!(
            ingest.send(Update::Insert(Edge { u: 3, v: 3 })),
            Err(IngestError::SelfLoop { v: 3 })
        );
        assert_eq!(
            ingest.try_send(Update::Delete(Edge { u: 5, v: 5 })),
            Err(IngestError::SelfLoop { v: 5 })
        );
        assert_eq!(
            ingest.send(Update::Insert(Edge { u: 9, v: 2 })),
            Err(IngestError::VertexOutOfRange { v: 9, n: 8 })
        );
        assert_eq!(
            ingest.try_send(Update::Insert(Edge { u: 1, v: 8 })),
            Err(IngestError::VertexOutOfRange { v: 8, n: 8 })
        );
        assert_eq!(ingest.insert(7, 0), Ok(()));
        // Non-canonical spellings of (0, 7) are canonicalized, so the
        // coalescer sees the same edge and drops them as no-ops.
        assert_eq!(ingest.send(Update::Insert(Edge { u: 7, v: 0 })), Ok(()));
        assert_eq!(
            ingest.try_send(Update::Insert(Edge { u: 7, v: 0 })),
            Ok(true)
        );
        let reads = serve.read_handle();
        let writer = serve.spawn();
        drop(ingest);
        let report = writer.join().unwrap();
        assert_eq!(report.raw_updates, 3);
        assert_eq!(report.dropped_noops, 2);
        assert_eq!(report.final_seq, 1);
        let g = reads.pin_at_least(1);
        assert_eq!(g.edges(), vec![Edge::new(0, 7)]);
    }

    #[test]
    fn readers_see_committed_prefixes_under_concurrency() {
        // Smoke version of the tier-2 interleaving proptest: hammer
        // pins from two reader threads while the writer churns, and
        // check every pinned view is internally consistent (seq
        // monotone per reader, len matches a committed state).
        let n = 32;
        let init = gen::gnm(n, 40, 9);
        let (serve, ingest) = ServeLoopBuilder::new(engine(n, &init, 2))
            .queue_capacity(32)
            .batch_policy(BatchPolicy::Fixed(8))
            .build();
        let reads = serve.read_handle();
        let writer = serve.spawn();
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = reads.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_seq = 0;
                    let mut out = Vec::new();
                    while stop.load(SeqCst) == 0 {
                        let g = r.pin();
                        assert!(g.seq() >= last_seq, "published seq went backwards");
                        last_seq = g.seq();
                        g.batch_degree(&[0, 1, 2, 3], &mut out);
                        let total: u64 = (0..n as V).map(|v| g.degree(v) as u64).sum();
                        assert_eq!(total, 2 * g.len() as u64, "torn view at seq {last_seq}");
                    }
                })
            })
            .collect();
        for round in 0..50u32 {
            let u = round % (n as u32 - 1);
            let _ = ingest.insert(u, u + 1);
            let _ = ingest.delete(u, u + 1);
        }
        drop(ingest);
        let report = writer.join().unwrap();
        stop.store(1, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert!(report.final_seq > 0);
    }

    /// A [`MirrorSpanner`] that panics on its k-th apply — the harness
    /// for writer-death tests (an engine invariant violation mid-run).
    struct Poisoned {
        inner: MirrorSpanner,
        applies_left: std::cell::Cell<u32>,
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
        fn stats(&self) -> crate::api::BatchStats {
            self.inner.stats()
        }
    }

    impl crate::api::Decremental for Poisoned {
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
            assert!(left > 0, "poisoned shard: injected fault");
            self.applies_left.set(left - 1);
            self.inner.apply_into(batch, out);
        }
    }

    #[test]
    fn writer_death_surfaces_as_writer_gone_not_closed() {
        // Regression (PR 7): a producer observing the queue disconnect
        // could not tell a writer crash from a clean shutdown — both
        // came back `Closed`, so failover logic had nothing to act on.
        let n = 64;
        let engine = ShardedEngineBuilder::new(n)
            .shards(2)
            .build_with(&[], move |_, es| {
                Ok::<_, crate::api::ConfigError>(Poisoned {
                    inner: MirrorSpanner::build(n, es)?,
                    applies_left: std::cell::Cell::new(2),
                })
            })
            .unwrap();
        let (serve, ingest) = ServeLoopBuilder::new(engine)
            .queue_capacity(4)
            .batch_policy(BatchPolicy::Fixed(4))
            .build();
        let writer = serve.spawn();
        // Flood until the third engine batch trips the poison; with a
        // 4-deep queue the producer is exercising the blocked-send wakeup
        // path, not just a late try_send.
        let mut saw = None;
        for i in 0..n as V - 1 {
            if let Err(e) = ingest.insert(i, i + 1) {
                saw = Some(e);
                break;
            }
        }
        let saw = saw.unwrap_or_else(|| {
            // All sends may have been queued before the panic landed;
            // the next send must observe the death.
            ingest.insert(0, 63).unwrap_err()
        });
        assert_eq!(saw, IngestError::WriterGone);
        assert!(writer.join().is_err(), "writer must have panicked");
        // And once dead, it stays WriterGone (sticky flag).
        assert_eq!(ingest.insert(1, 2), Err(IngestError::WriterGone));
        assert_eq!(
            ingest.try_send(Update::Insert(Edge::new(3, 4))),
            Err(IngestError::WriterGone)
        );
    }

    #[test]
    fn clean_receiver_drop_still_reports_closed() {
        // The gone flag is raised only by a *panicking* writer: a loop
        // torn down without running (receiver dropped) is `Closed`.
        let (serve, ingest) = ServeLoopBuilder::new(engine(16, &[], 2))
            .batch_policy(BatchPolicy::Fixed(8))
            .build();
        drop(serve);
        assert_eq!(ingest.insert(0, 1), Err(IngestError::Closed));
        assert_eq!(
            ingest.try_send(Update::Insert(Edge::new(2, 3))),
            Err(IngestError::Closed)
        );
    }
}

/// Mini-loom models of the serving front-end's crash and coalescing
/// paths, run with `RUSTFLAGS="--cfg bds_model"`. The pin/publish
/// protocol itself is proven in `bds_par::sync::dbuf`; these tests
/// cover the parts that live in this module: the writer-gone
/// classification and the coalescer under interleaved producers.
#[cfg(all(test, bds_model))]
mod model_tests {
    use super::*;
    use bds_dstruct::FxHashSet;
    use bds_par::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use bds_par::sync::Mutex;

    /// Bound-3 CHESS exploration; see `bds_par::sync::dbuf`'s model
    /// tests for why 3 preemptions cover the relevant bug classes.
    fn check_bounded(name: &str, f: impl Fn() + Send + Sync + 'static) -> u64 {
        let mut b = loom::model::Builder::default();
        b.preemption_bound = Some(3);
        let n = b.check(f);
        println!("{name}: explored {n} interleavings (preemption bound 3)");
        n
    }

    /// Theorem 3: a producer that observes the queue disconnect after
    /// a writer crash classifies it as `WriterGone`, never `Closed` —
    /// in every interleaving and with the exact orderings the real
    /// path uses. The writer thread performs the crash-unwind store
    /// sequence (`run`'s drop order: the sentinel local raises `gone`
    /// with a `SeqCst` store *before* `self`'s receiver drops, which
    /// is what publishes the disconnect — std mpsc uses
    /// release/acquire internally, modeled here explicitly). The
    /// producer acquires the disconnect and then runs
    /// `disconnect_error`'s classification load.
    #[test]
    fn model_writer_gone_not_closed_after_crash() {
        let n = check_bounded("model_writer_gone_not_closed_after_crash", || {
            let gone = Arc::new(AtomicBool::new(false));
            let disconnected = Arc::new(AtomicBool::new(false));
            let (g2, d2) = (Arc::clone(&gone), Arc::clone(&disconnected));
            let writer = loom::thread::spawn(move || {
                // Unwind of `ServeLoop::run`: sentinel drop first...
                g2.store(true, SeqCst);
                // ...then the receiver drop publishes the disconnect.
                // ordering: Release — models std mpsc's internal
                // disconnect store, the weakest edge the real channel
                // guarantees a waking sender.
                d2.store(true, Ordering::Release);
            });
            // ordering: Acquire — models the failed send observing the
            // channel disconnect.
            if disconnected.load(Ordering::Acquire) {
                // `IngestHandle::disconnect_error`'s classification.
                let err = if gone.load(SeqCst) {
                    IngestError::WriterGone
                } else {
                    IngestError::Closed
                };
                assert_eq!(
                    err,
                    IngestError::WriterGone,
                    "crash misread as clean shutdown"
                );
            }
            writer.join().unwrap();
        });
        assert!(n >= 2, "state space collapsed to {n} interleavings");
    }

    /// The engine-identity / layout-epoch drift check now runs
    /// entirely on facade state: the id allocator is a facade-typed
    /// atomic RMW (`shard::NEXT_ENGINE_ID` uses the `sync::global`
    /// escape of the same type modeled here) and the identity triple
    /// `(engine_id, layout_epoch, seq)` a reader validates rides the
    /// same `dbuf` publish protocol as the views. Two properties, in
    /// every interleaving: (1) concurrent allocation hands out
    /// distinct ids even with the `Relaxed` RMW the allocator uses —
    /// the argument is the RMW's atomicity, not its ordering; (2) a
    /// reader pinning across publishes never observes a torn triple
    /// (identity drift or a backwards epoch/seq step), which is
    /// exactly the precondition `ShardedView::apply`'s assertions
    /// rely on.
    #[test]
    fn model_engine_identity_epoch_stable_under_publish() {
        let n = check_bounded("model_engine_identity_epoch_stable_under_publish", || {
            // (1) Identity allocation: shard.rs's protocol verbatim.
            let ctr = Arc::new(AtomicU64::new(1));
            let other = {
                let ctr = Arc::clone(&ctr);
                // ordering: Relaxed — unique-id allocation; atomicity
                // of the RMW alone guarantees distinctness.
                loom::thread::spawn(move || ctr.fetch_add(1, Ordering::Relaxed))
            };
            // ordering: Relaxed — as above, the racing allocator.
            let id = ctr.fetch_add(1, Ordering::Relaxed);
            let id_other = other.join().unwrap();
            assert_ne!(id, id_other, "engine identity collision");

            // (2) Publish (id, layout_epoch, seq) through the real
            // double-buffer while a reader pins twice.
            let (buf, mut w) = double_buf((id, 0u64, 0u64), (id, 0u64, 0u64));
            let reader = {
                let buf: Arc<DoubleBuf<(u64, u64, u64)>> = Arc::clone(&buf);
                loom::thread::spawn(move || {
                    let first = buf.pin().with(|&t| t);
                    let second = buf.pin().with(|&t| t);
                    for t in [first, second] {
                        assert_eq!(t.0, id, "engine identity drifted");
                        assert!(
                            [(0, 0), (0, 1), (1, 2)].contains(&(t.1, t.2)),
                            "torn identity triple: {t:?}"
                        );
                    }
                    assert!(
                        (second.1, second.2) >= (first.1, first.2),
                        "epoch/seq went backwards across pins: {first:?} -> {second:?}"
                    );
                })
            };
            // Batch 1 at layout 0, then a re-seed bumps the layout
            // epoch — the writer-side sequence `ServeLoop` performs.
            w.with_back(|t| *t = (id, 0, 1));
            w.publish();
            w.with_back(|t| *t = (id, 1, 2));
            w.publish();
            reader.join().unwrap();
        });
        assert!(n >= 10, "state space collapsed to {n} interleavings");
    }

    /// Every pending-index map entry must point at its own edge — the
    /// invariant the `swap_remove` displaced-index fixup maintains.
    fn assert_pending_indexed(co: &Coalescer) {
        assert_eq!(co.pend_ins.len(), co.batch.insertions.len());
        assert_eq!(co.pend_del.len(), co.batch.deletions.len());
        for (e, &i) in &co.pend_ins {
            assert_eq!(
                co.batch.insertions[i], *e,
                "displaced insert index is stale"
            );
        }
        for (e, &i) in &co.pend_del {
            assert_eq!(co.batch.deletions[i], *e, "displaced delete index is stale");
        }
    }

    /// Satellite regression, model-checked: the coalescer's
    /// `swap_remove` displaced-index fixup holds under every
    /// producer/writer interleaving. Two modeled producers feed a
    /// shared queue in chunks the schedule decides; the writer drains
    /// and coalesces whatever arrives. After every push the
    /// pending-index maps must mirror the batch lanes exactly, and the
    /// base live set rolled forward by the taken batch must equal a
    /// sequential set-semantics replay of the delivered order — for
    /// *every* delivery interleaving, including the ones where a cancel
    /// hits a displaced entry.
    #[test]
    fn model_coalescer_swap_remove_fixup_under_interleaving() {
        let n = check_bounded(
            "model_coalescer_swap_remove_fixup_under_interleaving",
            || {
                let e67 = Edge::new(6, 7);
                let queue: Arc<Mutex<Vec<Update>>> = Arc::new(Mutex::new(Vec::new()));
                let done = Arc::new(AtomicUsize::new(0));
                let producer = |ups: Vec<Update>| {
                    let (q, d) = (Arc::clone(&queue), Arc::clone(&done));
                    loom::thread::spawn(move || {
                        for up in ups {
                            q.lock().unwrap().push(up);
                        }
                        d.fetch_add(1, SeqCst);
                    })
                };
                // P1 cancels the first of two pending insertions — the
                // swap_remove displacement; P2 races a delete of the
                // displaced edge and a delete of a live edge.
                let p1 = producer(vec![
                    Update::Insert(Edge::new(0, 1)),
                    Update::Insert(Edge::new(2, 3)),
                    Update::Delete(Edge::new(0, 1)),
                ]);
                let p2 = producer(vec![Update::Delete(e67), Update::Delete(Edge::new(2, 3))]);
                // The writer drains on the main model thread.
                let base: FxHashSet<Edge> = [e67].into_iter().collect();
                let mut co = Coalescer::default();
                let mut delivered: Vec<Update> = Vec::new();
                loop {
                    let drained: Vec<Update> = std::mem::take(&mut *queue.lock().unwrap());
                    for up in drained {
                        co.push(up, |e| base.contains(&e));
                        assert_pending_indexed(&co);
                        delivered.push(up);
                    }
                    if done.load(SeqCst) == 2 && queue.lock().unwrap().is_empty() {
                        break;
                    }
                    loom::thread::yield_now();
                }
                p1.join().unwrap();
                p2.join().unwrap();
                let batch = co.take();
                // Oracle: plain sequential set semantics over the delivery
                // order this schedule produced.
                let mut oracle = base.clone();
                for up in delivered {
                    match up {
                        Update::Insert(e) => {
                            oracle.insert(e);
                        }
                        Update::Delete(e) => {
                            oracle.remove(&e);
                        }
                    }
                }
                let mut after = base;
                for e in &batch.deletions {
                    after.remove(e);
                }
                after.extend(batch.insertions.iter().copied());
                assert_eq!(after, oracle, "coalesced state diverged from the oracle");
                // The emitted batch is the net change: every insertion is
                // net-new live, every deletion is net-gone.
                for e in &batch.insertions {
                    assert!(oracle.contains(e), "inserted edge not live in oracle");
                }
                for e in &batch.deletions {
                    assert!(!oracle.contains(e), "deleted edge still live in oracle");
                }
            },
        );
        assert!(n >= 10, "state space collapsed to {n} interleavings");
    }
}
