//! One serving phase: a producer thread and a reader thread against a
//! `ServeLoop`, with marker probes for ingest-to-visible latency and the
//! output oracle at the end.
//!
//! **Markers.** Churn touches only ids below `Size::churn_n`; the top
//! ids are reserved and carry no edges. Every `Spec::marker_every`-th
//! update slot inserts a fresh reserved pair instead of churn. A lone edge
//! is a bridge, and a bridge is in every spanner and every spanning forest,
//! on its own lane too — so the first reader pin whose view contains
//! the marker proves the batch that carried it was published. The
//! reader reports the sighting back and the producer deletes the pair
//! again; a slot is reused only after at least one full batch of other
//! updates followed its delete, so a reinsert can never cancel against
//! the delete inside one coalesced batch.

use crate::oracle::{self, Verdict};
use crate::stats::{median, ratio, Mark};
use crate::trace::{Name, Span, Tracer};
use crate::workload::{
    self, Product, Served, SplitMix, BATCH, CHUNK, QUERIES, QUEUE, SEND_TICK, SNAPSHOT_EVERY,
};
use crate::Ctx;
use bds_graph::conn::ConnView;
use bds_graph::serve::{
    BatchPolicy, IngestHandle, ReadHandle, ServeLoop, ServeLoopBuilder, ServeReport, Update,
};
use bds_graph::shard::HashPartitioner;
use bds_graph::stream::UpdateStream;
use bds_graph::types::{Edge, V};
use bds_graph::wal::{FsyncPolicy, WalConfig};
use std::collections::VecDeque;
use std::error::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// How long the producer waits, after the write phase, for outstanding
/// markers to become visible before counting them as failures.
const WIND_DOWN: Duration = Duration::from_secs(5);

/// How long the producer sleeps when the ingest queue is full. A send
/// that blocks instead is woken by the writer on every dequeue, and on a
/// VM each such cross-CPU wake-up costs what the host's load says: the
/// flood then measures the hypervisor's wake-up latency, not the
/// engine. A full queue holds tens of milliseconds of work, so a short
/// back-off never starves the writer.
const BACKOFF: Duration = Duration::from_micros(500);

/// Width of the windows whose median rate is `updates_per_s`: a stall of
/// a few seconds (the hypervisor running another guest) moves a mean
/// over the run, not a median over its seconds.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Upper bound on set-up repetitions.
const MAX_SETUP_REPS: usize = 40;

/// A built serve loop with its producer handle and churn generator.
pub struct Prepared<S: Served> {
    serve: ServeLoop<S, HashPartitioner>,
    ingest: IngestHandle,
    stream: UpdateStream,
    wal_files: Vec<PathBuf>,
}

/// Build the serving stack from scratch at least `setup_reps` times,
/// and on until the builds took `setup_budget` (a 50 ms connectivity
/// build needs more samples for a steady median than a 200 ms spanner
/// build), and keep the last; returns it with every set-up time in
/// seconds, net of host steal. The timed part is the engine build plus
/// `ServeLoopBuilder::try_build` (which writes the WAL header and initial
/// snapshot when durable).
pub fn setup<S: Served>(cx: &Ctx, tr: &mut Tracer) -> Res<(Prepared<S>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    let budget = cx.size.setup_budget.as_secs_f64();
    while times.len() < cx.size.setup_reps.max(1)
        || (times.iter().sum::<f64>() < budget && times.len() < MAX_SETUP_REPS)
    {
        drop(last.take());
        let stream = workload::stream(&cx.size, &cx.inputs.init, cx.seed);
        let root = tr.enter(Name::Setup);
        let m0 = Mark::now();
        let o = tr.enter(Name::ShardBuild);
        let engine = workload::engine::<S>(cx.size.n, cx.seed, &cx.inputs.init)?;
        tr.exit(o, cx.inputs.init.len() as u64);
        let mut builder = ServeLoopBuilder::new(engine)
            .queue_capacity(QUEUE)
            .batch_policy(BatchPolicy::Fixed(BATCH));
        let mut wal_files = Vec::new();
        if cx.spec.durable {
            let log = cx.work.join(format!("{}.wal", cx.spec.name));
            let snap = cx.work.join(format!("{}.snap", cx.spec.name));
            builder = builder.durability(
                WalConfig::new(&log)
                    .fsync(FsyncPolicy::EveryBatch)
                    .snapshot(&snap, SNAPSHOT_EVERY),
            );
            wal_files = vec![log, snap];
        }
        let o = tr.enter(Name::ServeBuild);
        let (serve, ingest) = builder.try_build()?;
        tr.exit(o, 1);
        times.push(m0.net_s(&Mark::now()));
        tr.exit(root, 1);
        last = Some(Prepared {
            serve,
            ingest,
            stream,
            wal_files,
        });
    }
    let prepared = last.ok_or("no set-up ran")?;
    Ok((prepared, times))
}

/// Everything one phase measured. Latency samples are raw wall times;
/// `steal_share` is what the end-to-end metrics take out of them.
pub struct PhaseOut {
    pub updates_sent: u64,
    /// Median over `RATE_WINDOW`s, each net of host steal on the floods.
    pub updates_per_s: f64,
    pub write_wall_s: f64,
    /// Share of host CPU time stolen during the write phase.
    pub steal_share: f64,
    pub visible_ms: Vec<f64>,
    /// Reader bursts from their due time.
    pub read_us: Vec<f64>,
    /// Reader bursts from their start: pin, queries (and the rebuild).
    pub burst_us: Vec<f64>,
    pub queries: u64,
    pub queries_per_s: f64,
    pub ingest_errors: u64,
    pub markers_sent: u64,
    pub markers_unseen: u64,
    pub markers_skipped: u64,
    pub verdict: Verdict,
    pub report: ServeReport,
    pub send_late_ms: Vec<f64>,
    pub reader_late_ms: Vec<f64>,
    pub wal_bytes: u64,
    pub spans: Vec<Span>,
    /// The generator's live input at the end, and the final published
    /// output the oracle checked against it.
    pub live: Vec<Edge>,
    pub published: Vec<Edge>,
}

impl PhaseOut {
    /// |H| of the final published view.
    pub fn output_edges(&self) -> usize {
        self.published.len()
    }

    pub fn attempted(&self) -> u64 {
        self.updates_sent + self.queries + self.markers_sent + self.verdict.checks
    }

    pub fn failed(&self) -> u64 {
        self.ingest_errors + self.markers_unseen + self.verdict.mismatches
    }
}

/// A marker handed to the reader: slot, edge, and the instant its
/// latency is measured from (send time, or due time when paced).
type Marker = (usize, Edge, Instant);

/// Run one phase against `prep`: `Size::warmup` of load, then `seconds`
/// seconds that are measured. The warm-up is there because a freshly
/// built spanner serves its first seconds of churn about twice as fast as
/// its steady state; a metric that averaged over both would depend on how
/// long the run was.
pub fn run<S: Served>(cx: &Ctx, prep: Prepared<S>, seconds: f64, traced: bool) -> Res<PhaseOut> {
    let Prepared {
        serve,
        ingest,
        stream,
        wal_files,
    } = prep;
    let reads = serve.read_handle();
    let writer = serve.spawn();
    let (marker_tx, marker_rx) = channel::<Marker>();
    let (seen_tx, seen_rx) = channel::<(usize, Instant)>();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Mark::now();
    let t0 = start.at;
    let from = t0 + cx.size.warmup;
    let deadline = from + Duration::from_secs_f64(seconds);

    let reader = {
        let mut r = Reader {
            cx: cx.clone(),
            reads: reads.clone(),
            marker_rx,
            seen_tx,
            stop: Arc::clone(&stop),
            tr: Tracer::new(traced, cx.origin, 2),
        };
        std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || (r.run(t0, from), r.tr.spans))?
    };
    let producer = {
        let mut p = Producer {
            cx: cx.clone(),
            ingest: Some(ingest),
            stream,
            marker_tx,
            seen_rx,
            slots: vec![Slot::default(); cx.size.marker_pairs],
            next_slot: 0,
            churn: VecDeque::with_capacity(CHUNK),
            deletes: VecDeque::new(),
            last_marker: None,
            fence_seen: None,
            next_window: from,
            windows: Vec::new(),
            winding: false,
            end: None,
            sent: 0,
            errors: 0,
            markers_sent: 0,
            markers_skipped: 0,
            late_ms: Vec::new(),
            tr: Tracer::new(traced, cx.origin, 3),
        };
        std::thread::Builder::new()
            .name("bench-producer".into())
            .spawn(move || {
                let end = p.run(t0, deadline);
                (p, end)
            })?
    };
    let joined = producer.join();
    let report = writer.join().map_err(|_| "serve writer panicked")?;
    // ordering: Relaxed — a stop request only; `join` below is what
    // publishes the reader's results to this thread.
    stop.store(true, Ordering::Relaxed);
    let (rout, mut spans) = reader.join().map_err(|_| "reader panicked")?;
    let (p, end) = joined.map_err(|_| "producer panicked")?;
    spans.extend(p.tr.spans);

    let final_view = reads.pin_at_least(report.final_seq);
    let published = final_view.edges();
    drop(final_view);

    let size = &cx.size;
    let unseen: Vec<usize> = (0..size.marker_pairs)
        .filter(|&s| p.slots[s].outstanding)
        .collect();
    let mut live = p.stream.live_edges().to_vec();
    live.extend(unseen.iter().map(|&slot| size.marker(slot)));
    let verdict = verdict(cx, &live, &published);

    let wal_bytes = wal_files
        .first()
        .and_then(|f| std::fs::metadata(f).ok())
        .map_or(0, |m| m.len());
    for f in &wal_files {
        let _ = std::fs::remove_file(f);
    }

    let write_wall_s = end.saturating_duration_since(t0).as_secs_f64();
    let paced = cx.spec.paced_rate.is_some();
    let mut rates: Vec<f64> = p
        .windows
        .windows(2)
        .map(|w| {
            let ((a, sent_a), (b, sent_b)) = (w[0], w[1]);
            // A paced producer's rate is set by the wall clock; a flood's
            // by the CPU time the host left this guest. With the queue
            // full, sends run at most one queue ahead of applies.
            let net = if paced { 1.0 } else { 1.0 - a.steal_share(&b) };
            ratio(
                (sent_b - sent_a) as f64,
                b.at.saturating_duration_since(a.at).as_secs_f64() * net,
            )
        })
        .collect();
    let updates_per_s = if rates.is_empty() {
        // A phase too short for one window (the self-tests): every update
        // sent through the last marker was visible when it was seen.
        let fenced = p.last_marker.map_or(p.sent, |s| p.slots[s].through);
        ratio(fenced as f64, write_wall_s)
    } else {
        median(&mut rates)
    };
    let first = p.windows.first().map_or(start, |w| w.0);
    let steal_share = p.end.map_or(0.0, |m| first.steal_share(&m));
    Ok(PhaseOut {
        updates_sent: p.sent,
        updates_per_s,
        write_wall_s,
        steal_share,
        visible_ms: rout.visible_ms,
        read_us: rout.read_us,
        burst_us: rout.burst_us,
        queries: rout.queries,
        queries_per_s: ratio(rout.queries as f64, rout.wall_s),
        ingest_errors: p.errors,
        markers_sent: p.markers_sent,
        markers_unseen: unseen.len() as u64,
        markers_skipped: p.markers_skipped,
        verdict,
        report,
        send_late_ms: p.late_ms,
        reader_late_ms: rout.late_ms,
        wal_bytes,
        spans,
        live,
        published,
    })
}

/// The output oracle of `cx`'s product: the final published edges
/// against the live input.
pub fn verdict(cx: &Ctx, live: &[Edge], published: &[Edge]) -> Verdict {
    let n = cx.size.n;
    match cx.spec.product {
        Product::Spanner => oracle::spanner(n, live, published, workload::K, cx.seed),
        Product::Conn => oracle::conn(n, live, published, &oracle_pairs(cx, live)),
    }
}

/// Random query pairs for the connectivity oracle.
const ORACLE_PAIRS: usize = 4096;

/// Query pairs for the connectivity oracle: random pairs over all ids,
/// plus both endpoints of sampled live edges (which must be connected).
fn oracle_pairs(cx: &Ctx, live: &[Edge]) -> Vec<(V, V)> {
    let n = cx.size.n;
    let mut rng = SplitMix(cx.seed ^ 0x6f72_6163_6c65);
    let mut pairs = Vec::with_capacity(2 * ORACLE_PAIRS);
    for _ in 0..ORACLE_PAIRS {
        pairs.push((rng.below(n) as V, rng.below(n) as V));
        if !live.is_empty() {
            let e = live[rng.below(live.len())];
            pairs.push((e.u, e.v));
        }
    }
    pairs
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Inserted and not yet seen by the reader.
    outstanding: bool,
    /// Update count at which the slot's delete was sent.
    deleted_at: Option<u64>,
    /// Updates sent up to and including the slot's latest insert.
    through: u64,
}

struct Producer {
    cx: Ctx,
    /// Dropped at the end of `run`: the last handle going away is the
    /// writer's shutdown signal.
    ingest: Option<IngestHandle>,
    stream: UpdateStream,
    marker_tx: Sender<Marker>,
    seen_rx: Receiver<(usize, Instant)>,
    slots: Vec<Slot>,
    next_slot: usize,
    churn: VecDeque<Update>,
    /// Seen markers waiting for their delete to be sent.
    deletes: VecDeque<usize>,
    /// Slot of the newest marker.
    last_marker: Option<usize>,
    fence_seen: Option<Instant>,
    /// Where the next rate window starts; the first is the end of the
    /// warm-up.
    next_window: Instant,
    /// Host mark and updates sent at each window edge.
    windows: Vec<(Mark, u64)>,
    /// Past the deadline: the fence seen from now on ends the phase.
    winding: bool,
    /// Where the write phase ended, for its steal share.
    end: Option<Mark>,
    sent: u64,
    errors: u64,
    markers_sent: u64,
    markers_skipped: u64,
    late_ms: Vec<f64>,
    tr: Tracer,
}

impl Producer {
    /// Produce until `deadline`, then wind down. Returns the end of the
    /// write phase: when the reader saw the last marker, by which point
    /// every update sent before it was visible.
    fn run(&mut self, t0: Instant, deadline: Instant) -> Instant {
        let mut ok = true;
        match self.cx.spec.paced_rate {
            None => {
                let mut prev_end = Instant::now();
                while ok {
                    self.drain_seen();
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    self.window_edge(now);
                    // Closed loop: the next send is due when the previous
                    // one returned; lateness is the generator's overhead,
                    // sampled once per chunk.
                    if self.sent.is_multiple_of(CHUNK as u64) {
                        self.late_ms.push(ms(now - prev_end));
                    }
                    ok = self.send_next(now);
                    prev_end = Instant::now();
                }
            }
            Some(rate) => {
                let per_tick = (u64::from(rate) * SEND_TICK.as_micros() as u64 / 1_000_000).max(1);
                let mut tick = 0u32;
                while ok {
                    let due = t0 + SEND_TICK * tick;
                    if due >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        // Sleep, never spin: a spinning producer steals
                        // the writer's core.
                        std::thread::sleep(due - now);
                    }
                    let now = Instant::now();
                    self.window_edge(now);
                    self.late_ms.push(ms(now.saturating_duration_since(due)));
                    self.drain_seen();
                    for _ in 0..per_tick {
                        ok = self.send_next(due);
                        if !ok {
                            break;
                        }
                    }
                    tick += 1;
                }
            }
        }
        self.winding = true;
        self.end = Some(Mark::now());
        // The generator already counts the rest of its chunk as applied:
        // send it, so the oracle's live set is what the engine received.
        while ok {
            let Some(up) = self.churn.pop_front() else {
                break;
            };
            ok = self.send(up);
        }
        // Wind down: wait for outstanding markers, deleting each once
        // seen, so the final state holds no marker edges.
        let wind = Instant::now();
        while ok && wind.elapsed() < WIND_DOWN {
            self.drain_seen();
            while ok {
                let Some(slot) = self.deletes.pop_front() else {
                    break;
                };
                ok = self.send(Update::Delete(self.cx.size.marker(slot)));
            }
            if !self.slots.iter().any(|s| s.outstanding) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.ingest = None;
        self.fence_seen.unwrap_or_else(Instant::now)
    }

    /// Close a rate window once `now` has passed its end.
    fn window_edge(&mut self, now: Instant) {
        if now < self.next_window {
            return;
        }
        self.windows.push((Mark::now(), self.sent));
        self.next_window += RATE_WINDOW;
        if self.next_window <= now {
            self.next_window = now + RATE_WINDOW;
        }
    }

    fn drain_seen(&mut self) {
        while let Ok((slot, at)) = self.seen_rx.try_recv() {
            self.slots[slot].outstanding = false;
            self.deletes.push_back(slot);
            if self.last_marker == Some(slot) {
                self.fence_seen = Some(at);
                if self.winding {
                    self.end = Some(Mark::now());
                }
            }
        }
    }

    /// Fill one update slot: a pending marker delete, a marker insert,
    /// or churn. `due` is what a marker's latency is measured from.
    fn send_next(&mut self, due: Instant) -> bool {
        let size = self.cx.size;
        let up = if let Some(slot) = self.deletes.pop_front() {
            self.slots[slot].deleted_at = Some(self.sent);
            Update::Delete(size.marker(slot))
        } else if self.sent.is_multiple_of(self.cx.spec.marker_every)
            && self.slot_free(self.next_slot)
        {
            let slot = self.next_slot;
            self.next_slot = (slot + 1) % size.marker_pairs;
            self.slots[slot].outstanding = true;
            self.slots[slot].through = self.sent + 1;
            self.markers_sent += 1;
            self.last_marker = Some(slot);
            self.fence_seen = None;

            let e = size.marker(slot);
            let _ = self.marker_tx.send((slot, e, due));
            Update::Insert(e)
        } else {
            if self.sent.is_multiple_of(self.cx.spec.marker_every) {
                self.markers_skipped += 1;
                self.next_slot = (self.next_slot + 1) % size.marker_pairs;
            }
            if self.churn.is_empty() {
                let o = self.tr.enter(Name::Generate);
                let b = self.stream.next_batch(CHUNK / 2, CHUNK / 2);
                self.tr.exit(o, b.len() as u64);
                // Deletions first: the stream may re-insert an edge it
                // deleted in the same chunk, and the order keeps that a
                // legal delete-then-insert sequence.
                self.churn
                    .extend(b.deletions.into_iter().map(Update::Delete));
                self.churn
                    .extend(b.insertions.into_iter().map(Update::Insert));
            }
            let Some(u) = self.churn.pop_front() else {
                return true;
            };
            u
        };
        self.send(up)
    }

    fn slot_free(&self, slot: usize) -> bool {
        let s = self.slots[slot];
        !s.outstanding && s.deleted_at.is_none_or(|d| self.sent - d > BATCH as u64)
    }

    fn send(&mut self, up: Update) -> bool {
        let Some(ingest) = &self.ingest else {
            return false;
        };
        let o = self.tr.enter(Name::Send);
        let r = loop {
            match ingest.try_send(up) {
                Ok(true) => break Ok(()),
                Ok(false) => std::thread::sleep(BACKOFF),
                Err(e) => break Err(e),
            }
        };
        self.tr.exit(o, 1);
        self.sent += 1;
        if r.is_err() {
            self.errors += 1;
        }
        r.is_ok()
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct ReaderOut {
    visible_ms: Vec<f64>,
    read_us: Vec<f64>,
    burst_us: Vec<f64>,
    late_ms: Vec<f64>,
    queries: u64,
    wall_s: f64,
}

struct Reader {
    cx: Ctx,
    reads: ReadHandle<HashPartitioner>,
    marker_rx: Receiver<Marker>,
    seen_tx: Sender<(usize, Instant)>,
    stop: Arc<AtomicBool>,
    tr: Tracer,
}

impl Reader {
    /// Open loop: one tick every `Spec::probe_tick`, each probing
    /// outstanding markers on a fresh pin; every `burst_every`-th tick is
    /// a query burst (spanner: `batch_contains`; conn: copy `edges()`,
    /// rebuild a `ConnView`, `batch_connected`) under the same pin, timed
    /// both from its due time and from its start.
    /// Samples are kept from `from` on.
    fn run(&mut self, t0: Instant, from: Instant) -> ReaderOut {
        let queries = &self.cx.inputs.queries;
        let pairs: Vec<(V, V)> = queries.iter().map(|e| (e.u, e.v)).collect();
        let windows = (queries.len() / QUERIES).max(1);
        let mut outstanding: Vec<Marker> = Vec::new();
        let (mut hits, mut answers) = (Vec::new(), Vec::new());
        let mut out = ReaderOut {
            visible_ms: Vec::new(),
            read_us: Vec::new(),
            burst_us: Vec::new(),
            late_ms: Vec::new(),
            queries: 0,
            wall_s: 0.0,
        };
        let mut sink = 0usize;
        let mut tick = 0u32;
        let tr = &mut self.tr;
        let (probe_tick, burst_every) = (self.cx.spec.probe_tick, self.cx.spec.burst_every);
        // ordering: Relaxed — stop flag only; no data is published
        // through it (the spawning thread joins for the results).
        while !self.stop.load(Ordering::Relaxed) {
            let due = t0 + probe_tick * tick;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            while let Ok(m) = self.marker_rx.try_recv() {
                outstanding.push(m);
            }
            let burst = u64::from(tick) % burst_every == 0;
            let started = Instant::now();
            let root = tr.enter(if burst { Name::Burst } else { Name::Probe });
            let o = tr.enter(Name::Pin);
            let view = self.reads.pin();
            tr.exit(o, 1);
            let pinned = Instant::now();
            if !outstanding.is_empty() {
                let o = tr.enter(Name::Contains);
                let checked = outstanding.len() as u64;
                outstanding.retain(|&(slot, e, sent)| {
                    if !view.contains(e) {
                        return true;
                    }
                    if sent >= from {
                        out.visible_ms
                            .push(ms(pinned.saturating_duration_since(sent)));
                    }
                    let _ = self.seen_tx.send((slot, pinned));
                    false
                });
                tr.exit(o, checked);
            }
            if burst {
                let w = (u64::from(tick) / burst_every) as usize % windows;
                let range = w * QUERIES..(w + 1) * QUERIES;
                match self.cx.spec.product {
                    Product::Spanner => {
                        let o = tr.enter(Name::BatchContains);
                        view.batch_contains(&queries[range], &mut hits);
                        tr.exit(o, QUERIES as u64);
                        sink += hits.iter().filter(|&&h| h).count();
                    }
                    Product::Conn => {
                        let o = tr.enter(Name::ViewEdges);
                        let edges = view.edges();
                        tr.exit(o, edges.len() as u64);
                        let o = tr.enter(Name::ViewRebuild);
                        let cv = ConnView::from_edges(self.cx.size.n, &edges);
                        tr.exit(o, edges.len() as u64);
                        let o = tr.enter(Name::BatchConnected);
                        cv.batch_connected(&pairs[range], &mut answers);
                        tr.exit(o, QUERIES as u64);
                        sink += answers.iter().filter(|&&h| h).count();
                    }
                }
                drop(view);
                if due >= from {
                    let done = Instant::now();
                    out.queries += QUERIES as u64;
                    out.read_us
                        .push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
                    out.burst_us
                        .push(done.saturating_duration_since(started).as_secs_f64() * 1e6);
                }
            } else {
                drop(view);
            }
            tr.exit(root, 1);
            tick += 1;
        }
        std::hint::black_box(sink);
        out.wall_s = from.elapsed().as_secs_f64();
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
