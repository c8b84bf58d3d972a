//! The persistent fork-join worker pool every `bds_par` primitive runs
//! on.
//!
//! The paper's bounds assume a fork-join machine whose processors
//! already exist; so does this pool. It starts lazily on the first
//! parallel call with `max(available_parallelism, BDS_THREADS) − 1`
//! workers, and grows when [`run_with_threads`] asks for a wider
//! width. The calling thread is always participant 0, worker `j` is
//! always participant `j + 1`. Idle workers spin briefly and then park,
//! so an idle pool burns no CPU.
//!
//! Three primitives run on it — [`join`], [`par_for`] (participants
//! claim chunks of a range through an atomic index) and
//! [`par_for_each_task`] (task `i` runs on participant `i mod width`,
//! every call, so a shard lane stays on one thread from batch to
//! batch). None of them allocates.
//!
//! One job runs at a time. A call made while the pool is busy — a
//! nested call from inside a task, or a concurrent call from another
//! thread — runs inline on its caller, so the pool never blocks and
//! never deadlocks. Inside a task [`threads_available`] is 1, which is
//! how [`run_with_threads`]`(t)` bounds the number of threads doing
//! `bds_par` work to `t` at every nesting depth.
//!
//! The default width honors the `BDS_THREADS` environment variable (a
//! positive integer pins it; anything else falls back to the hardware
//! parallelism). CI uses `BDS_THREADS=4` to drive the parallel fan-out
//! and scatter paths on runners with fewer cores: the extra workers
//! simply take turns on the cores they share.
//!
//! # Protocol
//!
//! The handoff and completion protocol is written against
//! [`crate::sync`], so tier 2 model-checks it (`model_pool_*` below).
//! A claimant owns the pool while the `busy` flag is set. For each
//! helper it writes the job into the worker's slot, stores `RUN`
//! (Release) and unparks the worker. A worker that loads `RUN` resets
//! its slot to `IDLE`, runs its share and decrements the job's
//! `pending` count (AcqRel). The claimant runs share 0, then waits for
//! `pending == 0`; only then does it return — which is what makes the
//! job's borrowed closure outlive every use of it.

use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::thread::{self, Unparker};
use crate::sync::Arc;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic;
#[cfg(not(bds_model))]
use std::panic::AssertUnwindSafe;

/// One participant's share of a job: `body(participant, width)`.
type Body<'a> = dyn Fn(usize, usize) + Sync + 'a;
type Panic = Box<dyn Any + Send>;

const IDLE: u32 = 0;
const RUN: u32 = 1;
const EXIT: u32 = 2;

/// Spin iterations before a waiting thread parks (workers) or yields
/// (the claimant). Zero under the model, where every wait iteration
/// must be a scheduling point.
const SPINS: u32 = if cfg!(bds_model) { 0 } else { 1 << 6 };

thread_local! {
    /// Width override of this thread: set by [`run_with_threads`], and
    /// to 1 while the thread runs a share of a pool job.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// A job as a worker receives it. The references are lifetime-erased;
/// see [`Claim::run`] for why they stay valid.
#[derive(Clone, Copy)]
struct Task {
    body: &'static Body<'static>,
    pending: &'static AtomicUsize,
    width: usize,
}

/// One worker's mailbox.
struct Slot {
    state: AtomicU32,
    task: UnsafeCell<Option<Task>>,
    panic: UnsafeCell<Option<Panic>>,
}

// SAFETY: `task` is written only by the claimant before its Release
// store of `RUN` and read only by the worker after loading `RUN`;
// `panic` is written only by the worker before its AcqRel decrement
// and read only by the claimant after loading `pending == 0`. Each
// cell therefore has one accessor at a time, ordered by those edges,
// and everything it holds is `Send`.
unsafe impl Sync for Slot {}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU32::new(IDLE),
            task: UnsafeCell::new(None),
            panic: UnsafeCell::new(None),
        }
    }
}

struct Worker {
    slot: Arc<Slot>,
    wake: Unparker,
}

/// A set of parked workers that run one job at a time.
struct Pool {
    busy: AtomicBool,
    /// Read and written only by the holder of the `busy` claim.
    workers: UnsafeCell<Vec<Worker>>,
}

// SAFETY: `workers` is only touched through a `Claim`, and claims are
// mutually exclusive (the `busy` CAS), with each claim's Acquire
// ordered after the previous claim's Release; `Worker` is `Send`.
unsafe impl Sync for Pool {}

impl Pool {
    fn new() -> Self {
        Pool {
            busy: AtomicBool::new(false),
            workers: UnsafeCell::new(Vec::new()),
        }
    }

    /// Take the pool, or `None` if another job holds it.
    fn try_claim(&self) -> Option<Claim<'_>> {
        // ordering: Acquire on success — synchronizes with the previous
        // claim's Release, so its worker-list writes are visible; a
        // failed claim reads nothing and runs inline (Relaxed).
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim { pool: self })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // SAFETY: `&mut self` excludes every claim, so nothing else
        // reads or writes the worker list.
        let workers = self.workers.with(|ws| unsafe { &*ws });
        for w in workers {
            // ordering: Release — no job is in flight (a claim returns
            // only after its job completes); EXIT follows the worker's
            // last IDLE store in modification order.
            w.slot.state.store(EXIT, Ordering::Release);
            w.wake.unpark();
        }
    }
}

/// Exclusive use of a [`Pool`]; dropping it releases the pool.
struct Claim<'p> {
    pool: &'p Pool,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // ordering: Release — pairs with the next claimant's Acquire.
        self.pool.busy.store(false, Ordering::Release);
    }
}

impl Claim<'_> {
    fn workers(&self) -> &[Worker] {
        // SAFETY: the claim is exclusive (see `Pool`), and the list is
        // only mutated through `&mut self` in `add_worker`, so the
        // shared borrow cannot overlap a write.
        self.pool.workers.with(|ws| unsafe { &*ws }).as_slice()
    }

    /// Number of workers, i.e. the widest job is `workers() + 1`.
    fn num_workers(&self) -> usize {
        self.workers().len()
    }

    /// Grow the pool by one worker. `spawn(slot, participant)` must
    /// start a thread running [`worker_loop`] on that slot and
    /// participant index and return its wake handle, or `None` if no
    /// thread could be started.
    fn add_worker(&mut self, spawn: impl FnOnce(Arc<Slot>, usize) -> Option<Unparker>) -> bool {
        let slot = Arc::new(Slot::new());
        let Some(wake) = spawn(Arc::clone(&slot), self.num_workers() + 1) else {
            return false;
        };
        self.pool.workers.with_mut(|ws| {
            // SAFETY: exclusive claim, and `&mut self` rules out any
            // borrow handed out by `workers()`.
            unsafe { &mut *ws }.push(Worker { slot, wake });
        });
        true
    }

    /// Run `body(p, width)` for every participant `p` in `0..width`,
    /// `p = 0` on the calling thread, and return once all of them have
    /// finished. A panic in any share is re-raised here after the
    /// others finish. Requires `width <= num_workers() + 1`.
    fn run(&self, width: usize, body: &Body<'_>) {
        let workers = self.workers();
        assert!(width >= 1 && width <= workers.len() + 1, "pool too narrow");
        // INVARIANT: 1 <= width <= workers.len() + 1, asserted above.
        let helpers = &workers[..width - 1];
        let pending = AtomicUsize::new(helpers.len());
        // SAFETY: lifetime erasure. `body` and `pending` live until this
        // function returns, and it returns (or unwinds) only after
        // loading `pending == 0`: every worker handed the task has then
        // made its last use of both (its decrement is its final access
        // to the task), so no erased reference outlives its referent.
        let task = unsafe {
            Task {
                body: std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body),
                pending: &*(&pending as *const AtomicUsize),
                width,
            }
        };
        for w in helpers {
            // SAFETY: the worker is IDLE — it reads `task` only after
            // loading RUN, which happens below.
            w.slot.task.with_mut(|t| unsafe { *t = Some(task) });
            // ordering: Release — publishes the task written above to
            // the worker's load of RUN.
            w.slot.state.store(RUN, Ordering::Release);
            w.wake.unpark();
        }
        let mine = catch(|| with_width(1, || body(0, width)));
        let mut spins = 0;
        // ordering: SeqCst load (an acquire) — synchronizes with every
        // worker's AcqRel decrement, so each share's writes are visible
        // once the count reads 0. SeqCst rather than Acquire so the
        // model reads the newest count instead of branching on stale
        // ones forever; on x86 both are a plain load.
        while pending.load(Ordering::SeqCst) != 0 {
            backoff(&mut spins, thread::yield_now);
        }
        let mut first = mine.err();
        for w in helpers {
            // SAFETY: the worker wrote its panic cell (if at all) before
            // its decrement, which happens-before the load of 0 above.
            if let Some(p) = w.slot.panic.with_mut(|c| unsafe { (*c).take() }) {
                first.get_or_insert(p);
            }
        }
        if let Some(p) = first {
            panic::resume_unwind(p);
        }
    }
}

/// The loop a pool worker runs on `slot` as participant `participant`;
/// returns once the pool is dropped.
fn worker_loop(slot: &Slot, participant: usize) {
    loop {
        let mut spins = 0;
        // ordering: SeqCst load (an acquire) — synchronizes with the
        // claimant's Release store of RUN, making its task write
        // visible; SeqCst for the model, as in `Claim::run`.
        let state = loop {
            match slot.state.load(Ordering::SeqCst) {
                IDLE => backoff(&mut spins, thread::park),
                s => break s,
            }
        };
        if state == EXIT {
            return;
        }
        // SAFETY: RUN was loaded above, so the claimant's write of the
        // task happens-before this read, and it writes again only
        // after this worker's decrement below.
        let Some(task) = slot.task.with(|t| unsafe { *t }) else {
            continue;
        };
        // ordering: Relaxed — sequenced before the AcqRel decrement, so
        // the claimant's next RUN store comes after it in modification
        // order.
        slot.state.store(IDLE, Ordering::Relaxed);
        if let Err(p) = catch(|| with_width(1, || (task.body)(participant, task.width))) {
            // SAFETY: the claimant reads this cell only after the
            // decrement below.
            slot.panic.with_mut(|c| unsafe { *c = Some(p) });
        }
        // ordering: AcqRel — Release publishes this share's writes (and
        // the panic cell) to the claimant's wait; Acquire chains the
        // earlier decrements, since the model does not track release
        // sequences. Last access to `task`.
        task.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One wait iteration: spin for [`SPINS`] rounds, then `wait`.
fn backoff(spins: &mut u32, wait: fn()) {
    if *spins < SPINS {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        wait();
    }
}

/// Run `f`, capturing a panic so the job can finish before it is
/// re-raised.
#[cfg(not(bds_model))]
fn catch(f: impl FnOnce()) -> Result<(), Panic> {
    panic::catch_unwind(AssertUnwindSafe(f))
}

/// Under the model a panic fails the exploration outright, and the
/// runtime tears threads down by unwinding them — which must not be
/// caught.
#[cfg(bds_model)]
fn catch(f: impl FnOnce()) -> Result<(), Panic> {
    f();
    Ok(())
}

/// Run `f` at width `width`; a share of a pool job runs at width 1, so
/// nested `bds_par` calls stay on its thread.
fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    // Restore via drop guard so a panicking closure cannot leave the
    // override pinned on this thread.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WIDTH.with(|w| w.replace(width)));
    f()
}

/// Process-wide defaults, read once.
struct Defaults {
    /// Width outside [`run_with_threads`]: `BDS_THREADS`, else the
    /// hardware parallelism.
    width: usize,
    /// Workers the pool starts with: `max(hardware, BDS_THREADS) − 1`.
    #[cfg_attr(bds_model, allow(dead_code))]
    workers: usize,
}

fn defaults() -> &'static Defaults {
    static DEFAULTS: std::sync::OnceLock<Defaults> = std::sync::OnceLock::new();
    DEFAULTS.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = std::env::var("BDS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0);
        Defaults {
            width: env.unwrap_or(hw),
            workers: env.unwrap_or(0).max(hw) - 1,
        }
    })
}

/// Number of participants `bds_par` calls made on this thread will use:
/// the [`run_with_threads`] width, 1 inside a pool task, and otherwise
/// `BDS_THREADS` or the hardware parallelism (see the module docs).
pub fn threads_available() -> usize {
    match WIDTH.with(Cell::get) {
        0 => defaults().width,
        w => w,
    }
}

/// Run `f` with the parallel width pinned to `threads`.
///
/// Every `bds_par` primitive called (transitively) from `f` uses at
/// most `threads` participants, so this pins the effective processor
/// count `p` for a measurement. Panics from `f` propagate.
pub fn run_with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    with_width(threads.max(1), f)
}

/// Run `body(p, width)` for every participant of a job `width` wide on
/// the process-wide pool, or `body(0, 1)` on the caller when the pool
/// is busy or `width` is 1.
#[cfg_attr(bds_model, allow(unused_variables))]
fn broadcast(width: usize, body: &Body<'_>) {
    #[cfg(not(bds_model))]
    if width > 1 {
        if let Some(mut claim) = global().try_claim() {
            let want = (width - 1).max(defaults().workers);
            while claim.num_workers() < want && claim.add_worker(spawn_std_worker) {}
            return claim.run(width.min(claim.num_workers() + 1), body);
        }
    }
    with_width(1, || body(0, 1));
}

/// The process-wide pool (model builds run every job inline instead;
/// the model tests build their own [`Pool`]).
#[cfg(not(bds_model))]
fn global() -> &'static Pool {
    static POOL: std::sync::OnceLock<Pool> = std::sync::OnceLock::new();
    POOL.get_or_init(Pool::new)
}

/// Start one process-wide worker. Its handle is dropped: the worker
/// lives as long as the process, and the task panics it could meet are
/// caught and re-raised on the claimant.
#[cfg(not(bds_model))]
fn spawn_std_worker(slot: Arc<Slot>, participant: usize) -> Option<Unparker> {
    std::thread::Builder::new()
        .name(format!("bds_par-{participant}"))
        .spawn(move || worker_loop(&slot, participant))
        .ok()
        .map(|h| h.thread().clone())
}

/// Raw base pointer of a slice whose disjoint elements are handed to
/// different participants.
pub(crate) struct SharedMut<T>(*mut T);

// SAFETY: users hand each element to exactly one participant (see
// `par_for_each_task` and `par_chunks_mut`), so sharing the base
// pointer only ever moves disjoint `&mut T` across threads: `T: Send`
// suffices.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    pub(crate) fn new(items: &mut [T]) -> Self {
        SharedMut(items.as_mut_ptr())
    }

    /// # Safety
    /// `range` lies within the slice this was made from, that slice is
    /// still mutably borrowed, and no other live reference covers any
    /// element of `range`.
    pub(crate) unsafe fn slice<'a>(&self, range: Range<usize>) -> &'a mut [T] {
        // SAFETY: forwarded to the caller, see above.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(range.start), range.len()) }
    }
}

/// Fork-join pair: runs `a` and `b`, in parallel when the width allows,
/// and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    enum Half<A, B, RA, RB> {
        A(A),
        B(B),
        RA(RA),
        RB(RB),
        Taken,
    }
    let mut halves = [Half::A(a), Half::B(b)];
    par_for_each_task(&mut halves, |h| {
        *h = match std::mem::replace(h, Half::Taken) {
            Half::A(a) => Half::RA(a()),
            Half::B(b) => Half::RB(b()),
            done => done,
        }
    });
    match halves {
        [Half::RA(ra), Half::RB(rb)] => (ra, rb),
        _ => unreachable!("join: both halves run exactly once"),
    }
}

/// Chunked parallel loop: `f` is called on disjoint sub-ranges of
/// `range` of at most `grain` indices that together cover it, which
/// participants claim through an atomic index. A range of one chunk, or
/// width 1, runs as a single `f(range)` on the caller.
pub fn par_for(range: Range<usize>, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    let grain = grain.max(1);
    let chunks = range.len().div_ceil(grain);
    let width = threads_available().min(chunks);
    if width <= 1 {
        if !range.is_empty() {
            f(range);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    broadcast(width, &|_, _| loop {
        // ordering: Relaxed — the counter only hands out distinct chunk
        // indices; the chunks' effects are published by the pool's
        // completion protocol.
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            break;
        }
        let lo = range.start + c * grain;
        f(lo..(lo + grain).min(range.end));
    });
}

/// Task-parallel for-each without a grain cutoff: every element is a
/// coarse task worth a participant of its own. Task `i` runs on
/// participant `i mod width` on every call, so a heavyweight structure
/// driven through here (one batch-dynamic shard per element) stays on
/// one thread from call to call. Runs sequentially at width 1 or with
/// at most one task.
pub fn par_for_each_task<T: Send>(items: &mut [T], f: impl Fn(&mut T) + Sync) {
    let width = threads_available().min(items.len());
    if width <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let len = items.len();
    let base = SharedMut::new(items);
    broadcast(width, &|p, width| {
        for i in (p..len).step_by(width) {
            // SAFETY: participant p touches only indices ≡ p (mod
            // width), so no element is reached twice, and `items` stays
            // mutably borrowed until `broadcast` returns.
            unsafe { base.slice(i..i + 1) }.iter_mut().for_each(&f);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_pool_has_requested_width() {
        assert_eq!(run_with_threads(1, threads_available), 1);
        assert_eq!(run_with_threads(3, threads_available), 3);
        let nested = run_with_threads(2, || {
            (
                threads_available(),
                run_with_threads(5, threads_available),
                threads_available(),
            )
        });
        assert_eq!(nested, (2, 5, 2));
        assert_ne!(threads_available(), 0);
    }

    #[test]
    fn returns_value_from_closure() {
        let v = run_with_threads(2, || (0..100).sum::<u64>());
        assert_eq!(v, 4950);
    }

    #[test]
    fn tasks_see_width_one() {
        let mut seen = [0usize; 4];
        run_with_threads(2, || {
            par_for_each_task(&mut seen, |s| *s = threads_available())
        });
        assert_eq!(seen, [1; 4]);
    }

    #[test]
    fn join_returns_both_halves() {
        for t in [1, 2, 4] {
            let (a, b) = run_with_threads(t, || join(|| 6 * 7, || "b".to_string()));
            assert_eq!((a, b.as_str()), (42, "b"), "threads = {t}");
        }
    }

    #[test]
    fn par_for_covers_range_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        for t in [1, 2, 3] {
            run_with_threads(t, || {
                par_for(7..1000, 16, |r| {
                    r.for_each(|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    })
                })
            });
        }
        let got: Vec<usize> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert!(got[..7].iter().all(|&h| h == 0) && got[7..].iter().all(|&h| h == 3));
    }

    #[test]
    fn tasks_keep_their_participant() {
        // Task i runs on participant i mod width (inline, when the pool
        // is busy with another test, all on one thread).
        let mut owners = vec![None; 6];
        run_with_threads(2, || {
            par_for_each_task(&mut owners, |o| *o = Some(std::thread::current().id()))
        });
        assert!(owners[2..].iter().zip(&owners).all(|(a, b)| a == b));
    }

    #[test]
    fn panics_propagate_after_the_job() {
        // Task 1 runs on the worker, task 0 on the caller: either
        // panicking re-raises on the caller once the job is over.
        for bad in [0usize, 1] {
            let mut slots = [0usize, 1];
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_with_threads(2, || {
                    par_for_each_task(&mut slots, |s| assert_ne!(*s, bad, "task {s} fails"))
                })
            }));
            assert!(r.is_err(), "task {bad}'s panic was lost");
        }
        // The pool survives a panicking job.
        let mut again = [0u32; 2];
        run_with_threads(2, || par_for_each_task(&mut again, |s| *s += 1));
        assert_eq!(again, [1, 1]);
    }
}

#[cfg(all(test, bds_model))]
mod model_tests {
    use super::*;
    use crate::sync::cell::UnsafeCell;

    /// CHESS exploration under a preemption bound, as in `sync::dbuf`'s
    /// model tests: bound 3 for two threads, bound 2 for three (which
    /// still covers the 2-preemption lost-update class, at a tenth of
    /// the interleavings).
    fn check_bounded(name: &str, bound: usize, f: impl Fn() + Send + Sync + 'static) -> u64 {
        let mut b = loom::model::Builder::default();
        b.preemption_bound = Some(bound);
        let n = b.check(f);
        println!("{name}: explored {n} interleavings (preemption bound {bound})");
        n
    }

    /// A pool with `workers` model threads; returns the pool and the
    /// handles to join after dropping it.
    fn model_pool(workers: usize) -> (Pool, Vec<loom::thread::JoinHandle<()>>) {
        let pool = Pool::new();
        let mut handles = Vec::new();
        {
            let mut claim = pool.try_claim().expect("fresh pool is free");
            for _ in 0..workers {
                claim.add_worker(|slot, p| {
                    handles.push(loom::thread::spawn(move || worker_loop(&slot, p)));
                    Some(Unparker)
                });
            }
        }
        (pool, handles)
    }

    fn shutdown(pool: Pool, handles: Vec<loom::thread::JoinHandle<()>>) {
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Every participant's share runs exactly once, on the participant
    /// it belongs to, and the claimant returns only after all of them
    /// finished: each share writes its own model cell, and reading the
    /// cells after `run` is a data race unless every write
    /// happens-before the return.
    #[test]
    fn model_pool_runs_each_share_once_and_joins() {
        let n = check_bounded("model_pool_runs_each_share_once_and_joins", 2, || {
            let (pool, handles) = model_pool(2);
            let cells: [UnsafeCell<usize>; 3] = std::array::from_fn(|_| UnsafeCell::new(0));
            {
                let claim = pool.try_claim().expect("pool is free");
                claim.run(3, &|p, width| {
                    assert_eq!(width, 3);
                    // SAFETY: share p is the only writer of cell p.
                    cells[p].with_mut(|c| unsafe { *c += 1 });
                });
            }
            for c in &cells {
                // SAFETY: read after `run` returned; the race detector
                // checks that every share's write happens-before it.
                assert_eq!(c.with(|c| unsafe { *c }), 1);
            }
            shutdown(pool, handles);
        });
        assert!(n >= 10, "state space collapsed to {n} interleavings");
    }

    /// A worker that went back to waiting after one job wakes for the
    /// next: no wakeup is lost between jobs (a lost one leaves the
    /// claimant waiting forever, which the explorer reports as a
    /// livelock), and the second job's writes are ordered after the
    /// first's. A nested claim from inside a share is refused, so
    /// nested calls run inline instead of deadlocking.
    #[test]
    fn model_pool_parked_worker_wakes_for_next_job() {
        let n = check_bounded("model_pool_parked_worker_wakes_for_next_job", 3, || {
            let (pool, handles) = model_pool(1);
            let cells: [UnsafeCell<usize>; 2] = std::array::from_fn(|_| UnsafeCell::new(0));
            for round in 1..=2 {
                let claim = pool.try_claim().expect("pool is free");
                claim.run(2, &|p, _| {
                    if round == 1 {
                        assert!(pool.try_claim().is_none(), "busy pool handed out");
                    }
                    // SAFETY: share p is the only writer of cell p.
                    cells[p].with_mut(|c| unsafe { *c += 1 });
                });
                drop(claim);
                for c in &cells {
                    // SAFETY: as in the test above.
                    assert_eq!(c.with(|c| unsafe { *c }), round);
                }
            }
            shutdown(pool, handles);
        });
        assert!(n >= 10, "state space collapsed to {n} interleavings");
    }

    /// Two threads race for the pool: exactly the winner runs the job
    /// on the workers, the loser is refused (and would run inline), and
    /// both see the job's effects once the winner returns.
    #[test]
    fn model_pool_concurrent_claims_are_exclusive() {
        let n = check_bounded("model_pool_concurrent_claims_are_exclusive", 3, || {
            let (pool, handles) = model_pool(1);
            let pool = Arc::new(pool);
            let ran = Arc::new(AtomicUsize::new(0));
            let rival = {
                let (pool, ran) = (Arc::clone(&pool), Arc::clone(&ran));
                loom::thread::spawn(move || {
                    if let Some(claim) = pool.try_claim() {
                        // ordering: Relaxed — counted after the joins.
                        claim.run(2, &|_, _| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            };
            if let Some(claim) = pool.try_claim() {
                // ordering: Relaxed — counted after the joins.
                claim.run(2, &|_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            rival.join().unwrap();
            // ordering: SeqCst — final tally after both joins.
            let total = ran.load(Ordering::SeqCst);
            assert!(total == 2 || total == 4, "a job ran partially: {total}");
            let pool = Arc::try_unwrap(pool).ok().expect("sole owner");
            shutdown(pool, handles);
        });
        assert!(n >= 10, "state space collapsed to {n} interleavings");
    }
}
