//! The `std::sync` facade every concurrent protocol in this workspace
//! goes through: in normal builds it re-exports the `std` primitives
//! unchanged (zero cost), and under `--cfg bds_model` it swaps in the
//! vendored mini-loom instrumented types so the same protocol code can
//! be exhaustively model-checked.
//!
//! # Verification tiers
//!
//! The serving stack's concurrency evidence comes in four tiers, from
//! strongest-per-state to widest coverage; each tier has a local
//! command and a CI job:
//!
//! 1. **Custom lint** (`cargo run -p bds_lint`): the token rules of
//!    PR 9 (every `unsafe` block must carry a `// SAFETY:` argument,
//!    every atomic `Ordering` an `// ordering:` justification, no
//!    `unwrap`/`expect` on product paths, no `debug_assert!` guarding
//!    cross-lane/seq invariants) plus four semantic passes:
//!    *facade-bypass* (any `std::sync` atomic/`Mutex`/`Condvar`/
//!    `RwLock` in `bds_graph`/`bds_par` product code outside this
//!    facade silently escapes tier 2 and is a finding — process-global
//!    statics go through [`global`]), *panic-path* (unguarded
//!    indexing, integer `/`/`%`, truncating `as` casts on serving/
//!    durability paths need an `// INVARIANT:` argument), *wal-drift*
//!    (record tags, header field order, and length arithmetic must
//!    agree between the WAL's encode and decode sites), and
//!    *stale-pragma* (a `bds:allow` that suppresses nothing is itself
//!    a finding). Findings are ratcheted: `crates/lint/ratchet.json`
//!    pins the per-file residue, counts may only decrease, and the
//!    default run fails on any drift in either direction.
//! 2. **Model check** (`RUSTFLAGS="--cfg bds_model" cargo test -p
//!    bds_par -p bds_graph --lib model_`): the pin/publish,
//!    buffer-swap, writer-crash and worker-pool handoff/completion
//!    protocols run under the vendored mini-loom ([`loom`]), which
//!    *enumerates* every interleaving up to a preemption bound and
//!    every weak-memory read, with vector-clock data-race detection. Exhaustive, but only for the
//!    protocol cores ported onto this facade.
//! 3. **Interleaving proptest** (`cargo test --test serve_interleave`):
//!    real threads, randomized schedules, the full `ServeLoop` — every
//!    concurrent answer must match a prefix state of the op sequence.
//!    Samples the schedule space the model can't hold (real engines,
//!    real queues).
//! 4. **Crash torture** (`cargo test --test recovery`): kill points,
//!    torn WAL tails, bit flips — the durability layer's contract
//!    under real I/O.
//!
//! [`dbuf`] is the protocol core shared by tiers 2 and 3: the serving
//! front-end's double-buffered view pair lives here so the *same*
//! pin/recheck/publish code the product runs is what the model checker
//! proves torn-read-free.
//!
//! Tier teeth are themselves verified: CI's mutation corpus
//! (`scripts/mutation_corpus.sh`) applies a set of seeded protocol
//! weakenings — ordering downgrades in [`dbuf`] and in the worker
//! pool's completion count, a dropped WAL `stamp_seq`, a skipped
//! `EveryBatch` fsync, a swapped record tag, an off-by-one in the
//! coalescer's index fixup — each in a scratch tree, and requires some
//! tier to fail on every one of them.

pub mod dbuf;

#[cfg(not(bds_model))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}
#[cfg(bds_model)]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(bds_model)]
pub use loom::sync::{Arc, Mutex};
#[cfg(not(bds_model))]
pub use std::sync::{Arc, Mutex};

/// Process-global atomics — the facade's one deliberate escape from
/// model instrumentation, for `static` counters that exist outside any
/// single model execution (a loom location is registered against the
/// *current* exploration and its constructor is not `const`, so an
/// instrumented atomic cannot live in a `static`). Always `std`, in
/// every build. Use this only for identity/statistics counters whose
/// correctness argument is a single atomic RMW (e.g. the engine-id
/// allocator); anything with a multi-access protocol belongs on
/// [`atomic`] so tier 2 can see it. The facade-bypass lint treats
/// `sync::global` as part of the facade.
pub mod global {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}

/// Thread helpers with a model-aware `yield_now` (under the model,
/// yielding deprioritizes the caller so spin-wait loops stay finite
/// during exploration) and the wait primitive the worker pool parks
/// on.
pub mod thread {
    #[cfg(not(bds_model))]
    pub use std::thread::{park, yield_now, Thread as Unparker};

    #[cfg(bds_model)]
    pub use loom::thread::yield_now;

    /// Block until woken. Under the model this is a yield: a parked
    /// thread is simply one that re-checks its wake condition, so a
    /// lost wakeup shows up as a livelock the explorer reports.
    #[cfg(bds_model)]
    pub fn park() {
        loom::thread::yield_now();
    }

    /// Wake handle for a thread blocked in [`park`]; a no-op under the
    /// model, where [`park`] never blocks.
    #[cfg(bds_model)]
    #[derive(Clone, Debug, Default)]
    pub struct Unparker;

    #[cfg(bds_model)]
    impl Unparker {
        pub fn unpark(&self) {}
    }
}

/// `UnsafeCell` with loom's closure-based access API. In normal builds
/// this is a transparent wrapper over [`std::cell::UnsafeCell`]; under
/// `--cfg bds_model` it is the instrumented cell whose every access is
/// dynamically race-checked against the happens-before order.
pub mod cell {
    #[cfg(bds_model)]
    pub use loom::cell::UnsafeCell;

    /// Transparent `std` flavor of the model cell API.
    #[cfg(not(bds_model))]
    #[derive(Debug, Default)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(bds_model))]
    impl<T> UnsafeCell<T> {
        pub fn new(data: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(data))
        }

        /// Immutable access through a raw pointer.
        ///
        /// The `*const T` handed to `f` is valid for reads for the
        /// duration of the call; the *caller* is responsible for the
        /// aliasing argument (no concurrent `with_mut`), exactly as
        /// with `std::cell::UnsafeCell`.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access through a raw pointer; same contract as
        /// [`UnsafeCell::with`], for writes.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Raw pointer escape hatch (std builds only) — used by lock
        /// guards that must hand out plain `&T` borrows.
        pub fn get(&self) -> *mut T {
            self.0.get()
        }
    }
}
