//! Lightweight atomic work counters.
//!
//! The paper's results are *amortized work* bounds (e.g. O(k log² n) per
//! updated edge for Theorem 1.1). Wall-clock time on two cores is a noisy
//! proxy for work, so the data structures count their own primitive
//! operations (scan steps, tree rotations, hash operations) into these
//! counters and the benchmark harness reports operations per update —
//! directly comparable against the claimed bounds.

use crate::sync::atomic::{AtomicU64, Ordering};

/// A relaxed atomic counter. Cheap enough to leave enabled in release
/// builds; all accesses use `Ordering::Relaxed` because counters are only
/// read after the parallel region joins.
#[derive(Debug)]
pub struct WorkCounter(AtomicU64);

impl Default for WorkCounter {
    fn default() -> Self {
        Self(AtomicU64::new(0))
    }
}

impl WorkCounter {
    // The facade's model-build atomic registers a location with the
    // live exploration, so its constructor cannot be `const`; counters
    // embedded in structures built inside a model still work, while
    // std builds keep the const constructor.
    #[cfg(not(bds_model))]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[cfg(bds_model)]
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — statistics tally; exactness comes from
        // the RMW, and nothing synchronizes-with the counter.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        // ordering: Relaxed — diagnostic read; may lag concurrent adds.
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) -> u64 {
        // ordering: Relaxed — atomic take of the tally, same regime.
        self.0.swap(0, Ordering::Relaxed)
    }
}

impl Clone for WorkCounter {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_across_threads() {
        let c = WorkCounter::new();
        crate::run_with_threads(2, || {
            crate::par_for(0..10_000, 64, |r| r.for_each(|_| c.incr()))
        });
        assert_eq!(c.get(), 10_000);
        assert_eq!(c.reset(), 10_000);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn clone_snapshots_value() {
        let c = WorkCounter::new();
        c.add(7);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 7);
        assert_eq!(c.get(), 8);
    }
}
