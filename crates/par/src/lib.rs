//! Work-depth style parallel primitives used throughout the batch-dynamic
//! spanner implementation.
//!
//! The paper assumes a CRCW PRAM; on a multicore we realize the same
//! algorithmic structure on a persistent fork-join worker pool
//! ([`pool`]) whose threads are started once and parked between jobs.
//! Every primitive here falls back to a sequential loop below [`GRAIN`]
//! elements, so small batches never pay scheduling overhead — this is
//! what makes the amortized *work* bounds observable in benchmarks
//! rather than being drowned by constant factors.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc_counter;
pub mod pool;
pub mod prim;
pub mod sync;

pub use alloc_counter::CountingAlloc;
pub use pool::{join, par_for, par_for_each_task, run_with_threads, threads_available};
pub use prim::*;

/// Below this many items, parallel primitives run sequentially.
pub const GRAIN: usize = 2048;

#[cfg(test)]
mod tests {
    //! The order, alignment, stability and tie-breaking guarantees the
    //! primitives inherit from the sequential iterators, each checked
    //! above [`GRAIN`] at several widths so the pool path runs.

    use super::*;

    const WIDTHS: [usize; 3] = [1, 2, 3];

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..100_000).collect();
        for t in WIDTHS {
            let v = run_with_threads(t, || par_map(&xs, |&x| x * 2));
            assert_eq!(v.len(), 100_000);
            assert!(v.windows(2).all(|w| w[1] == w[0] + 2), "threads = {t}");
        }
    }

    #[test]
    fn filter_and_flat_map() {
        let xs: Vec<u32> = (0..10_000).collect();
        for t in WIDTHS {
            run_with_threads(t, || {
                let evens = par_filter_map(&xs, |&x| (x % 2 == 0).then_some(x));
                assert_eq!(evens, (0..10_000).step_by(2).collect::<Vec<u32>>());
                let doubled = par_flat_map(&xs, |&x| vec![x, x]);
                assert_eq!(doubled.len(), 20_000);
                assert!(doubled.chunks(2).zip(0..).all(|(c, i)| c == [i, i]));
            });
        }
    }

    #[test]
    fn enumerate_and_zip_line_up() {
        let a: Vec<u32> = (0..5_000).collect();
        let b: Vec<u32> = (5_000..10_000).collect();
        for t in WIDTHS {
            run_with_threads(t, || {
                // Zip: output slot i pairs with input item i.
                let mut out = vec![0u32; b.len()];
                par_map_slice(&b, &mut out, |&y| y - 5_000);
                assert_eq!(out, a, "threads = {t}");
                // Chunks: each output chunk meets the input chunk at
                // its own offset.
                out.fill(0);
                par_map_chunks(&b, &mut out, |ys, os| {
                    assert_eq!(ys.len(), os.len());
                    for (o, &y) in os.iter_mut().zip(ys) {
                        *o = y - 5_000;
                    }
                });
                assert_eq!(out, a, "chunks, threads = {t}");
            });
        }
    }

    #[test]
    fn sorts_match_sequential() {
        let base: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) % 1000)
            .collect();
        for t in WIDTHS {
            run_with_threads(t, || {
                let (mut a, mut b) = (base.clone(), base.clone());
                par_sort(&mut a);
                b.sort_unstable();
                assert_eq!(a, b, "threads = {t}");
            });
        }
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        assert_eq!(run_with_threads(3, threads_available), 3);
        let inner = run_with_threads(3, || run_with_threads(1, threads_available));
        assert_eq!(inner, 1);
        assert_ne!(threads_available(), 0);
    }
}
