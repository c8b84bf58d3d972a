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
pub mod counters;
pub mod pool;
pub mod prim;
pub mod sync;

pub use alloc_counter::CountingAlloc;
pub use counters::WorkCounter;
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
                // Enumerate: the index handed to `f` is the item's own.
                let idx = par_map_idx(&a, |i, &x| (i, x));
                assert!(idx.iter().all(|&(i, x)| i == x as usize));
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
    fn iter_mut_reaches_every_item() {
        let mut v = vec![1u64; 10_000];
        for t in WIDTHS {
            run_with_threads(t, || par_for_each_mut(&mut v, |x| *x += 1));
        }
        assert!(v.iter().all(|&x| x == 4));
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
                assert_eq!(a, b);
                let mut k = base.clone();
                par_sort_by_key(&mut k, |&x| std::cmp::Reverse(x));
                b.reverse();
                assert_eq!(k, b);
                // Stability: pairs equal on the key keep input order.
                let mut c: Vec<(u64, usize)> = base.iter().copied().zip(0..).collect();
                let mut d = c.clone();
                par_sort_by(&mut c, |x, y| x.0.cmp(&y.0));
                d.sort_by_key(|x| x.0); // std: stable
                assert_eq!(c, d, "par_sort_by must be stable (threads = {t})");
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

    #[test]
    fn max_by_key_takes_last_tie() {
        assert_eq!(par_max_by_key(&[1u32, 5, 3, 5, 2], |&x| x), Some(3));
        // Above GRAIN: equal maxima in different chunks.
        let mut xs = vec![0u32; 10_000];
        xs[17] = 9;
        xs[9_000] = 9;
        for t in WIDTHS {
            assert_eq!(
                run_with_threads(t, || par_max_by_key(&xs, |&x| x)),
                Some(9_000)
            );
        }
    }
}
