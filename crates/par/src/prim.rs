//! Parallel primitives: map / filter-map / flat-map, map into a slice,
//! prefix sums and sorting. These mirror the PRAM toolkit the paper
//! assumes in its preliminaries (§2): a parallel sort stands in for the
//! \[PP01\] batch BST operations.
//!
//! All of them run on the worker pool ([`crate::pool`]) and keep the
//! sequential semantics: maps and filters preserve input order, and
//! [`par_sort`] returns what `sort_unstable` does.

use crate::pool::{par_for, SharedMut};
use crate::{threads_available, GRAIN};

/// Chunk length for a [`GRAIN`]-gated primitive over `n` items: about
/// four chunks per participant.
fn chunk_len(n: usize) -> usize {
    n.div_ceil(4 * threads_available()).max(1)
}

/// Parallel for-each over disjoint chunks: `f(start, chunk)` with
/// `chunk = items[start..start + chunk.len()]`, chunks of at most
/// `grain` elements (one chunk of everything at width 1).
fn par_chunks_mut<T: Send>(items: &mut [T], grain: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let len = items.len();
    let base = SharedMut::new(items);
    par_for(0..len, grain, |r| {
        let start = r.start;
        // SAFETY: `par_for` hands out disjoint sub-ranges of `0..len`,
        // and `items` stays mutably borrowed until it returns.
        f(start, unsafe { base.slice(r) })
    });
}

/// `[f(0), …, f(n − 1)]`, computed in chunks of `grain` indices.
fn collect_indexed<R: Send>(n: usize, grain: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut out = Vec::with_capacity(n);
    // INVARIANT: the spare capacity is at least n, reserved above.
    par_chunks_mut(&mut out.spare_capacity_mut()[..n], grain, |lo, chunk| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            slot.write(f(lo + j));
        }
    });
    // SAFETY: the chunks cover `0..n` and each was fully written before
    // `par_chunks_mut` returned; a panic in `f` unwinds past this line
    // and merely leaks the written prefix.
    unsafe { out.set_len(n) };
    out
}

/// `f` over about four contiguous blocks per participant, outputs
/// concatenated in order; one block of everything below [`GRAIN`].
fn par_blocks<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    if items.len() < GRAIN {
        return f(items);
    }
    let blocks: Vec<&[T]> = items.chunks(chunk_len(items.len())).collect();
    let parts = par_map_grain(&blocks, 1, |b| f(b));
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for mut p in parts {
        out.append(&mut p);
    }
    out
}

/// Parallel `map` over a slice; sequential below [`GRAIN`].
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync + Send) -> Vec<R> {
    if items.len() < GRAIN {
        items.iter().map(f).collect()
    } else {
        par_map_grain(items, chunk_len(items.len()), f)
    }
}

/// Parallel `map` without the [`GRAIN`] cutoff: participants claim
/// chunks of `grain` items. For coarse items — a BFS, a whole
/// structure's build — where even a handful is worth spreading
/// (`grain = 1`).
pub fn par_map_grain<T: Sync, R: Send>(
    items: &[T],
    grain: usize,
    f: impl Fn(&T) -> R + Sync + Send,
) -> Vec<R> {
    // INVARIANT: collect_indexed passes i < items.len().
    collect_indexed(items.len(), grain, |i| f(&items[i]))
}

/// Parallel filter-map preserving input order.
pub fn par_filter_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Option<R> + Sync + Send,
) -> Vec<R> {
    par_blocks(items, |b| b.iter().filter_map(&f).collect())
}

/// Parallel flat-map preserving input order.
pub fn par_flat_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Vec<R> + Sync + Send,
) -> Vec<R> {
    par_blocks(items, |b| b.iter().flat_map(&f).collect())
}

/// Parallel map into a caller-owned output slice: `out[i] = f(&items[i])`.
/// Sequential below [`GRAIN`]. Unlike [`par_map`] this allocates nothing,
/// which makes it the fan-out primitive for steady-state batch query
/// loops (the caller resizes `out` once and reuses it).
///
/// Panics if `items` and `out` differ in length.
pub fn par_map_slice<T: Sync, R: Send>(
    items: &[T],
    out: &mut [R],
    f: impl Fn(&T) -> R + Sync + Send,
) {
    par_map_chunks(items, out, |ts, os| {
        for (o, t) in os.iter_mut().zip(ts) {
            *o = f(t);
        }
    });
}

/// [`par_map_slice`] a chunk at a time: `f(ts, os)` over matching
/// contiguous chunks of `items` and `out`, about four per participant,
/// one chunk of everything below [`GRAIN`]. For batch loops that
/// pipeline within a chunk (prefetching a few items ahead, say).
/// Allocates nothing.
///
/// Panics if `items` and `out` differ in length.
pub fn par_map_chunks<T: Sync, R: Send>(
    items: &[T],
    out: &mut [R],
    f: impl Fn(&[T], &mut [R]) + Sync + Send,
) {
    assert_eq!(
        items.len(),
        out.len(),
        "par_map_chunks: input/output length mismatch"
    );
    if items.len() < GRAIN {
        f(items, out);
    } else {
        par_chunks_mut(out, chunk_len(items.len()), |lo, dst| {
            // INVARIANT: lo + dst.len() ≤ out.len() == items.len().
            f(&items[lo..lo + dst.len()], dst)
        });
    }
}

/// Exclusive (left) prefix sums; returns a vector of length `n + 1` whose
/// last entry is the total. Work O(n), depth O(log n).
pub fn prefix_sums(items: &[usize]) -> Vec<usize> {
    let n = items.len();
    let mut out = Vec::with_capacity(n + 1);
    if n < GRAIN {
        let mut acc = 0usize;
        out.push(0);
        for &x in items {
            acc += x;
            out.push(acc);
        }
        return out;
    }
    // Block-wise two-pass scan.
    let block = chunk_len(n);
    let blocks: Vec<&[usize]> = items.chunks(block).collect();
    let block_sums = par_map_grain(&blocks, 1, |c| c.iter().sum::<usize>());
    let mut block_offsets = Vec::with_capacity(block_sums.len() + 1);
    let mut acc = 0usize;
    block_offsets.push(0);
    for &s in &block_sums {
        acc += s;
        block_offsets.push(acc);
    }
    out.resize(n + 1, 0);
    // INVARIANT: out.len() == n + 1 after the resize.
    out[n] = acc;
    // Chunks of `block` start on block boundaries (a width-1 run sees
    // one chunk from 0), so each chunk's offset is its block's.
    // INVARIANT: n < out.len().
    par_chunks_mut(&mut out[..n], block, |lo, dst| {
        // INVARIANT: block >= 1 (chunk_len), and lo / block indexes a
        // block start, < block_offsets.len(); lo < n == items.len().
        let mut acc = block_offsets[lo / block];
        for (d, &s) in dst.iter_mut().zip(&items[lo..]) {
            *d = acc;
            acc += s;
        }
    });
    out
}

/// Parallel (unstable) sort: below [`GRAIN`] (or at width 1) one
/// `sort_unstable`; otherwise each participant sorts one contiguous run
/// in parallel, and std's stable sort, which detects the sorted runs,
/// merges them in O(n log runs).
pub fn par_sort<T: Ord + Send>(items: &mut [T]) {
    let width = threads_available();
    if items.len() < GRAIN || width <= 1 {
        return items.sort_unstable();
    }
    par_chunks_mut(items, items.len().div_ceil(width), |_, run| {
        run.sort_unstable()
    });
    items.sort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_for_each_task;

    #[test]
    fn map_small_and_large() {
        let small: Vec<u32> = (0..10).collect();
        assert_eq!(
            par_map(&small, |x| x * 2),
            (0..10).map(|x| x * 2).collect::<Vec<_>>()
        );
        let large: Vec<u32> = (0..10_000).collect();
        assert_eq!(par_map(&large, |x| x + 1)[9_999], 10_000);
    }

    #[test]
    fn map_slice_matches_map() {
        for n in [0usize, 10, 5000] {
            let xs: Vec<u32> = (0..n as u32).collect();
            let mut out = vec![0u32; n];
            par_map_slice(&xs, &mut out, |&x| x.wrapping_mul(3) ^ 7);
            assert_eq!(out, par_map(&xs, |&x| x.wrapping_mul(3) ^ 7), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn map_slice_rejects_mismatched_lengths() {
        let xs = [1u32, 2, 3];
        let mut out = vec![0u32; 2];
        par_map_slice(&xs, &mut out, |&x| x);
    }

    #[test]
    fn filter_map_keeps_order() {
        let xs: Vec<u32> = (0..5000).collect();
        let evens = par_filter_map(&xs, |&x| (x % 2 == 0).then_some(x));
        assert_eq!(evens.len(), 2500);
        assert!(evens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prefix_sums_match_sequential() {
        for n in [0usize, 1, 5, 3000, 10_000] {
            let xs: Vec<usize> = (0..n).map(|i| i % 7).collect();
            let got = prefix_sums(&xs);
            let mut want = vec![0usize];
            for &x in &xs {
                want.push(want.last().unwrap() + x);
            }
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn for_each_task_runs_below_grain() {
        // A handful of coarse tasks must all execute even though the
        // element count is far below GRAIN, at any thread count.
        for threads in [1, 4] {
            let mut slots = vec![0u64; 7];
            crate::run_with_threads(threads, || {
                par_for_each_task(&mut slots, |s| *s += 1);
            });
            assert!(slots.iter().all(|&s| s == 1), "threads = {threads}");
        }
    }

    #[test]
    fn flat_map_order() {
        let xs: Vec<u32> = (0..3000).collect();
        let out = par_flat_map(&xs, |&x| vec![x, x]);
        assert_eq!(out.len(), 6000);
        assert_eq!(&out[0..4], &[0, 0, 1, 1]);
    }

    #[test]
    fn run_with_threads_bounds_concurrency() {
        // Four coarse tasks at width 2, each making a nested parallel
        // map above GRAIN: at most 2 threads may run bds_par work at
        // once, at every nesting depth. Some items sleep while counted,
        // so any extra thread would be caught overlapping them.
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let xs: Vec<u32> = (0..2 * GRAIN as u32).collect();
        let mut tasks = [(); 4];
        crate::run_with_threads(2, || {
            par_for_each_task(&mut tasks, |_| {
                par_map(&xs, |&x| {
                    peak.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                    if x % 256 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    live.fetch_sub(1, SeqCst);
                });
            });
        });
        let peak = peak.into_inner();
        assert!(
            peak <= 2,
            "{peak} threads ran bds_par work under run_with_threads(2)"
        );
    }

    #[test]
    fn par_map_grain_spreads_coarse_items() {
        let xs: Vec<u64> = (0..7).collect();
        for t in [1, 2, 3] {
            let got = crate::run_with_threads(t, || par_map_grain(&xs, 1, |&x| x * x));
            assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36], "threads = {t}");
        }
    }
}
