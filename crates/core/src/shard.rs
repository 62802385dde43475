//! Deterministic fork–join sharding for the replay and co-simulation loops.
//!
//! The large-scale runs spend their time in per-element work that is
//! independent across elements — one application's MPC step, one server's
//! power draw — while every *reduction* over those elements (energy sums,
//! SLO accounting, trajectory rows) is a left fold whose f64 result depends
//! on evaluation order. This module parallelizes only the per-element map
//! and leaves every fold sequential in index order, which yields the
//! guarantee the shard-equivalence suite (`tests/sharding.rs`) enforces:
//! **a run with N shards is bit-identical to the single-threaded run for
//! every N**, not merely statistically equivalent.
//!
//! Mechanics:
//!
//! * work is split into **contiguous index ranges** ([`partition`]), so
//!   shard boundaries never reorder elements;
//! * each worker owns a disjoint chunk (scoped threads, no locks on the
//!   simulation state) and returns its results as a vector;
//! * the caller receives one vector in **original index order**
//!   ([`map_indices`] / [`map_slice_mut`]) and folds it sequentially.
//!
//! Per-shard randomness needs no extra machinery: every stochastic
//! component in the workspace draws from its own stream derived with
//! [`vdc_apptier::rng::seed_stream`] (one SplitMix64-avalanched stream per
//! application), so moving an application between shards cannot change the
//! values it draws.
//!
//! With one effective shard the helpers run inline on the calling thread —
//! no threads are spawned, so `shards = 1` *is* the single-threaded run.

use std::ops::Range;

/// Resolve a requested shard count: `0` means "use the host parallelism"
/// (the CLI convention for `--shards 0`/unset); anything else is taken
/// literally. Never returns 0.
pub(crate) fn resolve(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Split `0..n` into at most `shards` contiguous, non-empty, near-even
/// ranges (the first `n % shards` ranges get one extra element). With
/// `n < shards` the result has `n` single-element ranges — more shards
/// than work degrades gracefully instead of spawning idle workers.
pub(crate) fn partition(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n);
    if shards == 0 {
        return Vec::new();
    }
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    ranges
}

/// Map `f` over `0..n`, fanned out over `shards` scoped workers, returning
/// results in index order. `f` must be pure with respect to index order
/// (it may read shared state, which is what makes the output independent
/// of the shard count).
pub(crate) fn map_indices<R, F>(n: usize, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = partition(n, resolve(shards));
    if ranges.len() <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| range.map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.push(h.join().expect("shard worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// Map `f` over a mutable slice — each worker owns a disjoint contiguous
/// chunk, so per-element mutation (an application's plant + controller
/// advancing one sample) needs no synchronization. Results come back in
/// index order; `f` also receives the element's global index.
pub(crate) fn map_slice_mut<T, R, F>(items: &mut [T], shards: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let ranges = partition(n, resolve(shards));
    if ranges.len() <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut out: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut offset = 0;
        let mut handles = Vec::with_capacity(ranges.len());
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let base = offset;
            offset += range.len();
            let f = &f;
            handles.push(scope.spawn(move || {
                chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(i, item)| f(base + i, item))
                    .collect::<Vec<R>>()
            }));
        }
        for h in handles {
            out.push(h.join().expect("shard worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_host_parallelism() {
        assert!(resolve(0) >= 1);
        assert_eq!(resolve(1), 1);
        assert_eq!(resolve(7), 7);
    }

    #[test]
    fn partition_covers_exactly_without_gaps() {
        for n in 0..40 {
            for shards in 1..10 {
                let ranges = partition(n, shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at n={n} shards={shards}");
                    assert!(!r.is_empty(), "empty range at n={n} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= shards.min(n).max(1).min(n.max(1)));
            }
        }
    }

    #[test]
    fn partition_is_near_even() {
        let ranges = partition(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn partition_more_shards_than_items() {
        let ranges = partition(3, 8);
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| r.len() == 1));
        assert!(partition(0, 8).is_empty());
    }

    #[test]
    fn map_indices_matches_inline_for_every_shard_count() {
        let inline: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for shards in [1, 2, 3, 5, 8, 200] {
            let sharded = map_indices(97, shards, |i| (i as u64) * 3 + 1);
            assert_eq!(sharded, inline, "shards={shards}");
        }
    }

    #[test]
    fn map_slice_mut_mutates_and_preserves_order() {
        let inline: Vec<f64> = (0..31).map(|i| (i as f64).sqrt()).collect();
        for shards in [1, 2, 4, 64] {
            let mut items: Vec<f64> = (0..31).map(|i| i as f64).collect();
            let roots = map_slice_mut(&mut items, shards, |i, x| {
                *x += 1.0;
                (i as f64).sqrt()
            });
            assert_eq!(
                roots.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                inline.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "shards={shards}"
            );
            assert!(items.iter().enumerate().all(|(i, &x)| x == i as f64 + 1.0));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = map_indices(0, 4, |_| 0u32);
        assert!(none.is_empty());
        let one = map_indices(1, 4, |i| i + 10);
        assert_eq!(one, vec![10]);
        let mut empty: Vec<u8> = Vec::new();
        assert!(map_slice_mut(&mut empty, 4, |_, _| 0u8).is_empty());
    }
}
