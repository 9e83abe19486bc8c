//! The batched I/O core: deterministic parallelism for the serving path.
//!
//! The store's state machine (backend, cache, bandwidth clocks, repair
//! queue) must be mutated strictly in op order or virtual time stops being
//! a pure function of the trace. What *can* run on many threads is the
//! pure per-op work: synthesizing put payloads, erasure-encoding stripes,
//! and verifying read-back bytes. This module provides that split:
//! [`par_chunks_mut`] fans a batch of items over scoped threads in
//! contiguous slices, in place, and [`par_map`] collects results through it
//! in input order, so the output is identical for any thread count —
//! including 1 — which is exactly the property the op-log determinism test
//! pins down.

/// Map `f` over `items` on up to `threads` scoped threads, preserving
/// input order exactly: slot `i` always receives `f(items[i])` no matter
/// which thread computes it. `f` must be pure for the thread-count
/// invariance to mean anything — nothing enforces that here beyond the
/// `Fn(&T)` signature.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|item| (item, None)).collect();
    par_chunks_mut(&mut slots, threads, |mine| {
        for (item, slot) in mine {
            *slot = Some(f(item));
        }
    });
    slots.into_iter().filter_map(|(_, result)| result).collect()
}

/// Run `f` over `items` in place on up to `threads` scoped threads: items
/// are split into contiguous slices, one per thread, and each thread is
/// handed its whole slice, so it can keep scratch buffers across its items.
/// For work that fills buffers the items already own. A slot is only ever
/// touched by the call that received it, so the result is identical for
/// any thread count — including 1 — if `f` treats its items independently.
pub fn par_chunks_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads);
    // The scope joins every thread, propagating panics.
    std::thread::scope(|scope| {
        for slice in items.chunks_mut(chunk) {
            let f = &f;
            scope.spawn(move || f(slice));
        }
    });
}

/// Batch boundaries for a trace of `total` ops in batches of `batch`:
/// yields `(start, end)` index pairs covering `0..total`.
pub fn batches(total: u64, batch: u64) -> impl Iterator<Item = (u64, u64)> {
    let batch = batch.max(1);
    (0..total.div_ceil(batch)).map(move |i| (i * batch, ((i + 1) * batch).min(total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 7, 16, 64] {
            let got = par_map(&items, threads, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_with_more_threads_than_items() {
        // threads > items.len(): chunks(1) spawns one thread per item and
        // the slot partition must still cover the output exactly.
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, 64, |&x| x * 10), vec![0, 10, 20]);
        // Two items, odd thread count.
        assert_eq!(par_map(&[5u32, 6], 7, |&x| x + 1), vec![6, 7]);
    }

    #[test]
    fn par_map_results_are_dropped_exactly_once() {
        // Heap-owning results: every slot filled once, none lost on the way
        // out of the scratch pairs.
        let items: Vec<u64> = (0..100).collect();
        let got = par_map(&items, 8, |&x| vec![x; 3]);
        assert_eq!(got.len(), 100);
        assert!(got.iter().enumerate().all(|(i, v)| v == &vec![i as u64; 3]));
    }

    #[test]
    fn par_chunks_mut_visits_every_slot_once_for_any_thread_count() {
        for threads in [0usize, 1, 2, 3, 7, 64] {
            for len in [0usize, 1, 2, 10, 1000] {
                let mut items: Vec<(usize, Vec<u8>)> = (0..len).map(|i| (i, vec![9; 3])).collect();
                par_chunks_mut(&mut items, threads, |mine| {
                    // Scratch kept across a thread's items, as the driver does.
                    let mut scratch = Vec::new();
                    for (i, buf) in mine {
                        scratch.clear();
                        scratch.extend_from_slice(&(*i as u32).to_le_bytes());
                        buf.clear();
                        buf.extend_from_slice(&scratch);
                    }
                });
                for (i, buf) in &items {
                    assert_eq!(
                        buf,
                        &(*i as u32).to_le_bytes(),
                        "threads={threads} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn batches_cover_the_range_exactly() {
        let got: Vec<(u64, u64)> = batches(10, 4).collect();
        assert_eq!(got, vec![(0, 4), (4, 8), (8, 10)]);
        let whole: Vec<(u64, u64)> = batches(5, 100).collect();
        assert_eq!(whole, vec![(0, 5)]);
        assert_eq!(batches(0, 4).count(), 0);
        // batch=0 is clamped rather than looping forever.
        assert_eq!(batches(3, 0).count(), 3);
    }
}
