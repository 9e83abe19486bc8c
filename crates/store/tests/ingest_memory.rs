//! Peak heap of the store driver under a puts-only trace, through a
//! counting `#[global_allocator]` (hence a test binary of its own). The
//! driver prepares and applies a trace through a bounded in-flight window
//! of coded stripes, so its high-water mark must not grow with `batch=`.
//! A driver that holds one coded stripe per op of the batch fails this:
//! `batch=1024` then holds 960 more 72 KiB stripes than `batch=64`.

use mlec_store::{run_store_bench, BenchSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The driver's in-flight budget (`benchrun::IN_FLIGHT_BYTES`, private),
/// restated: two runs that differ only in `batch` may differ in peak heap
/// by less than one window's worth of prepared bytes.
const IN_FLIGHT_BYTES: usize = 4 << 20;

/// Heap bytes live now, and their high-water mark. Plain statistics:
/// `Relaxed` publishes nothing else.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc*`,
        // i.e. from `System`, and are passed through as received.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak heap of one puts-only replay at `batch`, above what was live
/// when it started: 4 KiB chunks (72 KiB coded stripes), 64 objects and a
/// little over 1024 ops, so `batch=1024` is one whole batch of puts.
fn peak_heap(batch: usize) -> usize {
    let mut spec = BenchSpec::small(1_100);
    spec.load.objects = 64;
    spec.load.put_pct = 100;
    spec.batch = batch;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_store_bench(&spec).unwrap();
    assert_eq!((report.puts, report.verified_final), (1_100, 64));
    PEAK.load(Ordering::Relaxed) - before
}

/// One test in the binary, so no other test allocates meanwhile.
#[test]
fn peak_heap_does_not_grow_with_batch() {
    let (small, large) = (peak_heap(64), peak_heap(1024));
    assert!(
        small.abs_diff(large) < IN_FLIGHT_BYTES,
        "peak heap {small} B at batch=64 against {large} B at batch=1024: \
         the in-flight window does not bound the driver's stripes"
    );
}
