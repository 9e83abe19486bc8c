//! Heap allocations of the object mapper's address translation, counted by
//! a `#[global_allocator]` (hence a test binary of its own). The store
//! calls `ObjectMapper::chunk_at` for every chunk it reads or writes, and
//! `row_disks` draws a whole row, so on the paper's code widths neither
//! may touch the heap.

use mlec_topology::objectmap::{MapperCode, ObjectMapper};
use mlec_topology::{Geometry, MlecScheme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps the test
    /// harness's own allocations out of the reading.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and, const-initialised without a destructor, never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc`,
        // i.e. from `System`, and are passed through as received.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn chunk_at_on_a_declustered_mapper_allocates_nothing() {
    // D/D draws both the network racks and the local disks with the
    // keyed Fisher–Yates prefix.
    let mapper = ObjectMapper::new(
        Geometry::paper_default(),
        MapperCode::paper_default(),
        MlecScheme::DD,
        128_000,
        0xfeed,
    );
    let code = MapperCode::paper_default();
    let before = ALLOCS.with(Cell::get);
    let mut disks = 0u64;
    for stripe in 0..64 {
        for row in 0..code.network_width() {
            for col in 0..code.local_width() {
                disks += u64::from(mapper.chunk_at(stripe, row, col).disk);
            }
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(disks > 0);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over 64 stripes of chunk_at"
    );
}

#[test]
fn row_disks_on_a_declustered_mapper_allocates_nothing() {
    let mapper = ObjectMapper::new(
        Geometry::paper_default(),
        MapperCode::paper_default(),
        MlecScheme::DD,
        128_000,
        0xfeed,
    );
    let code = MapperCode::paper_default();
    let before = ALLOCS.with(Cell::get);
    let mut disks = 0u64;
    for stripe in 0..64 {
        for row in 0..code.network_width() {
            disks += mapper.row_disks(stripe, row).map(u64::from).sum::<u64>();
            disks += u64::from(mapper.rack_of_row(stripe, row));
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(disks > 0);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over 64 stripes of row_disks"
    );
}
