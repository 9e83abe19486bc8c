//! Allocation counts of the two-level codec, through a counting
//! `#[global_allocator]` (hence a test binary of its own): `encode` makes
//! exactly one chunk-sized allocation per chunk of the grid, `encode_into`
//! into a grid that already holds a stripe makes none, `reconstruct` makes
//! one per missing chunk and `read_degraded` one for the chunk it returns.
//! A count repeats exactly, so it can gate where a timing cannot.

use mlec_ec::mlec::MlecStripe;
use mlec_ec::MlecCodec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Larger than every bookkeeping `Vec` of an encode (slice lists, grid
/// rows), so only chunk buffers count; scaled down for Miri's interpreter.
const CHUNK_BYTES: usize = if cfg!(miri) { 1024 } else { 24 * 1024 };

/// Allocations (and growing reallocations) of at least one chunk. A plain
/// statistic: `Relaxed` publishes nothing else.
static CHUNK_SIZED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= CHUNK_BYTES {
            CHUNK_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= CHUNK_BYTES {
            CHUNK_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc*`,
        // i.e. from `System`, and are passed through as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= CHUNK_BYTES {
            CHUNK_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Chunk-sized allocations `body` performs. The binary holds one test, so no
/// other thread allocates meanwhile.
fn chunk_sized_allocations(body: impl FnOnce()) -> usize {
    let before = CHUNK_SIZED.load(Ordering::Relaxed);
    body();
    CHUNK_SIZED.load(Ordering::Relaxed) - before
}

#[test]
fn encode_allocates_one_chunk_per_chunk_and_encode_into_reuses_them() {
    let (kn, pn, kl, pl) = (3, 2, 4, 2);
    let codec = MlecCodec::new(kn, pn, kl, pl).unwrap();
    let stripes: Vec<Vec<Vec<u8>>> = (0..2u8)
        .map(|s| {
            (0..kn * kl)
                .map(|c| (0..CHUNK_BYTES).map(|i| (i * 7 + c) as u8 ^ s).collect())
                .collect()
        })
        .collect();

    let mut grid = MlecStripe::new();
    let fresh = chunk_sized_allocations(|| grid = codec.encode(&stripes[0]).unwrap());
    assert_eq!(fresh, (kn + pn) * (kl + pl), "encode: one per chunk");

    let warmed = chunk_sized_allocations(|| codec.encode_into(&stripes[1], &mut grid).unwrap());
    assert_eq!(warmed, 0, "encode_into a grid that holds a stripe");
    assert_eq!(grid, codec.encode(&stripes[1]).unwrap());

    // A grid one row and one column short grows by exactly what is missing.
    grid.pop();
    grid.iter_mut().for_each(|row| row.truncate(kl + pl - 1));
    let regrown = chunk_sized_allocations(|| codec.encode_into(&stripes[0], &mut grid).unwrap());
    assert_eq!(regrown, (kl + pl) + (kn + pn - 1));
    assert_eq!(grid, codec.encode(&stripes[0]).unwrap());

    // Row 1 is lost (four of six chunks) but kept its local parity (1, 5);
    // row 3 lost one chunk. Decoding allocates each missing chunk once, and
    // reading the lost row's parity chunk (1, 4) down its column allocates
    // only that chunk.
    let mut damaged: Vec<Vec<Option<Vec<u8>>>> = grid
        .iter()
        .map(|row| row.iter().cloned().map(Some).collect())
        .collect();
    let lost = [(1, 0), (1, 1), (1, 2), (1, 4), (3, 1)];
    for (j, i) in lost {
        damaged[j][i] = None;
    }
    let mut read = Vec::new();
    let one = chunk_sized_allocations(|| read = codec.read_degraded(&damaged, 1, 4).unwrap().0);
    assert_eq!(one, 1, "read_degraded of a lost row's parity chunk");
    assert_eq!(read, grid[1][4]);
    let decoded = chunk_sized_allocations(|| {
        codec.reconstruct(&mut damaged).unwrap();
    });
    assert_eq!(decoded, lost.len(), "reconstruct: one per missing chunk");
    let repaired: Vec<Vec<Vec<u8>>> = damaged
        .into_iter()
        .map(|row| row.into_iter().map(Option::unwrap).collect())
        .collect();
    assert_eq!(repaired, grid);
}
