//! Peak live heap of one whole-datacenter mission, counted by a
//! `#[global_allocator]` (hence a test binary of its own). A figure runs
//! its independent system campaigns side by side, so every worker holds a
//! mission at once: a mission's pool table is what grows with the thread
//! budget, and these ceilings keep it lean.

use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::system_sim::{simulate_system_opts, SystemSimOptions};
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed, and the most it has
    /// held at once since the last reset. Counting per thread keeps the
    /// test harness's own allocations out of the reading.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and, const-initialised without a destructor, never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as i64);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc`,
        // i.e. from `System`, and are passed through as received.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap above the starting level while one paper-scale mission runs
/// at an AFR inflated so that every pool is touched, in KiB.
fn mission_peak_kib(scheme: MlecScheme, method: RepairMethod) -> f64 {
    let afr = 0.75;
    let mut dep = MlecDeployment::paper_default(scheme);
    dep.config.afr = afr;
    let model = FailureModel::Exponential { afr };
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let result = simulate_system_opts(&dep, &model, method, 2.0, 1, SystemSimOptions::default());
    assert!(
        result.catastrophic_pools > 0,
        "{scheme}: the mission must see catastrophes"
    );
    (PEAK.with(Cell::get) - base) as f64 / 1024.0
}

#[test]
fn a_paper_scale_mission_holds_only_its_pool_states() {
    for method in [RepairMethod::All, RepairMethod::Hyb] {
        for (scheme, ceiling_kib) in [
            (MlecScheme::CC, 140.0),
            (MlecScheme::DC, 140.0),
            (MlecScheme::CD, 150.0),
            (MlecScheme::DD, 150.0),
        ] {
            let peak = mission_peak_kib(scheme, method);
            println!("{scheme} {}: peak {peak:.1} KiB", method.name());
            assert!(
                peak <= ceiling_kib,
                "{scheme} {}: peak live heap {peak:.1} KiB > {ceiling_kib} KiB",
                method.name()
            );
        }
    }
}
