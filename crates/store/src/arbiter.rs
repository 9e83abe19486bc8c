//! The sharded bandwidth arbiter: virtual-time token accounting for disks
//! and rack uplinks, partitioned into per-rack clock domains.
//!
//! Foreground serving and online repair compete for the *same* physical
//! resources, parameterized exactly like the system simulator
//! ([`mlec_sim::SimConfig`]): per-disk raw bandwidth (§3: 200 MB/s), per-rack
//! cross-rack bandwidth (10 Gbps), and the repair throttle fraction (20%).
//! Each disk and each rack uplink is modeled as a FIFO server with a
//! `busy_until` clock in virtual microseconds; a transfer reserves
//! `seek + bytes/rate` on the device starting at
//! `max(now, busy_until)`. Repair transfers use the same clocks — that is
//! the point: a foreground read landing behind a rebuild read waits, which
//! is where rebuild-phase tail latency comes from. The repair *throttle*
//! (20% duty cycle) is enforced by the repair scheduler pacing its
//! streams, not by a second set of clocks, mirroring the paper's
//! "repair traffic capped at 20%" semantics.
//!
//! The state is split along rack boundaries: every disk clock and the
//! uplink clock of rack `r` live together in one `RackClock` domain, and
//! nothing else. A charge against rack `r` reads and writes only domain
//! `r`, so charges against distinct racks commute — the invariant the
//! epoch-sharded apply in [`crate::epoch`] is built on. Every store path,
//! serial or sharded, charges a domain it borrowed through
//! `ShardedArbiter::split`; the store's chunk path pairs each domain with
//! its rack's lane.
//!
//! All arithmetic on the virtual clocks is integer/deterministic: virtual
//! time is a pure function of the op trace, never of the machine running
//! it. The repair pacing gap in particular is exact integer rational
//! arithmetic over the throttle fraction — no float rounding in a path
//! that feeds back into stream schedules.

use mlec_sim::SimConfig;
use mlec_topology::{DiskId, Geometry, RackId};
use mlec_units::Bandwidth;
use std::collections::BTreeMap;

/// Who is asking for bandwidth (accounting only; both lanes share clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Client-facing put/get/delete traffic.
    Foreground,
    /// Rebuild reads/writes issued by the repair scheduler.
    Repair,
}

/// The immutable rate environment every clock domain shares: transfer
/// rates, seek cost, and the repair throttle as an exact rational.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RateCard {
    /// Disk throughput; MB/s is numerically bytes per virtual microsecond.
    disk_rate: Bandwidth,
    /// Rack uplink throughput.
    rack_rate: Bandwidth,
    /// Fixed per-I/O positioning cost on a disk, µs.
    seek_us: u64,
    /// Repair throttle fraction as a reduced rational `num/den`.
    repair_num: u64,
    repair_den: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

impl RateCard {
    /// Rates from the §3 bandwidth parameters plus a per-I/O seek cost.
    fn new(sim: &SimConfig, seek_us: u64) -> RateCard {
        // The throttle fraction arrives as an f64 config knob; snap it to
        // a rational with a fixed 1e9 denominator once, here, so every
        // downstream pacing computation is exact integer arithmetic.
        let num = (sim.repair_fraction.clamp(0.0, 1.0) * 1e9).round() as u64;
        let den = 1_000_000_000u64;
        let g = gcd(num, den);
        RateCard {
            disk_rate: Bandwidth::from_mbs(sim.disk_bw_mbs),
            rack_rate: Bandwidth::from_gbps(sim.rack_net_gbps),
            seek_us,
            repair_num: num / g,
            repair_den: den / g,
        }
    }

    /// Duration of one disk I/O of `bytes`, µs (seek + transfer).
    fn disk_io_us(&self, bytes: usize) -> u64 {
        self.seek_us + (bytes as f64 / self.disk_rate.bytes_per_us()).ceil() as u64
    }

    /// Duration of one uplink transfer of `bytes`, µs.
    fn rack_xfer_us(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.rack_rate.bytes_per_us()).ceil() as u64
    }

    /// Pacing gap the repair scheduler must leave idle after occupying a
    /// device for `busy_us`, so repair consumes at most its throttle
    /// fraction `f = num/den` of the device: `ceil(busy * (den-num)/num)`,
    /// the exact integer form of `busy * (1/f - 1)`.
    fn repair_pacing_gap_us(&self, busy_us: u64) -> u64 {
        if self.repair_num >= self.repair_den {
            return 0;
        }
        if self.repair_num == 0 {
            // A zero throttle admits no repair bandwidth at all: the
            // stream never becomes free again.
            return u64::MAX;
        }
        let idle = u128::from(busy_us) * u128::from(self.repair_den - self.repair_num);
        let gap = idle.div_ceil(u128::from(self.repair_num));
        u64::try_from(gap).unwrap_or(u64::MAX)
    }
}

/// One rack's clock domain: the uplink clock, the clocks of every disk in
/// the rack, and the lane totals those devices accumulated. All mutation
/// of `busy_until` state in the store goes through this type, and each
/// instance is owned by exactly one shard during an epoch — which is why
/// charges against different racks can run on different threads and still
/// produce bit-identical virtual time.
#[derive(Debug, Default)]
pub(crate) struct RackClock {
    uplink_busy_until: u64,
    disk_busy_until: BTreeMap<DiskId, u64>,
    foreground_ios: u64,
    repair_ios: u64,
    foreground_bytes: u64,
    repair_bytes: u64,
}

impl RackClock {
    /// Reserve a disk I/O starting no earlier than `now`; returns the
    /// completion time. The disk is busy until then.
    pub(crate) fn disk_io(
        &mut self,
        rates: &RateCard,
        disk: DiskId,
        bytes: usize,
        now: u64,
        lane: Lane,
    ) -> u64 {
        let free = self.disk_busy_until.get(&disk).copied().unwrap_or(0);
        let start = free.max(now);
        let end = start + rates.disk_io_us(bytes);
        self.disk_busy_until.insert(disk, end);
        match lane {
            Lane::Foreground => {
                self.foreground_ios += 1;
                self.foreground_bytes += bytes as u64;
            }
            Lane::Repair => {
                self.repair_ios += 1;
                self.repair_bytes += bytes as u64;
            }
        }
        end
    }

    /// Reserve a cross-rack transfer of `bytes` on this rack's uplink
    /// starting no earlier than `now`; returns the completion time.
    pub(crate) fn rack_xfer(&mut self, rates: &RateCard, bytes: usize, now: u64) -> u64 {
        let start = self.uplink_busy_until.max(now);
        let end = start + rates.rack_xfer_us(bytes);
        self.uplink_busy_until = end;
        end
    }
}

/// Per-device virtual-time bandwidth accounting, sharded by rack: one
/// clock domain per rack over a shared rate card. The store charges the
/// domains it borrows through `split`; [`ShardedArbiter::disk_io`] charges
/// one disk directly (a standalone arbiter, as the benchmark measures it),
/// and the lane totals sum every domain.
#[derive(Debug)]
pub struct ShardedArbiter {
    rates: RateCard,
    disks_per_rack: u32,
    clocks: Vec<RackClock>,
}

impl ShardedArbiter {
    /// Arbiter over `geometry`'s racks with the §3 bandwidth parameters
    /// plus a per-I/O seek cost.
    pub fn new(geometry: &Geometry, sim: &SimConfig, seek_us: u64) -> ShardedArbiter {
        ShardedArbiter {
            rates: RateCard::new(sim, seek_us),
            disks_per_rack: geometry.disks_per_rack().max(1),
            clocks: (0..geometry.racks.max(1))
                .map(|_| RackClock::default())
                .collect(),
        }
    }

    /// The rack whose clock domain owns `disk`.
    fn rack_of(&self, disk: DiskId) -> RackId {
        (disk / self.disks_per_rack).min(self.clocks.len() as u32 - 1)
    }

    /// Number of rack clock domains.
    pub(crate) fn racks(&self) -> usize {
        self.clocks.len()
    }

    /// Split into the shared rates and the per-rack clock domains: the
    /// store borrows one domain per rack context, and the epoch executor
    /// hands disjoint `&mut RackClock`s to its shards.
    pub(crate) fn split(&mut self) -> (&RateCard, &mut [RackClock]) {
        (&self.rates, &mut self.clocks)
    }

    /// Reserve a disk I/O starting no earlier than `now`; returns the
    /// completion time. The disk is busy until then.
    pub fn disk_io(&mut self, disk: DiskId, bytes: usize, now: u64, lane: Lane) -> u64 {
        let rack = self.rack_of(disk) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "`rack_of` maps any disk id into `0..racks`, the clock-shard count."
        )]
        self.clocks[rack].disk_io(&self.rates, disk, bytes, now, lane)
    }

    /// Exact integer pacing gap for a repair that occupied a device for
    /// `busy_us` (see `RateCard::repair_pacing_gap_us`).
    pub(crate) fn repair_pacing_gap_us(&self, busy_us: u64) -> u64 {
        self.rates.repair_pacing_gap_us(busy_us)
    }

    /// `(ios, bytes)` moved by the foreground lane, over all racks.
    pub fn foreground_totals(&self) -> (u64, u64) {
        self.clocks.iter().fold((0, 0), |(i, b), c| {
            (i + c.foreground_ios, b + c.foreground_bytes)
        })
    }

    /// `(ios, bytes)` moved by the repair lane, over all racks.
    pub fn repair_totals(&self) -> (u64, u64) {
        self.clocks
            .iter()
            .fold((0, 0), |(i, b), c| (i + c.repair_ios, b + c.repair_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arbiter() -> ShardedArbiter {
        ShardedArbiter::new(&Geometry::small_test(), &SimConfig::paper_default(), 400)
    }

    #[test]
    fn disk_fifo_queues_back_to_back() {
        let mut a = arbiter();
        // 200 MB/s: a 4 KiB transfer is ceil(4096/200) = 21 µs + 400 seek.
        let end1 = a.disk_io(3, 4096, 1_000, Lane::Foreground);
        assert_eq!(end1, 1_000 + 400 + 21);
        // Second I/O on the same disk queues behind the first.
        let end2 = a.disk_io(3, 4096, 1_000, Lane::Foreground);
        assert_eq!(end2, end1 + 421);
        // A different disk is idle.
        let end3 = a.disk_io(4, 4096, 1_000, Lane::Repair);
        assert_eq!(end3, 1_421);
        assert_eq!(a.foreground_totals(), (2, 8192));
        assert_eq!(a.repair_totals(), (1, 4096));
    }

    #[test]
    fn rack_uplink_shares_one_clock() {
        let mut a = arbiter();
        let (rates, clocks) = a.split();
        // 10 Gbps = 1250 bytes/µs: 125_000 bytes take 100 µs.
        let end1 = clocks[0].rack_xfer(rates, 125_000, 0);
        assert_eq!(end1, 100);
        let end2 = clocks[0].rack_xfer(rates, 125_000, 0);
        assert_eq!(end2, 200);
    }

    #[test]
    fn repair_pacing_enforces_duty_cycle() {
        let a = arbiter();
        // 20% fraction: 100 µs busy needs 400 µs idle.
        assert_eq!(a.repair_pacing_gap_us(100), 400);
    }

    #[test]
    fn idle_device_starts_at_now() {
        let mut a = arbiter();
        let end = a.disk_io(7, 0, 5_000, Lane::Foreground);
        assert_eq!(end, 5_400); // seek only
    }

    #[test]
    fn disks_of_different_racks_live_in_different_domains() {
        let mut a = arbiter();
        let per_rack = Geometry::small_test().disks_per_rack();
        // Same-rack disks share totals through one domain; a disk in the
        // next rack must not see the first rack's uplink queueing.
        let (rates, clocks) = a.split();
        clocks[0].rack_xfer(rates, 1_250_000, 0); // rack 0 uplink busy until 1000
        assert_eq!(clocks[1].rack_xfer(rates, 1_250, 0), 1); // rack 1 idle
        assert_eq!(a.rack_of(0), 0);
        assert_eq!(a.rack_of(per_rack), 1);
        assert_eq!(a.racks(), Geometry::small_test().racks as usize);
    }

    #[test]
    fn pacing_gap_is_exact_rational_arithmetic() {
        // The paper's default throttle: f = 0.2 = 1/5 exactly.
        let sim = SimConfig::paper_default();
        let rates = RateCard::new(&sim, 400);
        assert_eq!((rates.repair_num, rates.repair_den), (1, 5));
        assert_eq!(rates.repair_pacing_gap_us(100), 400);
        assert_eq!(rates.repair_pacing_gap_us(1), 4);
        assert_eq!(rates.repair_pacing_gap_us(0), 0);
        // f = 0.3 → 3/10: gap(100) = ceil(100 * 7/3) = 234. The old f64
        // path computed 233.333…; any rounding drift here would shift
        // every later repair start time in the trace.
        let mut sim3 = sim;
        sim3.repair_fraction = 0.3;
        let rates3 = RateCard::new(&sim3, 400);
        assert_eq!((rates3.repair_num, rates3.repair_den), (3, 10));
        assert_eq!(rates3.repair_pacing_gap_us(100), 234);
        assert_eq!(rates3.repair_pacing_gap_us(3), 7);
        // f = 0.25 → 1/4: gap is exactly 3× busy.
        let mut sim4 = sim;
        sim4.repair_fraction = 0.25;
        assert_eq!(RateCard::new(&sim4, 400).repair_pacing_gap_us(100), 300);
        // Degenerate fractions: no throttle, and a total throttle.
        let mut sim_one = sim;
        sim_one.repair_fraction = 1.0;
        assert_eq!(RateCard::new(&sim_one, 400).repair_pacing_gap_us(100), 0);
        let mut sim_zero = sim;
        sim_zero.repair_fraction = 0.0;
        assert_eq!(
            RateCard::new(&sim_zero, 400).repair_pacing_gap_us(100),
            u64::MAX
        );
        // Huge busy spans must not overflow: the u128 intermediate keeps
        // the ceiling exact right up to the u64 saturation point.
        assert_eq!(rates.repair_pacing_gap_us(u64::MAX / 8), u64::MAX / 8 * 4);
    }
}
