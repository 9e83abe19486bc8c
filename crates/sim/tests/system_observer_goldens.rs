//! Fixed-seed, bit-exact goldens for the system simulator's event order.
//!
//! The `golden_*` tests in `system_sim.rs` pin each mission's totals; these
//! pin the sequence of events behind them. Every [`SimObserver`] callback
//! of `simulate_system_observed` is folded into one FNV-1a hash: its kind,
//! the `f64::to_bits` of every time and float argument, and its integer
//! arguments, in callback order. A change to which event the loop handles
//! next — a completion against an arrival at the same time, two completions
//! that tie, the stop at the horizon, the order of the censored intervals —
//! flips the hash even when every total stays the same.
//!
//! Each configuration is chosen to reach those rules, and the test checks
//! that it does: at least two network repairs are in flight at once, and at
//! least one repair is still in flight when the mission ends, so its
//! interval is reported censored at the horizon.

use mlec_ec::MlecParams;
use mlec_runner::seed_stream::fnv1a;
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::kernel::SimObserver;
use mlec_sim::system_sim::{simulate_system_observed, SystemSimOptions};
use mlec_sim::{RepairMethod, SimConfig};
use mlec_topology::{Geometry, MlecScheme};

/// Records every callback as bytes, and the in-flight network repairs.
#[derive(Default)]
struct EventLog {
    bytes: Vec<u8>,
    in_flight: u32,
    max_in_flight: u32,
    completions: u64,
    intervals: u64,
}

impl EventLog {
    fn push(&mut self, kind: u8, floats: &[f64], ints: &[u32]) {
        self.bytes.push(kind);
        for f in floats {
            self.bytes.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        for i in ints {
            self.bytes.extend_from_slice(&i.to_le_bytes());
        }
    }
}

impl SimObserver for EventLog {
    fn on_disk_failure(&mut self, time_h: f64, concurrent: u32) {
        self.push(0, &[time_h], &[concurrent]);
    }

    fn on_repair(&mut self, time_h: f64, concurrent: u32) {
        self.push(1, &[time_h], &[concurrent]);
        self.in_flight -= 1;
        self.completions += 1;
    }

    fn on_catastrophe(&mut self, time_h: f64, concurrent: u32, lost_stripes: f64, weight: f64) {
        self.push(2, &[time_h, lost_stripes, weight], &[concurrent]);
        self.in_flight += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight);
    }

    fn on_data_loss(&mut self, time_h: f64) {
        self.push(3, &[time_h], &[]);
    }

    fn on_degraded_interval(&mut self, from_h: f64, to_h: f64, failed_disks: u32) {
        self.push(4, &[from_h, to_h], &[failed_disks]);
        self.intervals += 1;
    }
}

/// The 144-disk (2+1)/(3+1) deployment of `system_sim.rs`'s goldens.
fn small_dep(scheme: MlecScheme) -> MlecDeployment {
    MlecDeployment {
        geometry: Geometry::small_test(),
        params: MlecParams::new(2, 1, 3, 1),
        scheme,
        config: SimConfig::paper_default(),
    }
}

/// Run one observed mission and check it reaches the rules the hash pins.
/// Returns `(callbacks bytes, FNV-1a of them)`.
fn observed(
    dep: &MlecDeployment,
    afr: f64,
    method: RepairMethod,
    years: f64,
    seed: u64,
) -> (usize, u64) {
    let mut log = EventLog::default();
    let model = FailureModel::Exponential { afr };
    let opts = SystemSimOptions::default();
    let r = simulate_system_observed(dep, &model, method, years, seed, opts, &mut log);
    assert_eq!(
        log.completions + u64::from(log.in_flight),
        r.catastrophic_pools
    );
    assert!(log.max_in_flight >= 2, "seed {seed}: {}", log.max_in_flight);
    let censored = log.intervals - log.completions;
    assert!(censored >= 1, "seed {seed}: nothing in flight at the end");
    assert_eq!(censored, u64::from(log.in_flight));
    (log.bytes.len(), fnv1a(&log.bytes))
}

#[test]
fn golden_small_system_event_order() {
    // The AFR-20 `small_dep(DC)` golden configuration of `system_sim.rs`.
    let expect = [
        (0u64, 444_315usize, 0xd4be_86f3_c899_32d8u64),
        (1, 446_607, 0x5297_cd39_feca_0e85),
    ];
    for (seed, len, hash) in expect {
        let got = observed(
            &small_dep(MlecScheme::DC),
            20.0,
            RepairMethod::All,
            4.0,
            seed,
        );
        assert_eq!(got, (len, hash), "seed {seed}");
    }
}

#[test]
fn golden_paper_scale_event_order() {
    let dep = MlecDeployment::paper_default(MlecScheme::CC);
    let got = observed(&dep, 0.75, RepairMethod::All, 1.0, 0);
    assert_eq!(got, (564_187, 0xbe9b_b8d6_9803_7a49));
}
