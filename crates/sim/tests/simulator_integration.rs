//! Integration tests across the simulator's modules: failure models driving
//! the pool and system simulators, repair planning consistency, and
//! determinism guarantees.

use mlec_runner::{SeedStream, SplitMix64};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::pool_sim::simulate_pool;
use mlec_sim::repair::{inject_catastrophic, plan_catastrophic_repair, RepairMethod};
use mlec_sim::system_sim::{simulate_system_opts, simulate_system_trace, SystemSimOptions};
use mlec_sim::trace::{synthesize, FailureTrace, TraceSpec};
use mlec_topology::{Geometry, MlecScheme};

fn paper(scheme: MlecScheme) -> MlecDeployment {
    MlecDeployment::paper_default(scheme)
}

#[test]
fn repair_plans_are_internally_consistent() {
    for scheme in MlecScheme::ALL {
        let dep = paper(scheme);
        let injected = inject_catastrophic(&dep);
        for method in RepairMethod::EXTENDED {
            let plan = plan_catastrophic_repair(&dep, method);
            // Traffic = wire volume * (k_n + 1); full-wire strategies (the
            // paper four and R_LAYER) ship every network byte, piggybacked
            // schedules ship less.
            let full_wire = plan.network_volume_tb * 11.0;
            if method == RepairMethod::Piggy {
                assert!(plan.cross_rack_traffic_tb < full_wire, "{scheme} {method}");
            } else {
                assert!(
                    (plan.cross_rack_traffic_tb - full_wire).abs() < 1e-6,
                    "{scheme} {method}"
                );
            }
            // Network volume never exceeds R_ALL's whole pool.
            assert!(plan.network_volume_tb <= dep.local_pools().pool_capacity_tb() + 1e-9);
            // Chunk-level methods never move more than the failed bytes over
            // the network.
            if method != RepairMethod::All {
                assert!(plan.network_volume_tb <= injected.failed_volume.to_tb() + 1e-9);
            }
            // Times are non-negative and network time includes detection.
            assert!(plan.network_time_h >= dep.config.detection_hours);
            assert!(plan.local_time_h >= 0.0);
        }
    }
}

#[test]
fn method_traffic_ordering_all_schemes() {
    for scheme in MlecScheme::ALL {
        let dep = paper(scheme);
        let traffic: Vec<f64> = RepairMethod::PAPER
            .iter()
            .map(|&m| plan_catastrophic_repair(&dep, m).cross_rack_traffic_tb)
            .collect();
        // R_ALL >= R_FCO >= R_HYB >= R_MIN.
        for pair in traffic.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9, "{scheme}: {traffic:?}");
        }
        // The beyond-the-paper strategies land inside the same envelope.
        for method in [RepairMethod::Layer, RepairMethod::Piggy] {
            let t = plan_catastrophic_repair(&dep, method).cross_rack_traffic_tb;
            assert!(
                t < traffic[0] && t >= traffic[3] - 1e-9,
                "{scheme} {method}: {t}"
            );
        }
    }
}

#[test]
fn trace_and_exponential_paths_agree_statistically() {
    // A synthesized pure-background trace at AFR a should produce the same
    // catastrophic-pool count distribution as the exponential model.
    let dep = paper(MlecScheme::CC);
    let g = Geometry::paper_default();
    let afr = 1.5;
    let years = 4.0;
    let mut exp_cat = 0u64;
    let mut trace_cat = 0u64;
    for seed in 0..6u64 {
        let model = FailureModel::Exponential { afr };
        let opts = SystemSimOptions::default();
        exp_cat += simulate_system_opts(&dep, &model, RepairMethod::Fco, years, seed, opts)
            .catastrophic_pools;
        let trace = synthesize(
            &g,
            &TraceSpec {
                background_afr: afr,
                bursts_per_year: 0.0,
                burst_size: 1,
                burst_racks: 1,
                years,
            },
            seed,
        )
        .unwrap();
        trace_cat +=
            simulate_system_trace(&dep, &trace, RepairMethod::Fco, seed).catastrophic_pools;
    }
    assert!(exp_cat > 10, "need events: exp={exp_cat}");
    let ratio = trace_cat as f64 / exp_cat as f64;
    assert!(
        (0.4..2.5).contains(&ratio),
        "exp={exp_cat} trace={trace_cat}"
    );
}

#[test]
fn pool_sim_scales_linearly_with_years() {
    // Twice the simulated span, roughly twice the failures.
    let dep = paper(MlecScheme::CC);
    let model = FailureModel::Exponential { afr: 1.0 };
    let short = simulate_pool(&dep, &model, 100.0, 42);
    let long = simulate_pool(&dep, &model, 200.0, 43);
    let ratio = long.disk_failures as f64 / short.disk_failures.max(1) as f64;
    assert!((1.6..2.4).contains(&ratio), "ratio={ratio}");
}

/// One RNG per (property, case), derived exactly like runner trial seeds.
fn case_rng(property: &str, case: u64) -> SplitMix64 {
    SplitMix64::new(SeedStream::new(0x51417E5, property).trial_seed(case))
}

/// System simulation is reproducible for any seed/scheme combination.
#[test]
fn system_sim_deterministic() {
    for case in 0..16u64 {
        let mut r = case_rng("system-deterministic", case);
        let seed = r.next_u64();
        let scheme = MlecScheme::ALL[(r.next_u64() % 4) as usize];
        let dep = paper(scheme);
        let model = FailureModel::Exponential { afr: 0.8 };
        let opts = SystemSimOptions::default();
        let a = simulate_system_opts(&dep, &model, RepairMethod::Hyb, 1.0, seed, opts);
        let b = simulate_system_opts(&dep, &model, RepairMethod::Hyb, 1.0, seed, opts);
        assert_eq!(a, b);
    }
}

/// Traces round-trip through CSV regardless of content.
#[test]
fn trace_csv_roundtrip() {
    for case in 0..16u64 {
        let mut r = case_rng("trace-csv", case);
        let n = (r.next_u64() % 50) as usize;
        let events: Vec<mlec_sim::trace::TraceEvent> = (0..n)
            .map(|_| mlec_sim::trace::TraceEvent {
                time_h: r.next_f64() * 1e5,
                disk: (r.next_u64() % 57_600) as u32,
            })
            .collect();
        let trace = FailureTrace::new(events);
        let parsed = FailureTrace::from_csv(&trace.to_csv()).unwrap();
        assert_eq!(parsed, trace);
    }
}

/// Catastrophic injection census is conserved: lost chunk volume never
/// exceeds the failed volume, lost stripes never exceed the pool.
#[test]
fn injection_census_bounds() {
    for scheme in MlecScheme::ALL {
        let dep = paper(scheme);
        let injected = inject_catastrophic(&dep);
        assert!(injected.lost_chunk_volume.to_tb() <= injected.failed_volume.to_tb() + 1e-9);
        assert!(injected.lost_stripes <= injected.total_stripes);
        assert!(injected.lost_stripes > 0.0);
    }
}
