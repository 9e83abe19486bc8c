//! Property tests for the repair-strategy layer: every strategy, over a
//! seeded sweep of deployment shapes and physically injected failure
//! censuses, stays inside the `R_ALL`/`R_MIN` cross-rack traffic envelope and
//! conserves the failed volume across its network/local split.
//!
//! Censuses are always produced by [`inject_catastrophic`] — the paper's
//! `f = p_l + 1` worst-case admission — because the strategies' envelope
//! guarantees are stated for physical censuses (e.g. `R_PIGGY`'s sub-stripe
//! schedule ships `gamma = (f + 1) / 2f >= 1/f` of each lost chunk only
//! when `f` is the catastrophic threshold), not for arbitrary synthetic
//! failure counts.

use mlec_runner::{SeedStream, SplitMix64};
use mlec_sim::config::{MlecDeployment, SimConfig};
use mlec_sim::repair::{inject_catastrophic, RepairMethod};
use mlec_topology::{Geometry, MlecScheme};

/// Deployment shapes swept: paper-scale and small-test geometries with
/// local widths that tile their enclosures and network widths that fit
/// their rack counts.
fn sweep_shapes() -> Vec<(Geometry, mlec_ec::MlecParams)> {
    let paper = Geometry::paper_default();
    let small = Geometry::small_test();
    vec![
        (paper, mlec_ec::MlecParams::paper_default()),
        (paper, mlec_ec::MlecParams::new(4, 2, 5, 1)),
        (paper, mlec_ec::MlecParams::new(8, 2, 9, 3)),
        (paper, mlec_ec::MlecParams::new(10, 2, 3, 1)),
        (small, mlec_ec::MlecParams::new(2, 1, 3, 1)),
        (small, mlec_ec::MlecParams::new(4, 2, 4, 2)),
        (small, mlec_ec::MlecParams::new(3, 1, 10, 2)),
    ]
}

/// Seeded environment perturbations: bandwidths, detection delay, disk
/// capacity, and chunk size all vary so the envelope holds as a property of
/// the strategy algebra, not of the paper constants.
fn perturb(geometry: &mut Geometry, config: &mut SimConfig, rng: &mut SplitMix64) {
    config.disk_bw_mbs = 50.0 + rng.next_f64() * 400.0;
    config.rack_net_gbps = 1.0 + rng.next_f64() * 40.0;
    config.repair_fraction = 0.05 + rng.next_f64() * 0.5;
    config.detection_hours = rng.next_f64() * 4.0;
    geometry.disk_capacity_tb = 4.0 + rng.next_f64() * 28.0;
    geometry.chunk_kb = [64.0, 128.0, 1024.0][(rng.next_u64() % 3) as usize];
}

#[test]
fn strategies_stay_inside_traffic_envelope_and_conserve_volume() {
    for (case, (base_geometry, params)) in sweep_shapes().into_iter().enumerate() {
        let mut rng = SplitMix64::new(
            SeedStream::new(0x57A7E6, "strategy-properties").trial_seed(case as u64),
        );
        for variant in 0..8u64 {
            let mut geometry = base_geometry;
            let mut config = SimConfig::paper_default();
            if variant > 0 {
                perturb(&mut geometry, &mut config, &mut rng);
            }
            for scheme in MlecScheme::ALL {
                let dep = MlecDeployment {
                    geometry,
                    params,
                    scheme,
                    config,
                };
                let injected = inject_catastrophic(&dep);
                let ctx = format!("case {case} variant {variant} {scheme} {params:?}");

                let all = RepairMethod::All.plan(&dep, &injected);
                let min = RepairMethod::Min.plan(&dep, &injected);
                for method in RepairMethod::EXTENDED {
                    let plan = method.plan(&dep, &injected);

                    // Every field is finite and non-negative (up to the
                    // census's float noise, ~1e-15 of the failed volume);
                    // the network stage always pays the detection delay.
                    let noise = 1e-9 * injected.failed_volume.to_tb().max(1.0);
                    for (name, v) in [
                        ("network_volume_tb", plan.network_volume_tb),
                        ("local_volume_tb", plan.local_volume_tb),
                        ("cross_rack_traffic_tb", plan.cross_rack_traffic_tb),
                        ("local_read_extra_tb", plan.local_read_extra_tb),
                        ("local_time_h", plan.local_time_h),
                    ] {
                        assert!(v.is_finite() && v >= -noise, "{ctx} {method}: {name}={v}");
                    }
                    assert!(
                        plan.network_time_h >= dep.config.detection_hours,
                        "{ctx} {method}"
                    );

                    // Cross-rack traffic bounded by R_ALL above, R_MIN below.
                    assert!(
                        plan.cross_rack_traffic_tb <= all.cross_rack_traffic_tb + 1e-9,
                        "{ctx} {method}: traffic {} above R_ALL {}",
                        plan.cross_rack_traffic_tb,
                        all.cross_rack_traffic_tb
                    );
                    assert!(
                        plan.cross_rack_traffic_tb >= min.cross_rack_traffic_tb - 1e-9,
                        "{ctx} {method}: traffic {} below R_MIN {}",
                        plan.cross_rack_traffic_tb,
                        min.cross_rack_traffic_tb
                    );

                    // Chunk-aware strategies repair exactly the failed bytes:
                    // the network/local split conserves the injected volume.
                    if method.has_chunk_knowledge() {
                        let total = plan.network_volume_tb + plan.local_volume_tb;
                        assert!(
                            (total - injected.failed_volume.to_tb()).abs()
                                <= 1e-9 * injected.failed_volume.to_tb().max(1.0),
                            "{ctx} {method}: network {} + local {} != failed {}",
                            plan.network_volume_tb,
                            plan.local_volume_tb,
                            injected.failed_volume.to_tb()
                        );
                    }
                }
            }
        }
    }
}

/// Regression pin for the staged `T_s = volume / bandwidth` accounting on
/// the paper's C/C deployment (Table 2 bandwidths, Fig 6 times). The
/// hand-derived values:
///
/// - `R_ALL`: the whole 400 TB pool crosses racks; at the 250 MB/s
///   (= 0.9 TB/h) catastrophic bandwidth that is 0.5 h detection +
///   400/0.9 h ≈ 444.94 h, with no local phase.
/// - `R_LAYER`: stage 1 aggregates 20 TB over the network
///   (0.5 + 20/0.9 ≈ 22.72 h), then rebuilds the remaining 60 TB locally
///   at 120 MB/s (= 0.432 TB/h): 60/0.432 ≈ 138.89 h.
///
/// Both times must also equal the typed `Volume / Bandwidth` quotient
/// exactly — the plan's escape-hatch fields and the mlec-units algebra
/// are the same arithmetic.
#[test]
fn staged_time_accounting_matches_volume_over_bandwidth() {
    use mlec_sim::bandwidth::catastrophic_pool_repair_bw;
    use mlec_units::{Duration, Volume};

    let dep = MlecDeployment::paper_default(MlecScheme::CC);
    let injected = inject_catastrophic(&dep);

    let all = RepairMethod::All.plan(&dep, &injected);
    assert!((all.network_volume_tb - 400.0).abs() < 1e-9);
    assert!((all.network_time_h - (0.5 + 400.0 / 0.9)).abs() < 1e-9);
    assert!((all.network_time_h - 444.944).abs() < 1e-2);
    assert_eq!(all.local_time_h, 0.0);

    let layer = RepairMethod::Layer.plan(&dep, &injected);
    assert!((layer.network_volume_tb - 20.0).abs() < 1e-9);
    assert!((layer.local_volume_tb - 60.0).abs() < 1e-9);
    assert!((layer.network_time_h - (0.5 + 20.0 / 0.9)).abs() < 1e-9);
    assert!((layer.local_time_h - 60.0 / 0.432).abs() < 1e-9);

    // The typed algebra reproduces the plan's staged accounting bitwise:
    // detection + wire / catastrophic_bw.
    let typed: Duration = dep.config.detection()
        + Volume::from_tb(all.network_volume_tb) / catastrophic_pool_repair_bw(&dep);
    assert_eq!(typed.to_hours().to_bits(), all.network_time_h.to_bits());
}
