//! Cross-check: the kernel-driven clustered pool simulator against the
//! analytic birth-death machinery in `mlec_analysis::markov`.
//!
//! The simulator repairs each failed disk independently after a fixed
//! `detection + capacity/bw` window, so the matching Markov chain
//! de-escalates state `m` at rate `m / t_disk` (every in-flight rebuild is
//! its own clock). To leading order in `lambda * t_disk` this exponential
//! chain has the same absorption hazard as the deterministic-window renewal
//! process the simulator implements: the dominant path `0 -> 1 -> ... ->
//! p_l + 1` contributes `prod_m (d - m) lambda t / m` either way (ordered
//! uniform arrivals inside one window vs. the `1/m!` from racing `m`
//! exponential repair clocks).
//!
//! Note this is deliberately *not* `chains::clustered_pool_chain`, which
//! models the paper's serialized spare-disk rebuild (one write target) and
//! therefore predicts a higher rate than the simulator's parallel-repair
//! dynamics.

use mlec_analysis::markov::BirthDeathChain;
use mlec_analysis::splitting::stage1_via_runner;
use mlec_runner::{RunSpec, StopRule};
use mlec_sim::config::{MlecDeployment, HOURS_PER_YEAR};
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::repair::{inject_catastrophic, RepairMethod};
use mlec_sim::system_sim::SystemSimOptions;
use mlec_sim::trials::SystemTrial;
use mlec_topology::MlecScheme;

#[test]
fn clustered_pool_rate_matches_markov_chain() {
    // AFR high enough that catastrophes are directly observable without
    // importance sampling, low enough that lambda * t_disk stays small
    // (~1.6e-2) and the exponential-repair approximation holds well inside
    // the Monte Carlo error.
    let afr = 1.0;
    let mut dep = MlecDeployment::paper_default(MlecScheme::CC);
    dep.config.afr = afr;
    let model = FailureModel::Exponential { afr };

    let spec = RunSpec::new("markov-cross-check", 2024, StopRule::fixed(512)).threads(0);
    let (_s1, report) =
        stage1_via_runner(&dep, &model, 25.0, FailureBias::NONE, &spec).expect("runner campaign");
    assert!(
        report.acc.events() >= 100,
        "campaign too small to be a meaningful check: {} events",
        report.acc.events()
    );

    let d = dep.local_pools().pool_size() as f64;
    let pl = dep.params.local.p;
    let lambda = dep.config.disk_failure_rate().to_per_hour();
    let t_disk = dep.config.detection_hours
        + dep.geometry.disk_capacity_tb * 1e6 / dep.config.disk_repair_bw().to_mbs() / 3600.0;
    let fail: Vec<f64> = (0..=pl).map(|m| (d - m as f64) * lambda).collect();
    let repair: Vec<f64> = (1..=pl).map(|m| m as f64 / t_disk).collect();
    let chain = BirthDeathChain::new(fail, repair);
    let chain_rate = chain.absorb_hazard().to_per_year();

    let sim_rate = report.acc.rate_per_pool_year();
    let (lo, hi) = report.acc.rate.ci95();
    assert!(
        lo <= chain_rate && chain_rate <= hi,
        "chain rate {chain_rate:.4e}/pool-yr outside sim 95% CI [{lo:.4e}, {hi:.4e}] \
         (sim point {sim_rate:.4e}, {} events over {:.0} pool-years)",
        report.acc.events(),
        report.acc.pool_years()
    );
}

/// Predicted per-mission catastrophic sojourn hours from the occupancy
/// birth–death chain over concurrent catastrophic-pool repairs:
/// `birth[m] = (P - m) h`, `death[m] = m / T_s` (the strategy's repair-rate
/// transition), evaluated at its stationary mean over a mission.
fn occupancy_sojourn_h(num_pools: f64, h_per_hour: f64, t_s: f64, mission_h: f64) -> f64 {
    let states = 24usize;
    let fail: Vec<f64> = (0..states)
        .map(|m| (num_pools - m as f64) * h_per_hour)
        .collect();
    let repair: Vec<f64> = (1..states).map(|m| m as f64 / t_s).collect();
    BirthDeathChain::new(fail, repair).stationary_mean() * mission_h
}

/// The strategy matrix: every repair strategy's repair-rate transition
/// (`m / T_s`, with `T_s` the strategy's staged network-repair sojourn from
/// its catastrophic-repair plan) is embedded in a birth–death occupancy
/// chain and cross-checked against the full-system simulator on clustered
/// (C/C) and declustered (D/D) deployments.
///
/// The chain's birth side is the per-pool catastrophe hazard `h`, measured
/// by the *pool* simulator — the paper's iterative "treat a local pool like
/// a disk" step. It is strategy-independent, carries its own 95% CI, and is
/// itself verified analytically for clustered pools by
/// `clustered_pool_rate_matches_markov_chain` above (the declustered pool's
/// de-escalation is census-drain-dominated, so its hazard has no closed
/// birth–death form — the pool campaign supplies it empirically), corrected
/// for the system simulator's constant-aggregate-rate approximation. The check
/// passes when the chain prediction band (evaluated across the pool
/// campaign's rate CI) overlaps the system campaign's 95% CI on accumulated
/// catastrophic sojourn — a wrong `T_s` in any strategy's plan, or a broken
/// strategy→sojourn thread through the system simulator, shifts the
/// prediction linearly and breaks the overlap.
#[test]
fn strategy_repair_rates_match_occupancy_chain() {
    // AFR per scheme, tuned so both campaigns observe enough catastrophes
    // for tight CIs while `lambda * t_disk` stays in the regime where pool
    // catastrophes are rare per pool-year (the occupancy chain's premise).
    // D/D needs a higher AFR: the census's priority drain clears the
    // highest-multiplicity stripes within hours, so declustered catastrophes
    // need a much tighter failure burst than clustered ones.
    for (scheme, afr) in [(MlecScheme::CC, 0.6), (MlecScheme::DD, 1.0)] {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        let model = FailureModel::Exponential { afr };
        let num_pools = dep.local_pools().num_pools() as f64;
        let mission_h = HOURS_PER_YEAR;

        // Birth side: pool-level catastrophe hazard, with CI.
        let pool_spec =
            RunSpec::new("markov-strategy-pool", 2024, StopRule::fixed(2048)).threads(0);
        let (_s1, pool_report) =
            stage1_via_runner(&dep, &model, 50.0, FailureBias::NONE, &pool_spec)
                .expect("pool campaign");
        assert!(
            pool_report.acc.events() >= 100,
            "{scheme}: pool campaign too small: {} events",
            pool_report.acc.events()
        );
        // The pool simulator thins the arrival rate to `(d - m) lambda` as
        // disks fail; the system simulator deliberately keeps the constant
        // aggregate rate (its documented "<0.1% failed disks" approximation),
        // so inside one pool every escalation runs at `d lambda`. To leading
        // order the dominant path `0 -> 1 -> ... -> p_l + 1` therefore
        // differs by `prod_i d / (d - i)` — fold that into the pool hazard
        // so the chain models the system simulator it is checked against.
        let d = dep.local_pools().pool_size() as f64;
        let threshold = dep.params.local.p as u32 + 1;
        let aggregate_rate_correction: f64 = (1..threshold).map(|i| d / (d - i as f64)).product();
        let (rate_lo, rate_hi) = pool_report.acc.rate.ci95();
        let (h_lo, h_hi) = (
            rate_lo * aggregate_rate_correction / HOURS_PER_YEAR,
            rate_hi * aggregate_rate_correction / HOURS_PER_YEAR,
        );

        let injected = inject_catastrophic(&dep);
        let rall_traffic = RepairMethod::All
            .plan(&dep, &injected)
            .cross_rack_traffic_tb;
        for method in RepairMethod::EXTENDED {
            let plan = method.plan(&dep, &injected);
            let t_s = plan.network_time_h;

            let trial = SystemTrial {
                dep: &dep,
                model: &model,
                strategy: method,
                years: 1.0,
                opts: SystemSimOptions::default(),
                event_log: None,
                log_label: "markov-strategy-xcheck",
            };
            let spec = RunSpec::new("markov-strategy-sys", 2024, StopRule::fixed(16)).threads(0);
            let report = mlec_runner::run(&trial, &spec).expect("system campaign");
            let acc = report.acc;
            assert!(
                acc.catastrophic_pools >= 50,
                "{scheme} {method}: system campaign too small: {} catastrophes",
                acc.catastrophic_pools
            );

            // System-side 95% CI on per-mission catastrophic sojourn hours.
            let mean = acc.total_sojourn_h.mean();
            let half = 1.96 * acc.total_sojourn_h.std_err();
            let (sys_lo, sys_hi) = (mean - half, mean + half);
            // Chain prediction band across the pool-rate CI (monotone in h).
            let pred_lo = occupancy_sojourn_h(num_pools, h_lo, t_s, mission_h);
            let pred_hi = occupancy_sojourn_h(num_pools, h_hi, t_s, mission_h);
            assert!(
                pred_lo <= sys_hi && sys_lo <= pred_hi,
                "{scheme} {method}: chain prediction [{pred_lo:.0}, {pred_hi:.0}] h/mission \
                 disjoint from sim 95% CI [{sys_lo:.0}, {sys_hi:.0}] \
                 (T_s={t_s:.1} h, {} catastrophes over {} missions)",
                acc.catastrophic_pools,
                acc.loss.trials()
            );

            // Acceptance criterion riding on the same campaigns: the
            // beyond-the-paper strategies move strictly less cross-rack
            // data than R_ALL, in the plan and in the simulated mission.
            if matches!(method, RepairMethod::Layer | RepairMethod::Piggy) {
                assert!(
                    plan.cross_rack_traffic_tb < rall_traffic,
                    "{scheme} {method}: plan traffic {} !< R_ALL {rall_traffic}",
                    plan.cross_rack_traffic_tb
                );
                let per_event = acc.cross_rack_traffic_tb.mean() * acc.loss.trials() as f64
                    / acc.catastrophic_pools as f64;
                assert!(
                    per_event < rall_traffic,
                    "{scheme} {method}: simulated per-catastrophe traffic {per_event} \
                     !< R_ALL plan {rall_traffic}"
                );
            }
        }
    }
}
