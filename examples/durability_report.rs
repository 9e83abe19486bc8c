//! Scenario: produce a durability report for a proposed deployment —
//! pool-level simulation cross-checked against the Markov model (the
//! paper's §6.2 "multiple methodologies verify each other"), then the
//! full-system splitting estimate.
//!
//! Run with: `cargo run --release --example durability_report`

use mlec_analysis::chains::{pool_catastrophic_rate, pool_chain};
use mlec_analysis::markov::nines;
use mlec_analysis::splitting::{stage1_via_runner, stage2_pdl};
use mlec_runner::{RunSpec, StopRule};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::pool_sim::simulate_pool;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;
use mlec_units::Duration;

fn main() {
    println!("Durability report for the paper's (10+2)/(17+3) deployment\n");

    // 1. Cross-validate the analytic pool chain against event simulation at
    //    an inflated AFR (rare events are unreachable by direct MC at 1%).
    println!("step 1: simulator vs Markov model at inflated AFR (cross-validation)");
    for scheme in [MlecScheme::CC, MlecScheme::CD] {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = 8.0; // inflate so events are observable
        let model = FailureModel::Exponential { afr: 8.0 };
        let mut sim_rate = 0.0;
        let years_per_run = 200.0;
        let runs = 20;
        for seed in 0..runs {
            let r = simulate_pool(&dep, &model, years_per_run, seed);
            sim_rate += r.events.len() as f64;
        }
        sim_rate /= years_per_run * runs as f64;
        let chain_rate = pool_catastrophic_rate(&dep).to_per_year();
        println!(
            "  {scheme}: simulated {sim_rate:.3e} vs chain {chain_rate:.3e} catastrophic/pool-yr \
             (ratio {:.2})",
            sim_rate / chain_rate
        );
    }

    // 2. Production-AFR stage 1 via the chain, stage 2 analytically.
    println!("\nstep 2: full-system one-year durability (splitting estimator)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "R_ALL", "R_FCO", "R_HYB", "R_MIN"
    );
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        print!("{:>8}", scheme.name());
        for method in RepairMethod::PAPER {
            let s1 = mlec_analysis::splitting::stage1_analytic(&dep);
            let pdl = stage2_pdl(&dep, method, &s1, Duration::from_years(1.0));
            print!(" {:>10.1}", nines(pdl));
        }
        println!();
    }

    // 3. Show how simulation samples plug into stage 1 when available.
    println!("\nstep 3: plugging simulation samples into stage 1 (C/C at AFR 50%)");
    let mut dep = MlecDeployment::paper_default(MlecScheme::CC);
    dep.config.afr = 0.5;
    let model = FailureModel::Exponential { afr: 0.5 };
    let spec = RunSpec::new("durability_report/stage1", 1, StopRule::fixed(5));
    let (s1, report) = stage1_via_runner(&dep, &model, 2000.0, FailureBias::NONE, &spec)
        .expect("no manifest, so no I/O to fail");
    println!(
        "  {} catastrophic events over {} pool-years -> rate {:.2e}/pool-yr",
        report.acc.events(),
        report.acc.pool_years(),
        s1.cat_rate_per_pool_year
    );
    let pdl = stage2_pdl(&dep, RepairMethod::Fco, &s1, Duration::from_years(1.0));
    println!(
        "  system durability at this AFR under R_FCO: {:.1} nines",
        nines(pdl)
    );

    // 4. Chain internals, for the curious.
    let dep = MlecDeployment::paper_default(MlecScheme::CD);
    let chain = pool_chain(&dep);
    println!(
        "\n(declustered pool chain has {} transient states; mean time to catastrophic = {:.2e} years)",
        chain.transient_states(),
        chain.mean_time_to_absorb().to_years()
    );
}
