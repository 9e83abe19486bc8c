//! Methodology cross-validation (paper §6.2: "Our multiple methodologies
//! verify each other"): the event-driven pool simulator, the Markov chain,
//! and the DP/Monte-Carlo burst estimators must agree where their domains
//! overlap.

use mlec_analysis::burst::{mlec_burst_pdl, mlec_burst_pdl_direct_mc};
use mlec_analysis::chains::pool_catastrophic_rate;
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::pool_sim::simulate_pool;
use mlec_topology::MlecScheme;

/// Simulated catastrophic rate at inflated AFR must match the Markov chain
/// within Monte Carlo noise for the clustered pool (whose chain is exact up
/// to the per-disk-rebuild independence assumption).
#[test]
fn clustered_pool_sim_matches_markov_chain() {
    let mut dep = MlecDeployment::paper_default(MlecScheme::CC);
    dep.config.afr = 5.0;
    let model = FailureModel::Exponential { afr: 5.0 };
    let mut events = 0usize;
    let mut pool_years = 0.0;
    for seed in 0..24u64 {
        let r = simulate_pool(&dep, &model, 500.0, seed);
        events += r.events.len();
        pool_years += r.pool_years;
    }
    let sim_rate = events as f64 / pool_years;
    let chain_rate = pool_catastrophic_rate(&dep).to_per_year();
    assert!(events >= 30, "need statistics, got {events} events");
    let ratio = sim_rate / chain_rate;
    assert!(
        (0.4..2.5).contains(&ratio),
        "sim={sim_rate:.3e} chain={chain_rate:.3e} ratio={ratio:.2}"
    );
}

/// The declustered pool's simulated rate must agree with its
/// priority-drain chain within an order of magnitude (the chain abstracts
/// the census into a max-multiplicity state), and both must sit far below
/// the clustered pool per disk-failure.
#[test]
fn declustered_pool_sim_matches_chain_magnitude() {
    let mut dep = MlecDeployment::paper_default(MlecScheme::CD);
    dep.config.afr = 8.0;
    let model = FailureModel::Exponential { afr: 8.0 };
    let mut events = 0usize;
    let mut pool_years = 0.0;
    for seed in 0..16u64 {
        let r = simulate_pool(&dep, &model, 250.0, seed);
        events += r.events.len();
        pool_years += r.pool_years;
    }
    let sim_rate = events as f64 / pool_years.max(1e-9);
    let chain_rate = pool_catastrophic_rate(&dep).to_per_year();
    // Order-of-magnitude agreement (the state abstraction costs accuracy).
    if events > 0 {
        let ratio = sim_rate / chain_rate;
        assert!(
            (0.05..20.0).contains(&ratio),
            "sim={sim_rate:.3e} chain={chain_rate:.3e} ratio={ratio:.2}"
        );
    } else {
        // No events seen: the chain must predict them to be rare at this
        // simulated volume.
        assert!(chain_rate * pool_years < 50.0, "chain={chain_rate:.3e}");
    }
}

/// The conditional-MC burst estimator and the disk-level direct MC must
/// agree on every scheme's hot cells.
#[test]
fn burst_dp_matches_direct_monte_carlo() {
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        for (y, x) in [(60u32, 3u32), (40, 4)] {
            let exact = mlec_burst_pdl(&dep, y, x, 300, 10);
            let direct = mlec_burst_pdl_direct_mc(&dep, y, x, 600, 11);
            // Agreement within MC noise, only meaningful for resolvable PDL.
            if exact > 0.03 || direct > 0.03 {
                assert!(
                    (exact - direct).abs() < 0.1 + 0.35 * exact.max(direct),
                    "{scheme} y={y} x={x}: exact={exact:.4} direct={direct:.4}"
                );
            }
        }
    }
}

/// Under an exhaustive small-world check, the conditional estimator's zero
/// cells must be genuinely impossible layouts (the DP never reports false
/// zeros).
#[test]
fn burst_zero_cells_are_structural() {
    let dep = MlecDeployment::paper_default(MlecScheme::CC);
    // x <= p_n: data loss impossible regardless of y (F#3).
    for x in 1..=2u32 {
        let exact = mlec_burst_pdl(&dep, 60, x, 50, 12);
        let direct = mlec_burst_pdl_direct_mc(&dep, 60, x, 200, 13);
        assert_eq!(exact, 0.0, "x={x}");
        assert_eq!(direct, 0.0, "x={x}");
    }
}
