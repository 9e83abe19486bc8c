//! End-to-end guarantees of the `mlec-runner` executor when driving the
//! real simulators: thread-count invariance, kill/resume equivalence, and
//! convergence of the runner-driven splitting estimator to the Markov
//! model.

use mlec_analysis::chains::pool_catastrophic_rate;
use mlec_analysis::splitting::stage1_via_runner;
use mlec_runner::{run, RunSpec, StopRule};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::system_sim::SystemSimOptions;
use mlec_sim::trials::{PoolTrial, SystemTrial};
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;

fn inflated(scheme: MlecScheme, afr: f64) -> MlecDeployment {
    let mut dep = MlecDeployment::paper_default(scheme);
    dep.config.afr = afr;
    dep
}

/// The same system-simulation campaign aggregates bit-identically whether
/// run on one worker thread or several.
#[test]
fn system_campaign_is_thread_count_invariant() {
    let dep = inflated(MlecScheme::CD, 2.0);
    let model = FailureModel::Exponential { afr: 2.0 };
    let trial = SystemTrial {
        dep: &dep,
        model: &model,
        strategy: RepairMethod::Fco,
        years: 0.25,
        opts: SystemSimOptions::default(),
        event_log: None,
        log_label: "",
    };
    let spec = |threads| {
        RunSpec::new("e2e/threads", 17, StopRule::fixed(12))
            .batch_size(2)
            .threads(threads)
    };
    let single = run(&trial, &spec(1)).unwrap();
    for threads in [2, 4] {
        let multi = run(&trial, &spec(threads)).unwrap();
        assert_eq!(multi.trials, single.trials);
        assert_eq!(multi.acc, single.acc, "threads={threads}");
    }
}

/// Killing a pool campaign halfway and resuming it from the JSONL manifest
/// reproduces the uninterrupted run exactly — even when the resumed half
/// runs on a different thread count.
#[test]
fn pool_campaign_resumes_from_manifest_bit_identically() {
    let dir = std::env::temp_dir().join("mlec-e2e-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool-resume.jsonl");
    let _ = std::fs::remove_file(&path);

    let dep = inflated(MlecScheme::CC, 4.0);
    let model = FailureModel::Exponential { afr: 4.0 };
    let trial = PoolTrial {
        dep: &dep,
        model: &model,
        years_per_trial: 25.0,
        bias: FailureBias::NONE,
        event_log: None,
        log_label: "",
    };
    let spec = |trials: u64| {
        RunSpec::new("e2e/resume", 23, StopRule::fixed(trials))
            .batch_size(4)
            .batches_per_round(1)
            .config_hash(0xC0FFEE)
    };

    // Uninterrupted reference run.
    let full = run(&trial, &spec(32)).unwrap();

    // "Killed" run: stops at half, checkpointing every round.
    let half = run(&trial, &spec(16).threads(1).manifest(&path)).unwrap();
    assert_eq!(half.trials, 16);
    assert_eq!(half.resumed_trials, 0);

    // Resume with the full budget on a different thread count.
    let resumed = run(&trial, &spec(32).threads(3).manifest(&path)).unwrap();
    assert_eq!(resumed.resumed_trials, 16);
    assert_eq!(resumed.trials, 32);
    assert_eq!(resumed.acc, full.acc, "resume must be bit-identical");
}

/// An importance-sampled pool campaign at the paper's true 1% AFR resumes
/// from its JSONL manifest bit-identically: the weighted accumulator
/// (likelihood-weighted rate sums, weighted lost-stripe Welford, excursion
/// diagnostics) round-trips exactly, across a thread-count change.
#[test]
fn weighted_pool_campaign_resumes_from_manifest_bit_identically() {
    let dir = std::env::temp_dir().join("mlec-e2e-resume-weighted");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pool-resume-weighted.jsonl");
    let _ = std::fs::remove_file(&path);

    let dep = MlecDeployment::paper_default(MlecScheme::CC);
    let model = FailureModel::Exponential { afr: 0.01 };
    let bias = FailureBias::auto(&dep, &model);
    let trial = PoolTrial {
        dep: &dep,
        model: &model,
        years_per_trial: 25.0,
        bias,
        event_log: None,
        log_label: "",
    };
    let spec = |trials: u64| {
        RunSpec::new("e2e/resume-weighted", 29, StopRule::fixed(trials))
            .batch_size(4)
            .batches_per_round(1)
            .config_hash(0xB1A5)
    };

    // Uninterrupted reference run.
    let full = run(&trial, &spec(32)).unwrap();
    assert!(full.acc.events() > 0, "auto bias must observe events");
    assert!(full.acc.rate.ess() > 0.0);

    // "Killed" run: stops at half, checkpointing every round.
    let half = run(&trial, &spec(16).threads(1).manifest(&path)).unwrap();
    assert_eq!(half.trials, 16);

    // Resume with the full budget on a different thread count.
    let resumed = run(&trial, &spec(32).threads(3).manifest(&path)).unwrap();
    assert_eq!(resumed.resumed_trials, 16);
    assert_eq!(resumed.trials, 32);
    assert_eq!(
        resumed.acc, full.acc,
        "weighted resume must be bit-identical"
    );
    assert_eq!(
        resumed.acc.rate_per_pool_year().to_bits(),
        full.acc.rate_per_pool_year().to_bits()
    );
}

/// The runner-driven splitting stage 1 converges on the pool Markov chain:
/// with an adaptive stop at 30% relative precision, the simulated
/// catastrophic rate's 95% interval — widened by the documented sim-vs-chain
/// model tolerance (0.4x..2.5x, see `tests/sim_vs_model.rs`) — brackets the
/// analytic rate.
#[test]
fn stage1_through_runner_converges_to_markov_chain() {
    let afr = 5.0;
    let dep = inflated(MlecScheme::CC, afr);
    let model = FailureModel::Exponential { afr };
    let spec = RunSpec::new("e2e/convergence", 31, StopRule::until_rel_err(0.30, 24, 96))
        .batch_size(8)
        .batches_per_round(1);
    let (s1, report) = stage1_via_runner(&dep, &model, 500.0, FailureBias::NONE, &spec).unwrap();

    assert!(
        report.acc.events() > 10,
        "need observable events, got {}",
        report.acc.events()
    );
    assert_eq!(s1.cat_rate_per_pool_year, report.acc.rate_per_pool_year());

    let analytic = pool_catastrophic_rate(&dep).to_per_year();
    let (lo, hi) = (report.summary.ci_low, report.summary.ci_high);
    assert!(lo > 0.0 && hi > lo);
    assert!(
        lo / 2.5 <= analytic && analytic <= hi / 0.4,
        "analytic {analytic} outside tolerance-widened CI [{lo}, {hi}]"
    );
}
