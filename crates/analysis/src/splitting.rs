//! The splitting (multi-stage) rare-event durability estimator — paper §3
//! "Splitting" and the Fig 10 experiment.
//!
//! Stage 1 produces catastrophic-local-pool statistics: the per-pool rate
//! (from the analytic chain of [`crate::chains`] or from
//! [`mlec_sim::pool_sim`] samples) and the lost-local-stripe census of an
//! event. Stage 2 injects those events at the network level analytically:
//! data is lost when `p_n + 1` catastrophic pools overlap in time inside one
//! network pool (`C/*`) or across distinct racks (`D/*`), scaled by the
//! *chunk-knowledge survival factor* — the probability that such an overlap
//! actually contains a lost network stripe, which repair methods with
//! cross-level transparency (`R_FCO/R_HYB/R_MIN`) can exploit (paper §4.2.3
//! F#1) while black-box `R_ALL` cannot.

use crate::chains::pool_catastrophic_rate;
use crate::markov::nines;
use mlec_runner::{run, RunReport, RunSpec};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::repair::{
    chunk_knowledge_survival, inject_catastrophic, plan_catastrophic_repair, RepairMethod,
};
use mlec_sim::trials::{PoolAcc, PoolTrial};
use mlec_topology::Placement;
use mlec_units::{Duration, Rate};

/// Stage-1 summary of catastrophic local-pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage1 {
    /// Catastrophic events per pool-year. When `unobserved` is set this is
    /// the Poisson 95% *upper bound* on the rate, not a point estimate.
    pub cat_rate_per_pool_year: f64,
    /// Lost local stripes per catastrophic event.
    pub lost_stripes: f64,
    /// Stripes per pool.
    pub stripes_per_pool: f64,
    /// True when a simulation campaign observed zero events and the rate is
    /// the zero-event upper bound — downstream `stage2_pdl` then yields a
    /// PDL upper bound, i.e. a durability *lower* bound (never ∞ nines).
    pub unobserved: bool,
}

/// Analytic stage 1 from the pool Markov chain plus the injected-failure
/// census (the same `p_l + 1`-simultaneous model the paper injects).
pub fn stage1_analytic(dep: &MlecDeployment) -> Stage1 {
    let injected = inject_catastrophic(dep);
    Stage1 {
        cat_rate_per_pool_year: pool_catastrophic_rate(dep).to_per_year(),
        lost_stripes: injected.lost_stripes,
        stripes_per_pool: injected.total_stripes,
        unobserved: false,
    }
}

/// Stage 1 from a runner-driven pool-simulation campaign: each trial
/// simulates one pool for `years_per_trial` with importance-sampled failure
/// arrivals under `bias` ([`FailureBias::NONE`] for direct simulation),
/// executed by `mlec-runner`'s deterministic batched executor (per-trial
/// seeds from the spec's seed stream, adaptive stopping on the weighted
/// rate's relative error, optional checkpoint/resume via the spec's
/// manifest). Returns the stage-1 summary together with the full run report
/// (compound-Poisson CI on the weighted rate, ESS, trial counts).
///
/// A campaign that observed zero events reports the Poisson 95% upper bound
/// `-ln(0.05)/pool_years` with `unobserved` set, instead of a rate of 0 that
/// would silently turn into ∞ nines downstream.
pub fn stage1_via_runner(
    dep: &MlecDeployment,
    model: &FailureModel,
    years_per_trial: f64,
    bias: FailureBias,
    spec: &RunSpec,
) -> std::io::Result<(Stage1, RunReport<PoolAcc>)> {
    stage1_via_runner_logged(dep, model, years_per_trial, bias, spec, None)
}

/// [`stage1_via_runner`] with an optional per-trial JSONL event log: every
/// disk failure, repair step, and catastrophe of every trial is streamed to
/// `event_log` (tagged with the spec's run label and trial index), and the
/// returned accumulator carries the degraded-time totals. Logging does not
/// perturb the simulation: results are bit-identical with or without a sink.
pub fn stage1_via_runner_logged(
    dep: &MlecDeployment,
    model: &FailureModel,
    years_per_trial: f64,
    bias: FailureBias,
    spec: &RunSpec,
    event_log: Option<&mlec_sim::trials::EventLogSink>,
) -> std::io::Result<(Stage1, RunReport<PoolAcc>)> {
    let trial = PoolTrial {
        dep,
        model,
        years_per_trial,
        bias,
        event_log,
        log_label: &spec.label,
    };
    let report = run(&trial, spec)?;
    let injected = inject_catastrophic(dep);
    let unobserved = report.acc.events() == 0;
    let s1 = Stage1 {
        cat_rate_per_pool_year: if unobserved {
            report.acc.rate.zero_event_upper_95()
        } else {
            report.acc.rate_per_pool_year()
        },
        lost_stripes: if unobserved {
            injected.lost_stripes
        } else {
            report.acc.mean_lost_stripes()
        },
        stripes_per_pool: injected.total_stripes,
        unobserved,
    };
    Ok((s1, report))
}

/// How long a pool remains a lost-local-stripe contributor under the given
/// repair method: until the network phase has rebuilt (or, for `R_MIN`, made
/// locally recoverable) every lost stripe.
pub fn catastrophic_sojourn(dep: &MlecDeployment, method: RepairMethod) -> Duration {
    Duration::from_hours(plan_catastrophic_repair(dep, method).network_time_h)
}

/// The chunk-knowledge survival factor of stage 1's mean lost stripes:
/// [`chunk_knowledge_survival`], the probability that an overlap of
/// `p_n + 1` catastrophic pools actually loses a network stripe.
pub fn knowledge_survival_factor(dep: &MlecDeployment, method: RepairMethod, s1: &Stage1) -> f64 {
    chunk_knowledge_survival(dep, method, s1.lost_stripes, s1.stripes_per_pool)
}

/// Stage 2: probability of data loss over the `mission` span, combining
/// the catastrophic-pool Poisson process with the overlap and knowledge
/// factors.
pub fn stage2_pdl(
    dep: &MlecDeployment,
    method: RepairMethod,
    s1: &Stage1,
    mission: Duration,
) -> f64 {
    let lambda = s1.cat_rate_per_pool_year; // per pool-year
    let sojourn_years = catastrophic_sojourn(dep, method).to_years();
    let pn = dep.params.network.p as u32;
    let phi = knowledge_survival_factor(dep, method, s1);
    let pools = dep.local_pools();

    // Rate (per year) at which a (p_n+1)-fold overlap forms: a new
    // catastrophic arrival while p_n others are already in their sojourn.
    let loss_rate = Rate::from_per_year(
        match dep.scheme.network {
            Placement::Clustered => {
                let g = dep.network_width() as f64;
                let n_np = pools.num_pools() as f64 / g;
                let concurrent = binom(g - 1.0, pn) * (lambda * sojourn_years).powi(pn as i32);
                n_np * g * lambda * concurrent
            }
            Placement::Declustered => {
                let p_total = pools.num_pools() as f64;
                let per_rack = pools.pools_per_rack() as f64;
                // Overlapping pools must sit in distinct racks.
                let mut distinct = 1.0;
                for i in 1..=pn {
                    distinct *= (p_total - i as f64 * per_rack) / (p_total - i as f64);
                }
                let concurrent =
                    binom(p_total - 1.0, pn) * (lambda * sojourn_years).powi(pn as i32);
                p_total * lambda * concurrent * distinct
            }
        } * phi,
    );

    -(-(loss_rate * mission)).exp_m1()
}

/// One-year durability in nines for a deployment + repair method (Fig 10).
pub fn mlec_durability_nines(dep: &MlecDeployment, method: RepairMethod) -> f64 {
    let s1 = stage1_analytic(dep);
    nines(stage2_pdl(dep, method, &s1, Duration::from_years(1.0)))
}

fn binom(n: f64, k: u32) -> f64 {
    let mut acc = 1.0;
    for i in 0..k {
        acc *= (n - i as f64) / (i as f64 + 1.0);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlec_topology::MlecScheme;

    fn dep(scheme: MlecScheme) -> MlecDeployment {
        MlecDeployment::paper_default(scheme)
    }

    #[test]
    fn fig10_method_ordering_within_every_scheme() {
        // Paper F#1-3: durability increases monotonically
        // R_ALL < R_FCO <= R_HYB <= R_MIN for every scheme.
        for scheme in MlecScheme::ALL {
            let d = dep(scheme);
            let vals: Vec<f64> = RepairMethod::PAPER
                .iter()
                .map(|&m| mlec_durability_nines(&d, m))
                .collect();
            for w in vals.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{scheme}: methods must not decrease durability: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn fig10_f1_rfco_gain_larger_for_dd() {
        // Paper F#1: R_FCO gains 0.9-6.6 nines, largest for D/D (knowledge
        // factor + repair-time reduction).
        let gain_cc = mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::Fco)
            - mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::All);
        let gain_dd = mlec_durability_nines(&dep(MlecScheme::DD), RepairMethod::Fco)
            - mlec_durability_nines(&dep(MlecScheme::DD), RepairMethod::All);
        assert!(gain_dd > gain_cc, "cc={gain_cc} dd={gain_dd}");
        assert!(gain_cc > 0.3 && gain_cc < 4.0, "gain_cc={gain_cc}");
        assert!(gain_dd > 3.0 && gain_dd < 9.0, "gain_dd={gain_dd}");
    }

    #[test]
    fn fig10_f2_rhyb_gain_larger_for_local_dp() {
        // Paper F#2: R_HYB adds 0.6-4.1 nines, most in C/D and D/D.
        let gain_cd = mlec_durability_nines(&dep(MlecScheme::CD), RepairMethod::Hyb)
            - mlec_durability_nines(&dep(MlecScheme::CD), RepairMethod::Fco);
        let gain_cc = mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::Hyb)
            - mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::Fco);
        assert!(gain_cd > gain_cc, "cc={gain_cc} cd={gain_cd}");
        assert!(gain_cd > 2.0 && gain_cd < 6.0, "gain_cd={gain_cd}");
    }

    #[test]
    fn fig10_f3_rmin_small_gain_for_local_dp() {
        // Paper F#3: R_MIN adds 0.1-1.2 nines; small for C/D and D/D because
        // their network repair is already detection-bound.
        let gain_cd = mlec_durability_nines(&dep(MlecScheme::CD), RepairMethod::Min)
            - mlec_durability_nines(&dep(MlecScheme::CD), RepairMethod::Hyb);
        let gain_cc = mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::Min)
            - mlec_durability_nines(&dep(MlecScheme::CC), RepairMethod::Hyb);
        assert!(gain_cd < 1.0, "gain_cd={gain_cd}");
        assert!(gain_cc > gain_cd, "cc={gain_cc} cd={gain_cd}");
    }

    #[test]
    fn fig10_f4_best_and_worst_schemes_after_optimization() {
        // Paper F#4: with R_MIN, C/D and D/D provide the best durability,
        // D/C the worst.
        let vals: Vec<(MlecScheme, f64)> = MlecScheme::ALL
            .iter()
            .map(|&s| (s, mlec_durability_nines(&dep(s), RepairMethod::Min)))
            .collect();
        let dc = vals.iter().find(|(s, _)| *s == MlecScheme::DC).unwrap().1;
        let cd = vals.iter().find(|(s, _)| *s == MlecScheme::CD).unwrap().1;
        let dd = vals.iter().find(|(s, _)| *s == MlecScheme::DD).unwrap().1;
        let cc = vals.iter().find(|(s, _)| *s == MlecScheme::CC).unwrap().1;
        assert!(dc <= cc && dc <= cd && dc <= dd, "D/C worst: {vals:?}");
        assert!(cd >= cc && dd >= cc, "C/D and D/D best: {vals:?}");
    }

    #[test]
    fn knowledge_factor_structure() {
        // R_ALL never benefits; for D/D with knowledge the factor is tiny
        // (paper's "as low as 0.03%" mechanism).
        let d = dep(MlecScheme::DD);
        let s1 = stage1_analytic(&d);
        let all = knowledge_survival_factor(&d, RepairMethod::All, &s1);
        let fco = knowledge_survival_factor(&d, RepairMethod::Fco, &s1);
        assert!(fco < all / 100.0, "all={all} fco={fco}");
        assert!(fco < 5e-3, "fco={fco}");
        // For C/C the factor is 1 either way (whole pools lost).
        let c = dep(MlecScheme::CC);
        let s1c = stage1_analytic(&c);
        assert!((knowledge_survival_factor(&c, RepairMethod::Min, &s1c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn durability_is_tens_of_nines() {
        // All schemes/methods land in the paper's Fig 10 range (roughly
        // 10-45 nines).
        for scheme in MlecScheme::ALL {
            for method in RepairMethod::PAPER {
                let n = mlec_durability_nines(&dep(scheme), method);
                assert!(n > 8.0 && n < 60.0, "{scheme} {method}: {n}");
            }
        }
    }

    #[test]
    fn stage1_simulation_fallback() {
        // Zero observed events must yield the Poisson 95% upper bound and
        // the unobserved flag — never a rate of 0 that becomes ∞ nines.
        use mlec_runner::StopRule;
        let d = dep(MlecScheme::CC);
        let model = mlec_sim::failure::FailureModel::Exponential { afr: 0.01 };
        let spec = RunSpec::new("splitting/stage1-empty", 3, StopRule::fixed(4));
        let (s1, report) = stage1_via_runner(&d, &model, 25.0, FailureBias::NONE, &spec).unwrap();
        assert_eq!(report.acc.events(), 0, "1% AFR is unobservable directly");
        assert!(s1.unobserved);
        let expect = -(0.05f64.ln()) / 100.0;
        assert!(
            (s1.cat_rate_per_pool_year - expect).abs() < 1e-15,
            "rate={}",
            s1.cat_rate_per_pool_year
        );
        assert!(s1.lost_stripes > 0.0, "falls back to injected census");
        // The bound flows through stage 2 into a finite durability floor.
        let pdl = stage2_pdl(&d, RepairMethod::Fco, &s1, Duration::from_years(1.0));
        assert!(pdl > 0.0 && pdl < 1.0, "pdl={pdl}");
        assert!(nines(pdl).is_finite());
    }

    #[test]
    fn stage1_via_runner_aggregates_pool_trials() {
        use mlec_runner::StopRule;
        let mut d = dep(MlecScheme::CC);
        d.config.afr = 5.0;
        let model = mlec_sim::failure::FailureModel::Exponential { afr: 5.0 };
        let spec = RunSpec::new("splitting/stage1-unit", 9, StopRule::fixed(8));
        let (s1, report) = stage1_via_runner(&d, &model, 100.0, FailureBias::NONE, &spec).unwrap();
        assert_eq!(report.trials, 8);
        assert!((report.acc.pool_years() - 800.0).abs() < 1e-9);
        if report.acc.events() == 0 {
            // Falls back to the injected census.
            assert!(s1.unobserved);
            assert!(s1.lost_stripes > 0.0);
        } else {
            assert!(!s1.unobserved);
            assert_eq!(s1.cat_rate_per_pool_year, report.acc.rate_per_pool_year());
            assert_eq!(s1.lost_stripes, report.acc.mean_lost_stripes());
        }
        // Stage 2 accepts the simulated stage 1 and yields a plausible PDL.
        let pdl = stage2_pdl(&d, RepairMethod::Fco, &s1, Duration::from_years(1.0));
        assert!((0.0..=1.0).contains(&pdl));
    }

    #[test]
    fn stage1_via_runner_importance_sampled_at_paper_afr() {
        // The tentpole end-to-end: at the true 1% AFR a biased campaign
        // observes weighted events and stage 2 reports finite nines.
        use mlec_runner::StopRule;
        let d = dep(MlecScheme::CC);
        let model = mlec_sim::failure::FailureModel::Exponential { afr: 0.01 };
        let bias = FailureBias::auto(&d, &model);
        let spec = RunSpec::new("splitting/stage1-is", 11, StopRule::fixed(16));
        let (s1, report) = stage1_via_runner(&d, &model, 50.0, bias, &spec).unwrap();
        assert!(report.acc.events() > 0, "auto bias must observe events");
        assert!(!s1.unobserved);
        assert!(s1.cat_rate_per_pool_year > 0.0);
        assert!(report.acc.rate.ess() > 0.0);
        let pdl = stage2_pdl(&d, RepairMethod::Fco, &s1, Duration::from_years(1.0));
        assert!(pdl > 0.0, "pdl={pdl}");
        assert!(nines(pdl).is_finite());
    }

    #[test]
    fn longer_mission_lower_durability() {
        let d = dep(MlecScheme::CC);
        let s1 = stage1_analytic(&d);
        let one = stage2_pdl(&d, RepairMethod::Fco, &s1, Duration::from_years(1.0));
        let ten = stage2_pdl(&d, RepairMethod::Fco, &s1, Duration::from_years(10.0));
        assert!(ten > one * 5.0, "one={one} ten={ten}");
    }
}
