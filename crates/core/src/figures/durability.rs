//! Durability: the catastrophic local-pool probability of Fig 7, the
//! nines of Fig 10 per scheme and repair method — each analytic or with
//! stage 1 measured by an importance-sampled pool campaign — and the
//! direct whole-system simulation that validates the splitting estimator.

use super::{method_by_scheme_table, RunnerOpts};
use crate::registry::{declare_experiment, ExperimentCtx, ExperimentError, ExperimentOutput, Mode};
use crate::report::{ascii_table, fmt_value};
use mlec_analysis::chains::system_catastrophic_rate;
use mlec_analysis::markov::nines;
use mlec_analysis::splitting::{mlec_durability_nines, stage1_analytic, stage2_pdl};
use mlec_runner::{impl_to_json, Json, StopRule};
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;
use mlec_units::Duration;

/// Fig 7: probability of a catastrophic local failure per system-year.
#[derive(Debug, Clone)]
pub struct CatastrophicProbRow {
    /// Scheme label.
    pub scheme: String,
    /// Catastrophic local-pool probability per system-year.
    pub prob_per_year: f64,
}

impl_to_json!(CatastrophicProbRow {
    scheme,
    prob_per_year
});

/// Fig 7 runner.
pub fn fig7_catastrophic_prob() -> Vec<CatastrophicProbRow> {
    MlecScheme::ALL
        .into_iter()
        .map(|scheme| CatastrophicProbRow {
            scheme: scheme.name(),
            prob_per_year: system_catastrophic_rate(&MlecDeployment::paper_default(scheme))
                .to_per_year(),
        })
        .collect()
}

/// One simulated Fig 7 row: the catastrophic-pool rate measured by a
/// runner-driven pool-simulation campaign, with its compound-Poisson 95%
/// interval (plain Poisson under unbiased simulation).
#[derive(Debug, Clone)]
struct CatastrophicSimRow {
    /// Scheme label.
    scheme: String,
    /// Simulated (weighted) catastrophic events per pool-year; the Poisson
    /// 95% upper bound when `unobserved` is set.
    rate_per_pool_year: f64,
    /// 95% interval on the rate (compound-Poisson statistics).
    rate_ci_low: f64,
    rate_ci_high: f64,
    /// Catastrophic probability per system-year implied by the rate.
    prob_per_system_year: f64,
    /// Analytic (Markov-chain) counterpart at the same AFR, for comparison.
    analytic_prob_per_system_year: f64,
    /// Catastrophic events observed (raw count).
    events: u64,
    /// Likelihood-weighted event total (equals `events` when unbiased).
    weighted_events: f64,
    /// Effective sample size of the weighted events.
    ess: f64,
    /// Mean likelihood weight per excursion (≈1 when correctly weighted).
    mean_weight: f64,
    /// Importance-sampling multiplier applied while the pool was degraded.
    bias: f64,
    /// Pool-years simulated.
    pool_years: f64,
    /// Fraction of simulated time the pool spent degraded (≥1 disk failed).
    degraded_frac: f64,
    /// True when zero events were observed and the rate is an upper bound.
    unobserved: bool,
}

impl_to_json!(CatastrophicSimRow {
    scheme,
    rate_per_pool_year,
    rate_ci_low,
    rate_ci_high,
    prob_per_system_year,
    analytic_prob_per_system_year,
    events,
    weighted_events,
    ess,
    mean_weight,
    bias,
    pool_years,
    degraded_frac,
    unobserved,
});

/// One (scheme, method) durability cell of Fig 10.
#[derive(Debug, Clone)]
pub struct DurabilityCell {
    /// Scheme label.
    pub scheme: String,
    /// Method label.
    pub method: String,
    /// One-year durability, nines.
    pub nines: f64,
}

impl_to_json!(DurabilityCell {
    scheme,
    method,
    nines
});

/// Fig 10: durability of schemes × repair methods.
pub fn fig10_durability() -> Vec<DurabilityCell> {
    let mut out = Vec::new();
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        for method in RepairMethod::PAPER {
            out.push(DurabilityCell {
                scheme: scheme.name(),
                method: method.name().to_string(),
                nines: mlec_durability_nines(&dep, method),
            });
        }
    }
    out
}

/// One simulated Fig 10 cell: durability with a *simulated* stage 1
/// (pool-sim campaign through `mlec-runner`) next to the analytic one.
#[derive(Debug, Clone)]
struct DurabilitySimCell {
    /// Scheme label.
    scheme: String,
    /// Method label.
    method: String,
    /// One-year durability (nines) with the simulated stage-1 rate; a
    /// durability *lower bound* when `unobserved` is set.
    nines_sim_stage1: f64,
    /// One-year durability (nines) with the analytic stage-1 rate.
    nines_analytic_stage1: f64,
    /// Catastrophic events observed in stage 1 (raw count).
    events: u64,
    /// Likelihood-weighted event total (equals `events` when unbiased).
    weighted_events: f64,
    /// Effective sample size of the weighted events.
    ess: f64,
    /// Importance-sampling multiplier applied while the pool was degraded.
    bias: f64,
    /// Pool-years simulated in stage 1.
    pool_years: f64,
    /// Fraction of stage-1 simulated time the pool spent degraded.
    degraded_frac: f64,
    /// True when stage 1 observed zero events (sim nines are a lower bound
    /// from the Poisson zero-event rate bound, not ∞).
    unobserved: bool,
}

impl_to_json!(DurabilitySimCell {
    scheme,
    method,
    nines_sim_stage1,
    nines_analytic_stage1,
    events,
    weighted_events,
    ess,
    bias,
    pool_years,
    degraded_frac,
    unobserved,
});

/// The `bias=` knob of the importance-sampled modes: `auto` → `None`
/// (per-scheme auto-selection), otherwise a positive finite multiplier
/// (`1` = direct simulation).
fn parse_bias(raw: &str) -> Result<Option<f64>, ExperimentError> {
    if raw == "auto" {
        return Ok(None);
    }
    match raw.parse::<f64>() {
        Ok(b) if b.is_finite() && b > 0.0 => Ok(Some(b)),
        _ => Err(ExperimentError::BadValue {
            name: "bias".to_string(),
            value: raw.to_string(),
            expected: "`auto` or a positive number".to_string(),
        }),
    }
}

/// Resolve the `bias=` knob for a scheme: `None` picks
/// [`FailureBias::auto`] for the deployment/model, `Some(1.0)` forces
/// direct simulation, any other multiplier biases the degraded state.
fn resolve_bias(bias: Option<f64>, dep: &MlecDeployment, model: &FailureModel) -> FailureBias {
    match bias {
        None => FailureBias::auto(dep, model),
        Some(1.0) => FailureBias::NONE,
        Some(b) => FailureBias::degraded_only(b),
    }
}

/// The context's runner options plus the figure-local `trace=` knob: a
/// non-empty value streams per-trial JSONL event logs to that path.
fn runner_with_event_log(
    ctx: &ExperimentCtx,
    trace: &str,
    out: &mut ExperimentOutput,
) -> RunnerOpts {
    let mut runner = ctx.runner.clone();
    if !trace.is_empty() {
        runner.event_log = Some(std::path::PathBuf::from(trace));
        w!(
            out.text,
            "event log: streaming per-trial JSONL to {trace}\n"
        );
    }
    runner
}

/// One scheme's stage-1 pool campaign as Fig 7 and Fig 10 `mode=sim` both
/// run it.
struct Stage1Campaign {
    /// The scheme's paper deployment at the campaign's AFR.
    dep: MlecDeployment,
    /// The resolved importance-sampling bias.
    bias: FailureBias,
    s1: mlec_analysis::splitting::Stage1,
    report: mlec_runner::RunReport<mlec_sim::trials::PoolAcc>,
}

/// Run the stage-1 pool-simulation campaign of every scheme through
/// `mlec-runner` under the run labels `<fig>/<scheme>`. With importance
/// sampling (`bias = None` for auto, or an explicit degraded-state
/// multiplier) stage-1 events are observable at the paper's true 1% AFR.
fn stage1_campaigns(
    fig: &str,
    afr: f64,
    years_per_trial: f64,
    trials: u64,
    seed: u64,
    bias: Option<f64>,
    opts: &RunnerOpts,
) -> std::io::Result<Vec<Stage1Campaign>> {
    let sink = match &opts.event_log {
        Some(path) => Some(mlec_sim::trials::EventLogSink::to_file(path)?),
        None => None,
    };
    let model = FailureModel::Exponential { afr };
    let mut out = Vec::new();
    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        let bias = resolve_bias(bias, &dep, &model);
        // The trial budget is a stop rule, not run identity: trial seeds
        // depend only on (root seed, label, index), so extending `trials`
        // must resume an existing manifest rather than refuse it. The
        // resolved bias multiplier IS run identity (it changes every trial
        // result), so it goes into the hash — per scheme, because auto
        // bias differs across schemes.
        let config_hash = Json::obj(vec![
            ("afr", Json::F64(afr)),
            ("years_per_trial", Json::F64(years_per_trial)),
            ("bias_degraded", Json::F64(bias.degraded)),
        ])
        .fingerprint();
        let run_label = format!("{fig}/{}", scheme.name().replace('/', ""));
        let spec = opts.run_spec(&run_label, seed, StopRule::fixed(trials), config_hash);
        let (s1, report) = mlec_analysis::splitting::stage1_via_runner_logged(
            &dep,
            &model,
            years_per_trial,
            bias,
            &spec,
            sink.as_ref(),
        )?;
        out.push(Stage1Campaign {
            dep,
            bias,
            s1,
            report,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------- fig07

declare_experiment! {
    FIG07(run_fig07, Fig07Params {
        afr_pct: f64 = "1", "annual disk failure rate, percent (mode=sim)";
        years: u64 = "20", "simulated years per pool trial (mode=sim)";
        trials: u64 = "64", "pool trials per scheme (mode=sim)";
        seed: u64 = "42", "root RNG seed (mode=sim)";
        bias: String = "auto",
            "degraded-state failure acceleration: auto, 1 (direct), or a multiplier (mode=sim)";
        trace: String = "",
            "write per-trial JSONL event logs to this path (mode=sim; empty = off)";
    }) {
        name: "fig07",
        title: "Figure 7",
        description: "probability of catastrophic local failure (per system-year)",
        paper_ref: "§4.2, Fig 7",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: &[("trials", "8"), ("years", "25")],
    }
}

fn run_fig07(ctx: &ExperimentCtx, p: &Fig07Params) -> Result<ExperimentOutput, ExperimentError> {
    if ctx.mode == Mode::Sim {
        return run_fig07_sim(ctx, p);
    }
    let mut out = ExperimentOutput::new();
    let rows = fig7_catastrophic_prob();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                fmt_value(r.prob_per_year),
                format!("{:.4}%", r.prob_per_year * 100.0),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(&["scheme", "prob/yr", "percent/yr"], &table)
    );
    w!(
        out.text,
        "paper: C/C and D/C below 0.001%/yr; C/D and D/D almost 0.00001%/yr"
    );
    out.artifact("fig07", &rows);
    Ok(out)
}

/// Fig 7 `mode=sim`: measure each scheme's catastrophic-pool rate by pool
/// simulation through `mlec-runner`. Both columns use the campaign's AFR,
/// so the sim-vs-analytic comparison stays valid.
fn run_fig07_sim(
    ctx: &ExperimentCtx,
    p: &Fig07Params,
) -> Result<ExperimentOutput, ExperimentError> {
    let afr = p.afr_pct / 100.0;
    let years = p.years as f64;
    let (trials, seed) = (p.trials, p.seed);
    let bias = parse_bias(&p.bias)?;
    let mut out = ExperimentOutput::new();
    let bias_desc = match bias {
        None => "auto".to_string(),
        Some(b) => format!("{b}"),
    };
    w!(
        out.text,
        "sim mode: AFR {afr}, {trials} pool trials x {years} years per scheme, \
         bias {bias_desc}, root seed {seed}\n"
    );
    let runner = runner_with_event_log(ctx, &p.trace, &mut out);
    let mut rows = Vec::new();
    for c in stage1_campaigns("fig07", afr, years, trials, seed, bias, &runner)? {
        let pools = c.dep.local_pools().num_pools() as f64;
        let acc = &c.report.acc;
        rows.push(CatastrophicSimRow {
            scheme: c.dep.scheme.name(),
            rate_per_pool_year: c.s1.cat_rate_per_pool_year,
            rate_ci_low: c.report.summary.ci_low,
            rate_ci_high: c.report.summary.ci_high,
            prob_per_system_year: -(-c.s1.cat_rate_per_pool_year * pools).exp_m1(),
            analytic_prob_per_system_year: -(-system_catastrophic_rate(&c.dep).to_per_year())
                .exp_m1(),
            events: acc.events(),
            weighted_events: acc.rate.weighted_events(),
            ess: acc.rate.ess(),
            mean_weight: acc.mean_excursion_weight(),
            bias: c.bias.degraded,
            pool_years: acc.pool_years(),
            degraded_frac: acc.degraded_fraction(),
            unobserved: c.s1.unobserved,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{}/{:.0}y", r.events, r.pool_years),
                format!("{:.0}", r.bias),
                format!("{:.1}", r.ess),
                if r.unobserved {
                    format!("<{}", fmt_value(r.rate_per_pool_year))
                } else {
                    fmt_value(r.rate_per_pool_year)
                },
                format!(
                    "[{}, {}]",
                    fmt_value(r.rate_ci_low),
                    fmt_value(r.rate_ci_high)
                ),
                if r.unobserved {
                    format!("<{}", fmt_value(r.prob_per_system_year))
                } else {
                    fmt_value(r.prob_per_system_year)
                },
                fmt_value(r.analytic_prob_per_system_year),
                format!("{:.2e}", r.degraded_frac),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &[
                "scheme",
                "events",
                "bias",
                "ESS",
                "rate/pool-yr",
                "95% CI",
                "sim prob/sys-yr",
                "chain prob/sys-yr",
                "degraded"
            ],
            &table
        )
    );
    w!(
        out.text,
        "reading: rates are likelihood-ratio reweighted (unbiased at any bias); ESS is"
    );
    w!(
        out.text,
        "the effective sample size of the weighted events. `<x` marks a zero-event"
    );
    w!(
        out.text,
        "campaign reporting the Poisson 95% upper bound instead of a point estimate;"
    );
    w!(
        out.text,
        "where events > 0 the chain prediction should sit inside (or near) the CI."
    );
    out.artifact("fig07_sim", &rows);
    Ok(out)
}

// ---------------------------------------------------------------- fig10

declare_experiment! {
    FIG10(run_fig10, Fig10Params {
        afr_pct: f64 = "1", "annual disk failure rate, percent (mode=sim)";
        years: u64 = "20", "simulated years per pool trial (mode=sim)";
        trials: u64 = "64", "pool trials per scheme (mode=sim)";
        seed: u64 = "42", "root RNG seed (mode=sim)";
        bias: String = "auto",
            "degraded-state failure acceleration: auto, 1 (direct), or a multiplier (mode=sim)";
        require_events: u64 = "0",
            "fail (non-zero exit) unless every scheme observed this many events (mode=sim)";
        trace: String = "",
            "write per-trial JSONL event logs to this path (mode=sim; empty = off)";
    }) {
        name: "fig10",
        title: "Figure 10",
        description: "durability (nines) per scheme and repair method",
        paper_ref: "§4.3, Fig 10",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: &[("trials", "8"), ("years", "25")],
    }
}

fn run_fig10(ctx: &ExperimentCtx, p: &Fig10Params) -> Result<ExperimentOutput, ExperimentError> {
    if ctx.mode == Mode::Sim {
        return run_fig10_sim(ctx, p);
    }
    let mut out = ExperimentOutput::new();
    let cells = fig10_durability();
    let table = method_by_scheme_table(
        &RepairMethod::PAPER,
        &cells,
        |c| (&c.scheme, &c.method),
        |c| format!("{:.1}", c.nines),
    );
    w!(out.text, "{table}");
    w!(
        out.text,
        "paper: R_FCO +0.9-6.6 nines over R_ALL; R_HYB +0.6-4.1; R_MIN +0.1-1.2;"
    );
    w!(
        out.text,
        "       after optimization C/D and D/D best, D/C worst"
    );
    out.artifact("fig10", &cells);
    Ok(out)
}

/// Fig 10 `mode=sim`: the splitting estimator with stage 1 *measured* by a
/// runner-driven pool-simulation campaign (one per scheme, shared across
/// repair methods) instead of the pool Markov chain. The analytic column
/// uses the same AFR, so the two stage-1 variants are directly comparable.
fn run_fig10_sim(
    ctx: &ExperimentCtx,
    p: &Fig10Params,
) -> Result<ExperimentOutput, ExperimentError> {
    let afr = p.afr_pct / 100.0;
    let years = p.years as f64;
    let (trials, seed, require_events) = (p.trials, p.seed, p.require_events);
    let bias = parse_bias(&p.bias)?;
    let mut out = ExperimentOutput::new();
    let bias_desc = match bias {
        None => "auto".to_string(),
        Some(b) => format!("{b}"),
    };
    w!(
        out.text,
        "sim mode: AFR {afr}, stage 1 from {trials} pool trials x {years} years per scheme,"
    );
    w!(
        out.text,
        "bias {bias_desc}, root seed {seed}; cells show nines as sim-stage1 (analytic-stage1);"
    );
    w!(
        out.text,
        "`>=x` marks a zero-event durability lower bound\n"
    );
    let runner = runner_with_event_log(ctx, &p.trace, &mut out);
    let mut cells = Vec::new();
    for c in stage1_campaigns("fig10", afr, years, trials, seed, bias, &runner)? {
        let s1_analytic = stage1_analytic(&c.dep);
        let acc = &c.report.acc;
        for method in RepairMethod::PAPER {
            cells.push(DurabilitySimCell {
                scheme: c.dep.scheme.name(),
                method: method.name().to_string(),
                nines_sim_stage1: nines(
                    stage2_pdl(&c.dep, method, &c.s1, Duration::from_years(1.0)).max(1e-300),
                ),
                nines_analytic_stage1: nines(
                    stage2_pdl(&c.dep, method, &s1_analytic, Duration::from_years(1.0)).max(1e-300),
                ),
                events: acc.events(),
                weighted_events: acc.rate.weighted_events(),
                ess: acc.rate.ess(),
                bias: c.bias.degraded,
                pool_years: acc.pool_years(),
                degraded_frac: acc.degraded_fraction(),
                unobserved: c.s1.unobserved,
            });
        }
    }
    let table = method_by_scheme_table(
        &RepairMethod::PAPER,
        &cells,
        |c| (&c.scheme, &c.method),
        |c| {
            format!(
                "{}{:.1} ({:.1})",
                if c.unobserved { ">=" } else { "" },
                c.nines_sim_stage1,
                c.nines_analytic_stage1
            )
        },
    );
    w!(out.text, "{table}");
    let schemes = MlecScheme::ALL.map(|s| s.name());
    for s in &schemes {
        if let Some(c) = cells.iter().find(|c| c.scheme == *s) {
            w!(
                out.text,
                "  {s}: {} events ({:.3e} weighted, ESS {:.1}) over {:.0} pool-years, \
                 bias {:.0}, degraded {:.2e}{}",
                c.events,
                c.weighted_events,
                c.ess,
                c.pool_years,
                c.bias,
                c.degraded_frac,
                if c.unobserved {
                    " — unobserved: nines are the Poisson 95% lower bound"
                } else {
                    ""
                }
            );
        }
    }
    w!(
        out.text,
        "\nreading: stage-1 rates are likelihood-ratio reweighted, so the sim column is"
    );
    w!(
        out.text,
        "unbiased at any bias; ESS is the effective sample size of the weighted events."
    );
    w!(
        out.text,
        "Zero-event schemes report a durability lower bound (never infinite nines)."
    );
    out.artifact("fig10_sim", &cells);
    if require_events > 0 {
        for s in &schemes {
            if let Some(c) = cells.iter().find(|c| c.scheme == *s) {
                if c.events < require_events {
                    out.gate_failures.push(format!(
                        "require_events={require_events}: {s} observed only {} events",
                        c.events
                    ));
                }
            }
        }
        if out.gate_failures.is_empty() {
            w!(
                out.text,
                "require_events={require_events}: satisfied for all schemes"
            );
        }
    }
    Ok(out)
}

// ----------------------------------------------------------- validation

struct ValidationRow {
    scheme: String,
    afr: f64,
    direct_loss_runs: u64,
    total_runs: u64,
    direct_pdl: f64,
    wilson_low: f64,
    wilson_high: f64,
    splitting_pdl: f64,
    catastrophic_pools_simulated: u64,
}

impl_to_json!(ValidationRow {
    scheme,
    afr,
    direct_loss_runs,
    total_runs,
    direct_pdl,
    wilson_low,
    wilson_high,
    splitting_pdl,
    catastrophic_pools_simulated,
});

declare_experiment! {
    VALIDATION(run_validation, ValidationParams {
        afr_pct: f64 = "75", "inflated AFR percent (data loss must be observable)";
        years: f64 = "2", "mission length in years per run";
        runs: u64 = "40", "whole-system runs per scheme";
        seed: u64 = "42", "root RNG seed";
    }) {
        name: "validation",
        title: "Validation",
        description: "direct system simulation vs splitting estimator at inflated AFR",
        paper_ref: "§6.2 (methodology cross-validation)",
        modes: &[Mode::Sim],
        fast: &[("runs", "4")],
    }
}

fn run_validation(
    ctx: &ExperimentCtx,
    p: &ValidationParams,
) -> Result<ExperimentOutput, ExperimentError> {
    use mlec_sim::system_sim::SystemSimOptions;
    use mlec_sim::trials::SystemTrial;

    let afr = p.afr_pct / 100.0;
    let (years, runs, seed) = (p.years, p.runs, p.seed);
    let mut out = ExperimentOutput::new();
    w!(
        out.text,
        "AFR {afr}, mission {years} years, {runs} runs per scheme, root seed {seed}\n"
    );

    let config_hash = Json::obj(vec![
        ("afr", Json::F64(afr)),
        ("years", Json::F64(years)),
        ("runs", Json::U64(runs)),
    ])
    .fingerprint();

    let model = FailureModel::Exponential { afr };
    let deployments = MlecScheme::ALL.map(|scheme| {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        dep
    });
    // The four schemes' campaigns run side by side; their rows and resume
    // notes are rendered in scheme order.
    let reports = mlec_runner::fan_out(deployments.len(), ctx.runner.threads, |index, threads| {
        let dep = &deployments[index];
        let trial = SystemTrial {
            dep,
            model: &model,
            strategy: RepairMethod::Fco,
            years,
            opts: SystemSimOptions::default(),
            event_log: None,
            log_label: "",
        };
        let label = format!("validation/{}", dep.scheme.name().replace('/', ""));
        let spec = ctx
            .runner
            .run_spec(&label, seed, StopRule::fixed(runs), config_hash)
            .threads(threads);
        mlec_runner::run(&trial, &spec).map(|report| (label, report))
    });
    let mut rows = Vec::new();
    for (dep, report) in deployments.iter().zip(reports) {
        let (label, report) = report?;
        if report.resumed_trials > 0 {
            w!(
                out.text,
                "  [{label}: resumed {} of {} trials from manifest]",
                report.resumed_trials,
                report.trials
            );
        }

        let s1 = stage1_analytic(dep);
        let splitting_pdl = stage2_pdl(dep, RepairMethod::Fco, &s1, Duration::from_years(years));
        let summary = report.summary;
        rows.push(ValidationRow {
            scheme: dep.scheme.name(),
            afr,
            direct_loss_runs: report.acc.loss.hits(),
            total_runs: report.trials,
            direct_pdl: summary.mean,
            wilson_low: summary.ci_low,
            wilson_high: summary.ci_high,
            splitting_pdl,
            catastrophic_pools_simulated: report.acc.catastrophic_pools,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{}/{}", r.direct_loss_runs, r.total_runs),
                fmt_value(r.direct_pdl),
                format!(
                    "[{}, {}]",
                    fmt_value(r.wilson_low),
                    fmt_value(r.wilson_high)
                ),
                fmt_value(r.splitting_pdl),
                format!("{:.1}", nines(r.splitting_pdl.max(1e-300))),
                r.catastrophic_pools_simulated.to_string(),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &[
                "scheme",
                "losses",
                "direct PDL",
                "wilson 95%",
                "splitting PDL",
                "nines",
                "cat pools"
            ],
            &table
        )
    );
    w!(
        out.text,
        "reading: where direct PDL is measurable but < 1, splitting should agree within"
    );
    w!(
        out.text,
        "an order of magnitude; splitting saturates to 1 earlier because its Poisson"
    );
    w!(
        out.text,
        "overlap formula is an upper bound outside the rare-event regime it serves"
    );
    w!(
        out.text,
        "(at the paper's 1% AFR, overlaps are ~20 orders rarer and the bound is tight)."
    );
    out.artifact("validation_direct_sim", &rows);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_magnitudes() {
        let rows = fig7_catastrophic_prob();
        let cc = rows.iter().find(|r| r.scheme == "C/C").unwrap();
        let cd = rows.iter().find(|r| r.scheme == "C/D").unwrap();
        assert!(cc.prob_per_year < 1e-4, "cc={}", cc.prob_per_year);
        assert!(cd.prob_per_year < cc.prob_per_year / 20.0);
    }

    #[test]
    fn fig10_matrix_complete() {
        let cells = fig10_durability();
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|c| c.nines > 5.0));
    }
}
