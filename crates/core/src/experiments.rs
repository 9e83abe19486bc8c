//! One runner per paper table/figure. Each returns a result the `mlec`
//! driver prints (and dumps as JSON under `target/figures/`),
//! and that EXPERIMENTS.md's paper-vs-measured records come from.
//!
//! Every Monte Carlo surface here executes through `mlec-runner`: a heatmap
//! is one deterministic [`GridTrial`] run per scheme (trial index → grid
//! cell, per-trial seeds from the run's seed stream), so cell estimates are
//! bit-identical across thread counts and can checkpoint/resume via JSONL
//! manifests.

use mlec_analysis::burst::{
    lrc_burst_sample, lrc_undecodable_by_count, mlec_burst_sample, slec_burst_sample,
};
use mlec_analysis::chains::system_catastrophic_rate;
use mlec_analysis::splitting::mlec_durability_nines;
use mlec_analysis::tradeoff::{
    enumerate_lrc, enumerate_mlec, enumerate_slec, ideal_lrc_undecodable_at_limit, TradeoffPoint,
    OVERHEAD_BAND,
};
use mlec_ec::throughput::{measure_slec, ThroughputModel};
use mlec_ec::{Lrc, LrcParams, SlecParams};
use mlec_runner::{run_with, trial_rng, GridOrder, GridTrial, HitTrial, Json, RunSpec, StopRule};
use mlec_sim::bandwidth::{
    catastrophic_pool_repair_bw, catastrophic_pool_repair_time, repair_sizes,
    single_disk_repair_bw, single_disk_repair_time,
};
use mlec_sim::config::MlecDeployment;
use mlec_sim::importance::FailureBias;
use mlec_sim::repair::{plan_catastrophic_repair, RepairMethod};
use mlec_sim::traffic;
use mlec_sim::SimConfig;
use mlec_topology::{Geometry, MlecScheme, SlecPlacement};
use std::path::PathBuf;

/// A PDL heatmap: `pdl[yi][xi]` for failures `ys[yi]` over racks `xs[xi]`.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Series/scheme label.
    pub label: String,
    /// X axis: affected racks.
    pub xs: Vec<u32>,
    /// Y axis: failed disks.
    pub ys: Vec<u32>,
    /// `pdl[yi][xi]`; cells with `y < x` are impossible and set to NaN.
    pub pdl: Vec<Vec<f64>>,
    /// Conditional-MC trials actually executed (less than the full budget
    /// when an adaptive precision target fired).
    pub trials: u64,
}

/// Grid resolution of a heatmap run.
#[derive(Debug, Clone, Copy)]
pub struct HeatmapSpec {
    /// Maximum failures / racks (the paper uses 60).
    pub max: u32,
    /// Step between grid lines (e.g. 6 gives a 10x10 grid).
    pub step: u32,
    /// Conditional-MC samples per cell (an upper bound when `rel_err` is
    /// set).
    pub samples: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Adaptive precision target: stop when the pooled grid estimate
    /// reaches this relative standard error ([`StopRule::until_rel_err`]).
    /// Cells are then sampled interleaved (one sweep of the grid per pass)
    /// so every cell keeps an equal share of the spent budget. `None` runs
    /// the fixed per-cell budget in blocked order.
    pub rel_err: Option<f64>,
    /// Minimum samples per cell before an adaptive stop may fire.
    pub min_samples: u32,
}

impl Default for HeatmapSpec {
    fn default() -> HeatmapSpec {
        HeatmapSpec {
            max: 60,
            step: 6,
            samples: 60,
            seed: 42,
            rel_err: None,
            min_samples: 8,
        }
    }
}

impl HeatmapSpec {
    /// Grid lines: always dense over 1..=6 (the paper's PDL structure pivots
    /// at `x = p_n + 1` racks), then stepped up to `max`. Total for every
    /// `max` and `step`: no sum can leave `u32`.
    fn axis(&self) -> Vec<u32> {
        let mut v: Vec<u32> = (1..=self.max.min(6)).collect();
        let stepped = (6..self.max).step_by(self.step.max(1) as usize);
        v.extend(stepped.skip(1));
        // The last line is `max`, which the dense part already ends on
        // when `max <= 6`.
        v.push(self.max);
        v.dedup();
        v
    }
}

/// Execution options for runner-driven heatmaps: worker threads and
/// (optionally) a directory for per-map JSONL manifests so an interrupted
/// sweep resumes where it stopped.
#[derive(Debug, Clone, Default)]
pub struct HeatmapRunOpts {
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
    /// Directory for run manifests; `None` disables checkpointing.
    pub manifest_dir: Option<PathBuf>,
    /// Path for a per-trial JSONL event log (`trace=` knob on the sim
    /// figures); `None` disables event logging. Logging never perturbs the
    /// simulation — results are bit-identical either way.
    pub event_log: Option<PathBuf>,
}

impl HeatmapRunOpts {
    /// The [`RunSpec`] of one figure campaign: the run's identity (`label`,
    /// `seed`, `config_hash`) and stop rule under these options' thread
    /// count, checkpointing to `<manifest_dir>/<label with / as ->.jsonl`
    /// when a manifest directory is set.
    pub(crate) fn run_spec(
        &self,
        label: &str,
        seed: u64,
        stop: StopRule,
        config_hash: u64,
    ) -> RunSpec {
        let spec = RunSpec::new(label, seed, stop)
            .threads(self.threads)
            .config_hash(config_hash);
        match &self.manifest_dir {
            Some(dir) => spec.manifest(dir.join(format!("{}.jsonl", label.replace('/', "-")))),
            None => spec,
        }
    }

    /// Open the configured event-log sink, if any.
    fn event_log_sink(&self) -> std::io::Result<Option<mlec_sim::trials::EventLogSink>> {
        match &self.event_log {
            Some(path) => Ok(Some(mlec_sim::trials::EventLogSink::to_file(path)?)),
            None => Ok(None),
        }
    }
}

/// One heatmap as one deterministic runner campaign: feasible `(y, x)`
/// cells are flattened in row-major order, trial `i` draws one
/// conditional-MC sample of cell `i / samples`, and the per-cell Welford
/// means become the PDL matrix (`y < x` cells stay NaN: impossible burst).
fn run_heatmap(
    display_label: String,
    run_label: &str,
    spec: &HeatmapSpec,
    opts: &HeatmapRunOpts,
    config_hash: u64,
    sample: impl Fn(u32, u32, &mut mlec_runner::TrialRng) -> f64 + Sync,
) -> Heatmap {
    let xs = spec.axis();
    let ys = spec.axis();
    let cells: Vec<(u32, u32)> = ys
        .iter()
        .flat_map(|&y| xs.iter().filter(move |&&x| y >= x).map(move |&x| (y, x)))
        .collect();

    let trial = GridTrial {
        cells: cells.len(),
        samples_per_cell: spec.samples as u64,
        order: match spec.rel_err {
            Some(_) => GridOrder::Interleaved,
            None => GridOrder::Blocked,
        },
        f: |cell: usize, seed: u64| {
            let (y, x) = cells[cell];
            let mut rng = trial_rng(seed);
            sample(y, x, &mut rng)
        },
    };
    let stop = match spec.rel_err {
        Some(rel) => StopRule::until_rel_err(
            rel,
            cells.len() as u64 * spec.min_samples.min(spec.samples) as u64,
            trial.total_trials(),
        ),
        None => StopRule::fixed(trial.total_trials()),
    };
    let run_spec = opts.run_spec(run_label, spec.seed, stop, config_hash);
    let report = run_with(&trial, &run_spec, trial.empty()).expect("heatmap run");

    let mut pdl = vec![vec![f64::NAN; xs.len()]; ys.len()];
    let mut yi_of = std::collections::BTreeMap::new();
    for (yi, &y) in ys.iter().enumerate() {
        yi_of.insert(y, yi);
    }
    let mut xi_of = std::collections::BTreeMap::new();
    for (xi, &x) in xs.iter().enumerate() {
        xi_of.insert(x, xi);
    }
    for (cell, &(y, x)) in cells.iter().enumerate() {
        pdl[yi_of[&y]][xi_of[&x]] = report.acc.cell(cell).mean();
    }
    Heatmap {
        label: display_label,
        xs,
        ys,
        pdl,
        trials: report.trials,
    }
}

fn heatmap_config_hash(spec: &HeatmapSpec, extra: &str) -> u64 {
    let mut fields = vec![
        ("max", Json::U64(spec.max as u64)),
        ("step", Json::U64(spec.step as u64)),
    ];
    match spec.rel_err {
        // Fixed budget: `samples` is run identity (blocked order maps
        // trial index -> cell through it).
        None => fields.push(("samples", Json::U64(spec.samples as u64))),
        // Adaptive: the budget is a stop rule, not identity (a resumed run
        // may extend it), but the interleaved index -> cell mapping is.
        Some(_) => fields.push(("order", Json::Str("interleaved".to_string()))),
    }
    fields.push(("extra", Json::Str(extra.to_string())));
    Json::obj(fields).fingerprint()
}

/// Fig 5: PDL heatmaps of the four MLEC schemes under correlated bursts,
/// run with the given runner options (threads, manifests).
pub fn fig5_mlec_burst_with(spec: &HeatmapSpec, opts: &HeatmapRunOpts) -> Vec<Heatmap> {
    MlecScheme::ALL
        .into_iter()
        .map(|scheme| {
            let dep = MlecDeployment::paper_default(scheme);
            let run_label = format!("fig05/{}", scheme.name().replace('/', ""));
            run_heatmap(
                scheme.name(),
                &run_label,
                spec,
                opts,
                heatmap_config_hash(spec, &scheme.name()),
                |y, x, rng| mlec_burst_sample(&dep, y, x, rng),
            )
        })
        .collect()
}

/// One row of Table 2 / Fig 6.
#[derive(Debug, Clone)]
pub struct RepairBandwidthRow {
    /// Scheme label.
    pub scheme: String,
    /// Single-disk repair size, TB.
    pub disk_size_tb: f64,
    /// Single-disk available repair bandwidth, MB/s.
    pub disk_bw_mbs: f64,
    /// Catastrophic-pool repair size, TB.
    pub pool_size_tb: f64,
    /// Catastrophic-pool available repair bandwidth, MB/s.
    pub pool_bw_mbs: f64,
    /// Fig 6a: single-disk repair time, hours.
    pub disk_repair_hours: f64,
    /// Fig 6b: catastrophic-pool repair time (`R_ALL`), hours.
    pub pool_repair_hours: f64,
}

/// Table 2 + Fig 6: repair sizes, bandwidths, and times per scheme.
pub fn table2_and_fig6() -> Vec<RepairBandwidthRow> {
    MlecScheme::ALL
        .into_iter()
        .map(|scheme| {
            let dep = MlecDeployment::paper_default(scheme);
            let (disk, pool) = repair_sizes(&dep);
            let (disk_tb, pool_tb) = (disk.to_tb(), pool.to_tb());
            RepairBandwidthRow {
                scheme: scheme.name(),
                disk_size_tb: disk_tb,
                disk_bw_mbs: single_disk_repair_bw(&dep).to_mbs(),
                pool_size_tb: pool_tb,
                pool_bw_mbs: catastrophic_pool_repair_bw(&dep).to_mbs(),
                disk_repair_hours: single_disk_repair_time(&dep).to_hours(),
                pool_repair_hours: catastrophic_pool_repair_time(&dep).to_hours(),
            }
        })
        .collect()
}

/// Fig 7: probability of a catastrophic local failure per system-year.
#[derive(Debug, Clone)]
pub struct CatastrophicProbRow {
    /// Scheme label.
    pub scheme: String,
    /// Catastrophic local-pool probability per system-year.
    pub prob_per_year: f64,
}

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
pub struct CatastrophicSimRow {
    /// Scheme label.
    pub scheme: String,
    /// Simulated (weighted) catastrophic events per pool-year; the Poisson
    /// 95% upper bound when `unobserved` is set.
    pub rate_per_pool_year: f64,
    /// 95% interval on the rate (compound-Poisson statistics).
    pub rate_ci_low: f64,
    pub rate_ci_high: f64,
    /// Catastrophic probability per system-year implied by the rate.
    pub prob_per_system_year: f64,
    /// Analytic (Markov-chain) counterpart at the same AFR, for comparison.
    pub analytic_prob_per_system_year: f64,
    /// Catastrophic events observed (raw count).
    pub events: u64,
    /// Likelihood-weighted event total (equals `events` when unbiased).
    pub weighted_events: f64,
    /// Effective sample size of the weighted events.
    pub ess: f64,
    /// Mean likelihood weight per excursion (≈1 when correctly weighted).
    pub mean_weight: f64,
    /// Importance-sampling multiplier applied while the pool was degraded.
    pub bias: f64,
    /// Pool-years simulated.
    pub pool_years: f64,
    /// Fraction of simulated time the pool spent degraded (≥1 disk failed).
    pub degraded_frac: f64,
    /// True when zero events were observed and the rate is an upper bound.
    pub unobserved: bool,
}

/// Resolve the `bias=` knob for a scheme: `None` picks
/// [`FailureBias::auto`] for the deployment/model, `Some(1.0)` forces
/// direct simulation, any other multiplier biases the degraded state.
fn resolve_bias(
    bias: Option<f64>,
    dep: &MlecDeployment,
    model: &mlec_sim::failure::FailureModel,
) -> FailureBias {
    match bias {
        None => FailureBias::auto(dep, model),
        Some(1.0) => FailureBias::NONE,
        Some(b) => FailureBias::degraded_only(b),
    }
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
/// `mlec-runner` under the run labels `<fig>/<scheme>`.
fn stage1_campaigns(
    fig: &str,
    afr: f64,
    years_per_trial: f64,
    trials: u64,
    seed: u64,
    bias: Option<f64>,
    opts: &HeatmapRunOpts,
) -> std::io::Result<Vec<Stage1Campaign>> {
    let sink = opts.event_log_sink()?;
    let model = mlec_sim::failure::FailureModel::Exponential { afr };
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

/// Fig 7 `mode=sim`: measure each scheme's catastrophic-pool rate by
/// pool simulation through `mlec-runner`. With importance sampling
/// (`bias = None` for auto, or an explicit degraded-state multiplier) this
/// works at the paper's true 1% AFR; both columns use the same AFR, so the
/// sim-vs-analytic comparison stays valid.
pub fn fig7_catastrophic_prob_sim(
    afr: f64,
    years_per_trial: f64,
    trials: u64,
    seed: u64,
    bias: Option<f64>,
    opts: &HeatmapRunOpts,
) -> std::io::Result<Vec<CatastrophicSimRow>> {
    let mut out = Vec::new();
    for c in stage1_campaigns("fig07", afr, years_per_trial, trials, seed, bias, opts)? {
        let pools = c.dep.local_pools().num_pools() as f64;
        let acc = &c.report.acc;
        out.push(CatastrophicSimRow {
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
    Ok(out)
}

/// One (scheme, method) cell of Fig 8 / Fig 9.
#[derive(Debug, Clone)]
pub struct RepairMethodCell {
    /// Scheme label.
    pub scheme: String,
    /// Method label.
    pub method: String,
    /// Fig 8: cross-rack traffic, TB.
    pub cross_rack_tb: f64,
    /// Fig 9 solid bar: network repair time, hours.
    pub network_time_h: f64,
    /// Fig 9 striped bar: local repair time, hours.
    pub local_time_h: f64,
}

/// Fig 8 + Fig 9: repair traffic and times for `methods` × schemes
/// (`&RepairMethod::PAPER` is the exact paper reproduction; the `method=`
/// registry parameter may add the beyond-the-paper methods).
pub fn fig8_fig9_repair_methods(methods: &[RepairMethod]) -> Vec<RepairMethodCell> {
    let mut out = Vec::new();
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        for &method in methods {
            let plan = plan_catastrophic_repair(&dep, method);
            out.push(RepairMethodCell {
                scheme: scheme.name(),
                method: method.name().to_string(),
                cross_rack_tb: plan.cross_rack_traffic_tb,
                network_time_h: plan.network_time_h,
                local_time_h: plan.local_time_h,
            });
        }
    }
    out
}

/// One (scheme, method) cell of Fig 8 / Fig 9 `mode=sim`: the analytic
/// repair plan next to per-catastrophic-pool traffic and sojourn measured
/// by whole-system simulation at an inflated AFR.
#[derive(Debug, Clone)]
pub struct RepairMethodSimCell {
    /// Scheme label.
    pub scheme: String,
    /// Method label.
    pub method: String,
    /// Analytic plan: cross-rack traffic per catastrophic pool, TB.
    pub plan_cross_rack_tb: f64,
    /// Analytic plan: network repair time per catastrophic pool, hours.
    pub plan_network_time_h: f64,
    /// Measured: mean cross-rack traffic per catastrophic pool, TB.
    pub sim_cross_rack_tb: f64,
    /// Measured: mean network-repair sojourn per catastrophic pool, hours.
    pub sim_network_time_h: f64,
    /// Catastrophic pools observed across all missions.
    pub catastrophic_pools: u64,
    /// Missions simulated.
    pub missions: u64,
}

/// Fig 8 + Fig 9 `mode=sim`: measure per-catastrophic-pool repair traffic
/// and sojourn by running whole-system missions through `mlec-runner` (one
/// campaign per scheme × method, at an AFR inflated enough to observe
/// catastrophic pools directly). The analytic plan of
/// [`fig8_fig9_repair_methods`] sits beside the measurement; they must
/// agree because the simulator charges repairs from the same plan — the
/// sim columns confirm the event accounting, catastrophe frequencies and
/// determinism of the pipeline, not an independent physical model.
pub fn fig8_fig9_repair_methods_sim(
    afr: f64,
    years_per_trial: f64,
    trials: u64,
    seed: u64,
    methods: &[RepairMethod],
    opts: &HeatmapRunOpts,
) -> std::io::Result<Vec<RepairMethodSimCell>> {
    let mut out = Vec::new();
    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        let model = mlec_sim::failure::FailureModel::Exponential { afr };
        for &method in methods {
            let plan = plan_catastrophic_repair(&dep, method);
            let trial = mlec_sim::trials::SystemTrial {
                dep: &dep,
                model: &model,
                strategy: method,
                years: years_per_trial,
                opts: mlec_sim::system_sim::SystemSimOptions::default(),
                event_log: None,
                log_label: "",
            };
            // Trial budget excluded (a resumed run may extend it), the
            // physics included — see stage1_campaigns.
            let config_hash = Json::obj(vec![
                ("afr", Json::F64(afr)),
                ("years_per_trial", Json::F64(years_per_trial)),
                ("method", Json::Str(method.name().to_string())),
            ])
            .fingerprint();
            let run_label = format!("fig08/{}-{}", scheme.name().replace('/', ""), method.name());
            let spec = opts.run_spec(&run_label, seed, StopRule::fixed(trials), config_hash);
            let report = mlec_runner::run(&trial, &spec)?;
            let acc = &report.acc;
            let cat = acc.catastrophic_pools;
            let missions = report.trials;
            let total_traffic = acc.cross_rack_traffic_tb.mean() * missions as f64;
            let total_sojourn = acc.total_sojourn_h.mean() * missions as f64;
            out.push(RepairMethodSimCell {
                scheme: scheme.name(),
                method: method.name().to_string(),
                plan_cross_rack_tb: plan.cross_rack_traffic_tb,
                plan_network_time_h: plan.network_time_h,
                sim_cross_rack_tb: if cat > 0 {
                    total_traffic / cat as f64
                } else {
                    f64::NAN
                },
                sim_network_time_h: if cat > 0 {
                    total_sojourn / cat as f64
                } else {
                    f64::NAN
                },
                catastrophic_pools: cat,
                missions,
            });
        }
    }
    Ok(out)
}

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
pub struct DurabilitySimCell {
    /// Scheme label.
    pub scheme: String,
    /// Method label.
    pub method: String,
    /// One-year durability (nines) with the simulated stage-1 rate; a
    /// durability *lower bound* when `unobserved` is set.
    pub nines_sim_stage1: f64,
    /// One-year durability (nines) with the analytic stage-1 rate.
    pub nines_analytic_stage1: f64,
    /// Catastrophic events observed in stage 1 (raw count).
    pub events: u64,
    /// Likelihood-weighted event total (equals `events` when unbiased).
    pub weighted_events: f64,
    /// Effective sample size of the weighted events.
    pub ess: f64,
    /// Importance-sampling multiplier applied while the pool was degraded.
    pub bias: f64,
    /// Pool-years simulated in stage 1.
    pub pool_years: f64,
    /// Fraction of stage-1 simulated time the pool spent degraded.
    pub degraded_frac: f64,
    /// True when stage 1 observed zero events (sim nines are a lower bound
    /// from the Poisson zero-event rate bound, not ∞).
    pub unobserved: bool,
}

/// Fig 10 `mode=sim`: the splitting estimator with stage 1 *measured* by a
/// runner-driven pool-simulation campaign (one per scheme, shared across
/// repair methods) instead of the pool Markov chain. With importance
/// sampling (`bias = None` for auto) stage-1 events are observable at the
/// paper's true 1% AFR; the analytic column uses the same AFR so the two
/// stage-1 variants are directly comparable.
pub fn fig10_durability_sim(
    afr: f64,
    years_per_trial: f64,
    trials: u64,
    seed: u64,
    bias: Option<f64>,
    opts: &HeatmapRunOpts,
) -> std::io::Result<Vec<DurabilitySimCell>> {
    use mlec_analysis::splitting::{stage1_analytic, stage2_pdl};
    use mlec_units::Duration;
    let mut out = Vec::new();
    for c in stage1_campaigns("fig10", afr, years_per_trial, trials, seed, bias, opts)? {
        let s1_analytic = stage1_analytic(&c.dep);
        let acc = &c.report.acc;
        for method in RepairMethod::PAPER {
            out.push(DurabilitySimCell {
                scheme: c.dep.scheme.name(),
                method: method.name().to_string(),
                nines_sim_stage1: mlec_analysis::markov::nines(
                    stage2_pdl(&c.dep, method, &c.s1, Duration::from_years(1.0)).max(1e-300),
                ),
                nines_analytic_stage1: mlec_analysis::markov::nines(
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
    Ok(out)
}

/// One measured point of the Fig 11 throughput surface.
#[derive(Debug, Clone)]
pub struct ThroughputCell {
    /// Data chunks.
    pub k: usize,
    /// Parity chunks.
    pub p: usize,
    /// Measured single-core encoding throughput, MB/s.
    pub mb_per_s: f64,
}

/// Fig 11: measure the `(k + p)` encoding-throughput surface.
/// `ks`/`ps` select the grid; `chunk_bytes` is the chunk size (the paper
/// uses 128 KB); `min_bytes` the data pushed per point; `threads` the
/// number of worker threads each stripe is split across (`<= 1` =
/// single-core, the paper's Fig 11 setup).
pub fn fig11_encoding_throughput(
    ks: &[usize],
    ps: &[usize],
    chunk_bytes: usize,
    min_bytes: usize,
    threads: usize,
) -> Vec<ThroughputCell> {
    let mut out = Vec::new();
    for &p in ps {
        for &k in ks {
            let pt = measure_slec(k, p, chunk_bytes, min_bytes, threads);
            out.push(ThroughputCell {
                k,
                p,
                mb_per_s: pt.mb_per_s,
            });
        }
    }
    out
}

/// Fig 12: MLEC (C/C, C/D) vs SLEC tradeoff scatter.
pub fn fig12_mlec_vs_slec(model: &ThroughputModel) -> Vec<TradeoffPoint> {
    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    let mut out = Vec::new();
    out.extend(enumerate_mlec(&g, &c, MlecScheme::CC, OVERHEAD_BAND, model));
    out.extend(enumerate_mlec(&g, &c, MlecScheme::CD, OVERHEAD_BAND, model));
    for placement in SlecPlacement::ALL {
        out.extend(enumerate_slec(&g, &c, placement, OVERHEAD_BAND, model));
    }
    out
}

/// Fig 15: MLEC C/D vs LRC-Dp tradeoff scatter.
pub fn fig15_mlec_vs_lrc(model: &ThroughputModel) -> Vec<TradeoffPoint> {
    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    let mut out = Vec::new();
    out.extend(enumerate_mlec(&g, &c, MlecScheme::CD, OVERHEAD_BAND, model));
    out.extend(enumerate_lrc(
        &g,
        &c,
        OVERHEAD_BAND,
        model,
        ideal_lrc_undecodable_at_limit,
    ));
    out
}

/// One burst-PDL cross-check row of Fig 12 `mode=sim`: the paper's
/// flagship configuration of a Fig 12 family, with its stress-cell burst
/// PDL measured by an adaptive conditional-MC campaign.
#[derive(Debug, Clone)]
pub struct BurstCheckRow {
    /// Configuration label, e.g. `"(10+2)/(17+3)"`.
    pub label: String,
    /// Series name, e.g. `"C/D"` or `"Loc-Cp-S"`.
    pub family: String,
    /// Burst PDL at the stress cell (mean over conditional-MC samples).
    pub burst_pdl: f64,
    /// 95% CI half-width of the estimate.
    pub ci_half_width: f64,
    /// Conditional-MC samples spent (less than the budget when the
    /// adaptive precision target fired).
    pub trials: u64,
    /// Achieved relative standard error.
    pub rel_err: f64,
}

#[allow(clippy::too_many_arguments)]
fn burst_check_campaign(
    run_label: &str,
    display: (&str, &str),
    rel_err: f64,
    min_samples: u64,
    samples: u64,
    seed: u64,
    opts: &HeatmapRunOpts,
    config_hash: u64,
    sample: impl Fn(&mut mlec_runner::TrialRng) -> f64 + Sync,
) -> std::io::Result<BurstCheckRow> {
    let trial = mlec_runner::FnTrial(|seed: u64| {
        let mut rng = trial_rng(seed);
        sample(&mut rng)
    });
    let stop = StopRule::until_rel_err(rel_err, min_samples, samples);
    let spec = opts.run_spec(run_label, seed, stop, config_hash);
    let report = mlec_runner::run(&trial, &spec)?;
    let s = report.summary;
    Ok(BurstCheckRow {
        label: display.0.to_string(),
        family: display.1.to_string(),
        burst_pdl: s.mean,
        ci_half_width: (s.ci_high - s.ci_low) / 2.0,
        trials: s.trials,
        rel_err: s.rel_err,
    })
}

/// Fig 12 `mode=sim`: the analytic tradeoff scatter of
/// [`fig12_mlec_vs_slec`] plus a burst-PDL cross-check — for the paper's
/// flagship configuration of each family, one adaptive conditional-MC
/// campaign through `mlec-runner` measures the PDL of a `(failures,
/// racks)` stress burst with a [`StopRule::until_rel_err`] precision
/// target.
#[allow(clippy::too_many_arguments)]
pub fn fig12_mlec_vs_slec_sim(
    model: &ThroughputModel,
    failures: u32,
    racks: u32,
    rel_err: f64,
    min_samples: u64,
    samples: u64,
    seed: u64,
    opts: &HeatmapRunOpts,
) -> std::io::Result<(Vec<TradeoffPoint>, Vec<BurstCheckRow>)> {
    let points = fig12_mlec_vs_slec(model);
    let g = Geometry::paper_default();
    let mut rows = Vec::new();
    let hash = |extra: &str| {
        Json::obj(vec![
            ("y", Json::U64(failures as u64)),
            ("x", Json::U64(racks as u64)),
            ("extra", Json::Str(extra.to_string())),
        ])
        .fingerprint()
    };
    for scheme in [MlecScheme::CC, MlecScheme::CD] {
        let dep = MlecDeployment::paper_default(scheme);
        let label = dep.params.to_string();
        rows.push(burst_check_campaign(
            &format!("fig12/{}", scheme.name().replace('/', "")),
            (&label, &scheme.name()),
            rel_err,
            min_samples,
            samples,
            seed,
            opts,
            hash(&scheme.name()),
            |rng| mlec_burst_sample(&dep, failures, racks, rng),
        )?);
    }
    let slec = SlecParams::new(7, 3);
    for placement in SlecPlacement::ALL {
        rows.push(burst_check_campaign(
            &format!("fig12/{}", placement.name()),
            (&slec.to_string(), &format!("{}-S", placement.name())),
            rel_err,
            min_samples,
            samples,
            seed,
            opts,
            hash(&format!("{} {}", placement.name(), slec)),
            |rng| slec_burst_sample(&g, slec, placement, failures, racks, rng),
        )?);
    }
    Ok((points, rows))
}

/// One sampled LRC undecodability row of Fig 15 `mode=sim`.
#[derive(Debug, Clone)]
pub struct LrcUndecodableRow {
    /// Configuration label, e.g. `"(14,2,4)"`.
    pub label: String,
    /// Analytic `P(undecodable | r + 2 uniform erasures)`.
    pub analytic: f64,
    /// Sampled estimate (exact rank tests through the runner).
    pub sampled: f64,
    /// Rank tests spent.
    pub trials: u64,
    /// Achieved relative CI half-width.
    pub rel_err: f64,
}

/// Fig 15 `mode=sim`: the tradeoff scatter with every LRC point's
/// undecodability thinning *measured* instead of assumed — one adaptive
/// `mlec-runner` campaign of exact rank tests per LRC configuration
/// (uniform `r + 2`-erasure patterns, [`StopRule::until_rel_err`]),
/// feeding [`enumerate_lrc`] the sampled `P(undecodable)`. The MLEC C/D
/// series stays analytic, as in the paper. Returns the scatter and the
/// per-configuration sampled-vs-analytic rows.
pub fn fig15_mlec_vs_lrc_sim(
    model: &ThroughputModel,
    rel_err: f64,
    min_samples: u64,
    samples: u64,
    seed: u64,
    opts: &HeatmapRunOpts,
) -> std::io::Result<(Vec<TradeoffPoint>, Vec<LrcUndecodableRow>)> {
    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    let rows = std::cell::RefCell::new(Vec::new());
    let io_err = std::cell::RefCell::new(None);
    let mut points = enumerate_mlec(&g, &c, MlecScheme::CD, OVERHEAD_BAND, model);
    points.extend(enumerate_lrc(&g, &c, OVERHEAD_BAND, model, |params| {
        let analytic = ideal_lrc_undecodable_at_limit(params);
        if io_err.borrow().is_some() {
            return analytic;
        }
        let lrc = Lrc::new(params.k, params.l, params.r).expect("enumerated LRC is valid");
        let m = params.r + 2;
        let n = lrc.total_chunks();
        let trial = HitTrial(|seed: u64| {
            let mut erased = vec![false; n];
            // Uniform m-subset of the chunk indices.
            for i in trial_rng(seed).choose_multiple(n, m) {
                erased[i] = true;
            }
            !lrc.decodable(&erased)
        });
        let run_label = format!("fig15/lrc-{}-{}-{}", params.k, params.l, params.r);
        let config_hash = Json::obj(vec![
            ("params", Json::Str(params.to_string())),
            ("erasures", Json::U64(m as u64)),
        ])
        .fingerprint();
        let stop = StopRule::until_rel_err(rel_err, min_samples, samples);
        let spec = opts.run_spec(&run_label, seed, stop, config_hash);
        match mlec_runner::run(&trial, &spec) {
            Ok(report) => {
                let s = report.summary;
                rows.borrow_mut().push(LrcUndecodableRow {
                    label: params.to_string(),
                    analytic,
                    sampled: s.mean,
                    trials: s.trials,
                    rel_err: s.rel_err,
                });
                s.mean
            }
            Err(e) => {
                *io_err.borrow_mut() = Some(e);
                analytic
            }
        }
    }));
    if let Some(e) = io_err.into_inner() {
        return Err(e);
    }
    Ok((points, rows.into_inner()))
}

/// Fig 13: PDL heatmaps of the four SLEC placements under bursts, run
/// with the given runner options (threads, manifests).
pub fn fig13_slec_burst_with(
    spec: &HeatmapSpec,
    params: SlecParams,
    opts: &HeatmapRunOpts,
) -> Vec<Heatmap> {
    let g = Geometry::paper_default();
    SlecPlacement::ALL
        .into_iter()
        .map(|placement| {
            let run_label = format!("fig13/{}", placement.name());
            run_heatmap(
                placement.name().to_string(),
                &run_label,
                spec,
                opts,
                heatmap_config_hash(
                    spec,
                    &format!("{} {}+{}", placement.name(), params.k, params.p),
                ),
                |y, x, rng| slec_burst_sample(&g, params, placement, y, x, rng),
            )
        })
        .collect()
}

/// Fig 16: PDL heatmap of the paper's `(14,2,4)` LRC-Dp under bursts, run
/// with the given runner options (threads, manifests).
pub fn fig16_lrc_burst_with(
    spec: &HeatmapSpec,
    params: LrcParams,
    opts: &HeatmapRunOpts,
) -> Heatmap {
    let g = Geometry::paper_default();
    let lrc = Lrc::new(params.k, params.l, params.r).expect("valid LRC");
    let curve = lrc_undecodable_by_count(&lrc, 2000, spec.seed);
    run_heatmap(
        format!("LRC-Dp {params}"),
        "fig16/LRC-Dp",
        spec,
        opts,
        heatmap_config_hash(spec, &format!("{params}")),
        |y, x, rng| lrc_burst_sample(&g, params, &curve, y, x, rng),
    )
}

/// §5.1.4 / §5.2.4: repair network traffic comparison.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// System label.
    pub system: String,
    /// Cross-rack repair traffic, TB per day.
    pub tb_per_day: f64,
    /// Cross-rack repair traffic, TB per year.
    pub tb_per_year: f64,
}

/// Repair-traffic comparison: network SLEC, LRC-Dp, and MLEC per method.
pub fn repair_traffic_comparison() -> Vec<TrafficRow> {
    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    let mut out = vec![
        TrafficRow {
            system: "Net-SLEC (7+3)".into(),
            tb_per_day: traffic::net_slec_daily_traffic(&g, &c, 7).to_tb(),
            tb_per_year: traffic::net_slec_daily_traffic(&g, &c, 7).to_tb() * 365.25,
        },
        TrafficRow {
            system: "Net-SLEC (14+6)".into(),
            tb_per_day: traffic::net_slec_daily_traffic(&g, &c, 14).to_tb(),
            tb_per_year: traffic::net_slec_daily_traffic(&g, &c, 14).to_tb() * 365.25,
        },
        TrafficRow {
            system: "LRC-Dp (14,2,4)".into(),
            tb_per_day: traffic::lrc_daily_traffic(&g, &c, LrcParams::paper_default()).to_tb(),
            tb_per_year: traffic::lrc_daily_traffic(&g, &c, LrcParams::paper_default()).to_tb()
                * 365.25,
        },
    ];
    for scheme in MlecScheme::ALL {
        let dep = MlecDeployment::paper_default(scheme);
        let rate = system_catastrophic_rate(&dep);
        for method in [RepairMethod::All, RepairMethod::Min] {
            let yearly = traffic::mlec_yearly_traffic(&dep, method, rate).to_tb();
            out.push(TrafficRow {
                system: format!("MLEC {} {}", scheme.name(), method.name()),
                tb_per_day: yearly / 365.25,
                tb_per_year: yearly,
            });
        }
    }
    out
}

mlec_runner::impl_to_json!(Heatmap {
    label,
    xs,
    ys,
    pdl,
    trials
});
mlec_runner::impl_to_json!(RepairMethodSimCell {
    scheme,
    method,
    plan_cross_rack_tb,
    plan_network_time_h,
    sim_cross_rack_tb,
    sim_network_time_h,
    catastrophic_pools,
    missions,
});
mlec_runner::impl_to_json!(BurstCheckRow {
    label,
    family,
    burst_pdl,
    ci_half_width,
    trials,
    rel_err,
});
mlec_runner::impl_to_json!(LrcUndecodableRow {
    label,
    analytic,
    sampled,
    trials,
    rel_err,
});
mlec_runner::impl_to_json!(RepairBandwidthRow {
    scheme,
    disk_size_tb,
    disk_bw_mbs,
    pool_size_tb,
    pool_bw_mbs,
    disk_repair_hours,
    pool_repair_hours,
});
mlec_runner::impl_to_json!(CatastrophicProbRow {
    scheme,
    prob_per_year
});
mlec_runner::impl_to_json!(CatastrophicSimRow {
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
mlec_runner::impl_to_json!(DurabilitySimCell {
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
mlec_runner::impl_to_json!(RepairMethodCell {
    scheme,
    method,
    cross_rack_tb,
    network_time_h,
    local_time_h,
});
mlec_runner::impl_to_json!(DurabilityCell {
    scheme,
    method,
    nines
});
mlec_runner::impl_to_json!(ThroughputCell { k, p, mb_per_s });
mlec_runner::impl_to_json!(TrafficRow {
    system,
    tb_per_day,
    tb_per_year,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let rows = table2_and_fig6();
        assert_eq!(rows.len(), 4);
        let cc = &rows[0];
        assert_eq!(cc.scheme, "C/C");
        assert!((cc.disk_bw_mbs - 40.0).abs() < 0.5);
        assert!((cc.pool_bw_mbs - 250.0).abs() < 0.5);
        let dd = &rows[3];
        assert!((dd.disk_bw_mbs - 264.0).abs() < 1.0);
        assert!((dd.pool_bw_mbs - 1363.0).abs() < 1.0);
    }

    #[test]
    fn fig8_matrix_shape_and_headline_cells() {
        let cells = fig8_fig9_repair_methods(&RepairMethod::PAPER);
        assert_eq!(cells.len(), 16);
        let rall_cd = cells
            .iter()
            .find(|c| c.scheme == "C/D" && c.method == "R_ALL")
            .unwrap();
        assert!((rall_cd.cross_rack_tb - 26400.0).abs() < 1.0);
        let rhyb_cd = cells
            .iter()
            .find(|c| c.scheme == "C/D" && c.method == "R_HYB")
            .unwrap();
        assert!((rhyb_cd.cross_rack_tb - 3.1).abs() < 0.1);
    }

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

    #[test]
    fn fig5_small_grid_runs() {
        let spec = HeatmapSpec {
            max: 12,
            step: 6,
            samples: 10,
            seed: 1,
            ..HeatmapSpec::default()
        };
        let maps = fig5_mlec_burst_with(&spec, &HeatmapRunOpts::default());
        assert_eq!(maps.len(), 4);
        for m in &maps {
            assert_eq!(m.pdl.len(), m.ys.len());
            // y < x cells are NaN; others are probabilities.
            for (yi, row) in m.pdl.iter().enumerate() {
                for (xi, &v) in row.iter().enumerate() {
                    if m.ys[yi] < m.xs[xi] {
                        assert!(v.is_nan());
                    } else {
                        assert!(
                            (0.0..=1.0).contains(&v),
                            "{} y{} x{} = {v}",
                            m.label,
                            yi,
                            xi
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn heatmap_axis_is_total() {
        let axis = |max, step| {
            HeatmapSpec {
                max,
                step,
                ..HeatmapSpec::default()
            }
            .axis()
        };
        assert_eq!(
            axis(60, 6),
            [1, 2, 3, 4, 5, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60]
        );
        assert_eq!(axis(12, 6), [1, 2, 3, 4, 5, 6, 12]);
        assert_eq!(axis(3, 6), [1, 2, 3]);
        assert_eq!(axis(6, 1), [1, 2, 3, 4, 5, 6]);
        // `6 + step` and `x += step` used to wrap: step = u32::MAX put a
        // 0-rack line on the axis, and the sampler panicked on it.
        assert_eq!(axis(60, u32::MAX), [1, 2, 3, 4, 5, 6, 60]);
        assert_eq!(
            axis(u32::MAX, u32::MAX - 7),
            [1, 2, 3, 4, 5, 6, u32::MAX - 1, u32::MAX]
        );
        assert_eq!(axis(9, 0), [1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn traffic_comparison_separates_families() {
        let rows = repair_traffic_comparison();
        let slec = rows
            .iter()
            .find(|r| r.system.starts_with("Net-SLEC (7"))
            .unwrap();
        let mlec = rows
            .iter()
            .find(|r| r.system.contains("C/C") && r.system.contains("R_MIN"))
            .unwrap();
        assert!(slec.tb_per_day > 100.0);
        assert!(mlec.tb_per_year < 0.1);
    }

    #[test]
    fn fig11_tiny_grid() {
        let cells = fig11_encoding_throughput(&[2, 4], &[1, 2], 4096, 1 << 18, 1);
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.mb_per_s > 0.0));
    }

    #[test]
    fn fig11_threaded_grid_measurable() {
        // threads > 1 exercises encode_into_parallel under the measurement
        // path; results stay finite/positive regardless of host core count.
        let cells = fig11_encoding_throughput(&[4], &[2], 4096, 1 << 18, 4);
        assert_eq!(cells.len(), 1);
        assert!(cells
            .iter()
            .all(|c| c.mb_per_s > 0.0 && c.mb_per_s.is_finite()));
    }
}
