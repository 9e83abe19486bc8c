//! `campaign_pool` and `campaign_system`: the two Monte Carlo simulators
//! through the user's entry point, `mlec_core::registry::run_experiment`.
//!
//! * `campaign_pool` is `fig10 mode=sim` at the paper's true 1 % AFR:
//!   importance-sampled pool trials (`sim::kernel`, the pool policies,
//!   `census`), merged by `runner`, fed to `analysis::splitting` stage 2
//!   and rendered by `core`. No codec, no store.
//! * `campaign_system` is `fig08 mode=sim method=all`: a few
//!   whole-datacenter missions per scheme and strategy (`system_sim`,
//!   `strategy`), where the pool policies idle and `runner` has the least
//!   to parallelise.
//!
//! The layer numbers come from making the same calls one level down:
//! the runner campaigns the figure makes (`stage1_via_runner`,
//! `mlec_runner::run`), and below them the bare `Trial::run` loop over the
//! same trial seeds, which must reproduce the campaign's event counts.

use crate::spans::Recorder;
use crate::{host, ns_per_call, stats, timed, Outcome, RunCfg};
use mlec_analysis::splitting::{stage1_analytic, stage1_via_runner, stage2_pdl};
use mlec_core::registry::run_experiment;
use mlec_runner::seed_stream::fnv1a;
use mlec_runner::{Json, RunSpec, SeedStream, StopRule, Trial};
use mlec_sim::census::StripeCensus;
use mlec_sim::config::MlecDeployment;
use mlec_sim::failure::FailureModel;
use mlec_sim::importance::FailureBias;
use mlec_sim::kernel::HazardKernel;
use mlec_sim::repair::plan_catastrophic_repair;
use mlec_sim::system_sim::{simulate_system_opts, SystemSimOptions};
use mlec_sim::trials::{PoolTrial, SystemTrial};
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;
use mlec_units::Duration;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One campaign's inputs: the experiment, its physics, and its budget.
#[derive(Clone, Copy)]
struct Campaign {
    pool: bool,
    experiment: &'static str,
    artifact: &'static str,
    /// Annual failure rate in percent, as the experiment's `afr_pct=` takes it.
    afr_pct: f64,
    years: f64,
    trials: u64,
    seed: u64,
}

impl Campaign {
    fn of(cfg: &RunCfg) -> Campaign {
        if cfg.workload == "campaign_pool" {
            Campaign {
                pool: true,
                experiment: "fig10",
                artifact: "fig10_sim",
                afr_pct: 1.0,
                years: 20.0,
                trials: if cfg.quick { 300 } else { 15_000 },
                seed: cfg.seed,
            }
        } else {
            Campaign {
                pool: false,
                experiment: "fig08",
                artifact: "fig08_sim",
                // Inflated so that a two-year mission sees catastrophic pools.
                afr_pct: 75.0,
                years: if cfg.quick { 0.5 } else { 2.0 },
                trials: if cfg.quick { 1 } else { 3 },
                seed: cfg.seed,
            }
        }
    }

    /// Runner campaigns one experiment makes: one per scheme, times the six
    /// strategies for the system simulator.
    fn cells(&self) -> Vec<(MlecScheme, Option<RepairMethod>)> {
        MlecScheme::ALL
            .into_iter()
            .flat_map(|s| {
                if self.pool {
                    vec![(s, None)]
                } else {
                    RepairMethod::EXTENDED
                        .into_iter()
                        .map(|m| (s, Some(m)))
                        .collect()
                }
            })
            .collect()
    }

    fn total_trials(&self) -> f64 {
        (self.cells().len() as u64 * self.trials) as f64
    }

    fn args(&self, threads: usize, out: &Path, manifests: Option<&Path>) -> Vec<String> {
        let mut args = vec![
            "mode=sim".to_string(),
            format!("afr_pct={}", self.afr_pct),
            format!("years={}", self.years),
            format!("trials={}", self.trials),
            format!("seed={}", self.seed),
            format!("threads={threads}"),
            format!("out={}", out.display()),
        ];
        args.push(if self.pool { "bias=auto" } else { "method=all" }.to_string());
        if let Some(dir) = manifests {
            args.push(format!("manifests={}", dir.display()));
        }
        args
    }

    fn deployment(&self, scheme: MlecScheme) -> (MlecDeployment, FailureModel) {
        let afr = self.afr_pct / 100.0;
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        (dep, FailureModel::Exponential { afr })
    }

    /// The run label the figure gives a cell's campaign; trial seeds derive
    /// from it.
    fn label(&self, scheme: MlecScheme, method: Option<RepairMethod>) -> String {
        let scheme = scheme.name().replace('/', "");
        match method {
            None => format!("fig10/{scheme}"),
            Some(m) => format!("fig08/{scheme}-{}", m.name()),
        }
    }
}

/// One `run_experiment` call, checked and measured.
struct Experiment {
    seconds: f64,
    artifact_hash: u64,
    artifact_bytes: u64,
    /// Per cell, in `Campaign::cells` order: events the campaign counted
    /// (catastrophic events of the pool, catastrophic pools of the system).
    events: Vec<u64>,
    /// Summed over schemes: effective sample size of the weighted events.
    ess: f64,
}

fn run_once(
    c: &Campaign,
    threads: usize,
    scratch: &Path,
    manifests: Option<&Path>,
    out: &mut Outcome,
) -> Result<Experiment, String> {
    let figs = scratch.join("figures");
    let args = c.args(threads, &figs, manifests);
    let (seconds, outcome) = timed(|| run_experiment(c.experiment, &args));
    let outcome = outcome.map_err(|e| e.to_string())?;
    out.ops(c.total_trials() as u64, 0);
    out.check(
        outcome.gate_failures.is_empty(),
        "no acceptance gate of the experiment failed",
    );
    let path: PathBuf = figs.join(format!("{}.json", c.artifact));
    out.check(
        outcome.artifact_paths.contains(&path),
        "the experiment wrote its artifact",
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let rows = doc.as_arr().ok_or("artifact is not a list of cells")?;
    // Pool artifacts repeat a scheme's stage-1 numbers once per repair
    // method; every fourth row is one campaign.
    let stride = if c.pool { RepairMethod::PAPER.len() } else { 1 };
    let field = if c.pool {
        "events"
    } else {
        "catastrophic_pools"
    };
    let cells: Vec<&Json> = rows.iter().step_by(stride).collect();
    Ok(Experiment {
        seconds,
        artifact_hash: fnv1a(text.as_bytes()),
        artifact_bytes: text.len() as u64,
        events: cells
            .iter()
            .map(|r| r.get(field).and_then(Json::as_u64).unwrap_or(u64::MAX))
            .collect(),
        ess: cells
            .iter()
            .filter_map(|r| r.get("ess").and_then(Json::as_f64))
            .sum(),
    })
}

/// What the direct pass measured, one level below `run_experiment`.
#[derive(Default)]
struct Direct {
    /// Per cell: events counted by the runner campaign and by the bare
    /// trial loop.
    runner_events: Vec<u64>,
    loop_events: Vec<u64>,
    runner_s: f64,
    /// Per cell: seconds in the bare trial loop.
    loop_s: Vec<f64>,
    disk_failures: u64,
    /// Disk failures per trial of the C/D pool campaign.
    cd_failures_per_trial: f64,
}

/// The trials of one campaign as a bare loop over `Trial::run`, with the
/// seeds the runner would derive: seconds spent, and the accumulator.
fn bare_loop<T: Trial>(
    trial: &T,
    trials: u64,
    stream: &SeedStream,
    span: &'static str,
    rec: &mut Recorder,
) -> (f64, T::Acc)
where
    T::Acc: Default,
{
    let mut acc = T::Acc::default();
    let start = Instant::now();
    for i in 0..trials {
        rec.span(span, || trial.run(i, stream.trial_seed(i), &mut acc));
    }
    (start.elapsed().as_secs_f64(), acc)
}

/// The runner campaigns of the figure, single-threaded, each followed (when
/// `trial_loops` is set) by the same trials as a bare loop; every call in a
/// span.
fn direct_pass(c: &Campaign, trial_loops: bool, rec: &mut Recorder) -> Result<Direct, String> {
    let mut d = Direct::default();
    for (scheme, method) in c.cells() {
        let (dep, model) = c.deployment(scheme);
        let label = c.label(scheme, method);
        let spec = RunSpec::new(&label, c.seed, StopRule::fixed(c.trials)).threads(1);
        let stream = SeedStream::new(c.seed, &label);
        rec.enter("cell");
        match method {
            None => {
                let bias = FailureBias::auto(&dep, &model);
                rec.enter("runner.run");
                let (t, stage1) = timed(|| stage1_via_runner(&dep, &model, c.years, bias, &spec));
                rec.exit();
                let (s1, report) = stage1.map_err(|e| e.to_string())?;
                d.runner_s += t;
                d.runner_events.push(report.acc.events());
                rec.span("analysis.splitting.stage2", || {
                    let analytic = stage1_analytic(&dep);
                    for m in RepairMethod::PAPER {
                        black_box(stage2_pdl(&dep, m, &s1, Duration::from_years(1.0)));
                        black_box(stage2_pdl(&dep, m, &analytic, Duration::from_years(1.0)));
                    }
                });
                if trial_loops {
                    let trial = PoolTrial {
                        dep: &dep,
                        model: &model,
                        years_per_trial: c.years,
                        bias,
                        event_log: None,
                        log_label: &label,
                    };
                    let (t, acc) = bare_loop(&trial, c.trials, &stream, "sim.pool_sim.trial", rec);
                    d.loop_s.push(t);
                    d.loop_events.push(acc.events());
                    d.disk_failures += acc.disk_failures;
                    if scheme == MlecScheme::CD {
                        d.cd_failures_per_trial = acc.disk_failures as f64 / c.trials as f64;
                    }
                }
            }
            Some(method) => {
                let trial = SystemTrial {
                    dep: &dep,
                    model: &model,
                    strategy: method.strategy(),
                    years: c.years,
                    opts: SystemSimOptions::default(),
                    event_log: None,
                    log_label: "",
                };
                rec.enter("runner.run");
                let (t, report) = timed(|| mlec_runner::run(&trial, &spec));
                rec.exit();
                d.runner_s += t;
                d.runner_events
                    .push(report.map_err(|e| e.to_string())?.acc.catastrophic_pools);
                if trial_loops {
                    let (t, acc) =
                        bare_loop(&trial, c.trials, &stream, "sim.system_sim.mission", rec);
                    d.loop_s.push(t);
                    d.loop_events.push(acc.catastrophic_pools);
                    d.disk_failures += acc.disk_failures;
                }
            }
        }
        rec.exit();
    }
    Ok(d)
}

/// The experiment on a reduced budget, timed. `Hundredth` is the set-up
/// reading: what a run costs whatever its budget (argument parsing,
/// deployments, bias, analytic stage 1, the report and its artifact) plus
/// a hundredth of the trial work, which keeps the reading on the CPU: the
/// fixed cost alone is a fraction of a millisecond, most of it the
/// artifact's file write, and read 2x apart between runs. `Empty` is that
/// fixed cost alone, one trial per cell over a negligible mission.
#[derive(Clone, Copy)]
enum Budget {
    Hundredth,
    Empty,
}

fn reduced_run(c: &Campaign, budget: Budget, scratch: &Path) -> Result<f64, String> {
    let (trials, years) = match (budget, c.pool) {
        (Budget::Hundredth, true) => ((c.trials / 100).max(1), c.years),
        (Budget::Hundredth, false) => (1, c.years / 100.0),
        (Budget::Empty, true) => (1, 1.0),
        (Budget::Empty, false) => (1, 0.001),
    };
    let reduced = Campaign {
        trials,
        years,
        ..*c
    };
    let args = reduced.args(1, &scratch.join("setup"), None);
    let (seconds, outcome) = timed(|| run_experiment(c.experiment, &args));
    outcome.map(|_| seconds).map_err(|e| e.to_string())
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let scratch = cfg.scratch_dir().map_err(|e| e.to_string())?;
    let result = run_in(cfg, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(cfg: &RunCfg, scratch: &Path) -> Result<Outcome, String> {
    let c = Campaign::of(cfg);
    let mut out = Outcome::default();

    // A reduced run takes milliseconds: many repetitions make its median steady.
    let reps = if cfg.quick { 3 } else { 41 };
    let budget = if cfg.trace {
        Budget::Empty
    } else {
        Budget::Hundredth
    };
    let reduced = (0..reps)
        .map(|_| reduced_run(&c, budget, scratch))
        .collect::<Result<Vec<f64>, String>>()?;

    // The runner campaigns made directly: the warm-up, and the event counts
    // the figure's artifact must agree with.
    let direct = direct_pass(&c, false, &mut Recorder::new(false))?;
    let check_reference = |reference: &Experiment, out: &mut Outcome| {
        out.check(
            reference.events == direct.runner_events,
            "event counts in the artifact equal the direct runner campaigns'",
        );
        out.check(
            reference.events.iter().sum::<u64>() > 0,
            "the campaign observed events",
        );
    };
    if cfg.trace {
        let reference = run_once(&c, 1, scratch, None, &mut out)?;
        check_reference(&reference, &mut out);
        layer_run(
            cfg,
            &c,
            scratch,
            &reference,
            stats::median(&reduced),
            &mut out,
        )?;
        return Ok(out);
    }

    // One block per thread count; the first run of all is the reference
    // whose artifact every later run must reproduce byte for byte.
    let mut reference: Option<Experiment> = None;
    let mut block = |threads: usize, out: &mut Outcome| {
        cfg.measure(cfg.seconds / 2.0, || {
            let run = run_once(&c, threads, scratch, None, out)?;
            let seconds = run.seconds;
            match &reference {
                Some(reference) => out.check(
                    run.artifact_hash == reference.artifact_hash,
                    "artifact bytes equal the first run's, whatever the thread count",
                ),
                None => {
                    check_reference(&run, out);
                    reference = Some(run);
                }
            }
            Ok(c.total_trials() / seconds)
        })
    };
    let one = block(1, &mut out)?;
    let two = block(host::available_threads().min(2), &mut out)?;
    out.set_median("work_per_s", &one);
    out.set_median("alt_work_per_s", &two);
    out.set_median("setup_s", &reduced);
    Ok(out)
}

fn layer_run(
    cfg: &RunCfg,
    c: &Campaign,
    scratch: &Path,
    reference: &Experiment,
    empty_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    // The experiment itself: one and two threads, and with checkpoints on.
    let threads2 = host::available_threads().min(2);
    let (mut one, mut two, mut checkpointed) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..if cfg.quick { 1 } else { 3 } {
        one.push(run_once(c, 1, scratch, None, out)?.seconds);
        let run = run_once(c, threads2, scratch, None, out)?;
        out.check(
            run.artifact_hash == reference.artifact_hash,
            "two threads produce the artifact of one thread, byte for byte",
        );
        two.push(run.seconds);
        let manifests = scratch.join(format!("manifests-{round}"));
        checkpointed.push(run_once(c, 1, scratch, Some(&manifests), out)?.seconds);
    }
    let experiment_s = stats::median(&one);
    out.set("runner.trials_per_s", c.total_trials() / experiment_s);
    if c.pool {
        out.set("runner.ess_per_s", reference.ess / experiment_s);
    }
    out.set(
        "runner.executor.speedup_t2",
        experiment_s / stats::median(&two),
    );
    out.set(
        "runner.manifest.checkpoint_share",
        1.0 - experiment_s / stats::median(&checkpointed),
    );
    out.set(
        "core.figures.artifact_bytes",
        reference.artifact_bytes as f64,
    );

    // One level down: untraced, traced, untraced.
    let mut rec = Recorder::new(true);
    let (before, _) = timed(|| direct_pass(c, true, &mut Recorder::new(false)));
    let (traced, direct) = timed(|| direct_pass(c, true, &mut rec));
    let direct = direct?;
    let (after, _) = timed(|| direct_pass(c, true, &mut Recorder::new(false)));
    out.ledger_note(&rec, traced, (before + after) / 2.0);
    out.check(
        direct.runner_events == reference.events && direct.loop_events == reference.events,
        "runner campaigns and bare trial loops reproduce the artifact's event counts",
    );

    let loop_s: f64 = direct.loop_s.iter().sum();
    out.set(
        "runner.executor.overhead_share",
        (direct.runner_s - loop_s) / direct.runner_s,
    );
    // What the figure costs beyond its campaigns is the experiment with an
    // empty budget, measured directly: the difference of two one-second
    // walls cannot resolve a share this small.
    out.set("core.figures.residual_share", empty_s / experiment_s);
    out.notes.push(format!(
        "  run_experiment {experiment_s:.6} s; its runner campaigns made directly {:.6} s; their trials as bare loops {loop_s:.6} s; the figure with an empty budget {empty_s:.6} s",
        direct.runner_s
    ));

    let calls = if cfg.quick { 2_000 } else { 200_000 };
    let (cd, model) = c.deployment(MlecScheme::CD);
    let rate =
        cd.config.disk_failure_rate().to_per_hour() * f64::from(cd.local_pools().pool_size());
    let mut kernel = HazardKernel::from_seed(c.seed, FailureBias::auto(&cd, &model), f64::MAX);
    out.set(
        "sim.kernel.ns_per_draw",
        ns_per_call(calls, |i| {
            let t = kernel.sample_next_failure((i % 2) as u32, rate);
            kernel.advance_to(t);
        }),
    );

    if c.pool {
        for ((scheme, _), seconds) in c.cells().into_iter().zip(&direct.loop_s) {
            let name = format!(
                "sim.pool_sim.pool_years_per_s.{}",
                scheme.name().replace('/', "").to_lowercase()
            );
            out.set(&name, c.trials as f64 * c.years / seconds);
        }
        out.set(
            "sim.pool_sim.events_per_trial.cd",
            direct.cd_failures_per_trial,
        );
        let mut census = StripeCensus::new(cd.local_pools().pool_size(), cd.local_width(), 1e7);
        out.set(
            "sim.census.ns_per_fail_and_drain",
            ns_per_call(calls / 10, |_| {
                census.add_disk_failure();
                census.add_disk_failure();
                black_box(census.drain_priority(f64::MAX));
            }),
        );
        let stage1 =
            MlecScheme::ALL.map(|s| (c.deployment(s).0, stage1_analytic(&c.deployment(s).0)));
        out.set(
            "analysis.splitting.stage2_ns",
            ns_per_call(calls / 10, |i| {
                let (dep, s1) = &stage1[i % 4];
                let method = RepairMethod::PAPER[(i / 4) % 4];
                black_box(stage2_pdl(dep, method, s1, Duration::from_years(1.0)));
            }),
        );
    } else {
        let missions = c.total_trials();
        out.set("sim.system_sim.missions_per_s", missions / loop_s);
        out.set(
            "sim.system_sim.failures_per_s",
            direct.disk_failures as f64 / loop_s,
        );
        let contended = |shared_repair_bandwidth: bool| {
            timed(|| {
                for scheme in MlecScheme::ALL {
                    let (dep, model) = c.deployment(scheme);
                    let opts = SystemSimOptions {
                        shared_repair_bandwidth,
                    };
                    for trial in 0..c.trials {
                        black_box(simulate_system_opts(
                            &dep,
                            &model,
                            RepairMethod::Fco,
                            c.years,
                            c.seed + trial,
                            opts,
                        ));
                    }
                }
            })
            .0
        };
        let (off, on) = (contended(false), contended(true));
        out.set("sim.system_sim.shared_bw_slowdown", on / off);
        let deployments = MlecScheme::ALL.map(|s| c.deployment(s).0);
        out.set(
            "sim.strategy.plan_ns",
            ns_per_call(calls / 10, |i| {
                let method = RepairMethod::EXTENDED[i % 6];
                black_box(plan_catastrophic_repair(&deployments[(i / 6) % 4], method));
            }),
        );
    }

    cfg.write_trace(&rec)
}
