//! Every figure/table in the registry: one `declare_experiment!`
//! declaration plus one run function each. The rendering lives in one place
//! so the `mlec` driver and the regression tests execute the identical code
//! path.
//!
//! A run function receives the execution context and the experiment's typed
//! parameter struct, hands them to the row/series functions of
//! [`crate::experiments`] and renders the paper-comparable report into
//! [`ExperimentOutput::text`]; JSON artifacts keep their historical names
//! (`fig05.json`, `table2.json`, …).

use crate::experiments::{
    fig10_durability, fig10_durability_sim, fig11_encoding_throughput, fig12_mlec_vs_slec,
    fig12_mlec_vs_slec_sim, fig13_slec_burst_with, fig15_mlec_vs_lrc, fig15_mlec_vs_lrc_sim,
    fig16_lrc_burst_with, fig5_mlec_burst_with, fig7_catastrophic_prob, fig7_catastrophic_prob_sim,
    fig8_fig9_repair_methods, fig8_fig9_repair_methods_sim, repair_traffic_comparison,
    table2_and_fig6, HeatmapRunOpts, HeatmapSpec, RepairMethodSimCell,
};
use crate::figdata;
use crate::registry::{
    declare_experiment, suggest_among, Bounded, ExperimentCtx, ExperimentError, ExperimentOutput,
    Mode, NoParams,
};
use crate::report::{ascii_table, fmt_value, render_heatmap};
use mlec_analysis::markov::nines;
use mlec_ec::throughput::ThroughputModel;
use mlec_ec::{LrcParams, SlecParams};
use mlec_runner::{impl_to_json, Json, StopRule};
use mlec_sim::config::MlecDeployment;
use mlec_sim::RepairMethod;
use mlec_topology::{Geometry, MlecScheme};
use std::num::NonZeroU32;

/// `writeln!` into an [`ExperimentOutput`] text buffer (infallible).
macro_rules! w {
    ($dst:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst);
    }};
    ($dst:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($dst, $($arg)*);
    }};
}

/// The method × scheme pivot of Fig 8 / Fig 10: one row per method, one
/// column per scheme, each cell rendered by `show`.
fn method_by_scheme_table<C>(
    methods: &[RepairMethod],
    cells: &[C],
    key: impl Fn(&C) -> (&str, &str),
    show: impl Fn(&C) -> String,
) -> String {
    let schemes = MlecScheme::ALL.map(|s| s.name());
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|m| {
            let mut row = vec![m.name().to_string()];
            row.extend(schemes.iter().map(|s| {
                let cell = cells.iter().find(|c| key(c) == (s.as_str(), m.name()));
                cell.map_or_else(String::new, &show)
            }));
            row
        })
        .collect();
    let mut headers = vec!["method"];
    headers.extend(schemes.iter().map(String::as_str));
    ascii_table(&headers, &rows)
}

const HEATMAP_FAST: &[(&str, &str)] = &[("max", "12"), ("samples", "8")];

fn heatmap_spec(p: &HeatmapParams) -> HeatmapSpec {
    HeatmapSpec {
        max: p.max.get(),
        step: p.step.get(),
        samples: p.samples.get(),
        seed: p.seed,
        rel_err: (p.rel_err > 0.0).then_some(p.rel_err),
        min_samples: p.min_samples,
    }
}

fn heatmap_grid_line(out: &mut ExperimentOutput, spec: &HeatmapSpec) {
    let adaptive = match spec.rel_err {
        Some(r) => format!(" (adaptive: rel_err={r}, >={} per cell)", spec.min_samples),
        None => String::new(),
    };
    w!(
        out.text,
        "grid: 1..{} step {}, {} layout samples/cell{adaptive}\n",
        spec.max,
        spec.step,
        spec.samples
    );
}

fn render_maps(
    out: &mut ExperimentOutput,
    spec: &HeatmapSpec,
    maps: &[crate::experiments::Heatmap],
) {
    for map in maps {
        w!(out.text, "{}", render_heatmap(map));
        if spec.rel_err.is_some() {
            w!(out.text, "  [adaptive stop: {} trials spent]\n", map.trials);
        }
    }
}

// ---------------------------------------------------------------- fig01

declare_experiment! {
    FIG01(run_fig01, NoParams) {
        name: "fig01",
        title: "Figure 1",
        description: "storage scaling over the years",
        paper_ref: "§1, Fig 1 (motivation)",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn run_fig01(_ctx: &ExperimentCtx, _p: &NoParams) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new();
    for (title, artifact, series) in [
        (
            "(a) Disks per system",
            "fig01a",
            figdata::disks_per_system(),
        ),
        (
            "(b) Capacity per disk",
            "fig01b",
            figdata::capacity_per_disk(),
        ),
    ] {
        w!(out.text, "{title}");
        let years: Vec<u32> = series[0].samples.iter().map(|s| s.year).collect();
        let year_strs: Vec<String> = years.iter().map(std::string::ToString::to_string).collect();
        let mut headers = vec!["series", "unit"];
        headers.extend(year_strs.iter().map(std::string::String::as_str));
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|s| {
                let mut row = vec![s.name.to_string(), s.unit.to_string()];
                row.extend(s.samples.iter().map(|p| format!("{:.1}", p.value)));
                row
            })
            .collect();
        w!(out.text, "{}", ascii_table(&headers, &rows));
        out.artifact(artifact, &series);
    }
    Ok(out)
}

// --------------------------------------------------------------- table2

declare_experiment! {
    TABLE2(run_table2, NoParams) {
        name: "table2",
        title: "Table 2",
        description: "repair size and available repair bandwidth (single disk / catastrophic pool)",
        paper_ref: "§4.1, Table 2",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn run_table2(_ctx: &ExperimentCtx, _p: &NoParams) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new();
    let rows = table2_and_fig6();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.0}", r.disk_size_tb),
                format!("{:.0}", r.disk_bw_mbs),
                format!("{:.0}", r.pool_size_tb),
                format!("{:.0}", r.pool_bw_mbs),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &[
                "scheme",
                "disk TB",
                "disk BW MB/s",
                "pool TB",
                "pool BW MB/s"
            ],
            &table
        )
    );
    w!(
        out.text,
        "paper: C/C 20/40/400/250  C/D 20/264/2400/250  D/C 20/40/400/1363  D/D 20/264/2400/1363"
    );
    out.artifact("table2", &rows);
    Ok(out)
}

// ---------------------------------------------------------------- fig05

declare_experiment! {
    FIG05(run_fig05, HeatmapParams {
        max: NonZeroU32 = "60", "largest failures/racks grid line (paper: 60)";
        // `6 + step` is the first stepped grid line; the bound keeps it a `u32`.
        step: Bounded<1, { u32::MAX - 6 }> = "6", "grid step above 6 (1 = the paper's full grid)";
        samples: NonZeroU32 = "60",
            "conditional-MC samples per cell (the budget cap when rel_err is set)";
        seed: u64 = "42", "root RNG seed";
        rel_err: f64 = "0",
            "adaptive stop: target relative std error of the pooled grid (0 = fixed budget)";
        min_samples: u32 = "8", "minimum samples per cell before an adaptive stop may fire";
    }) {
        name: "fig05",
        title: "Figure 5",
        description: "MLEC PDL under correlated failure bursts",
        paper_ref: "§4.2, Fig 5",
        modes: &[Mode::Sim],
        fast: HEATMAP_FAST,
    }
}

fn run_fig05(ctx: &ExperimentCtx, p: &HeatmapParams) -> Result<ExperimentOutput, ExperimentError> {
    let spec = heatmap_spec(p);
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, &spec);
    let maps = fig5_mlec_burst_with(&spec, &ctx.runner);
    render_maps(&mut out, &spec, &maps);
    w!(out.text, "paper findings to check against:");
    w!(
        out.text,
        "  F#2: fixed y, more racks => lower PDL (rows get greener rightward)"
    );
    w!(out.text, "  F#3: C/C: PDL=0 for x <= p_n=2 racks");
    w!(
        out.text,
        "  F#4: worst cells at x = p_n+1 = 3 racks, y = 60"
    );
    w!(
        out.text,
        "  F#5-7: C/D and D/C redder than C/C; D/D reddest overall"
    );
    out.artifact("fig05", &maps);
    Ok(out)
}

// ---------------------------------------------------------------- fig06

declare_experiment! {
    FIG06(run_fig06, NoParams) {
        name: "fig06",
        title: "Figure 6",
        description: "repair time per MLEC scheme (R_ALL)",
        paper_ref: "§4.1, Fig 6",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn run_fig06(_ctx: &ExperimentCtx, _p: &NoParams) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new();
    let rows = table2_and_fig6();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.1}", r.disk_repair_hours),
                format!("{:.1}", r.pool_repair_hours),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &["scheme", "(a) single disk, h", "(b) catastrophic pool, h"],
            &table
        )
    );
    w!(
        out.text,
        "paper shape: (a) C/C≈D/C≈150h, C/D≈D/D≈25h (6x faster);"
    );
    w!(
        out.text,
        "             (b) C/D slowest (~2.7Kh), D/C fastest (~82h), D/D slightly above C/C"
    );
    out.artifact("fig06", &rows);
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

/// The context's runner options plus the figure-local `trace=` knob: a
/// non-empty value streams per-trial JSONL event logs to that path.
fn runner_with_event_log(
    ctx: &ExperimentCtx,
    trace: &str,
    out: &mut ExperimentOutput,
) -> HeatmapRunOpts {
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
    let rows = fig7_catastrophic_prob_sim(afr, years, trials, seed, bias, &runner)?;
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

// ---------------------------------------------------------- fig08/fig09

const REPAIR_METHOD_FAST: &[(&str, &str)] = &[("trials", "2"), ("years", "1"), ("method", "all")];

declare_experiment! {
    FIG08(run_fig08, RepairMethodParams {
        afr_pct: f64 = "75", "inflated AFR percent so missions observe catastrophes (mode=sim)";
        years: f64 = "2", "mission length in years per trial (mode=sim)";
        trials: u64 = "8", "whole-system missions per scheme x method (mode=sim)";
        seed: u64 = "42", "root RNG seed (mode=sim)";
        method: String = "paper",
            "repair methods: `paper` (R_ALL..R_MIN), `all` (adds R_LAYER, R_PIGGY), or a comma-separated label list";
    }) {
        name: "fig08",
        title: "Figure 8",
        description: "cross-rack repair traffic (TB) per method and scheme",
        paper_ref: "§4.3, Fig 8",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: REPAIR_METHOD_FAST,
    }
}

fn run_fig08(
    ctx: &ExperimentCtx,
    p: &RepairMethodParams,
) -> Result<ExperimentOutput, ExperimentError> {
    if ctx.mode == Mode::Sim {
        let (cells, mut out) = repair_methods_sim_campaign(ctx, p)?;
        let table: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.scheme.clone(),
                    c.method.clone(),
                    fmt_value(c.plan_cross_rack_tb),
                    sim_cell(c, c.sim_cross_rack_tb),
                    c.catastrophic_pools.to_string(),
                    c.missions.to_string(),
                ]
            })
            .collect();
        w!(
            out.text,
            "{}",
            ascii_table(
                &[
                    "scheme",
                    "method",
                    "plan TB",
                    "sim TB/pool",
                    "cat pools",
                    "missions"
                ],
                &table
            )
        );
        repair_methods_sim_footer(&mut out);
        out.artifact("fig08_sim", &cells);
        return Ok(out);
    }
    let methods = parse_methods(&p.method)?;
    let mut out = ExperimentOutput::new();
    let cells = fig8_fig9_repair_methods(&methods);
    let table = method_by_scheme_table(
        &methods,
        &cells,
        |c| (&c.scheme, &c.method),
        |c| fmt_value(c.cross_rack_tb),
    );
    w!(out.text, "{table}");
    w!(
        out.text,
        "paper: R_ALL 4400/26400/4400/26400; R_FCO 880 everywhere;"
    );
    w!(out.text, "       R_HYB 880/3.1/880/3.1; R_MIN = R_HYB / 4");
    out.artifact("fig08", &cells);
    Ok(out)
}

declare_experiment! {
    FIG09(run_fig09, RepairMethodParams) {
        name: "fig09",
        title: "Figure 9",
        description: "repair time split into network (-N) and local (-L) phases",
        paper_ref: "§4.3, Fig 9",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: REPAIR_METHOD_FAST,
    }
}

fn run_fig09(
    ctx: &ExperimentCtx,
    p: &RepairMethodParams,
) -> Result<ExperimentOutput, ExperimentError> {
    if ctx.mode == Mode::Sim {
        let (cells, mut out) = repair_methods_sim_campaign(ctx, p)?;
        let table: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.scheme.clone(),
                    c.method.clone(),
                    fmt_value(c.plan_network_time_h),
                    sim_cell(c, c.sim_network_time_h),
                    c.catastrophic_pools.to_string(),
                    c.missions.to_string(),
                ]
            })
            .collect();
        w!(
            out.text,
            "{}",
            ascii_table(
                &[
                    "scheme",
                    "method",
                    "plan network h",
                    "sim network h/pool",
                    "cat pools",
                    "missions"
                ],
                &table
            )
        );
        repair_methods_sim_footer(&mut out);
        out.artifact("fig09_sim", &cells);
        return Ok(out);
    }
    let methods = parse_methods(&p.method)?;
    let mut out = ExperimentOutput::new();
    let cells = fig8_fig9_repair_methods(&methods);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.clone(),
                c.method.clone(),
                format!("{:.1}", c.network_time_h),
                format!("{:.1}", c.local_time_h),
                format!("{:.1}", c.network_time_h + c.local_time_h),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &["scheme", "method", "network h", "local h", "total h"],
            &rows
        )
    );
    w!(
        out.text,
        "paper: R_FCO cuts network time 5-30x vs R_ALL; R_HYB trades network for"
    );
    w!(
        out.text,
        "       local time; R_MIN has the least network time but can take longest in total"
    );
    out.artifact("fig09", &cells);
    Ok(out)
}

fn sim_cell(c: &RepairMethodSimCell, value: f64) -> String {
    if c.catastrophic_pools == 0 {
        "-".to_string()
    } else {
        fmt_value(value)
    }
}

fn repair_methods_sim_campaign(
    ctx: &ExperimentCtx,
    p: &RepairMethodParams,
) -> Result<(Vec<RepairMethodSimCell>, ExperimentOutput), ExperimentError> {
    let afr = p.afr_pct / 100.0;
    let (years, trials, seed) = (p.years, p.trials, p.seed);
    let methods = parse_methods(&p.method)?;
    let labels: Vec<&str> = methods.iter().map(mlec_sim::RepairMethod::name).collect();
    let mut out = ExperimentOutput::new();
    w!(
        out.text,
        "sim mode: AFR {afr}, {trials} missions x {years} years per scheme x method, \
         root seed {seed}, methods {}\n",
        labels.join(",")
    );
    let cells = fig8_fig9_repair_methods_sim(afr, years, trials, seed, &methods, &ctx.runner)?;
    Ok((cells, out))
}

/// Parse the `method=` parameter of fig08/fig09: a comma-separated list
/// whose every entry is a group — `paper` (the four §2.4 methods) or `all`
/// (paper plus `R_LAYER`/`R_PIGGY`), expanded in place — or a label. Both
/// are case-insensitive; the result is deduplicated, order preserved.
/// Unknown labels get a `suggest_among` did-you-mean hint.
fn parse_methods(raw: &str) -> Result<Vec<RepairMethod>, ExperimentError> {
    let mut methods: Vec<RepairMethod> = Vec::new();
    for label in raw.split(',').map(str::trim).filter(|l| !l.is_empty()) {
        let group: &[RepairMethod] = if label.eq_ignore_ascii_case("paper") {
            &RepairMethod::PAPER
        } else if label.eq_ignore_ascii_case("all") {
            &RepairMethod::EXTENDED
        } else if let Some(method) = RepairMethod::parse(label) {
            &[method]
        } else {
            let mut candidates: Vec<&str> = RepairMethod::EXTENDED
                .iter()
                .map(mlec_sim::RepairMethod::name)
                .collect();
            candidates.extend(["paper", "all"]);
            let hint = match suggest_among(label, &candidates) {
                Some(s) => format!(" — did you mean `{s}`?"),
                None => String::new(),
            };
            return Err(ExperimentError::BadValue {
                name: "method".to_string(),
                value: label.to_string(),
                expected: format!(
                    "`paper`, `all`, or labels from {}{hint}",
                    RepairMethod::EXTENDED.map(|m| m.name()).join(", ")
                ),
            });
        };
        for &method in group {
            if !methods.contains(&method) {
                methods.push(method);
            }
        }
    }
    if methods.is_empty() {
        return Err(ExperimentError::BadValue {
            name: "method".to_string(),
            value: raw.to_string(),
            expected: "a non-empty method list (e.g. `R_LAYER,R_PIGGY`)".to_string(),
        });
    }
    Ok(methods)
}

fn repair_methods_sim_footer(out: &mut ExperimentOutput) {
    w!(
        out.text,
        "reading: the sim column is the mean measured per-catastrophic-pool value"
    );
    w!(
        out.text,
        "across whole-system missions; it tracks the analytic plan because the"
    );
    w!(
        out.text,
        "simulator charges repairs from that plan — agreement validates the event"
    );
    w!(
        out.text,
        "accounting and the deterministic campaign pipeline, not an independent"
    );
    w!(
        out.text,
        "physical model. `-` marks campaigns that observed no catastrophic pool"
    );
    w!(out.text, "(raise afr_pct, years, or trials).");
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
    let cells = fig10_durability_sim(afr, years, trials, seed, bias, &runner)?;
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

// ---------------------------------------------------------------- fig11

declare_experiment! {
    FIG11(run_fig11, Fig11Params {
        kmax: Bounded<2, { u32::MAX }> = "50", "largest data-chunk count";
        pmax: NonZeroU32 = "15", "largest parity count";
        kstep: NonZeroU32 = "4", "k grid step";
        pstep: NonZeroU32 = "2", "p grid step";
        chunk_kb: NonZeroU32 = "128", "chunk size in KiB";
        mb: u32 = "64", "minimum MiB encoded per cell";
        threads: u32 = "1", "worker threads per stripe encode (1 = paper's single-core setup)";
    }) {
        name: "fig11",
        title: "Figure 11",
        description: "(k+p) encoding throughput heatmap (single-core default, threads=N)",
        paper_ref: "§5.1.1, Fig 11",
        modes: &[Mode::Measured],
        fast: &[("kmax", "10"), ("pmax", "5"), ("mb", "8")],
    }
}

fn run_fig11(_ctx: &ExperimentCtx, p: &Fig11Params) -> Result<ExperimentOutput, ExperimentError> {
    let chunk = p.chunk_kb.get() as usize * 1024;
    let min_bytes = p.mb as usize * 1024 * 1024;
    let threads = p.threads as usize;

    // The grids stop at the last stepped value at or below kmax / pmax.
    // GF(2^8) has no code wider than 256 chunks (`measure_slec` would
    // panic), which also bounds the grids before they are materialised.
    let (kmax, kstep) = (p.kmax.get(), p.kstep.get());
    let (pmax, pstep) = (p.pmax.get(), p.pstep.get());
    let widest = u64::from(kmax - (kmax - 2) % kstep) + u64::from(pmax - (pmax - 1) % pstep);
    if widest > 256 {
        return Err(ExperimentError::BadValue {
            name: "kmax".to_string(),
            value: kmax.to_string(),
            expected: format!("a grid whose widest stripe k + p (here {widest}) is at most 256"),
        });
    }
    let ks: Vec<usize> = (2..=kmax as usize).step_by(kstep as usize).collect();
    let ps: Vec<usize> = (1..=pmax as usize).step_by(pstep as usize).collect();
    let mut out = ExperimentOutput::new();
    w!(
        out.text,
        "grid: k in {ks:?}\n      p in {ps:?}\n      threads = {threads} (kernel: {}, product: {})\n",
        mlec_gf::simd::kernel_name(),
        mlec_gf::simd::dot_kernel_name()
    );

    let cells = fig11_encoding_throughput(&ks, &ps, chunk, min_bytes, threads);

    // Render the heatmap rows (p down the side, k across).
    {
        use std::fmt::Write as _;
        let _ = write!(out.text, "{:>6}", "p\\k");
        for &k in &ks {
            let _ = write!(out.text, "{k:>7}");
        }
        w!(out.text);
        for &p in ps.iter().rev() {
            let _ = write!(out.text, "{p:>6}");
            for &k in &ks {
                let cell = cells.iter().find(|c| c.k == k && c.p == p).unwrap();
                let _ = write!(out.text, "{:>7.0}", cell.mb_per_s);
            }
            w!(out.text);
        }
    }
    w!(
        out.text,
        "\n(values: MB/s of data encoded; paper shape: falls with larger k and p)"
    );
    let max = cells.iter().map(|c| c.mb_per_s).fold(0.0f64, f64::max);
    let min = cells
        .iter()
        .map(|c| c.mb_per_s)
        .fold(f64::INFINITY, f64::min);
    w!(
        out.text,
        "range: {min:.0} .. {max:.0} MB/s ({:.1}x spread)",
        max / min
    );
    out.artifact("fig11", &cells);
    Ok(out)
}

// ---------------------------------------------------------- fig12/fig15

fn tradeoff_tables(
    out: &mut ExperimentOutput,
    points: &[mlec_analysis::tradeoff::TradeoffPoint],
    families: &[&str],
) {
    for family in families {
        let mut fam: Vec<_> = points.iter().filter(|p| &p.family == family).collect();
        fam.sort_by(|a, b| a.durability_nines.total_cmp(&b.durability_nines));
        w!(out.text, "series {family} ({} configs):", fam.len());
        let rows: Vec<Vec<String>> = fam
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    format!("{:.1}", p.durability_nines),
                    format!("{:.0}", p.throughput_mbs),
                    format!("{:.0}%", p.overhead * 100.0),
                ]
            })
            .collect();
        w!(
            out.text,
            "{}",
            ascii_table(&["config", "nines", "MB/s", "overhead"], &rows)
        );
    }
}

declare_experiment! {
    FIG12(run_fig12, Fig12Params {
        failures: NonZeroU32 = "48", "burst stress cell: failed disks (mode=sim)";
        racks: NonZeroU32 = "5", "burst stress cell: affected racks (mode=sim)";
        rel_err: f64 = "0.1", "adaptive stop: target relative std error (mode=sim)";
        min_samples: u64 = "200", "minimum conditional-MC samples per campaign (mode=sim)";
        samples: u64 = "20000", "conditional-MC sample budget per campaign (mode=sim)";
        seed: u64 = "42", "root RNG seed (mode=sim)";
    }) {
        name: "fig12",
        title: "Figure 12",
        description: "MLEC vs SLEC durability/throughput tradeoff (~30% overhead)",
        paper_ref: "§5.1, Fig 12",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: &[("rel_err", "0.3"), ("samples", "2000")],
    }
}

static FIG12_FAMILIES: &[&str] = &["C/C", "C/D", "Loc-Cp-S", "Loc-Dp-S", "Net-Cp-S", "Net-Dp-S"];

fn run_fig12(ctx: &ExperimentCtx, p: &Fig12Params) -> Result<ExperimentOutput, ExperimentError> {
    let model = ThroughputModel::calibrate();
    let mut out = ExperimentOutput::new();
    w!(
        out.text,
        "calibrated kernel rate: {:.0} MB/s of multiply work (single core, kernel: {})\n",
        model.rate_mb_per_s,
        mlec_gf::simd::kernel_name()
    );
    if ctx.mode == Mode::Sim {
        let (failures, racks, rel_err) = (p.failures.get(), p.racks.get(), p.rel_err);
        let (points, checks) = fig12_mlec_vs_slec_sim(
            &model,
            failures,
            racks,
            rel_err,
            p.min_samples,
            p.samples,
            p.seed,
            &ctx.runner,
        )?;
        tradeoff_tables(&mut out, &points, FIG12_FAMILIES);
        w!(
            out.text,
            "burst cross-check: conditional-MC PDL of a ({failures} disks, {racks} racks) burst,"
        );
        w!(
            out.text,
            "adaptive stop at rel_err={rel_err} (paper-flagship config per family):"
        );
        let rows: Vec<Vec<String>> = checks
            .iter()
            .map(|r| {
                vec![
                    r.family.clone(),
                    r.label.clone(),
                    fmt_value(r.burst_pdl),
                    fmt_value(r.ci_half_width),
                    r.trials.to_string(),
                    format!("{:.3}", r.rel_err),
                ]
            })
            .collect();
        w!(
            out.text,
            "{}",
            ascii_table(
                &[
                    "family",
                    "config",
                    "burst PDL",
                    "±95% CI",
                    "trials",
                    "rel err"
                ],
                &rows
            )
        );
        w!(
            out.text,
            "reading: the MLEC rows should sit orders of magnitude below the SLEC rows"
        );
        w!(
            out.text,
            "at the same stress cell — the Fig 5 vs Fig 13 contrast, measured to a"
        );
        w!(out.text, "precision target instead of a fixed budget.");
        out.artifact("fig12", &points);
        out.artifact("fig12_sim", &checks);
        return Ok(out);
    }
    let points = fig12_mlec_vs_slec(&model);
    tradeoff_tables(&mut out, &points, FIG12_FAMILIES);
    w!(
        out.text,
        "paper F#2: above ~20 nines, MLEC sustains much higher throughput than SLEC"
    );
    out.artifact("fig12", &points);
    Ok(out)
}

declare_experiment! {
    FIG15(run_fig15, Fig15Params {
        rel_err: f64 = "0.1", "adaptive stop: target relative std error (mode=sim)";
        min_samples: u64 = "200", "minimum rank tests per LRC config (mode=sim)";
        samples: u64 = "20000", "rank-test budget per LRC config (mode=sim)";
        seed: u64 = "42", "root RNG seed (mode=sim)";
    }) {
        name: "fig15",
        title: "Figure 15",
        description: "MLEC C/D vs LRC-Dp durability/throughput tradeoff",
        paper_ref: "§5.2, Fig 15",
        modes: &[Mode::Analytic, Mode::Sim],
        fast: &[("rel_err", "0.3"), ("samples", "1000")],
    }
}

fn run_fig15(ctx: &ExperimentCtx, p: &Fig15Params) -> Result<ExperimentOutput, ExperimentError> {
    let model = ThroughputModel::calibrate();
    let mut out = ExperimentOutput::new();
    if ctx.mode == Mode::Sim {
        let rel_err = p.rel_err;
        let (points, rows) = fig15_mlec_vs_lrc_sim(
            &model,
            rel_err,
            p.min_samples,
            p.samples,
            p.seed,
            &ctx.runner,
        )?;
        tradeoff_tables(&mut out, &points, &["C/D", "LRC-Dp"]);
        w!(
            out.text,
            "sampled LRC undecodability (exact rank tests, r+2 uniform erasures, \
             adaptive stop at rel_err={rel_err}):"
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    fmt_value(r.analytic),
                    fmt_value(r.sampled),
                    r.trials.to_string(),
                    format!("{:.3}", r.rel_err),
                ]
            })
            .collect();
        w!(
            out.text,
            "{}",
            ascii_table(
                &["config", "analytic", "sampled", "trials", "rel err"],
                &table
            )
        );
        w!(
            out.text,
            "reading: the LRC series above uses the *sampled* undecodability, so its"
        );
        w!(
            out.text,
            "nines are measured, not assumed; sampled vs analytic agreement validates"
        );
        w!(
            out.text,
            "the closed-form thinning used by the fast analytic mode."
        );
        out.artifact("fig15", &points);
        out.artifact("fig15_sim", &rows);
        return Ok(out);
    }
    let points = fig15_mlec_vs_lrc(&model);
    tradeoff_tables(&mut out, &points, &["C/D", "LRC-Dp"]);
    w!(
        out.text,
        "paper F#1: MLEC reaches high durability with higher encoding throughput than LRC"
    );
    out.artifact("fig15", &points);
    Ok(out)
}

// ---------------------------------------------------------- fig13/fig16

declare_experiment! {
    FIG13(run_fig13, HeatmapParams) {
        name: "fig13",
        title: "Figure 13",
        description: "SLEC PDL under correlated failure bursts, (7+3)",
        paper_ref: "§5.1.3, Fig 13",
        modes: &[Mode::Sim],
        fast: HEATMAP_FAST,
    }
}

fn run_fig13(ctx: &ExperimentCtx, p: &HeatmapParams) -> Result<ExperimentOutput, ExperimentError> {
    let spec = heatmap_spec(p);
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, &spec);
    let maps = fig13_slec_burst_with(&spec, SlecParams::new(7, 3), &ctx.runner);
    render_maps(&mut out, &spec, &maps);
    w!(
        out.text,
        "paper: local SLEC susceptible to localized bursts (left edge red),"
    );
    w!(
        out.text,
        "       network SLEC susceptible to scattered bursts (diagonal red),"
    );
    w!(
        out.text,
        "       Dp variants worse than Cp in their respective failure regimes"
    );
    out.artifact("fig13", &maps);
    Ok(out)
}

declare_experiment! {
    FIG16(run_fig16, HeatmapParams) {
        name: "fig16",
        title: "Figure 16",
        description: "LRC-Dp (14,2,4) PDL under correlated failure bursts",
        paper_ref: "§5.2.3, Fig 16",
        modes: &[Mode::Sim],
        fast: HEATMAP_FAST,
    }
}

fn run_fig16(ctx: &ExperimentCtx, p: &HeatmapParams) -> Result<ExperimentOutput, ExperimentError> {
    let spec = heatmap_spec(p);
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, &spec);
    let map = fig16_lrc_burst_with(&spec, LrcParams::paper_default(), &ctx.runner);
    render_maps(&mut out, &spec, std::slice::from_ref(&map));
    w!(
        out.text,
        "paper: pattern similar to Net-Dp SLEC — susceptible to highly scattered bursts"
    );
    out.artifact("fig16", &map);
    Ok(out)
}

// --------------------------------------------------------------- sec514

declare_experiment! {
    SEC514(run_sec514, NoParams) {
        name: "sec514",
        title: "Sections 5.1.4 & 5.2.4",
        description: "repair network traffic: SLEC vs LRC vs MLEC",
        paper_ref: "§5.1.4 / §5.2.4",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn run_sec514(_ctx: &ExperimentCtx, _p: &NoParams) -> Result<ExperimentOutput, ExperimentError> {
    let mut out = ExperimentOutput::new();
    let rows = repair_traffic_comparison();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                fmt_value(r.tb_per_day),
                fmt_value(r.tb_per_year),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(&["system", "TB/day", "TB/year"], &table)
    );
    w!(
        out.text,
        "paper: network SLEC needs hundreds of TB/day; LRC less but still substantial;"
    );
    w!(
        out.text,
        "       MLEC needs a few TB every thousands of years"
    );
    out.artifact("sec514_sec524_traffic", &rows);
    Ok(out)
}

// ------------------------------------------------------------ ablations

declare_experiment! {
    ABLATIONS(run_ablations, NoParams) {
        name: "ablations",
        title: "Ablations",
        description: "detection time, throttle, AFR, and spare policy sweeps",
        paper_ref: "§5.2.2 / §3 (beyond the paper's figures)",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn ablation_table(
    out: &mut ExperimentOutput,
    title: &str,
    unit: &str,
    points: &[mlec_analysis::ablation::AblationPoint],
) {
    w!(out.text, "--- {title}");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.series.clone(), fmt_value(p.x), format!("{:.1}", p.value)])
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(&["series", unit, "nines"], &rows)
    );
}

fn run_ablations(_ctx: &ExperimentCtx, _p: &NoParams) -> Result<ExperimentOutput, ExperimentError> {
    use mlec_analysis::ablation::{
        afr_sweep, detection_time_sweep, spare_policy_comparison, throttle_sweep,
    };
    let mut out = ExperimentOutput::new();

    let cd = MlecDeployment::paper_default(MlecScheme::CD);
    let detection = detection_time_sweep(
        &cd,
        LrcParams::paper_default(),
        &[1.0, 0.5, 0.25, 1.0 / 12.0, 1.0 / 60.0],
    );
    ablation_table(
        &mut out,
        "failure detection time (h) vs durability (paper §5.2.2)",
        "hours",
        &detection,
    );

    let cc = MlecDeployment::paper_default(MlecScheme::CC);
    let throttle = throttle_sweep(&cc, &[0.05, 0.1, 0.2, 0.4, 0.8]);
    ablation_table(
        &mut out,
        "repair bandwidth throttle fraction (paper fixes 0.2)",
        "frac",
        &throttle,
    );

    let afr = afr_sweep(&cc, &[0.002, 0.005, 0.01, 0.02, 0.05]);
    ablation_table(
        &mut out,
        "annual disk failure rate (paper fixes 0.01)",
        "AFR",
        &afr,
    );

    let (serial, parallel) = spare_policy_comparison(&cc);
    w!(
        out.text,
        "--- clustered spare-rebuild policy (catastrophic events / pool-year)"
    );
    w!(
        out.text,
        "  serial hot spare (deployed reality): {}",
        fmt_value(serial)
    );
    w!(
        out.text,
        "  idealized parallel spares:           {}",
        fmt_value(parallel)
    );
    w!(
        out.text,
        "  -> spare parallelism buys {:.1}x; declustering buys far more (Fig 7)",
        serial / parallel
    );

    out.artifact("ablation_detection", &detection);
    out.artifact("ablation_throttle", &throttle);
    out.artifact("ablation_afr", &afr);
    Ok(out)
}

// -------------------------------------------------------- paper_summary

declare_experiment! {
    PAPER_SUMMARY(run_paper_summary, NoParams) {
        name: "paper_summary",
        title: "Reproduction summary",
        description: "paper headline numbers vs this repository",
        paper_ref: "whole evaluation (fast analytic paths)",
        modes: &[Mode::Analytic],
        fast: &[],
    }
}

fn run_paper_summary(
    _ctx: &ExperimentCtx,
    _p: &NoParams,
) -> Result<ExperimentOutput, ExperimentError> {
    use mlec_sim::{traffic, SimConfig};
    let mut out = ExperimentOutput::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut add = |exp: &str, what: &str, paper: &str, ours: String| {
        rows.push(vec![exp.into(), what.into(), paper.into(), ours]);
    };

    let t2 = table2_and_fig6();
    let get = |s: &str| t2.iter().find(|r| r.scheme == s).unwrap();
    add(
        "Table 2",
        "C/D single-disk repair BW",
        "264 MB/s",
        format!("{:.0} MB/s", get("C/D").disk_bw_mbs),
    );
    add(
        "Table 2",
        "D/C pool repair BW",
        "1363 MB/s",
        format!("{:.0} MB/s", get("D/C").pool_bw_mbs),
    );
    add(
        "Fig 6a",
        "single-disk repair speedup */D vs */C",
        "~6x",
        format!(
            "{:.1}x",
            get("C/C").disk_repair_hours / get("C/D").disk_repair_hours
        ),
    );
    add(
        "Fig 6b",
        "pool repair speedup D/C vs C/C",
        "~5x",
        format!(
            "{:.1}x",
            get("C/C").pool_repair_hours / get("D/C").pool_repair_hours
        ),
    );

    let f7 = fig7_catastrophic_prob();
    let p = |s: &str| f7.iter().find(|r| r.scheme == s).unwrap().prob_per_year;
    add(
        "Fig 7",
        "catastrophic prob, */C",
        "< 0.001%/yr",
        format!("{:.4}%/yr", p("C/C") * 100.0),
    );
    add(
        "Fig 7",
        "catastrophic prob, */D",
        "~0.00001%/yr",
        format!("{:.5}%/yr", p("C/D") * 100.0),
    );

    let f8 = fig8_fig9_repair_methods(&RepairMethod::PAPER);
    let traffic_of = |s: &str, m: &str| {
        f8.iter()
            .find(|c| c.scheme == s && c.method == m)
            .unwrap()
            .cross_rack_tb
    };
    add(
        "Fig 8",
        "R_ALL traffic on C/D",
        "26,400 TB",
        format!("{:.0} TB", traffic_of("C/D", "R_ALL")),
    );
    add(
        "Fig 8",
        "R_FCO traffic (all schemes)",
        "880 TB",
        format!("{:.0} TB", traffic_of("C/C", "R_FCO")),
    );
    add(
        "Fig 8",
        "R_HYB traffic on */D",
        "3.1 TB",
        format!("{:.1} TB", traffic_of("C/D", "R_HYB")),
    );
    add(
        "Fig 8",
        "R_MIN vs R_HYB reduction",
        ">= 4x",
        format!(
            "{:.1}x",
            traffic_of("C/C", "R_HYB") / traffic_of("C/C", "R_MIN")
        ),
    );

    let f9_net = |s: &str, m: &str| {
        f8.iter()
            .find(|c| c.scheme == s && c.method == m)
            .unwrap()
            .network_time_h
    };
    add(
        "Fig 9",
        "R_FCO network-time cut vs R_ALL",
        "5-30x",
        format!(
            "{:.0}x-{:.0}x",
            f9_net("C/C", "R_ALL") / f9_net("C/C", "R_FCO"),
            f9_net("C/D", "R_ALL") / f9_net("C/D", "R_FCO")
        ),
    );

    let f10 = fig10_durability();
    let nines_of = |s: &str, m: &str| {
        f10.iter()
            .find(|c| c.scheme == s && c.method == m)
            .unwrap()
            .nines
    };
    let schemes = MlecScheme::ALL.map(|s| s.name());
    let fco_gains: Vec<f64> = schemes
        .iter()
        .map(|s| nines_of(s, "R_FCO") - nines_of(s, "R_ALL"))
        .collect();
    add(
        "Fig 10",
        "R_FCO durability gain",
        "+0.9-6.6 nines",
        format!(
            "+{:.1}-{:.1} nines",
            fco_gains.iter().cloned().fold(f64::NAN, f64::min),
            fco_gains.iter().cloned().fold(f64::NAN, f64::max)
        ),
    );
    let min_gains: Vec<f64> = schemes
        .iter()
        .map(|s| nines_of(s, "R_MIN") - nines_of(s, "R_HYB"))
        .collect();
    add(
        "Fig 10",
        "R_MIN durability gain",
        "+0.1-1.2 nines",
        format!(
            "+{:.1}-{:.1} nines",
            min_gains.iter().cloned().fold(f64::NAN, f64::min),
            min_gains.iter().cloned().fold(f64::NAN, f64::max)
        ),
    );
    add(
        "Fig 10",
        "best / worst scheme with R_MIN",
        "C/D,D/D / D/C",
        format!(
            "{:.1},{:.1} / {:.1} nines",
            nines_of("C/D", "R_MIN"),
            nines_of("D/D", "R_MIN"),
            nines_of("D/C", "R_MIN")
        ),
    );

    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    add(
        "§5.1.4",
        "(7+3) net-SLEC repair traffic",
        "100s of TB/day",
        format!(
            "{:.0} TB/day",
            traffic::net_slec_daily_traffic(&g, &c, 7).to_tb()
        ),
    );
    let mlec_yearly = traffic::mlec_yearly_traffic(
        &MlecDeployment::paper_default(MlecScheme::CC),
        RepairMethod::Min,
        mlec_units::Rate::from_per_year(p("C/C")),
    )
    .to_tb();
    add(
        "§5.1.4",
        "MLEC repair traffic",
        "few TB / 1000s of years",
        format!("{mlec_yearly:.1e} TB/yr"),
    );

    w!(
        out.text,
        "{}",
        ascii_table(&["experiment", "quantity", "paper", "ours"], &rows)
    );
    w!(
        out.text,
        "Full per-figure details: EXPERIMENTS.md; regeneration commands in README.md."
    );
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
    use mlec_analysis::splitting::{stage1_analytic, stage2_pdl};
    use mlec_sim::failure::FailureModel;
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

    let mut rows = Vec::new();
    for scheme in MlecScheme::ALL {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        let model = FailureModel::Exponential { afr };
        let trial = SystemTrial {
            dep: &dep,
            model: &model,
            strategy: RepairMethod::Fco,
            years,
            opts: SystemSimOptions::default(),
            event_log: None,
            log_label: "",
        };
        let label = format!("validation/{}", scheme.name().replace('/', ""));
        let spec = ctx
            .runner
            .run_spec(&label, seed, StopRule::fixed(runs), config_hash);
        let report = mlec_runner::run(&trial, &spec)?;
        if report.resumed_trials > 0 {
            w!(
                out.text,
                "  [{label}: resumed {} of {} trials from manifest]",
                report.resumed_trials,
                report.trials
            );
        }

        let s1 = stage1_analytic(&dep);
        let splitting_pdl = stage2_pdl(
            &dep,
            RepairMethod::Fco,
            &s1,
            mlec_units::Duration::from_years(years),
        );
        let summary = report.summary;
        rows.push(ValidationRow {
            scheme: scheme.name(),
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

// ---------------------------------------------------------------- trace

declare_experiment! {
    TRACE(run_trace, TraceParams {
        afr_pct: f64 = "1", "background AFR percent of the synthesized trace";
        bursts_per_year_x10: u64 = "10", "correlated bursts per year, times 10";
        burst_size: u32 = "60", "disks per burst";
        burst_racks: NonZeroU32 = "1", "racks a burst concentrates on";
        years: f64 = "5", "trace length in years";
        seed: u64 = "42", "trace synthesis seed";
        csv: String = "", "also write the synthesized trace CSV to this path ('' = don't)";
    }) {
        name: "trace",
        title: "Trace tools",
        description: "synthesize, analyze, and replay a failure trace",
        paper_ref: "§6.1 (trace-driven fault simulation)",
        modes: &[Mode::Sim],
        fast: &[("years", "2")],
    }
}

fn run_trace(_ctx: &ExperimentCtx, p: &TraceParams) -> Result<ExperimentOutput, ExperimentError> {
    use mlec_sim::system_sim::simulate_system_trace;
    use mlec_sim::trace::{detect_bursts, synthesize, TraceSpec};
    use mlec_topology::burst::BurstError;

    let spec = TraceSpec {
        background_afr: p.afr_pct / 100.0,
        bursts_per_year: p.bursts_per_year_x10 as f64 / 10.0,
        burst_size: p.burst_size,
        burst_racks: p.burst_racks.get(),
        years: p.years,
    };
    let geometry = Geometry::paper_default();
    let trace = synthesize(&geometry, &spec, p.seed).map_err(|e| {
        let (name, value) = match e {
            BurstError::TooManyRacks { .. } => ("burst_racks", spec.burst_racks),
            _ => ("burst_size", spec.burst_size),
        };
        ExperimentError::BadValue {
            name: name.to_string(),
            value: value.to_string(),
            expected: format!(
                "burst_racks <= {} and burst_racks <= burst_size <= burst_racks x {} ({e})",
                geometry.racks,
                geometry.disks_per_rack()
            ),
        }
    })?;
    let mut out = ExperimentOutput::new();

    w!(
        out.text,
        "synthesized {} failures over {:.1} years (empirical AFR {:.3}%)\n",
        trace.len(),
        spec.years,
        trace.empirical_afr(&geometry) * 100.0
    );

    let bursts = detect_bursts(&trace, 0.5, 5);
    w!(
        out.text,
        "detected {} bursts (>= 5 failures within 30 min):",
        bursts.len()
    );
    for (start, disks) in bursts.iter().take(10) {
        let racks: std::collections::BTreeSet<u32> =
            disks.iter().map(|&d| geometry.rack_of(d)).collect();
        w!(
            out.text,
            "  t={start:>9.1}h  {} disks across {} racks",
            disks.len(),
            racks.len()
        );
    }

    w!(
        out.text,
        "\nreplaying the trace against each scheme (R_MIN):"
    );
    let rows: Vec<Vec<String>> = MlecScheme::ALL
        .into_iter()
        .map(|scheme| {
            let dep = MlecDeployment::paper_default(scheme);
            let r = simulate_system_trace(&dep, &trace, RepairMethod::Min, 1);
            vec![
                scheme.name(),
                r.catastrophic_pools.to_string(),
                r.data_loss_events.to_string(),
                format!("{:.2}", r.cross_rack_traffic_tb),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &[
                "scheme",
                "catastrophic pools",
                "data losses",
                "cross-rack TB"
            ],
            &rows
        )
    );

    let csv = &p.csv;
    if !csv.is_empty() {
        std::fs::write(csv, trace.to_csv())?;
        w!(out.text, "trace written to {csv}");
    }
    Ok(out)
}

// ---------------------------------------------------------------- store

declare_experiment! {
    STORE_BENCH(run_store_bench_exp, StoreBenchParams {
        ops: u64 = "1000000", "trace operations to replay";
        objects: NonZeroU32 = "4096", "distinct objects, preloaded at version 0 before the trace";
        zipf: f64 = "1.0", "Zipf(s) popularity skew of the object draw";
        put_pct: Bounded<0, 100> = "10", "percent of ops that are puts";
        delete_pct: Bounded<0, 100> = "0", "percent of ops that are deletes";
        ops_per_sec: NonZeroU32 = "50000", "trace arrival rate in virtual time";
        kill_at: u64 = "0", "inject the failure when this op index is reached (0 = never)";
        kill_racks: u32 = "1", "whole racks killed at the injection";
        kill_disks: u32 = "0", "extra disks killed in the next surviving rack";
        batch: NonZeroU32 = "1024",
            "most ops per in-flight window (a window also closes at a fixed budget of prepared bytes)";
        shards: u32 = "0",
            "apply-phase rack shards: 0 = monolithic serial apply, N >= 1 = epoch-sharded apply on N clock-domain shards (bit-identical output)";
        verify_every: u64 = "64", "verify read-back bytes on every Nth op (0 = final sweep only)";
        seed: u64 = "42", "root seed for trace and payload derivation";
        backend: String = "mem", "chunk backend: `mem` or `file`";
        dir: String = "", "chunk directory for backend=file ('' = <out>/store_chunks)";
        oplog: String = "", "write the deterministic JSONL op log to this path ('' = don't)";
        trace: String = "", "replay this trace file instead of synthesizing ('' = synthesize)";
        require_degraded: u64 = "0",
            "1 = fail unless the kill caused degraded reads and a completed rebuild";
        timing: u64 = "0", "1 = also report wall-clock replay throughput (reporting only)";
    }) {
        name: "store_bench",
        title: "Store bench",
        description: "trace-driven object-store replay: rebuild vs foreground tail latency",
        paper_ref: "§3 (bandwidth model), §5 (repair/foreground interference)",
        modes: &[Mode::Sim],
        fast: &[
            ("ops", "2000"),
            ("objects", "256"),
            ("kill_at", "600"),
            ("verify_every", "16"),
            ("shards", "2"),
        ],
    }
}

fn store_err(e: mlec_store::StoreError) -> ExperimentError {
    ExperimentError::Io(std::io::Error::other(e.to_string()))
}

fn store_bench_spec(
    ctx: &ExperimentCtx,
    p: &StoreBenchParams,
) -> Result<mlec_store::BenchSpec, ExperimentError> {
    use mlec_store::{BackendChoice, BenchSpec, KillSpec, LoadSpec, StoreConfig};

    let mix = p.put_pct.get() + p.delete_pct.get();
    if mix > 100 {
        return Err(ExperimentError::BadValue {
            name: "delete_pct".to_string(),
            value: p.delete_pct.get().to_string(),
            expected: format!("put_pct + delete_pct (here {mix}) to be at most 100"),
        });
    }
    // Reject a kill the geometry cannot hold: the injection would clamp it
    // silently (extra racks kill nothing, extra disks are dropped or land in
    // a rack already dead) and report a smaller failure than asked for.
    let store = StoreConfig::small_test();
    let (racks, rack_disks) = (store.geometry.racks, store.geometry.disks_per_rack());
    if p.kill_racks > racks {
        return Err(ExperimentError::BadValue {
            name: "kill_racks".to_string(),
            value: p.kill_racks.to_string(),
            expected: format!("kill_racks <= {racks}, the store's rack count"),
        });
    }
    if p.kill_disks > 0 && (p.kill_racks >= racks || p.kill_disks > rack_disks) {
        return Err(ExperimentError::BadValue {
            name: "kill_disks".to_string(),
            value: p.kill_disks.to_string(),
            expected: format!(
                "kill_disks <= {rack_disks} (one rack's disks), in a rack that survives \
                 kill_racks (here {} of {racks})",
                p.kill_racks
            ),
        });
    }
    let backend = match p.backend.as_str() {
        "mem" => BackendChoice::Mem,
        "file" if p.dir.is_empty() => BackendChoice::File(ctx.out_dir.join("store_chunks")),
        "file" => BackendChoice::File(std::path::PathBuf::from(&p.dir)),
        other => {
            return Err(ExperimentError::BadValue {
                name: "backend".to_string(),
                value: other.to_string(),
                expected: "`mem` or `file`".to_string(),
            })
        }
    };
    let trace_text = if p.trace.is_empty() {
        None
    } else {
        Some(std::fs::read_to_string(&p.trace)?)
    };
    Ok(BenchSpec {
        store,
        load: LoadSpec {
            ops: p.ops,
            objects: u64::from(p.objects.get()),
            zipf_s: p.zipf,
            put_pct: p.put_pct.get(),
            delete_pct: p.delete_pct.get(),
            ops_per_sec: u64::from(p.ops_per_sec.get()),
        },
        kill: (p.kill_at > 0).then_some(KillSpec {
            at_op: p.kill_at,
            racks: p.kill_racks,
            disks: p.kill_disks,
        }),
        threads: mlec_runner::executor::resolve_threads(ctx.runner.threads),
        shards: p.shards as usize,
        batch: p.batch.get() as usize,
        verify_every: p.verify_every,
        seed: p.seed,
        backend,
        oplog: (!p.oplog.is_empty()).then(|| std::path::PathBuf::from(&p.oplog)),
        trace_text,
        timing: p.timing != 0,
    })
}

#[allow(clippy::too_many_lines)]
fn run_store_bench_exp(
    ctx: &ExperimentCtx,
    p: &StoreBenchParams,
) -> Result<ExperimentOutput, ExperimentError> {
    let spec = store_bench_spec(ctx, p)?;
    let report = mlec_store::run_store_bench(&spec).map_err(store_err)?;
    let mut out = ExperimentOutput::new();

    let cfg = &spec.store;
    w!(
        out.text,
        "({}+{})/({}+{}) {} over {} racks, {} objects × {} B, seed {}",
        cfg.code.kn,
        cfg.code.pn,
        cfg.code.kl,
        cfg.code.pl,
        cfg.scheme.name(),
        cfg.geometry.racks,
        spec.load.objects,
        cfg.payload_bytes(),
        spec.seed
    );
    w!(
        out.text,
        "{} ops replayed: {} puts, {} gets, {} deletes, {} misses",
        report.ops,
        report.puts,
        report.gets,
        report.deletes,
        report.misses
    );
    w!(
        out.text,
        "verified bit-exact: {} inline + {} final sweep; cache hit rate {:.1}%\n",
        report.verified_inline,
        report.verified_final,
        report.cache_hit_rate * 100.0
    );

    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.to_string(),
                p.count.to_string(),
                format!("{:.0}", p.mean_us),
                p.p50_us.to_string(),
                p.p99_us.to_string(),
                p.p999_us.to_string(),
                p.max_us.to_string(),
            ]
        })
        .collect();
    w!(
        out.text,
        "{}",
        ascii_table(
            &["phase", "ops", "mean µs", "p50", "p99", "p999", "max"],
            &rows
        )
    );

    if let Some(kill_us) = report.kill_time_us {
        w!(
            out.text,
            "\nfailure injected at t={kill_us} µs: {} chunks lost",
            report.lost_chunks
        );
        w!(
            out.text,
            "degraded reads {} (all verified), failed gets {}",
            report.degraded_reads,
            report.failed_gets
        );
        match report.rebuild_done_us {
            Some(done) => w!(
                out.text,
                "rebuild finished at t={done} µs: {} stripes repaired ({} local + {} network \
                 chunks), {} skipped, {} unrecoverable",
                report.repaired_stripes,
                report.repaired_local_chunks,
                report.repaired_network_chunks,
                report.skipped_stripes,
                report.unrecoverable_stripes
            ),
            None => w!(out.text, "rebuild did not finish within the trace"),
        }
        if let (Some(steady), Some(rebuild)) = (report.phase("steady"), report.phase("rebuild")) {
            w!(
                out.text,
                "interference: rebuild p99 {} µs vs steady p99 {} µs ({:+.1}%), p999 {} vs {}",
                rebuild.p99_us,
                steady.p99_us,
                (rebuild.p99_us as f64 / steady.p99_us.max(1) as f64 - 1.0) * 100.0,
                rebuild.p999_us,
                steady.p999_us
            );
        }
    }
    w!(
        out.text,
        "\narbiter traffic: foreground {} I/Os / {} B, repair {} I/Os / {} B",
        report.foreground_ios,
        report.foreground_bytes,
        report.repair_ios,
        report.repair_bytes
    );
    if report.oplog_records > 0 {
        w!(
            out.text,
            "op log: {} records (bit-identical across thread counts)",
            report.oplog_records
        );
    }
    if let Some(secs) = report.wall_secs {
        w!(
            out.text,
            "wall clock: {:.2} s ({:.0} ops/s replayed)",
            secs,
            report.ops as f64 / secs.max(1e-9)
        );
    }

    if p.require_degraded != 0 {
        if report.degraded_reads == 0 {
            out.gate_failures
                .push("gate: require_degraded=1 but no read was degraded".to_string());
        }
        if report.kill_time_us.is_some() && report.rebuild_done_us.is_none() {
            out.gate_failures
                .push("gate: require_degraded=1 but the rebuild never finished".to_string());
        }
        if report.failed_gets > 0 || report.unrecoverable_stripes > 0 {
            out.gate_failures.push(format!(
                "gate: {} failed gets, {} unrecoverable stripes",
                report.failed_gets, report.unrecoverable_stripes
            ));
        }
    }

    let phases: Vec<Json> = report
        .phases
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("phase".to_string(), Json::Str(p.phase.to_string())),
                ("count".to_string(), Json::U64(p.count)),
                ("mean_us".to_string(), Json::F64(p.mean_us)),
                ("p50_us".to_string(), Json::U64(p.p50_us)),
                ("p99_us".to_string(), Json::U64(p.p99_us)),
                ("p999_us".to_string(), Json::U64(p.p999_us)),
                ("max_us".to_string(), Json::U64(p.max_us)),
            ])
        })
        .collect();
    // Deliberately excludes `wall_secs`: artifacts stay deterministic.
    let artifact = Json::obj(vec![
        ("ops", Json::U64(report.ops)),
        ("puts", Json::U64(report.puts)),
        ("gets", Json::U64(report.gets)),
        ("deletes", Json::U64(report.deletes)),
        ("misses", Json::U64(report.misses)),
        ("degraded_reads", Json::U64(report.degraded_reads)),
        ("failed_gets", Json::U64(report.failed_gets)),
        ("verified_inline", Json::U64(report.verified_inline)),
        ("verified_final", Json::U64(report.verified_final)),
        ("phases", Json::Arr(phases)),
        (
            "kill_time_us",
            report.kill_time_us.map_or(Json::Null, Json::U64),
        ),
        ("lost_chunks", Json::U64(report.lost_chunks)),
        (
            "rebuild_done_us",
            report.rebuild_done_us.map_or(Json::Null, Json::U64),
        ),
        ("repaired_stripes", Json::U64(report.repaired_stripes)),
        ("skipped_stripes", Json::U64(report.skipped_stripes)),
        (
            "unrecoverable_stripes",
            Json::U64(report.unrecoverable_stripes),
        ),
        (
            "repaired_local_chunks",
            Json::U64(report.repaired_local_chunks),
        ),
        (
            "repaired_network_chunks",
            Json::U64(report.repaired_network_chunks),
        ),
        ("cache_hit_rate", Json::F64(report.cache_hit_rate)),
        ("foreground_ios", Json::U64(report.foreground_ios)),
        ("foreground_bytes", Json::U64(report.foreground_bytes)),
        ("repair_ios", Json::U64(report.repair_ios)),
        ("repair_bytes", Json::U64(report.repair_bytes)),
        ("oplog_records", Json::U64(report.oplog_records)),
    ]);
    out.artifacts.push(("store_bench".to_string(), artifact));
    Ok(out)
}
