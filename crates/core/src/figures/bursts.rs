//! Correlated failure bursts: the PDL heatmaps of MLEC (Fig 5), SLEC
//! (Fig 13) and LRC-Dp (Fig 16) over `(failed disks, affected racks)`.
//!
//! A heatmap is one deterministic [`GridTrial`] run per series (trial
//! index → grid cell, per-trial seeds from the run's seed stream), so cell
//! estimates are bit-identical across thread counts and can
//! checkpoint/resume via JSONL manifests.

use super::RunnerOpts;
use crate::registry::{
    declare_experiment, Bounded, ExperimentCtx, ExperimentError, ExperimentOutput, Mode,
};
use crate::report::render_heatmap;
use mlec_analysis::burst::{
    lrc_burst_sample, lrc_undecodable_by_count, mlec_burst_sample, slec_burst_sample,
};
use mlec_ec::{Lrc, LrcParams, SlecParams};
use mlec_runner::{impl_to_json, run_with, trial_rng, GridOrder, GridTrial, Json, StopRule};
use mlec_sim::config::MlecDeployment;
use mlec_topology::{Geometry, MlecScheme, SlecPlacement};
use std::num::NonZeroU32;

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

impl_to_json!(Heatmap {
    label,
    xs,
    ys,
    pdl,
    trials
});

/// Grid lines of a heatmap axis: always dense over 1..=6 (the paper's PDL
/// structure pivots at `x = p_n + 1` racks), then every `step` up to
/// `max`. Total for every `max` and `step`: no sum can leave `u32`.
fn axis(max: u32, step: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (1..=max.min(6)).collect();
    let stepped = (6..max).step_by(step.max(1) as usize);
    v.extend(stepped.skip(1));
    // The last line is `max`, which the dense part already ends on
    // when `max <= 6`.
    v.push(max);
    v.dedup();
    v
}

/// One heatmap as one deterministic runner campaign: feasible `(y, x)`
/// cells are flattened in row-major order, trial `i` draws one
/// conditional-MC sample of cell `i / samples` (or of cell `i % cells`
/// under an adaptive stop, so every cell keeps an equal share of the spent
/// budget), and the per-cell Welford means become the PDL matrix (`y < x`
/// cells stay NaN: impossible burst). `extra` names the series in the run
/// identity.
fn run_heatmap(
    display_label: String,
    run_label: &str,
    p: &HeatmapParams,
    opts: &RunnerOpts,
    extra: &str,
    sample: impl Fn(u32, u32, &mut mlec_runner::TrialRng) -> f64 + Sync,
) -> Heatmap {
    let (max, step, samples) = (p.max.get(), p.step.get(), p.samples.get());
    let rel_err = (p.rel_err > 0.0).then_some(p.rel_err);
    let xs = axis(max, step);
    let ys = axis(max, step);
    let cells: Vec<(u32, u32)> = ys
        .iter()
        .flat_map(|&y| xs.iter().filter(move |&&x| y >= x).map(move |&x| (y, x)))
        .collect();

    let trial = GridTrial {
        cells: cells.len(),
        samples_per_cell: samples as u64,
        order: match rel_err {
            Some(_) => GridOrder::Interleaved,
            None => GridOrder::Blocked,
        },
        f: |cell: usize, seed: u64| {
            let (y, x) = cells[cell];
            let mut rng = trial_rng(seed);
            sample(y, x, &mut rng)
        },
    };
    let stop = match rel_err {
        Some(rel) => StopRule::until_rel_err(
            rel,
            cells.len() as u64 * p.min_samples.min(samples) as u64,
            trial.total_trials(),
        ),
        None => StopRule::fixed(trial.total_trials()),
    };
    let mut fields = vec![
        ("max", Json::U64(max as u64)),
        ("step", Json::U64(step as u64)),
    ];
    match rel_err {
        // Fixed budget: `samples` is run identity (blocked order maps
        // trial index -> cell through it).
        None => fields.push(("samples", Json::U64(samples as u64))),
        // Adaptive: the budget is a stop rule, not identity (a resumed run
        // may extend it), but the interleaved index -> cell mapping is.
        Some(_) => fields.push(("order", Json::Str("interleaved".to_string()))),
    }
    fields.push(("extra", Json::Str(extra.to_string())));
    let config_hash = Json::obj(fields).fingerprint();
    let run_spec = opts.run_spec(run_label, p.seed, stop, config_hash);
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

const HEATMAP_FAST: &[(&str, &str)] = &[("max", "12"), ("samples", "8")];

/// The grid banner above a family's heatmaps.
fn heatmap_grid_line(out: &mut ExperimentOutput, p: &HeatmapParams) {
    let adaptive = if p.rel_err > 0.0 {
        format!(
            " (adaptive: rel_err={}, >={} per cell)",
            p.rel_err, p.min_samples
        )
    } else {
        String::new()
    };
    w!(
        out.text,
        "grid: 1..{} step {}, {} layout samples/cell{adaptive}\n",
        p.max,
        p.step.get(),
        p.samples
    );
}

fn render_maps(out: &mut ExperimentOutput, p: &HeatmapParams, maps: &[Heatmap]) {
    for map in maps {
        w!(out.text, "{}", render_heatmap(map));
        if p.rel_err > 0.0 {
            w!(out.text, "  [adaptive stop: {} trials spent]\n", map.trials);
        }
    }
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
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, p);
    let maps: Vec<Heatmap> = MlecScheme::ALL
        .into_iter()
        .map(|scheme| {
            let dep = MlecDeployment::paper_default(scheme);
            let run_label = format!("fig05/{}", scheme.name().replace('/', ""));
            run_heatmap(
                scheme.name(),
                &run_label,
                p,
                &ctx.runner,
                &scheme.name(),
                |y, x, rng| mlec_burst_sample(&dep, y, x, rng),
            )
        })
        .collect();
    render_maps(&mut out, p, &maps);
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

// ---------------------------------------------------------------- fig13

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
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, p);
    let g = Geometry::paper_default();
    let params = SlecParams::new(7, 3);
    let maps: Vec<Heatmap> = SlecPlacement::ALL
        .into_iter()
        .map(|placement| {
            let run_label = format!("fig13/{}", placement.name());
            run_heatmap(
                placement.name().to_string(),
                &run_label,
                p,
                &ctx.runner,
                &format!("{} {}+{}", placement.name(), params.k, params.p),
                |y, x, rng| slec_burst_sample(&g, params, placement, y, x, rng),
            )
        })
        .collect();
    render_maps(&mut out, p, &maps);
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

// ---------------------------------------------------------------- fig16

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
    let mut out = ExperimentOutput::new();
    heatmap_grid_line(&mut out, p);
    let g = Geometry::paper_default();
    let params = LrcParams::paper_default();
    let lrc = Lrc::new(params.k, params.l, params.r).expect("valid LRC");
    let curve = lrc_undecodable_by_count(&lrc, 2000, p.seed);
    let map = run_heatmap(
        format!("LRC-Dp {params}"),
        "fig16/LRC-Dp",
        p,
        &ctx.runner,
        &format!("{params}"),
        |y, x, rng| lrc_burst_sample(&g, params, &curve, y, x, rng),
    );
    render_maps(&mut out, p, std::slice::from_ref(&map));
    w!(
        out.text,
        "paper: pattern similar to Net-Dp SLEC — susceptible to highly scattered bursts"
    );
    out.artifact("fig16", &map);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_small_grid_runs() {
        let args = ["max=12", "step=6", "samples=10", "seed=1"].map(String::from);
        let ctx = ExperimentCtx::parse(&FIG05, &args).unwrap();
        let out = (FIG05.bind)(&ctx).unwrap()().unwrap();
        let [(name, Json::Arr(maps))] = &out.artifacts[..] else {
            panic!("fig05 writes one array artifact");
        };
        assert_eq!(name, "fig05");
        assert_eq!(maps.len(), 4);
        let u32s = |m: &Json, key| -> Vec<u32> {
            let items = m.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|v| v.as_u64().unwrap() as u32).collect()
        };
        for m in maps {
            let label = m.get("label").and_then(Json::as_str).unwrap();
            let (xs, ys) = (u32s(m, "xs"), u32s(m, "ys"));
            let pdl = m.get("pdl").and_then(Json::as_arr).unwrap();
            assert_eq!(pdl.len(), ys.len());
            // y < x cells are NaN; others are probabilities.
            for (yi, row) in pdl.iter().enumerate() {
                for (xi, v) in row.as_arr().unwrap().iter().enumerate() {
                    let v = v.as_f64().unwrap();
                    if ys[yi] < xs[xi] {
                        assert!(v.is_nan());
                    } else {
                        assert!((0.0..=1.0).contains(&v), "{label} y{yi} x{xi} = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn heatmap_axis_is_total() {
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
}
