//! The durability/throughput tradeoff: the measured `(k + p)` encoding
//! throughput surface (Fig 11) and the scatter of MLEC against SLEC
//! (Fig 12) and against LRC-Dp (Fig 15) at about 30% overhead, each
//! analytic or cross-checked by adaptive runner campaigns.

use crate::registry::{
    declare_experiment, Bounded, ExperimentCtx, ExperimentError, ExperimentOutput, Mode,
};
use crate::report::{ascii_table, fmt_value};
use mlec_analysis::burst::{mlec_burst_sample, slec_burst_sample};
use mlec_analysis::tradeoff::{
    enumerate_lrc, enumerate_mlec, enumerate_slec, ideal_lrc_undecodable_at_limit, TradeoffPoint,
    OVERHEAD_BAND,
};
use mlec_ec::throughput::{measure_slec, ThroughputModel};
use mlec_ec::{Lrc, LrcParams, SlecParams};
use mlec_runner::{impl_to_json, trial_rng, FnTrial, HitTrial, Json, StopRule, TrialRng};
use mlec_sim::config::MlecDeployment;
use mlec_sim::SimConfig;
use mlec_topology::{Geometry, MlecScheme, SlecPlacement};
use std::convert::Infallible;
use std::num::NonZeroU32;

/// One measured point of the Fig 11 throughput surface.
#[derive(Debug, Clone)]
struct ThroughputCell {
    /// Data chunks.
    k: usize,
    /// Parity chunks.
    p: usize,
    /// Measured single-core encoding throughput, MB/s.
    mb_per_s: f64,
}

impl_to_json!(ThroughputCell { k, p, mb_per_s });

/// One burst-PDL cross-check row of Fig 12 `mode=sim`: the paper's
/// flagship configuration of a Fig 12 family, with its stress-cell burst
/// PDL measured by an adaptive conditional-MC campaign.
#[derive(Debug, Clone)]
struct BurstCheckRow {
    /// Configuration label, e.g. `"(10+2)/(17+3)"`.
    label: String,
    /// Series name, e.g. `"C/D"` or `"Loc-Cp-S"`.
    family: String,
    /// Burst PDL at the stress cell (mean over conditional-MC samples).
    burst_pdl: f64,
    /// 95% CI half-width of the estimate.
    ci_half_width: f64,
    /// Conditional-MC samples spent (less than the budget when the
    /// adaptive precision target fired).
    trials: u64,
    /// Achieved relative standard error.
    rel_err: f64,
}

impl_to_json!(BurstCheckRow {
    label,
    family,
    burst_pdl,
    ci_half_width,
    trials,
    rel_err,
});

/// One sampled LRC undecodability row of Fig 15 `mode=sim`.
#[derive(Debug, Clone)]
struct LrcUndecodableRow {
    /// Configuration label, e.g. `"(14,2,4)"`.
    label: String,
    /// Analytic `P(undecodable | r + 2 uniform erasures)`.
    analytic: f64,
    /// Sampled estimate (exact rank tests through the runner).
    sampled: f64,
    /// Rank tests spent.
    trials: u64,
    /// Achieved relative CI half-width.
    rel_err: f64,
}

impl_to_json!(LrcUndecodableRow {
    label,
    analytic,
    sampled,
    trials,
    rel_err,
});

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

/// Fig 11: measure the `(k + p)` encoding-throughput surface, `mb` MiB of
/// `chunk_kb` KiB chunks per point (the paper uses 128 KB), each stripe
/// split across `threads` workers (1 = single-core, the paper's setup).
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

    let mut cells = Vec::new();
    for &p in &ps {
        for &k in &ks {
            let pt = measure_slec(k, p, chunk, min_bytes, threads);
            cells.push(ThroughputCell {
                k,
                p,
                mb_per_s: pt.mb_per_s,
            });
        }
    }

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

fn tradeoff_tables(out: &mut ExperimentOutput, points: &[TradeoffPoint], families: &[&str]) {
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

/// Fig 12: MLEC (C/C, C/D) vs SLEC tradeoff scatter.
fn fig12_mlec_vs_slec(model: &ThroughputModel) -> Vec<TradeoffPoint> {
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

/// Fig 15: MLEC C/D vs LRC-Dp tradeoff scatter, the LRC series thinned
/// by `lrc_undecodable`; its first error ends the scatter.
fn fig15_mlec_vs_lrc<E>(
    model: &ThroughputModel,
    lrc_undecodable: impl FnMut(LrcParams) -> Result<f64, E>,
) -> Result<Vec<TradeoffPoint>, E> {
    let g = Geometry::paper_default();
    let c = SimConfig::paper_default();
    let mut out = enumerate_mlec(&g, &c, MlecScheme::CD, OVERHEAD_BAND, model);
    out.extend(enumerate_lrc(
        &g,
        &c,
        OVERHEAD_BAND,
        model,
        lrc_undecodable,
    )?);
    Ok(out)
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

/// Fig 12. `mode=sim` adds a burst-PDL cross-check to the analytic
/// scatter: for the paper's flagship configuration of each family, one
/// adaptive conditional-MC campaign through `mlec-runner` measures the PDL
/// of a `(failures, racks)` stress burst with a
/// [`StopRule::until_rel_err`] precision target.
fn run_fig12(ctx: &ExperimentCtx, p: &Fig12Params) -> Result<ExperimentOutput, ExperimentError> {
    let model = ThroughputModel::calibrate();
    let mut out = ExperimentOutput::new();
    w!(
        out.text,
        "calibrated kernel rate: {:.0} MB/s of multiply work (single core, kernel: {})\n",
        model.rate_mb_per_s,
        mlec_gf::simd::kernel_name()
    );
    let points = fig12_mlec_vs_slec(&model);
    tradeoff_tables(&mut out, &points, FIG12_FAMILIES);
    if ctx.mode != Mode::Sim {
        w!(
            out.text,
            "paper F#2: above ~20 nines, MLEC sustains much higher throughput than SLEC"
        );
        out.artifact("fig12", &points);
        return Ok(out);
    }
    let (failures, racks, rel_err) = (p.failures.get(), p.racks.get(), p.rel_err);
    // One campaign: `label`/`family` name the row, `extra` the series in
    // the run identity.
    let check = |run_label: String,
                 label: String,
                 family: String,
                 extra: String,
                 sample: &(dyn Fn(&mut TrialRng) -> f64 + Sync)|
     -> std::io::Result<BurstCheckRow> {
        let trial = FnTrial(|seed: u64| {
            let mut rng = trial_rng(seed);
            sample(&mut rng)
        });
        let config_hash = Json::obj(vec![
            ("y", Json::U64(failures as u64)),
            ("x", Json::U64(racks as u64)),
            ("extra", Json::Str(extra)),
        ])
        .fingerprint();
        let stop = StopRule::until_rel_err(rel_err, p.min_samples, p.samples);
        let spec = ctx.runner.run_spec(&run_label, p.seed, stop, config_hash);
        let s = mlec_runner::run(&trial, &spec)?.summary;
        Ok(BurstCheckRow {
            label,
            family,
            burst_pdl: s.mean,
            ci_half_width: (s.ci_high - s.ci_low) / 2.0,
            trials: s.trials,
            rel_err: s.rel_err,
        })
    };
    let mut checks = Vec::new();
    for scheme in [MlecScheme::CC, MlecScheme::CD] {
        let dep = MlecDeployment::paper_default(scheme);
        checks.push(check(
            format!("fig12/{}", scheme.name().replace('/', "")),
            dep.params.to_string(),
            scheme.name(),
            scheme.name(),
            &|rng: &mut TrialRng| mlec_burst_sample(&dep, failures, racks, rng),
        )?);
    }
    let g = Geometry::paper_default();
    let slec = SlecParams::new(7, 3);
    for placement in SlecPlacement::ALL {
        checks.push(check(
            format!("fig12/{}", placement.name()),
            slec.to_string(),
            format!("{}-S", placement.name()),
            format!("{} {}", placement.name(), slec),
            &|rng: &mut TrialRng| slec_burst_sample(&g, slec, placement, failures, racks, rng),
        )?);
    }
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

/// Fig 15. `mode=sim` *measures* every LRC point's undecodability
/// thinning instead of assuming it: one adaptive `mlec-runner` campaign of
/// exact rank tests per LRC configuration (uniform `r + 2`-erasure
/// patterns, [`StopRule::until_rel_err`]) feeds [`enumerate_lrc`] the
/// sampled `P(undecodable)`. The MLEC C/D series stays analytic, as in the
/// paper.
fn run_fig15(ctx: &ExperimentCtx, p: &Fig15Params) -> Result<ExperimentOutput, ExperimentError> {
    let model = ThroughputModel::calibrate();
    let mut out = ExperimentOutput::new();
    if ctx.mode != Mode::Sim {
        let Ok(points) = fig15_mlec_vs_lrc(&model, |params| {
            Ok::<_, Infallible>(ideal_lrc_undecodable_at_limit(params))
        });
        tradeoff_tables(&mut out, &points, &["C/D", "LRC-Dp"]);
        w!(
            out.text,
            "paper F#1: MLEC reaches high durability with higher encoding throughput than LRC"
        );
        out.artifact("fig15", &points);
        return Ok(out);
    }
    let rel_err = p.rel_err;
    let mut rows = Vec::new();
    let points = fig15_mlec_vs_lrc(&model, |params| {
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
        let stop = StopRule::until_rel_err(rel_err, p.min_samples, p.samples);
        let spec = ctx.runner.run_spec(&run_label, p.seed, stop, config_hash);
        let s = mlec_runner::run(&trial, &spec)?.summary;
        rows.push(LrcUndecodableRow {
            label: params.to_string(),
            analytic: ideal_lrc_undecodable_at_limit(params),
            sampled: s.mean,
            trials: s.trials,
            rel_err: s.rel_err,
        });
        Ok::<_, std::io::Error>(s.mean)
    })?;
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 11's throughput cells, measured through its declaration.
    fn fig11_cells(args: &[&str]) -> Vec<(u64, u64, f64)> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        let ctx = ExperimentCtx::parse(&FIG11, &args).unwrap();
        let out = (FIG11.bind)(&ctx).unwrap()().unwrap();
        let [(_, Json::Arr(cells))] = &out.artifacts[..] else {
            panic!("fig11 writes one array artifact");
        };
        let field = |c: &Json, key| c.get(key).and_then(Json::as_f64).unwrap();
        cells
            .iter()
            .map(|c| {
                (
                    field(c, "k") as u64,
                    field(c, "p") as u64,
                    field(c, "mb_per_s"),
                )
            })
            .collect()
    }

    #[test]
    fn fig11_tiny_grid() {
        // k in {2, 4}, p in {1, 2}, 4 KiB chunks, 1 MiB per cell.
        let cells = fig11_cells(&[
            "kmax=4",
            "kstep=2",
            "pmax=2",
            "pstep=1",
            "chunk_kb=4",
            "mb=1",
        ]);
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.2 > 0.0));
    }

    #[test]
    fn fig11_threaded_grid_measurable() {
        // threads > 1 exercises encode_into_parallel under the measurement
        // path (two 64 KiB segments per 128 KiB chunk); results stay
        // finite/positive regardless of host core count.
        let cells = fig11_cells(&["kmax=2", "pmax=1", "chunk_kb=128", "mb=1", "threads=4"]);
        assert_eq!(cells.len(), 1);
        assert!(cells.iter().all(|c| c.2 > 0.0 && c.2.is_finite()));
    }
}
