//! Headline summaries: the storage-scaling motivation of Fig 1, the
//! repair network traffic of §5.1.4 / §5.2.4, the ablation sweeps beyond
//! the paper's figures, and the reproduction summary of headline numbers.

use super::durability::{fig10_durability, fig7_catastrophic_prob};
use super::repair::{fig8_fig9_repair_methods, table2_and_fig6};
use crate::figdata;
use crate::registry::{
    declare_experiment, ExperimentCtx, ExperimentError, ExperimentOutput, Mode, NoParams,
};
use crate::report::{ascii_table, fmt_value};
use mlec_analysis::chains::system_catastrophic_rate;
use mlec_ec::LrcParams;
use mlec_runner::impl_to_json;
use mlec_sim::config::MlecDeployment;
use mlec_sim::{traffic, RepairMethod, SimConfig};
use mlec_topology::{Geometry, MlecScheme};

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

impl_to_json!(TrafficRow {
    system,
    tb_per_day,
    tb_per_year,
});

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
