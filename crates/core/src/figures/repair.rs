//! Repair cost: Table 2's repair sizes and bandwidths, Fig 6's repair
//! times, and the traffic (Fig 8) and time (Fig 9) of each repair method,
//! analytic or measured by whole-system missions.

use super::method_by_scheme_table;
use crate::registry::{
    declare_experiment, suggest_among, ExperimentCtx, ExperimentError, ExperimentOutput, Mode,
    NoParams,
};
use crate::report::{ascii_table, fmt_value};
use mlec_runner::{impl_to_json, Json, StopRule};
use mlec_sim::bandwidth::{
    catastrophic_pool_repair_bw, catastrophic_pool_repair_time, repair_sizes,
    single_disk_repair_bw, single_disk_repair_time,
};
use mlec_sim::config::MlecDeployment;
use mlec_sim::repair::plan_catastrophic_repair;
use mlec_sim::RepairMethod;
use mlec_topology::MlecScheme;

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

impl_to_json!(RepairBandwidthRow {
    scheme,
    disk_size_tb,
    disk_bw_mbs,
    pool_size_tb,
    pool_bw_mbs,
    disk_repair_hours,
    pool_repair_hours,
});

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

impl_to_json!(RepairMethodCell {
    scheme,
    method,
    cross_rack_tb,
    network_time_h,
    local_time_h,
});

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
struct RepairMethodSimCell {
    /// Scheme label.
    scheme: String,
    /// Method label.
    method: String,
    /// Analytic plan: cross-rack traffic per catastrophic pool, TB.
    plan_cross_rack_tb: f64,
    /// Analytic plan: network repair time per catastrophic pool, hours.
    plan_network_time_h: f64,
    /// Measured: mean cross-rack traffic per catastrophic pool, TB.
    sim_cross_rack_tb: f64,
    /// Measured: mean network-repair sojourn per catastrophic pool, hours.
    sim_network_time_h: f64,
    /// Catastrophic pools observed across all missions.
    catastrophic_pools: u64,
    /// Missions simulated.
    missions: u64,
}

impl_to_json!(RepairMethodSimCell {
    scheme,
    method,
    plan_cross_rack_tb,
    plan_network_time_h,
    sim_cross_rack_tb,
    sim_network_time_h,
    catastrophic_pools,
    missions,
});

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

/// Fig 8 + Fig 9 `mode=sim`: measure per-catastrophic-pool repair traffic
/// and sojourn by running whole-system missions through `mlec-runner` (one
/// campaign per scheme × method, at an AFR inflated enough to observe
/// catastrophic pools directly). The analytic plan of
/// [`fig8_fig9_repair_methods`] sits beside the measurement; they must
/// agree because the simulator charges repairs from the same plan — the
/// sim columns confirm the event accounting, catastrophe frequencies and
/// determinism of the pipeline, not an independent physical model. Each
/// campaign is a few missions, less than one runner batch, so the
/// campaigns themselves share the thread budget ([`mlec_runner::fan_out`]).
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
    let model = mlec_sim::failure::FailureModel::Exponential { afr };
    let deployments = MlecScheme::ALL.map(|scheme| {
        let mut dep = MlecDeployment::paper_default(scheme);
        dep.config.afr = afr;
        dep
    });
    // One campaign per scheme x method, rendered in this order whichever
    // finished first.
    let campaigns: Vec<(&MlecDeployment, RepairMethod)> = deployments
        .iter()
        .flat_map(|dep| methods.iter().map(move |&method| (dep, method)))
        .collect();
    let cells = mlec_runner::fan_out(campaigns.len(), ctx.runner.threads, |index, threads| {
        let (dep, method) = campaigns[index];
        let scheme = dep.scheme;
        let plan = plan_catastrophic_repair(dep, method);
        let trial = mlec_sim::trials::SystemTrial {
            dep,
            model: &model,
            strategy: method,
            years,
            opts: mlec_sim::system_sim::SystemSimOptions::default(),
            event_log: None,
            log_label: "",
        };
        // Trial budget excluded (a resumed run may extend it), the
        // physics included — see `durability::stage1_campaigns`.
        let config_hash = Json::obj(vec![
            ("afr", Json::F64(afr)),
            ("years_per_trial", Json::F64(years)),
            ("method", Json::Str(method.name().to_string())),
        ])
        .fingerprint();
        let run_label = format!("fig08/{}-{}", scheme.name().replace('/', ""), method.name());
        let spec = ctx
            .runner
            .run_spec(&run_label, seed, StopRule::fixed(trials), config_hash)
            .threads(threads);
        let report = mlec_runner::run(&trial, &spec)?;
        let acc = &report.acc;
        let cat = acc.catastrophic_pools;
        let missions = report.trials;
        let total_traffic = acc.cross_rack_traffic_tb.mean() * missions as f64;
        let total_sojourn = acc.total_sojourn_h.mean() * missions as f64;
        Ok::<_, std::io::Error>(RepairMethodSimCell {
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
        })
    });
    Ok((cells.into_iter().collect::<Result<_, _>>()?, out))
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
}
