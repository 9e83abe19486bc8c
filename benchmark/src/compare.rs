//! `compare <a.json> <b.json>`: judge result set `b` against result set
//! `a` by the benchmark's own bounds, one verdict per metric and workload.

use crate::ledger::{is_exact_unit, Ledger, MetricDecl};
use crate::stats;
use mlec_runner::Json;
use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// `b` better than `a` by more than the bound.
    Better,
    /// `b` worse than `a` by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound: no verdict.
    Unresolved,
    /// A count or virtual-time reading that must repeat exactly and did not.
    Differs,
    /// Per-layer wall-clock metric: reported, never judged.
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
            Verdict::Info => "info",
        })
    }
}

/// `(workload, metric) -> [(seed, value)]` over the runs of a result set.
type Samples = BTreeMap<(String, String), Vec<(u64, f64)>>;

pub fn samples_of(set: &Json) -> Result<Samples, String> {
    let runs = set
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result set has no `runs` list")?;
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: run without metrics"));
        };
        for (name, reading) in metrics {
            let value = reading
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
pub fn judge(decl: &MetricDecl, a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    if is_exact_unit(&decl.unit) {
        // Exact readings are compared seed by seed.
        let of_a: BTreeMap<u64, f64> = a.iter().copied().collect();
        let repeats = b
            .iter()
            .all(|(seed, v)| of_a.get(seed).is_none_or(|w| w == v));
        return if repeats {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = decl.bound else {
        return Verdict::Info;
    };
    let (va, vb): (Vec<f64>, Vec<f64>) = (
        a.iter().map(|s| s.1).collect(),
        b.iter().map(|s| s.1).collect(),
    );
    // Positive when `b` is the worse side.
    let sign = if decl.higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    let worse_by = sign * (mb - ma) / ma.abs();
    if stats::spread(&va).max(stats::spread(&vb)) > bound {
        // Too noisy for the medians to mean anything, unless every run of
        // `b` reads better than every run of `a`.
        let every_b_beats_every_a = vb.iter().all(|y| va.iter().all(|x| sign * (y - x) < 0.0));
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print the comparison; returns whether nothing is `worse` or `differs`.
pub fn compare(ledger: &Ledger, a: &Json, b: &Json) -> Result<bool, String> {
    let (sa, sb) = (samples_of(a)?, samples_of(b)?);
    let mut clean = true;
    println!(
        "{:<16} {:<44} {:>14} {:>14} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "spread a", "spread b"
    );
    for ((workload, name), va) in &sa {
        let (Some(vb), Some(decl)) = (
            sb.get(&(workload.clone(), name.clone())),
            ledger.metric(name),
        ) else {
            continue;
        };
        let verdict = judge(decl, va, vb);
        let values = |v: &[(u64, f64)]| v.iter().map(|s| s.1).collect::<Vec<_>>();
        let (va, vb) = (values(va), values(vb));
        let (ma, mb) = (stats::median(&va), stats::median(&vb));
        // Layers a workload does not exercise read 0 on both sides.
        if ma == 0.0 && mb == 0.0 && !matches!(verdict, Verdict::Differs) {
            continue;
        }
        clean &= !matches!(verdict, Verdict::Worse | Verdict::Differs);
        println!(
            "{workload:<16} {name:<44} {ma:>14.6} {mb:>14.6} {:>7.3} {:>8.1}% {:>8.1}%  {verdict}",
            mb / ma,
            100.0 * stats::spread(&va),
            100.0 * stats::spread(&vb)
        );
    }
    Ok(clean)
}
