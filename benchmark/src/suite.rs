//! Result sets: the output of one run as JSON, and `--workload all`, which
//! runs every workload in a process of its own (so that peak memory is per
//! workload) and stores the results beside the host fingerprint.

use crate::ledger::Ledger;
use crate::{host, Outcome, RunCfg};
use mlec_runner::Json;
use std::process::Command;

/// The result line of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every declared metric of the run's
/// kind (end-to-end with tracing off, per-layer with tracing on). A
/// per-layer metric of a layer the workload does not exercise reads 0.
pub fn result_json(ledger: &Ledger, cfg: &RunCfg, out: &Outcome) -> Result<Json, String> {
    let declared = if cfg.trace {
        &ledger.per_layer
    } else {
        &ledger.end_to_end
    };
    if let Some(stray) = out
        .readings
        .keys()
        .find(|name| !declared.iter().any(|d| &d.name == *name))
    {
        return Err(format!(
            "metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    let mut metrics = Vec::new();
    for decl in declared {
        let value = match out.value(&decl.name) {
            Some(v) => v,
            None if cfg.trace => 0.0,
            None => {
                return Err(format!(
                    "end-to-end metric `{}` was not measured",
                    decl.name
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", decl.name));
        }
        metrics.push((
            decl.name.clone(),
            Json::obj(vec![
                ("value", Json::F64(value)),
                ("unit", Json::Str(decl.unit.clone())),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Every metric by name with its unit, for the human reader.
pub fn print_readings(ledger: &Ledger, out: &Outcome) {
    for (name, reading) in &out.readings {
        let unit = ledger.metric(name).map_or("?", |d| d.unit.as_str());
        match reading.quartiles {
            Some((q1, q3, n)) => println!(
                "{name:<44} {:>16.6} {unit:<10} median of {n} reps, quartiles {q1:.6} .. {q3:.6}",
                reading.value
            ),
            None => println!("{name:<44} {:>16.6} {unit}", reading.value),
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
}

/// Run every workload `runs` times (seeds `seed`, `seed + 1`, …), once per
/// kind in `traced` (tracing off, tracing on), each in a child process, and
/// write the result set to `<out_dir>/results.json`. Returns whether every
/// run was correct.
pub fn run_all(
    ledger: &Ledger,
    base: &RunCfg,
    traced: &[bool],
    runs: usize,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seeds: Vec<u64> = (0..runs as u64).map(|r| base.seed + r).collect();
    let mut rows = Vec::new();
    let mut all_correct = true;
    for &seed in &seeds {
        for workload in &ledger.workloads {
            for trace in traced.iter().map(|&t| u64::from(t)) {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &base.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .arg("--out")
                    .arg(&base.out_dir);
                if base.quick {
                    child.arg("--quick");
                }
                // `output` waits for the child to end.
                let output = child.output().map_err(|e| format!("{workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                let result = stdout
                    .lines()
                    .last()
                    .and_then(|line| Json::parse(line).ok())
                    .ok_or_else(|| {
                        format!("{workload} (seed {seed}, trace {trace}) printed no result")
                    })?;
                let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
                all_correct &= correct && output.status.success();
                let mut row = vec![
                    ("workload".to_string(), Json::Str(workload.clone())),
                    ("seed".to_string(), Json::U64(seed)),
                    ("trace".to_string(), Json::U64(trace)),
                ];
                if let Json::Obj(fields) = result {
                    row.extend(fields);
                }
                rows.push(Json::Obj(row));
            }
        }
    }
    let set = Json::obj(vec![
        ("fingerprint", host::fingerprint(&seeds, runs, base.seconds)),
        ("quick", Json::Bool(base.quick)),
        ("runs", Json::Arr(rows)),
    ]);
    let results = base.out_dir.join("results.json");
    std::fs::create_dir_all(&base.out_dir)
        .and_then(|()| std::fs::write(&results, set.to_string_pretty() + "\n"))
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("result set written to {}", results.display());
    Ok(all_correct)
}
