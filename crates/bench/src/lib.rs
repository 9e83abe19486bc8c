//! `mlec-bench`: the `mlec` experiment driver (`src/bin/mlec.rs`).
//! Performance is measured by the ledger (`BENCHMARK.json` + `benchmark/`);
//! `benches/micro.rs` only prints the few rows it does not cover yet.
//!
//! All execution goes through `mlec_core::registry`: arguments are parsed
//! once against each experiment's declared schema, so unknown keys,
//! malformed values, and unsupported modes exit non-zero instead of being
//! silently ignored. Every experiment prints the paper-comparable
//! rows/series to stdout and dumps machine-readable JSON under
//! `target/figures/` (tunable with `out=DIR`).

use mlec_core::registry::{self, ExperimentError, RunOutcome};
use std::process::ExitCode;

/// Standard banner printed before an experiment's report.
fn banner(figure: &str, description: &str) {
    println!("=== {figure}: {description}");
    println!(
        "    (mlec-rs reproduction of Wang et al., SC'23 — shapes/orderings are the target, \
         not absolute testbed numbers)"
    );
    println!();
}

fn print_outcome(outcome: &RunOutcome) {
    banner(outcome.info.title, outcome.info.description);
    print!("{}", outcome.text);
    for path in &outcome.artifact_paths {
        println!("json: {}", path.display());
    }
}

/// Run a registered experiment with explicit `key=value` arguments,
/// printing its banner, report, artifact paths, and any gate failures.
/// Exit status: `0` success, `1` failed gates or campaign I/O, `2`
/// unresolvable name/arguments.
pub fn execute_status(name: &str, raw_args: &[String]) -> u8 {
    match registry::run_experiment(name, raw_args) {
        Ok(outcome) => {
            print_outcome(&outcome);
            if outcome.gate_failures.is_empty() {
                0
            } else {
                for failure in &outcome.gate_failures {
                    eprintln!("{failure}");
                }
                1
            }
        }
        Err(e @ (ExperimentError::Io(_) | ExperimentError::Dump(_))) => {
            eprintln!("error: {e}");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("hint: `mlec info {name}` lists the accepted parameters");
            2
        }
    }
}

/// [`execute_status`] as an [`ExitCode`].
pub fn execute_with(name: &str, raw_args: &[String]) -> ExitCode {
    ExitCode::from(execute_status(name, raw_args))
}
