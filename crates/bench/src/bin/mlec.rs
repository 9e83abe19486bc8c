//! `mlec` — the single driver for every experiment in the registry.
//!
//! ```text
//! mlec list                       # every figure/table, modes, one-liner
//! mlec info fig10                 # parameter schema with defaults
//! mlec run fig08                  # analytic mode, paper defaults
//! mlec run fig08 mode=sim trials=4 threads=8 out=target/figures
//! mlec run fig05 rel_err=0.1 samples=200 manifests=target/manifests
//! mlec run all --fast             # smoke every experiment with fast params
//! ```
//!
//! Arguments are validated against each experiment's declared schema:
//! unknown keys, malformed values, and unsupported modes exit with status
//! 2 (a failed acceptance gate such as `require_events=` exits 1).

use mlec_core::registry::{self, REGISTRY};
use mlec_core::report::ascii_table;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: mlec <command>");
    eprintln!("  list                      list registered experiments");
    eprintln!("  info <name>               show an experiment's parameters");
    eprintln!("  run <name> [key=value…]   run one experiment");
    eprintln!("  run all [--fast]          run every experiment (--fast: small budgets)");
    eprintln!("global keys accepted by every experiment:");
    eprintln!("  mode=analytic|sim|measured  out=DIR  threads=N  manifests=DIR");
}

fn list() {
    // Sorted by name so the listing is stable as the registry grows
    // (REGISTRY itself stays in the paper's presentation order).
    let mut rows: Vec<Vec<String>> = REGISTRY
        .iter()
        .map(|info| {
            vec![
                info.name.to_string(),
                info.modes
                    .iter()
                    .map(|m| m.name())
                    .collect::<Vec<_>>()
                    .join(","),
                info.title.to_string(),
                info.description.to_string(),
            ]
        })
        .collect();
    rows.sort();
    print!(
        "{}",
        ascii_table(&["name", "modes", "title", "description"], &rows)
    );
    println!("\nrun one with `mlec run <name> [key=value…]`; `mlec info <name>` for parameters.");
}

fn info(name: &str) -> ExitCode {
    let Some(info) = registry::find(name) else {
        match registry::suggest(name) {
            Some(s) => eprintln!(
                "error: unknown experiment `{name}` — did you mean `{s}`? (run `mlec list`)"
            ),
            None => eprintln!("error: unknown experiment `{name}` (run `mlec list`)"),
        }
        return ExitCode::from(2);
    };
    println!("{} — {} [{}]", info.title, info.description, info.paper_ref);
    println!(
        "modes: {} (default: {})",
        info.modes
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", "),
        info.default_mode().name()
    );
    if info.params.is_empty() {
        println!("parameters: none beyond the global keys");
    } else {
        let rows: Vec<Vec<String>> = info
            .params
            .iter()
            .map(|p| {
                vec![
                    p.name.to_string(),
                    p.kind.to_string(),
                    if p.default.is_empty() {
                        "''".to_string()
                    } else {
                        p.default.to_string()
                    },
                    p.help.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            ascii_table(&["parameter", "type", "default", "help"], &rows)
        );
    }
    println!("global keys: mode= out= threads= manifests=");
    if !info.fast.is_empty() {
        let overrides: Vec<String> = info.fast.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("`run all --fast` overrides: {}", overrides.join(" "));
    }
    ExitCode::SUCCESS
}

fn run_all(flags: &[String]) -> ExitCode {
    let fast = match flags {
        [] => false,
        [f] if f == "--fast" => true,
        _ => {
            eprintln!("error: `mlec run all` accepts only `--fast`");
            return ExitCode::from(2);
        }
    };
    let mut failed: Vec<&str> = Vec::new();
    for info in REGISTRY {
        let args: Vec<String> = if fast {
            info.fast.iter().map(|(k, v)| format!("{k}={v}")).collect()
        } else {
            Vec::new()
        };
        println!("--- mlec run {} {}", info.name, args.join(" "));
        if mlec_bench::execute_status(info.name, &args) != 0 {
            failed.push(info.name);
        }
        println!();
    }
    if failed.is_empty() {
        println!("all {} experiments completed", REGISTRY.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("info") => match args.get(1) {
            Some(name) => info(name),
            None => {
                usage();
                ExitCode::from(2)
            }
        },
        Some("run") => match args.get(1).map(String::as_str) {
            Some("all") => run_all(&args[2..]),
            Some(name) => mlec_bench::execute_with(name, &args[2..]),
            None => {
                usage();
                ExitCode::from(2)
            }
        },
        Some("help" | "--help" | "-h") => {
            usage();
            ExitCode::SUCCESS
        }
        _ => {
            usage();
            ExitCode::from(2)
        }
    }
}
