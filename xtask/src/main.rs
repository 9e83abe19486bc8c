//! `cargo xtask` — workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo xtask lint [--json] [--list] [--changed] [--root DIR]
//! ```
//!
//! Exit codes: 0 = clean, 1 = lint violations, 2 = usage or engine error
//! (unreadable tree, malformed `lints.allow.toml`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--json] [--list] [--changed] [--root DIR]

  --json       emit the machine-readable diagnostics report on stdout
  --list       list registered lints and exit
  --changed    report only findings in files changed vs git HEAD
               (plus untracked files); unused-allow checking is skipped
  --root DIR   lint the workspace at DIR (default: CARGO manifest parent,
               falling back to the current directory)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "xtask: unknown subcommand {:?}\n{USAGE}",
                other.unwrap_or("<none>")
            );
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut changed = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--changed" => changed = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("xtask: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if list {
        for l in xtask::lints::all() {
            println!("{:<24} {}", l.name(), l.description());
        }
        return ExitCode::SUCCESS;
    }
    // When run as `cargo xtask …`, cwd is wherever the user invoked
    // cargo; the workspace root is the parent of this crate's manifest
    // directory, fixed at build time.
    let root = root.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .filter(|p| p.join("Cargo.toml").is_file())
            .map_or_else(|| PathBuf::from("."), PathBuf::from)
    });
    let scope = if changed {
        match xtask::git_changed_files(&root) {
            Ok(files) => Some(files),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let xtask::LintRun {
        diagnostics: diags,
        notes,
    } = match xtask::run_lints_scoped(&root, scope.as_deref()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", xtask::diag::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        for note in &notes {
            println!("{note}");
        }
    }
    if diags.is_empty() {
        if !json {
            let mode = if changed { " over changed files" } else { "" };
            println!(
                "xtask lint: clean ({} lints{mode})",
                xtask::lints::all().len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            eprintln!(
                "xtask lint: {} violation{} (suppress with a reasoned entry in lints.allow.toml)",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" }
            );
        }
        ExitCode::FAILURE
    }
}
