//! In-tree static analysis for the mlec workspace.
//!
//! `cargo xtask lint` runs a registry of architectural lints (L7 and L8;
//! see DESIGN.md "Enforced invariants" for the retired numbers, whose
//! invariants the compiler and clippy now hold) over the production
//! sources and fails on any finding not suppressed — with a reason — in
//! `lints.allow.toml`, which may hold at most [`allow::ALLOW_CEILING`]
//! entries.
//!
//! The engine is dependency-free by necessity (the build environment has
//! no crates.io registry): a minimal hand-rolled lexer ([`lexer`]) stands
//! in for `syn`, and the lints operate on token streams with
//! `#[cfg(test)]` masking rather than a full AST. That is enough for the
//! invariants enforced here, which are all "this name must not appear in
//! this scope" or small structural patterns.

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;

use diag::Diagnostic;
use std::path::Path;

/// Engine-level failure (bad workspace, malformed allow file) — distinct
/// from lint findings, and mapped to exit code 2 by the CLI.
#[derive(Debug)]
pub struct EngineError(pub String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Run every registered lint over the workspace at `root`, apply the
/// suppressions in `<root>/lints.allow.toml` (if present), and return the
/// surviving diagnostics sorted by path, line, and lint name.
pub fn run_lints(root: &Path) -> Result<Vec<Diagnostic>, EngineError> {
    run_lints_scoped(root, None).map(|run| run.diagnostics)
}

/// What one pass over the workspace produced.
pub struct LintRun {
    /// Surviving findings, sorted by path, line, and lint name.
    pub diagnostics: Vec<Diagnostic>,
    /// `name: note` lines printed whether or not anything fired (L8's
    /// `#[expect]` panic-site count, the allow-entry count).
    pub notes: Vec<String>,
}

/// Like [`run_lints`], optionally scoped to a set of workspace-relative
/// file paths (the `--changed` mode). Lints still scan the *whole*
/// workspace — cross-file lints need global context — but
/// only diagnostics landing in the given files are reported, and the
/// `unused-allow` pseudo-lint is silenced (entries for untouched files
/// are unknowable from a partial view).
pub fn run_lints_scoped(
    root: &Path,
    only_files: Option<&[String]>,
) -> Result<LintRun, EngineError> {
    let ws = source::Workspace::load(root)
        .map_err(|e| EngineError(format!("loading workspace at {}: {e}", root.display())))?;
    let mut diags = Vec::new();
    let mut notes = Vec::new();
    for lint in lints::all() {
        lint.check(&ws, &mut diags);
        notes.extend(lint.note(&ws).map(|n| format!("{}: {n}", lint.name())));
    }
    let allow_path = root.join("lints.allow.toml");
    let known = lints::known_names();
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| EngineError(format!("reading {}: {e}", allow_path.display())))?;
        allow::AllowFile::parse(&text, &known).map_err(|e| EngineError(e.to_string()))?
    } else {
        allow::AllowFile::default()
    };
    let entries = allow.entries.len();
    if entries > allow::ALLOW_CEILING {
        return Err(EngineError(format!(
            "{} has {entries} entries, ceiling {}: fix the finding instead of allowing it",
            allow_path.display(),
            allow::ALLOW_CEILING
        )));
    }
    notes.push(format!(
        "allow: {entries} lints.allow.toml entries (ceiling {})",
        allow::ALLOW_CEILING
    ));
    let mut kept = allow.apply(diags);
    if let Some(files) = only_files {
        kept.retain(|d| d.lint != "unused-allow" && files.iter().any(|f| f == &d.path));
    }
    kept.sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    Ok(LintRun {
        diagnostics: kept,
        notes,
    })
}

/// Workspace-relative paths of files changed against `HEAD` plus
/// untracked files — the scope of `cargo xtask lint --changed`.
pub fn git_changed_files(root: &Path) -> Result<Vec<String>, EngineError> {
    let mut files = Vec::new();
    for args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let out = std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .map_err(|e| EngineError(format!("running git {}: {e}", args.join(" "))))?;
        if !out.status.success() {
            return Err(EngineError(format!(
                "git {} failed: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            )));
        }
        files.extend(
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| !l.is_empty())
                .map(str::to_string),
        );
    }
    files.sort();
    files.dedup();
    Ok(files)
}
