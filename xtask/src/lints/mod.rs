//! The architectural lint registry. Each lint encodes one invariant of
//! DESIGN.md's "Enforced invariants" section; `cargo xtask lint` runs all
//! of them over the workspace and fails on any un-suppressed finding.
//!
//! A lint retires when the toolchain can hold its invariant instead: L1
//! (the hazard kernel's sampler and likelihood weight) and L6 (the store's
//! rack clocks) went once the items they guarded became private to one
//! module; L5 went when typed parameter structs replaced by-name reads;
//! L2 (wall clock and environment reads), L3 (hash-ordered collections)
//! and L4 (`// SAFETY:` comments) went to clippy, configured by the root
//! `clippy.toml` and `[workspace.lints]`. A lint shrinks the same way: L8
//! once walked tokens for `unwrap`/`expect`/indexing, and now clippy finds
//! those sites while L8 keeps only the budget of their `#[expect]`s.

mod panic_freedom;
mod unit_discipline;

use crate::diag::Diagnostic;
use crate::source::Workspace;

pub use panic_freedom::PanicFreedom;
pub use unit_discipline::UnitDiscipline;

/// One architectural lint.
pub trait Lint {
    /// Stable lint name (used in diagnostics and `lints.allow.toml`).
    fn name(&self) -> &'static str;
    /// One-line description for `cargo xtask lint --list`.
    fn description(&self) -> &'static str;
    /// Scan the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
    /// A count worth printing on every run, findings or not.
    fn note(&self, _ws: &Workspace) -> Option<String> {
        None
    }
}

/// Every registered lint, in documentation order (L7, L8: numbers are
/// stable references into DESIGN.md §7, and L1–L6 are retired, never
/// reassigned).
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![Box::new(UnitDiscipline), Box::new(PanicFreedom)]
}

/// Names of every registered lint plus the engine-internal
/// `unused-allow` pseudo-lint (valid in diagnostics, not in allow
/// entries — you cannot suppress the suppression checker).
pub fn known_names() -> Vec<&'static str> {
    all().iter().map(|l| l.name()).collect()
}
