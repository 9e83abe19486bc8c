//! The architectural lint registry. Each lint encodes one invariant of
//! DESIGN.md's "Enforced invariants" section; `cargo xtask lint` runs all
//! of them over the workspace and fails on any un-suppressed finding.

mod clock_confinement;
mod det_iter;
mod panic_freedom;
mod rng_confinement;
mod safety;
mod unit_discipline;
mod wall_clock;

use crate::diag::Diagnostic;
use crate::source::Workspace;

pub use clock_confinement::ClockConfinement;
pub use det_iter::DeterministicIteration;
pub use panic_freedom::PanicFreedom;
pub use rng_confinement::RngConfinement;
pub use safety::SafetyComments;
pub use unit_discipline::UnitDiscipline;
pub use wall_clock::NoWallClock;

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

/// Every registered lint, in documentation order (L1–L4, L6–L8: numbers
/// are stable references into DESIGN.md §7, and L5 is unassigned).
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(RngConfinement),
        Box::new(NoWallClock),
        Box::new(DeterministicIteration),
        Box::new(SafetyComments),
        Box::new(ClockConfinement),
        Box::new(UnitDiscipline),
        Box::new(PanicFreedom),
    ]
}

/// Names of every registered lint plus the engine-internal
/// `unused-allow` pseudo-lint (valid in diagnostics, not in allow
/// entries — you cannot suppress the suppression checker).
pub fn known_names() -> Vec<&'static str> {
    all().iter().map(|l| l.name()).collect()
}
