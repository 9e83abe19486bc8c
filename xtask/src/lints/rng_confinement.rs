//! L1 `rng-confinement`: the hazard kernel (`crates/sim/src/kernel.rs`)
//! is the only production code in the simulators allowed to touch RNG
//! construction or likelihood accounting. Outside it, any mention of
//! `ChaCha12Rng` (the workspace's one trial generator, `mlec_runner::rng`),
//! `sample_exponential`, or `PathWeight` in
//! `crates/{sim,analysis,core,store}` is a violation: scattered RNG streams
//! are how draw-order (and with it every fixed-seed golden and the
//! exactness of importance weights) silently breaks.
//!
//! Definition sites (`failure.rs`, `importance.rs`) and the trace
//! synthesizer are suppressed in `lints.allow.toml` with reasons, not
//! hardcoded here.

use super::Lint;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::Workspace;

const FORBIDDEN: &[&str] = &["ChaCha12Rng", "sample_exponential", "PathWeight"];

const SCOPE: &[&str] = &[
    "crates/sim/src/",
    "crates/analysis/src/",
    "crates/core/src/",
    "crates/store/src/",
];

/// The kernel owns randomness; everything else asks the kernel.
const KERNEL: &str = "crates/sim/src/kernel.rs";

/// L1: RNG construction and likelihood accounting confined to the kernel.
pub struct RngConfinement;

impl Lint for RngConfinement {
    fn name(&self) -> &'static str {
        "rng-confinement"
    }

    fn description(&self) -> &'static str {
        "no ChaCha12Rng/sample_exponential/PathWeight outside crates/sim/src/kernel.rs"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if file.rel == KERNEL || !SCOPE.iter().any(|p| file.rel.starts_with(p)) {
                continue;
            }
            for (_, t) in file.code() {
                if let Tok::Ident(name) = &t.tok {
                    if FORBIDDEN.contains(&name.as_str()) {
                        out.push(Diagnostic {
                            lint: self.name(),
                            path: file.rel.clone(),
                            line: t.line,
                            message: format!(
                                "`{name}` outside the hazard kernel ({KERNEL}): RNG streams \
                                 and likelihood-ratio accounting are confined to the kernel \
                                 so draw order and importance weights stay exact"
                            ),
                        });
                    }
                }
            }
        }
    }
}
