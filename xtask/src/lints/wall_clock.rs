//! L2 `no-wall-clock`: result-producing code must be a pure function of
//! its seed and parameters. Wall-clock reads (`std::time::Instant`,
//! `SystemTime`) and environment-dependent entropy (`env::var`,
//! `thread_rng`, `OsRng`, `from_entropy`) make reruns incomparable and
//! break bit-identical goldens. The deliberate timing surfaces — the
//! Fig 11 measured-mode kernel timer, the runner's telemetry stopwatch,
//! the store's `timing=1` stopwatch — are suppressed in `lints.allow.toml`
//! with reasons.

use super::Lint;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::Workspace;

const FORBIDDEN: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "OsRng",
    "from_entropy",
];

/// `var`/`var_os` are only violations as `env::var` / `env::var_os`.
const ENV_READS: &[&str] = &["var", "var_os"];

/// L2: no wall clock or ambient entropy in result paths.
pub struct NoWallClock;

impl Lint for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "no Instant/SystemTime/env-entropy in result-producing code (timing surfaces allowlisted)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in &ws.files {
            if !file.rel.starts_with("crates/") && !file.rel.starts_with("src/") {
                continue;
            }
            let code = file.code();
            for (pos, (_, t)) in code.iter().enumerate() {
                let Tok::Ident(name) = &t.tok else { continue };
                if FORBIDDEN.contains(&name.as_str()) {
                    out.push(Diagnostic {
                        lint: self.name(),
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`{name}`: results must be a pure function of seed and parameters; \
                             wall-clock and ambient entropy belong only on allowlisted timing \
                             surfaces"
                        ),
                    });
                } else if ENV_READS.contains(&name.as_str()) && env_qualified(&code, pos) {
                    out.push(Diagnostic {
                        lint: self.name(),
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`env::{name}`: environment reads make results depend on ambient \
                             process state"
                        ),
                    });
                }
            }
        }
    }
}

/// Is the identifier at `pos` preceded by `env ::`?
fn env_qualified(code: &[(usize, &crate::lexer::Token)], pos: usize) -> bool {
    if pos < 3 {
        return false;
    }
    matches!(&code[pos - 1].1.tok, Tok::Punct(':'))
        && matches!(&code[pos - 2].1.tok, Tok::Punct(':'))
        && matches!(&code[pos - 3].1.tok, Tok::Ident(s) if s == "env")
}
