//! L8 `panic-freedom`: the data plane (`crates/store/src/`,
//! `crates/sim/src/`) must not panic on untrusted input or mid-campaign
//! state. Every `.unwrap()`, `.expect(…)`, and direct slice/array index
//! (`xs[i]`, `xs[a..b]`) outside `#[cfg(test)]` regions requires an
//! attached `// PANICS:` comment justifying why the panic is unreachable
//! (or is the correct response, e.g. a poisoned invariant) — mirroring
//! L4's `// SAFETY:` contract for `unsafe`.
//!
//! Attachment rule (same as L4): walking backwards from the panic site, a
//! comment containing `PANICS` must appear before any statement boundary
//! (`;`, `{`, `}`) — i.e. the comment sits on the statement introducing
//! the panic. One comment covers every panic site in its statement.
//!
//! A justification is a debt, not a fix: the lint counts the `// PANICS:`
//! comments in scope, `cargo xtask lint` prints the count, and a count
//! above [`PANICS_CEILING`] is a finding — so the number can only fall
//! as invariants move into types and `Result`s (ROADMAP 4).

use super::Lint;
use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::{SourceFile, Workspace};

const SCOPES: &[&str] = &["crates/store/src/", "crates/sim/src/"];

/// The most justified `// PANICS:` sites the data plane may carry. Lower
/// it whenever the printed count falls; never raise it.
const PANICS_CEILING: usize = 38;

/// `// PANICS:` comments outside test regions, per entry of [`SCOPES`].
fn justified_sites(ws: &Workspace) -> [usize; SCOPES.len()] {
    let mut counts = [0; SCOPES.len()];
    for file in &ws.files {
        let Some(scope) = SCOPES.iter().position(|s| file.rel.starts_with(s)) else {
            continue;
        };
        counts[scope] += file
            .tokens
            .iter()
            .zip(&file.test_mask)
            .filter(|(t, &test)| !test && matches!(&t.tok, Tok::Comment(c) if c.contains("PANICS")))
            .count();
    }
    counts
}

/// L8: data-plane panics need an attached `// PANICS:` justification.
pub struct PanicFreedom;

impl Lint for PanicFreedom {
    fn name(&self) -> &'static str {
        "panic-freedom"
    }

    fn description(&self) -> &'static str {
        "unwrap/expect/indexing in the store+sim data plane needs a // PANICS: comment"
    }

    fn note(&self, ws: &Workspace) -> Option<String> {
        let [store, sim] = justified_sites(ws);
        Some(format!(
            "{} justified `// PANICS:` sites (store {store}, sim {sim}; ceiling {PANICS_CEILING})",
            store + sim
        ))
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let sites: usize = justified_sites(ws).iter().sum();
        if sites > PANICS_CEILING {
            out.push(Diagnostic {
                lint: self.name(),
                path: "xtask/src/lints/panic_freedom.rs".to_string(),
                line: 1,
                message: format!(
                    "{sites} `// PANICS:` sites in the data plane, ceiling {PANICS_CEILING}: \
                     make the new panic unreachable by type or return a `Result` instead of \
                     justifying it"
                ),
            });
        }
        for file in &ws.files {
            if !SCOPES.iter().any(|s| file.rel.starts_with(s)) {
                continue;
            }
            for (i, t) in file.code() {
                let what = match &t.tok {
                    // `.unwrap()` / `.expect(` — method position only.
                    Tok::Ident(s) if (s == "unwrap" || s == "expect") => {
                        let dotted = matches!(
                            i.checked_sub(1)
                                .and_then(|p| file.tokens.get(p))
                                .map(|t| &t.tok),
                            Some(Tok::Punct('.'))
                        );
                        let called = matches!(
                            file.tokens.get(i + 1).map(|t| &t.tok),
                            Some(Tok::Punct('('))
                        );
                        if dotted && called {
                            Some(format!("`.{s}()`"))
                        } else {
                            None
                        }
                    }
                    // Direct indexing: `[` right after a value (identifier,
                    // call result, or another index). Attribute brackets
                    // (`#[…]`), types (`&[T]`), macros (`vec![…]`), and
                    // array literals never follow a value token.
                    Tok::Punct('[') => {
                        let prev = i.checked_sub(1).and_then(|p| file.tokens.get(p));
                        match prev.map(|t| &t.tok) {
                            Some(Tok::Ident(name))
                                if !matches!(
                                    name.as_str(),
                                    "mut" | "dyn" | "return" | "break" | "in" | "as"
                                ) =>
                            {
                                Some(format!("indexing `{name}[…]`"))
                            }
                            Some(Tok::Punct(')' | ']')) => Some("indexing `…[…]`".to_string()),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(what) = what {
                    if !has_attached_panics_comment(file, i) {
                        out.push(Diagnostic {
                            lint: self.name(),
                            path: file.rel.clone(),
                            line: t.line,
                            message: format!(
                                "{what} in the data plane without an attached `// PANICS:` \
                                 comment justifying why it cannot fire"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Walk backwards from the panic site at `idx`: accept if a comment
/// containing `PANICS` appears before any `;`/`{`/`}`.
fn has_attached_panics_comment(file: &SourceFile, idx: usize) -> bool {
    for t in file.tokens[..idx].iter().rev() {
        match &t.tok {
            Tok::Comment(text) if text.contains("PANICS") => return true,
            Tok::Comment(_) => {}
            Tok::Punct(';' | '{' | '}') => return false,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_with_sites(sites: usize) -> Vec<Diagnostic> {
        let src = "fn f(xs: &[u8]) -> u8 {\n    // PANICS: fixture.\n    xs[0]\n}\n".repeat(sites);
        let ws = Workspace {
            root: std::path::PathBuf::new(),
            files: vec![SourceFile::parse("crates/store/src/lib.rs", &src)],
        };
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &mut out);
        out
    }

    #[test]
    fn justified_sites_may_not_rise_above_the_ceiling() {
        assert!(findings_with_sites(PANICS_CEILING).is_empty());
        let over = findings_with_sites(PANICS_CEILING + 1);
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].message.contains("ceiling"));
    }
}
