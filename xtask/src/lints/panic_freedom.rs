//! L8 `panic-freedom`: the data plane (`crates/store/src/`,
//! `crates/sim/src/`) must not panic on untrusted input or mid-campaign
//! state. Clippy finds the panic sites: both crates turn on
//! `clippy::{indexing_slicing, unwrap_used, expect_used}` outside test
//! code, and CI's `-D warnings` makes each finding an error. A site whose
//! panic cannot fire, or is the correct response (a poisoned lock),
//! carries `#[expect(clippy::<lint>, reason = "…")]` on its statement.
//! Once the site stops panicking the expectation is itself an error
//! (`unfulfilled_lint_expectations`), so a stale justification cannot stay.
//!
//! What clippy cannot hold is the budget. A justification is a debt, not
//! a fix: this lint counts the `#[expect]`s naming one of the three lints
//! outside test regions, `cargo xtask lint` prints the count, and a count
//! above [`PANICS_CEILING`] is a finding — so the number can only fall as
//! invariants move into types and `Result`s. It also reports every
//! suppression that would escape the count or cover more than one
//! statement: an `allow` naming one of the lints, an inner `#![expect(…)]`,
//! an `expect` on a `fn`, `impl`, `mod` or `trait`, and an `expect` behind
//! `cfg_attr`.

use super::Lint;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, Token};
use crate::source::{SourceFile, Workspace};

const SCOPES: &[&str] = &["crates/store/src/", "crates/sim/src/"];

/// The clippy lints that find panic sites, and `restriction`, the group
/// that holds all three.
const PANIC_LINTS: &[&str] = &[
    "indexing_slicing",
    "unwrap_used",
    "expect_used",
    "restriction",
];

/// The most `#[expect]`-justified panic sites the data plane may carry.
/// Lower it whenever the printed count falls; never raise it.
const PANICS_CEILING: usize = 25;

/// One `allow(…)` or `expect(…)` attribute naming a panic lint.
struct Suppression {
    line: u32,
    /// `expect(…)`, else `allow(…)`.
    expect: bool,
    /// An inner `#![…]` attribute.
    inner: bool,
    /// Inside `cfg_attr(…)`.
    conditional: bool,
    /// The attribute sits on a `fn`, `impl`, `mod` or `trait`.
    on_item: bool,
    /// Inside a test region.
    test: bool,
}

/// Every suppression of a panic lint in `file`, test regions included.
fn suppressions(file: &SourceFile) -> Vec<Suppression> {
    let toks = &file.tokens;
    let mut found = Vec::new();
    for (at, hash) in toks.iter().enumerate() {
        let inner = toks.get(at + 1).map(|t| &t.tok) == Some(&Tok::Punct('!'));
        let open = at + 1 + usize::from(inner);
        if hash.tok != Tok::Punct('#') || toks.get(open).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
            continue;
        }
        let close = closing(toks, open, '[', ']');
        let body = &toks[open + 1..close];
        let level = body.iter().find_map(|t| match &t.tok {
            Tok::Ident(s) if s == "allow" || s == "expect" => Some(s.as_str()),
            _ => None,
        });
        let names_panic_lint = body.windows(4).any(|w| {
            matches!(
                [&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok],
                [Tok::Ident(c), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(l)]
                    if c == "clippy" && PANIC_LINTS.contains(&l.as_str())
            )
        });
        if let (Some(level), true) = (level, names_panic_lint) {
            found.push(Suppression {
                line: hash.line,
                expect: level == "expect",
                inner,
                conditional: body.first().map(|t| &t.tok) == Some(&Tok::Ident("cfg_attr".into())),
                on_item: !inner && item_follows(toks, close + 1),
                test: file.test_mask[at],
            });
        }
    }
    found
}

/// Index of the `close` matching the `open` at `from`, or the end of `toks`.
fn closing(toks: &[Token], from: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(from) {
        if t.tok == Tok::Punct(open) {
            depth += 1;
        } else if t.tok == Tok::Punct(close) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Whether the tokens from `at` start a `fn`, `impl`, `mod` or `trait`,
/// past any further attributes, comments, visibility and qualifiers.
fn item_follows(toks: &[Token], mut at: usize) -> bool {
    while let Some(t) = toks.get(at) {
        at = match &t.tok {
            Tok::Punct('#') => closing(toks, at + 1, '[', ']'),
            Tok::Punct('(') => closing(toks, at, '(', ')'),
            Tok::Ident(s)
                if matches!(s.as_str(), "pub" | "const" | "async" | "unsafe" | "extern") =>
            {
                at
            }
            Tok::Comment(_) | Tok::Str(_) => at,
            Tok::Ident(s) => return matches!(s.as_str(), "fn" | "impl" | "mod" | "trait"),
            _ => return false,
        } + 1;
    }
    false
}

/// Counted `#[expect]`s outside test regions, per entry of [`SCOPES`].
fn justified_sites(ws: &Workspace) -> [usize; SCOPES.len()] {
    let mut counts = [0; SCOPES.len()];
    for file in &ws.files {
        let Some(scope) = SCOPES.iter().position(|s| file.rel.starts_with(s)) else {
            continue;
        };
        counts[scope] += suppressions(file)
            .iter()
            .filter(|s| s.expect && !s.test)
            .count();
    }
    counts
}

/// L8: data-plane panic sites are clippy findings, each justified by a
/// statement-level `#[expect]`, and their count may only fall.
pub struct PanicFreedom;

impl Lint for PanicFreedom {
    fn name(&self) -> &'static str {
        "panic-freedom"
    }

    fn description(&self) -> &'static str {
        "store+sim panic sites need a statement-level #[expect(clippy::…)], within a falling budget"
    }

    fn note(&self, ws: &Workspace) -> Option<String> {
        let [store, sim] = justified_sites(ws);
        Some(format!(
            "{} justified `#[expect]` panic sites (store {store}, sim {sim}; ceiling {PANICS_CEILING})",
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
                    "{sites} `#[expect]` panic sites in the data plane, ceiling {PANICS_CEILING}: \
                     make the new panic unreachable by type or return a `Result` instead of \
                     justifying it"
                ),
            });
        }
        for file in &ws.files {
            if !SCOPES.iter().any(|s| file.rel.starts_with(s)) {
                continue;
            }
            for s in suppressions(file) {
                let problem = if !s.expect {
                    "an `allow` hides the site from the budget and outlives it"
                } else if s.inner {
                    "an inner `#![expect]` covers every site of its module"
                } else if s.on_item {
                    "an `expect` on a `fn`, `impl`, `mod` or `trait` covers every site inside it"
                } else if s.conditional {
                    "an `expect` behind `cfg_attr` escapes the budget"
                } else {
                    continue;
                };
                out.push(Diagnostic {
                    lint: self.name(),
                    path: file.rel.clone(),
                    line: s.line,
                    message: format!(
                        "{problem}: justify each panic site with \
                         `#[expect(clippy::…, reason = \"…\")]` on its own statement"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> (usize, Vec<Diagnostic>) {
        let ws = Workspace {
            root: std::path::PathBuf::new(),
            files: vec![SourceFile::parse("crates/store/src/lib.rs", src)],
        };
        let mut out = Vec::new();
        PanicFreedom.check(&ws, &mut out);
        (justified_sites(&ws).iter().sum(), out)
    }

    const SITE: &str = "fn f(xs: &[u8]) -> u8 {\n    \
        #[expect(clippy::indexing_slicing, reason = \"fixture\")]\n    \
        let x = xs[0];\n    x\n}\n";

    #[test]
    fn statement_expects_count_quietly_up_to_the_ceiling() {
        let (sites, out) = findings(&SITE.repeat(PANICS_CEILING));
        assert_eq!(sites, PANICS_CEILING);
        assert!(out.is_empty(), "{out:?}");
        let (sites, over) = findings(&SITE.repeat(PANICS_CEILING + 1));
        assert_eq!(sites, PANICS_CEILING + 1);
        assert_eq!(over.len(), 1, "{over:?}");
        assert!(over[0].message.contains("ceiling"));
    }

    #[test]
    fn test_regions_are_not_counted() {
        let (sites, out) = findings(&format!("#[cfg(test)]\nmod tests {{\n{SITE}}}\n"));
        assert_eq!(sites, 0);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn suppressions_wider_than_a_statement_are_findings() {
        for (src, line, problem) in [
            (
                "fn ok() {}\n#[expect(clippy::unwrap_used, reason = \"r\")]\npub(crate) fn f() {}\n",
                2,
                "on a `fn`",
            ),
            (
                "#![expect(clippy::expect_used, reason = \"r\")]\nfn f() {}\n",
                1,
                "inner",
            ),
            (
                "fn f(x: Option<u8>) -> u8 {\n    #[allow(clippy::unwrap_used)]\n    \
                 let y = x.unwrap();\n    y\n}\n",
                2,
                "`allow`",
            ),
            (
                "fn f(xs: &[u8]) -> u8 {\n    \
                 #[cfg_attr(not(test), expect(clippy::indexing_slicing, reason = \"r\"))]\n    \
                 let x = xs[0];\n    x\n}\n",
                2,
                "`cfg_attr`",
            ),
        ] {
            let (_, out) = findings(src);
            assert_eq!(out.len(), 1, "{src}: {out:?}");
            assert_eq!(out[0].line, line, "{src}");
            assert!(out[0].message.contains(problem), "{src}: {out:?}");
        }
    }

    #[test]
    fn other_lints_and_levels_are_ignored() {
        let src = "#![cfg_attr(not(test), warn(clippy::indexing_slicing))]\n\
                   #[allow(clippy::too_many_lines)]\nfn f() {}\n";
        assert_eq!(findings(src), (0, Vec::new()));
    }
}
