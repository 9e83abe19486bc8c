//! Source model for the lint engine: lexed files with `#[cfg(test)]`
//! masking, and the workspace walker that decides what gets linted.

use crate::lexer::{lex, Tok, Token};
use std::io;
use std::path::{Path, PathBuf};

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` — token `i` belongs to an item that only test (or
    /// Miri) builds compile (lints about production code skip these
    /// regions).
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lex `src` under the given workspace-relative path.
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_mask = test_mask(&tokens);
        SourceFile {
            rel: rel.to_string(),
            tokens,
            test_mask,
        }
    }

    /// Significant tokens (no comments) outside test regions, with their
    /// indices into `self.tokens`.
    pub fn code(&self) -> Vec<(usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| !self.test_mask[*i] && !matches!(t.tok, Tok::Comment(_)))
            .collect()
    }
}

/// Compute the test mask: any item (through its full brace/semicolon
/// extent) with an attribute that keeps it out of non-test builds —
/// `#[test]`, `#[cfg(test)]`, `#[cfg(miri)]`, `#[cfg(all(test, …))]` — is
/// masked, attributes included. `#[cfg(not(test))]` items are scanned.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        // Inner attribute `#![…]` applies to the enclosing module/crate,
        // never gates the next item; skip over it.
        let inner = matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('!')));
        if inner {
            j += 1;
        }
        if !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
            i += 1;
            continue;
        }
        let (attr_end, mut gated) = scan_attr(tokens, j);
        if inner {
            gated = false;
        }
        if !gated {
            i = attr_end;
            continue;
        }
        // Consume any further attributes, then the gated item itself.
        let mut k = attr_end;
        while matches!(tokens.get(k).map(|t| &t.tok), Some(Tok::Punct('#')))
            && matches!(tokens.get(k + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
        {
            let (next_end, _) = scan_attr(tokens, k + 1);
            k = next_end;
        }
        let item_end = scan_item(tokens, k);
        for m in mask.iter_mut().take(item_end).skip(attr_start) {
            *m = true;
        }
        i = item_end;
    }
    mask
}

/// Scan a bracketed attribute starting at the `[` at index `open`.
/// Returns `(index past the closing ], attribute gates its item on a test
/// build)`.
fn scan_attr(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    let body: Vec<&Tok> = tokens[open + 1..i]
                        .iter()
                        .map(|t| &t.tok)
                        .filter(|t| !matches!(t, Tok::Comment(_)))
                        .collect();
                    return (i + 1, gates_on_test(&body));
                }
            }
            _ => {}
        }
    }
    (tokens.len(), false)
}

/// Whether an attribute body keeps its item out of every non-test build:
/// `test`, or `cfg(P)` with `P` implying a test (or Miri) build.
/// `cfg(not(test))`, `cfg_attr(…)` and every other attribute do not.
fn gates_on_test(body: &[&Tok]) -> bool {
    match body {
        [Tok::Ident(s)] => s == "test",
        [Tok::Ident(cfg), Tok::Punct('('), pred @ .., Tok::Punct(')')] if cfg == "cfg" => {
            implies_test(pred)
        }
        _ => false,
    }
}

/// Whether cfg predicate `pred` holds only in a test or Miri build:
/// `test`, `miri`, `all(…)` with one such argument, `any(…)` with only
/// such arguments.
fn implies_test(pred: &[&Tok]) -> bool {
    match pred {
        [Tok::Ident(s)] => s == "test" || s == "miri",
        [Tok::Ident(op), Tok::Punct('('), args @ .., Tok::Punct(')')] => {
            let mut args = cfg_args(args);
            match op.as_str() {
                "all" => args.any(implies_test),
                "any" => args.all(implies_test),
                _ => false,
            }
        }
        _ => false,
    }
}

/// The comma-separated arguments of a cfg combinator, split at depth 0.
fn cfg_args<'a>(args: &'a [&'a Tok]) -> impl Iterator<Item = &'a [&'a Tok]> {
    let mut depth = 0usize;
    args.split(move |t| {
        match t {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => depth = depth.saturating_sub(1),
            _ => {}
        }
        depth == 0 && **t == Tok::Punct(',')
    })
    .filter(|arg| !arg.is_empty())
}

/// Scan one item starting at `start`: ends at the first `;` at brace depth
/// zero, or at the `}` closing the first opened brace. Returns the index
/// one past the end.
fn scan_item(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct(';') if depth == 0 => return i + 1,
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// The workspace under analysis: every `.rs` file below `crates/*/src/`
/// plus the root crate's `src/`. `xtask/` itself is intentionally out
/// of scope, as are test/bench/example targets — per-lint path scoping
/// narrows further.
#[derive(Debug)]
pub struct Workspace {
    /// Root directory the `rel` paths are relative to.
    pub root: PathBuf,
    /// Loaded files, sorted by `rel` (deterministic lint output).
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the lintable files under `root`. File contents are read
    /// sequentially (the walk is I/O bound and must stay ordered for
    /// deterministic error reporting), then lexed in parallel across the
    /// available cores; the final sort by `rel` keeps lint output
    /// deterministic regardless of which thread parsed what.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut sources: Vec<(String, String)> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in sorted_dir(&crates_dir)? {
                let src = entry.join("src");
                if src.is_dir() {
                    read_tree(root, &src, &mut sources)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            read_tree(root, &root_src, &mut sources)?;
        }
        let mut files = parse_parallel(sources);
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }
}

fn sorted_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn read_tree(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for path in sorted_dir(dir)? {
        if path.is_dir() {
            read_tree(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("path under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let src = std::fs::read_to_string(&path)?;
            out.push((rel, src));
        }
    }
    Ok(())
}

/// Lex the gathered sources across the available cores. Ordering is not
/// preserved here — the caller sorts by `rel`.
fn parse_parallel(sources: Vec<(String, String)>) -> Vec<SourceFile> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(sources.len().max(1));
    if workers <= 1 {
        return sources
            .into_iter()
            .map(|(rel, src)| SourceFile::parse(&rel, &src))
            .collect();
    }
    let queue = std::sync::Mutex::new(sources);
    let mut files = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut parsed = Vec::new();
                    loop {
                        // PANICS: a poisoned queue means a worker panicked
                        // mid-lex; re-raising on join is the right outcome.
                        let next = queue.lock().expect("source queue").pop();
                        match next {
                            Some((rel, src)) => parsed.push(SourceFile::parse(&rel, &src)),
                            None => return parsed,
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            // PANICS: propagate a lexer panic instead of reporting a
            // silently truncated workspace.
            files.extend(h.join().expect("lint worker panicked"));
        }
    });
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "pub fn real() { HashMap::new(); }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { HashSet::new(); }\n}\n",
        );
        let visible: Vec<&str> = f
            .code()
            .iter()
            .filter_map(|(_, t)| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(visible.contains(&"HashMap"));
        assert!(!visible.contains(&"HashSet"));
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "#[test]\nfn t() { Instant::now(); }\nfn real() { keep(); }\n",
        );
        let visible: Vec<&str> = f
            .code()
            .iter()
            .filter_map(|(_, t)| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(!visible.contains(&"Instant"));
        assert!(visible.contains(&"keep"));
    }

    #[test]
    fn inner_deny_attr_does_not_mask_file() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "#![deny(unsafe_op_in_unsafe_fn)]\nfn real() { body(); }\n",
        );
        let visible = f.code().len();
        assert!(visible > 3, "inner attribute must not gate the file");
    }

    #[test]
    fn only_test_only_gates_mask() {
        let visible = |src: &str| -> Vec<String> {
            SourceFile::parse("crates/x/src/lib.rs", src)
                .code()
                .iter()
                .filter_map(|(_, t)| match &t.tok {
                    Tok::Ident(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        };
        for gate in [
            "cfg(miri)",
            "cfg(all(test, feature = \"simd\"))",
            "cfg(all(unix, any(test, miri)))",
            "cfg(any(test, miri))",
        ] {
            let seen = visible(&format!("#[{gate}]\nfn gated() {{ hidden(); }}\n"));
            assert!(!seen.contains(&"hidden".to_string()), "{gate}: {seen:?}");
        }
        for gate in [
            "cfg(not(test))",
            "cfg(any(test, feature = \"simd\"))",
            "cfg(all(not(test), unix))",
            "cfg_attr(test, derive(Debug))",
            "cfg_attr(not(test), inline)",
        ] {
            let seen = visible(&format!("#[{gate}]\nfn built() {{ shown(); }}\n"));
            assert!(seen.contains(&"shown".to_string()), "{gate}: {seen:?}");
        }
    }

    #[test]
    fn cfg_test_use_statement_is_masked() {
        let f = SourceFile::parse(
            "crates/x/src/lib.rs",
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n",
        );
        let visible: Vec<&str> = f
            .code()
            .iter()
            .filter_map(|(_, t)| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(!visible.contains(&"HashMap"));
        assert!(visible.contains(&"real"));
    }
}
