//! The checked-in suppression file `lints.allow.toml`: every entry names
//! a lint, a path (exact file, or a `/`-terminated directory prefix) and
//! a mandatory reason. Suppressions that match nothing are themselves
//! diagnostics, and the engine refuses a file with more than
//! [`ALLOW_CEILING`] entries, so the file can only shrink as violations
//! are fixed.
//!
//! The format is a deliberately tiny TOML subset (the build environment
//! has no `toml` crate): `[[allow]]` tables with `key = "value"` string
//! pairs and `#` comments.

use crate::diag::Diagnostic;

/// The most entries `lints.allow.toml` may hold. Lower it whenever an
/// entry goes; never raise it.
pub const ALLOW_CEILING: usize = 4;

/// One suppression entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name the entry silences.
    pub lint: String,
    /// Exact workspace-relative file, or a directory prefix ending in `/`.
    pub path: String,
    /// Why the suppression is sound (mandatory).
    pub reason: String,
}

impl AllowEntry {
    fn matches(&self, d: &Diagnostic) -> bool {
        self.lint == d.lint
            && (d.path == self.path || (self.path.ends_with('/') && d.path.starts_with(&self.path)))
    }
}

/// The parsed allow file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllowFile {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A parse failure, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowParseError {
    /// 1-based line of the offending input.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AllowParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lints.allow.toml:{}: {}", self.line, self.message)
    }
}

impl AllowFile {
    /// Parse the TOML-subset text. `known_lints` validates entry names so
    /// a typo cannot silently suppress nothing.
    pub fn parse(text: &str, known_lints: &[&str]) -> Result<AllowFile, AllowParseError> {
        let mut entries: Vec<[Option<String>; 3]> = Vec::new();
        let mut entry_lines: Vec<u32> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                entries.push([None, None, None]);
                entry_lines.push(lineno);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("expected `key = \"value\"` or `[[allow]]`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("value for `{key}` must be a double-quoted string"),
                });
            };
            let Some(entry) = entries.last_mut() else {
                return Err(AllowParseError {
                    line: lineno,
                    message: "key before the first [[allow]] table".to_string(),
                });
            };
            let slot = match key {
                "lint" => 0,
                "path" => 1,
                "reason" => 2,
                other => {
                    return Err(AllowParseError {
                        line: lineno,
                        message: format!("unknown key `{other}` (expected lint/path/reason)"),
                    })
                }
            };
            if entry[slot].is_some() {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("duplicate key `{key}`"),
                });
            }
            entry[slot] = Some(value.to_string());
        }
        let mut out = AllowFile::default();
        for (entry, lineno) in entries.into_iter().zip(entry_lines) {
            let [lint, path, reason] = entry;
            let (Some(lint), Some(path), Some(reason)) = (lint, path, reason) else {
                return Err(AllowParseError {
                    line: lineno,
                    message: "entry must set lint, path, and reason".to_string(),
                });
            };
            if !known_lints.contains(&lint.as_str()) {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("unknown lint `{lint}` (known: {})", known_lints.join(", ")),
                });
            }
            if reason.trim().is_empty() {
                return Err(AllowParseError {
                    line: lineno,
                    message: "reason must not be empty".to_string(),
                });
            }
            out.entries.push(AllowEntry { lint, path, reason });
        }
        Ok(out)
    }

    /// Serialize back to the canonical on-disk form. `parse(to_toml(x)) ==
    /// x` (the round-trip test pins this).
    pub fn to_toml(&self) -> String {
        let mut out = String::from(
            "# Checked-in lint suppressions for `cargo xtask lint`.\n\
             # Every entry must carry a reason; entries matching nothing are errors.\n",
        );
        for e in &self.entries {
            out.push_str(&format!(
                "\n[[allow]]\nlint = \"{}\"\npath = \"{}\"\nreason = \"{}\"\n",
                e.lint, e.path, e.reason
            ));
        }
        out
    }

    /// Split `diags` into kept diagnostics and suppressed ones, appending
    /// an `unused-allow` diagnostic for every entry that matched nothing.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        for d in diags {
            let mut suppressed = false;
            for (i, e) in self.entries.iter().enumerate() {
                if e.matches(&d) {
                    used[i] = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                kept.push(d);
            }
        }
        for (e, was_used) in self.entries.iter().zip(&used) {
            if !was_used {
                kept.push(Diagnostic {
                    lint: "unused-allow",
                    path: "lints.allow.toml".to_string(),
                    line: 1,
                    message: format!(
                        "allow entry (lint = {}, path = {}) matched no diagnostic; remove it",
                        e.lint, e.path
                    ),
                });
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["unit-discipline", "panic-freedom"];

    fn diag(lint: &'static str, path: &str) -> Diagnostic {
        Diagnostic {
            lint,
            path: path.to_string(),
            line: 1,
            message: "m".to_string(),
        }
    }

    #[test]
    fn parse_apply_and_prefix_match() {
        let text = "\n# c\n[[allow]]\nlint = \"unit-discipline\"\npath = \"crates/sim/\"\nreason = \"hour-space boundary\"\n";
        let allow = AllowFile::parse(text, KNOWN).unwrap();
        let kept = allow.apply(vec![
            diag("unit-discipline", "crates/sim/src/kernel.rs"),
            diag("unit-discipline", "crates/store/src/repair.rs"),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].path, "crates/store/src/repair.rs");
    }

    #[test]
    fn unused_entry_is_a_diagnostic() {
        let text =
            "[[allow]]\nlint = \"unit-discipline\"\npath = \"crates/x/src/y.rs\"\nreason = \"r\"\n";
        let allow = AllowFile::parse(text, KNOWN).unwrap();
        let kept = allow.apply(vec![]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].lint, "unused-allow");
    }

    #[test]
    fn unknown_lint_and_missing_reason_are_errors() {
        let bad = "[[allow]]\nlint = \"nope\"\npath = \"p\"\nreason = \"r\"\n";
        assert!(AllowFile::parse(bad, KNOWN).is_err());
        let missing = "[[allow]]\nlint = \"unit-discipline\"\npath = \"p\"\n";
        assert!(AllowFile::parse(missing, KNOWN).is_err());
    }

    #[test]
    fn round_trips() {
        let allow = AllowFile {
            entries: vec![AllowEntry {
                lint: "panic-freedom".to_string(),
                path: "crates/a/src/b.rs".to_string(),
                reason: "bounds held by construction".to_string(),
            }],
        };
        let reparsed = AllowFile::parse(&allow.to_toml(), KNOWN).unwrap();
        assert_eq!(reparsed, allow);
    }
}
