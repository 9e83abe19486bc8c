//! Lint diagnostics and their machine-readable JSON rendering.

use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint name (`unit-discipline`, …).
    pub lint: &'static str,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as the machine-readable report consumed by CI
/// (`cargo xtask lint --json`, archived as a build artifact).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(d.lint),
            json_escape(&d.path),
            d.line,
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", diags.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped_and_counted() {
        let diags = vec![Diagnostic {
            lint: "unit-discipline",
            path: "crates/sim/src/a.rs".to_string(),
            line: 3,
            message: "found \"Instant\"\nhere".to_string(),
        }];
        let json = to_json(&diags);
        assert!(json.contains(r#"\"Instant\""#));
        assert!(json.contains(r"\n"));
        assert!(json.contains("\"count\": 1"));
    }
}
