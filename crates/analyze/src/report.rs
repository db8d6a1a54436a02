//! Diagnostics: the [`Finding`] type, human-readable rendering, and the
//! hand-rolled JSON report written to `results/json/analyze.json`
//! (mirroring the emitter style in `nbl-sim`'s `report` module — no
//! serde, stable key order).

use std::fmt::Write as _;

/// One lint finding with a span-accurate location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint ID (`no-panic`, `determinism`, `exhaustiveness`,
    /// `event-guard`, `doc-coverage`, `bad-allow`).
    pub lint: &'static str,
    /// Repo-relative file path with `/` separators.
    pub file: String,
    /// 1-based line (0 for file-level findings such as ledger gaps
    /// against a whole consumer surface).
    pub line: u32,
    /// 1-based column (0 when not meaningful).
    pub col: u32,
    /// The item the finding is about — the flagged token, enum variant,
    /// or undocumented pub item name.
    pub item: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `file:line:col: [lint] message` rendering.
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.lint, self.message)
        } else {
            format!(
                "{}:{}:{}: [{}] {}",
                self.file, self.line, self.col, self.lint, self.message
            )
        }
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `analyze.json` report: summary counts plus every finding.
pub fn analyze_json(findings: &[Finding], files_scanned: usize, allows_used: usize) -> String {
    let mut per_lint: Vec<(&'static str, usize)> = Vec::new();
    for f in findings {
        match per_lint.iter_mut().find(|(l, _)| *l == f.lint) {
            Some((_, n)) => *n += 1,
            None => per_lint.push((f.lint, 1)),
        }
    }
    per_lint.sort_by_key(|&(l, _)| l);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"kind\": \"analyze\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(out, "  \"findings_total\": {},", findings.len());
    let _ = writeln!(out, "  \"allows_used\": {allows_used},");
    out.push_str("  \"per_lint\": {");
    for (i, (lint, n)) in per_lint.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {n}", json_str(lint));
    }
    if per_lint.is_empty() {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"item\": {}, \"message\": {}}}",
            json_str(f.lint),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.item),
            json_str(&f.message)
        );
    }
    if findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(lint: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            col: 3,
            item: "unwrap".to_string(),
            message: "msg with \"quotes\"".to_string(),
        }
    }

    #[test]
    fn render_includes_span_and_id() {
        let d = f("no-panic", "crates/core/src/x.rs", 7);
        assert_eq!(
            d.render(),
            "crates/core/src/x.rs:7:3: [no-panic] msg with \"quotes\""
        );
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let j = analyze_json(
            &[f("no-panic", "a.rs", 1), f("determinism", "b.rs", 2)],
            10,
            3,
        );
        assert!(j.contains("\"kind\": \"analyze\""));
        assert!(j.contains("\"findings_total\": 2"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"no-panic\": 1"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_report_is_valid() {
        let j = analyze_json(&[], 0, 0);
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"per_lint\": {}"));
    }
}
