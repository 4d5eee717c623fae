//! Hand-rolled JSON output (the crate is dependency-free by design): the
//! `--format json` diagnostics report (schema
//! `pimdsm-lint-diagnostics-v1`). It is deterministic — sorted entries,
//! no timestamps, no absolute paths — so CI can diff it across runs.

use crate::{Diagnostic, Workspace, RULES};

/// Escapes a string for a JSON string literal (quotes not included).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// The `--format json` document: every unsuppressed diagnostic plus the
/// full allow-directive inventory (each with its mandatory reason), so
/// findings and their suppressions are greppable across CI runs.
pub fn diagnostics_json(ws: &Workspace, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"pimdsm-lint-diagnostics-v1\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", ws.files.len()));
    out.push_str(&format!(
        "  \"rules\": [{}],\n",
        RULES
            .iter()
            .map(|(id, _)| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            d.rule,
            escape(&d.rel),
            d.line,
            escape(&d.msg)
        ));
    }
    out.push_str(if diags.is_empty() { "],\n" } else { "\n  ],\n" });

    // Allow inventory, sorted by (file, line, rule). Files are already
    // in sorted-path order; directives per file are keyed by line.
    let mut allows: Vec<(String, usize, String, String)> = Vec::new();
    for entry in &ws.files {
        for ds in entry.file.allows.values() {
            for d in ds {
                allows.push((
                    entry.file.rel.clone(),
                    d.line,
                    d.rule.clone(),
                    d.reason.clone(),
                ));
            }
        }
    }
    allows.sort();
    out.push_str("  \"allows\": [");
    for (i, (rel, line, rule, reason)) in allows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
            escape(rule),
            escape(rel),
            line,
            escape(reason)
        ));
    }
    out.push_str(if allows.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}
