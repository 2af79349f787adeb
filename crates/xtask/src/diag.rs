//! Diagnostics: rustc-style rendering plus the compact one-line form the
//! golden-file fixtures diff against.

use std::fmt;

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Pass identifier (`hotpath-alloc`, `trail-balance`, `determinism`,
    /// `panic-hygiene`, `unsafe-audit`, `lock-discipline`, `waiver`,
    /// `hot-list`).
    pub pass: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to waive or fix it (shown as a `help:` line).
    pub hint: String,
}

impl Diagnostic {
    /// The compact form used by the fixture `.expected` files:
    /// `LINE:COL pass: message`.
    pub fn compact(&self) -> String {
        format!("{}:{} {}: {}", self.line, self.col, self.pass, self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[steiner-lint::{}]: {}", self.pass, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        if !self.hint.is_empty() {
            writeln!(f, "  = help: {}", self.hint)?;
        }
        Ok(())
    }
}

/// Sorts diagnostics into deterministic reporting order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.pass).cmp(&(b.path.as_str(), b.line, b.col, b.pass))
    });
}
