//! Diagnostics: line-numbered, severity-tagged findings with a human
//! rendering (`line N: error[code]: message`) and a machine rendering
//! (one JSON object per line, hand-rolled — no serde in this workspace).

use std::fmt;

/// How bad a finding is. Errors make a script unrunnable (the engine
/// would reject it); warnings flag suspicious-but-executable constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but executable.
    Warning,
    /// The engine would reject this.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A mechanical rewrite of the diagnosed line that `gea-cli --check
/// --fix` can apply. Fixes are token-level so the fixer never has to
/// re-serialize a whole command: the line is re-tokenized, the edit is
/// applied if its guard still matches, and the line is re-rendered with
/// canonical quoting. (An out-of-domain parameter has no fix: it is a
/// parse error, and the fixer comments the line out.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fix {
    /// Replace every argument token equal to `from` with `to` (the verb
    /// token is never touched). Used for nearest-name suggestions.
    ReplaceName {
        /// The misspelled name.
        from: String,
        /// The suggested name.
        to: String,
    },
}

/// One finding, anchored to a 1-based script line (for the server's
/// `check` verb, the 1-based position in the `;`-separated pipeline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based script line (or pipeline position).
    pub line: usize,
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-matchable code, e.g. `world-mismatch`.
    pub code: &'static str,
    /// Human explanation.
    pub message: String,
    /// Optional actionable hint, e.g. a nearest-name suggestion.
    pub help: Option<String>,
    /// Optional mechanical rewrite `--fix` can apply.
    pub fix: Option<Fix>,
}

impl Diagnostic {
    /// An error finding.
    pub fn error(line: usize, code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            line,
            severity: Severity::Error,
            code,
            message: message.into(),
            help: None,
            fix: None,
        }
    }

    /// A warning finding.
    pub fn warning(line: usize, code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            line,
            severity: Severity::Warning,
            code,
            message: message.into(),
            help: None,
            fix: None,
        }
    }

    /// Attach an actionable hint (rendered as an indented `help:` line).
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Attach a mechanical rewrite for `--fix`.
    pub fn with_fix(mut self, fix: Fix) -> Self {
        self.fix = Some(fix);
        self
    }

    /// `line N: severity[code]: message`, plus an indented `help:` line
    /// when a hint is attached.
    pub fn render(&self) -> String {
        let mut out = format!(
            "line {}: {}[{}]: {}",
            self.line, self.severity, self.code, self.message
        );
        if let Some(help) = &self.help {
            out.push_str("\n  help: ");
            out.push_str(help);
        }
        out
    }

    /// One JSON object: `{"line":N,"severity":"…","code":"…","message":"…"}`,
    /// with a `"help"` key when a hint is attached.
    pub fn render_machine(&self) -> String {
        let mut out = format!(
            r#"{{"line":{},"severity":"{}","code":"{}","message":"{}""#,
            self.line,
            self.severity,
            json_escape(self.code),
            json_escape(&self.message)
        );
        if let Some(help) = &self.help {
            out.push_str(&format!(r#","help":"{}""#, json_escape(help)));
        }
        if let Some(fix) = &self.fix {
            let Fix::ReplaceName { from, to } = fix;
            let described = format!("replace {from:?} with {to:?}");
            out.push_str(&format!(r#","fix":"{}""#, json_escape(&described)));
        }
        out.push('}');
        out
    }
}

fn json_escape(s: &str) -> String {
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

/// The analyzer's output: every finding plus how much it looked at.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, sorted by line.
    pub diagnostics: Vec<Diagnostic>,
    /// How many commands were analyzed.
    pub commands: usize,
}

impl CheckReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// No errors (warnings allowed): the script is safe to execute.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// One-line verdict, e.g. `checked 7 command(s): 2 error(s), 1 warning(s)`.
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            format!("checked {} command(s): clean", self.commands)
        } else {
            format!(
                "checked {} command(s): {} error(s), {} warning(s)",
                self.commands,
                self.errors(),
                self.warnings()
            )
        }
    }

    /// Human rendering: the summary, then one line per finding.
    pub fn render(&self) -> String {
        let mut out = self.summary();
        for d in &self.diagnostics {
            out.push('\n');
            out.push_str(&d.render());
        }
        out
    }

    /// Machine rendering: one JSON object per finding, one per line.
    pub fn render_machine(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&d.render_machine());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_human_and_machine() {
        let d = Diagnostic::error(3, "world-mismatch", "gap needs a SUMY but \"E\" is ENUM");
        assert_eq!(
            d.render(),
            "line 3: error[world-mismatch]: gap needs a SUMY but \"E\" is ENUM"
        );
        assert_eq!(
            d.render_machine(),
            r#"{"line":3,"severity":"error","code":"world-mismatch","message":"gap needs a SUMY but \"E\" is ENUM"}"#
        );
    }

    #[test]
    fn report_counts_and_verdict() {
        let mut r = CheckReport {
            commands: 4,
            ..Default::default()
        };
        assert!(r.is_clean());
        assert_eq!(r.summary(), "checked 4 command(s): clean");
        r.diagnostics
            .push(Diagnostic::warning(1, "dead-assignment", "x"));
        assert!(r.is_clean(), "warnings alone keep a script runnable");
        r.diagnostics
            .push(Diagnostic::error(2, "undefined-name", "y"));
        assert!(!r.is_clean());
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(
            r.summary(),
            "checked 4 command(s): 1 error(s), 1 warning(s)"
        );
        assert_eq!(r.render_machine().lines().count(), 2);
    }

    #[test]
    fn help_renders_in_both_formats() {
        let d = Diagnostic::error(2, "undefined-name", "purity: no name \"f_9\"")
            .with_help("did you mean \"f_1\"?");
        assert_eq!(
            d.render(),
            "line 2: error[undefined-name]: purity: no name \"f_9\"\n  help: did you mean \"f_1\"?"
        );
        assert_eq!(
            d.render_machine(),
            r#"{"line":2,"severity":"error","code":"undefined-name","message":"purity: no name \"f_9\"","help":"did you mean \"f_1\"?"}"#
        );
        // The JSON stays one line even with a help key attached.
        assert_eq!(d.render_machine().lines().count(), 1);
        // Without a hint the key is absent, keeping old consumers stable.
        assert!(!Diagnostic::error(1, "c", "m")
            .render_machine()
            .contains("help"));
    }

    #[test]
    fn machine_rendering_escapes_controls() {
        let d = Diagnostic::warning(1, "c", "tab\there \"quoted\" \\ back\nnewline");
        let m = d.render_machine();
        assert!(m.contains(r#"tab\there"#));
        assert!(m.contains(r#"\"quoted\""#));
        assert!(m.contains(r#"\\ back"#));
        assert!(m.contains(r#"back\nnewline"#));
        // The rendering itself stays one line.
        assert_eq!(m.lines().count(), 1);
    }
}
